#include "serving/serving.h"

#include <chrono>

#include "lang/elaborate.h"

namespace qb::serving {

ServingTier::ServingTier(ServingOptions options)
    : results_(options.resultCacheCapacity)
{
}

ServingTier::Outcome
ServingTier::verify(const std::string &source,
                    const core::EngineOptions &engine_opts,
                    bool check_clean,
                    const std::string &options_key,
                    const core::ResultObserver &observer,
                    const std::shared_ptr<core::Scheduler> &scheduler,
                    const std::shared_ptr<core::CancelSource> &cancel)
{
    const std::uint64_t hash = hashSource(source);
    const auto replay =
        [&observer](const core::ProgramResult &stored) -> Outcome {
        Outcome out;
        out.fromResultCache = true;
        // Stream the memoized per-qubit frames exactly as the cold
        // run did, then hand back the stored struct verbatim - the
        // serialized report is byte-identical to the run that
        // produced it.
        if (observer)
            for (const core::QubitResult &q : stored.qubits)
                observer(q);
        out.result = stored;
        return out;
    };

    // A miss here is not final (an identical submission may be about
    // to publish); the re-check under the flight lock counts it.
    if (const auto stored = results_.lookup(hash, source, options_key,
                                            /*count_miss=*/false))
        return replay(*stored);

    // Single-flight per (source hash, options fingerprint).
    const std::pair<std::uint64_t, std::string> flight{hash,
                                                       options_key};
    {
        std::unique_lock<std::mutex> lock(flightMutex_);
        while (computing_.count(flight) != 0) {
            // An identical submission is computing right now: wait
            // for it to publish instead of duplicating the SAT work.
            flightDone_.wait_for(lock, std::chrono::milliseconds(50));
            if (cancel && cancel->cancelRequested())
                break;
        }
        if (cancel && cancel->cancelRequested()) {
            // Cancelled while waiting on the computing twin: settle
            // with an empty result; the server layer reports
            // "cancelled" from the CancelSource state.
            return Outcome{};
        }
        // The computer publishes to the result cache BEFORE clearing
        // its mark, so a woken waiter hits here.
        if (const auto stored =
                results_.lookup(hash, source, options_key))
            return replay(*stored);
        computing_.insert(flight);
    }

    Outcome out;
    try {
        // Elaboration runs on the calling (request worker) thread,
        // off the SAT pool.
        const lang::ElaboratedProgram program =
            lang::elaborateSource(source);
        out.result = core::verifyAll(program, engine_opts, observer,
                                     check_clean, scheduler, cancel);
    } catch (const std::exception &e) {
        // A bad program fails its request; FatalError (malformed
        // source) is the expected case.
        out.failed = true;
        out.error = e.what();
    }

    {
        const std::lock_guard<std::mutex> guard(flightMutex_);
        const bool cancelled = cancel && cancel->cancelRequested();
        if (!out.failed && !cancelled)
            results_.insert(hash,
                            std::make_shared<const std::string>(source),
                            options_key, out.result);
        // Clear the mark even on failure, so waiters can take over.
        computing_.erase(flight);
    }
    flightDone_.notify_all();
    return out;
}

CacheCounters
ServingTier::resultCounters() const
{
    return results_.counters();
}

} // namespace qb::serving
