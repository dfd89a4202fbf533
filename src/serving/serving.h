/**
 * @file
 * ServingTier: the request-to-engine layer of the qborrow daemon.
 *
 * One ServingTier sits between the server's request workers and
 * core::verifyAll(), composing the result cache of serving/cache.h
 * into the full serving policy for a verify request:
 *
 *   1. RESULT HIT - the (source, options) pair has a memoized
 *      verdict: replay the stored per-qubit results through the
 *      observer and return the stored ProgramResult, byte-identical
 *      to the run that produced it.  No scheduler work at all.
 *   2. MISS - elaborate, verify, publish the result.
 *
 * Every verification builds fresh engine sessions, so a report's
 * solver and analysis counters are that run's own work whatever the
 * cache state.
 *
 * Identical concurrent submissions are SINGLE-FLIGHT per (source
 * hash, options fingerprint): one request computes, the others wait
 * on the tier and answer from the result cache the moment the
 * computer publishes - unless the computer is cancelled or fails, in
 * which case the next waiter takes over the computation.
 * Cancellation is honored at every stage: a cancelled computer's
 * result is NOT memoized (it contains Unknown verdicts) and a
 * cancelled waiter settles with a cancelled outcome within one 50 ms
 * poll.
 */

#ifndef QB_SERVING_SERVING_H
#define QB_SERVING_SERVING_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "core/engine.h"
#include "serving/cache.h"

namespace qb::serving {

/** Capacity of the tier's result cache. */
struct ServingOptions
{
    /** Memoized (program, options) verdicts kept (0 disables). */
    std::size_t resultCacheCapacity = 256;
};

class ServingTier
{
  public:
    /** How a verify() call was answered. */
    struct Outcome
    {
        core::ProgramResult result;
        /** Request failed: the source did not elaborate, or
         *  verification threw. */
        bool failed = false;
        std::string error;
        /** Answered from the result cache (no SAT work). */
        bool fromResultCache = false;
    };

    explicit ServingTier(ServingOptions options);

    /**
     * Serve one verify request.
     *
     * @param source       program text (the cache key).
     * @param engine_opts  fully RESOLVED engine options (server
     *                     defaults + per-request overrides, including
     *                     the request's fairness band).
     * @param check_clean  clean-ancilla checking on/off.
     * @param options_key  fingerprint of every option that affects
     *                     the result (see optionsFingerprint());
     *                     the result cache's key half.
     * @param observer     per-qubit streaming callback (replayed
     *                     verbatim on a result hit).
     * @param scheduler    the process-wide pool.
     * @param cancel       per-request cancellation handle (may be
     *                     null).
     */
    Outcome verify(const std::string &source,
                   const core::EngineOptions &engine_opts,
                   bool check_clean,
                   const std::string &options_key,
                   const core::ResultObserver &observer,
                   const std::shared_ptr<core::Scheduler> &scheduler,
                   const std::shared_ptr<core::CancelSource> &cancel);

    /**
     * Fingerprint of the options that affect a verification RESULT:
     * lane configuration, portfolio flag, clean-ancilla checking,
     * counterexample extraction, conflict budget and the static
     * analysis options (which decide the report's discharge
     * counters).  Deliberately excludes fairnessBand (scheduling
     * only) and pool sizing.
     */
    static std::string
    optionsFingerprint(const core::EngineOptions &engine_opts,
                       bool check_clean);

    CacheCounters resultCounters() const;

  private:
    ResultCache results_;

    /** @name Single-flight state. @{ */
    std::mutex flightMutex_;
    std::condition_variable flightDone_;
    /** (source hash, options fingerprint) pairs being verified right
     *  now; guarded by flightMutex_. */
    std::set<std::pair<std::uint64_t, std::string>> computing_;
    /** @} */
};

} // namespace qb::serving

#endif // QB_SERVING_SERVING_H
