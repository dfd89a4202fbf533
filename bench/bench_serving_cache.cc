/**
 * @file
 * Serving-tier cache benchmark: what a repeat client pays with and
 * without the result cache, on the MCX family.
 *
 * Two variants serve the same program N times through one
 * ServingTier over one process-wide scheduler:
 *
 *   - ServeCold: result cache disabled - every request pays parse,
 *     elaboration, session construction and the full SAT solve (the
 *     daemon minus socket I/O);
 *   - ServeResultHit: result cache on - repeats replay the memoized
 *     verdict and never touch the pool.
 *
 * The interesting counters are serve_s (mean per-request wall time
 * across the repeats) and the tier's result-hit total, which the
 * stats op exposes the same way in the live daemon.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/scheduler.h"
#include "server/options.h"
#include "serving/serving.h"

namespace {

void
runServe(benchmark::State &state, std::size_t result_capacity)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const std::uint32_t m = (n + 1) / 2;
    const std::string source = qb::circuits::mcxQbrSource(m);
    qb::server::Settings settings;
    settings.set(qb::server::Opt::Lane, "portfolio");
    settings.set(qb::server::Opt::Counterexample, "false");
    const qb::core::EngineOptions options =
        qb::server::engineOptions(settings);
    const std::string key = qb::server::fingerprint(settings);

    constexpr int kRepeats = 8;
    for (auto _ : state) {
        // Fresh tier and pool per iteration: the first request is the
        // cold miss, the other kRepeats-1 hit the result cache when
        // this variant has one.
        const auto scheduler =
            std::make_shared<qb::core::Scheduler>(0);
        qb::serving::ServingTier tier({result_capacity});
        for (int r = 0; r < kRepeats; ++r) {
            const auto outcome =
                tier.verify(source, options, false, key, nullptr,
                            scheduler, nullptr);
            if (outcome.failed || !outcome.result.allSafe()) {
                state.SkipWithError("mcx verification failed");
                break;
            }
        }
        state.counters["result_hits"] = static_cast<double>(
            tier.resultCounters().hits);
        state.counters["serve_s"] =
            benchmark::Counter(kRepeats,
                               benchmark::Counter::kIsIterationInvariantRate |
                                   benchmark::Counter::kInvert);
    }
    state.counters["controls"] = n;
}

void
ServeCold(benchmark::State &state)
{
    runServe(state, 0);
}

void
ServeResultHit(benchmark::State &state)
{
    runServe(state, 256);
}

} // namespace

BENCHMARK(ServeCold)
    ->Arg(199)
    ->Arg(499)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(ServeResultHit)
    ->Arg(199)
    ->Arg(499)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
