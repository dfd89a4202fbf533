/**
 * @file
 * Experiment E2 - Figure 6.3 / Table 10.2 of the paper: verification
 * time of the adder program (adder.qbr) for n in {50, 75, ..., 200},
 * with the two solver presets standing in for CVC5 and Bitwuzla.
 *
 * Each run performs the complete pipeline the paper times: generate
 * the program text, parse, elaborate, build the (6.1)/(6.2) formulas
 * for every one of the n-1 dirty qubits, and discharge them.  The
 * solveSeconds counter isolates the solver portion, which is what the
 * paper's tables report.
 *
 * Two execution modes are compared per lane:
 *   - OneShot: a fresh session (arena + Tseitin + solver) per dirty
 *     qubit, reproducing the seed verifyQubit loop;
 *   - Engine: one VerificationEngine session shared by all dirty
 *     qubits (they are borrowed together, so their lifetimes
 *     coincide), discharging every condition through assumption-based
 *     incremental SAT on one solver per lane (lane B's preprocessing
 *     preset discharges per-condition, see EngineOptions::lanes).
 * Portfolio runs both lanes and sends each condition to the one
 * chosen from its cone (EngineOptions::lanes).
 *
 * Reference numbers (1-core container, n = 100): OneShot A 2.55 s /
 * B 0.95 s; Engine A 3.45 s / B 0.81 s.  Lane B wins this family by
 * 2.7x either way (the paper's lane crossover), and the engine beats
 * one-shot on the winning lane; on lane A the adder's per-qubit
 * conditions share too little structure for clause reuse to offset
 * the larger shared solver, which is exactly the trade-off the
 * portfolio's per-condition lane choice exists to cover.
 *
 * Paper reference (MacBook Air M3): CVC5 4/24/71/171/365/751/1069 s,
 * Bitwuzla 3/12/29/98/158/248/313 s for n = 50..200.  Absolute times
 * are not comparable (different solver and machine); the shape -
 * polynomial growth in n - is.
 *
 * Portfolio scheduler vs PR 1 thread racing (1-core container,
 * AdderVerifyEnginePortfolio wall-clock): PR 1 spawned one thread per
 * lane per condition; the persistent scheduler with conflict-sliced
 * racing gets n = 50: 0.426 s -> 0.265 s and n = 100: 1.75 s ->
 * 1.44 s.  Slicing matters most here: lane A loses this family, and
 * without slices a 1-worker pool would run every losing lane-A solve
 * to completion (7.1 s at n = 100) before lane B ever started.
 *
 * Arena clause allocator + inprocessing (PR 3, 1-core container,
 * AdderVerifyEnginePortfolio): n = 50: 0.265 s -> 0.255 s, n = 100:
 * 1.49 s -> 1.34 s wall with peak RSS 70.2 MB -> 54.2 MB; the
 * learnt_db_peak counter shows the shrink + vivify/subsume passes
 * holding the persistent lanes at a few hundred live learnt clauses
 * over the 99-qubit session.
 *
 * Binary watchers + OTF subsumption + adaptive lanes (PR 5, 1-core
 * container, AdderVerifyEnginePortfolio): n = 50: 0.255 s -> 0.251 s,
 * n = 100: 1.34 s -> ~1.16 s; the Adaptive variant lands at 0.263 s /
 * ~1.13 s (best of the pack at n = 100, where the win-rate table has
 * 99 qubits to learn lane B over).  The n = 100 gain is the solver
 * hot path itself: binary propagation decided without arena reads
 * plus learn-time antecedent strengthening.
 *
 * Adaptive race order later became the only order, and the separate
 * Adaptive variant went.
 *
 * One lane per condition instead of a race: the portfolio reads each
 * condition's XOR:AND node ratio and sends adder cones (about one XOR
 * per AND) to lane B alone, so nothing is sliced or raced.  On a
 * 4-vCPU Xeon host, AdderVerifyEnginePortfolio before -> after, with
 * AdderVerifyEngineLaneB alongside: n = 50: 0.103 s -> 0.084 s
 * (0.083 s), n = 100: 0.420 s -> 0.349 s (0.341 s), n = 200: 2.51 s
 * -> 1.88 s (1.99 s).  CI bench-smoke fails if Portfolio/100 takes
 * more than 1.25x LaneB/100.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/verifier.h"
#include "lang/elaborate.h"

namespace {

/** Peak resident set of this process so far, in MiB (ru_maxrss is
 *  KiB on Linux). */
double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Seed behavior: a fresh one-shot session per dirty qubit. */
qb::core::ProgramResult
verifyOneShot(const qb::lang::ElaboratedProgram &program,
              const qb::core::VerifierOptions &options)
{
    qb::core::ProgramResult result;
    for (qb::ir::QubitId q : program.qubitsWithRole(
             qb::lang::QubitRole::BorrowVerify)) {
        const qb::lang::QubitInfo &info = program.qubits[q];
        const qb::ir::Circuit scope =
            program.circuit.slice(info.scopeBegin, info.scopeEnd);
        result.qubits.push_back(
            qb::core::verifyQubit(scope, q, options));
    }
    return result;
}

void
reportCounters(benchmark::State &state,
               const qb::core::ProgramResult &result, std::uint32_t n)
{
    double solve = 0, build = 0;
    std::size_t nodes = 0;
    std::int64_t conflicts = 0;
    for (const auto &r : result.qubits) {
        solve += r.solveSeconds;
        build += r.buildSeconds;
        nodes += r.formulaNodes;
        conflicts += r.conflicts;
    }
    state.counters["solve_s"] = solve;
    state.counters["build_s"] = build;
    state.counters["formula_nodes"] = static_cast<double>(nodes);
    state.counters["conflicts"] = static_cast<double>(conflicts);
    state.counters["dirty_qubits"] = n - 1;
    // Memory line: process peak RSS plus the learnt-DB footprint of
    // the engine sessions (zero in the one-shot variants, which build
    // no persistent lanes) - the numbers the clause-arena GC and the
    // slice-boundary inprocessing are meant to hold down.
    state.counters["peak_rss_mb"] = peakRssMb();
    state.counters["learnt_db_peak"] = static_cast<double>(
        result.solverTotals.peakLearnts);
    state.counters["arena_peak_kw"] =
        static_cast<double>(result.solverTotals.arenaPeakWords) /
        1024.0;
    state.counters["gc_runs"] =
        static_cast<double>(result.solverTotals.gcRuns);
    state.counters["analysis_discharged"] =
        static_cast<double>(result.analysisTotals.discharged);
    state.counters["analysis_discharged_affine"] =
        static_cast<double>(result.analysisTotals.affine);
    // Binary implication graph passes (--binary-analysis): what the
    // slice-boundary SCC/probing/reduction sweeps actually did.
    state.counters["scc_merged_vars"] =
        static_cast<double>(result.solverTotals.sccMergedVars);
    state.counters["probed_failed"] =
        static_cast<double>(result.solverTotals.probedFailed);
    state.counters["hyper_binaries"] =
        static_cast<double>(result.solverTotals.hyperBinaries);
    state.counters["transitive_reduced"] =
        static_cast<double>(result.solverTotals.transitiveReduced);
}

void
runAdderOneShot(benchmark::State &state,
                const qb::core::VerifierOptions &lane)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    qb::core::VerifierOptions options = lane;
    options.wantCounterexample = false;
    qb::core::ProgramResult result;
    for (auto _ : state) {
        const auto program = qb::lang::elaborateSource(
            qb::circuits::adderQbrSource(n));
        result = verifyOneShot(program, options);
        if (!result.allSafe())
            state.SkipWithError("adder verification failed");
    }
    reportCounters(state, result, n);
}

void
runAdderEngine(benchmark::State &state,
               const qb::core::EngineOptions &options)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    qb::core::EngineOptions opts = options;
    for (auto &lane : opts.lanes)
        lane.wantCounterexample = false;
    qb::core::ProgramResult result;
    for (auto _ : state) {
        const auto program = qb::lang::elaborateSource(
            qb::circuits::adderQbrSource(n));
        result = qb::core::verifyAll(program, opts);
        if (!result.allSafe())
            state.SkipWithError("adder verification failed");
    }
    reportCounters(state, result, n);
}

void
AdderVerifyOneShotLaneA(benchmark::State &state)
{
    runAdderOneShot(state, qb::core::VerifierOptions::laneA());
}

void
AdderVerifyOneShotLaneB(benchmark::State &state)
{
    runAdderOneShot(state, qb::core::VerifierOptions::laneB());
}

void
AdderVerifyEngineLaneA(benchmark::State &state)
{
    runAdderEngine(state,
                   qb::core::EngineOptions::singleLane(
                       qb::core::VerifierOptions::laneA()));
}

void
AdderVerifyEngineLaneB(benchmark::State &state)
{
    runAdderEngine(state,
                   qb::core::EngineOptions::singleLane(
                       qb::core::VerifierOptions::laneB()));
}

void
AdderVerifyEnginePortfolio(benchmark::State &state)
{
    runAdderEngine(state, qb::core::EngineOptions::portfolioAB());
}

void
AdderVerifyEnginePortfolioNoAnalysis(benchmark::State &state)
{
    // SAT-only baseline of the portfolio variant.  The adder's
    // conditions are genuinely non-trivial (no mirror, wide cones),
    // so analysis_discharged is 0 either way and the pair measures
    // the pure overhead of consulting the dischargers before SAT.
    qb::core::EngineOptions options =
        qb::core::EngineOptions::portfolioAB();
    options.analysis = qb::analysis::AnalysisOptions::none();
    runAdderEngine(state, options);
}

void
AdderVerifyEnginePortfolioNoBinaryAnalysis(benchmark::State &state)
{
    // Binary-graph passes off.  The adder's carry chain is the
    // natural habitat of the passes (nested, argument-sharing
    // conjunctions), so the on/off pair measures what SCC merging,
    // probing and transitive reduction buy where they genuinely fire
    // - verdicts are identical by construction.
    qb::core::EngineOptions options =
        qb::core::EngineOptions::portfolioAB();
    options.binaryAnalysis = false;
    runAdderEngine(state, options);
}

} // namespace

BENCHMARK(AdderVerifyOneShotLaneA)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(AdderVerifyOneShotLaneB)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(AdderVerifyEngineLaneA)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(AdderVerifyEngineLaneB)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(AdderVerifyEnginePortfolio)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(AdderVerifyEnginePortfolioNoAnalysis)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(AdderVerifyEnginePortfolioNoBinaryAnalysis)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
