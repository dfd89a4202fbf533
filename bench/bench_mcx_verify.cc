/**
 * @file
 * Experiment E3 - Figure 6.4 / Table 10.3 of the paper: verification
 * time of the MCX program (mcx.qbr) for control counts
 * n = 2m-1 in {499, 999, ..., 3499}, with both solver presets.
 *
 * The benchmark verifies the single dirty ancilla of the
 * (2m-1)-controlled NOT over its borrow...release lifetime, running
 * the full text -> parse -> elaborate -> verify pipeline.  The OneShot
 * variants reproduce the seed per-qubit sessions; the Engine variants
 * go through a VerificationEngine, which even for a single qubit
 * shares one encoding and one solver between conditions (6.1) and
 * (6.2): at n = 999 the incremental path cuts lane A solve time from
 * ~2.5 ms to ~0.65 ms (total time is dominated by the shared
 * frontend+build phases and is unchanged).
 *
 * Paper reference (MacBook Air M3): CVC5 0/1/4/7/11/17/27 s,
 * Bitwuzla 3/16/35/61/115/163/239 s for n = 499..3499.  Note the
 * solver crossover relative to the adder benchmark: the solver that
 * wins there loses here, which our two presets reproduce.
 *
 * Portfolio scheduler vs PR 1 thread racing (1-core container,
 * McxVerifyEnginePortfolio wall-clock): PR 1 spawned one thread per
 * lane per condition (churn + both lanes always run to the first
 * finish); the persistent scheduler with conflict-sliced racing gets
 * n = 499: 0.088 s -> 0.036 s (2.4x) and n = 999: 0.152 s -> 0.123 s.
 * The win is pure orchestration: no thread churn, and the losing
 * preprocessing lane yields after one slice instead of burning the
 * core until lane A's answer lands.
 *
 * Arena clause allocator + inprocessing (PR 3, 1-core container,
 * McxVerifyEnginePortfolio): n = 499: 0.036 s -> 0.035 s, n = 999:
 * 0.123 s -> 0.122 s (this family is frontend-dominated; solve_s is
 * under a millisecond either way) with peak RSS 9.6 MB -> 8.4 MB.
 *
 * Binary watchers + OTF subsumption + adaptive lanes (PR 5, 1-core
 * container): McxVerifyEnginePortfolio holds at 0.034 s / 0.130 s
 * and the Adaptive variant at 0.037 s / 0.122 s for n = 499 / 999 -
 * within noise of PR 4, as expected for a frontend-dominated family
 * (solve_s stays sub-millisecond); the win shows up on the adder
 * bench, whose solve phase dominates.  Adaptive race order later
 * became the only order, so the Portfolio variant is the adaptive
 * one and the separate Adaptive variant is gone.
 *
 * Static condition dischargers (PR 7): every variant now reports an
 * analysis_discharged counter, a NoAnalysis twin pins the SAT-only
 * baseline, and the McxMirrorVerifyEngine family runs the
 * mirrored-construction program (circuits::mirrorMcxQbrSource),
 * whose single dirty qubit has a 3-wire cone at any m.  (The engine
 * no longer consults the permutation check, so that condition now
 * goes to SAT, trivially; lint still proves it.)  The plain mcx family keeps analysis_discharged = 0: its ancilla
 * conditions constant-fold in the formula arena before the analyzer
 * is ever consulted, which is the intended division of labor.
 *
 * GF(2)-affine dataflow pass (PR 10): the WideLinearMirror family
 * runs circuits::wideLinearMirrorQbrSource, whose dirty-qubit cone
 * spans ALL n+1 wires - past any permutation window - so only the
 * window-free affine pass discharges it (analysis_discharged_affine
 * >= 1, asserted by CI bench-smoke; its NoAnalysis twin must still
 * verify, pinning bit-identical verdicts).  Because the affine
 * consult happens BEFORE formula construction, the analysis-on
 * variant skips the per-wire (6.2) cofactor build and, since the
 * engine scans the circuit only when a condition reads the final
 * formulas, the whole-circuit formula scan too: with both conditions
 * discharged it builds no formula at all.  That scan is quadratic on
 * this family (the arena re-flattens the n-ary XOR on every CNOT):
 * on a 4-vCPU Xeon host the eager scan made `qborrow --no-lint --json`
 * take 6.4-6.8 s and 415 MiB at n = 8192, the lazy one 0.05 s and
 * 20 MiB, and WideLinearMirrorVerifyEngine/8192 takes 0.04 s.  CI
 * bench-smoke fails if it reaches 1 s.  The NoAnalysis twin still
 * scans and stays at n <= 1024.
 *
 * Linear condition construction: one cofactor memo per polarity for
 * the whole (6.2) wire loop and an exact ⊤ gate in front of the
 * dense affine sweep.  The lane A families
 * also run at n = 9999 and 19999 (ROADMAP target).  Single iterations
 * on a 4-core Xeon host, before -> after:
 *   EngineLaneA  n = 3499:  1.43 s -> 0.047 s (build_s 1.37 s -> 2.8 ms)
 *                n = 9999: 13.3 s  -> 0.197 s (build_s 13.1 s -> 8.7 ms)
 *                n = 19999: 48.1 s -> 0.466 s (build_s 47.6 s -> 20 ms)
 *   OneShotLaneA n = 19999: 48.7 s -> 0.417 s, peak RSS 200 -> 102 MB
 * Least-squares exponents of time against n over n = 999..19999:
 * build_s 2.03 -> 1.07 (Engine) and 1.93 -> 1.04 (OneShot); total
 * 2.00 -> 1.19 and 1.90 -> 1.13.  What remains above 1 in the total is
 * the formula scan and the encoding, not construction.  CI bench-smoke
 * runs EngineLaneA/9999 and fails if its build_s reaches 1 s.
 *
 * One lane per condition instead of a race: MCX cones carry one XOR
 * per two ANDs, so the portfolio sends them to lane A alone.  On a
 * 4-vCPU Xeon host, McxVerifyEnginePortfolio before -> after, with
 * McxVerifyEngineLaneA alongside: n = 499: 0.025 s -> 0.012 s
 * (0.016 s), n = 1999: 0.144 s -> 0.044 s (0.056 s), n = 3499:
 * 0.200 s -> 0.086 s (0.109 s), single iterations.  CI bench-smoke
 * fails if Portfolio/3499 takes more than 1.25x LaneA/3499.
 *
 * Lint over one per-wire gate index (ir::CircuitIndex): LintMcx and
 * LintWideLinear time lintSource() - parse, elaborate and every lint
 * rule - on mcx.qbr and the wide linear mirror.  borrow-not-restored
 * used to walk every gate of a borrowed wire's lifetime per wire,
 * O(wires x gates); it now merges the touch lists of the cone wires.
 * CI bench-smoke runs LintMcx/8000 and fails if it reaches 1 s.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <string>

#include "analysis/lint.h"
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

void
reportCounters(benchmark::State &state,
               const qb::core::ProgramResult &result, std::uint32_t n)
{
    state.counters["solve_s"] = result.qubits[0].solveSeconds;
    state.counters["build_s"] = result.qubits[0].buildSeconds;
    state.counters["formula_nodes"] =
        static_cast<double>(result.qubits[0].formulaNodes);
    state.counters["controls"] = n;
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

/** Which benchmark program a family runs. */
enum class McxProgram { Plain, Mirror, BinaryHeavy, WideLinear };

void
runMcxVerify(benchmark::State &state,
             const qb::core::EngineOptions &options, bool one_shot,
             McxProgram which = McxProgram::Plain)
{
    // state.range(0) is the paper's control count n = 2m - 1 for the
    // mcx families, or the input width for WideLinear.
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const std::uint32_t m = (n + 1) / 2;
    qb::core::EngineOptions opts = options;
    for (auto &lane : opts.lanes)
        lane.wantCounterexample = false;
    qb::core::ProgramResult result;
    for (auto _ : state) {
        const auto program = qb::lang::elaborateSource(
            which == McxProgram::Mirror
                ? qb::circuits::mirrorMcxQbrSource(m)
                : which == McxProgram::BinaryHeavy
                      ? qb::circuits::binaryHeavyMcxQbrSource(m)
                      : which == McxProgram::WideLinear
                            ? qb::circuits::wideLinearMirrorQbrSource(
                                  n)
                            : qb::circuits::mcxQbrSource(m));
        if (one_shot) {
            // Seed behavior: fresh one-shot session per dirty qubit.
            result.qubits.clear();
            for (qb::ir::QubitId q : program.qubitsWithRole(
                     qb::lang::QubitRole::BorrowVerify)) {
                const qb::lang::QubitInfo &info = program.qubits[q];
                result.qubits.push_back(qb::core::verifyQubit(
                    program.circuit.slice(info.scopeBegin,
                                          info.scopeEnd),
                    q, opts.lanes[0]));
            }
        } else {
            result = qb::core::verifyAll(program, opts);
        }
        if (result.qubits.size() != 1 || !result.allSafe())
            state.SkipWithError("mcx verification failed");
    }
    reportCounters(state, result, n);
}

void
McxVerifyOneShotLaneA(benchmark::State &state)
{
    runMcxVerify(state,
                 qb::core::EngineOptions::singleLane(
                     qb::core::VerifierOptions::laneA()),
                 true);
}

void
McxVerifyOneShotLaneB(benchmark::State &state)
{
    runMcxVerify(state,
                 qb::core::EngineOptions::singleLane(
                     qb::core::VerifierOptions::laneB()),
                 true);
}

void
McxVerifyEngineLaneA(benchmark::State &state)
{
    runMcxVerify(state,
                 qb::core::EngineOptions::singleLane(
                     qb::core::VerifierOptions::laneA()),
                 false);
}

void
McxVerifyEngineLaneB(benchmark::State &state)
{
    runMcxVerify(state,
                 qb::core::EngineOptions::singleLane(
                     qb::core::VerifierOptions::laneB()),
                 false);
}

void
McxVerifyEnginePortfolio(benchmark::State &state)
{
    runMcxVerify(state, qb::core::EngineOptions::portfolioAB(), false);
}

void
McxVerifyEnginePortfolioNoAnalysis(benchmark::State &state)
{
    // SAT-only baseline of the portfolio variant: the on/off pair
    // bounds what the dischargers buy (or cost) on this family.
    qb::core::EngineOptions options =
        qb::core::EngineOptions::portfolioAB();
    options.analysis = qb::analysis::AnalysisOptions::none();
    runMcxVerify(state, options, false);
}

void
McxVerifyEnginePortfolioNoBinaryAnalysis(benchmark::State &state)
{
    // Binary-graph passes off: the on/off pair bounds what SCC
    // merging, probing and transitive reduction buy on this family,
    // and pins the arena_peak_kw comparison (verdicts are identical
    // by construction).
    qb::core::EngineOptions options =
        qb::core::EngineOptions::portfolioAB();
    options.binaryAnalysis = false;
    // An inprocessing pass every query boundary, so the graph passes
    // (when on) actually run at every engine size in this family's
    // range - the default interval of 16 fires only on programs with
    // more queries than mcx's single qubit issues.
    options.inprocessInterval = 1;
    runMcxVerify(state, options, false);
}

void
McxVerifyEnginePortfolioBinaryAnalysis(benchmark::State &state)
{
    // The matching analysis-ON twin of the NoBinaryAnalysis variant
    // (inprocessInterval = 1 likewise): the pair bounds cost and
    // arena_peak_kw with the graph passes on vs off.  The plain
    // ladder's implication graph is a tree, so the SCC / reduction
    // counters legitimately stay 0 here - the counter smoke test
    // lives on the BinaryHeavy family below.
    qb::core::EngineOptions options =
        qb::core::EngineOptions::portfolioAB();
    options.inprocessInterval = 1;
    runMcxVerify(state, options, false);
}

void
McxVerifyEngineBinaryHeavy(benchmark::State &state)
{
    // The dressed mcx program (circuits::binaryHeavyMcxQbrSource) on
    // the preprocessing lane, whose per-condition scratch solver runs
    // the root binary-graph pass on every solve: CI bench-smoke
    // asserts scc_merged_vars >= 1 and transitive_reduced >= 1 here.
    // Lane B rather than the portfolio on purpose: the portfolio sends
    // this AND-dense cone to lane A, whose persistent solver runs the
    // graph passes only at inprocessing boundaries.
    runMcxVerify(state,
                 qb::core::EngineOptions::singleLane(
                     qb::core::VerifierOptions::laneB()),
                 false, McxProgram::BinaryHeavy);
}

void
McxVerifyEngineBinaryHeavyNoBinaryAnalysis(benchmark::State &state)
{
    // Passes-off twin of McxVerifyEngineBinaryHeavy: all four
    // binary-graph counters must read 0, and the solve-time /
    // arena_peak_kw deltas show what the passes buy on a formula
    // shape they actually fire on.
    qb::core::EngineOptions options = qb::core::EngineOptions::
        singleLane(qb::core::VerifierOptions::laneB());
    options.binaryAnalysis = false;
    runMcxVerify(state, options, false, McxProgram::BinaryHeavy);
}

void
McxMirrorVerifyEngine(benchmark::State &state)
{
    // Mirrored construction: the dirty qubit's condition does not
    // fold in the arena and its cone is 3 wires at any m, so it goes
    // to SAT and solves in a handful of conflicts.
    runMcxVerify(state, qb::core::EngineOptions::portfolioAB(), false,
                 McxProgram::Mirror);
}

void
WideLinearMirrorVerifyEngine(benchmark::State &state)
{
    // Cone wider than any permutation window: only the window-free
    // affine pass discharges, before the conditions are even built -
    // analysis_discharged_affine must be >= 1 here (CI asserts it)
    // and solve_s stays exactly zero.
    runMcxVerify(state, qb::core::EngineOptions::portfolioAB(), false,
                 McxProgram::WideLinear);
}

void
WideLinearMirrorVerifyEngineNoAnalysis(benchmark::State &state)
{
    // The SAT-only twin: pays the full per-wire (6.2) cofactor build
    // before the arena folds both conditions to constants.  Verdicts
    // are bit-identical to the analysis-on family.
    qb::core::EngineOptions options =
        qb::core::EngineOptions::portfolioAB();
    options.analysis = qb::analysis::AnalysisOptions::none();
    runMcxVerify(state, options, false, McxProgram::WideLinear);
}

void
runLint(benchmark::State &state, const std::string &source)
{
    std::size_t diagnostics = 0;
    for (auto _ : state) {
        const qb::analysis::LintResult result =
            qb::analysis::lintSource(source);
        diagnostics = result.diagnostics.size();
        benchmark::DoNotOptimize(diagnostics);
    }
    state.counters["diagnostics"] = static_cast<double>(diagnostics);
    state.counters["peak_rss_mb"] = peakRssMb();
}

void
LintMcx(benchmark::State &state)
{
    // Clean ladder: no diagnostics, every borrowed wire TooWide or
    // Restored within a few touches of its cone.
    runLint(state, qb::circuits::mcxQbrSource(
                       static_cast<std::uint32_t>(state.range(0))));
}

void
LintWideLinear(benchmark::State &state)
{
    // One wide cone, and n skip-verified inputs that the mixing
    // pass leaves changed: each draws a borrow-not-restored warning.
    runLint(state, qb::circuits::wideLinearMirrorQbrSource(
                       static_cast<std::uint32_t>(state.range(0))));
}

} // namespace

BENCHMARK(McxVerifyOneShotLaneA)
    ->DenseRange(499, 3499, 500)
    ->Arg(9999)
    ->Arg(19999)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyOneShotLaneB)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEngineLaneA)
    ->DenseRange(499, 3499, 500)
    ->Arg(9999)
    ->Arg(19999)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEngineLaneB)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEnginePortfolio)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEnginePortfolioNoAnalysis)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEnginePortfolioNoBinaryAnalysis)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEnginePortfolioBinaryAnalysis)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEngineBinaryHeavy)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEngineBinaryHeavyNoBinaryAnalysis)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxMirrorVerifyEngine)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(WideLinearMirrorVerifyEngine)
    ->RangeMultiplier(4)
    ->Range(64, 8192)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(WideLinearMirrorVerifyEngineNoAnalysis)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(LintMcx)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Arg(8000)
    ->Unit(benchmark::kSecond);
BENCHMARK(LintWideLinear)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kSecond);
