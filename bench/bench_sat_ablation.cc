/**
 * @file
 * Experiment E9 - SAT substrate ablation.  DESIGN.md calls out the
 * solver's design choices (EVSIDS branching, phase saving, restart
 * strategy, bounded variable elimination); this bench quantifies each
 * on three workload families:
 *
 *  - pigeonhole formulas (hard structured UNSAT),
 *  - random 3-SAT at the satisfiability threshold,
 *  - real verifier formulas (condition (6.2) of an adder instance
 *    with an input qubit in the dirty role, a satisfiable case),
 *    also timed alone under the simplify preset (SatEliminate).
 */

#include <benchmark/benchmark.h>

#include "circuits/adders.h"
#include "core/formula_builder.h"
#include "sat/solver.h"
#include "sat/tseitin.h"
#include "support/rng.h"

namespace {

using qb::sat::Cnf;
using qb::sat::LitVec;
using qb::sat::mkLit;
using qb::sat::SolverConfig;
using qb::sat::SolveResult;

Cnf
pigeonhole(int holes)
{
    Cnf cnf;
    const int pigeons = holes + 1;
    auto var = [&](int p, int h) { return p * holes + h; };
    for (int p = 0; p < pigeons; ++p) {
        LitVec clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(var(p, h)));
        cnf.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                cnf.addClause(
                    {~mkLit(var(p1, h)), ~mkLit(var(p2, h))});
    return cnf;
}

Cnf
random3Sat(std::uint64_t seed, int num_vars, double ratio)
{
    qb::Rng rng(seed);
    Cnf cnf;
    cnf.ensureVars(num_vars);
    const auto clauses =
        static_cast<std::size_t>(num_vars * ratio);
    for (std::size_t i = 0; i < clauses; ++i) {
        LitVec clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(mkLit(
                static_cast<qb::sat::Var>(rng.nextBelow(num_vars)),
                rng.nextBool()));
        cnf.addClause(clause);
    }
    return cnf;
}

/**
 * Condition (6.2) CNF for the adder with the *input* qubit q[1] in
 * the dirty role: the carry output genuinely depends on q[1], so the
 * instance is satisfiable and the solver must find a model.
 */
Cnf
brokenAdderCnf(std::uint32_t n)
{
    auto circuit = qb::circuits::hanerCarryCircuit(n);
    qb::bexp::Arena arena;
    qb::core::FormulaBuilder builder(arena, circuit.numQubits());
    builder.applyCircuit(circuit);
    const std::uint32_t dirty = 0; // q[1]
    std::vector<qb::bexp::NodeRef> disjuncts;
    for (std::uint32_t q = 0; q < circuit.numQubits(); ++q) {
        if (q == dirty)
            continue;
        const auto f = builder.formula(q);
        disjuncts.push_back(arena.mkXor(
            {arena.substitute(f, dirty, qb::bexp::kFalse),
             arena.substitute(f, dirty, qb::bexp::kTrue)}));
    }
    const auto root = arena.mkOr(std::move(disjuncts));
    return qb::sat::encodeAssertTrue(arena, root).cnf;
}

SolverConfig
configFor(int variant)
{
    switch (variant) {
      case 0:
        return SolverConfig::baseline();
      case 1:
        return SolverConfig::simplify();
      case 2: { // no VSIDS: static branching order
        SolverConfig c = SolverConfig::baseline();
        c.useVsids = false;
        return c;
      }
      default: { // no phase saving
        SolverConfig c = SolverConfig::baseline();
        c.phaseSaving = false;
        return c;
      }
    }
}

const char *kVariantNames[] = {"baseline", "simplify", "no_vsids",
                               "no_phase_saving"};

void
SatPigeonhole(benchmark::State &state)
{
    const Cnf cnf = pigeonhole(static_cast<int>(state.range(0)));
    const SolverConfig config =
        configFor(static_cast<int>(state.range(1)));
    std::int64_t conflicts = 0;
    for (auto _ : state) {
        qb::sat::SolverStats stats;
        if (qb::sat::solveCnf(cnf, config, &stats) !=
            SolveResult::Unsat)
            state.SkipWithError("pigeonhole must be UNSAT");
        conflicts = stats.conflicts;
    }
    state.counters["conflicts"] = static_cast<double>(conflicts);
    state.SetLabel(kVariantNames[state.range(1)]);
}

void
SatRandom3Sat(benchmark::State &state)
{
    const SolverConfig config =
        configFor(static_cast<int>(state.range(1)));
    std::int64_t conflicts = 0;
    int sat_count = 0;
    for (auto _ : state) {
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
            qb::sat::SolverStats stats;
            const auto cnf = random3Sat(
                seed, static_cast<int>(state.range(0)), 4.26);
            sat_count +=
                qb::sat::solveCnf(cnf, config, &stats) ==
                SolveResult::Sat;
            conflicts += stats.conflicts;
        }
    }
    state.counters["conflicts"] = static_cast<double>(conflicts);
    state.counters["sat_instances"] = sat_count;
    state.SetLabel(kVariantNames[state.range(1)]);
}

void
SatVerifierFormula(benchmark::State &state)
{
    const Cnf cnf =
        brokenAdderCnf(static_cast<std::uint32_t>(state.range(0)));
    const SolverConfig config =
        configFor(static_cast<int>(state.range(1)));
    for (auto _ : state) {
        if (qb::sat::solveCnf(cnf, config) != SolveResult::Sat)
            state.SkipWithError(
                "broken adder condition (6.2) must be SAT");
    }
    state.counters["cnf_vars"] = cnf.numVars();
    state.counters["cnf_clauses"] =
        static_cast<double>(cnf.numClauses());
    state.SetLabel(kVariantNames[state.range(1)]);
}

/**
 * Lane B on the same instance: solveCnf() under the simplify preset,
 * bounded variable elimination and the search after it.
 * eliminated_vars shows how much elimination was timed; it is
 * deterministic, so a change in it is a change in behaviour.
 */
void
SatEliminate(benchmark::State &state)
{
    const Cnf cnf =
        brokenAdderCnf(static_cast<std::uint32_t>(state.range(0)));
    std::int64_t eliminated = 0;
    for (auto _ : state) {
        qb::sat::SolverStats stats;
        if (qb::sat::solveCnf(cnf, SolverConfig::simplify(), &stats) !=
            SolveResult::Sat)
            state.SkipWithError(
                "broken adder condition (6.2) must be SAT");
        eliminated = stats.eliminatedVars;
    }
    state.counters["eliminated_vars"] = static_cast<double>(eliminated);
    state.counters["cnf_clauses"] =
        static_cast<double>(cnf.numClauses());
}

} // namespace

BENCHMARK(SatPigeonhole)
    ->ArgsProduct({{6, 7}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(SatRandom3Sat)
    ->ArgsProduct({{40, 60}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(SatVerifierFormula)
    ->ArgsProduct({{40, 80}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(SatEliminate)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond);
