/**
 * @file
 * Unit and property tests for the CDCL SAT solver and CNF container.
 *
 * The property suites compare solver verdicts against brute-force
 * enumeration on random small CNFs and check model validity, for both
 * configuration presets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "circuits/adders.h"
#include "core/formula_builder.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "sat/tseitin.h"
#include "support/fuzz.h"
#include "support/logging.h"
#include "support/rng.h"

namespace qb::sat {
namespace {

/** Brute-force satisfiability over at most 20 variables. */
bool
bruteForceSat(const Cnf &cnf)
{
    const Var n = cnf.numVars();
    if (cnf.trivialConflict())
        return false;
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        std::vector<LBool> assign(n);
        for (Var v = 0; v < n; ++v)
            assign[v] = lboolOf((bits >> v) & 1);
        if (cnf.satisfiedBy(assign))
            return true;
    }
    return false;
}

TEST(Lit, PackingAndNegation)
{
    const Lit l = mkLit(5);
    EXPECT_EQ(5, l.var());
    EXPECT_FALSE(l.sign());
    EXPECT_EQ(5, (~l).var());
    EXPECT_TRUE((~l).sign());
    EXPECT_EQ(l, ~~l);
}

TEST(Cnf, AddClauseDropsDuplicatesAndTautologies)
{
    Cnf cnf;
    cnf.addClause({mkLit(0), mkLit(0), mkLit(1)});
    ASSERT_EQ(1u, cnf.numClauses());
    EXPECT_EQ(2u, cnf.clauses()[0].size());
    cnf.addClause({mkLit(0), ~mkLit(0)}); // tautology: dropped
    EXPECT_EQ(1u, cnf.numClauses());
}

TEST(Cnf, EmptyClauseMarksConflict)
{
    Cnf cnf;
    EXPECT_FALSE(cnf.trivialConflict());
    cnf.addClause({});
    EXPECT_TRUE(cnf.trivialConflict());
}

TEST(Cnf, DimacsRoundTrip)
{
    Cnf cnf;
    cnf.addClause({mkLit(0), ~mkLit(1)});
    cnf.addClause({mkLit(2)});
    const std::string text = cnf.toDimacs();
    const Cnf back = Cnf::fromDimacs(text);
    EXPECT_EQ(cnf.numVars(), back.numVars());
    ASSERT_EQ(cnf.numClauses(), back.numClauses());
    EXPECT_EQ(cnf.clauses(), back.clauses());
}

TEST(Cnf, DimacsRejectsGarbage)
{
    EXPECT_THROW(Cnf::fromDimacs("p dnf 2 1\n1 0\n"), FatalError);
    EXPECT_THROW(Cnf::fromDimacs("1 2 0\n"), FatalError);
    EXPECT_THROW(Cnf::fromDimacs("p cnf 2 1\n1 2\n"), FatalError);
    EXPECT_THROW(Cnf::fromDimacs("p cnf 2 1\nfoo 0\n"), FatalError);
}

TEST(Solver, EmptyFormulaIsSat)
{
    Solver s;
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(Solver, UnitPropagationChain)
{
    Solver s;
    // x0; x0 -> x1; x1 -> x2.
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({~mkLit(1), mkLit(2)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(0));
    EXPECT_EQ(LBool::True, s.modelValue(1));
    EXPECT_EQ(LBool::True, s.modelValue(2));
}

TEST(Solver, ImmediateContradiction)
{
    Solver s;
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    EXPECT_FALSE(s.addClause({~mkLit(0)}));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
}

TEST(Solver, SimpleUnsatCore)
{
    Solver s;
    // (a | b) & (a | ~b) & (~a | b) & (~a | ~b) is UNSAT.
    s.addClause({mkLit(0), mkLit(1)});
    s.addClause({mkLit(0), ~mkLit(1)});
    s.addClause({~mkLit(0), mkLit(1)});
    s.addClause({~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve());
}

/** Pigeonhole principle: n+1 pigeons, n holes - classically UNSAT. */
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
                cnf.addClause({~mkLit(var(p1, h)), ~mkLit(var(p2, h))});
    return cnf;
}

TEST(Solver, PigeonholeUnsatBaseline)
{
    for (int holes : {2, 3, 4, 5}) {
        EXPECT_EQ(SolveResult::Unsat,
                  solveCnf(pigeonhole(holes), SolverConfig::baseline()))
            << holes;
    }
}

TEST(Solver, PigeonholeUnsatSimplify)
{
    for (int holes : {2, 3, 4, 5}) {
        EXPECT_EQ(SolveResult::Unsat,
                  solveCnf(pigeonhole(holes), SolverConfig::simplify()))
            << holes;
    }
}

TEST(Solver, ConflictBudgetYieldsUnknown)
{
    SolverConfig cfg = SolverConfig::baseline();
    cfg.conflictBudget = 1;
    EXPECT_EQ(SolveResult::Unknown, solveCnf(pigeonhole(6), cfg));
}

TEST(Solver, StatsArePopulated)
{
    SolverStats stats;
    solveCnf(pigeonhole(4), SolverConfig::baseline(), &stats);
    EXPECT_GT(stats.conflicts, 0);
    EXPECT_GT(stats.decisions, 0);
    EXPECT_GT(stats.propagations, 0);
}

TEST(Solver, SatisfiedClausesSkippedAtAdd)
{
    Solver s;
    s.addClause({mkLit(0)});
    // Contains x0 already true: clause should be absorbed silently.
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(SolverAssumptions, SatUnderAssumptionsRespectsThem)
{
    Solver s;
    // (x0 | x1) with free choice; assumptions pin the branch.
    s.addClause({mkLit(0), mkLit(1)});
    EXPECT_EQ(SolveResult::Sat, s.solve({~mkLit(0)}));
    EXPECT_EQ(LBool::False, s.modelValue(0));
    EXPECT_EQ(LBool::True, s.modelValue(1));
    EXPECT_EQ(SolveResult::Sat, s.solve({~mkLit(1)}));
    EXPECT_EQ(LBool::True, s.modelValue(0));
    EXPECT_EQ(LBool::False, s.modelValue(1));
}

TEST(SolverAssumptions, UnsatCoreAndReusableAfterwards)
{
    Solver s;
    // a -> b, a -> ~b: assuming a is contradictory, but the clause
    // database itself is satisfiable.
    s.addClause({~mkLit(0), mkLit(1)});
    s.addClause({~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(0)}));
    ASSERT_EQ(1u, s.failedAssumptions().size());
    EXPECT_EQ(mkLit(0), s.failedAssumptions()[0]);
    // The solver stays usable: without the assumption it is Sat ...
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::False, s.modelValue(0));
    // ... and under the opposite assumption too.
    EXPECT_EQ(SolveResult::Sat, s.solve({~mkLit(0)}));
    // And the same failing call still fails identically.
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(0)}));
}

TEST(SolverAssumptions, CoreExcludesIrrelevantAssumptions)
{
    Solver s;
    s.addClause({~mkLit(0), ~mkLit(1)}); // x0 and x1 conflict
    s.addClause({mkLit(2), mkLit(3)});   // x2/x3 unrelated
    EXPECT_EQ(SolveResult::Unsat,
              s.solve({mkLit(0), mkLit(1), mkLit(2)}));
    const LitVec &core = s.failedAssumptions();
    EXPECT_FALSE(core.empty());
    for (Lit l : core) {
        EXPECT_TRUE(l == mkLit(0) || l == mkLit(1))
            << "core must only mention the conflicting assumptions";
    }
}

TEST(SolverAssumptions, ContradictoryAssumptionPair)
{
    Solver s;
    s.addClause({mkLit(0), mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(2), ~mkLit(2)}));
    const LitVec &core = s.failedAssumptions();
    ASSERT_EQ(2u, core.size());
    EXPECT_TRUE((core[0] == mkLit(2) && core[1] == ~mkLit(2)) ||
                (core[0] == ~mkLit(2) && core[1] == mkLit(2)));
}

TEST(SolverAssumptions, RootLevelFalsifiedAssumption)
{
    Solver s;
    s.addClause({mkLit(0)}); // unit: x0 true at the root
    EXPECT_EQ(SolveResult::Unsat, s.solve({~mkLit(0)}));
    ASSERT_EQ(1u, s.failedAssumptions().size());
    EXPECT_EQ(~mkLit(0), s.failedAssumptions()[0]);
}

TEST(SolverAssumptions, AssumptionOnFreshVariable)
{
    Solver s;
    s.addClause({mkLit(0), mkLit(1)});
    // Variable 7 is created on demand and is unconstrained.
    EXPECT_EQ(SolveResult::Sat, s.solve({mkLit(7)}));
    EXPECT_EQ(LBool::True, s.modelValue(7));
}

TEST(SolverAssumptions, GloballyUnsatDatabaseGivesEmptyCore)
{
    Solver s;
    s.addClause({mkLit(0), mkLit(1)});
    s.addClause({mkLit(0), ~mkLit(1)});
    s.addClause({~mkLit(0), mkLit(1)});
    s.addClause({~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(2)}));
    EXPECT_TRUE(s.failedAssumptions().empty())
        << "an inherently unsat database implicates no assumption";
}

TEST(SolverAssumptions, ConflictBudgetIsPerCall)
{
    // With a cumulative budget the second call would start exhausted;
    // a per-call budget gives every query the same allowance.
    SolverConfig cfg = SolverConfig::baseline();
    cfg.conflictBudget = 5000;
    Solver s(cfg);
    s.addCnf(pigeonhole(5));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_GT(s.stats().conflicts, 0);
    Solver reference(cfg);
    reference.addCnf(pigeonhole(5));
    EXPECT_EQ(SolveResult::Unsat, reference.solve());
    // Learnt clauses are retained, so re-deciding is not slower.
    const std::int64_t before = s.stats().conflicts;
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_LE(s.stats().conflicts - before, before);
}

TEST(SolverAssumptions, SelectorStyleIncrementalUse)
{
    // The engine's usage pattern: several conditions behind selector
    // literals in one database, decided independently.
    Solver s;
    const Lit s1 = mkLit(0), s2 = mkLit(1);
    const Lit x = mkLit(2), y = mkLit(3);
    // Condition 1 (selector s1): x AND ~x - unsatisfiable.
    s.addClause({~s1, x});
    s.addClause({~s1, ~x});
    // Condition 2 (selector s2): y - satisfiable.
    s.addClause({~s2, y});
    EXPECT_EQ(SolveResult::Unsat, s.solve({s1}));
    ASSERT_EQ(1u, s.failedAssumptions().size());
    EXPECT_EQ(s1, s.failedAssumptions()[0]);
    EXPECT_EQ(SolveResult::Sat, s.solve({s2}));
    EXPECT_EQ(LBool::True, s.modelValue(y.var()));
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(SolverAssumptions, SoundAfterPreprocessingEliminatedVars)
{
    // Regression: a plain solve() with the preprocessing preset can
    // eliminate variables; a later assumption-based call must restore
    // them instead of letting their placeholder assignments silently
    // satisfy or falsify assumptions.
    Solver s(SolverConfig::simplify());
    // x2 <-> (x0 & x1): x2 is a prime elimination candidate.
    s.addClause({~mkLit(2), mkLit(0)});
    s.addClause({~mkLit(2), mkLit(1)});
    s.addClause({mkLit(2), ~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Sat, s.solve());
    // x2 implies x0, so {x2, ~x0} is unsatisfiable.
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(2), ~mkLit(0)}));
    EXPECT_FALSE(s.failedAssumptions().empty());
    // And a satisfiable assumption set gets a model respecting it.
    EXPECT_EQ(SolveResult::Sat, s.solve({mkLit(0), mkLit(1)}));
    EXPECT_EQ(LBool::True, s.modelValue(2));
    EXPECT_EQ(SolveResult::Sat, s.solve({~mkLit(2)}));
    EXPECT_NE(LBool::True, s.modelValue(2));
}

TEST(SolverAssumptions, AddClauseAfterPreprocessingRestores)
{
    // Regression: adding a clause after a preprocessed solve() must
    // not simplify it against the placeholder assignments variable
    // elimination left behind.
    Solver s(SolverConfig::simplify());
    s.addClause({mkLit(0), mkLit(1)});  // x | y
    s.addClause({~mkLit(1), mkLit(2)}); // y -> z
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_TRUE(s.addClause({~mkLit(1)})); // now force y = 0
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(0));
    EXPECT_NE(LBool::True, s.modelValue(1));
}

TEST(SolverAssumptions, StopFlagCancelsSearch)
{
    Solver s;
    s.addCnf(pigeonhole(8)); // hard enough to not finish instantly
    std::atomic<bool> stop{true};
    s.setStopFlag(&stop);
    EXPECT_EQ(SolveResult::Unknown, s.solve());
    // Detached again, the solver finishes the job.
    s.setStopFlag(nullptr);
    EXPECT_EQ(SolveResult::Unsat, s.solve());
}

/** Brute-force satisfiability with assumptions folded in as units. */
bool
bruteForceSatWithAssumptions(const Cnf &cnf, const LitVec &assumptions)
{
    Cnf combined = cnf;
    for (Lit a : assumptions)
        combined.addClause({a});
    return bruteForceSat(combined);
}

/** Random k-SAT generator with fixed clause/variable ratio. */
Cnf
randomCnf(Rng &rng, Var num_vars, std::size_t num_clauses,
          int clause_len)
{
    Cnf cnf;
    cnf.ensureVars(num_vars);
    for (std::size_t i = 0; i < num_clauses; ++i) {
        LitVec clause;
        for (int j = 0; j < clause_len; ++j) {
            const Var v =
                static_cast<Var>(rng.nextBelow(num_vars));
            clause.push_back(mkLit(v, rng.nextBool()));
        }
        cnf.addClause(clause);
    }
    return cnf;
}

class SatProperty : public ::testing::TestWithParam<int>
{};

TEST_P(SatProperty, AgreesWithBruteForceBaseline)
{
    Rng rng(GetParam());
    // Near the 3-SAT threshold (ratio ~4.26) to get both outcomes.
    const Cnf cnf = randomCnf(rng, 8, 34, 3);
    const bool expected = bruteForceSat(cnf);
    SolverStats stats;
    const SolveResult got =
        solveCnf(cnf, SolverConfig::baseline(), &stats);
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat, got);
}

TEST_P(SatProperty, AgreesWithBruteForceSimplify)
{
    Rng rng(GetParam());
    const Cnf cnf = randomCnf(rng, 8, 34, 3);
    const bool expected = bruteForceSat(cnf);
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              solveCnf(cnf, SolverConfig::simplify()));
}

TEST_P(SatProperty, ModelsActuallySatisfyBaseline)
{
    Rng rng(GetParam() + 5000);
    const Cnf cnf = randomCnf(rng, 10, 30, 3);
    Solver solver(SolverConfig::baseline());
    solver.addCnf(cnf);
    if (solver.solve() != SolveResult::Sat)
        return;
    std::vector<LBool> assign(cnf.numVars());
    for (Var v = 0; v < cnf.numVars(); ++v)
        assign[v] = solver.modelValue(v);
    EXPECT_TRUE(cnf.satisfiedBy(assign));
}

TEST_P(SatProperty, ModelsActuallySatisfySimplify)
{
    Rng rng(GetParam() + 5000);
    const Cnf cnf = randomCnf(rng, 10, 30, 3);
    Solver solver(SolverConfig::simplify());
    solver.addCnf(cnf);
    if (solver.solve() != SolveResult::Sat)
        return;
    std::vector<LBool> assign(cnf.numVars());
    for (Var v = 0; v < cnf.numVars(); ++v)
        assign[v] = solver.modelValue(v);
    EXPECT_TRUE(cnf.satisfiedBy(assign))
        << "variable elimination must reconstruct a full model";
}

TEST_P(SatProperty, AssumptionsAgreeWithBruteForce)
{
    Rng rng(GetParam() + 13000);
    const Cnf cnf = randomCnf(rng, 8, 30, 3);
    Solver solver(SolverConfig::baseline());
    solver.addCnf(cnf);
    // Several incremental rounds against ONE solver instance.
    for (int round = 0; round < 4; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 8; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        const SolveResult got = solver.solve(assumptions);
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  got)
            << "round " << round;
        if (got == SolveResult::Unsat) {
            // Every core literal is one of the assumptions, and the
            // core alone already clashes with the clause database.
            for (Lit l : solver.failedAssumptions()) {
                EXPECT_NE(assumptions.end(),
                          std::find(assumptions.begin(),
                                    assumptions.end(), l));
            }
            EXPECT_FALSE(bruteForceSatWithAssumptions(
                cnf, solver.failedAssumptions()));
        } else {
            std::vector<LBool> assign(cnf.numVars());
            for (Var v = 0; v < cnf.numVars(); ++v)
                assign[v] = solver.modelValue(v);
            EXPECT_TRUE(cnf.satisfiedBy(assign));
            for (Lit a : assumptions)
                EXPECT_EQ(lboolOf(!a.sign()),
                          solver.modelValue(a.var()))
                    << "model must respect every assumption";
        }
    }
}

TEST_P(SatProperty, PlainSolveAfterAssumptionCallStaysSound)
{
    // Regression: an assumption call learns clauses; a later plain
    // solve() with the preprocessing preset must not run variable
    // elimination over a database with learnt clauses attached.
    Rng rng(GetParam() + 21000);
    const Cnf cnf = randomCnf(rng, 8, 30, 3);
    Solver solver(SolverConfig::simplify());
    solver.addCnf(cnf);
    LitVec assumptions;
    assumptions.push_back(
        mkLit(static_cast<Var>(rng.nextBelow(8)), rng.nextBool()));
    const bool under = bruteForceSatWithAssumptions(cnf, assumptions);
    EXPECT_EQ(under ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve(assumptions));
    const bool plain = bruteForceSat(cnf);
    EXPECT_EQ(plain ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve());
    if (plain) {
        std::vector<LBool> assign(cnf.numVars());
        for (Var v = 0; v < cnf.numVars(); ++v)
            assign[v] = solver.modelValue(v);
        EXPECT_TRUE(cnf.satisfiedBy(assign));
    }
}

TEST_P(SatProperty, WideClausesAgree)
{
    Rng rng(GetParam() + 9000);
    const Cnf cnf = randomCnf(rng, 9, 18, 5);
    const bool expected = bruteForceSat(cnf);
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              solveCnf(cnf, SolverConfig::baseline()));
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              solveCnf(cnf, SolverConfig::simplify()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatProperty, ::testing::Range(0, 40));

// ====================================== bounded variable elimination

/**
 * Condition (6.2) of the Haner carry adder on @p n bits with qubit
 * @p dirty in the dirty role, as lane B decides it: satisfiable for
 * the input q[1] (qubit 0; the carry depends on it), unsatisfiable for
 * the borrowed a[1] (qubit n).
 */
Cnf
adderConditionCnf(std::uint32_t n, std::uint32_t dirty)
{
    const auto circuit = circuits::hanerCarryCircuit(n);
    bexp::Arena arena;
    core::FormulaBuilder builder(arena, circuit.numQubits());
    builder.applyCircuit(circuit);
    std::vector<bexp::NodeRef> disjuncts;
    for (std::uint32_t q = 0; q < circuit.numQubits(); ++q) {
        if (q == dirty)
            continue;
        const auto f = builder.formula(q);
        disjuncts.push_back(
            arena.mkXor({arena.substitute(f, dirty, bexp::kFalse),
                         arena.substitute(f, dirty, bexp::kTrue)}));
    }
    return encodeAssertTrue(arena, arena.mkOr(std::move(disjuncts))).cnf;
}

/** What solveCnf() under the simplify preset decides, with the model
 *  as one '0'/'1' per variable (empty unless Sat). */
struct SimplifyRun
{
    SolveResult result;
    SolverStats stats;
    std::string model;
};

SimplifyRun
runSimplify(const Cnf &cnf)
{
    Solver solver(SolverConfig::simplify());
    solver.addCnf(cnf);
    SimplifyRun run{solver.solve(), solver.stats(), {}};
    if (run.result == SolveResult::Sat)
        for (Var v = 0; v < cnf.numVars(); ++v)
            run.model += solver.modelValue(v) == LBool::True ? '1' : '0';
    return run;
}

TEST(Elimination, SimplifyRunsArePinned)
{
    // Bounded variable elimination decides which variables go, in
    // which order, and which clauses survive in which order; search
    // then follows from that.  These constants were recorded with the
    // elimination loop that built a heap resolvent for every candidate
    // pair; the counting loop that replaced it must reproduce them
    // exactly.
    const SimplifyRun broken = runSimplify(adderConditionCnf(12, 0));
    EXPECT_EQ(SolveResult::Sat, broken.result);
    EXPECT_EQ(23, broken.stats.eliminatedVars);
    EXPECT_EQ(55, broken.stats.conflicts);
    EXPECT_EQ(167, broken.stats.decisions);
    EXPECT_EQ("1001010101000110001010101000101010010100101010000011110011"
              "000000111",
              broken.model);

    const SimplifyRun safe = runSimplify(adderConditionCnf(16, 16));
    EXPECT_EQ(SolveResult::Unsat, safe.result);
    EXPECT_EQ(32, safe.stats.eliminatedVars);
    EXPECT_EQ(149, safe.stats.conflicts);
    EXPECT_EQ(379, safe.stats.decisions);

    Rng rng(6); // SatProperty's formula for seed 6
    const SimplifyRun random = runSimplify(randomCnf(rng, 8, 34, 3));
    EXPECT_EQ(SolveResult::Sat, random.result);
    EXPECT_EQ(2, random.stats.eliminatedVars);
    EXPECT_EQ(1, random.stats.conflicts);
    EXPECT_EQ(6, random.stats.decisions);
    EXPECT_EQ("10101110", random.model);
}

/**
 * x (variable 8) in three positive and three negative clauses over
 * a0..a7, three of whose nine pairs resolve to tautologies; with
 * @p extra the third tautology is broken.  Every all-positive triple
 * over a0..a7 is added too, so each a_i occurs positively 21 times,
 * over the occurrence limit: x is the only candidate.
 */
Cnf
niverBoundaryCnf(bool extra)
{
    Cnf cnf;
    const auto a = [](Var i) { return mkLit(i); };
    for (Var i = 0; i < 8; ++i)
        for (Var j = i + 1; j < 8; ++j)
            for (Var k = j + 1; k < 8; ++k)
                cnf.addClause({a(i), a(j), a(k)});
    const Lit x = mkLit(8);
    cnf.addClause({x, a(0), a(1)});
    cnf.addClause({x, a(2), a(3)});
    cnf.addClause({x, a(4), a(5)});
    cnf.addClause({~x, ~a(0), a(6)}); // tautology with (x, a0, a1)
    cnf.addClause({~x, ~a(2), a(6)}); // tautology with (x, a2, a3)
    cnf.addClause({~x, extra ? a(6) : ~a(4), a(7)});
    return cnf;
}

TEST(Elimination, NiverBoundIsExactlyPosPlusNeg)
{
    // Six non-tautological resolvents against 3 + 3 clauses do not
    // grow the clause count, so x goes; seven, one over, freeze it.
    for (const bool extra : {false, true}) {
        const Cnf cnf = niverBoundaryCnf(extra);
        const SimplifyRun run = runSimplify(cnf);
        ASSERT_EQ(SolveResult::Sat, run.result);
        EXPECT_EQ(extra ? 0 : 1, run.stats.eliminatedVars) << extra;
        std::vector<LBool> model;
        for (const char bit : run.model)
            model.push_back(lboolOf(bit == '1'));
        EXPECT_TRUE(cnf.satisfiedBy(model)) << extra;
    }
}

// ===================================================== binary watchers

TEST(BinaryWatch, PropagationChainTouchesNoArena)
{
    // A pure implication chain of binary clauses: every propagation
    // step must be decided from the specialized binary watchers (the
    // implied literal is inlined), so the arena is never read inside
    // propagate() - the ISSUE 5 acceptance contract.
    Solver s;
    constexpr Var n = 60;
    for (Var v = 0; v + 1 < n; ++v)
        EXPECT_TRUE(s.addClause({~mkLit(v), mkLit(v + 1)}));
    EXPECT_TRUE(s.addClause({mkLit(0)})); // fires the chain
    EXPECT_EQ(SolveResult::Sat, s.solve());
    for (Var v = 0; v < n; ++v)
        EXPECT_EQ(LBool::True, s.modelValue(v)) << "var " << v;
    EXPECT_EQ(0, s.stats().propagationArenaReads)
        << "binary propagation must not dereference the arena";
    EXPECT_EQ(n - 1, s.stats().binPropagations);
}

TEST(BinaryWatch, BinaryConflictsStillAvoidTheArena)
{
    // Binary-only UNSAT: conflicts are detected on the binary path
    // too, again with zero arena reads during propagation (conflict
    // ANALYSIS may dereference; that is not propagation).
    Solver s;
    s.addClause({mkLit(0), mkLit(1)});
    s.addClause({mkLit(0), ~mkLit(1)});
    s.addClause({~mkLit(0), mkLit(1)});
    s.addClause({~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_EQ(0, s.stats().propagationArenaReads);
}

TEST(BinaryWatch, LongClausesStillReadTheArena)
{
    // Control for the counter itself: a ternary clause that becomes
    // unit must be visited through the long-clause path, which does
    // dereference - the zero above is meaningful, not vacuous.
    Solver s;
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({~mkLit(0)}));
    EXPECT_TRUE(s.addClause({~mkLit(1)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(2));
    EXPECT_GT(s.stats().propagationArenaReads, 0);
}

TEST(BinaryWatch, BinaryOnlyFormulaAllocatesNoArena)
{
    // The binary-free-arena contract: a formula of nothing but binary
    // clauses lives entirely in the watcher lists, so the clause
    // arena never grows at all - arena_peak_kw genuinely measures
    // long clauses only.
    Solver s;
    constexpr Var n = 24;
    for (Var v = 0; v + 1 < n; ++v) {
        EXPECT_TRUE(s.addClause({~mkLit(v), mkLit(v + 1)}));
        EXPECT_TRUE(s.addClause({mkLit(v), ~mkLit(v + 1)}));
    }
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(0, s.stats().arenaPeakWords)
        << "binary clauses must never touch the clause arena";
    EXPECT_EQ(0, s.stats().propagationArenaReads);
    for (Var v = 1; v < n; ++v)
        EXPECT_EQ(s.modelValue(0), s.modelValue(v)) << "var " << v;
}

TEST_P(SatProperty, BinaryHeavyAgreesWithBruteForce)
{
    // Random formulas dominated by binary clauses, decided once as
    // binaries and once rewritten through the long-clause path (each
    // 2-clause padded with a fresh literal that a later unit forces
    // false, so the padded clause attaches as a ternary): both
    // routes must agree with brute force and with each other.
    Rng rng(GetParam() + 31000);
    constexpr Var kVars = 8;
    std::vector<LitVec> clauses;
    for (int i = 0; i < 24; ++i) {
        const Var a = static_cast<Var>(rng.nextBelow(kVars));
        Var b = static_cast<Var>(rng.nextBelow(kVars));
        while (b == a)
            b = static_cast<Var>(rng.nextBelow(kVars));
        clauses.push_back(
            {mkLit(a, rng.nextBool()), mkLit(b, rng.nextBool())});
    }
    for (int i = 0; i < 4; ++i) { // a few long clauses in the mix
        LitVec c;
        for (int j = 0; j < 3; ++j)
            c.push_back(mkLit(static_cast<Var>(rng.nextBelow(kVars)),
                              rng.nextBool()));
        clauses.push_back(c);
    }
    Cnf cnf;
    cnf.ensureVars(kVars);
    for (const LitVec &c : clauses)
        cnf.addClause(c);
    const bool expected = bruteForceSat(cnf);

    Solver direct;
    direct.addCnf(cnf);
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              direct.solve());

    // Same formula, binaries forced through the long-clause path.
    Solver padded;
    Var pad = kVars;
    LitVec pad_units;
    for (const LitVec &c : clauses) {
        if (c.size() == 2) {
            LitVec widened = c;
            widened.push_back(mkLit(pad));
            pad_units.push_back(~mkLit(pad));
            ++pad;
            EXPECT_TRUE(padded.addClause(widened));
        } else {
            EXPECT_TRUE(padded.addClause(c));
        }
    }
    bool padded_ok = true;
    for (const Lit u : pad_units)
        padded_ok = padded.addClause({u}) && padded_ok;
    const SolveResult padded_result =
        padded_ok ? padded.solve() : SolveResult::Unsat;
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              padded_result);
}

// ========================================== on-the-fly subsumption

TEST(SolverOtf, StrengthensAntecedentsAtLearnTime)
{
    // Pigeonhole generates dense resolution chains where the learnt
    // clause regularly self-subsumes an antecedent; the OTF pass
    // must fire and the verdict must be untouched.
    Solver s;
    s.addCnf(pigeonhole(7));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_GT(s.stats().otfStrengthenedClauses, 0)
        << "expected learn-time strengthening on pigeonhole chains";
}

TEST(SolverOtf, CanBeDisabledByConfig)
{
    SolverConfig cfg;
    cfg.otfSubsume = false;
    Solver s(cfg);
    s.addCnf(pigeonhole(6));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_EQ(0, s.stats().otfStrengthenedClauses);
    EXPECT_EQ(0, s.stats().otfSkipped);
}

TEST_P(SatProperty, OtfOnAndOffAgreeWithBruteForce)
{
    // The OTF edit only ever applies self-subsuming resolution, so
    // verdicts and model validity must be identical with the pass on
    // and off, and both must match brute force.
    Rng rng(GetParam() + 47000);
    const Cnf cnf = randomCnf(rng, 9, 38, 3);
    const bool expected = bruteForceSat(cnf);
    SolverConfig off;
    off.otfSubsume = false;
    for (const bool with_otf : {true, false}) {
        Solver solver(with_otf ? SolverConfig::baseline() : off);
        solver.addCnf(cnf);
        const SolveResult got = solver.solve();
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  got)
            << "otf=" << with_otf;
        if (got == SolveResult::Sat) {
            std::vector<LBool> assign(cnf.numVars());
            for (Var v = 0; v < cnf.numVars(); ++v)
                assign[v] = solver.modelValue(v);
            EXPECT_TRUE(cnf.satisfiedBy(assign));
        }
    }
}

TEST_P(SatProperty, OtfKeepsIncrementalAnswersExact)
{
    // Strengthened antecedents stay in the database across calls;
    // every later assumption query must still agree with brute force
    // (the strengthened clauses are exercised, not just carried).
    Rng rng(GetParam() + 53000);
    const Cnf cnf = randomCnf(rng, 8, 32, 3);
    Solver solver;
    solver.addCnf(cnf);
    for (int round = 0; round < 4; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 8; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  solver.solve(assumptions))
            << "round " << round;
    }
}

// ======================================================= validateModel

TEST(ValidateModel, EmptyClauseListAlwaysValidates)
{
    EXPECT_TRUE(validateModel({}, {}));
    EXPECT_TRUE(validateModel({}, {LBool::Undef}));
}

TEST(ValidateModel, UndefAndOutOfRangeNeverSatisfy)
{
    const std::vector<LitVec> clauses{{mkLit(0)}, {mkLit(1)}};
    std::size_t failed = 99;
    // x0 Undef: clause 0 unsatisfied.
    EXPECT_FALSE(validateModel(clauses,
                               {LBool::Undef, LBool::True}, &failed));
    EXPECT_EQ(0u, failed);
    // Model shorter than the variable range: clause 1 unsatisfied.
    EXPECT_FALSE(validateModel(clauses, {LBool::True}, &failed));
    EXPECT_EQ(1u, failed);
    EXPECT_TRUE(validateModel(clauses, {LBool::True, LBool::True}));
}

TEST(ValidateModel, ReportsFirstUnsatisfiedClause)
{
    const std::vector<LitVec> clauses{
        {mkLit(0), mkLit(1)}, {~mkLit(0)}, {mkLit(1)}};
    std::size_t failed = 99;
    EXPECT_FALSE(validateModel(
        clauses, {LBool::True, LBool::False}, &failed));
    EXPECT_EQ(1u, failed);
}

TEST_P(SatProperty, ValidatedModelsBothPresets)
{
    // The fuzz generator's binary-heavy near-threshold distribution,
    // decided by both presets; every Sat verdict must produce a model
    // that passes the public validateModel checker - the same check
    // the fuzz harness and qbsat run after every Sat answer.
    Rng rng(GetParam() + 61000);
    fuzz::CnfKnobs knobs;
    knobs.maxVars = 10;
    const Cnf cnf = fuzz::generateCnf(rng, knobs);
    const bool expected = bruteForceSat(cnf);
    for (const bool simplify : {false, true}) {
        Solver solver(simplify ? SolverConfig::simplify()
                               : SolverConfig::baseline());
        solver.addCnf(cnf);
        const SolveResult got = solver.solve();
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  got)
            << "simplify=" << simplify;
        if (got != SolveResult::Sat)
            continue;
        std::vector<LBool> model(cnf.numVars());
        for (Var v = 0; v < cnf.numVars(); ++v)
            model[v] = solver.modelValue(v);
        std::size_t failed = 0;
        EXPECT_TRUE(validateModel(cnf.clauses(), model, &failed))
            << "simplify=" << simplify << " failed clause "
            << failed;
    }
}

} // namespace
} // namespace qb::sat
