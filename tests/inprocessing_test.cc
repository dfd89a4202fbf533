/**
 * @file
 * Tests for the arena clause allocator, the relocating garbage
 * collector and the slice-boundary inprocessing passes (vivification
 * and backward subsumption).
 *
 * Built as the ctest-labelled `inprocessing` group: the ASan/TSan CI
 * jobs run it explicitly so GC relocation and the in-place clause
 * edits are exercised under both sanitizers.  Coverage follows the
 * reduceDb/GC interaction contract: locked (reason) clauses survive
 * relocation with valid references, inprocessing never changes
 * verdicts, and a
 * solver that GCs mid-session returns identical verdicts AND
 * counterexamples under --jobs 1 and --jobs N.
 */

#include <gtest/gtest.h>

#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/report.h"
#include "ir/circuit.h"
#include "lang/elaborate.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "support/rng.h"

#include "adder_mutants.h"

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

bool
bruteForceSatWithAssumptions(const Cnf &cnf, const LitVec &assumptions)
{
    Cnf with = cnf;
    for (Lit a : assumptions)
        with.addClause({a});
    return bruteForceSat(with);
}

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

/** Pigeonhole principle PHP(holes+1, holes): hard, UNSAT. */
Cnf
pigeonhole(int holes)
{
    const int pigeons = holes + 1;
    Cnf cnf;
    const auto var = [holes](int p, int h) {
        return static_cast<Var>(p * holes + h);
    };
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

TEST(ClauseGc, LockedReasonsSurviveRelocation)
{
    // Root-level propagation chains leave clause reasons on the trail
    // forever; a GC must relocate them and patch reasons[] so later
    // conflict analysis walks valid references.
    Solver s;
    // Extra clauses so relocation moves more than just the chain.
    EXPECT_TRUE(s.addClause({mkLit(3), mkLit(4), mkLit(5)}));
    EXPECT_TRUE(s.addClause({mkLit(4), mkLit(5), mkLit(6)}));
    // Implication chain x0 -> x1 -> x2, then the unit that fires it:
    // x1 and x2 get clause reasons at the root (locked clauses).
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({~mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    s.garbageCollect();
    EXPECT_EQ(1, s.stats().gcRuns);
    // The relocated reasons must still support final-conflict
    // analysis: assuming ~x2 contradicts the root implication.
    EXPECT_EQ(SolveResult::Unsat, s.solve({~mkLit(2)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(0));
    EXPECT_EQ(LBool::True, s.modelValue(1));
    EXPECT_EQ(LBool::True, s.modelValue(2));
}

TEST(ClauseGc, AutomaticGcTriggersUnderReduction)
{
    // A tiny learnt limit forces frequent reduceDb() on a hard
    // instance; the freed clauses must eventually trip the 20%-waste
    // GC threshold without help.
    SolverConfig cfg;
    cfg.learntLimitBase = 20;
    Solver s(cfg);
    s.addCnf(pigeonhole(7));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_GT(s.stats().removedClauses, 0);
    EXPECT_GT(s.stats().gcRuns, 0);
    EXPECT_GT(s.stats().gcWordsReclaimed, 0);
    EXPECT_GT(s.stats().arenaPeakWords, 0);
}

class InprocessingProperty : public ::testing::TestWithParam<int>
{};

TEST_P(InprocessingProperty, GcMidSessionKeepsIncrementalVerdicts)
{
    // Incremental rounds against one solver with reduction pressure,
    // an explicit GC and an inprocessing pass between rounds: every
    // verdict must match brute force, and models must be genuine.
    Rng rng(GetParam() + 91000);
    const Cnf cnf = randomCnf(rng, 8, 30, 3);
    SolverConfig cfg;
    cfg.learntLimitBase = 10;
    Solver solver(cfg);
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
        if (solver.solve() != SolveResult::Sat)
            break; // base formula unsat: solver is done
        solver.shrinkLearnts(3);
        if (round % 2 == 0)
            solver.garbageCollect();
        else
            solver.inprocess();
    }
}

TEST_P(InprocessingProperty, InprocessNeverChangesVerdicts)
{
    // Learn (full solve), inprocess, then re-decide under random
    // assumptions: vivification and subsumption must only shrink the
    // database, never change any answer.
    Rng rng(GetParam() + 17000);
    const Cnf cnf = randomCnf(rng, 8, 34, 3);
    Solver solver;
    solver.addCnf(cnf);
    const bool base = bruteForceSat(cnf);
    EXPECT_EQ(base ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve());
    if (!base)
        return;
    EXPECT_TRUE(solver.inprocess());
    for (int round = 0; round < 3; ++round) {
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
        solver.inprocess();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InprocessingProperty,
                         ::testing::Range(0, 25));

TEST(Inprocessing, VivificationShortensPaddedClauses)
{
    // x0 is forced at the root AFTER a clause polluted with ~x0
    // exists; inprocessing must strip the dead literal.
    Solver s;
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({mkLit(1), mkLit(3), mkLit(4)}));
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(3), mkLit(4)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    // Now force x0 at the root: the padded clause's ~x0 is dead.
    // Root clause cleaning strips it (counted as a strengthening; the
    // remainder re-files as a binary) - vivification alone would not,
    // as it only shortens learnt clauses.
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    EXPECT_TRUE(s.inprocess());
    EXPECT_GE(s.stats().vivifiedClauses + s.stats().removedClauses +
                  s.stats().strengthenedClauses,
              1)
        << "the clause must be shortened or dropped as satisfied";
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(Inprocessing, SubsumptionRemovesAndStrengthens)
{
    Solver s;
    // {x0, x1} subsumes {x0, x1, x2} and self-subsumes
    // {~x0, x1, x3} down to {x1, x3}.
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(1), mkLit(3)}));
    EXPECT_TRUE(s.inprocess());
    EXPECT_EQ(1, s.stats().subsumedClauses);
    EXPECT_EQ(1, s.stats().strengthenedClauses);
    // Semantics unchanged: ~x1 now implies x3 via the strengthened
    // clause together with {x0, x1} - check the implication holds.
    EXPECT_EQ(SolveResult::Unsat,
              s.solve({~mkLit(1), ~mkLit(3)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(Inprocessing, CanBeDisabledByConfig)
{
    SolverConfig cfg;
    cfg.inprocessing = false;
    Solver s(cfg);
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.inprocess());
    EXPECT_EQ(0, s.stats().inprocessRuns);
    EXPECT_EQ(0, s.stats().subsumedClauses);
}

TEST(ClauseGc, BinaryWatchListsSurviveRelocation)
{
    // Binary clauses live in the arena but are watched through the
    // specialized binary lists; a GC must patch those watchers too,
    // and root-level BINARY reasons must still support final-conflict
    // analysis afterwards.
    // Positive initial phase: the all-positive filler clauses are
    // satisfied by every decision, so propagation stays on the
    // binary path and the zero-arena-reads assertion below is exact.
    SolverConfig cfg;
    cfg.initialPhaseTrue = true;
    Solver s(cfg);
    // Binary implication chain x0 -> x1 -> x2 (binary reasons), plus
    // long clauses so relocation moves a mixed population.
    EXPECT_TRUE(s.addClause({mkLit(3), mkLit(4), mkLit(5)}));
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({~mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({mkLit(4), mkLit(5), mkLit(6)}));
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    s.garbageCollect();
    EXPECT_EQ(1, s.stats().gcRuns);
    // Propagation through the RELOCATED binary watchers, still with
    // zero arena reads.
    EXPECT_EQ(SolveResult::Unsat, s.solve({~mkLit(2)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(2));
    EXPECT_EQ(0, s.stats().propagationArenaReads);
}

TEST_P(InprocessingProperty, GcKeepsBinaryHeavyVerdicts)
{
    // Random binary-heavy formulas under reduction pressure,
    // explicit GCs and inprocessing between incremental rounds: the
    // non-empty binary watch lists must survive every relocation
    // with verdicts identical to brute force.
    Rng rng(GetParam() + 53000);
    Cnf cnf;
    cnf.ensureVars(8);
    for (int i = 0; i < 20; ++i) {
        const Var a = static_cast<Var>(rng.nextBelow(8));
        Var b = static_cast<Var>(rng.nextBelow(8));
        while (b == a)
            b = static_cast<Var>(rng.nextBelow(8));
        cnf.addClause(
            {mkLit(a, rng.nextBool()), mkLit(b, rng.nextBool())});
    }
    for (int i = 0; i < 8; ++i) {
        LitVec c;
        for (int j = 0; j < 3; ++j)
            c.push_back(mkLit(static_cast<Var>(rng.nextBelow(8)),
                              rng.nextBool()));
        cnf.addClause(c);
    }
    SolverConfig cfg;
    cfg.learntLimitBase = 10;
    Solver solver(cfg);
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
        if (solver.solve() != SolveResult::Sat)
            break;
        solver.shrinkLearnts(3);
        if (round % 2 == 0)
            solver.garbageCollect();
        else
            solver.inprocess();
    }
}

TEST_P(InprocessingProperty, OtfStrengtheningAgreesWithBruteForce)
{
    // The learn-time strengthenings must keep the database equivalent
    // round after round: decide random assumption queries against
    // brute force on one long-lived solver, interleaved with the
    // epoch shrink + inprocessing the engine performs - exactly the
    // environment the in-place arena edits have to survive.  The
    // seeds collectively exercise the pass (asserted below).
    Rng rng(GetParam() + 67000);
    const Cnf cnf = randomCnf(rng, 9, 40, 3);
    Solver solver;
    solver.addCnf(cnf);
    const bool base = bruteForceSat(cnf);
    EXPECT_EQ(base ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve());
    for (int round = 0; round < 3 && base; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 9; ++v) {
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
        solver.shrinkLearnts(3);
        solver.inprocess();
    }
}

TEST_P(InprocessingProperty, DeferredOtfAgreesWithBruteForce)
{
    // Candidates the mid-search pass must skip (deep assertion
    // levels, locked antecedents) are queued and applied at the next
    // root boundary.  The solver must agree with brute force on every
    // incremental query - the deferred in-place shrink edits live
    // arena clauses at level 0.
    Rng rng(GetParam() + 91000);
    const Cnf cnf = randomCnf(rng, 9, 38, 3);
    Solver solver;
    solver.addCnf(cnf);
    const bool base = bruteForceSat(cnf);
    EXPECT_EQ(base ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve());
    for (int round = 0; round < 3 && base; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 9; ++v) {
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
        // Same epoch maintenance the engine performs: deferred
        // candidates must survive (or be purged across) both.
        solver.shrinkLearnts(3);
        solver.inprocess();
    }
}

TEST(Inprocessing, DeferredOtfAppliesAtRootBoundaries)
{
    // On a conflict-heavy instance the mid-search pass skips real
    // candidates and the root-boundary drain applies them: both
    // counters must move, and the verdict is unaffected.
    Solver deferred;
    deferred.addCnf(pigeonhole(7));
    EXPECT_EQ(SolveResult::Unsat, deferred.solve());
    EXPECT_GT(deferred.stats().otfSkipped, 0);
    EXPECT_GT(deferred.stats().otfDeferredApplied, 0);
}

TEST(Inprocessing, AddClauseAfterRestoreChecksOkay)
{
    // The re-entrant restoreEliminated() inside addClause() can latch
    // root unsatisfiability; addClause() must then report failure
    // instead of attaching to a broken solver.  Preprocess first so
    // the elimination stack is populated.
    SolverConfig cfg = SolverConfig::simplify();
    Solver s(cfg);
    Rng rng(4711);
    const Cnf cnf = randomCnf(rng, 10, 28, 3);
    s.addCnf(cnf);
    if (s.solve() != SolveResult::Sat)
        return; // nothing eliminated on unsat latch
    // Force contradictory units: the second addClause() triggers the
    // restore + okay audit path regardless of what was eliminated.
    const bool first = s.addClause({mkLit(0)});
    const bool second = s.addClause({~mkLit(0)});
    EXPECT_FALSE(first && second);
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    // Anything added after the latch must be refused outright.
    EXPECT_FALSE(s.addClause({mkLit(1), mkLit(2)}));
}

TEST_P(InprocessingProperty, BinaryHeavyRoundsAgreeWithBruteForce)
{
    // Random binary-heavy formulas through assumption rounds, root
    // solves and inprocessing: verdicts must match brute force round
    // for round, and every Sat round's model must satisfy the clauses
    // and the assumptions.
    Rng rng(GetParam() + 91000);
    Cnf cnf;
    cnf.ensureVars(9);
    for (int i = 0; i < 26; ++i) {
        const Var u = static_cast<Var>(rng.nextBelow(9));
        Var w = static_cast<Var>(rng.nextBelow(9));
        while (w == u)
            w = static_cast<Var>(rng.nextBelow(9));
        cnf.addClause(
            {mkLit(u, rng.nextBool()), mkLit(w, rng.nextBool())});
    }
    for (int i = 0; i < 6; ++i) {
        LitVec clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(mkLit(
                static_cast<Var>(rng.nextBelow(9)), rng.nextBool()));
        cnf.addClause(clause);
    }
    Solver solver;
    solver.addCnf(cnf);
    for (int round = 0; round < 4; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 9; ++v) {
            const auto choice = rng.nextBelow(5);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        const SolveResult got = solver.solve(assumptions);
        ASSERT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  got)
            << "round " << round;
        if (got == SolveResult::Sat) {
            std::vector<LBool> model(9);
            for (Var v = 0; v < 9; ++v)
                model[static_cast<std::size_t>(v)] =
                    solver.modelValue(v);
            EXPECT_TRUE(cnf.satisfiedBy(model))
                << "round " << round;
            for (const Lit l : assumptions)
                EXPECT_NE(LBool::False,
                          l.sign() ? lboolNeg(model[l.var()])
                                   : model[l.var()])
                    << "assumption violated in round " << round;
        }
        // An assumption-free solve between rounds lets root units
        // reach the root clause cleaning inprocess() starts with.
        if (solver.solve() != SolveResult::Sat)
            break;
        solver.inprocess();
    }
}

TEST_P(InprocessingProperty, LateClausesAndGcAgreeWithBruteForce)
{
    // Binary-heavy formulas with clauses added between rounds and a
    // relocating GC: the relocation sweep must keep binary reasons -
    // which carry literals, not arena refs - intact across rounds.
    Rng rng(GetParam() + 97000);
    Cnf cnf;
    cnf.ensureVars(10);
    std::vector<LitVec> pool;
    for (int i = 0; i < 24; ++i) {
        const Var u = static_cast<Var>(rng.nextBelow(10));
        Var w = static_cast<Var>(rng.nextBelow(10));
        while (w == u)
            w = static_cast<Var>(rng.nextBelow(10));
        pool.push_back(
            {mkLit(u, rng.nextBool()), mkLit(w, rng.nextBool())});
    }
    for (int i = 0; i < 8; ++i) {
        LitVec clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(mkLit(
                static_cast<Var>(rng.nextBelow(10)), rng.nextBool()));
        pool.push_back(clause);
    }
    for (const LitVec &clause : pool)
        cnf.addClause(clause);
    SolverConfig cfg;
    cfg.learntLimitBase = 10;
    Solver solver(cfg);
    solver.addCnf(cnf);
    for (int round = 0; round < 4; ++round) {
        // Skip out once the formula itself is Unsat.
        if (solver.solve() != SolveResult::Sat)
            break;
        // Add a widened copy of a real clause: it is subsumed by that
        // clause, hence a consequence that leaves the verdict
        // unchanged.
        LitVec late =
            pool[rng.nextBelow(static_cast<std::uint32_t>(
                pool.size()))];
        late.push_back(mkLit(
            static_cast<Var>(rng.nextBelow(10)), rng.nextBool()));
        solver.addClause(late);
        LitVec assumptions;
        for (Var v = 0; v < 10; ++v) {
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
        solver.shrinkLearnts(3);
        if (round % 2 == 0)
            solver.garbageCollect();
        else
            solver.inprocess();
    }
}

TEST_P(InprocessingProperty, EliminationRoundsAgreeWithBruteForce)
{
    // Bounded variable elimination on a binary-heavy formula, then
    // assumption rounds (which restore eliminated variables): the
    // reconstructed model must satisfy the clauses and verdicts must
    // still match brute force.
    Rng rng(GetParam() + 101000);
    Cnf cnf;
    cnf.ensureVars(10);
    for (int i = 0; i < 22; ++i) {
        const Var u = static_cast<Var>(rng.nextBelow(10));
        Var w = static_cast<Var>(rng.nextBelow(10));
        while (w == u)
            w = static_cast<Var>(rng.nextBelow(10));
        cnf.addClause(
            {mkLit(u, rng.nextBool()), mkLit(w, rng.nextBool())});
    }
    for (int i = 0; i < 6; ++i) {
        LitVec clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(mkLit(
                static_cast<Var>(rng.nextBelow(10)), rng.nextBool()));
        cnf.addClause(clause);
    }
    SolverConfig cfg = SolverConfig::simplify();
    Solver solver(cfg);
    solver.addCnf(cnf);
    const bool sat0 = bruteForceSat(cnf);
    ASSERT_EQ(sat0 ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve());
    if (!sat0)
        return;
    std::vector<LBool> model(10);
    for (Var v = 0; v < 10; ++v)
        model[static_cast<std::size_t>(v)] = solver.modelValue(v);
    EXPECT_TRUE(cnf.satisfiedBy(model));
    for (int round = 0; round < 3; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 10; ++v) {
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

} // namespace
} // namespace qb::sat

namespace qb::core {
namespace {

TEST(EngineInprocessing, JobsDeterminismWithGcAndInprocessing)
{
    // The scheduler acceptance contract must hold with inprocessing
    // forced on every query and heavy reduction pressure (GC runs
    // mid-session): --jobs 1 and --jobs N give identical verdicts AND
    // counterexamples.  The unsafe adder mutants make the
    // counterexample comparison bite.
    const std::vector<std::string> mutants =
        test::adderMutantSources(10);
    std::vector<std::string> sources{circuits::adderQbrSource(10)};
    sources.insert(sources.end(), mutants.begin(), mutants.end());
    EngineOptions base = EngineOptions::portfolioAB();
    base.inprocessInterval = 1;
    for (VerifierOptions &lane : base.lanes)
        lane.solver.learntLimitBase = 16;
    EngineOptions serial = base;
    serial.jobs = 1;
    EngineOptions parallel = base;
    parallel.jobs = 4;
    std::size_t unsafe = 0;
    for (std::size_t k = 0; k < sources.size(); ++k) {
        const auto program = lang::elaborateSource(sources[k]);
        const ProgramResult r1 = verifyAll(program, serial);
        const ProgramResult rn = verifyAll(program, parallel);
        ASSERT_EQ(r1.qubits.size(), rn.qubits.size());
        for (std::size_t i = 0; i < r1.qubits.size(); ++i) {
            EXPECT_EQ(r1.qubits[i].verdict, rn.qubits[i].verdict)
                << "program " << k << " qubit " << i;
            EXPECT_EQ(r1.qubits[i].failed, rn.qubits[i].failed)
                << "program " << k << " qubit " << i;
            EXPECT_EQ(r1.qubits[i].counterexample,
                      rn.qubits[i].counterexample)
                << "program " << k << " qubit " << i;
            unsafe += r1.qubits[i].verdict == Verdict::Unsafe;
        }
        if (k == 0) {
            for (const QubitResult &r : r1.qubits)
                EXPECT_EQ(Verdict::Safe, r.verdict) << r.name;
        }
    }
    EXPECT_GT(unsafe, 0u) << "the mutants must yield counterexamples";
}

TEST(EngineInprocessing, SolverTotalsReachJsonReport)
{
    // The aggregated lane counters must flow into ProgramResult and
    // the JSON document (the report side of the new SolverStats).
    const auto program =
        lang::elaborateSource(circuits::mcxQbrSource(40));
    EngineOptions options = EngineOptions::portfolioAB();
    options.inprocessInterval = 1;
    options.jobs = 2;
    const ProgramResult result = verifyAll(program, options);
    EXPECT_GT(result.solverTotals.propagations, 0);
    EXPECT_GT(result.solverTotals.arenaPeakWords, 0);
    const std::string json = toJson(result, "mcx");
    EXPECT_NE(std::string::npos, json.find("\"solver\": {"));
    EXPECT_NE(std::string::npos, json.find("\"inprocess_runs\": "));
    EXPECT_NE(std::string::npos, json.find("\"gc_runs\": "));
    EXPECT_NE(std::string::npos, json.find("\"arena_peak_words\": "));
    // The dressed mcx program on lane B: every condition goes through
    // a scratch solver running bounded variable elimination over a
    // binary-dense formula, and every qubit must still verify safe.
    const ProgramResult heavy = verifyAll(
        lang::elaborateSource(circuits::binaryHeavyMcxQbrSource(20)),
        EngineOptions::singleLane(VerifierOptions::laneB()));
    EXPECT_GT(heavy.solverTotals.propagations, 0);
    for (const QubitResult &r : heavy.qubits)
        EXPECT_EQ(Verdict::Safe, r.verdict) << r.name;
}

} // namespace
} // namespace qb::core
