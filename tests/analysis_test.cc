/**
 * @file
 * Tests for the static analysis subsystem (src/analysis/):
 *
 *  - unit tests for the dataflow engine and its three lattice domains
 *    (GF(2)-affine, constants, backward liveness), gate by gate;
 *  - unit tests for the affine discharger and lint's permutation
 *    check, including near-miss circuits that must NOT discharge;
 *  - soundness cross-checks: verdicts with analysis enabled must be
 *    identical to SAT-only verdicts, on hand-built circuits and on
 *    randomly generated programs up to width 64;
 *  - golden-diagnostic tests for the lint driver, asserting exact
 *    line/column/rule/severity;
 *  - the serving-tier options fingerprint covering every
 *    AnalysisOptions field (with a compile-time field-count check).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "analysis/lint.h"
#include "analysis/permutation.h"
#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/report.h"
#include "core/verifier.h"
#include "ir/circuit_index.h"
#include "lang/elaborate.h"
#include "serving/serving.h"
#include "sim/classical.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qb::analysis {
namespace {

using ir::Circuit;
using ir::Gate;

// ------------------------------------------------------------ support

/** 1-12 random X/CNOT/Toffoli/MCX/Swap gates over 3-8 wires, plus H
 *  gates when @p quantum is set. */
Circuit
randomGateSoup(std::uint64_t seed, bool quantum)
{
    Rng rng(seed);
    const auto n = static_cast<std::uint32_t>(3 + rng.nextBelow(6));
    Circuit c(n);
    const auto pick = [&] {
        return static_cast<ir::QubitId>(rng.nextBelow(n));
    };
    const auto body = 1 + rng.nextBelow(12);
    for (std::uint64_t g = 0; g < body; ++g) {
        const ir::QubitId a = pick();
        ir::QubitId b = pick();
        while (b == a)
            b = pick();
        ir::QubitId t = pick();
        while (t == a || t == b)
            t = pick();
        switch (rng.nextBelow(quantum ? 6 : 5)) {
          case 0: c.append(Gate::x(a)); break;
          case 1: c.append(Gate::cnot(a, b)); break;
          case 2: c.append(Gate::ccnot(a, b, t)); break;
          case 3: c.append(Gate::mcx({a}, b)); break;
          case 4: c.append(Gate::swap(a, b)); break;
          default: c.append(Gate::h(a)); break;
        }
    }
    return c;
}

// ------------------------------------------- dataflow: affine domain

TEST(AffineDataflow, XTogglesTheConstantBit)
{
    AffineState s(2);
    EXPECT_TRUE(s.isIdentity(0));
    s.applyGate(Gate::x(0));
    EXPECT_FALSE(s.isIdentity(0));
    EXPECT_FALSE(s.isTop(0));
    EXPECT_FALSE(s.constantOf(0).has_value()); // q0 ^ 1, not const
    EXPECT_TRUE(s.mayDependOn(0, 0));
    s.applyGate(Gate::x(0));
    EXPECT_TRUE(s.isIdentity(0)); // X is self-inverse in the domain
}

TEST(AffineDataflow, CnotXorCancelsExactly)
{
    AffineState s(2);
    s.applyGate(Gate::cnot(0, 1));
    EXPECT_TRUE(s.mayDependOn(1, 0));
    EXPECT_TRUE(s.mayDependOn(1, 1));
    EXPECT_FALSE(s.mayDependOn(0, 1)); // control untouched
    // Unlike the support over-approximation, the second application
    // CANCELS the contribution: rows are exact.
    s.applyGate(Gate::cnot(0, 1));
    EXPECT_TRUE(s.isIdentity(1));
    EXPECT_FALSE(s.mayDependOn(1, 0));
}

TEST(AffineDataflow, SeededConstantControlsSimplifyToffoli)
{
    // Control seeded |0>: the gate provably never fires.
    AffineState dead(3);
    dead.seedConstant(0, false);
    ASSERT_EQ(std::optional<bool>(false), dead.constantOf(0));
    dead.applyGate(Gate::ccnot(0, 1, 2));
    EXPECT_TRUE(dead.isIdentity(2));
    EXPECT_FALSE(dead.anyTop());

    // Control seeded |1>: drops out, CCNOT degenerates to CNOT.
    AffineState one(3);
    one.seedConstant(0, true);
    one.applyGate(Gate::ccnot(0, 1, 2));
    EXPECT_FALSE(one.isTop(2));
    EXPECT_TRUE(one.mayDependOn(2, 1));

    // Both controls |1>: degenerates all the way to X.
    AffineState both(3);
    both.seedConstant(0, true);
    both.seedConstant(1, true);
    both.applyGate(Gate::ccnot(0, 1, 2));
    EXPECT_FALSE(both.isTop(2));
    EXPECT_FALSE(both.isIdentity(2)); // q2 ^ 1
    both.applyGate(Gate::x(2));
    EXPECT_TRUE(both.isIdentity(2));
}

TEST(AffineDataflow, SymbolicToffoliPoisonsOnlyItsTarget)
{
    AffineState s(3);
    s.applyGate(Gate::ccnot(0, 1, 2));
    EXPECT_TRUE(s.isTop(2));
    EXPECT_FALSE(s.isTop(0));
    EXPECT_FALSE(s.isTop(1));
    EXPECT_TRUE(s.anyTop());
    EXPECT_TRUE(s.mayDependOn(2, 0)); // ⊤ answers conservatively

    // ⊤ is sticky: no later linear gate can un-poison the wire...
    s.applyGate(Gate::x(2));
    s.applyGate(Gate::cnot(0, 2));
    EXPECT_TRUE(s.isTop(2));
    // ...and reading a ⊤ wire spreads ⊤ to the reader's target.
    s.applyGate(Gate::cnot(2, 0));
    EXPECT_TRUE(s.isTop(0));
}

TEST(AffineDataflow, McxFollowsTheSameControlRules)
{
    AffineState s(4);
    s.seedConstant(0, true);
    s.seedConstant(1, true);
    // Two constant-1 controls drop; one symbolic control remains:
    // the 3-control MCX is provably just CNOT[2, 3].
    s.applyGate(Gate::mcx({0, 1, 2}, 3));
    EXPECT_FALSE(s.isTop(3));
    EXPECT_TRUE(s.mayDependOn(3, 2));
    EXPECT_TRUE(s.mayDependOn(3, 3));
}

TEST(AffineDataflow, SwapExchangesDescriptions)
{
    AffineState s(2);
    s.applyGate(Gate::x(0)); // wire 0 holds q0 ^ 1
    s.applyGate(Gate::swap(0, 1));
    EXPECT_TRUE(s.mayDependOn(1, 0));
    EXPECT_FALSE(s.mayDependOn(1, 1)); // wire 1 now holds q0 ^ 1
    EXPECT_TRUE(s.mayDependOn(0, 1));  // wire 0 now holds q1
    EXPECT_FALSE(s.isIdentity(0));
    s.applyGate(Gate::swap(0, 1));
    s.applyGate(Gate::x(0));
    EXPECT_TRUE(s.isIdentity(0));
    EXPECT_TRUE(s.isIdentity(1));
}

TEST(AffineDataflow, NonClassicalGatePoisonsEverything)
{
    AffineState s(2);
    s.applyGate(Gate::h(0));
    EXPECT_TRUE(s.isTop(0));
    EXPECT_TRUE(s.isTop(1));
}

TEST(AffineDataflow, JoinKeepsAgreementAndTopsDisagreement)
{
    AffineState a(2), b(2);
    a.applyGate(Gate::x(0));
    b.applyGate(Gate::x(0));
    AffineState same = a;
    same.join(b);
    EXPECT_TRUE(same == a); // equal descriptions survive the join

    b.applyGate(Gate::x(1)); // now wire 1 differs between a and b
    a.join(b);
    EXPECT_FALSE(a.isTop(0)); // still q0 ^ 1 on both sides
    EXPECT_TRUE(a.isTop(1));
}

TEST(AffineDataflow, HashTracksStateEquality)
{
    Circuit cancel(3);
    cancel.append(Gate::cnot(0, 1));
    cancel.append(Gate::cnot(0, 1));
    const AffineState round =
        runForward<AffineDomain>(cancel, AffineState(3));
    const AffineState fresh(3);
    EXPECT_TRUE(round == fresh);
    EXPECT_EQ(fresh.hash(), round.hash());

    AffineState half(3);
    half.applyGate(Gate::cnot(0, 1));
    EXPECT_FALSE(half == fresh);
    EXPECT_NE(fresh.hash(), half.hash());
}

// ---------------------------------------- dataflow: constants domain

TEST(AffineDataflow, TopWiresMatchTheDenseSweepExactly)
{
    // affineTopWires() claims the EXACT ⊤ set of the unseeded dense
    // sweep, not an over-approximation: random X/CNOT/Toffoli/MCX/Swap
    // circuits must agree wire for wire, and one non-classical gate
    // poisons everything in both.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Circuit c = randomGateSoup(seed, seed % 10 == 0);
        const std::vector<bool> top = affineTopWires(c);
        const AffineState dense =
            runForward<AffineDomain>(c, AffineState(c.numQubits()));
        for (ir::QubitId w = 0; w < c.numQubits(); ++w)
            EXPECT_EQ(dense.isTop(w), top[w])
                << "seed " << seed << " wire " << w;
    }
}

TEST(ConstantDataflow, CancellationRederivesConstants)
{
    // alloc c; CNOT[w, c]; CNOT[c, w]: w ^= c == w ^ w cancels, so w
    // is provably |0> - the fact plain constant folding cannot see
    // (c is symbolic in between).
    ConstantState s(2); // 0 = w, 1 = c
    s.setKnown(1, false);
    s.applyGate(Gate::cnot(0, 1));
    EXPECT_FALSE(s.value(1).has_value()); // c = w, not constant
    s.applyGate(Gate::cnot(1, 0));
    ASSERT_TRUE(s.value(0).has_value());
    EXPECT_FALSE(*s.value(0)); // w is provably |0> again
}

// ----------------------------------------- dataflow: liveness domain

TEST(LivenessDataflow, ControlsOfLiveTargetsBecomeLive)
{
    LivenessState s(3);
    s.setLive(1);
    s.applyGateBackward(Gate::cnot(0, 1));
    EXPECT_TRUE(s.isLive(0)); // control feeds the live target
    EXPECT_TRUE(s.isLive(1)); // t ^= c reads the old t: stays live
    EXPECT_FALSE(s.isLive(2));

    // A dead target leaves its controls dead.
    LivenessState dead(3);
    dead.setLive(2);
    dead.applyGateBackward(Gate::cnot(0, 1));
    EXPECT_FALSE(dead.isLive(0));
    EXPECT_FALSE(dead.isLive(1));
}

TEST(LivenessDataflow, SwapMovesLivenessExactly)
{
    LivenessState s(2);
    s.setLive(1);
    s.applyGateBackward(Gate::swap(0, 1));
    EXPECT_TRUE(s.isLive(0));
    EXPECT_FALSE(s.isLive(1)); // the only "kill" reversibility admits
}

TEST(LivenessDataflow, NonClassicalGateReadsAllOperands)
{
    LivenessState s(2);
    s.applyGateBackward(Gate::h(0));
    EXPECT_TRUE(s.isLive(0));
    EXPECT_FALSE(s.isLive(1));
}

// --------------------------------------------- dataflow: the engine

TEST(DataflowEngine, ForwardTraceKeepsEveryBoundary)
{
    Circuit c(2);
    c.append(Gate::x(0));
    c.append(Gate::cnot(0, 1));
    const auto trace = forwardTrace<AffineDomain>(c, AffineState(2));
    ASSERT_EQ(3u, trace.size());
    EXPECT_TRUE(trace[0].isIdentity(0));  // before gate 0
    EXPECT_FALSE(trace[1].isIdentity(0)); // after X
    EXPECT_TRUE(trace[1].isIdentity(1));
    EXPECT_TRUE(trace[2].mayDependOn(1, 0));
    EXPECT_TRUE(runForward<AffineDomain>(c, AffineState(2)) ==
                trace.back());
}

TEST(DataflowEngine, BackwardTraceSeedsAtTheFinalBoundary)
{
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    LivenessState boundary(2);
    boundary.setLive(1);
    const auto trace = backwardTrace<LivenessDomain>(c, boundary);
    ASSERT_EQ(2u, trace.size());
    EXPECT_TRUE(trace[1].isLive(1)); // the seed itself
    EXPECT_FALSE(trace[1].isLive(0));
    EXPECT_TRUE(trace[0].isLive(0)); // before the gate: control live
}

TEST(DataflowEngine, WritesWireSeesTargetsAndSwapOperands)
{
    Circuit c(3);
    c.append(Gate::cnot(0, 1));
    EXPECT_FALSE(writesWire(c, 0)); // control only: never written
    EXPECT_TRUE(writesWire(c, 1));
    EXPECT_FALSE(writesWire(c, 2));
    c.append(Gate::swap(0, 2));
    EXPECT_TRUE(writesWire(c, 0));
    EXPECT_TRUE(writesWire(c, 2));
}

// ------------------------------------------------ mirrored circuit

/** G ; B ; rev(G) with B on wires G never touches. */
Circuit
cleanMirrorCircuit()
{
    Circuit c(4);
    c.append(Gate::cnot(0, 1)); // G
    c.append(Gate::x(1));       // G
    c.append(Gate::cnot(2, 3)); // B: disjoint from Op(G) = {0, 1}
    c.append(Gate::x(1));       // rev(G)
    c.append(Gate::cnot(0, 1)); // rev(G)
    return c;
}

// -------------------------------------------------------- permutation

TEST(Permutation, RestoredWhenGatePairCancels)
{
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    c.append(Gate::cnot(0, 1));
    EXPECT_EQ(PermutationVerdict::Restored, permutationCheck(c, 1));
}

TEST(Permutation, NotRestoredForPlainFlip)
{
    Circuit c(2);
    c.append(Gate::x(1));
    EXPECT_EQ(PermutationVerdict::NotRestored,
              permutationCheck(c, 1));
}

TEST(Permutation, ConeBeyondWindowAnswersTooWide)
{
    Circuit c(3);
    c.append(Gate::cnot(0, 1));
    c.append(Gate::cnot(2, 1)); // cone of qubit 1 is {0, 1, 2}
    EXPECT_EQ(PermutationVerdict::TooWide,
              permutationCheck(c, 1, /*window=*/2));
    // The same circuit within a wide-enough window is decidable.
    EXPECT_NE(PermutationVerdict::TooWide,
              permutationCheck(c, 1, /*window=*/3));
}

TEST(Permutation, NonClassicalGateInConeAnswersTooWide)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::cnot(0, 1));
    EXPECT_EQ(PermutationVerdict::TooWide, permutationCheck(c, 1));
}

TEST(Permutation, NonClassicalGateOutsideConeIsIgnored)
{
    Circuit c(3);
    c.append(Gate::h(2)); // irrelevant to qubit 1's cone
    c.append(Gate::x(1));
    c.append(Gate::x(1));
    EXPECT_EQ(PermutationVerdict::Restored, permutationCheck(c, 1));
}

TEST(Permutation, GateRangeMatchesTheSliceAndTheTruthTable)
{
    // The indexed check over [begin, end) of the whole circuit must
    // answer exactly what the check answers on the sliced circuit,
    // and every definite verdict must agree with brute force.
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const Circuit c = randomGateSoup(seed, seed % 7 == 0);
        const ir::CircuitIndex index(c);
        Rng rng(seed);
        const std::size_t begin = rng.nextBelow(c.size() + 1);
        const std::size_t end =
            begin + rng.nextBelow(c.size() - begin + 1);
        const Circuit slice = c.slice(begin, end);
        const bool classical = slice.isClassical();
        for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
            for (const unsigned window : {2u, 4u, 8u}) {
                const PermutationVerdict v =
                    permutationCheck(index, q, begin, end, window);
                EXPECT_EQ(permutationCheck(slice, q, window), v)
                    << "seed " << seed << " q " << q;
                // A non-classical gate off the cone leaves a verdict,
                // but no truth table to check it against.
                if (v == PermutationVerdict::TooWide || !classical)
                    continue;
                const sim::TruthTable table(slice);
                bool restored = true;
                for (std::uint64_t in = 0;
                     in < (std::uint64_t{1} << c.numQubits()); ++in)
                    restored = restored &&
                               table.output(q, in) == table.input(q, in);
                EXPECT_EQ(restored, v == PermutationVerdict::Restored)
                    << "seed " << seed << " q " << q;
            }
        }
    }
}

TEST(Permutation, WindowsAboveTheCapActAsTheCap)
{
    // A CNOT fan-in of k wires into wire 0, applied twice (so wire 0
    // is restored), has a cone of k + 1 wires.  Under the cap of 20,
    // k = 19 decides at every window from 20 up, while k = 20 and 21
    // stay TooWide even at windows 21 and 64, which would decide
    // k = 20 if they were honoured.
    for (const std::uint32_t fan_in : {19u, 20u, 21u}) {
        Circuit c(fan_in + 1);
        for (ir::QubitId w = 1; w <= fan_in; ++w)
            c.append(Gate::cnot(w, 0));
        for (ir::QubitId w = 1; w <= fan_in; ++w)
            c.append(Gate::cnot(w, 0));
        const PermutationVerdict expected =
            fan_in + 1 <= kMaxPermutationWindow
                ? PermutationVerdict::Restored
                : PermutationVerdict::TooWide;
        for (const unsigned window :
             {kMaxPermutationWindow, kMaxPermutationWindow + 1, 64u})
            EXPECT_EQ(expected, permutationCheck(c, 0, window))
                << fan_in << " " << window;
    }
}

TEST(Permutation, VisitsPerWireStayConstantOnMcxLadders)
{
    // The backward walk visits only gates on the touch lists of at
    // most `window` cone wires, so the visits per borrowed wire
    // depend on the ladder's local shape, not on its length: the
    // maximum is the same at m = 100 and m = 1000 and never exceeds
    // window x (most touches of any wire).  A walk over every gate
    // of the lifetime grows linearly in m instead.
    const auto max_visits = [](std::uint32_t m, std::size_t &bound) {
        const lang::ElaboratedProgram program =
            lang::elaborateSource(circuits::mcxQbrSource(m));
        const ir::CircuitIndex index(program.circuit);
        std::size_t most_touches = 0;
        for (ir::QubitId w = 0; w < program.circuit.numQubits(); ++w)
            most_touches =
                std::max(most_touches, index.touches(w).size());
        bound = kDefaultPermutationWindow * most_touches;
        std::size_t most = 0;
        for (std::size_t q = 0; q < program.qubits.size(); ++q) {
            const lang::QubitInfo &info = program.qubits[q];
            if (info.role == lang::QubitRole::Alloc)
                continue;
            std::size_t visited = 0;
            permutationCheck(index, static_cast<ir::QubitId>(q),
                             info.scopeBegin, info.scopeEnd,
                             kDefaultPermutationWindow, &visited);
            most = std::max(most, visited);
        }
        return most;
    };
    std::size_t bound_100 = 0, bound_1000 = 0;
    const std::size_t at_100 = max_visits(100, bound_100);
    const std::size_t at_1000 = max_visits(1000, bound_1000);
    EXPECT_GT(at_100, 0u);
    EXPECT_EQ(at_100, at_1000);
    EXPECT_LE(at_100, bound_100);
    EXPECT_LE(at_1000, bound_1000);
}

// ----------------------------------------------------------- analyzer

TEST(Analyzer, CreditsAffinePassOnMirroredCircuit)
{
    // G ; B ; rev(G) over CNOT/X is linear: the affine pass proves
    // both conditions.
    const Circuit c = cleanMirrorCircuit();
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(1);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_TRUE(f.plusUnsat);
}

TEST(Analyzer, AllPassesOffDischargesNothing)
{
    const Circuit c = cleanMirrorCircuit();
    Analyzer analyzer(c, AnalysisOptions::none());
    const AffineFacts f = analyzer.affineFacts(1);
    EXPECT_FALSE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);
}

TEST(Analyzer, NonClassicalCircuitDischargesNothing)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::cnot(0, 1));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(1);
    EXPECT_FALSE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);
}

// ----------------------------------------------------- affine pass

TEST(AffinePass, ExactRowsBeatTheSupportApproximation)
{
    // CNOT[0,1]; CNOT[0,1]: wire 1 provably forgets input 0.  Its
    // syntactic cone of influence still contains input 0, but the
    // affine rows are exact and discharge (6.2).
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    c.append(Gate::cnot(0, 1));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(0);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_TRUE(f.plusUnsat);
}

TEST(AffinePass, LeakingWireKeepsPlusUndischarged)
{
    // Wire 0 is restored (identity) but wire 1 genuinely depends on
    // it: (6.1) discharges, (6.2) must NOT.
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(0);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);
    // And the skipped proof was genuinely needed: SAT says Unsafe.
    EXPECT_EQ(core::Verdict::Unsafe, core::verifyQubit(c, 0).verdict);
}

TEST(AffinePass, NearMissNonlinearRestorationDoesNotDischarge)
{
    // CCNOT; CCNOT restores wire 2 on every input, but the
    // restoration is nonlinear: the affine domain holds wire 2 at ⊤
    // and must NOT claim (6.1) - that discharge belongs to other
    // passes (here the SAT run settles it; the qubit is Safe).  The
    // plus side is different: (6.2) asks about the OTHER wires, whose
    // rows are exactly identity, so it discharges regardless of the
    // target's ⊤.
    Circuit c(3);
    c.append(Gate::ccnot(0, 1, 2));
    c.append(Gate::ccnot(0, 1, 2));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f2 = analyzer.affineFacts(2);
    EXPECT_FALSE(f2.zeroUnsat);
    EXPECT_TRUE(f2.plusUnsat);
    EXPECT_EQ(core::Verdict::Safe, core::verifyQubit(c, 2).verdict);

    // For the untouched controls the roles flip: (6.1) discharges
    // (identity row), but wire 2's ⊤ row MAY depend on them, so
    // (6.2) must stay undischarged.
    const AffineFacts f0 = analyzer.affineFacts(0);
    EXPECT_TRUE(f0.zeroUnsat);
    EXPECT_FALSE(f0.plusUnsat);
}

/** Verdicts with analysis on and off for @p q, plus the on-side
 *  engine's affine credit. */
struct AffineEngineRun
{
    core::QubitResult on;
    core::QubitResult off;
    std::size_t affineCredits = 0;
};

AffineEngineRun
runAffineEngine(const Circuit &c, ir::QubitId q)
{
    core::EngineOptions without;
    without.analysis = AnalysisOptions::none();
    core::VerificationEngine on(c);
    core::VerificationEngine off(c, without);
    AffineEngineRun run{on.verify(q), off.verify(q), 0};
    run.affineCredits = on.stats().analysisDischarged;
    return run;
}

TEST(AffinePass, TopGateStillDischargesPlusWhenOnlyQIsTop)
{
    // Near miss of the ⊤ gate: q = 2 is ⊤ (two symbolic controls) but
    // no OTHER wire is, so the dense sweep must still run and (6.2)
    // still discharges - before the build, at engine level too.
    Circuit c(3);
    c.append(Gate::ccnot(0, 1, 2));
    c.append(Gate::x(0));
    c.append(Gate::x(0));
    c.append(Gate::ccnot(0, 1, 2));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(2);
    EXPECT_FALSE(f.zeroUnsat);
    EXPECT_TRUE(f.plusUnsat);

    const AffineEngineRun run = runAffineEngine(c, 2);
    EXPECT_EQ(core::Verdict::Safe, run.on.verdict);
    EXPECT_EQ(run.off.verdict, run.on.verdict);
    EXPECT_EQ(1u, run.affineCredits);
}

TEST(AffinePass, TopGateStillDischargesZeroWhenOnlyAnotherWireIsTop)
{
    // The other near miss: wire 3 is ⊤ but q = 2 is only written
    // linearly (w ^= a twice), so (6.1) still discharges through its
    // identity row; (6.2) must not, since ⊤ wire 3 may depend on q.
    Circuit c(4);
    c.append(Gate::ccnot(0, 1, 3));
    c.append(Gate::cnot(0, 2));
    c.append(Gate::cnot(0, 2));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(2);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);

    const AffineEngineRun run = runAffineEngine(c, 2);
    EXPECT_EQ(core::Verdict::Safe, run.on.verdict);
    EXPECT_EQ(run.off.verdict, run.on.verdict);
    EXPECT_EQ(run.off.failed, run.on.failed);
    EXPECT_EQ(1u, run.affineCredits);
}

TEST(AffinePass, TopGateClaimsNothingWhenQAndAnotherWireAreTop)
{
    // Both q = 2 and wire 3 are ⊤: the gate answers without the dense
    // sweep, and the answer is what the sweep would give - nothing.
    Circuit c(4);
    c.append(Gate::ccnot(0, 1, 2));
    c.append(Gate::ccnot(0, 1, 3));
    c.append(Gate::ccnot(0, 1, 2));
    const AffineState dense =
        runForward<AffineDomain>(c, AffineState(4));
    EXPECT_TRUE(dense.isTop(2));
    EXPECT_TRUE(dense.mayDependOn(3, 2));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(2);
    EXPECT_FALSE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);

    const AffineEngineRun run = runAffineEngine(c, 2);
    EXPECT_EQ(run.off.verdict, run.on.verdict);
    EXPECT_EQ(0u, run.affineCredits);
}

TEST(AffinePass, OffOptionAndNonClassicalCircuitsClaimNothing)
{
    Circuit linear(2);
    linear.append(Gate::cnot(0, 1));
    linear.append(Gate::cnot(0, 1));
    AnalysisOptions off;
    off.affine = false;
    Analyzer disabled(linear, off);
    const AffineFacts f = disabled.affineFacts(0);
    EXPECT_FALSE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);

    Circuit quantum(2);
    quantum.append(Gate::h(0));
    quantum.append(Gate::cnot(0, 1));
    Analyzer nonclassical(quantum, AnalysisOptions{});
    const AffineFacts g = nonclassical.affineFacts(1);
    EXPECT_FALSE(g.zeroUnsat);
    EXPECT_FALSE(g.plusUnsat);
}

TEST(AffinePass, DischargesWideLinearConeBeyondPermutationWindow)
{
    // The acceptance circuit: a 65-wire cone the permutation pass
    // must refuse (TooWide), proved restored by the affine sweep with
    // no window bound at all.
    const auto prog = lang::elaborateSource(
        circuits::wideLinearMirrorQbrSource(64));
    const auto verify =
        prog.qubitsWithRole(lang::QubitRole::BorrowVerify);
    ASSERT_EQ(1u, verify.size());
    const ir::QubitId w = verify[0];
    const auto &info = prog.qubits[w];
    const Circuit scope =
        prog.circuit.slice(info.scopeBegin, info.scopeEnd);
    EXPECT_EQ(65u, scope.numQubits());
    EXPECT_EQ(PermutationVerdict::TooWide,
              permutationCheck(scope, w, kDefaultPermutationWindow));

    Analyzer analyzer(scope, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(w);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_TRUE(f.plusUnsat);
}

// ------------------------------------------- engine discharge wiring

/**
 * A circuit that restores qubit 2 semantically but not syntactically:
 * (a AND b) XOR (a AND NOT b) XOR a = 0, an identity the boolexpr
 * arena has no distributivity rule to fold.  Condition (6.1) for
 * qubit 2 therefore stays NON-constant and goes to SAT.  Condition
 * (6.2) is what the affine pass discharges before the build: w is
 * the only ⊤ wire, and the exact rows of a and b do not mention w.
 * (Exact textbook mirrors need no analyzer at all: the arena's
 * hash-consing cancels rev(G) node-for-node and both conditions fold
 * to constants.)
 */
Circuit
nonFoldingRestoreCircuit()
{
    Circuit c(3); // a = 0, b = 1, w = 2
    c.append(Gate::ccnot(0, 1, 2)); // w ^= a AND b
    c.append(Gate::x(1));
    c.append(Gate::ccnot(0, 1, 2)); // w ^= a AND NOT b
    c.append(Gate::x(1));
    c.append(Gate::cnot(0, 2));     // w ^= a
    return c;
}

TEST(EngineAnalysis, RestoredQubitDischargesWithoutChangingVerdict)
{
    const Circuit c = nonFoldingRestoreCircuit();

    core::EngineOptions with;   // analysis on by default
    core::EngineOptions without;
    without.analysis = AnalysisOptions::none();

    core::VerificationEngine on(c, with);
    const core::QubitResult r_on = on.verify(2);
    core::VerificationEngine off(c, without);
    const core::QubitResult r_off = off.verify(2);

    EXPECT_EQ(core::Verdict::Safe, r_on.verdict);
    EXPECT_EQ(r_off.verdict, r_on.verdict);
    EXPECT_EQ(r_off.failed, r_on.failed);
    EXPECT_GE(on.stats().analysisDischarged, 1u);
    EXPECT_EQ(0u, off.stats().analysisDischarged);
}

TEST(EngineAnalysis, TotalsAndReportJsonCarryDischarges)
{
    // The same non-folding restore shape at program level: the
    // discharge must surface in ProgramResult::analysisTotals and in
    // the report JSON.
    const std::string src = "borrow@ a[2];\n"
                            "borrow w;\n"
                            "CCNOT[a[1], a[2], w];\n"
                            "X[a[2]];\n"
                            "CCNOT[a[1], a[2], w];\n"
                            "X[a[2]];\n"
                            "CNOT[a[1], w];\n"
                            "release w;\n";
    const core::ProgramResult result = core::verifySource(src);
    ASSERT_EQ(1u, result.qubits.size());
    EXPECT_EQ(core::Verdict::Safe, result.qubits[0].verdict);
    EXPECT_GE(result.analysisTotals.discharged, 1);
    EXPECT_EQ(result.analysisTotals.discharged,
              result.analysisTotals.affine);
    const std::string json = core::toJson(result, "mirror.qbr");
    EXPECT_NE(std::string::npos, json.find("\"analysis\":"));
    EXPECT_NE(std::string::npos, json.find("\"analysis_discharged\":"));
}

TEST(EngineAnalysis, MirrorMcxGeneratorDischargesAtAnyScale)
{
    // The restore cell keeps the dirty qubit's cone at 3 wires
    // however long the surrounding mirrored ladder grows, so lint's
    // permutation check proves restoration at every m, and the
    // engine's verdict agrees.
    for (const std::uint32_t m : {3u, 8u, 20u}) {
        const std::string source = circuits::mirrorMcxQbrSource(m);
        const core::ProgramResult result = core::verifySource(source);
        ASSERT_EQ(1u, result.qubits.size()) << "m=" << m;
        EXPECT_EQ(core::Verdict::Safe, result.qubits[0].verdict)
            << "m=" << m;
        const auto prog = lang::elaborateSource(source);
        const ir::QubitId w =
            prog.qubitsWithRole(lang::QubitRole::BorrowVerify).at(0);
        const auto &info = prog.qubits[w];
        EXPECT_EQ(PermutationVerdict::Restored,
                  permutationCheck(
                      prog.circuit.slice(info.scopeBegin, info.scopeEnd),
                      w))
            << "m=" << m;
    }
    EXPECT_THROW(circuits::mirrorMcxQbrSource(2),
                 std::invalid_argument);
}

TEST(EngineAnalysis, WideLinearMirrorDischargesByAffineWithZeroSatWork)
{
    // The PR's acceptance property: a >= 64-wire linear mirror whose
    // cone exceeds the permutation window is discharged entirely by
    // the affine pass - both conditions, before any formula is built
    // - and the SAT-only twin reaches the bit-identical verdict
    // through structural folding, also with zero SAT work.
    const auto prog = lang::elaborateSource(
        circuits::wideLinearMirrorQbrSource(64));
    for (const unsigned jobs : {1u, 4u}) {
        core::EngineOptions with;
        with.jobs = jobs;
        core::EngineOptions without;
        without.jobs = jobs;
        without.analysis = AnalysisOptions::none();
        const auto r_on = core::verifyAll(prog, with);
        const auto r_off = core::verifyAll(prog, without);

        ASSERT_EQ(1u, r_on.qubits.size()) << "jobs=" << jobs;
        ASSERT_EQ(1u, r_off.qubits.size()) << "jobs=" << jobs;
        EXPECT_EQ(core::Verdict::Safe, r_on.qubits[0].verdict);
        EXPECT_EQ(r_off.qubits[0].verdict, r_on.qubits[0].verdict);
        EXPECT_EQ(r_off.qubits[0].failed, r_on.qubits[0].failed);

        // Analysis on: both conditions credited to the affine pass...
        EXPECT_EQ(2, r_on.analysisTotals.affine) << "jobs=" << jobs;
        EXPECT_EQ(2, r_on.analysisTotals.discharged);
        EXPECT_FALSE(r_on.qubits[0].solvedStructurally);
        // ...with zero SAT work on either side.
        for (const auto *r : {&r_on.qubits[0], &r_off.qubits[0]}) {
            EXPECT_EQ(0u, r->cnfVars) << "jobs=" << jobs;
            EXPECT_EQ(0u, r->cnfClauses);
            EXPECT_EQ(0, r->conflicts);
        }
        // Analysis off: the arena's GF(2) folding settles both
        // conditions structurally; nothing is (or could be) credited.
        EXPECT_EQ(0, r_off.analysisTotals.discharged);
        EXPECT_TRUE(r_off.qubits[0].solvedStructurally);
    }
    EXPECT_THROW(circuits::wideLinearMirrorQbrSource(3),
                 std::invalid_argument);
}

TEST(EngineAnalysis, Width64RandomLinearProgramsAgreeWithSatOnly)
{
    // The width-64 slice of the analyzer-vs-SAT property: purely
    // linear random programs over 64 wires plus one borrowed wire,
    // where the affine pass (not the window-bounded permutation pass)
    // is the discharger that can fire.  Verdict and failed condition
    // must match the SAT-only twin on every qubit, and across the
    // seeds the affine pass must actually have fired.
    std::int64_t affine_total = 0;
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
        Rng rng(seed);
        // Random GF(2)-linear program over 64 input wires that folds
        // a random subset of them into the borrowed wire; even seeds
        // replay the folds (XOR is order-free) so the borrow
        // restores, odd seeds leave it dirty.
        std::string src = "borrow@ q[64];\nborrow w;\n";
        std::vector<std::string> folds;
        folds.push_back("CNOT[q[1], w];\n"); // w is always written
        for (int i = 0; i < 30; ++i) {
            const auto a = static_cast<unsigned>(
                1 + rng.nextBelow(64));
            auto b = static_cast<unsigned>(1 + rng.nextBelow(64));
            while (b == a)
                b = static_cast<unsigned>(1 + rng.nextBelow(64));
            switch (rng.nextBelow(3)) {
              case 0:
                src += format("X[q[%u]];\n", a);
                break;
              case 1:
                src += format("CNOT[q[%u], q[%u]];\n", a, b);
                break;
              default:
                folds.push_back(format("CNOT[q[%u], w];\n", a));
                break;
            }
        }
        for (const std::string &fold : folds)
            src += fold;
        if (seed % 2 == 0)
            for (const std::string &fold : folds)
                src += fold;
        src += "release w;\n";
        const auto prog = lang::elaborateSource(src);

        core::EngineOptions with;
        core::EngineOptions without;
        without.analysis = AnalysisOptions::none();
        const auto r_on = core::verifyAll(prog, with);
        const auto r_off = core::verifyAll(prog, without);

        ASSERT_EQ(r_off.qubits.size(), r_on.qubits.size());
        for (std::size_t i = 0; i < r_on.qubits.size(); ++i) {
            EXPECT_EQ(r_off.qubits[i].verdict, r_on.qubits[i].verdict)
                << "seed " << seed << "\n"
                << src;
            EXPECT_EQ(r_off.qubits[i].failed, r_on.qubits[i].failed)
                << "seed " << seed << "\n"
                << src;
        }
        affine_total += r_on.analysisTotals.affine;
        EXPECT_EQ(0, r_off.analysisTotals.discharged);
    }
    // w is only ever a fold TARGET, so (6.2) is affine-dischargeable
    // in every seed; the even (restoring) seeds discharge (6.1) too.
    EXPECT_GE(affine_total, 6);
}

TEST(EngineAnalysis, RandomProgramsVerdictsAgreeWithSatOnly)
{
    // Property: enabling the analyzer never changes any verdict or
    // failed condition relative to a SAT-only run.  Random programs
    // through the full text -> parse -> elaborate -> verify pipeline.
    for (int seed = 0; seed < 25; ++seed) {
        Rng rng(seed * 6151 + 17);
        const int nq = 3 + static_cast<int>(rng.nextBelow(3));
        std::string src = format("borrow q[%d];\n", nq);
        const int body = 2 + static_cast<int>(rng.nextBelow(8));
        for (int i = 0; i < body; ++i) {
            const int a = 1 + static_cast<int>(rng.nextBelow(nq));
            int b = 1 + static_cast<int>(rng.nextBelow(nq));
            while (b == a)
                b = 1 + static_cast<int>(rng.nextBelow(nq));
            switch (rng.nextBelow(3)) {
              case 0:
                src += format("X[q[%d]];\n", a);
                break;
              case 1:
                src += format("CNOT[q[%d], q[%d]];\n", a, b);
                break;
              default:
                src += format("SWAP[q[%d], q[%d]];\n", a, b);
                break;
            }
        }
        const auto prog = lang::elaborateSource(src);

        core::EngineOptions with;
        core::EngineOptions without;
        without.analysis = AnalysisOptions::none();
        const auto r_on = core::verifyAll(prog, with);
        const auto r_off = core::verifyAll(prog, without);

        ASSERT_EQ(r_off.qubits.size(), r_on.qubits.size());
        for (std::size_t i = 0; i < r_on.qubits.size(); ++i) {
            EXPECT_EQ(r_off.qubits[i].verdict, r_on.qubits[i].verdict)
                << "seed " << seed << " qubit " << i << "\n"
                << src;
            EXPECT_EQ(r_off.qubits[i].failed, r_on.qubits[i].failed)
                << "seed " << seed << " qubit " << i << "\n"
                << src;
        }
        EXPECT_EQ(0, r_off.analysisTotals.discharged);
    }
}

// ------------------------------------------------------ lint goldens

const Diagnostic &
only(const LintResult &result)
{
    EXPECT_EQ(1u, result.diagnostics.size());
    return result.diagnostics.front();
}

TEST(Lint, SelfInverseClassicalExcludesNonPermutationGates)
{
    // H is its own inverse as a unitary but is NOT a classical
    // permutation: the redundant-gate pair scan must not cancel it.
    EXPECT_FALSE(selfInverseClassical(Gate::h(0)));
    EXPECT_TRUE(selfInverseClassical(Gate::x(0)));
    EXPECT_TRUE(selfInverseClassical(Gate::swap(0, 1)));
    EXPECT_TRUE(selfInverseClassical(Gate::ccnot(0, 1, 2)));
}

TEST(Lint, BorrowNotRestoredIsAnErrorWithExactLocation)
{
    const LintResult r = lintSource("borrow w;\n"
                                    "X[w];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    const Diagnostic &d = only(r);
    EXPECT_EQ(Severity::Error, d.severity);
    EXPECT_EQ("borrow-not-restored", d.rule);
    EXPECT_EQ(1, d.loc.line);
    EXPECT_EQ(8, d.loc.column); // the 'w' of "borrow w"
    EXPECT_TRUE(r.hasErrors());
    EXPECT_EQ(1u, r.errorCount());

    // The lint verdict must agree with actual verification: the same
    // program's borrowed qubit is Unsafe under SAT.
    const auto verified = core::verifySource("borrow w;\n"
                                             "X[w];\n"
                                             "release w;\n");
    ASSERT_EQ(1u, verified.qubits.size());
    EXPECT_EQ(core::Verdict::Unsafe, verified.qubits[0].verdict);
}

TEST(Lint, SkipMarkedBorrowDowngradesToWarning)
{
    const LintResult r = lintSource("borrow@ w;\n"
                                    "X[w];\n");
    ASSERT_TRUE(r.elaborated);
    const Diagnostic &d = only(r);
    EXPECT_EQ(Severity::Warning, d.severity);
    EXPECT_EQ("borrow-not-restored", d.rule);
    EXPECT_NE(std::string::npos, d.message.find("waived"));
    EXPECT_FALSE(r.hasErrors());
}

TEST(Lint, UnusedBorrowRedundantBlockAndConstantControl)
{
    const LintResult r = lintSource("borrow w;\n"
                                    "borrow unused;\n"
                                    "alloc c;\n"
                                    "CNOT[c, w];\n"
                                    "CNOT[c, w];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    ASSERT_EQ(3u, r.diagnostics.size());
    // Sorted by source position (stable at equal positions).
    EXPECT_EQ("unused-borrow", r.diagnostics[0].rule);
    EXPECT_EQ(2, r.diagnostics[0].loc.line);
    EXPECT_EQ(8, r.diagnostics[0].loc.column);

    // The affine boundary scan proves the two CNOTs compose to the
    // identity map on every input: one diagnostic for the block,
    // anchored at its first gate and naming its last.
    EXPECT_EQ("redundant-gate", r.diagnostics[1].rule);
    EXPECT_EQ(4, r.diagnostics[1].loc.line);
    EXPECT_EQ(1, r.diagnostics[1].loc.column);
    EXPECT_NE(std::string::npos,
              r.diagnostics[1].message.find("5:1"));
    EXPECT_NE(std::string::npos,
              r.diagnostics[1].message.find("2-gate block"));

    // The constants domain knows alloc c starts |0>: the CNOT's
    // control can never fire.  Latched per wire - one diagnostic at
    // the first offending gate, not one per gate.
    EXPECT_EQ("control-always-constant", r.diagnostics[2].rule);
    EXPECT_EQ(4, r.diagnostics[2].loc.line);
    EXPECT_EQ(1, r.diagnostics[2].loc.column);
    EXPECT_NE(std::string::npos,
              r.diagnostics[2].message.find("never fires"));
    for (const Diagnostic &d : r.diagnostics)
        EXPECT_EQ(Severity::Warning, d.severity);
    EXPECT_FALSE(r.hasErrors());
}

TEST(Lint, QubitNeverReadFlagsWriteOnlyAlloc)
{
    // scratch only ever ABSORBS parity; no control, gate, or escaping
    // wire observes its value, so the alloc (and every gate into it)
    // is dead weight.  The borrowed wire itself restores, so this is
    // the only diagnostic.
    const LintResult r = lintSource("borrow w;\n"
                                    "alloc scratch;\n"
                                    "X[w];\n"
                                    "CNOT[w, scratch];\n"
                                    "X[w];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    const Diagnostic &d = only(r);
    EXPECT_EQ("qubit-never-read", d.rule);
    EXPECT_EQ(Severity::Warning, d.severity);
    EXPECT_EQ(2, d.loc.line);
    EXPECT_EQ(7, d.loc.column); // the 'scratch' of "alloc scratch"
    EXPECT_NE(std::string::npos, d.message.find("never read"));
}

TEST(Lint, DerivedConstantControlAndNotRestoredViaAlloc)
{
    // After CNOT[w,c]; CNOT[c,w] the borrowed wire is provably |0> -
    // a constant DERIVED by linear cancellation, not declared - so
    // the third gate's control never fires.  And w's final value is
    // c's initial value: the permutation pass (cone {w, c}, well
    // within the window) proves it not restored.
    const LintResult r = lintSource("borrow w;\n"
                                    "alloc c;\n"
                                    "CNOT[w, c];\n"
                                    "CNOT[c, w];\n"
                                    "CNOT[w, c];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    ASSERT_EQ(2u, r.diagnostics.size());
    EXPECT_EQ("borrow-not-restored", r.diagnostics[0].rule);
    EXPECT_EQ(Severity::Error, r.diagnostics[0].severity);
    EXPECT_EQ(1, r.diagnostics[0].loc.line);
    EXPECT_EQ(8, r.diagnostics[0].loc.column);

    EXPECT_EQ("control-always-constant", r.diagnostics[1].rule);
    EXPECT_EQ(Severity::Warning, r.diagnostics[1].severity);
    EXPECT_EQ(5, r.diagnostics[1].loc.line);
    EXPECT_EQ(1, r.diagnostics[1].loc.column);
    EXPECT_NE(std::string::npos,
              r.diagnostics[1].message.find("never fires"));
    EXPECT_TRUE(r.hasErrors());
}

TEST(Lint, NotRestoredProvedByAffineBeyondPermutationWindow)
{
    // Thirteen wires in the cone: the permutation pass answers
    // TooWide at its default window of 10, and before the affine
    // fallback this genuinely unrestored borrow went UNREPORTED.  The
    // affine sweep has no window: w ends at w ^ q1 ^ ... ^ q12 ^ 1,
    // provably not identity.
    const LintResult r = lintSource(
        "borrow q[12];\n"
        "borrow w;\n"
        "for i = 1 to 12 { CNOT[q[i], w]; }\n"
        "X[w];\n"
        "release w;\n");
    ASSERT_TRUE(r.elaborated);
    const Diagnostic &d = only(r);
    EXPECT_EQ("borrow-not-restored", d.rule);
    EXPECT_EQ(Severity::Error, d.severity);
    EXPECT_EQ(2, d.loc.line);
    EXPECT_EQ(8, d.loc.column); // the 'w' of "borrow w"
}

TEST(Lint, NestedScopesBeyondWindowAreCheckedOverTheirOwnSlice)
{
    // Every borrowed cone here exceeds the permutation window, so the
    // verdicts come from the per-scope affine states - and each wire
    // must be judged over ITS OWN lifetime slice:
    //  - a and b share a scope begin.  a is restored on [0, release a);
    //    b is not restored on a's slice, only on its own.
    //  - b and c share a scope end.  c is not restored on its own
    //    slice; on b's slice x[1] is ⊤ when c reads it, proving
    //    nothing.
    // A cache keyed by begin alone flags b; one keyed by end alone
    // misses c.  Exactly one error, at c's declaration.
    const std::string src =
        "borrow a;\n"                                          // 1
        "borrow b;\n"                                          // 2
        "borrow x[12];\n"                                      // 3
        "borrow y[2];\n"                                       // 4
        "for i = 1 to 12 { CNOT[x[i], a]; CNOT[x[i], b]; }\n"  // 5
        "for i = 1 to 12 { CNOT[x[i], a]; }\n"                 // 6
        "release a;\n"                                         // 7
        "CCNOT[y[1], y[2], x[1]];\n"                           // 8
        "borrow c;\n"                                          // 9
        "for i = 1 to 12 { CNOT[x[i], c]; }\n"                 // 10
        "X[c];\n"                                              // 11
        "CCNOT[y[1], y[2], x[1]];\n"                           // 12
        "for i = 1 to 12 { CNOT[x[i], b]; }\n"                 // 13
        "release c;\n"                                         // 14
        "release b;\n";                                        // 15
    const LintResult r = lintSource(src);
    ASSERT_TRUE(r.elaborated);
    ASSERT_EQ(1u, r.diagnostics.size());
    const Diagnostic &d = r.diagnostics[0];
    EXPECT_EQ("borrow-not-restored", d.rule);
    EXPECT_EQ(Severity::Error, d.severity);
    EXPECT_EQ(9, d.loc.line);
    EXPECT_EQ(8, d.loc.column); // the 'c' of "borrow c"
    EXPECT_NE(std::string::npos, d.message.find("'c'"));

    // Verification agrees on the three borrows: c is Unsafe, a and b
    // are Safe.  (The x and y wires leak into c, so they are Unsafe
    // too - through (6.2), which lint does not claim.)
    const core::ProgramResult verified = core::verifySource(src);
    for (const core::QubitResult &q : verified.qubits) {
        if (q.name == "c") {
            EXPECT_EQ(core::Verdict::Unsafe, q.verdict);
        } else if (q.name == "a" || q.name == "b") {
            EXPECT_EQ(core::Verdict::Safe, q.verdict) << q.name;
        }
    }
}

TEST(Lint, PathDivergentReleaseSurvivesElaborationFailure)
{
    // Measurement-guarded programs cannot elaborate to a circuit;
    // the AST layer must still report the asymmetric release.
    const LintResult r = lintSource("borrow r[2];\n"
                                    "X[r[1]];\n"
                                    "if M[r[2]] {\n"
                                    "    release r;\n"
                                    "}\n");
    EXPECT_FALSE(r.elaborated);
    EXPECT_FALSE(r.elaborationError.empty());
    const Diagnostic &d = only(r);
    EXPECT_EQ("path-divergent-release", d.rule);
    EXPECT_EQ(Severity::Warning, d.severity);
    EXPECT_EQ(3, d.loc.line);
    EXPECT_EQ(1, d.loc.column);
}

TEST(Lint, CleanProgramHasNoDiagnosticsAndExactMetrics)
{
    // Clean under ALL five rules: u = a AND b is read by the CNOTs
    // (not qubit-never-read), never provably constant at a control,
    // the X-sandwich restores w on every input without depending on
    // the alloc wire (not borrow-not-restored), no block composes to
    // the identity on all inputs, and every borrow is touched.
    const LintResult r = lintSource("borrow a;\n"
                                    "borrow b;\n"
                                    "borrow w;\n"
                                    "alloc u;\n"
                                    "CCNOT[a, b, u];\n"
                                    "CNOT[u, w];\n"
                                    "X[w];\n"
                                    "CNOT[u, w];\n"
                                    "X[w];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    EXPECT_TRUE(r.diagnostics.empty());
    for (const Diagnostic &d : r.diagnostics)
        ADD_FAILURE() << d.rule << " at " << d.loc.line << ":"
                      << d.loc.column << ": " << d.message;
    EXPECT_EQ(5u, r.metrics.gateCount);
    EXPECT_EQ(4u, r.metrics.qubits);
    EXPECT_EQ(5u, r.metrics.depth);
    EXPECT_EQ(3u, r.metrics.borrowPressure);
}

TEST(Lint, RenderersCarryRuleAndPosition)
{
    const LintResult r = lintSource("borrow w;\nX[w];\n");
    const std::string text = renderLintText(r, "prog.qbr");
    EXPECT_NE(std::string::npos,
              text.find("prog.qbr:1:8: error: [borrow-not-restored]"));
    const std::string json = lintToJson(r, "prog.qbr");
    EXPECT_NE(std::string::npos,
              json.find("\"rule\": \"borrow-not-restored\""));
    EXPECT_NE(std::string::npos, json.find("\"line\": 1"));
    EXPECT_NE(std::string::npos, json.find("\"errors\": 1"));
}

// ------------------------------------------- lint: pinned output

/**
 * Random lint input: skip-verified inputs plus borrow, borrow@ and
 * alloc scopes opened and released at random points between random
 * X/CNOT/CCNOT/MCX/SWAP gates (and a rare H or Z), with immediate
 * gate repeats so the redundant-gate scans have pairs to find.
 * Deterministic in @p seed.
 */
std::string
randomLintQbrSource(std::uint64_t seed)
{
    Rng rng(seed);
    const auto inputs = static_cast<std::uint32_t>(2 + rng.nextBelow(4));
    std::string src = format("borrow@ in[%u];\n", inputs);
    std::vector<std::string> live;
    for (std::uint32_t i = 1; i <= inputs; ++i)
        live.push_back(format("in[%u]", i));
    std::vector<std::string> scoped; // opened here, still releasable
    std::uint32_t next_id = 0;
    std::string last_gate;
    const auto steps = 6 + rng.nextBelow(34);
    for (std::uint64_t step = 0; step < steps; ++step) {
        const auto roll = rng.nextBelow(100);
        if (roll < 14 && live.size() < 14) {
            static const char *const kinds[] = {"borrow", "borrow@",
                                                "alloc"};
            const std::string name = format("s%u", next_id++);
            src += format("%s %s;\n", kinds[rng.nextBelow(3)],
                          name.c_str());
            live.push_back(name);
            scoped.push_back(name);
            continue;
        }
        if (roll < 22 && !scoped.empty()) {
            const auto k = rng.nextBelow(scoped.size());
            const std::string name = scoped[k];
            scoped.erase(scoped.begin() + static_cast<long>(k));
            live.erase(std::find(live.begin(), live.end(), name));
            src += "release " + name + ";\n";
            last_gate.clear();
            continue;
        }
        if (roll < 34 && !last_gate.empty()) {
            src += last_gate;
            continue;
        }
        std::vector<std::string> ops = live;
        for (std::size_t i = ops.size(); i > 1; --i)
            std::swap(ops[i - 1], ops[rng.nextBelow(i)]);
        const auto kind = rng.nextBelow(100);
        std::string gate;
        if (kind < 4) {
            gate = (kind < 2 ? "H[" : "Z[") + ops[0] + "];\n";
        } else if (kind < 24 || ops.size() < 2) {
            gate = "X[" + ops[0] + "];\n";
        } else if (kind < 56 || ops.size() < 3) {
            gate = (kind < 46 ? "CNOT[" : "SWAP[") + ops[0] + ", " +
                   ops[1] + "];\n";
        } else if (kind < 86 || ops.size() < 4) {
            gate = "CCNOT[" + ops[0] + ", " + ops[1] + ", " + ops[2] +
                   "];\n";
        } else {
            const auto width =
                std::min<std::size_t>(ops.size(), 4 + rng.nextBelow(2));
            gate = "MCX[" + ops[0];
            for (std::size_t i = 1; i < width; ++i)
                gate += ", " + ops[i];
            gate += "];\n";
        }
        src += gate;
        last_gate = gate;
    }
    return src;
}

TEST(Lint, OutputIsPinnedByteForByteOverASeededSet)
{
    // One FNV-1a digest over lintToJson of random programs (with and
    // without alloc scopes), every generator family and the nested-
    // scope program above, at two permutation windows.  Any change to
    // a diagnostic's rule, position, message, order or count - or to
    // the metrics - moves the digest.
    std::vector<std::pair<std::string, std::string>> programs;
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        programs.emplace_back(format("lint%llu",
                                     static_cast<unsigned long long>(
                                         seed)),
                              randomLintQbrSource(seed));
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        programs.emplace_back(format("random%llu",
                                     static_cast<unsigned long long>(
                                         seed)),
                              circuits::randomQbrSource(rng));
    }
    for (const std::uint32_t m : {4u, 5u, 8u, 16u, 40u}) {
        programs.emplace_back(format("mcx%u", m),
                              circuits::mcxQbrSource(m));
        programs.emplace_back(format("binary%u", m),
                              circuits::binaryHeavyMcxQbrSource(m));
        programs.emplace_back(format("wide%u", m),
                              circuits::wideLinearMirrorQbrSource(m));
        programs.emplace_back(
            format("widetof%u", m),
            circuits::wideLinearToffoliMirrorQbrSource(m));
        programs.emplace_back(format("mirror%u", m),
                              circuits::mirrorMcxQbrSource(m));
        programs.emplace_back(format("adder%u", m),
                              circuits::adderQbrSource(m));
    }
    // Lint.NestedScopesBeyondWindowAreCheckedOverTheirOwnSlice.
    programs.emplace_back(
        "nested",
        "borrow a;\nborrow b;\nborrow x[12];\nborrow y[2];\n"
        "for i = 1 to 12 { CNOT[x[i], a]; CNOT[x[i], b]; }\n"
        "for i = 1 to 12 { CNOT[x[i], a]; }\n"
        "release a;\nCCNOT[y[1], y[2], x[1]];\nborrow c;\n"
        "for i = 1 to 12 { CNOT[x[i], c]; }\nX[c];\n"
        "CCNOT[y[1], y[2], x[1]];\n"
        "for i = 1 to 12 { CNOT[x[i], b]; }\n"
        "release c;\nrelease b;\n");

    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::map<std::string, std::size_t> rules;
    for (const auto &[name, src] : programs) {
        for (const unsigned window : {3u, 10u}) {
            LintOptions options;
            options.permutationWindow = window;
            const LintResult r = lintSource(src, options);
            ASSERT_TRUE(r.elaborated) << name << "\n" << src;
            for (const Diagnostic &d : r.diagnostics)
                ++rules[d.rule];
            for (const char ch : lintToJson(r, name)) {
                digest ^= static_cast<unsigned char>(ch);
                digest *= 0x100000001b3ull;
            }
        }
    }
    // The set exercises every IR rule, so the digest pins each one.
    for (const char *rule :
         {"unused-borrow", "redundant-gate", "control-always-constant",
          "qubit-never-read", "borrow-not-restored"})
        EXPECT_GT(rules[rule], 0u) << rule;
    EXPECT_EQ(0x5d383dc3958f33b9ull, digest) << std::hex << digest;
}

TEST(Lint, QubitNeverReadMatchesTheBackwardTraceReference)
{
    // Reference: keep every boundary's liveness (backwardTrace) and
    // flag an alloc dead at all of [scopeBegin, min(scopeEnd, size)].
    // Lint's single running sweep must flag exactly the same allocs.
    std::size_t flagged = 0, kept = 0;
    for (std::uint64_t seed = 1000; seed < 3000; ++seed) {
        const std::string src = randomLintQbrSource(seed);
        const lang::ElaboratedProgram program =
            lang::elaborateSource(src);
        LivenessState boundary(program.circuit.numQubits());
        for (std::size_t q = 0; q < program.qubits.size(); ++q)
            if (program.qubits[q].role != lang::QubitRole::Alloc)
                boundary.setLive(static_cast<ir::QubitId>(q));
        const std::vector<LivenessState> trace =
            backwardTrace<LivenessDomain>(program.circuit, boundary);
        std::vector<std::pair<int, int>> expected;
        for (std::size_t q = 0; q < program.qubits.size(); ++q) {
            const lang::QubitInfo &info = program.qubits[q];
            if (info.role != lang::QubitRole::Alloc)
                continue;
            const std::size_t last =
                std::min(info.scopeEnd, program.circuit.size());
            bool live = false;
            for (std::size_t i = info.scopeBegin; i <= last; ++i)
                live = live ||
                       trace[i].isLive(static_cast<ir::QubitId>(q));
            if (live) {
                ++kept;
            } else {
                ++flagged;
                expected.emplace_back(info.loc.line, info.loc.column);
            }
        }
        std::sort(expected.begin(), expected.end());
        std::vector<std::pair<int, int>> actual;
        for (const Diagnostic &d : lintSource(src).diagnostics)
            if (d.rule == "qubit-never-read")
                actual.emplace_back(d.loc.line, d.loc.column);
        EXPECT_EQ(expected, actual) << "seed " << seed << "\n" << src;
    }
    // Both outcomes occur, so the comparison is not vacuous.
    EXPECT_GT(flagged, 0u);
    EXPECT_GT(kept, 0u);
}

// --------------------------------------------- serving fingerprint

TEST(ServingFingerprint, AnalysisOptionsAreResultAffecting)
{
    core::EngineOptions base;
    core::EngineOptions off;
    off.analysis = AnalysisOptions::none();

    const auto fp = [](const core::EngineOptions &o) {
        return serving::ServingTier::optionsFingerprint(o, false);
    };
    EXPECT_NE(fp(base), fp(off));
    EXPECT_EQ(fp(base), fp(core::EngineOptions{}));
}

TEST(ServingFingerprint, EveryAnalysisOptionsFieldIsResultAffecting)
{
    // Compile-time completeness gate: the structured binding names
    // every AnalysisOptions field, so adding or removing one fails to
    // compile here.  Update in lockstep: the binding, the per-field
    // flips below and the "an..." encoder in
    // ServingTier::optionsFingerprint().
    [[maybe_unused]] const auto [affine_field] = AnalysisOptions{};

    const auto fp = [](const core::EngineOptions &o) {
        return serving::ServingTier::optionsFingerprint(o, false);
    };
    const core::EngineOptions base;
    const auto flipped = [&fp](auto mutate) {
        core::EngineOptions o;
        mutate(o.analysis);
        return fp(o);
    };
    const std::string affine =
        flipped([](AnalysisOptions &a) { a.affine = false; });
    // Each single-field flip changes the key, and no two flips
    // collide with each other.
    const std::string keys[] = {fp(base), affine};
    for (std::size_t i = 0; i < std::size(keys); ++i)
        for (std::size_t j = i + 1; j < std::size(keys); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

} // namespace
} // namespace qb::analysis
