/**
 * @file
 * Tests for the session-based VerificationEngine: agreement with the
 * one-shot wrappers and the brute-force oracle, incremental reuse
 * across qubits, portfolio racing, batch verification with streaming
 * observers, and the JSON report emitter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <utility>

#include "circuits/adders.h"
#include "circuits/mcx.h"
#include "circuits/paper_figures.h"
#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/reference.h"
#include "core/report.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "sim/classical.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qb::core {
namespace {

using ir::Circuit;
using ir::Gate;

TEST(Engine, AgreesWithOneShotOnAllCccnotQubits)
{
    const Circuit c = circuits::cccnotDirty();
    VerificationEngine engine(c);
    for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
        EXPECT_EQ(verifyQubit(c, q).verdict, engine.verify(q).verdict)
            << "qubit " << q;
    }
    // All queries went through one session: formulas were built once.
    EXPECT_EQ(static_cast<std::size_t>(c.numQubits()),
              engine.stats().qubitsVerified);
    EXPECT_EQ(1u, engine.stats().formulaScans);
}

TEST(Engine, MultiQubitCircuitOneSessionManyVerdicts)
{
    // The Haner adder: all dirty ancillas safe, inputs unsafe, in one
    // session with one solver per lane.
    const std::uint32_t n = 6;
    const Circuit c = circuits::hanerCarryCircuit(n);
    VerificationEngine engine(c);
    EXPECT_EQ(1u, engine.numLanes());
    for (std::uint32_t i = 1; i <= n - 1; ++i) {
        EXPECT_EQ(Verdict::Safe, engine.verify(n + i - 1).verdict)
            << "a[" << i << "]";
    }
    for (std::uint32_t i = 1; i <= n - 1; ++i) {
        EXPECT_EQ(Verdict::Unsafe, engine.verify(i - 1).verdict)
            << "q[" << i << "]";
    }
    EXPECT_GT(engine.stats().satCalls, 0u);
}

TEST(Engine, RepeatedQueryHitsConditionCache)
{
    const Circuit c = circuits::cccnotDirty();
    VerificationEngine engine(c);
    const QubitResult first =
        engine.verify(circuits::kCccnotDirtyQubit);
    const std::size_t hits_before = engine.stats().conditionHits;
    const QubitResult again =
        engine.verify(circuits::kCccnotDirtyQubit);
    EXPECT_EQ(first.verdict, again.verdict);
    EXPECT_GT(engine.stats().conditionHits, hits_before);
}

/** The single verified borrow of @p source and its scope's circuit. */
std::pair<ir::QubitId, Circuit>
verifiedScope(const std::string &source)
{
    const auto program = lang::elaborateSource(source);
    const auto verify =
        program.qubitsWithRole(lang::QubitRole::BorrowVerify);
    EXPECT_EQ(1u, verify.size());
    const lang::QubitInfo &info = program.qubits[verify.at(0)];
    return {verify[0],
            program.circuit.slice(info.scopeBegin, info.scopeEnd)};
}

TEST(Engine, CofactorSweepVisitsGrowLinearlyOnMcx)
{
    // Deterministic guard on (6.2) construction: the node visits of
    // the cofactor sweep, not wall time.  A fresh memo per wire
    // visited the shared DAG once per wire - 4x the visits at twice
    // the width; one memo per polarity stays at about 2x.
    const auto visits = [](std::uint32_t m) {
        const auto [w, scope] =
            verifiedScope(circuits::mcxQbrSource(m));
        VerificationEngine engine(scope);
        EXPECT_EQ(Verdict::Safe, engine.verify(w).verdict);
        // The ladder's conditions reach the arena: one scan.
        EXPECT_EQ(1u, engine.stats().formulaScans);
        return engine.stats().substituteVisits;
    };
    const std::size_t small = visits(200);
    const std::size_t large = visits(400);
    EXPECT_GT(small, 400u);
    EXPECT_LE(large, 2 * small + 64);
}

TEST(Engine, LateScanKeepsTheSessionSharedEncoding)
{
    // The lanes mark the circuit's formulas session-shared (their
    // definitions unguarded) when the scan runs, not when the lanes
    // are built, which is before it.  Marked at lane construction, the
    // region would be empty and every definition guarded: more
    // variables and clauses than the eager scan emitted, and learnt
    // clauses that no longer transfer between qubits.  The counts are
    // those the eager scan produced, lane A at jobs = 1.
    EngineOptions options;
    options.jobs = 1;
    const auto [w, scope] = verifiedScope(circuits::mcxQbrSource(20));
    VerificationEngine mcx(scope, options);
    const QubitResult r = mcx.verify(w);
    EXPECT_EQ(163u, r.cnfVars);
    EXPECT_EQ(548u, r.cnfClauses);

    const Circuit c = circuits::hanerCarryCircuit(6);
    VerificationEngine haner(c, options);
    std::size_t vars = 0, clauses = 0;
    for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
        const QubitResult each = haner.verify(q);
        vars += each.cnfVars;
        clauses += each.cnfClauses;
    }
    EXPECT_EQ(194u, vars);
    EXPECT_EQ(734u, clauses);
}

TEST(Engine, AffineDischargedSessionBuildsNoFormula)
{
    // Both conditions of the wide-linear mirror's dirty qubit are
    // discharged before their build, so nothing reads the final
    // formulas and the whole-circuit scan never runs.
    const auto [w, scope] =
        verifiedScope(circuits::wideLinearMirrorQbrSource(64));
    VerificationEngine engine(scope);
    EXPECT_EQ(0u, engine.stats().formulaScans);
    EXPECT_EQ(Verdict::Safe, engine.verify(w).verdict);
    EXPECT_EQ(2u, engine.stats().analysisDischarged);
    EXPECT_EQ(0u, engine.stats().formulaScans);

    // A later qubit that does need formulas scans once, and gets the
    // verdict and counterexample of a session that scanned first.
    const ir::QubitId input = 1; // q[2]: CNOT[q[1], q[2]] dirties it
    const QubitResult late = engine.verify(input);
    EXPECT_EQ(1u, engine.stats().formulaScans);
    VerificationEngine fresh(scope);
    const QubitResult first = fresh.verify(input);
    EXPECT_EQ(Verdict::Unsafe, first.verdict);
    EXPECT_EQ(first.verdict, late.verdict);
    EXPECT_EQ(first.failed, late.failed);
    EXPECT_EQ(first.counterexample, late.counterexample);
}

TEST(Engine, AnalysisOffScansOnceWithTheSameVerdict)
{
    const auto [w, scope] =
        verifiedScope(circuits::wideLinearMirrorQbrSource(64));
    EngineOptions options;
    options.analysis = analysis::AnalysisOptions::none();
    VerificationEngine engine(scope, options);
    EXPECT_EQ(Verdict::Safe, engine.verify(w).verdict);
    EXPECT_EQ(1u, engine.stats().formulaScans);
    EXPECT_EQ(0u, engine.stats().analysisDischarged);
}

TEST(Engine, CleanAncillaCheckScansOnAFreshSession)
{
    // The clean-ancilla residue is built from the final formula with
    // no static consult in front, so even a circuit whose borrow
    // checks are all discharged scans here.
    const auto [w, scope] =
        verifiedScope(circuits::wideLinearMirrorQbrSource(64));
    VerificationEngine engine(scope);
    EXPECT_EQ(0u, engine.stats().formulaScans);
    EXPECT_EQ(Verdict::Safe, engine.verifyCleanAncilla(w).verdict);
    EXPECT_EQ(1u, engine.stats().formulaScans);
}

TEST(Engine, WideLinearToffoliMirrorIsSafeAndScans)
{
    // The Toffoli sends w's affine row to ⊤, so (6.1) cannot be
    // discharged statically and the session must build formulas.
    for (const std::uint32_t n : {4u, 6u, 9u}) {
        const auto [w, scope] =
            verifiedScope(circuits::wideLinearToffoliMirrorQbrSource(n));
        EXPECT_EQ(Verdict::Safe, bruteForceVerdict(scope, w)) << n;
        VerificationEngine engine(scope);
        EXPECT_EQ(Verdict::Safe, engine.verify(w).verdict) << n;
        EXPECT_EQ(1u, engine.stats().formulaScans) << n;
    }
    EXPECT_THROW(circuits::wideLinearToffoliMirrorQbrSource(3),
                 std::invalid_argument);
}

TEST(Engine, NotClassicalCircuit)
{
    Circuit c(2);
    c.append(Gate::h(0));
    VerificationEngine engine(c);
    EXPECT_EQ(Verdict::NotClassical, engine.verify(1).verdict);
    EXPECT_EQ(Verdict::NotClassical,
              engine.verifyCleanAncilla(1).verdict);
}

TEST(Engine, PortfolioAgreesAndRecordsWinningLane)
{
    const Circuit c = circuits::hanerCarryCircuit(5);
    VerificationEngine engine(c, EngineOptions::portfolioAB());
    EXPECT_EQ(2u, engine.numLanes());
    for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
        const QubitResult r = engine.verify(q);
        EXPECT_EQ(verifyQubit(c, q).verdict, r.verdict)
            << "qubit " << q;
        if (!r.solvedStructurally) {
            EXPECT_GE(r.lane, 0);
            EXPECT_LT(r.lane, 2);
        }
    }
}

TEST(Engine, PortfolioCounterexamplesAreValid)
{
    Rng rng(7);
    Circuit c(6);
    for (int g = 0; g < 14; ++g) {
        auto a = static_cast<ir::QubitId>(rng.nextBelow(6));
        auto b = static_cast<ir::QubitId>(rng.nextBelow(6));
        auto t = static_cast<ir::QubitId>(rng.nextBelow(6));
        while (b == a)
            b = static_cast<ir::QubitId>(rng.nextBelow(6));
        while (t == a || t == b)
            t = static_cast<ir::QubitId>(rng.nextBelow(6));
        c.append(Gate::ccnot(a, b, t));
    }
    VerificationEngine engine(c, EngineOptions::portfolioAB());
    for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
        const QubitResult r = engine.verify(q);
        EXPECT_EQ(bruteForceVerdict(c, q), r.verdict) << "qubit " << q;
        if (r.verdict != Verdict::Unsafe)
            continue;
        ASSERT_TRUE(r.counterexample.has_value());
        const auto &cex = *r.counterexample;
        sim::ClassicalState s0(c.numQubits()), s1(c.numQubits());
        for (std::uint32_t k = 0; k < c.numQubits(); ++k) {
            s0.set(k, cex[k]);
            s1.set(k, cex[k]);
        }
        if (r.failed == FailedCondition::ZeroRestoration) {
            ASSERT_FALSE(cex[q]);
            s0.applyCircuit(c);
            EXPECT_TRUE(s0.get(q));
        } else {
            s1.set(q, !cex[q]);
            s0.applyCircuit(c);
            s1.applyCircuit(c);
            bool differs = false;
            for (std::uint32_t k = 0; k < c.numQubits(); ++k)
                if (k != q && s0.get(k) != s1.get(k))
                    differs = true;
            EXPECT_TRUE(differs);
        }
    }
}

TEST(Engine, VerifyAllStreamsResultsInOrder)
{
    const auto program = lang::elaborateSource(R"(
        borrow@ q[3];
        borrow a[2];
        CNOT[q[1], a[1]];
        CNOT[q[2], a[2]];
        CNOT[q[1], a[1]];
    )");
    std::vector<std::string> seen;
    const ProgramResult result = verifyAll(
        program, EngineOptions{},
        [&seen](const QubitResult &r) { seen.push_back(r.name); });
    ASSERT_EQ(2u, result.qubits.size());
    ASSERT_EQ(2u, seen.size());
    EXPECT_EQ(result.qubits[0].name, seen[0]);
    EXPECT_EQ(result.qubits[1].name, seen[1]);
    // a[1] is uncomputed, a[2] is not.
    EXPECT_EQ(Verdict::Safe, result.qubits[0].verdict);
    EXPECT_EQ(Verdict::Unsafe, result.qubits[1].verdict);
}

TEST(Engine, VerifyAllMatchesVerifyProgram)
{
    const auto program = lang::elaborateSource(R"(
        borrow@ q[4];
        borrow a;
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        release a;
    )");
    const ProgramResult wrapper = verifyProgram(program);
    const ProgramResult engine = verifyAll(program);
    ASSERT_EQ(wrapper.qubits.size(), engine.qubits.size());
    for (std::size_t i = 0; i < wrapper.qubits.size(); ++i)
        EXPECT_EQ(wrapper.qubits[i].verdict,
                  engine.qubits[i].verdict);
}

TEST(Engine, VerifyAllChecksCleanAncillas)
{
    const auto program = lang::elaborateSource(R"(
        borrow@ q[2];
        alloc c;
        CNOT[q[1], c];
        CNOT[q[1], c];
        alloc d;
        CNOT[q[2], d];
    )");
    const ProgramResult without = verifyAll(program);
    EXPECT_TRUE(without.qubits.empty());
    const ProgramResult with =
        verifyAll(program, EngineOptions{}, {}, true);
    ASSERT_EQ(2u, with.qubits.size());
    EXPECT_EQ(Verdict::Safe, with.qubits[0].verdict);
    EXPECT_EQ(Verdict::Unsafe, with.qubits[1].verdict);
}

TEST(Engine, JsonReportIsWellFormedish)
{
    const ProgramResult result = verifySource(R"(
        borrow@ q;
        borrow a;
        CNOT[a, q];
        release a;
    )");
    const std::string json = toJson(result, "inline.qbr");
    EXPECT_NE(std::string::npos, json.find("\"program\": \"inline.qbr\""));
    EXPECT_NE(std::string::npos, json.find("\"all_safe\": false"));
    EXPECT_NE(std::string::npos, json.find("\"verdict\": \"unsafe\""));
    EXPECT_NE(std::string::npos, json.find("\"counterexample\": ["));
    EXPECT_NE(std::string::npos, json.find("\"counts\": {\"safe\": 0, "
                                           "\"unsafe\": 1"));
    // Balanced braces and brackets (cheap structural sanity check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(Engine, JsonEscapesNames)
{
    QubitResult r;
    r.name = "weird\"name\\with\ncontrol";
    const std::string json = toJson(r);
    EXPECT_NE(std::string::npos,
              json.find("weird\\\"name\\\\with\\ncontrol"));
}

TEST(Engine, JsonEscapesDelCharacter)
{
    // DEL (0x7f) is a control character too; raw, it breaks strict
    // JSON consumers.
    QubitResult r;
    r.name = std::string("del") + '\x7f' + "im";
    const std::string json = toJson(r);
    EXPECT_NE(std::string::npos, json.find("del\\u007fim"));
    EXPECT_EQ(std::string::npos, json.find('\x7f'));
}

TEST(Engine, JsonNumbersAreLocaleIndependent)
{
    // Under a comma-decimal locale, printf("%f") writes "0,5" - not a
    // JSON number.  toJson must be immune to whatever LC_NUMERIC the
    // embedding process happens to run with.
    const char *switched = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
    if (!switched)
        switched = std::setlocale(LC_NUMERIC, "de_DE.utf8");
    if (!switched)
        switched = std::setlocale(LC_NUMERIC, "de_DE");
    if (!switched)
        GTEST_SKIP() << "no comma-decimal locale installed";
    const std::string probe = format("%.1f", 0.5);

    QubitResult qubit;
    qubit.solveSeconds = 0.5;
    ProgramResult program;
    program.qubits.push_back(qubit);
    program.totalSeconds = 1.5;
    const std::string json = toJson(program, "locale.qbr");
    std::setlocale(LC_NUMERIC, "C");

    if (probe != "0,5")
        GTEST_SKIP() << "locale did not use a comma decimal point";
    EXPECT_NE(std::string::npos,
              json.find("\"solve_seconds\": 0.500000"));
    EXPECT_NE(std::string::npos,
              json.find("\"total_seconds\": 1.500000"));
    EXPECT_EQ(std::string::npos, json.find("0,5"));
}

/** Random reversible circuit generator shared by the properties. */
Circuit
randomCircuit(Rng &rng, std::uint32_t n, int gates)
{
    Circuit c(n);
    for (int g = 0; g < gates; ++g) {
        const auto kind = rng.nextBelow(3);
        auto a = static_cast<ir::QubitId>(rng.nextBelow(n));
        auto b = static_cast<ir::QubitId>(rng.nextBelow(n));
        auto t = static_cast<ir::QubitId>(rng.nextBelow(n));
        while (b == a)
            b = static_cast<ir::QubitId>(rng.nextBelow(n));
        while (t == a || t == b)
            t = static_cast<ir::QubitId>(rng.nextBelow(n));
        if (kind == 0)
            c.append(Gate::x(a));
        else if (kind == 1)
            c.append(Gate::cnot(a, t));
        else
            c.append(Gate::ccnot(a, b, t));
    }
    return c;
}

TEST(Engine, PortfolioUnknownChargesEveryRacedLane)
{
    // When every lane runs out of budget the verdict is Unknown, and
    // the report must account the conflicts of ALL raced lanes - the
    // losers burnt real time; dropping their counters under-reports
    // the work done (and used to).  The adder conditions are hard
    // enough that a 1-conflict budget cannot decide them.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(12));
    const ir::QubitId first =
        program.qubitsWithRole(lang::QubitRole::BorrowVerify).front();
    const lang::QubitInfo &info = program.qubits[first];
    const Circuit scope =
        program.circuit.slice(info.scopeBegin, info.scopeEnd);
    EngineOptions options = EngineOptions::portfolioAB();
    for (VerifierOptions &lane : options.lanes) {
        lane.conflictBudget = 1;
        lane.wantCounterexample = false;
    }
    options.jobs = 1;
    VerificationEngine engine(scope, options);
    bool saw_unknown = false;
    for (ir::QubitId q :
         program.qubitsWithRole(lang::QubitRole::BorrowVerify)) {
        const QubitResult r = engine.verify(q);
        if (r.verdict != Verdict::Unknown)
            continue;
        saw_unknown = true;
        // Both lanes hit their 1-conflict budget: at least 2 total.
        EXPECT_GE(r.conflicts, 2) << "qubit " << q;
    }
    EXPECT_TRUE(saw_unknown)
        << "budget too generous for this circuit; tighten the test";
}

class EngineProperty : public ::testing::TestWithParam<int>
{};

TEST_P(EngineProperty, SessionAgreesWithBruteForceOnEveryQubit)
{
    Rng rng(GetParam());
    constexpr std::uint32_t n = 6;
    const Circuit c = randomCircuit(rng, n, 14);
    VerificationEngine engine(c);
    for (std::uint32_t q = 0; q < n; ++q) {
        EXPECT_EQ(bruteForceVerdict(c, q), engine.verify(q).verdict)
            << "qubit " << q;
    }
}

TEST_P(EngineProperty, LanesAgreeWithinOneSession)
{
    Rng rng(GetParam() + 4000);
    const Circuit c = randomCircuit(rng, 6, 12);
    VerificationEngine a(
        c, EngineOptions::singleLane(VerifierOptions::laneA()));
    VerificationEngine b(
        c, EngineOptions::singleLane(VerifierOptions::laneB()));
    for (std::uint32_t q = 0; q < 6; ++q)
        EXPECT_EQ(a.verify(q).verdict, b.verify(q).verdict)
            << "qubit " << q;
}

TEST_P(EngineProperty, CleanAncillaSessionMatchesWrapper)
{
    Rng rng(GetParam() + 8000);
    const Circuit c = randomCircuit(rng, 6, 12);
    VerificationEngine engine(c);
    for (std::uint32_t q = 0; q < 6; ++q) {
        EXPECT_EQ(verifyCleanAncilla(c, q).verdict,
                  engine.verifyCleanAncilla(q).verdict)
            << "qubit " << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Range(0, 25));

} // namespace
} // namespace qb::core
