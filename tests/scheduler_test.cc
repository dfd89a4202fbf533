/**
 * @file
 * Tests for the persistent scheduler and the engine's use of it: pool
 * mechanics, determinism of verdicts AND counterexamples across jobs
 * counts, batch pipelining, and the no-thread-per-condition
 * guarantee.  The stress tests double as the
 * ASan/TSan exercise in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "circuits/adders.h"
#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/reference.h"
#include "core/scheduler.h"
#include "lang/elaborate.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qb::core {
namespace {

using ir::Circuit;
using ir::Gate;

/**
 * Occupies the single worker of a one-worker pool so that work
 * submitted afterwards queues up behind it.  Declare it BEFORE the
 * pool: the pool's destructor drains the gate task, which still
 * touches this object.
 */
class WorkerGate
{
  public:
    /** Submit the gate task to @p pool and return only once it is
     *  running - else the worker could take later work first. */
    void hold(Scheduler &pool)
    {
        pool.submit([this] {
            std::unique_lock<std::mutex> lock(mutex_);
            running_ = true;
            changed_.notify_all();
            changed_.wait(lock, [this] { return open_; });
        });
        std::unique_lock<std::mutex> lock(mutex_);
        changed_.wait(lock, [this] { return running_; });
    }

    /** Let the gate task finish. */
    void release()
    {
        {
            const std::lock_guard<std::mutex> guard(mutex_);
            open_ = true;
        }
        changed_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable changed_;
    bool running_ = false;
    bool open_ = false;
};

TEST(Scheduler, RunsEverySubmittedTask)
{
    std::atomic<int> done{0};
    {
        Scheduler pool(3);
        EXPECT_EQ(3u, pool.workers());
        for (int i = 0; i < 64; ++i)
            pool.submit([&done] { ++done; });
    } // destructor drains and joins
    EXPECT_EQ(64, done.load());
}

TEST(Scheduler, ZeroJobsMeansHardwareSized)
{
    Scheduler pool(0);
    EXPECT_GE(pool.workers(), 1u);
}

TEST(Scheduler, SerialQueueIsFifoAndExclusive)
{
    std::vector<int> order;
    std::atomic<int> inside{0};
    {
        Scheduler pool(4);
        const auto queue = pool.makeQueue();
        for (int i = 0; i < 100; ++i) {
            pool.submit(queue, [&, i] {
                // Exclusivity: no other task of this queue runs now.
                EXPECT_EQ(1, inside.fetch_add(1) + 1);
                order.push_back(i);
                inside.fetch_sub(1);
            });
        }
    }
    ASSERT_EQ(100u, order.size());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(i, order[i]);
}

TEST(Scheduler, BandsInterleaveRoundRobin)
{
    // Two fairness bands on ONE worker: the pool must serve them
    // round-robin (FIFO within a band), so a band with a deep backlog
    // cannot starve the other - the server-mode guarantee that one
    // program's queued races cannot block another program's first.
    std::vector<int> order;
    WorkerGate gate;
    {
        Scheduler pool(1);
        // Gate the single worker so both bands fill while it is busy.
        gate.hold(pool);
        for (int i = 0; i < 3; ++i)
            pool.submit(1u, [&order, i] { order.push_back(100 + i); });
        for (int i = 0; i < 3; ++i)
            pool.submit(2u, [&order, i] { order.push_back(200 + i); });
        gate.release();
    } // destructor drains
    const std::vector<int> expected{100, 200, 101, 201, 102, 202};
    EXPECT_EQ(expected, order);
}

TEST(Scheduler, BandBacklogReportsQueuedWork)
{
    std::vector<std::pair<unsigned, std::size_t>> backlog;
    WorkerGate gate;
    {
        Scheduler pool(1);
        // Gate the single worker so the bands fill behind it.
        gate.hold(pool);
        for (int i = 0; i < 3; ++i)
            pool.submit(5u, [] {});
        for (int i = 0; i < 2; ++i)
            pool.submit(9u, [] {});
        backlog = pool.bandBacklog();
        gate.release();
    } // destructor drains
    ASSERT_EQ(2u, backlog.size());
    EXPECT_EQ(5u, backlog[0].first);
    EXPECT_EQ(3u, backlog[0].second);
    EXPECT_EQ(9u, backlog[1].first);
    EXPECT_EQ(2u, backlog[1].second);
}

TEST(Scheduler, IndependentQueuesDoNotSerializeEachOther)
{
    // Both queues finish even though one blocks a worker for a while;
    // with two workers the pool must interleave them.
    std::atomic<int> done{0};
    {
        Scheduler pool(2);
        const auto a = pool.makeQueue();
        const auto b = pool.makeQueue();
        for (int i = 0; i < 10; ++i) {
            pool.submit(a, [&done] { ++done; });
            pool.submit(b, [&done] { ++done; });
        }
    }
    EXPECT_EQ(20, done.load());
}

/** Random reversible circuit generator (mirrors engine_test). */
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

class JobsDeterminism : public ::testing::TestWithParam<int>
{};

/** --jobs 1 and --jobs N must agree exactly on @p c, with lanes A
 *  and B chosen per condition. */
void
expectJobsDeterminism(const Circuit &c)
{
    EngineOptions serial = EngineOptions::portfolioAB();
    EngineOptions parallel = serial;
    serial.jobs = 1;
    parallel.jobs = 4;
    VerificationEngine one(c, serial);
    VerificationEngine many(c, parallel);
    const ProgramResult r1 = one.verifyAllQubits();
    const ProgramResult rn = many.verifyAllQubits();
    ASSERT_EQ(r1.qubits.size(), rn.qubits.size());
    for (std::size_t i = 0; i < r1.qubits.size(); ++i) {
        EXPECT_EQ(r1.qubits[i].verdict, rn.qubits[i].verdict)
            << "qubit " << i;
        EXPECT_EQ(r1.qubits[i].failed, rn.qubits[i].failed)
            << "qubit " << i;
        EXPECT_EQ(r1.qubits[i].counterexample,
                  rn.qubits[i].counterexample)
            << "qubit " << i;
        EXPECT_EQ(r1.qubits[i].lane, rn.qubits[i].lane)
            << "qubit " << i;
    }
}

TEST_P(JobsDeterminism, OneAndManyJobsIdenticalVerdictsAndCex)
{
    // The acceptance contract of the scheduler: --jobs 1 and --jobs N
    // produce identical verdicts AND identical counterexamples.
    // (Counterexamples come from the deterministic replay solve, and
    // each condition's lane is a function of its cone alone.)
    Rng rng(GetParam() + 77000);
    expectJobsDeterminism(randomCircuit(rng, 6, 14));
}

TEST_P(JobsDeterminism, BinaryHeavyCircuitsStayDeterministic)
{
    // X/CNOT-only circuits elaborate to XOR-shaped conditions whose
    // Tseitin encodings are dominated by short clauses: the formulas
    // that stress the specialized binary watchers.  The determinism
    // contract must hold there too.
    Rng rng(GetParam() + 88000);
    const std::uint32_t n = 6;
    Circuit c(n);
    for (int g = 0; g < 18; ++g) {
        const auto a = static_cast<ir::QubitId>(rng.nextBelow(n));
        auto t = static_cast<ir::QubitId>(rng.nextBelow(n));
        while (t == a)
            t = static_cast<ir::QubitId>(rng.nextBelow(n));
        if (rng.nextBelow(4) == 0)
            c.append(Gate::x(t));
        else
            c.append(Gate::cnot(a, t));
    }
    expectJobsDeterminism(c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobsDeterminism,
                         ::testing::Range(0, 10));

TEST(SchedulerEngine, StressManyQubitsPortfolio)
{
    // The deterministic verifyAll stress: many qubits, two lanes, a
    // shared 4-worker pool, speculative (6.2) queries and cross-qubit
    // pipelining all at once.  CI runs this under ASan and TSan.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(12));
    EngineOptions options = EngineOptions::portfolioAB();
    options.jobs = 4;
    const ProgramResult result = verifyAll(program, options);
    ASSERT_EQ(11u, result.qubits.size());
    for (const QubitResult &r : result.qubits)
        EXPECT_EQ(Verdict::Safe, r.verdict) << r.name;
    // Same verdicts as the sequential single-lane reference.
    const ProgramResult reference = verifyProgram(program);
    ASSERT_EQ(reference.qubits.size(), result.qubits.size());
    for (std::size_t i = 0; i < result.qubits.size(); ++i)
        EXPECT_EQ(reference.qubits[i].verdict,
                  result.qubits[i].verdict);
}

TEST(SchedulerEngine, StressRandomCircuitsAgreeWithBruteForce)
{
    Rng rng(4242);
    for (int round = 0; round < 4; ++round) {
        const Circuit c = randomCircuit(rng, 7, 16);
        EngineOptions options = EngineOptions::portfolioAB();
        options.jobs = 3;
        VerificationEngine engine(c, options);
        const ProgramResult result = engine.verifyAllQubits();
        for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
            EXPECT_EQ(bruteForceVerdict(c, q),
                      result.qubits[q].verdict)
                << "round " << round << " qubit " << q;
        }
    }
}

/**
 * adder.qbr at @p n with one line of its final uncompute section
 * dropped, once per distinct line: each mutant leaves some dirty
 * qubits unsafe, so the runs below compare real counterexamples.
 */
std::vector<std::string>
adderMutantSources(std::uint32_t n)
{
    const std::string source = circuits::adderQbrSource(n);
    const std::size_t uncompute = source.find("// reverse");
    std::vector<std::string> out;
    for (const char *line :
         {"CNOT[q[1], a[1]];\n", "    CCNOT[a[i - 1], q[i], a[i]];\n",
          "    X[q[i]];\n", "    CNOT[q[i], a[i]];\n"}) {
        const std::size_t at = source.rfind(line);
        EXPECT_GT(at, uncompute) << line;
        std::string mutant = source;
        mutant.erase(at, std::string(line).size());
        out.push_back(std::move(mutant));
    }
    return out;
}

/** Verdict, failed condition, counterexample and lane of every qubit
 *  of @p got equal @p expected's. */
void
expectSameOutcomes(const ProgramResult &expected,
                   const ProgramResult &got, bool compare_lanes,
                   const std::string &what)
{
    ASSERT_EQ(expected.qubits.size(), got.qubits.size()) << what;
    for (std::size_t i = 0; i < expected.qubits.size(); ++i) {
        const QubitResult &e = expected.qubits[i];
        const QubitResult &g = got.qubits[i];
        EXPECT_EQ(e.verdict, g.verdict) << what << " " << e.name;
        EXPECT_EQ(e.failed, g.failed) << what << " " << e.name;
        EXPECT_EQ(e.counterexample, g.counterexample)
            << what << " " << e.name;
        if (compare_lanes) {
            EXPECT_EQ(e.lane, g.lane) << what << " " << e.name;
        }
    }
}

TEST(SchedulerEngine, AdaptiveLanesMatchDefaultOrderExactly)
{
    // A two-lane session chooses one lane per condition; lane A alone
    // is the default.  With an unlimited budget, verdicts, failed
    // conditions and counterexamples must be byte-identical to a
    // lane-A-only run: at --jobs 1, and on one shared two-worker pool
    // reused for a second batch (any state a pool carried from one
    // batch to the next would show there).
    std::vector<std::string> sources = adderMutantSources(10);
    sources.push_back(circuits::adderQbrSource(10));
    for (const std::string &source : sources) {
        const auto program = lang::elaborateSource(source);
        EngineOptions lane_a =
            EngineOptions::singleLane(VerifierOptions::laneA());
        lane_a.jobs = 1;
        const ProgramResult expected = verifyAll(program, lane_a);
        EngineOptions both = EngineOptions::portfolioAB();
        both.jobs = 1;
        expectSameOutcomes(expected, verifyAll(program, both), false,
                           "jobs 1");
        const auto scheduler = std::make_shared<Scheduler>(2u);
        for (const char *batch : {"cold", "warm"})
            expectSameOutcomes(expected,
                               verifyAll(program, both, {}, false,
                                         scheduler, nullptr),
                               false, batch);
    }
}

TEST(SchedulerEngine, ChosenLanesAreIdenticalAcrossJobs)
{
    // Verdict, failed condition, counterexample AND the lane credited
    // with each qubit agree between --jobs 1 and --jobs 4, with both
    // lanes and with lane A alone: the lane choice reads the cone, not
    // the schedule.
    std::vector<std::string> sources = adderMutantSources(12);
    for (const std::uint32_t n : {6u, 12u, 20u})
        sources.push_back(circuits::adderQbrSource(n));
    Rng rng(2121);
    for (int i = 0; i < 50; ++i)
        sources.push_back(circuits::randomQbrSource(rng));
    for (const EngineOptions &base :
         {EngineOptions::portfolioAB(),
          EngineOptions::singleLane(VerifierOptions::laneA())}) {
        EngineOptions serial = base;
        EngineOptions parallel = base;
        serial.jobs = 1;
        parallel.jobs = 4;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            const auto program = lang::elaborateSource(sources[i]);
            expectSameOutcomes(verifyAll(program, serial),
                               verifyAll(program, parallel), true,
                               qb::format("%zu lane(s), source %zu",
                                          base.lanes.size(), i));
        }
    }
}

/** Current thread count of this process, 0 if unknowable. */
std::size_t
threadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<std::size_t>(
                std::stoul(line.substr(8)));
    }
    return 0;
}

TEST(SchedulerEngine, NoThreadPerCondition)
{
    const std::size_t before = threadCount();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/status not available";
    // 11 qubits x 2 conditions = 22 condition solves; an engine
    // that spawned a thread per condition and lane would blow through
    // the bound.  The pool bound must hold at every observation
    // point.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(12));
    EngineOptions options = EngineOptions::portfolioAB();
    options.jobs = 2;
    std::size_t peak = 0;
    verifyAll(program, options, [&peak](const QubitResult &) {
        peak = std::max(peak, threadCount());
    });
    EXPECT_GT(peak, 0u);
    // jobs workers, plus one for a sanitizer's background thread
    // (TSan spawns one lazily).  22 per-condition threads would blow
    // straight through this.
    EXPECT_LE(peak, before + 2 + 1);
}

TEST(SchedulerEngine, SessionsShareOnePoolAcrossLifetimes)
{
    // Two disjoint borrow lifetimes = two sessions; the free verifyAll
    // must still bound threads by jobs, not jobs x sessions.
    const std::size_t before = threadCount();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/status not available";
    const auto program = lang::elaborateSource(R"(
        borrow@ q[4];
        borrow a;
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        release a;
        borrow b;
        CCNOT[q[1], q[3], b];
        CCNOT[b, q[2], q[4]];
        CCNOT[q[1], q[3], b];
        CCNOT[b, q[2], q[4]];
        release b;
    )");
    EngineOptions options = EngineOptions::portfolioAB();
    options.jobs = 2;
    std::size_t peak = 0;
    const ProgramResult result =
        verifyAll(program, options, [&peak](const QubitResult &) {
            peak = std::max(peak, threadCount());
        });
    ASSERT_EQ(2u, result.qubits.size());
    EXPECT_EQ(Verdict::Safe, result.qubits[0].verdict);
    EXPECT_EQ(Verdict::Safe, result.qubits[1].verdict);
    // jobs workers + sanitizer slack; NOT jobs x sessions.
    EXPECT_LE(peak, before + 2 + 1);
}

} // namespace
} // namespace qb::core
