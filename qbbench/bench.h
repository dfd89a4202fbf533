/**
 * @file
 * Shared pieces of the end-to-end benchmark: clocks and process
 * counters, percentiles, the generated inputs with their known
 * answers, the verdict oracle, the span tracer and the metric list a
 * workload returns.
 */
#ifndef QBBENCH_BENCH_H
#define QBBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/verifier.h"
#include "lang/elaborate.h"

namespace qbbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double since(Clock::time_point t0);
/** User + system CPU seconds of this process so far. */
double processCpuSeconds();
/** Peak resident set of this process, MiB. */
double peakRssMb();
/** Nearest-rank percentile @p p (0 < p <= 100) of @p samples. */
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/** How an input's expected verdicts are known without the SAT path. */
enum class Expect {
    AllSafe,    ///< paper family: safe by construction
    Mutant,     ///< one uncompute gate dropped: witnessed qubits unsafe
    BruteForce, ///< small random program: core::bruteForceVerdict
};

/** One generated program and its known answer. */
struct Input
{
    std::string name;
    std::string family;
    std::string source;
    Expect expect = Expect::AllSafe;
    /** Mutants: qubits for which classical simulation found a
     *  violating input before the run (they must come back unsafe). */
    std::vector<qb::ir::QubitId> witnessed;
};

/** FNV-1a digest of an input set (names and sources, in order). */
std::string digest(const std::vector<Input> &inputs);

/** One verified qubit as the program reported it. */
struct QubitOutcome
{
    qb::ir::QubitId qubit = 0;
    qb::core::Verdict verdict = qb::core::Verdict::Unknown;
    qb::core::FailedCondition failed = qb::core::FailedCondition::None;
    std::vector<bool> counterexample; ///< empty when none was given
};

std::vector<QubitOutcome> outcomesOf(const qb::core::ProgramResult &r);

/**
 * Known-answer checks, run after the timed phase.  Elaborations and
 * brute-force verdicts are computed once per input and cached.
 */
class Oracle
{
  public:
    explicit Oracle(const std::vector<Input> &inputs);

    /**
     * Check one request's outcome against input @p index's known
     * answer.  Every unsafe verdict's counterexample is replayed
     * through sim::ClassicalState on the qubit's borrow...release
     * slice.  @return empty when it matches, else why it does not.
     */
    std::string check(std::size_t index,
                      const std::vector<QubitOutcome> &outcome);

  private:
    struct Known
    {
        bool ready = false;
        qb::lang::ElaboratedProgram program;
        std::vector<qb::ir::QubitId> verified;
        std::map<qb::ir::QubitId, qb::core::Verdict> bruteForce;
    };
    const Known &known(std::size_t index);

    const std::vector<Input> &inputs_;
    std::vector<Known> known_;
};

/**
 * Does @p cex violate condition @p failed of Theorem 6.4 for qubit
 * @p q on @p scope?  (6.1): q starts at 0 and ends at 1.  (6.2):
 * running with q = 0 and q = 1 leaves some other wire different.
 */
bool replayViolates(const qb::ir::Circuit &scope, qb::ir::QubitId q,
                    qb::core::FailedCondition failed,
                    const std::vector<bool> &cex);

/** One traced call: name, interval, causing span and request. */
struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the tracer's origin
    double end = 0.0;
    int parent = -1;
    std::int64_t request = -1;
};

/**
 * In-memory span recorder around the program's public calls.  Spans
 * are kept until the run ends and written once, as Chrome trace-event
 * JSON.  A disabled tracer records nothing and costs one branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** Seconds since the tracer was created. */
    double now() const;
    /** @p t as seconds since the tracer was created. */
    double at(Clock::time_point t) const;
    /** Open a span; returns its index, or -1 when disabled. */
    int open(const std::string &name, std::int64_t request,
             int parent = -1);
    void close(int span);
    /** Record a span measured elsewhere (e.g. on another thread). */
    void record(const std::string &name, std::int64_t request,
                int parent, double start, double end);

    /** Self seconds per span name: each span's duration minus the
     *  time its direct children cover (children never overlap here). */
    std::map<std::string, double> selfSeconds() const;
    std::size_t size() const;
    void write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::string note; ///< printed beside the value (sample counts...)
};

/** What one workload run produced. */
struct RunResult
{
    std::vector<Metric> metrics;       ///< end-to-end or per-layer
    std::vector<std::string> extra;    ///< human-readable lines
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> errors;   ///< first few oracle mismatches
    std::string inputDigest;
    std::size_t inputCount = 0;
};

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir; ///< span file and the server socket go here
};

/** Latency percentiles with the sample count behind them. */
void addLatencyMetrics(RunResult &out, const std::vector<double> &ms);

RunResult runBatch(const RunConfig &config);
RunResult runServeMix(const RunConfig &config);

/** @name Seeded input sets (inputs.cc). @{ */
std::vector<Input> ladderJsonInputs(std::uint64_t seed);
std::vector<Input> ladderCliInputs(std::uint64_t seed);
std::vector<Input> adderRaceInputs(std::uint64_t seed);
/** @} */

} // namespace qbbench

#endif // QBBENCH_BENCH_H
