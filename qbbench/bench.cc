#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include <sys/resource.h>

#include "core/reference.h"
#include "sim/classical.h"
#include "support/strings.h"

namespace qbbench {

using qb::core::FailedCondition;
using qb::core::Verdict;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

void
addLatencyMetrics(RunResult &out, const std::vector<double> &ms)
{
    const std::size_t n = ms.size();
    const std::size_t beyond =
        n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
    out.metrics.push_back({"latency_p50_ms", "ms", percentile(ms, 50.0),
                           qb::format("n=%zu", n)});
    out.metrics.push_back(
        {"latency_p90_ms", "ms", percentile(ms, 90.0),
         qb::format("n=%zu, %zu beyond%s", n, beyond,
                    beyond < 10 ? " (TOO FEW: p90 not resolved)" : "")});
}

std::string
digest(const std::vector<Input> &inputs)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= 0xff;
        h *= 1099511628211ull;
    };
    for (const Input &in : inputs) {
        mix(in.name);
        mix(in.source);
    }
    return qb::format("%016llx", static_cast<unsigned long long>(h));
}

std::vector<QubitOutcome>
outcomesOf(const qb::core::ProgramResult &r)
{
    std::vector<QubitOutcome> out;
    out.reserve(r.qubits.size());
    for (const auto &q : r.qubits) {
        QubitOutcome o;
        o.qubit = q.qubit;
        o.verdict = q.verdict;
        o.failed = q.failed;
        if (q.counterexample)
            o.counterexample = *q.counterexample;
        out.push_back(std::move(o));
    }
    return out;
}

bool
replayViolates(const qb::ir::Circuit &scope, qb::ir::QubitId q,
               FailedCondition failed, const std::vector<bool> &cex)
{
    const std::uint32_t n = scope.numQubits();
    if (cex.size() != n || q >= n)
        return false;
    qb::sim::ClassicalState s0(n), s1(n);
    for (std::uint32_t k = 0; k < n; ++k) {
        s0.set(k, cex[k]);
        s1.set(k, cex[k]);
    }
    if (failed == FailedCondition::ZeroRestoration) {
        if (cex[q])
            return false;
        s0.applyCircuit(scope);
        return s0.get(q);
    }
    if (failed != FailedCondition::PlusRestoration)
        return false;
    s0.set(q, false);
    s1.set(q, true);
    s0.applyCircuit(scope);
    s1.applyCircuit(scope);
    for (std::uint32_t k = 0; k < n; ++k)
        if (k != q && s0.get(k) != s1.get(k))
            return true;
    return false;
}

Oracle::Oracle(const std::vector<Input> &inputs)
    : inputs_(inputs), known_(inputs.size())
{
}

const Oracle::Known &
Oracle::known(std::size_t index)
{
    Known &k = known_.at(index);
    if (k.ready)
        return k;
    const Input &in = inputs_[index];
    k.program = qb::lang::elaborateSource(in.source);
    k.verified = k.program.qubitsWithRole(qb::lang::QubitRole::BorrowVerify);
    if (in.expect == Expect::BruteForce) {
        for (qb::ir::QubitId q : k.verified) {
            const auto &info = k.program.qubits[q];
            k.bruteForce[q] = qb::core::bruteForceVerdict(
                k.program.circuit.slice(info.scopeBegin, info.scopeEnd),
                q);
        }
    }
    k.ready = true;
    return k;
}

std::string
Oracle::check(std::size_t index, const std::vector<QubitOutcome> &outcome)
{
    const Input &in = inputs_.at(index);
    const Known &k = known(index);
    std::set<qb::ir::QubitId> reported;
    for (const QubitOutcome &o : outcome)
        reported.insert(o.qubit);
    if (reported != std::set<qb::ir::QubitId>(k.verified.begin(),
                                              k.verified.end()))
        return qb::format("%s: %zu qubits reported, %zu verified",
                          in.name.c_str(), outcome.size(),
                          k.verified.size());
    for (const QubitOutcome &o : outcome) {
        const std::string who =
            in.name + " " + k.program.qubits[o.qubit].name;
        if (o.verdict == Verdict::Unsafe) {
            const auto &info = k.program.qubits[o.qubit];
            if (!replayViolates(k.program.circuit.slice(info.scopeBegin,
                                                        info.scopeEnd),
                                o.qubit, o.failed, o.counterexample))
                return who + ": counterexample does not replay";
        }
        switch (in.expect) {
          case Expect::AllSafe:
            if (o.verdict != Verdict::Safe)
                return who + ": expected safe, got " +
                       qb::core::verdictName(o.verdict);
            break;
          case Expect::Mutant:
            if (o.verdict != Verdict::Safe && o.verdict != Verdict::Unsafe)
                return who + ": undecided";
            if (std::count(in.witnessed.begin(), in.witnessed.end(),
                           o.qubit) > 0 &&
                o.verdict != Verdict::Unsafe)
                return who + ": simulation witness exists, got " +
                       qb::core::verdictName(o.verdict);
            break;
          case Expect::BruteForce:
            if (o.verdict != k.bruteForce.at(o.qubit))
                return who + ": brute force says " +
                       qb::core::verdictName(k.bruteForce.at(o.qubit)) +
                       ", got " + qb::core::verdictName(o.verdict);
            break;
        }
    }
    return {};
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double
Tracer::now() const
{
    return since(origin_);
}

double
Tracer::at(Clock::time_point t) const
{
    return std::chrono::duration<double>(t - origin_).count();
}

int
Tracer::open(const std::string &name, std::int64_t request, int parent)
{
    if (!enabled_)
        return -1;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, t, t, parent, request});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::close(int span)
{
    if (span < 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(span)].end = t;
}

void
Tracer::record(const std::string &name, std::int64_t request, int parent,
               double start, double end)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent, request});
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] += spans_[i].end - spans_[i].start;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write span file " + path);
    // Chrome trace-event format: opens in Perfetto / chrome://tracing.
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %d, "
                     "\"request\": %lld}}\n",
                     i == 0 ? "" : ",", qb::jsonEscape(s.name).c_str(),
                     static_cast<long long>(s.request), s.start * 1e6,
                     (s.end - s.start) * 1e6, i, s.parent,
                     static_cast<long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write span file " + path);
}

} // namespace qbbench
