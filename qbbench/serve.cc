/**
 * @file
 * serve_mix: an open loop against an in-process server::Server on a
 * Unix socket, through the line-JSON protocol only.
 *
 * Requests arrive on a seeded schedule at a fixed rate, whatever the
 * server's progress, over two client connections.  Each request's
 * latency runs from the time it was due to be sent to the time its
 * terminal frame arrived, so a stall also charges the requests queued
 * behind it.  The mix is fixed per rung (exact counts, seeded order):
 *
 *   74%  hot set: eight adders (23 to 34 dirty qubits) resubmitted
 *        over and over, so the result cache answers them by replaying
 *        every stored per-qubit frame and the report;
 *   20%  unique mid-size MCX ladders and adders: misses long enough
 *        to hold a request worker and put head-of-line pressure on
 *        the admission queue, yet light enough that the nominal rate
 *        stays far below the knee on a slowed host;
 *    6%  unique small random programs: misses whose cost is parse,
 *        elaboration and, mostly unsafe, the counterexample replay.
 *
 * The shares put p50 inside the hits and p90 at the median of the
 * mid-size misses, each well inside one mode of the latency density.  A percentile that falls between two modes swings with
 * every small shift; one that rests on sub-millisecond work swings
 * with the host's wake-up latency, so the hits replay programs with
 * dozens of qubits rather than one.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <ctime>
#include <thread>
#include <unordered_set>

#include <pthread.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.h"
#include "circuits/qbr_text.h"
#include "lang/parser.h"
#include "server/protocol.h"
#include "server/server.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qbbench {
namespace {

using qb::server::JsonValue;

constexpr unsigned kConnections = 2;
constexpr double kNominalRps = 200.0;
/** max_rps: the rate's latency_p90_ms must stay under this. */
constexpr double kLatencyLimitMs = 50.0;
constexpr std::int64_t kControlIds = 1000000000; ///< ping/stats ids
constexpr double kDrainTimeout = 30.0;
/** The sender spins, rather than sleeps, this close to a due time. */
constexpr std::chrono::microseconds kSpin{300};

/** One scheduled request of a rung. */
struct Scheduled
{
    double due = 0.0; ///< seconds after the rung starts
    std::size_t input = 0;
    int kind = 0; ///< 0 hot-set hit, 1 random miss, 2 mid-size miss
    std::string line; ///< the verify frame
    double sent = 0.0;
    double done = -1.0; ///< terminal frame arrival; -1 = none
    /** Terminal frame without its id, interned: the thousands of hits
     *  share a handful of texts, so the benchmark's own bookkeeping
     *  stays out of peak_rss_mb. */
    const std::string *frame = nullptr;
};

/** A batch of requests offered at one rate. */
struct Rung
{
    std::string label;
    double rate = 0.0;
    std::int64_t idBase = 0;
    std::vector<Scheduled> requests;
    Clock::time_point start;
    std::size_t completed = 0; ///< guarded by LoadClient::mutex_
    double elapsed = 0.0;      ///< start to last terminal frame
    double cpu = 0.0; ///< process CPU over the rung, load generator excluded
};

/** Interned frame texts (pointers into an unordered_set are stable). */
class FrameStore
{
  public:
    const std::string *intern(std::string text)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return &*texts_.insert(std::move(text)).first;
    }

  private:
    std::mutex mutex_;
    std::unordered_set<std::string> texts_; ///< guarded by mutex_
};

/** The load generator: a sender (the calling thread) and one reader
 *  thread per connection. */
class LoadClient
{
  public:
    LoadClient(const std::string &path, unsigned connections,
               FrameStore &frames)
        : frames_(frames)
    {
        prctl(PR_SET_TIMERSLACK, 1UL); // precise sleeps for the sender
        for (unsigned c = 0; c < connections; ++c) {
            const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd < 0)
                throw std::runtime_error("socket() failed");
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, path.c_str(),
                         sizeof(addr.sun_path) - 1);
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) != 0) {
                ::close(fd);
                throw std::runtime_error("cannot connect to " + path);
            }
            fds_.push_back(fd);
        }
        for (unsigned c = 0; c < connections; ++c)
            readers_.emplace_back([this, c] { readLoop(fds_[c]); });
    }

    ~LoadClient()
    {
        for (int fd : fds_)
            ::shutdown(fd, SHUT_RDWR);
        for (auto &t : readers_)
            t.join();
        for (int fd : fds_)
            ::close(fd);
    }

    LoadClient(const LoadClient &) = delete;
    LoadClient &operator=(const LoadClient &) = delete;

    /** Send a ping / stats op on connection 0 and await its answer. */
    JsonValue control(const char *op)
    {
        std::int64_t id = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            id = nextControl_++;
        }
        sendLine(0, qb::format("{\"op\": \"%s\", \"id\": %lld}", op,
                               static_cast<long long>(id)));
        std::unique_lock<std::mutex> lock(mutex_);
        if (!cv_.wait_for(lock, std::chrono::seconds(30), [&] {
                return replies_.count(id) > 0;
            }))
            throw std::runtime_error(std::string("no answer to ") + op);
        JsonValue reply = std::move(replies_[id]);
        replies_.erase(id);
        return reply;
    }

    /** Offer @p rung on schedule, then wait for every terminal frame
     *  (or the drain timeout). */
    void run(Rung &rung)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            rung_ = &rung;
            rung.completed = 0;
        }
        const double cpu0 = processCpuSeconds() - loadGeneratorCpu();
        rung.start = Clock::now();
        for (std::size_t i = 0; i < rung.requests.size(); ++i) {
            Scheduled &s = rung.requests[i];
            // Sleep to just short of the due time, then spin: a plain
            // sleep overshoots by a wake-up, which every latency of
            // the open loop would carry.
            const auto due =
                rung.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(s.due));
            std::this_thread::sleep_until(due - kSpin);
            while (Clock::now() < due) {
            }
            s.sent = since(rung.start);
            sendLine(i % fds_.size(), s.line);
        }
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::duration<double>(kDrainTimeout),
                     [&] { return rung.completed == rung.requests.size(); });
        rung.elapsed = 0.0;
        for (const Scheduled &s : rung.requests)
            rung.elapsed = std::max(rung.elapsed, s.done);
        rung.cpu = processCpuSeconds() - loadGeneratorCpu() - cpu0;
        rung_ = nullptr;
    }

    /** CPU seconds of this client's threads: the sender (the calling
     *  thread) and the readers. */
    double loadGeneratorCpu() const
    {
        auto cpu = [](clockid_t clock) {
            timespec ts{};
            clock_gettime(clock, &ts);
            return static_cast<double>(ts.tv_sec) +
                   static_cast<double>(ts.tv_nsec) * 1e-9;
        };
        double total = cpu(CLOCK_THREAD_CPUTIME_ID);
        for (const std::thread &t : readers_) {
            clockid_t clock{};
            if (pthread_getcpuclockid(
                    const_cast<std::thread &>(t).native_handle(), &clock) ==
                0)
                total += cpu(clock);
        }
        return total;
    }

  private:
    void sendLine(std::size_t conn, std::string line)
    {
        line += '\n';
        std::lock_guard<std::mutex> lock(writeMutex_);
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fds_[conn], line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("send to server failed");
            off += static_cast<std::size_t>(n);
        }
    }

    void readLoop(int fd)
    {
        std::string buffer;
        char chunk[65536];
        for (;;) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return;
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t start = 0, nl = 0;
            while ((nl = buffer.find('\n', start)) != std::string::npos) {
                onFrame(buffer.substr(start, nl - start), Clock::now());
                start = nl + 1;
            }
            buffer.erase(0, start);
        }
    }

    void onFrame(std::string line, Clock::time_point arrived)
    {
        // Only terminal and control frames matter; skip the rest
        // without parsing them.
        for (const char *skip : {"{\"type\": \"accepted\"",
                                 "{\"type\": \"qubit\""})
            if (line.rfind(skip, 0) == 0)
                return;
        JsonValue frame;
        try {
            frame = JsonValue::parse(line);
        } catch (const std::exception &) {
            return; // the request stays unanswered and counts as failed
        }
        const JsonValue *type = frame.find("type");
        const JsonValue *id = frame.find("id");
        if (type == nullptr || id == nullptr || id->isNull())
            return;
        const std::int64_t rid = id->asInt();
        std::lock_guard<std::mutex> lock(mutex_);
        if (rid >= kControlIds) {
            replies_[rid] = std::move(frame);
            cv_.notify_all();
            return;
        }
        if (type->asString() != "result" && type->asString() != "error")
            return; // accepted / per-qubit frames
        if (rung_ == nullptr || rid < rung_->idBase ||
            rid >= rung_->idBase +
                       static_cast<std::int64_t>(rung_->requests.size()))
            return; // a straggler of a rung that timed out
        Scheduled &s =
            rung_->requests[static_cast<std::size_t>(rid - rung_->idBase)];
        s.done = std::chrono::duration<double>(arrived - rung_->start)
                     .count();
        const std::size_t id_at = line.find("\"id\": ");
        const std::size_t id_end = line.find(", ", id_at);
        if (id_at != std::string::npos && id_end != std::string::npos)
            line.erase(id_at, id_end + 2 - id_at);
        s.frame = frames_.intern(std::move(line));
        if (++rung_->completed == rung_->requests.size())
            cv_.notify_all();
    }

    FrameStore &frames_;
    std::vector<int> fds_;
    std::vector<std::thread> readers_;
    std::mutex writeMutex_;
    std::mutex mutex_;
    std::condition_variable cv_;
    Rung *rung_ = nullptr; ///< guarded by mutex_
    std::map<std::int64_t, JsonValue> replies_; ///< guarded by mutex_
    std::int64_t nextControl_ = kControlIds;   ///< guarded by mutex_
};

/** The request mix and every program it has handed out. */
class Mix
{
  public:
    explicit Mix(std::uint64_t seed) : rng_(seed ^ 0x165667b1u)
    {
        std::vector<std::uint32_t> sizes;
        for (std::uint32_t n = 24; n <= 35; ++n)
            sizes.push_back(n);
        std::shuffle(sizes.begin(), sizes.end(), rng_);
        for (std::size_t i = 0; i < 8; ++i)
            hot_.push_back(add({qb::format("hot/adder/%u", sizes[i]),
                                "adder", qb::circuits::adderQbrSource(sizes[i]),
                                Expect::AllSafe, {}}));
    }

    const std::vector<Input> &inputs() const { return inputs_; }
    const std::vector<std::size_t> &hotSet() const { return hot_; }

    /**
     * @p count requests at @p rate: exponential gaps rescaled so the
     * rung spans exactly count / rate seconds, and exact shares of
     * each request kind in seeded order.
     */
    Rung rung(const std::string &label, double rate, std::size_t count,
              std::int64_t id_base)
    {
        Rung r;
        r.label = label;
        r.rate = rate;
        r.idBase = id_base;
        std::vector<double> gaps(count);
        double total = 0.0;
        for (double &g : gaps) {
            g = -std::log(1.0 - rng_.nextDouble());
            total += g;
        }
        std::vector<int> kinds(count, 0); // 0 hot, 1 random, 2 mid-size
        const auto randoms = static_cast<std::size_t>(0.06 * count);
        const auto mids = static_cast<std::size_t>(0.20 * count);
        std::fill(kinds.begin(), kinds.begin() + randoms, 1);
        std::fill(kinds.begin() + randoms, kinds.begin() + randoms + mids, 2);
        std::shuffle(kinds.begin(), kinds.end(), rng_);
        double due = 0.0;
        for (std::size_t i = 0; i < count; ++i) {
            Scheduled s;
            due += gaps[i] / total * static_cast<double>(count) / rate;
            s.due = due;
            s.kind = kinds[i];
            s.input = kinds[i] == 0 ? hot_[rng_.nextBelow(hot_.size())]
                      : kinds[i] == 1 ? freshRandom()
                                      : freshMidSize();
            s.line = verifyFrame(s.input,
                                 id_base + static_cast<std::int64_t>(i));
            r.requests.push_back(std::move(s));
        }
        return r;
    }

    /** Every hot program once, back to back. */
    Rung hotPass(std::int64_t id_base) const
    {
        Rung r;
        r.label = "warm-up";
        r.idBase = id_base;
        for (std::size_t i = 0; i < hot_.size(); ++i) {
            Scheduled s;
            s.input = hot_[i];
            s.line = verifyFrame(s.input,
                                 id_base + static_cast<std::int64_t>(i));
            r.requests.push_back(std::move(s));
        }
        return r;
    }

  private:
    std::string verifyFrame(std::size_t input, std::int64_t id) const
    {
        const Input &in = inputs_[input];
        return qb::format("{\"op\": \"verify\", \"id\": %lld, "
                          "\"name\": \"%s\", \"source\": \"%s\"}",
                          static_cast<long long>(id),
                          qb::jsonEscape(in.name).c_str(),
                          qb::jsonEscape(in.source).c_str());
    }

    std::size_t add(Input in)
    {
        inputs_.push_back(std::move(in));
        return inputs_.size() - 1;
    }

    /** A tag comment makes every miss a distinct source, so neither
     *  serving cache can answer it. */
    std::string tag() { return qb::format("// miss %zu\n", inputs_.size()); }

    std::size_t freshRandom()
    {
        return add({qb::format("random/%zu", inputs_.size()), "random",
                    tag() + qb::circuits::randomQbrSource(rng_),
                    Expect::BruteForce, {}});
    }

    std::size_t freshMidSize()
    {
        if (rng_.nextBool()) {
            const auto m = static_cast<std::uint32_t>(64 + rng_.nextBelow(13));
            return add({qb::format("mcx/%u", m), "mcx",
                        tag() + qb::circuits::mcxQbrSource(m),
                        Expect::AllSafe, {}});
        }
        const auto n = static_cast<std::uint32_t>(9 + rng_.nextBelow(2));
        return add({qb::format("adder/%u", n), "adder",
                    tag() + qb::circuits::adderQbrSource(n),
                    Expect::AllSafe, {}});
    }

    qb::Rng rng_;
    std::vector<Input> inputs_;
    std::vector<std::size_t> hot_;
};

struct ServerUnderTest
{
    std::unique_ptr<qb::server::Server> server;
    std::unique_ptr<LoadClient> client;

    /** Disconnect the clients first, then drain and stop the server. */
    void stop()
    {
        client.reset();
        server.reset();
    }
};

ServerUnderTest
startServer(const std::string &path, FrameStore &frames)
{
    qb::server::ServerOptions options;
    options.socketPath = path;
    options.concurrency = 2;
    options.jobs = 2;
    ServerUnderTest s;
    s.server = std::make_unique<qb::server::Server>(options);
    s.server->start();
    s.client = std::make_unique<LoadClient>(path, kConnections, frames);
    const JsonValue pong = s.client->control("ping");
    if (pong.find("type") == nullptr ||
        pong.find("type")->asString() != "pong")
        throw std::runtime_error("server did not answer ping");
    return s;
}

std::vector<double>
latenciesMs(const Rung &r)
{
    std::vector<double> out;
    for (const Scheduled &s : r.requests)
        if (s.done >= 0.0)
            out.push_back((s.done - s.due) * 1e3);
    return out;
}

std::size_t
refusals(const Rung &r)
{
    std::size_t n = 0;
    for (const Scheduled &s : r.requests)
        n += s.frame != nullptr &&
             s.frame->find("\"type\": \"error\"") != std::string::npos;
    return n;
}

double
lagP90Ms(const Rung &r)
{
    std::vector<double> lag;
    for (const Scheduled &s : r.requests)
        lag.push_back((s.sent - s.due) * 1e3);
    return percentile(lag, 90.0);
}

/** Meets the latency limit with no refusals and no growing backlog
 *  (the last quarter's median latency within 2x the first's). */
bool
sustained(const Rung &r)
{
    const auto lat = latenciesMs(r);
    if (lat.size() != r.requests.size() || refusals(r) > 0 ||
        percentile(lat, 90.0) > kLatencyLimitMs)
        return false;
    const std::size_t q = lat.size() / 4;
    const std::vector<double> first(lat.begin(), lat.begin() + q),
        last(lat.end() - q, lat.end());
    return median(last) <= 2.0 * std::max(median(first), 1.0);
}

/** Server counters from a stats frame. */
struct Counters
{
    double verifies = 0, resultHits = 0, programHits = 0,
           programMisses = 0, warm = 0, rejected = 0, errors = 0;
};

Counters
countersOf(const JsonValue &stats)
{
    auto num = [&stats](std::initializer_list<const char *> path) {
        const JsonValue *v = &stats;
        for (const char *key : path)
            if (v != nullptr)
                v = v->find(key);
        return v == nullptr ? 0.0 : v->asNumber();
    };
    Counters c;
    c.verifies = num({"ops", "verify"});
    c.resultHits = num({"caches", "result", "hits"});
    c.programHits = num({"caches", "program", "hits"});
    c.programMisses = num({"caches", "program", "misses"});
    c.warm = num({"caches", "warm_verifies"});
    c.rejected = num({"counters", "rejected"});
    c.errors = num({"counters", "errors"});
    return c;
}

std::vector<QubitOutcome>
outcomesOf(const JsonValue &report)
{
    std::vector<QubitOutcome> out;
    const JsonValue *qubits = report.find("qubits");
    if (qubits == nullptr)
        return out;
    for (const JsonValue &q : qubits->items()) {
        QubitOutcome o;
        o.qubit = static_cast<qb::ir::QubitId>(q.find("qubit")->asInt());
        const std::string verdict = q.find("verdict")->asString();
        o.verdict = verdict == "safe"     ? qb::core::Verdict::Safe
                    : verdict == "unsafe" ? qb::core::Verdict::Unsafe
                                          : qb::core::Verdict::Unknown;
        const std::string failed = q.find("failed_condition")->asString();
        o.failed = failed == "zero-restoration"
                       ? qb::core::FailedCondition::ZeroRestoration
                   : failed == "plus-restoration"
                       ? qb::core::FailedCondition::PlusRestoration
                       : qb::core::FailedCondition::None;
        const JsonValue *cex = q.find("counterexample");
        if (cex != nullptr && !cex->isNull())
            for (const JsonValue &bit : cex->items())
                o.counterexample.push_back(bit.asInt() != 0);
        out.push_back(std::move(o));
    }
    return out;
}

} // namespace

RunResult
runServeMix(const RunConfig &config)
{
    RunResult out;
    Mix mix(config.seed);
    const std::string path =
        config.outDir + qb::format("/serve-%d.sock", static_cast<int>(getpid()));

    // Set-up, repeated: Server construction + start() + connecting +
    // one ping round trip.  The last instance serves the run.
    constexpr int kSetupReps = 11;
    std::vector<double> setup;
    FrameStore frames;
    ServerUnderTest sut;
    for (int i = 0; i < kSetupReps; ++i) {
        sut.stop();
        const auto t0 = Clock::now();
        sut = startServer(path, frames);
        setup.push_back(since(t0));
    }
    LoadClient &client = *sut.client;

    Tracer tracer(config.trace);
    std::int64_t next_id = 0;
    std::vector<Rung> rungs;
    auto offer = [&](Rung rung) {
        next_id += static_cast<std::int64_t>(rung.requests.size());
        rungs.push_back(std::move(rung));
        client.run(rungs.back());
        return rungs.size() - 1;
    };
    auto at = [&](const std::string &label, double rate, double seconds) {
        const auto count = static_cast<std::size_t>(rate * seconds);
        return offer(
            mix.rung(label, rate, std::max<std::size_t>(count, 20), next_id));
    };
    // Untimed warm-up fills the result cache with the hot set.
    offer(mix.hotPass(next_id));

    const double s = config.seconds;
    std::size_t nominal = 0, traced = 0;
    std::vector<std::size_t> search;
    Counters before, after;
    std::vector<std::pair<std::string, double>> ladder_p90;
    double peak_rss_mb = 0.0;
    if (!config.trace) {
        nominal = at("nominal", kNominalRps, 0.75 * s);
        // Before the search: its rungs overload the server, and how
        // many of them run depends on the host's speed.
        peak_rss_mb = peakRssMb();
        // max_rps: raise the offered rate by 1.5x per step until a
        // step misses the limit, refuses, or builds a backlog.
        for (double rate = 1.5 * kNominalRps; search.size() < 6;
             rate *= 1.5) {
            const double step = std::max(0.5, 0.25 * s / 6);
            search.push_back(at(qb::format("search %.0f/s", rate), rate,
                                   step));
            if (!sustained(rungs[search.back()]))
                break;
        }
    } else {
        nominal = at("nominal (untraced)", kNominalRps, 0.3 * s);
        before = countersOf(client.control("stats"));
        traced = at("nominal (traced)", kNominalRps, 0.3 * s);
        after = countersOf(client.control("stats"));
        const std::size_t low = at("r0", 0.5 * kNominalRps, 0.2 * s);
        // 1.5x stays clear of the knee (max_rps is several times the
        // nominal rate), so the rung measures load, not refusals.
        const std::size_t high = at("r2", 1.5 * kNominalRps, 0.2 * s);
        ladder_p90 = {{"loadgen.r0.latency_p90_ms", percentile(latenciesMs(rungs[low]), 90)},
                      {"loadgen.r1.latency_p90_ms", percentile(latenciesMs(rungs[traced]), 90)},
                      {"loadgen.r2.latency_p90_ms", percentile(latenciesMs(rungs[high]), 90)}};
    }
    const Counters final_counters = countersOf(client.control("stats"));
    sut.stop();

    // Known-answer checks over every request of every rung.  Refusals
    // while searching for max_rps are the search's probe, not errors.
    Oracle oracle(mix.inputs());
    std::size_t search_refusals = 0;
    for (std::size_t k = 0; k < rungs.size(); ++k) {
        const bool probing =
            std::find(search.begin(), search.end(), k) != search.end();
        for (const Scheduled &r : rungs[k].requests) {
            std::string why;
            const Input &in = mix.inputs()[r.input];
            if (r.done < 0.0) {
                why = in.name + ": no answer within the drain timeout";
            } else {
                const JsonValue frame = JsonValue::parse(*r.frame);
                const JsonValue *report = frame.find("report");
                if (probing &&
                    r.frame->find("queue full") != std::string::npos) {
                    ++search_refusals;
                    continue;
                }
                if (report == nullptr)
                    why = in.name + ": " + *r.frame;
                else
                    why = oracle.check(r.input, outcomesOf(*report));
            }
            ++out.attempted;
            if (!why.empty()) {
                ++out.failed;
                if (out.errors.size() < 5)
                    out.errors.push_back(why);
            }
        }
    }
    out.inputDigest = digest(mix.inputs());
    out.inputCount = mix.inputs().size();
    for (const Rung &r : rungs) {
        const auto lat = latenciesMs(r);
        std::string kinds;
        for (int kind = 0; kind < 4; ++kind) {
            std::vector<double> k;
            for (const Scheduled &q : r.requests)
                if (q.done >= 0.0 &&
                    (kind < 2 ? q.kind == kind
                              : q.kind == 2 &&
                                    (mix.inputs()[q.input].family == "mcx") ==
                                        (kind == 2)))
                    k.push_back((q.done - q.due) * 1e3);
            kinds += qb::format("  %s p50/p90 %.3f/%.3f",
                                kind == 0   ? "hit"
                                : kind == 1 ? "random"
                                : kind == 2 ? "mid-mcx"
                                            : "mid-adder",
                                percentile(k, 50), percentile(k, 90));
        }
        out.extra.push_back(qb::format(
            "rung %-20s offered %6.0f/s  n=%5zu  p50 %8.3f ms  p90 %8.3f ms"
            "  lag p90 %7.3f ms  refused %zu;%s",
            r.label.c_str(), r.rate, r.requests.size(),
            percentile(lat, 50), percentile(lat, 90), lagP90Ms(r),
            refusals(r), kinds.c_str()));
    }

    const Rung &nom = rungs[nominal];
    if (!config.trace) {
        double max_rps = sustained(nom) ? nom.rate : 0.0;
        for (std::size_t k : search)
            if (sustained(rungs[k]))
                max_rps = rungs[k].rate;
        out.metrics.push_back({"setup_s", "s", median(setup),
                               qb::format("median of %d", kSetupReps)});
        out.metrics.push_back(
            {"programs_per_s", "1/s",
             static_cast<double>(nom.completed) / nom.elapsed,
             qb::format("at a nominal %.0f/s, %zu requests", nom.rate,
                        nom.requests.size())});
        addLatencyMetrics(out, latenciesMs(nom));
        out.metrics.push_back(
            {"cpu_s", "s", nom.cpu,
             "process CPU over the nominal-rate rung, load generator "
             "threads excluded"});
        out.metrics.push_back({"peak_rss_mb", "MiB", peak_rss_mb,
                               "after the nominal rung, before the "
                               "max_rps search"});
        out.metrics.push_back(
            {"error_rate", "ratio",
             static_cast<double>(out.failed) /
                 static_cast<double>(out.attempted),
             qb::format("%lld of %lld", static_cast<long long>(out.failed),
                        static_cast<long long>(out.attempted))});
        out.metrics.push_back(
            {"max_rps", "1/s", max_rps,
             qb::format("highest offered rate with p90 <= %.0f ms, no "
                        "refusal, no growing backlog; %zu search refusals",
                        kLatencyLimitMs, search_refusals)});
        return out;
    }

    // Per-layer metrics of the traced nominal rung, per request.
    const Rung &tr = rungs[traced];
    const double rung_at = tracer.at(tr.start);
    const double n = static_cast<double>(tr.requests.size());
    double build = 0, encode = 0, solve = 0, conflicts = 0,
           nodes = 0, vars = 0, clauses = 0, structural = 0, unsafe = 0,
           discharged = 0, affine = 0, conditions = 0, verify = 0,
           learnt = 0, arena = 0, gc = 0, parse = 0, elab = 0, request = 0;
    std::vector<double> overhead;
    for (std::size_t i = 0; i < tr.requests.size(); ++i) {
        const Scheduled &r = tr.requests[i];
        const auto id = tr.idBase + static_cast<std::int64_t>(i);
        if (r.done < 0.0)
            continue;
        tracer.record("server.request", id, -1, rung_at + r.sent,
                      rung_at + r.done);
        request += (r.done - r.due) * 1e3;
        if (r.kind == 0)
            continue;
        const JsonValue frame = JsonValue::parse(*r.frame);
        const JsonValue *report = frame.find("report");
        if (report == nullptr)
            continue;
        const double total = report->find("total_seconds")->asNumber();
        verify += total * 1e3;
        overhead.push_back((r.done - r.sent - total) * 1e3);
        const JsonValue *analysis = report->find("analysis");
        discharged += analysis->find("analysis_discharged")->asNumber();
        affine += analysis->find("affine")->asNumber();
        const JsonValue *solver = report->find("solver");
        learnt += solver->find("peak_learnts")->asNumber();
        arena += solver->find("arena_peak_words")->asNumber() / 1e3;
        gc += solver->find("gc_runs")->asNumber();
        for (const JsonValue &q : report->find("qubits")->items()) {
            conditions += 2;
            build += q.find("build_seconds")->asNumber() * 1e3;
            encode += q.find("encode_seconds")->asNumber() * 1e3;
            solve += q.find("solve_seconds")->asNumber() * 1e3;
            conflicts += q.find("conflicts")->asNumber();
            nodes += q.find("formula_nodes")->asNumber();
            vars += q.find("cnf_vars")->asNumber();
            clauses += q.find("cnf_clauses")->asNumber();
            structural += q.find("solved_structurally")->asBool() ? 1 : 0;
            unsafe += q.find("verdict")->asString() == "unsafe" ? 1 : 0;
        }
        // The server parses and elaborates inside its workers, out of
        // the benchmark's reach: replay the same calls on the same
        // source to attribute lang.* time (a span per call).
        const std::string &source = mix.inputs()[r.input].source;
        double t = tracer.now();
        const auto ast = qb::lang::parse(source);
        double t2 = tracer.now();
        tracer.record("lang.parse (replay)", id, -1, t, t2);
        parse += (t2 - t) * 1e3;
        qb::lang::elaborate(ast);
        t = tracer.now();
        tracer.record("lang.elaborate (replay)", id, -1, t2, t);
        elab += (t - t2) * 1e3;
    }
    // Share of verify requests the result cache answered.  (The
    // cache's own miss counter counts lookups: a computed request
    // looks up twice, before and after its single-flight wait.)
    const double hits = after.resultHits - before.resultHits;
    const double verifies = after.verifies - before.verifies;
    const double phits = after.programHits - before.programHits;
    const double pmisses = after.programMisses - before.programMisses;
    auto &m = out.metrics;
    m.push_back({"analysis.lint_ms", "ms", 0.0, "the server does not lint"});
    m.push_back({"analysis.lint_diagnostics", "count", 0.0,
                 "the server does not lint"});
    m.push_back({"core.verify_ms", "ms", verify / n, "report total_seconds"});
    m.push_back({"core.build_ms", "ms", build / n, ""});
    m.push_back({"core.unattributed_ms", "ms", 0.0,
                 "not defined with jobs > 1"});
    m.push_back({"analysis.discharged", "count", discharged / n, ""});
    m.push_back({"analysis.discharged_affine", "count", affine / n, ""});
    m.push_back({"analysis.discharge_ratio", "ratio",
                 conditions > 0 ? discharged / conditions : 0.0, ""});
    m.push_back({"core.structural", "count", structural / n, ""});
    m.push_back({"boolexpr.formula_nodes", "count", nodes / n, ""});
    m.push_back({"sat.encode_ms", "ms", encode / n, ""});
    m.push_back({"sat.cnf_vars", "count", vars / n, ""});
    m.push_back({"sat.cnf_clauses", "count", clauses / n, ""});
    m.push_back({"sat.solve_ms", "lane-ms", solve / n, ""});
    m.push_back({"sat.conflicts", "count", conflicts / n, ""});
    m.push_back({"sat.learnt_peak", "count", learnt / n, ""});
    m.push_back({"sat.arena_peak_kw", "kword", arena / n, ""});
    m.push_back({"sat.gc_runs", "count", gc / n, ""});
    m.push_back({"core.parallelism", "ratio", 0.0,
                 "the server's CPU in verifyAll is out of the client's "
                 "reach"});
    m.push_back({"core.unsafe_verdicts", "count", unsafe / n,
                 "fresh verdicts only (hits replay theirs)"});
    m.push_back({"lang.parse_ms", "ms", parse / n, "replayed on the client"});
    m.push_back({"lang.elaborate_ms", "ms", elab / n,
                 "replayed on the client"});
    m.push_back({"serving.result_hit_rate", "ratio",
                 verifies > 0 ? hits / verifies : 0.0, ""});
    m.push_back({"serving.program_hit_rate", "ratio",
                 phits + pmisses > 0 ? phits / (phits + pmisses) : 0.0, ""});
    m.push_back({"serving.warm_verifies", "count", after.warm - before.warm,
                 "during the traced rung"});
    m.push_back({"server.overhead_ms", "ms", median(overhead),
                 "median over misses of round trip - report total_seconds"});
    m.push_back({"server.rejected", "count", final_counters.rejected, ""});
    m.push_back({"server.errors", "count", final_counters.errors, ""});
    m.push_back({"loadgen.lag_p90_ms", "ms", lagP90Ms(tr), ""});
    for (const auto &[name, value] : ladder_p90)
        m.push_back({name, "ms", value, ""});
    m.push_back({"client.request_ms", "ms", request / n, ""});
    m.push_back({"trace.overhead_ratio", "ratio",
                 median(latenciesMs(tr)) / median(latenciesMs(nom)),
                 "p50 traced / untraced nominal rung"});
    for (const auto &[name, secs] : tracer.selfSeconds())
        out.extra.push_back(qb::format("span %-24s %9.3f ms/request", name.c_str(),
                                       secs * 1e3 / n));
    const std::string span_file = config.outDir + "/spans-serve_mix.json";
    tracer.write(span_file);
    out.extra.push_back("span file: " + span_file);
    return out;
}

} // namespace qbbench
