/**
 * @file
 * The closed-loop workloads: one client verifies the workload's
 * seeded input set pass after pass, each request through the same
 * public calls a `qborrow` invocation makes.
 *
 *   ladder_json  parse -> elaborate -> verifyAll -> toJson  (qborrow --json)
 *   ladder_cli   lintSource -> parse -> elaborate -> verifyAll with a
 *                streaming observer                        (qborrow)
 *   adder_race   as ladder_json, lanes A and B raced on two workers
 *
 * parse then elaborate is what lang::elaborateSource does; calling the
 * two lets the traced run time each.
 */
#include <memory>
#include <stdexcept>
#include <utility>

#include "analysis/lint.h"
#include "bench.h"
#include "core/engine.h"
#include "core/report.h"
#include "lang/parser.h"
#include "server/protocol.h"
#include "support/strings.h"

namespace qbbench {
namespace {

struct BatchWorkload
{
    std::vector<Input> inputs;
    qb::core::EngineOptions options;
    bool lint = false; ///< lint first and stream results (interactive)
};

BatchWorkload
workloadFor(const RunConfig &config)
{
    BatchWorkload w;
    if (config.workload == "ladder_json") {
        w.inputs = ladderJsonInputs(config.seed);
    } else if (config.workload == "ladder_cli") {
        w.inputs = ladderCliInputs(config.seed);
        w.lint = true;
    } else if (config.workload == "adder_race") {
        w.inputs = adderRaceInputs(config.seed);
        w.options = qb::core::EngineOptions::portfolioAB();
        w.options.jobs = 2;
    } else {
        throw std::invalid_argument("unknown workload " + config.workload);
    }
    if (w.options.jobs == 0)
        w.options.jobs = 1;
    return w;
}

/** One request's observations. */
struct Request
{
    std::size_t input = 0;
    bool traced = false;
    double ms = 0.0;
    std::vector<QubitOutcome> outcome;
    std::string report; ///< toJson output (JSON workloads)
    std::size_t streamed = 0;
    std::string error;
    /** @name Fields of the returned structs (traced requests). @{ */
    double lintMs = 0.0, parseMs = 0.0, elaborateMs = 0.0,
           verifyMs = 0.0, verifyCpuMs = 0.0;
    double diagnostics = 0.0;
    qb::core::ProgramResult result;
    /** @} */
};

double
ms(Clock::time_point t0)
{
    return since(t0) * 1e3;
}

} // namespace

RunResult
runBatch(const RunConfig &config)
{
    BatchWorkload w = workloadFor(config);
    RunResult out;
    out.inputDigest = digest(w.inputs);
    out.inputCount = w.inputs.size();

    // Set-up is the scheduler pool's construction.  One construction
    // takes a few microseconds, and the host's speed phases, which last
    // seconds, move that by a third: a burst of constructions at the
    // start lands in one phase.  So the benchmark also times a scratch
    // pool's construction after every request of the timed phase and
    // reports the median, whose samples span the run as the throughput
    // does.  The scratch pool's destruction is not timed.
    std::vector<double> setup;
    auto t_setup = Clock::now();
    auto pool = std::make_shared<qb::core::Scheduler>(w.options.jobs);
    setup.push_back(since(t_setup));
    auto sampleSetup = [&] {
        const auto t = Clock::now();
        const qb::core::Scheduler scratch(w.options.jobs);
        setup.push_back(since(t));
    };

    Tracer tracer(config.trace);
    std::vector<Request> requests;
    auto serve = [&](std::size_t index, bool traced) {
        const Input &in = w.inputs[index];
        Request r;
        r.input = index;
        r.traced = traced;
        const auto id = static_cast<std::int64_t>(requests.size());
        const auto t0 = Clock::now();
        const int root = traced ? tracer.open("request", id) : -1;
        auto child = [&](const char *name) {
            return traced ? tracer.open(name, id, root) : -1;
        };
        try {
            if (w.lint) {
                const auto t = Clock::now();
                const int s = child("analysis.lintSource");
                const auto lint = qb::analysis::lintSource(in.source);
                tracer.close(s);
                r.lintMs = ms(t);
                r.diagnostics = static_cast<double>(lint.diagnostics.size());
            }
            auto t = Clock::now();
            int s = child("lang.parse");
            const auto ast = qb::lang::parse(in.source);
            tracer.close(s);
            r.parseMs = ms(t);
            t = Clock::now();
            s = child("lang.elaborate");
            const qb::lang::ElaboratedProgram program =
                qb::lang::elaborate(ast);
            tracer.close(s);
            r.elaborateMs = ms(t);
            qb::core::ResultObserver observer;
            std::string stream;
            if (w.lint)
                observer = [&](const qb::core::QubitResult &q) {
                    stream += q.name + ": " +
                              qb::core::verdictName(q.verdict) + "\n";
                    ++r.streamed;
                };
            const double cpu0 = traced ? processCpuSeconds() : 0.0;
            const auto tv = Clock::now();
            const int sv = child("core.verifyAll");
            qb::core::ProgramResult result = qb::core::verifyAll(
                program, w.options, observer, false, pool, nullptr);
            tracer.close(sv);
            r.verifyMs = ms(tv);
            if (traced)
                r.verifyCpuMs = (processCpuSeconds() - cpu0) * 1e3;
            if (!w.lint) {
                const int sj = child("core.toJson");
                r.report = qb::core::toJson(result, in.name);
                tracer.close(sj);
            }
            r.outcome = outcomesOf(result);
            if (traced)
                r.result = std::move(result);
        } catch (const std::exception &e) {
            r.error = in.name + ": " + e.what();
        }
        tracer.close(root);
        r.ms = ms(t0);
        requests.push_back(std::move(r));
    };

    // Warm-up: first touches of the allocator and the pool, untimed.
    for (std::size_t i = 0; i < std::min<std::size_t>(4, w.inputs.size());
         ++i)
        serve(i, false);
    requests.clear();

    // Timed phase: whole passes over the input set, as many as fit in
    // --seconds, and at least enough for p90 to rest on 100 samples.
    // A traced run alternates untraced and traced passes, so the two
    // halves see the same programs and their ratio is the tracing
    // overhead.
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    std::vector<double> passSeconds[2];
    int passes = 0;
    for (;;) {
        const bool traced = config.trace && passes % 2 == 1;
        const auto tp = Clock::now();
        for (std::size_t i = 0; i < w.inputs.size(); ++i) {
            serve(i, traced);
            sampleSetup();
        }
        passSeconds[traced ? 1 : 0].push_back(since(tp));
        ++passes;
        const bool enough =
            since(t0) + since(tp) > config.seconds &&
            requests.size() >= 100 * (config.trace ? 2 : 1);
        if (enough && (!config.trace || passes % 2 == 0))
            break;
    }
    const double elapsed = since(t0);
    const double cpu = processCpuSeconds() - cpu0;

    // Known-answer checks, after the timed phase.
    Oracle oracle(w.inputs);
    for (const Request &r : requests) {
        ++out.attempted;
        std::string why = r.error;
        if (why.empty())
            why = oracle.check(r.input, r.outcome);
        if (why.empty() && !r.report.empty()) {
            const auto doc = qb::server::JsonValue::parse(r.report);
            const auto *all_safe = doc.find("all_safe");
            bool safe = true;
            for (const auto &o : r.outcome)
                safe = safe && o.verdict == qb::core::Verdict::Safe;
            if (all_safe == nullptr || all_safe->asBool() != safe)
                why = w.inputs[r.input].name + ": JSON report disagrees";
        }
        if (why.empty() && w.lint && r.streamed != r.outcome.size())
            why = w.inputs[r.input].name + ": observer missed results";
        if (!why.empty()) {
            ++out.failed;
            if (out.errors.size() < 5)
                out.errors.push_back(why);
        }
    }

    if (!config.trace) {
        std::vector<double> latencies;
        for (const Request &r : requests)
            latencies.push_back(r.ms);
        out.metrics.push_back(
            {"setup_s", "s", median(setup),
             qb::format("median of %zu constructions", setup.size())});
        // Throughput and CPU average over the whole run rather than
        // take a median of passes: the host's speed drifts between
        // phases lasting tens of seconds, and a median snaps to
        // whichever phase held most passes.
        out.metrics.push_back(
            {"programs_per_s", "1/s",
             static_cast<double>(requests.size()) / elapsed,
             qb::format("%d passes of %zu programs", passes,
                        w.inputs.size())});
        addLatencyMetrics(out, latencies);
        out.metrics.push_back({"cpu_s", "s", cpu / passes,
                               "process CPU per pass over the input set"});
        out.metrics.push_back({"peak_rss_mb", "MiB", peakRssMb(), ""});
        out.metrics.push_back(
            {"error_rate", "ratio",
             static_cast<double>(out.failed) /
                 static_cast<double>(out.attempted),
             qb::format("%lld of %lld", static_cast<long long>(out.failed),
                        static_cast<long long>(out.attempted))});
        return out;
    }

    // Per-layer metrics: means per program over the traced passes.
    double n = 0, lint = 0, diags = 0, verify = 0, verifyCpu = 0, build = 0,
           encode = 0, solve = 0, discharged = 0, affine = 0, conditions = 0,
           structural = 0, nodes = 0, vars = 0, clauses = 0, conflicts = 0,
           learnt = 0, arena = 0, gc = 0, unsafe = 0, parse = 0, elab = 0;
    for (const Request &r : requests) {
        if (!r.traced)
            continue;
        n += 1;
        lint += r.lintMs;
        diags += r.diagnostics;
        verify += r.verifyMs;
        verifyCpu += r.verifyCpuMs;
        parse += r.parseMs;
        elab += r.elaborateMs;
        const auto &res = r.result;
        discharged += static_cast<double>(res.analysisTotals.discharged);
        affine += static_cast<double>(res.analysisTotals.affine);
        learnt += static_cast<double>(res.solverTotals.peakLearnts);
        arena += static_cast<double>(res.solverTotals.arenaPeakWords) / 1e3;
        gc += static_cast<double>(res.solverTotals.gcRuns);
        for (const auto &q : res.qubits) {
            conditions += 2; // (6.1) and (6.2)
            build += q.buildSeconds * 1e3;
            encode += q.encodeSeconds * 1e3;
            solve += q.solveSeconds * 1e3;
            structural += q.solvedStructurally ? 1 : 0;
            nodes += static_cast<double>(q.formulaNodes);
            vars += static_cast<double>(q.cnfVars);
            clauses += static_cast<double>(q.cnfClauses);
            conflicts += static_cast<double>(q.conflicts);
            unsafe += q.verdict == qb::core::Verdict::Unsafe ? 1 : 0;
        }
    }
    const bool serial = w.options.jobs == 1;
    auto per = [n](double total) { return total / n; };
    auto &m = out.metrics;
    m.push_back({"analysis.lint_ms", "ms", per(lint), ""});
    m.push_back({"analysis.lint_diagnostics", "count", per(diags), ""});
    m.push_back({"core.verify_ms", "ms", per(verify), ""});
    m.push_back({"core.build_ms", "ms", per(build), ""});
    m.push_back({"core.unattributed_ms", "ms",
                 serial ? per(verify - build - encode - solve) : 0.0,
                 serial ? "" : "not defined with jobs > 1"});
    m.push_back({"analysis.discharged", "count", per(discharged), ""});
    m.push_back({"analysis.discharged_affine", "count", per(affine), ""});
    m.push_back({"analysis.discharge_ratio", "ratio",
                 conditions > 0 ? discharged / conditions : 0.0, ""});
    m.push_back({"core.structural", "count", per(structural), ""});
    m.push_back({"boolexpr.formula_nodes", "count", per(nodes), ""});
    m.push_back({"sat.encode_ms", "ms", per(encode), ""});
    m.push_back({"sat.cnf_vars", "count", per(vars), ""});
    m.push_back({"sat.cnf_clauses", "count", per(clauses), ""});
    m.push_back({"sat.solve_ms", "lane-ms", per(solve),
                 "summed over racing lanes; may exceed wall time"});
    m.push_back({"sat.conflicts", "count", per(conflicts), ""});
    m.push_back({"sat.learnt_peak", "count", per(learnt), ""});
    m.push_back({"sat.arena_peak_kw", "kword", per(arena), ""});
    m.push_back({"sat.gc_runs", "count", per(gc), ""});
    m.push_back({"core.parallelism", "ratio",
                 verify > 0 ? verifyCpu / verify : 0.0,
                 "process CPU / wall inside verifyAll"});
    m.push_back({"core.unsafe_verdicts", "count", per(unsafe), ""});
    m.push_back({"lang.parse_ms", "ms", per(parse), ""});
    m.push_back({"lang.elaborate_ms", "ms", per(elab), ""});
    const double overhead =
        median(passSeconds[1]) / median(passSeconds[0]);
    m.push_back({"trace.overhead_ratio", "ratio", overhead,
                 qb::format("median traced / untraced pass, %zu+%zu passes",
                            passSeconds[1].size(), passSeconds[0].size())});

    double request_ms = 0;
    for (const Request &r : requests)
        if (r.traced)
            request_ms += r.ms;
    m.push_back({"client.request_ms", "ms", request_ms / n, ""});
    // The serving layers are not on a batch workload's path.
    const std::pair<const char *, const char *> unserved[] = {
        {"serving.result_hit_rate", "ratio"},
        {"serving.program_hit_rate", "ratio"},
        {"serving.warm_verifies", "count"},
        {"server.overhead_ms", "ms"},
        {"server.rejected", "count"},
        {"server.errors", "count"},
        {"loadgen.lag_p90_ms", "ms"},
        {"loadgen.r0.latency_p90_ms", "ms"},
        {"loadgen.r1.latency_p90_ms", "ms"},
        {"loadgen.r2.latency_p90_ms", "ms"}};
    for (const auto &[name, unit] : unserved)
        m.push_back({name, unit, 0.0, "no server on this workload"});
    out.extra.push_back(qb::format("traced programs: %.0f, %zu spans", n,
                                   tracer.size()));
    for (const auto &[name, secs] : tracer.selfSeconds())
        out.extra.push_back(qb::format("self time %-22s %9.3f ms/program "
                                       "(%5.1f%% of request time)",
                                       name.c_str(), secs * 1e3 / n,
                                       100.0 * secs * 1e3 / request_ms));
    const std::string span_file =
        config.outDir + "/spans-" + config.workload + ".json";
    tracer.write(span_file);
    out.extra.push_back("span file: " + span_file);
    return out;
}

} // namespace qbbench
