/**
 * @file
 * Benchmark runner: runs ONE workload in this process and
 * prints its metrics, human-readable first and as one JSON object on
 * the last line.  run.py builds this binary and wraps it.
 *
 *   qbbench --workload ladder_json|ladder_cli|adder_race|serve_mix
 *           --seed N --seconds S --trace 0|1 --out DIR [--commit ID]
 *
 * Exit status: 0 when every verdict matched its known answer, 1 on a
 * mismatch, 2 on usage errors.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <utility>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "support/strings.h"

namespace {

using qbbench::Metric;
using qbbench::RunConfig;
using qbbench::RunResult;

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/** Host CPU ticks: {all, steal} from /proc/stat (zeros if absent). */
std::pair<double, double>
hostTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double v[8] = {};
    in >> cpu;
    for (double &x : v)
        in >> x;
    double all = 0;
    for (double x : v)
        all += x;
    return {all, v[7]};
}

/**
 * The design claim of each workload, checked on the traced run: the
 * layer it exists to stress must do most of its work.  A workload
 * that stops stressing its layer is flagged here, loudly, instead of
 * silently measuring something else.
 */
std::string
bottleneckCheck(const std::string &workload,
                const std::map<std::string, double> &m, bool &held)
{
    auto get = [&m](const char *name) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    double share = 0.0;
    std::string what;
    if (workload == "ladder_json") {
        what = "core.build_ms + core.unattributed_ms of core.verify_ms";
        share = (get("core.build_ms") + get("core.unattributed_ms")) /
                get("core.verify_ms");
    } else if (workload == "ladder_cli") {
        what = "analysis.lint_ms of client.request_ms";
        share = get("analysis.lint_ms") / get("client.request_ms");
    } else if (workload == "adder_race") {
        // Both lanes' SAT time against the CPU time of both workers
        // inside verifyAll, so that racing cannot inflate the share.
        what = "sat.encode_ms + sat.solve_ms (lane-summed) of CPU time "
               "in verifyAll (core.verify_ms x core.parallelism)";
        share = (get("sat.encode_ms") + get("sat.solve_ms")) /
                (get("core.verify_ms") * get("core.parallelism"));
    } else {
        what = "serving.result_hit_rate";
        share = get("serving.result_hit_rate");
    }
    held = share > 0.5;
    return qb::format("bottleneck check: %s: %s = %.1f%% (must exceed "
                      "50%%): %s",
                      workload.c_str(), what.c_str(), 100.0 * share,
                      held ? "held" : "FLAGGED - workload no longer "
                                      "stresses its layer");
}

std::string
jsonNumber(double v)
{
    return qb::format("%.10g", v);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: qbbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR [--commit ID]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string commit = "unknown";
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 != 1 || !args.count("--workload") || !args.count("--out"))
        return usage();
    try {
        config.workload = args["--workload"];
        config.seed = std::stoull(args.count("--seed") ? args["--seed"] : "1");
        config.seconds =
            std::stod(args.count("--seconds") ? args["--seconds"] : "10");
        config.trace = args.count("--trace") && args["--trace"] == "1";
        config.outDir = args["--out"];
        if (args.count("--commit"))
            commit = args["--commit"];
    } catch (const std::exception &) {
        return usage();
    }

    const auto ticks0 = hostTicks();
    RunResult result;
    try {
        result = config.workload == "serve_mix" ? qbbench::runServeMix(config)
                                                : qbbench::runBatch(config);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qbbench: %s\n", e.what());
        return 2;
    }

    const std::string host = qb::format(
        "nproc %u | cpu %s | build %s | compiler %s | commit %s",
        std::thread::hardware_concurrency(), cpuModel().c_str(),
        QBBENCH_BUILD_TYPE, __VERSION__, commit.c_str());
    std::printf("workload %s | seed %llu | seconds %g | trace %d\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.seconds,
                config.trace ? 1 : 0);
    std::printf("host: %s\n", host.c_str());
    // Time the hypervisor gave this machine's CPUs to someone else
    // during the run: the first suspect when figures move between runs.
    const auto ticks1 = hostTicks();
    std::printf("host steal during the run: %.2f%% of CPU time\n",
                ticks1.first > ticks0.first
                    ? 100.0 * (ticks1.second - ticks0.second) /
                          (ticks1.first - ticks0.first)
                    : 0.0);
    std::printf("inputs: %zu programs, digest %s\n", result.inputCount,
                result.inputDigest.c_str());
    for (const std::string &line : result.extra)
        std::printf("  %s\n", line.c_str());

    std::map<std::string, double> values;
    for (const Metric &m : result.metrics)
        values[m.name] = m.value;
    if (config.trace) {
        bool held = false;
        std::printf("%s\n",
                    bottleneckCheck(config.workload, values, held).c_str());
        result.metrics.push_back(
            {"bench.bottleneck_held", "bool", held ? 1.0 : 0.0, ""});
    }
    for (const Metric &m : result.metrics)
        std::printf("  %-30s %14.6f %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    for (const std::string &e : result.errors)
        std::printf("MISMATCH: %s\n", e.c_str());

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::string json = qb::format(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<long long>(result.attempted),
        static_cast<long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        json += qb::format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                           i == 0 ? "" : ", ", m.name.c_str(),
                           jsonNumber(m.value).c_str(), m.unit.c_str());
    }
    json += qb::format("}, \"input_digest\": \"%s\", \"host\": \"%s\"}",
                       result.inputDigest.c_str(),
                       qb::jsonEscape(host).c_str());
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
