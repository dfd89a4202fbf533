/**
 * @file
 * qbfuzz: the differential fuzzing harness (support/fuzz.h) as a CLI.
 *
 * One invocation is one campaign: `qbfuzz --seed 7 --qbr 500 --cnf
 * 500 --jobs 4 --out fuzz-out` generates the seeded corpus, decides
 * every case along independent paths (both solver presets + model
 * validation + brute force for CNF; both verification lanes + the
 * brute-force oracle for qbr programs), shrinks any disagreement to a
 * minimal reproducer in --out, and prints a summary.  Exit codes:
 * 0 = every case agreed, 1 = at least one disagreement (reproducers
 * written), 2 = usage error.  The corpus and every verdict are
 * deterministic in --seed alone - --jobs changes wall-clock time,
 * never bytes - so a CI failure replays locally from the seed in the
 * log.  --inject-cnf-bug turns on the built-in solver sabotage
 * (dropping one clause from the differential lane) and is how the
 * harness proves it would notice a real bug.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "support/flags.h"
#include "support/fuzz.h"
#include "support/logging.h"

namespace {

using qb::flags::Kind;

constexpr long kLong = LONG_MAX;

/** The rows of kRows, in order. */
enum Flag { Seed, Qbr, Cnf, Analysis, Jobs, Out, MaxVars, Ratio,
            BinaryProb, BruteMax, MaxDisagreements, InjectCnfBug };

const qb::flags::Row kRows[] = {
    {"--seed", Kind::Int, "1", 0, kLong, nullptr, "N",
     "campaign seed (default 1)"},
    {"--qbr", Kind::Int, "250", 0, kLong, nullptr, "N",
     "random program cases (default 250)"},
    {"--cnf", Kind::Int, "250", 0, kLong, nullptr, "N",
     "random CNF cases (default 250)"},
    {"--analysis", Kind::Int, "250", 0, kLong, nullptr, "N",
     "analysis-on/off differential cases (default 250)"},
    {"--jobs", Kind::Int, "1", 0, UINT_MAX, nullptr, "N",
     "worker threads; 0 = hardware (default 1)"},
    {"--out", Kind::Text, "", 0, 0, nullptr, "DIR",
     "write shrunk reproducers here (must exist)"},
    {"--max-vars", Kind::Int, "16", 3, INT_MAX, nullptr, "N",
     "CNF generator variable cap, at least 3 (default 16)"},
    {"--ratio", Kind::Real, "4.2", 0, 1000, nullptr, "R",
     "CNF clauses-per-variable (default 4.2)"},
    {"--binary-prob", Kind::Real, "0.45", 0, 1, nullptr, "P",
     "binary-clause probability (default 0.45)"},
    {"--brute-max", Kind::Int, "12", 0, 63, nullptr, "N",
     "brute-force CNFs up to N vars, at most 63 (default 12)"},
    {"--max-disagreements", Kind::Int, "4", 0, kLong, nullptr, "N",
     "stop shrinking after N failures (default 4)"},
    {"--inject-cnf-bug", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "sabotage one lane (harness self-test)"},
};
static_assert(std::size(kRows) == InjectCnfBug + 1);

} // namespace

int
main(int argc, char **argv)
{
    std::vector<qb::flags::Value> v = qb::flags::defaults(kRows);
    std::vector<std::string> positional;
    const std::string error =
        qb::flags::scan(kRows, argc, argv, v, positional);
    if (!error.empty() || !positional.empty()) {
        if (!error.empty())
            std::fprintf(stderr, "error: %s\n", error.c_str());
        std::fprintf(stderr, "usage: %s [options]\n%s", argv[0],
                     qb::flags::usage(kRows).c_str());
        return 2;
    }
    qb::fuzz::FuzzOptions options;
    options.seed = v[Seed].number;
    options.qbrCases = v[Qbr].number;
    options.cnfCases = v[Cnf].number;
    options.analysisCases = v[Analysis].number;
    options.jobs = v[Jobs].number;
    options.reproducerDir = v[Out].text;
    options.cnf.maxVars = v[MaxVars].number;
    options.cnf.clauseVarRatio = v[Ratio].real;
    options.cnf.binaryProb = v[BinaryProb].real;
    options.bruteForceMaxVars = v[BruteMax].number;
    options.maxDisagreements = v[MaxDisagreements].number;
    options.injectCnfBug = v[InjectCnfBug].number != 0;
    if (options.jobs == 0)
        options.jobs =
            std::max(1u, std::thread::hardware_concurrency());

    std::printf(
        "c qbfuzz seed=%llu qbr=%zu cnf=%zu analysis=%zu jobs=%u%s\n",
        static_cast<unsigned long long>(options.seed),
        options.qbrCases, options.cnfCases, options.analysisCases,
        options.jobs, options.injectCnfBug ? " inject-cnf-bug" : "");

    try {
        const qb::fuzz::FuzzReport report = qb::fuzz::runFuzz(options);
        std::printf("c corpus digest %016llx\n",
                    static_cast<unsigned long long>(
                        report.corpusDigest));
        std::printf("c cnf verdicts: %zu sat, %zu unsat\n",
                    report.satVerdicts, report.unsatVerdicts);
        std::printf("c qbr/analysis qubits: %zu safe, %zu unsafe\n",
                    report.safeQubits, report.unsafeQubits);
        for (const auto &d : report.disagreements) {
            std::printf("d %s case %zu (seed 0x%llx): %s\n",
                        qb::fuzz::caseKindName(d.kind), d.index,
                        static_cast<unsigned long long>(d.caseSeed),
                        d.detail.c_str());
            if (!d.reproducerPath.empty())
                std::printf("d   reproducer: %s\n",
                            d.reproducerPath.c_str());
        }
        if (!report.ok()) {
            std::printf("c FAIL: %zu disagreement(s)\n",
                        report.disagreements.size());
            return 1;
        }
        std::printf("c PASS: %zu cases, no disagreements\n",
                    options.qbrCases + options.cnfCases +
                        options.analysisCases);
        return 0;
    } catch (const qb::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
