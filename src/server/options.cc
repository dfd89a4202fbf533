#include "server/options.h"

#include <climits>

#include "support/logging.h"
#include "support/strings.h"

namespace qb::server {

namespace {

using flags::Kind;

constexpr unsigned kAll = Local | Serve | Connect;
constexpr long kUint = UINT_MAX, kLong = LONG_MAX;

/** Scope names, indexed by the mode mask. */
const char *const kScopes[] = {
    "", "local-only", "server-only", "server-wide", "client-only",
    "local/client-only", "server/client-only", "per-request"};

// Grouped by scope: optionsUsage() heads each group.
const flags::Row kRows[] = {
    {"--lane", Kind::Enum, "A", 0, 0, "A|B|portfolio", nullptr,
     "solver lane (default A; see docs)", "lane", kAll, true},
    {"--portfolio", Kind::Alias, "portfolio", 0, 0, "--lane", nullptr,
     "both lanes: each condition goes to the one its cone's XOR:AND "
     "ratio picks (adders to B, MCX ladders to A)", nullptr, kAll},
    {"--clean", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "also check alloc'd clean ancillas", "clean", kAll, true},
    {"--no-cex", Kind::Bool, "true", 0, 0, nullptr, nullptr,
     "skip counterexample extraction", "counterexample", kAll, true},
    {"--budget", Kind::Int, "-1", -1, kLong, nullptr, "N",
     "conflict budget per SAT call (default -1, unlimited)", "budget",
     kAll, true},
    {"--jobs", Kind::Int, "0", 1, kUint, nullptr, "N",
     "scheduler worker threads (default: all hardware threads); "
     "without --budget, results are identical for any N", nullptr,
     Local | Serve},
    {"--inprocess", Kind::Int, "16", 0, kUint, nullptr, "N",
     "persistent lanes vivify/subsume their clause DB every N queries "
     "(default 16, 0 disables)", nullptr, Local | Serve, true},
    {"--no-binary-analysis", Kind::Bool, "true", 0, 0, nullptr, nullptr,
     "skip inprocessing's binary implication graph passes (results "
     "are unchanged)", nullptr, Local | Serve, true},
    {"--binary-analysis", Kind::Alias, "true", 0, 0,
     "--no-binary-analysis", nullptr, "run them (the default)", nullptr,
     Local | Serve},
    {"--analysis", Kind::Enum, "all", 0, 0, "all|off|affine", nullptr,
     "static condition discharge: all (default) = its one pass affine; "
     "off for SAT-only", nullptr, Local | Serve, true},
    {"--lint", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "lint only: print diagnostics and metrics, skip verification; "
     "exit 1 iff any error", nullptr, Local},
    {"--no-lint", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "skip the lint pass before verification", nullptr, Local},
    {"--analysis-window", Kind::Int, "10", 0, kLong, nullptr, "N",
     "qubit window of lint's permutation check (default 10, capped at "
     "20: larger values act as 20)", nullptr, Local},
    {"--dump-circuit", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "print the elaborated gate list", nullptr, Local},
    {"--json", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "emit a machine-readable JSON report", nullptr, Local | Connect},
    {"--quiet", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "only print the summary line", nullptr, Local | Connect},
    {"--serve", Kind::Text, "", 0, 0, nullptr, "PATH",
     "run as a daemon on Unix socket PATH", nullptr, Serve},
    {"--serve-tcp", Kind::Text, "", 0, 0, nullptr, "H:P",
     "also (or only) listen on TCP host:port (port 0: ephemeral)",
     nullptr, Serve},
    {"--parallel", Kind::Int, "2", 1, kUint, nullptr, "N",
     "programs verified concurrently (default 2)", nullptr, Serve},
    {"--queue", Kind::Int, "16", 1, kLong, nullptr, "N",
     "admission bound; beyond it requests get 'queue full' (default "
     "16)", nullptr, Serve},
    {"--max-connections", Kind::Int, "0", 0, kLong, nullptr, "N",
     "open connections allowed (default 0 = unlimited)", nullptr,
     Serve},
    {"--max-inflight", Kind::Int, "0", 0, kLong, nullptr, "N",
     "verify requests in flight per connection (default 0 = "
     "unlimited)", nullptr, Serve},
    {"--idle-timeout", Kind::Int, "0", 0, kUint, nullptr, "S",
     "close connections idle for S seconds (default 0 = never)",
     nullptr, Serve},
    {"--result-cache", Kind::Int, "256", 0, kLong, nullptr, "N",
     "memoized verdicts kept (default 256, 0 disables)", nullptr,
     Serve},
    {"--auth-token", Kind::Text, "", 0, 0, nullptr, "T",
     "token required by a daemon, presented by a client (default: "
     "$QB_AUTH_TOKEN; empty = no auth)", nullptr, Serve | Connect},
    {"--token", Kind::Alias, nullptr, 0, 0, "--auth-token", "T",
     "same as --auth-token", nullptr, Serve | Connect},
    {"--connect", Kind::Text, "", 0, 0, nullptr, "PATH",
     "submit the program to the daemon at PATH", nullptr, Connect},
    {"--connect-tcp", Kind::Text, "", 0, 0, nullptr, "H:P",
     "connect to a TCP daemon at host:port", nullptr, Connect},
    {"--stats", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "print the daemon's stats frame and exit", nullptr, Connect},
    {"--shutdown", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "ask the daemon to drain and exit", nullptr, Connect},
};
static_assert(std::size(kRows) == std::size_t(Opt::Shutdown) + 1);

} // namespace

std::span<const flags::Row>
optionRows()
{
    return kRows;
}

const std::vector<flags::Value> &
optionDefaults()
{
    static const auto defaults = flags::defaults(kRows);
    return defaults;
}

bool
Settings::set(Opt o, const std::string &text)
{
    flags::Value &value = values[static_cast<std::size_t>(o)];
    if (!flags::parseValue(kRows[static_cast<std::size_t>(o)], text,
                           value))
        return false;
    value.set = true;
    return true;
}

core::EngineOptions
engineOptions(const Settings &settings)
{
    const std::string &lane = settings.text(Opt::Lane);
    core::EngineOptions options = lane == "portfolio"
        ? core::EngineOptions::portfolioAB()
        : core::EngineOptions::singleLane(
              lane == "A" ? core::VerifierOptions::laneA()
                          : core::VerifierOptions::laneB());
    options.jobs = settings.number(Opt::Jobs);
    options.inprocessInterval = settings.number(Opt::Inprocess);
    options.binaryAnalysis = settings.on(Opt::BinaryAnalysis);
    if (settings.text(Opt::Analysis) == "off")
        options.analysis = analysis::AnalysisOptions::none();
    for (core::VerifierOptions &lane_options : options.lanes) {
        lane_options.wantCounterexample = settings.on(Opt::Counterexample);
        lane_options.conflictBudget = settings.number(Opt::Budget);
    }
    return options;
}

std::string
fingerprint(const Settings &settings)
{
    std::string key;
    for (std::size_t i = 0; i < std::size(kRows); ++i)
        if (kRows[i].fingerprint)
            key += format("%s=%s;", kRows[i].flag,
                          settings.values[i].text.c_str());
    return key;
}

std::string
requestOptionsJson(const Settings &settings)
{
    std::string out;
    for (std::size_t i = 0; i < std::size(kRows); ++i) {
        if (!kRows[i].member)
            continue;
        const std::string &text = settings.values[i].text;
        out += format(out.empty() ? "{\"%s\": " : ", \"%s\": ",
                      kRows[i].member);
        const bool bare =
            kRows[i].kind == Kind::Bool || kRows[i].kind == Kind::Int;
        out += bare ? text : '"' + jsonEscape(text) + '"';
    }
    return out + '}';
}

void
warnIgnored(const Settings &settings, Mode mode)
{
    const char *mode_name = mode == Local ? "local"
        : mode == Serve ? "server" : "client";
    for (std::size_t i = 0; i < std::size(kRows); ++i)
        if (settings.values[i].set && !(kRows[i].scope & mode))
            warn(format("%s is %s; ignored in %s mode", kRows[i].flag,
                        kScopes[kRows[i].scope], mode_name));
}

std::string
optionsUsage()
{
    std::string out;
    for (std::size_t i = 0; i < std::size(kRows); ++i) {
        flags::Row row = kRows[i];
        if (i == 0 || row.scope != kRows[i - 1].scope)
            out += format("\n%s options:\n", kScopes[row.scope]);
        // Per-request rows show the protocol member --connect sends.
        const std::string help = row.member
            ? format("%s [options.%s]", row.help, row.member)
            : row.help;
        row.help = help.c_str();
        out += flags::usage({&row, 1});
    }
    return out;
}

} // namespace qb::server
