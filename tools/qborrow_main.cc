/**
 * @file
 * The qborrow command-line verifier, mirroring the artifact binary of
 * the paper (Section 10.2: `./qborrow ../examples/adder.qbr`).
 *
 * Three modes share one flag surface, the options table of
 * server/options.h:
 *
 *   - LOCAL (default): read a QBorrow program, elaborate it, and
 *     verify the safe uncomputation of every `borrow`-introduced dirty
 *     qubit through a VerificationEngine session;
 *   - SERVER (`--serve <socket>`): run as a long-lived daemon that
 *     accepts many programs over a Unix domain socket and feeds them
 *     all through one process-wide scheduler pool (src/server/);
 *   - CLIENT (`--connect <socket>`): submit one program to a running
 *     daemon and print the streamed results, with the same text/JSON
 *     output shapes and exit codes as a local run.
 *
 * Exit status: 0 when all checked qubits are safe, 1 when any is
 * unsafe or undecided (including a cancelled request), 2 on usage,
 * input, socket or protocol errors.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "analysis/lint.h"
#include "core/engine.h"
#include "core/report.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "lang/parser.h"
#include "server/protocol.h"
#include "server/server.h"
#include "serving/transport.h"
#include "support/logging.h"
#include "support/strings.h"

namespace {

using qb::server::Opt;
using qb::server::Settings;

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] program.qbr\n"
                 "       %s --serve <socket> [--serve-tcp host:port] "
                 "[options]\n"
                 "       %s --connect <socket> [options] program.qbr\n"
                 "       %s --connect <socket> --shutdown | --stats\n"
                 "\n"
                 "Verify safe uncomputation of every borrowed dirty "
                 "qubit.\n%s\n"
                 "See docs/CLI.md and docs/SERVER_PROTOCOL.md.\n",
                 argv0, argv0, argv0, argv0,
                 qb::server::optionsUsage().c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        qb::fatal("cannot open '" + path + "'");
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** --auth-token / --token when given, else $QB_AUTH_TOKEN, else
 *  empty. */
std::string
resolveToken(const Settings &cli)
{
    const char *env = std::getenv("QB_AUTH_TOKEN");
    return cli[Opt::AuthToken].set || !env ? cli.text(Opt::AuthToken)
                                           : env;
}

/** The per-qubit text line, from the qubit's JSON object: a local
 *  run and a `qubit` frame from a daemon print through it alike. */
void
printQubit(const Settings &cli, const qb::server::JsonValue &q)
{
    using qb::server::JsonValue;
    const JsonValue *name = q.find("name");
    const JsonValue *verdict = q.find("verdict");
    std::printf("  %-10s %s",
                name ? name->asString().c_str() : "?",
                verdict ? verdict->asString().c_str() : "?");
    if (verdict && verdict->asString() == "unsafe") {
        const JsonValue *failed = q.find("failed_condition");
        std::printf(" (%s restoration violated)",
                    failed &&
                            failed->asString() == "zero-restoration"
                        ? "|0>"
                        : "|+>");
    }
    // The lane letter: the one configured lane, or A/B of the
    // portfolio by the lane's index.
    if (const JsonValue *lane = q.find("lane");
        lane && lane->kind() == JsonValue::Kind::Number)
        std::printf(" [lane %c]", cli.text(Opt::Lane) == "portfolio"
                                      ? static_cast<char>('A' + lane->asInt())
                                      : cli.text(Opt::Lane)[0]);
    std::printf("\n");
    if (const JsonValue *cex = q.find("counterexample");
        cex && cex->kind() == JsonValue::Kind::Array) {
        std::printf("    counterexample input:");
        for (const JsonValue &bit : cex->items())
            std::printf(" %d", bit.asInt() != 0 ? 1 : 0);
        std::printf("\n");
    }
}

// ------------------------------------------------------------- lint mode

qb::analysis::LintOptions
lintOptionsFor(const Settings &cli)
{
    qb::analysis::LintOptions options;
    options.permutationWindow = cli.number(Opt::AnalysisWindow);
    return options;
}

int
runLint(const Settings &cli, const std::string &path)
{
    const auto result = qb::analysis::lintSource(readFile(path),
                                                 lintOptionsFor(cli));
    std::printf("%s", cli.on(Opt::Json)
                          ? qb::analysis::lintToJson(result, path).c_str()
                          : qb::analysis::renderLintText(result, path)
                                .c_str());
    return result.hasErrors() ? 1 : 0;
}

// ------------------------------------------------------------ local mode

int
runLocal(const Settings &cli, const std::string &path)
{
    const qb::core::EngineOptions options = qb::server::engineOptions(cli);
    const std::string source = readFile(path);
    const bool text = !cli.on(Opt::Quiet) && !cli.on(Opt::Json);
    // Lint-before-verify (opt out with --no-lint): diagnostics go to
    // stderr so stdout stays the verification report.  Lint and
    // verification share one parse and one elaboration.
    const bool lint = text && !cli.on(Opt::NoLint);
    const qb::lang::Program ast = qb::lang::parse(source);
    qb::analysis::LintResult lint_result;
    const auto print_lint = [&] {
        qb::analysis::sortDiagnostics(lint_result.diagnostics);
        for (const auto &d : lint_result.diagnostics)
            std::fprintf(stderr, "%s:%s\n", path.c_str(),
                         d.toString().c_str());
    };
    if (lint)
        qb::analysis::lintAst(ast, lint_result.diagnostics);
    const qb::lang::ElaboratedProgram program = [&] {
        try {
            return qb::lang::elaborate(ast);
        } catch (const qb::FatalError &) {
            // The AST rules still report before the elaboration
            // error ends the run.
            if (lint)
                print_lint();
            throw;
        }
    }();
    if (lint) {
        qb::analysis::lintElaborated(program, lintOptionsFor(cli),
                                     lint_result);
        print_lint();
    }
    if (cli.on(Opt::DumpCircuit))
        std::printf("%s", program.circuit.toString().c_str());
    if (text) {
        std::printf("%s: %u qubits, %zu gates\n", path.c_str(),
                    program.circuit.numQubits(),
                    program.circuit.size());
    }
    // Stream per-qubit lines as the engine produces them.
    qb::core::ResultObserver observer;
    if (text)
        observer = [&cli](const qb::core::QubitResult &r) {
            printQubit(cli, qb::server::JsonValue::parse(
                                qb::core::toJson(r)));
        };
    const auto result = qb::core::verifyAll(program, options, observer,
                                            cli.on(Opt::Clean));
    if (cli.on(Opt::Json)) {
        std::printf("%s", qb::core::toJson(result, path).c_str());
    } else {
        std::printf("%s\n", result.summary().c_str());
    }
    return result.allSafe() ? 0 : 1;
}

// ----------------------------------------------------------- server mode

std::atomic<bool> g_stop{false};

void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_release);
}

int
runServer(const Settings &cli)
{
    qb::server::ServerOptions options;
    options.socketPath = cli.text(Opt::ServePath);
    options.tcpAddress = cli.text(Opt::ServeTcp);
    options.authToken = resolveToken(cli);
    options.defaults = cli;
    options.queueCapacity = cli.number(Opt::Queue);
    options.concurrency = cli.number(Opt::Parallel);
    options.jobs = cli.number(Opt::Jobs);
    options.maxConnections = cli.number(Opt::MaxConnections);
    options.maxInflightPerConnection = cli.number(Opt::MaxInflight);
    options.idleTimeoutSeconds = cli.number(Opt::IdleTimeout);
    options.resultCacheCapacity = cli.number(Opt::ResultCache);
    const bool authed = !options.authToken.empty();

    qb::server::Server server(std::move(options));
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::string endpoints;
    if (!server.socketPath().empty())
        endpoints = server.socketPath();
    if (!server.tcpEndpoint().empty()) {
        if (!endpoints.empty())
            endpoints += " and ";
        endpoints += "tcp:" + server.tcpEndpoint();
    }
    qb::inform(qb::format(
        "qborrow server listening on %s (parallel %ld, queue %ld%s)",
        endpoints.c_str(), cli.number(Opt::Parallel),
        cli.number(Opt::Queue), authed ? ", auth required" : ""));
    server.run(&g_stop); // returns after the graceful drain
    const auto counters = server.counters();
    qb::inform(qb::format(
        "qborrow server exiting: %llu request(s) served, %llu "
        "cancelled, %llu rejected, %llu error(s)",
        static_cast<unsigned long long>(counters.served),
        static_cast<unsigned long long>(counters.cancelled),
        static_cast<unsigned long long>(counters.rejected),
        static_cast<unsigned long long>(counters.errors)));
    return 0;
}

// ----------------------------------------------------------- client mode

void
sendLine(int fd, std::string line)
{
    line += '\n';
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n = ::send(fd, line.data() + sent,
                                 line.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            qb::fatal("connection lost while sending request");
        }
        sent += static_cast<std::size_t>(n);
    }
}

/** Read lines until a frame of a type in @p types arrives (into
 *  @p line and @p doc); false when the connection closes first.
 *  Garbage is skipped. */
bool
nextFrame(int fd, std::string &buffer, std::string &line,
          std::initializer_list<std::string_view> types,
          qb::server::JsonValue &doc)
{
    for (std::size_t eol;;) {
        while ((eol = buffer.find('\n')) == std::string::npos) {
            char chunk[4096];
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n > 0)
                buffer.append(chunk, static_cast<std::size_t>(n));
            else if (n == 0 || errno != EINTR)
                return false;
        }
        line = buffer.substr(0, eol);
        buffer.erase(0, eol + 1);
        try {
            doc = qb::server::JsonValue::parse(line);
        } catch (const qb::FatalError &) {
            continue; // tolerate unknown garbage on the stream
        }
        const qb::server::JsonValue *type = doc.find("type");
        if (type && std::find(types.begin(), types.end(),
                              type->asString()) != types.end())
            return true;
    }
}

int
runClient(const Settings &cli, const std::string &path)
{
    using qb::server::JsonValue;
    const int fd = cli.text(Opt::ConnectTcp).empty()
        ? qb::serving::connectUnix(cli.text(Opt::ConnectPath))
        : qb::serving::connectTcp(cli.text(Opt::ConnectTcp));
    const auto fail = [fd](const std::string &message) {
        ::close(fd);
        qb::fatal(message);
    };
    std::string buffer, line;
    JsonValue doc;

    // When a token is available, authenticate before anything else -
    // a token-protected daemon rejects every other op first.
    if (const std::string token = resolveToken(cli); !token.empty()) {
        sendLine(fd, "{\"op\": \"auth\", \"id\": 0, \"token\": \"" +
                         qb::jsonEscape(token) + "\"}");
        if (!nextFrame(fd, buffer, line, {"auth"}, doc))
            fail("connection closed during authentication");
        if (const JsonValue *ok = doc.find("ok"); !ok || !ok->asBool())
            fail("server rejected the auth token");
        if (!buffer.empty())
            qb::warn("unexpected data before the auth ack");
    }

    const char *op = cli.on(Opt::Stats)      ? "stats"
                     : cli.on(Opt::Shutdown) ? "shutdown"
                                             : nullptr;
    const bool text = !cli.on(Opt::Quiet) && !cli.on(Opt::Json);
    if (op) {
        // A shutdown is acknowledged once the daemon has drained.
        sendLine(fd, qb::format("{\"op\": \"%s\", \"id\": 0}", op));
        if (!nextFrame(fd, buffer, line, {"stats", "bye", "error"}, doc))
            fail(qb::format("connection closed before the %s reply", op));
    } else {
        sendLine(fd, "{\"op\": \"verify\", \"id\": 1, \"name\": \"" +
                         qb::jsonEscape(path) + "\", \"source\": \"" +
                         qb::jsonEscape(readFile(path)) +
                         "\", \"options\": " +
                         qb::server::requestOptionsJson(cli) + "}");
        bool answered;
        while ((answered = nextFrame(fd, buffer, line,
                                     {"qubit", "result", "error"}, doc)) &&
               doc.find("type")->asString() == "qubit")
            if (const JsonValue *q = doc.find("qubit"); q && text)
                printQubit(cli, *q);
        if (!answered)
            fail("connection closed before a result arrived");
    }
    ::close(fd);
    const std::string &kind = doc.find("type")->asString();
    if (kind == "error") {
        const JsonValue *message = doc.find("message");
        std::fprintf(stderr, "error: %s\n",
                     message ? message->asString().c_str()
                             : "server error");
        return 2;
    }
    if (kind != "result") { // the stats frame, or the shutdown ack
        if (kind == "stats")
            std::printf("%s\n", line.c_str());
        return 0;
    }
    const JsonValue *status = doc.find("status");
    const bool cancelled = status && status->asString() == "cancelled";
    const JsonValue *report = doc.find("report");
    const auto at = [report](const char *key) {
        return report ? report->find(key) : nullptr;
    };
    const bool all_safe = at("all_safe") && at("all_safe")->asBool();
    if (cli.on(Opt::Json)) {
        // The final `result` frame verbatim: one line carrying the
        // compact report plus the request status.
        std::printf("%s\n", line.c_str());
    } else {
        const JsonValue *counts = at("counts");
        const auto count = [counts](const char *key) -> long long {
            const JsonValue *v = counts ? counts->find(key) : nullptr;
            return v ? v->asInt() : 0;
        };
        std::printf("%zu dirty qubit(s): %lld safe, %lld unsafe, %lld "
                    "undecided (%.3f s)%s\n",
                    at("qubits") ? at("qubits")->items().size() : 0,
                    count("safe"), count("unsafe"), count("undecided"),
                    at("total_seconds") ? at("total_seconds")->asNumber()
                                        : 0.0,
                    cancelled ? " [cancelled]" : "");
    }
    return all_safe && !cancelled ? 0 : 1;
}

/** Flag scan and mode dispatch.  Throws (qb::FatalError, library
 *  preconditions) instead of exiting; main() owns the catch. */
int
run(int argc, char **argv)
{
    Settings cli;
    std::vector<std::string> paths;
    const std::string error = qb::flags::scan(
        qb::server::optionRows(), argc, argv, cli.values, paths);
    const bool serve = !cli.text(Opt::ServePath).empty() ||
                       !cli.text(Opt::ServeTcp).empty();
    const bool connect = !cli.text(Opt::ConnectPath).empty() ||
                         !cli.text(Opt::ConnectTcp).empty();
    const bool control = cli.on(Opt::Stats) || cli.on(Opt::Shutdown);
    // One program in local and client mode, none to serve; a control
    // op ignores it.  Lint is a local, frontend-only mode.
    const bool usage_error =
        !error.empty() || (serve && connect) ||
        (!cli.text(Opt::ConnectPath).empty() &&
         !cli.text(Opt::ConnectTcp).empty()) ||
        (control && !connect) || (cli.on(Opt::Lint) && (serve || connect)) ||
        paths.size() > (serve ? 0u : 1u) ||
        (paths.empty() && !serve && !control);
    if (usage_error) {
        if (!error.empty())
            std::fprintf(stderr, "error: %s\n", error.c_str());
        usage(argv[0]);
        return 2;
    }
    qb::server::warnIgnored(cli, serve     ? qb::server::Serve
                                 : connect ? qb::server::Connect
                                           : qb::server::Local);

    if (serve)
        return runServer(cli);
    if (connect)
        return runClient(cli, paths.empty() ? "" : paths[0]);
    if (cli.on(Opt::Lint))
        return runLint(cli, paths[0]);
    return runLocal(cli, paths[0]);
}

} // namespace

int
main(int argc, char **argv)
{
    // Exceptions never escape main - including from the argument
    // scan, not just the mode dispatch.
    try {
        return run(argc, argv);
    } catch (const qb::FatalError &e) {
        // User errors - unreadable input, an unwritable/busy socket
        // path, a program that fails to parse - exit with ONE clean
        // line on stderr, never an unhandled throw.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        // Library preconditions (std::invalid_argument from the
        // generators and friends) surface as clean CLI errors, not
        // crashes.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
