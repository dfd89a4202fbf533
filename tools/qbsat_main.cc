/**
 * @file
 * qbsat: the in-tree CDCL solver as a standalone DIMACS tool.
 *
 * `qbsat --dimacs file.cnf` (or a bare positional path; "-" reads
 * stdin) streams the file through the strict located DIMACS reader
 * (sat/dimacs.h), decides it with the full sat::Solver - root clause
 * cleaning, vivification/subsumption inprocessing, OTF subsumption,
 * the works - and prints the result
 * SAT-competition style: "s SATISFIABLE" plus "v" model lines, or
 * "s UNSATISFIABLE".  Exit codes follow the competition convention:
 * 10 = SAT, 20 = UNSAT, 0 = unknown (conflict budget exhausted), and
 * 2 for usage or input errors - a malformed file is one located line
 * on stderr ("error: file.cnf:3:7: ..."), never a crash.  Every
 * model is re-validated against the clause list before printing.
 */

#include <climits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sat/dimacs.h"
#include "sat/solver.h"
#include "support/flags.h"
#include "support/logging.h"

namespace {

using qb::flags::Kind;

/** The rows of kRows, in order. */
enum Flag { Dimacs, Simplify, Stats, Budget };

const qb::flags::Row kRows[] = {
    {"--dimacs", Kind::Text, "", 0, 0, nullptr, "FILE",
     "the CNF file, as the positional argument ('-' is stdin)"},
    {"--simplify", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "the preprocessing preset (lane B's solver configuration)"},
    {"--stats", Kind::Bool, "false", 0, 0, nullptr, nullptr,
     "print solver counters as c lines"},
    {"--budget", Kind::Int, "-1", -1, LONG_MAX, nullptr, "N",
     "conflict budget (-1, the default, is unlimited)"},
};

/** Print the model competition-style: "v" lines capped near 78
 *  columns, terminated by the literal 0. */
void
printModel(const qb::sat::Solver &solver, qb::sat::Var num_vars)
{
    std::string line = "v";
    auto flush_if_long = [&line] {
        if (line.size() >= 74) {
            std::printf("%s\n", line.c_str());
            line = "v";
        }
    };
    for (qb::sat::Var v = 0; v < num_vars; ++v) {
        const bool value =
            solver.modelValue(v) == qb::sat::LBool::True;
        line += ' ';
        line += std::to_string((value ? 1 : -1) * (v + 1));
        flush_if_long();
    }
    std::printf("%s 0\n", line.c_str());
}

/** Flag scan, streamed DIMACS read, solve, print. */
int
run(int argc, char **argv)
{
    std::vector<qb::flags::Value> v = qb::flags::defaults(kRows);
    std::vector<std::string> paths;
    const std::string error = qb::flags::scan(kRows, argc, argv, v, paths);
    if (!v[Dimacs].text.empty())
        paths.push_back(v[Dimacs].text);
    if (!error.empty() || paths.size() != 1) {
        if (!error.empty())
            std::fprintf(stderr, "error: %s\n", error.c_str());
        std::fprintf(stderr, "usage: %s [options] file.cnf\n%s", argv[0],
                     qb::flags::usage(kRows).c_str());
        return 2;
    }
    const std::string &path = paths[0];
    // Build the config only after the flag scan: presets and tweaks
    // compose in any order (previously `--budget N --simplify` lost
    // the budget because the preset replaced the whole config).
    qb::sat::SolverConfig config = v[Simplify].number
        ? qb::sat::SolverConfig::simplify()
        : qb::sat::SolverConfig::baseline();
    config.conflictBudget = v[Budget].number;

    // Stream straight from the file (or stdin): the strict reader
    // never needs the whole text in memory, and a malformed file is
    // a located error, not an exception or a crash.
    qb::sat::DimacsResult parsed;
    std::string label = path;
    if (path == "-") {
        label = "<stdin>";
        parsed = qb::sat::readDimacs(std::cin);
    } else {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "error: cannot open '%s'\n",
                         path.c_str());
            return 2;
        }
        parsed = qb::sat::readDimacs(in);
    }
    if (!parsed.ok) {
        std::fprintf(stderr, "error: %s:%s\n", label.c_str(),
                     parsed.error.str().c_str());
        return 2;
    }

    const qb::sat::Cnf &cnf = parsed.cnf;
    qb::sat::Solver solver(config);
    solver.addCnf(cnf);
    // One explicit inprocessing pass before search puts the whole
    // slice-boundary machinery (root clause cleaning, vivification,
    // backward subsumption) on the standalone-CNF path too.
    solver.inprocess();
    const qb::sat::SolveResult result = solver.solve();
    if (v[Stats].number) {
        const auto &s = solver.stats();
        std::printf("c conflicts %lld decisions %lld "
                    "propagations %lld restarts %lld "
                    "eliminated %lld\n",
                    static_cast<long long>(s.conflicts),
                    static_cast<long long>(s.decisions),
                    static_cast<long long>(s.propagations),
                    static_cast<long long>(s.restarts),
                    static_cast<long long>(s.eliminatedVars));
        std::printf("c otf-strengthened %lld otf-skipped %lld "
                    "otf-deferred-applied %lld\n",
                    static_cast<long long>(s.otfStrengthenedClauses),
                    static_cast<long long>(s.otfSkipped),
                    static_cast<long long>(s.otfDeferredApplied));
    }
    switch (result) {
      case qb::sat::SolveResult::Sat: {
        std::vector<qb::sat::LBool> model(cnf.numVars());
        for (qb::sat::Var v = 0; v < cnf.numVars(); ++v)
            model[v] = solver.modelValue(v);
        std::size_t failed = 0;
        if (!qb::sat::validateModel(cnf.clauses(), model, &failed)) {
            // A Sat verdict whose model violates a clause is a
            // solver bug; report it instead of printing a lie.
            std::fprintf(stderr,
                         "error: %s: solver model violates clause "
                         "%zu (internal error)\n",
                         label.c_str(), failed);
            return 1;
        }
        std::printf("s SATISFIABLE\n");
        printModel(solver, cnf.numVars());
        return 10;
      }
      case qb::sat::SolveResult::Unsat:
        std::printf("s UNSATISFIABLE\n");
        return 20;
      case qb::sat::SolveResult::Unknown:
        std::printf("s UNKNOWN\n");
        return 0;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Exceptions never escape main: any residual throw is a clean
    // one-line error and exit 2, not an unhandled abort.
    try {
        return run(argc, argv);
    } catch (const qb::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
