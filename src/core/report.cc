#include "core/report.h"

#include "support/strings.h"

namespace qb::core {

namespace {

const char *
failedConditionName(FailedCondition failed)
{
    switch (failed) {
      case FailedCondition::None:            return "none";
      case FailedCondition::ZeroRestoration: return "zero-restoration";
      case FailedCondition::PlusRestoration: return "plus-restoration";
    }
    return "?";
}

/**
 * Shared emitter behind toJson() and toJsonCompact(): identical
 * fields, ordering and number formatting; @p pretty only controls the
 * whitespace (indentation + newlines vs one line).
 */
std::string
emitProgram(const ProgramResult &result,
            const std::string &program_name, bool pretty)
{
    const char *const nl = pretty ? "\n" : "";
    const char *const indent = pretty ? "  " : "";
    std::size_t safe = 0, unsafe = 0, other = 0;
    for (const QubitResult &r : result.qubits) {
        if (r.verdict == Verdict::Safe)
            ++safe;
        else if (r.verdict == Verdict::Unsafe)
            ++unsafe;
        else
            ++other;
    }
    std::string out = std::string("{") + nl;
    out += indent;
    if (program_name.empty())
        out += "\"program\": null,";
    else
        out += format("\"program\": \"%s\",",
                      jsonEscape(program_name).c_str());
    out += nl;
    out += indent;
    out += format("\"all_safe\": %s,",
                  result.allSafe() ? "true" : "false");
    out += nl;
    out += indent;
    out += "\"total_seconds\": " +
           formatFixed(result.totalSeconds, 6) + ",";
    out += nl;
    out += indent;
    out += format("\"counts\": {\"safe\": %zu, \"unsafe\": %zu, "
                  "\"undecided\": %zu},",
                  safe, unsafe, other);
    out += nl;
    // Aggregated solver counters - persistent lanes plus retired
    // scratch solvers: clause-DB health and the inprocessing/GC
    // activity of this run's sessions.
    const sat::SolverStats &s = result.solverTotals;
    const auto count = [](std::int64_t v) {
        return format("%lld", static_cast<long long>(v));
    };
    out += indent;
    out += "\"solver\": {";
    out += "\"conflicts\": " + count(s.conflicts) + ", ";
    out += "\"learnt_clauses\": " + count(s.learntClauses) + ", ";
    out += "\"removed_clauses\": " + count(s.removedClauses) + ", ";
    out += "\"bin_propagations\": " + count(s.binPropagations) + ", ";
    out += "\"otf_strengthened\": " +
           count(s.otfStrengthenedClauses) + ", ";
    out += "\"otf_deferred_applied\": " +
           count(s.otfDeferredApplied) + ", ";
    out += "\"inprocess_runs\": " + count(s.inprocessRuns) + ", ";
    out += "\"vivified_clauses\": " + count(s.vivifiedClauses) + ", ";
    out += "\"vivified_literals\": " + count(s.vivifiedLiterals) + ", ";
    out += "\"subsumed_clauses\": " + count(s.subsumedClauses) + ", ";
    out += "\"strengthened_clauses\": " +
           count(s.strengthenedClauses) + ", ";
    out += "\"gc_runs\": " + count(s.gcRuns) + ", ";
    out += "\"gc_words_reclaimed\": " + count(s.gcWordsReclaimed) +
           ", ";
    out += "\"arena_peak_words\": " + count(s.arenaPeakWords) + ", ";
    out += "\"peak_learnts\": " + count(s.peakLearnts);
    out += "},";
    out += nl;
    // Static discharges: conditions proven UNSAT without a SAT call,
    // total and by the affine pass.
    const AnalysisTotals &a = result.analysisTotals;
    out += indent;
    out += "\"analysis\": {";
    out += "\"analysis_discharged\": " + count(a.discharged) + ", ";
    out += "\"affine\": " + count(a.affine);
    out += "},";
    out += nl;
    out += indent;
    out += "\"qubits\": [";
    for (std::size_t i = 0; i < result.qubits.size(); ++i) {
        if (i > 0)
            out += ",";
        if (pretty)
            out += "\n    ";
        out += toJson(result.qubits[i]);
    }
    if (pretty && !result.qubits.empty())
        out += "\n  ";
    out += "]";
    out += nl;
    out += "}";
    out += nl;
    // Appending leaves up to half the buffer spare (about 40% over
    // the text on adder reports); a caller that keeps reports, like a
    // batch run, would hold that slack for each one.
    out.shrink_to_fit();
    return out;
}

} // namespace

std::string
toJson(const QubitResult &r)
{
    std::string out = "{";
    out += format("\"qubit\": %u, ", r.qubit);
    out += format("\"name\": \"%s\", ", jsonEscape(r.name).c_str());
    out += format("\"verdict\": \"%s\", ", verdictName(r.verdict));
    out += format("\"failed_condition\": \"%s\", ",
                  failedConditionName(r.failed));
    if (r.lane >= 0)
        out += format("\"lane\": %d, ", r.lane);
    else
        out += "\"lane\": null, ";
    out += format("\"solved_structurally\": %s, ",
                  r.solvedStructurally ? "true" : "false");
    // Numbers go through formatFixed(): printf's %f is locale-bound
    // and writes "0,5" under comma-decimal locales - invalid JSON.
    out += "\"build_seconds\": " + formatFixed(r.buildSeconds, 6) +
           ", ";
    out += "\"encode_seconds\": " + formatFixed(r.encodeSeconds, 6) +
           ", ";
    out += "\"solve_seconds\": " + formatFixed(r.solveSeconds, 6) +
           ", ";
    out += format("\"formula_nodes\": %zu, ", r.formulaNodes);
    out += format("\"cnf_vars\": %zu, ", r.cnfVars);
    out += format("\"cnf_clauses\": %zu, ", r.cnfClauses);
    out += format("\"conflicts\": %lld, ",
                  static_cast<long long>(r.conflicts));
    if (r.counterexample) {
        out += "\"counterexample\": [";
        for (std::size_t i = 0; i < r.counterexample->size(); ++i) {
            if (i > 0)
                out += ", ";
            out += (*r.counterexample)[i] ? "1" : "0";
        }
        out += "]";
    } else {
        out += "\"counterexample\": null";
    }
    out += "}";
    return out;
}

std::string
toJson(const ProgramResult &result, const std::string &program_name)
{
    return emitProgram(result, program_name, true);
}

std::string
toJsonCompact(const ProgramResult &result,
              const std::string &program_name)
{
    return emitProgram(result, program_name, false);
}

} // namespace qb::core
