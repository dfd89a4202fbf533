/**
 * @file
 * Structured JSON report emission for verification results.
 *
 * Serves the tooling side of the engine redesign: `qborrow --json`
 * and downstream dashboards consume one machine-readable document per
 * run instead of scraping the human-oriented text report.  The format
 * is stable, self-describing JSON with snake_case keys; absent values
 * (e.g. no counterexample) are emitted as null.
 */

#ifndef QB_CORE_REPORT_H
#define QB_CORE_REPORT_H

#include <string>

#include "core/verifier.h"

namespace qb::core {

/** One qubit result as a JSON object. */
std::string toJson(const QubitResult &result);

/**
 * A whole program result as a JSON document:
 *
 * {
 *   "program": <name or null>,
 *   "all_safe": <bool>,
 *   "total_seconds": <double>,
 *   "counts": {"safe": n, "unsafe": n, "undecided": n},
 *   "solver": { aggregated ProgramResult::solverTotals counters:
 *               conflicts, learnt/removed clauses, inprocessing
 *               (vivified, subsumed, strengthened), arena GC runs and
 *               peaks },
 *   "analysis": { "analysis_discharged": n, "affine": n },
 *   "qubits": [ <QubitResult objects> ]
 * }
 */
std::string toJson(const ProgramResult &result,
                   const std::string &program_name = "");

/**
 * The same program-result document as toJson(), rendered on ONE line
 * with no trailing newline: the form the qborrow server streams as the
 * `report` field of its line-delimited `result` responses, where an
 * embedded newline would end the frame.  Field set, ordering and
 * number formatting are identical to the pretty form - only the
 * whitespace differs.
 */
std::string toJsonCompact(const ProgramResult &result,
                          const std::string &program_name = "");

} // namespace qb::core

#endif // QB_CORE_REPORT_H
