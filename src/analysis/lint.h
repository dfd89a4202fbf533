/**
 * @file
 * Static lint driver for QBorrow programs: source-located diagnostics
 * from AST- and IR-level passes, plus per-program metrics.
 *
 * Lint runs in two layers.  The AST layer works on any PARSED
 * program, including measurement-guarded (if/while) programs that
 * circuit elaboration rejects.  The IR layer needs a successfully
 * elaborated program and uses the gate/qubit source locations the
 * elaborator records (lang::ElaboratedProgram::gateLocs,
 * lang::QubitInfo::loc).
 *
 * Rules (ids as reported in diagnostics):
 *
 *   path-divergent-release (AST, warning)
 *     A register released in one branch of an `if` but not the other:
 *     on the unreleased path the borrow stays live with whatever the
 *     branch wrote into it.
 *
 *   unused-borrow (IR, warning)
 *     A borrowed qubit no gate of its lifetime touches.
 *
 *   redundant-gate (IR, warning)
 *     A gate block that provably composes to the identity on every
 *     input.  Two detectors share the rule id: the GF(2)-affine
 *     boundary scan (dataflow.h) certifies arbitrary linear blocks -
 *     an unseeded ⊤-free affine state is an invertible map, so equal
 *     boundary states bracket an identity subcircuit - and the
 *     exact-pair scan catches a self-inverse nonlinear gate cancelled
 *     by an identical copy with no intervening touch of its wires.
 *     Generalizes the old dead-gate rule.
 *
 *   control-always-constant (IR, warning)
 *     A control wire whose value at that gate is a provable constant
 *     under the seeded constants domain (allocs enter |0>): constant
 *     0 means the gate never fires, constant 1 means the control is
 *     always satisfied and should be dropped.  Catches constants
 *     re-derived by linear cancellation on any wire role, subsuming
 *     the old read-before-init rule.
 *
 *   qubit-never-read (IR, warning)
 *     An alloc'd qubit dead at every boundary of its scope under
 *     backward liveness seeded with the borrowed wires (whose values
 *     escape to their owners): nothing ever observes it, so every
 *     write into it is wasted work.
 *
 *   borrow-not-restored (IR, error / warning for borrow@)
 *     The permutation pass (permutation.h) proved the qubit's
 *     lifetime circuit maps some initial assignment to a DIFFERENT
 *     value of that qubit; on cones wider than the window the
 *     GF(2)-affine pass proves the same window-free for linear
 *     lifetimes (an exact non-identity row differs from q on some
 *     input).  For a reversible classical lifetime this is exact,
 *     not heuristic: b_q != q as functions forces formula (6.1) or
 *     (6.2) of Theorem 6.4 satisfiable, so the qubit is provably
 *     unsafe.  Emitted as a warning (not error) for borrow@ qubits,
 *     whose verification the author explicitly waived.
 */

#ifndef QB_ANALYSIS_LINT_H
#define QB_ANALYSIS_LINT_H

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "lang/ast.h"
#include "lang/elaborate.h"

namespace qb::analysis {

/** Knobs for the IR lint rules. */
struct LintOptions
{
    /** Cone-width bound handed to the permutation pass for the
     *  borrow-not-restored rule; values above 20 act as 20
     *  (kMaxPermutationWindow). */
    unsigned permutationWindow = 10;
};

/** Whole-program shape metrics, valid when elaboration succeeded. */
struct ProgramMetrics
{
    std::size_t gateCount = 0;
    std::size_t depth = 0;     ///< dependency depth (ir::Circuit)
    std::size_t qubits = 0;
    /** Peak number of simultaneously-live borrowed qubits. */
    std::size_t borrowPressure = 0;
};

/** Diagnostics plus metrics for one linted program. */
struct LintResult
{
    std::vector<Diagnostic> diagnostics; ///< sorted by source position
    ProgramMetrics metrics;
    /** False when elaboration failed (AST rules only ran); the
     *  elaborator's message is kept for display. */
    bool elaborated = false;
    std::string elaborationError;

    std::size_t errorCount() const;
    std::size_t warningCount() const;
    bool hasErrors() const { return errorCount() > 0; }
};

/**
 * True for gates that are their own inverse AND permute the
 * computational basis (X family and Swap): the redundant-gate rule's
 * exact-pair scan cancels an adjacent identical pair of them to the
 * identity.
 */
bool selfInverseClassical(const ir::Gate &gate);

/** AST-layer rules only (works for unelaborable programs too). */
void lintAst(const lang::Program &program,
             std::vector<Diagnostic> &out);

/** IR-layer rules + metrics over an elaborated program. */
void lintElaborated(const lang::ElaboratedProgram &program,
                    const LintOptions &options, LintResult &out);

/** Stable sort by source position: the order lintSource() reports
 *  in, for callers that run lintAst() and lintElaborated() themselves. */
void sortDiagnostics(std::vector<Diagnostic> &diagnostics);

/**
 * Parse + lint @p source: AST rules always, IR rules and metrics when
 * elaboration succeeds.  Throws qb::FatalError only on PARSE errors;
 * elaboration failures are recorded in the result instead, so
 * measurement-guarded programs still get their AST diagnostics.
 */
LintResult lintSource(const std::string &source,
                      const LintOptions &options = {});

/** Human-readable rendering, one "path:line:col: ..." line per
 *  diagnostic plus a metrics summary line. */
std::string renderLintText(const LintResult &result,
                           const std::string &program_name);

/** Machine-readable rendering (one JSON document). */
std::string lintToJson(const LintResult &result,
                       const std::string &program_name);

} // namespace qb::analysis

#endif // QB_ANALYSIS_LINT_H
