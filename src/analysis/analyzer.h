/**
 * @file
 * Facade over the static dischargers (dataflow.h's affine domain,
 * permutation.h) as consumed by core::VerificationEngine.
 *
 * The engine asks, per qubit, whether the zero-restoration condition
 * (6.1) and/or the plus-restoration condition (6.2) are provably
 * UNSAT from circuit structure alone.  Every answer here is an
 * UNSAT-ONLY discharge: the analyzer never claims a condition
 * satisfiable, so enabling it can skip encode+SAT work but can never
 * change a verdict or a counterexample relative to a SAT-only run.
 *
 * Pass order is affine, then permutation, and the first pass to
 * discharge a condition is credited in the per-pass counters.  A
 * syntactic cone-of-influence pass or a compute/uncompute mirror pass
 * would add nothing here: the engine consults the analyzer only for
 * conditions the formula arena did not fold to a constant, and the
 * arena already folds both cases (a qubit outside every other wire's
 * cone leaves identical cofactors, and exact mirrors cancel by
 * hash-consed XOR).  The affine pass is additionally exposed
 * through affineFacts(): unlike the others it proves linear-circuit
 * restoration with NO window bound, so the engine consults it BEFORE
 * building a qubit's condition formulas - for purely linear cones the
 * formula arena's own GF(2) canonicalization would fold both
 * conditions to constants anyway, and the only way the proof saves
 * work is to skip that build (in particular the per-wire (6.2)
 * cofactor sweep) entirely.
 */

#ifndef QB_ANALYSIS_ANALYZER_H
#define QB_ANALYSIS_ANALYZER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/permutation.h"

namespace qb::analysis {

/** Which dischargers run, and the permutation pass's window bound. */
struct AnalysisOptions
{
    bool affine = true;
    bool permutation = true;
    unsigned permutationWindow = kDefaultPermutationWindow;

    bool anyPass() const
    {
        return affine || permutation;
    }

    /** Everything off: SAT-only verification. */
    static AnalysisOptions none()
    {
        AnalysisOptions opts;
        opts.affine = opts.permutation = false;
        return opts;
    }
};

/** Discharging pass, for attribution in stats and reports. */
enum class Pass : std::uint8_t {
    None,
    Affine,
    Permutation,
};

/** Name of @p pass ("affine", "permutation", "none"). */
const char *passName(Pass pass);

/** Static verdicts for one qubit's two conditions. */
struct QubitFacts
{
    Pass zeroDischargedBy = Pass::None; ///< (6.1) proven UNSAT by
    Pass plusDischargedBy = Pass::None; ///< (6.2) proven UNSAT by
};

/** What the GF(2)-affine pass alone proves for one qubit (the
 *  engine's pre-build consult; see the file comment). */
struct AffineFacts
{
    /** Final value of q is provably q itself (or constant 0): (6.1)
     *  `b_q AND NOT q` is UNSAT. */
    bool zeroUnsat = false;
    /** Every OTHER wire's final value is provably independent of
     *  initial q: the (6.2) cofactor disjunction is UNSAT. */
    bool plusUnsat = false;
};

/**
 * Per-circuit analyzer: caches the work shared between qubits (the
 * affine ⊤ set and final state) and answers qubitFacts() queries.
 * Analysis is lazy - nothing is computed until the
 * first query - so sessions that never consult the analyzer pay
 * nothing.
 */
class Analyzer
{
  public:
    Analyzer(const ir::Circuit &circuit, AnalysisOptions options);

    /** Static discharges for @p q's conditions (cached per qubit). */
    const QubitFacts &qubitFacts(ir::QubitId q);

    /**
     * GF(2)-affine discharges alone for @p q, window-free (cached;
     * the whole-circuit affine sweep is shared between qubits).  All
     * false when the affine pass is off or the circuit is not
     * classical.
     */
    AffineFacts affineFacts(ir::QubitId q);

    const AnalysisOptions &options() const { return options_; }

  private:
    /** The affine fixpoint at the end of the circuit (computed on
     *  first use, nullopt until then and when unavailable). */
    const AffineState *affineFinal();

    /** Exact gate on the dense sweep: true when q and some other wire
     *  are both ⊤, so affineFacts(q) can discharge nothing - ⊤ q is
     *  neither identity nor constant, and a ⊤ other wire may depend
     *  on q.  The ⊤ set is one O(gates) pass (affineTopWires),
     *  cached. */
    bool affineHopeless(ir::QubitId q);

    const ir::Circuit &circuit_;
    AnalysisOptions options_;
    bool affineTried_ = false;
    std::optional<AffineState> affineFinal_;
    std::optional<std::vector<bool>> affineTop_; ///< affineTopWires
    std::vector<std::optional<QubitFacts>> factsCache_;
};

} // namespace qb::analysis

#endif // QB_ANALYSIS_ANALYZER_H
