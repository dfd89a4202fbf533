/**
 * @file
 * Facade over the GF(2)-affine discharger (dataflow.h's affine
 * domain) as consumed by core::VerificationEngine.
 *
 * The engine asks, per qubit, whether the zero-restoration condition
 * (6.1) and/or the plus-restoration condition (6.2) are provably
 * UNSAT from circuit structure alone.  Every answer here is an
 * UNSAT-ONLY discharge: the analyzer never claims a condition
 * satisfiable, so enabling it can skip encode+SAT work but can never
 * change a verdict or a counterexample relative to a SAT-only run.
 *
 * The affine pass proves linear-circuit restoration with NO window
 * bound, and the engine consults it BEFORE building a qubit's
 * condition formulas: for purely linear cones the formula arena's own
 * GF(2) canonicalization would fold both conditions to constants
 * anyway, so the only way the proof saves work is to skip that build
 * (in particular the per-wire (6.2) cofactor sweep) entirely.  A
 * post-build consult would add nothing: the affine half of it can
 * never fire on a condition the arena left unfolded, and a syntactic
 * cone-of-influence or compute/uncompute mirror pass is subsumed by
 * the same folding (a qubit outside every other wire's cone leaves
 * identical cofactors, and exact mirrors cancel by hash-consed XOR).
 * The bounded-window permutation check (permutation.h) is a lint
 * check only.
 */

#ifndef QB_ANALYSIS_ANALYZER_H
#define QB_ANALYSIS_ANALYZER_H

#include <optional>
#include <vector>

#include "analysis/dataflow.h"

namespace qb::analysis {

/** Whether the engine consults the static discharger at all. */
struct AnalysisOptions
{
    bool affine = true;

    /** Everything off: SAT-only verification. */
    static AnalysisOptions none()
    {
        AnalysisOptions opts;
        opts.affine = false;
        return opts;
    }
};

/** What the GF(2)-affine pass proves for one qubit. */
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
 * affine ⊤ set and final state) and answers affineFacts() queries.
 * Analysis is lazy - nothing is computed until the first query - so
 * sessions that never consult the analyzer pay nothing.
 */
class Analyzer
{
  public:
    Analyzer(const ir::Circuit &circuit, AnalysisOptions options);

    /**
     * GF(2)-affine discharges for @p q, window-free (the
     * whole-circuit affine sweep is shared between qubits).  All
     * false when the affine pass is off or the circuit is not
     * classical.
     */
    AffineFacts affineFacts(ir::QubitId q);

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
};

} // namespace qb::analysis

#endif // QB_ANALYSIS_ANALYZER_H
