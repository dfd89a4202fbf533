/**
 * @file
 * Classical permutation propagation on a bounded qubit window.
 *
 * For one qubit q, the pass computes the backward cone of influence of
 * q's final value (walking the gates last-to-first, a gate is RELEVANT
 * when it writes a wire already in the cone, and its operands join the
 * cone), then - when the cone stays within a configurable window -
 * forward-simulates just the relevant gates over ALL 2^k assignments
 * of the cone.  The walk merges the per-wire touch lists of an
 * ir::CircuitIndex for the at most window + 1 cone wires, so it visits
 * only gates touching the cone: O(window x touches) per qubit, not
 * O(gates).  The result is q's exact output column as a
 * function of the cone inputs:
 *
 *   - output column == input column  =>  b_q = q identically, so
 *     condition (6.1) `b_q AND NOT q` is UNSAT.
 *   - otherwise b_q != q as functions.  Inside the window this is
 *     EXACT, which the lint driver uses for a provably-unsafe
 *     diagnostic (a reversible circuit that moves q's value cannot
 *     restore it for every input: either (6.1) is satisfiable
 *     directly, or injectivity forces another output to depend on q
 *     and (6.2) is).
 *
 * Circuits wider than the window, or containing non-classical gates
 * in the cone, answer TooWide: no claim either way.  The lint driver
 * is the only consumer; the engine's static discharge is the
 * window-free affine pass (analyzer.h).
 */

#ifndef QB_ANALYSIS_PERMUTATION_H
#define QB_ANALYSIS_PERMUTATION_H

#include <cstddef>
#include <cstdint>

#include "ir/circuit.h"
#include "ir/circuit_index.h"

namespace qb::analysis {

/** Outcome of the bounded-window permutation check for one qubit. */
enum class PermutationVerdict {
    Restored,    ///< b_q = q exactly: (6.1) is UNSAT
    NotRestored, ///< b_q != q exactly: provably NOT safe
    TooWide,     ///< cone exceeds the window (or non-classical): no claim
};

/** Default window bound (cone qubits; 2^window assignments). */
constexpr unsigned kDefaultPermutationWindow = 10;

/** Largest window honoured; larger values act as this cap, which
 *  keeps the 2^window enumeration bounded. */
constexpr unsigned kMaxPermutationWindow = 20;

/**
 * Exact restoration check of qubit @p q over the gates [@p begin,
 * @p end) of @p index's circuit, bounded by @p window cone qubits.
 * When @p visited is non-null it receives the number of gates the
 * backward walk visited (a deterministic cost measure).
 */
PermutationVerdict
permutationCheck(const ir::CircuitIndex &index, ir::QubitId q,
                 std::size_t begin, std::size_t end,
                 unsigned window = kDefaultPermutationWindow,
                 std::size_t *visited = nullptr);

/** permutationCheck() over the whole of @p circuit. */
PermutationVerdict
permutationCheck(const ir::Circuit &circuit, ir::QubitId q,
                 unsigned window = kDefaultPermutationWindow);

} // namespace qb::analysis

#endif // QB_ANALYSIS_PERMUTATION_H
