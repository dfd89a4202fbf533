/**
 * @file
 * Per-wire gate index over a circuit.
 *
 * For every wire, the indices of the gates that touch it, in
 * ascending gate order, stored CSR-style: one offsets array over the
 * wires and one flat array of gate indices.  Built once in
 * O(gates + wires), it answers "which gates act on this wire, and
 * where is the next one after position i" by cursor steps and binary
 * search instead of rescans of Circuit::gates().  The lint passes
 * (analysis/lint.h) and the permutation check (analysis/permutation.h)
 * share one index per elaborated program.
 */

#ifndef QB_IR_CIRCUIT_INDEX_H
#define QB_IR_CIRCUIT_INDEX_H

#include <cstddef>
#include <span>
#include <vector>

#include "ir/circuit.h"

namespace qb::ir {

/** Ascending touch lists per wire of one circuit.  Holds a reference
 *  to the circuit, which must outlive the index and stay unmodified. */
class CircuitIndex
{
  public:
    explicit CircuitIndex(const Circuit &circuit);

    const Circuit &circuit() const { return *circuit_; }

    /** Indices of the gates touching @p q, ascending. */
    std::span<const std::size_t> touches(QubitId q) const;

    /** First gate touching @p q at index >= @p from, or
     *  circuit().size() when there is none. */
    std::size_t nextTouch(QubitId q, std::size_t from) const;

  private:
    const Circuit *circuit_;
    std::vector<std::size_t> offsets_; ///< numQubits() + 1 entries
    std::vector<std::size_t> gates_;   ///< touch lists, wire by wire
};

} // namespace qb::ir

#endif // QB_IR_CIRCUIT_INDEX_H
