#include "ir/circuit_index.h"

#include <algorithm>

#include "support/logging.h"

namespace qb::ir {

CircuitIndex::CircuitIndex(const Circuit &circuit)
    : circuit_(&circuit), offsets_(circuit.numQubits() + 1, 0)
{
    // Counting sort by wire: count each wire's touches, prefix-sum
    // the counts into offsets, then fill in gate order so every list
    // comes out ascending.
    const std::vector<Gate> &gates = circuit.gates();
    for (const Gate &gate : gates)
        for (const QubitId q : gate.qubits())
            ++offsets_[q + 1];
    for (std::size_t q = 0; q < circuit.numQubits(); ++q)
        offsets_[q + 1] += offsets_[q];
    gates_.resize(offsets_.back());
    std::vector<std::size_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < gates.size(); ++i)
        for (const QubitId q : gates[i].qubits())
            gates_[fill[q]++] = i;
}

std::span<const std::size_t>
CircuitIndex::touches(QubitId q) const
{
    qbAssert(q < circuit_->numQubits(),
             "CircuitIndex::touches: qubit out of range");
    return {gates_.data() + offsets_[q], gates_.data() + offsets_[q + 1]};
}

std::size_t
CircuitIndex::nextTouch(QubitId q, std::size_t from) const
{
    const std::span<const std::size_t> list = touches(q);
    const auto it = std::lower_bound(list.begin(), list.end(), from);
    return it == list.end() ? circuit_->size() : *it;
}

} // namespace qb::ir
