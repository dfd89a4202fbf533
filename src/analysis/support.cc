#include "analysis/support.h"

#include <algorithm>

#include "support/logging.h"

namespace qb::analysis {

SupportSets::SupportSets(std::uint32_t num_qubits)
    : numQubits_(num_qubits),
      bits_(static_cast<std::size_t>(num_qubits) *
                ((static_cast<std::size_t>(num_qubits) + 63) / 64),
            0)
{
    for (ir::QubitId q = 0; q < num_qubits; ++q)
        row(q)[q / 64] |= std::uint64_t{1} << (q % 64);
}

void
SupportSets::applyGate(const ir::Gate &gate)
{
    if (poisoned_)
        return;
    if (!gate.isClassical()) {
        poisoned_ = true;
        return;
    }
    const std::size_t w = words();
    if (gate.kind() == ir::GateKind::Swap) {
        std::uint64_t *a = row(gate.qubits()[0]);
        std::uint64_t *b = row(gate.qubits()[1]);
        std::swap_ranges(a, a + w, b);
        return;
    }
    // X family: the target's new value is target XOR AND(controls),
    // so its dependence set grows by every control's.
    std::uint64_t *t = row(gate.target());
    for (const ir::QubitId c : gate.controls()) {
        const std::uint64_t *src = row(c);
        for (std::size_t i = 0; i < w; ++i)
            t[i] |= src[i];
    }
}

bool
SupportSets::mayDependOn(ir::QubitId wire, ir::QubitId q) const
{
    qbAssert(wire < numQubits_ && q < numQubits_,
             "SupportSets::mayDependOn: qubit out of range");
    if (poisoned_)
        return true;
    return (row(wire)[q / 64] >> (q % 64)) & 1;
}

SupportSets
supportsOf(const ir::Circuit &circuit)
{
    SupportSets sets(circuit.numQubits());
    for (const ir::Gate &gate : circuit.gates())
        sets.applyGate(gate);
    return sets;
}

bool
supportDischargesZero(const ir::Circuit &circuit, ir::QubitId q)
{
    if (!circuit.isClassical())
        return false;
    for (const ir::Gate &gate : circuit.gates()) {
        if (gate.kind() == ir::GateKind::Swap) {
            if (gate.touches(q))
                return false;
        } else if (gate.target() == q) {
            return false;
        }
    }
    return true;
}

bool
supportDischargesPlus(const ir::Circuit &circuit, ir::QubitId q)
{
    if (!circuit.isClassical())
        return false;
    // Column q of supportsOf() alone: one bit per wire and O(gates),
    // where the full sets cost O(gates * wires / 64) and wires^2 bits.
    std::vector<bool> depends(circuit.numQubits(), false);
    depends[q] = true;
    for (const ir::Gate &gate : circuit.gates()) {
        if (gate.kind() == ir::GateKind::Swap) {
            const ir::QubitId a = gate.qubits()[0];
            const ir::QubitId b = gate.qubits()[1];
            const bool da = depends[a];
            depends[a] = depends[b];
            depends[b] = da;
            continue;
        }
        for (const ir::QubitId c : gate.controls())
            if (depends[c]) {
                depends[gate.target()] = true;
                break;
            }
    }
    for (ir::QubitId other = 0; other < circuit.numQubits(); ++other) {
        if (other != q && depends[other])
            return false;
    }
    return true;
}

} // namespace qb::analysis
