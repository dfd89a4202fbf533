#include "analysis/permutation.h"

#include <algorithm>
#include <span>
#include <vector>

#include "support/logging.h"

namespace qb::analysis {

namespace {

/** One cone wire of the backward walk: its touch list, cut to the
 *  gates not yet visited, which all lie in [begin, the gate where the
 *  wire joined). */
struct ConeWire
{
    ir::QubitId wire;
    std::span<const std::size_t> pending;
};

/** A relevant gate compiled for the 2^k sweep: X-family gates flip
 *  @c flip when every bit of @c controls is set; a Swap flips both
 *  bits of @c flip when they differ. */
struct Step
{
    bool swap;
    std::uint64_t controls;
    std::uint64_t flip;
};

} // namespace

PermutationVerdict
permutationCheck(const ir::CircuitIndex &index, ir::QubitId q,
                 std::size_t begin, std::size_t end, unsigned window,
                 std::size_t *visited)
{
    const ir::Circuit &circuit = index.circuit();
    qbAssert(q < circuit.numQubits(),
             "permutationCheck: qubit out of range");
    qbAssert(begin <= end && end <= circuit.size(),
             "permutationCheck: gate range out of bounds");
    window = std::min(window, kMaxPermutationWindow);

    // Backward cone: visit last-to-first every gate of [begin, end)
    // that touches a wire already in the cone - the largest pending
    // entry over the cone wires' touch lists - and skip the rest,
    // which cannot reach q.  A gate writing a cone wire is relevant
    // and every operand joins the cone, its list cut below that gate.
    const std::vector<ir::Gate> &gates = circuit.gates();
    std::vector<ConeWire> cone;
    const auto position = [&](ir::QubitId w) {
        for (std::size_t j = 0; j < cone.size(); ++j)
            if (cone[j].wire == w)
                return static_cast<int>(j);
        return -1;
    };
    const auto join = [&](ir::QubitId w, std::size_t below) {
        if (position(w) >= 0)
            return;
        const std::span<const std::size_t> list = index.touches(w);
        const auto first =
            std::lower_bound(list.begin(), list.end(), begin);
        const auto last = std::lower_bound(first, list.end(), below);
        cone.push_back({w, {first, last}});
    };
    join(q, end);
    // Each relevant gate is compiled as it is found: its operands are
    // all in the cone by then, and cone positions never change.
    const auto bit = [&](ir::QubitId w) {
        return std::uint64_t{1} << position(w);
    };
    std::vector<Step> steps; // in reverse gate order until the sweep
    std::size_t seen = 0;
    const auto verdict = [&](PermutationVerdict v) {
        if (visited)
            *visited = seen;
        return v;
    };
    for (;;) {
        std::size_t i = 0;
        bool any = false;
        for (const ConeWire &c : cone)
            if (!c.pending.empty() && (!any || c.pending.back() > i)) {
                i = c.pending.back();
                any = true;
            }
        if (!any)
            break;
        for (ConeWire &c : cone)
            if (!c.pending.empty() && c.pending.back() == i)
                c.pending = c.pending.first(c.pending.size() - 1);
        ++seen;
        const ir::Gate &gate = gates[i];
        // Every visited gate touches the cone, so a non-classical one
        // voids the analysis (phases are invisible to a truth-table
        // sweep).  A classical one matters only if it writes the cone.
        if (!gate.isClassical())
            return verdict(PermutationVerdict::TooWide);
        if (gate.kind() != ir::GateKind::Swap &&
            position(gate.target()) < 0)
            continue;
        for (const ir::QubitId w : gate.qubits())
            join(w, i);
        if (cone.size() > window)
            return verdict(PermutationVerdict::TooWide);
        if (gate.kind() == ir::GateKind::Swap) {
            steps.push_back(
                {true, 0, bit(gate.qubits()[0]) | bit(gate.qubits()[1])});
            continue;
        }
        std::uint64_t controls = 0;
        for (const ir::QubitId c : gate.controls())
            controls |= bit(c);
        steps.push_back({false, controls, bit(gate.target())});
    }

    // Forward-simulate the relevant gates over every assignment of
    // the cone; wires outside the cone cannot reach q's output (that
    // is what the backward walk established), so they need no values.
    // Bit j of a state is the value of wire cone[j]; q is bit 0.
    std::reverse(steps.begin(), steps.end());
    const std::uint64_t count = std::uint64_t{1} << cone.size();
    for (std::uint64_t input = 0; input < count; ++input) {
        std::uint64_t state = input;
        for (const Step &s : steps) {
            if (s.swap) {
                const std::uint64_t both = state & s.flip;
                if (both != 0 && both != s.flip)
                    state ^= s.flip;
            } else if ((state & s.controls) == s.controls) {
                state ^= s.flip;
            }
        }
        if ((state ^ input) & 1)
            return verdict(PermutationVerdict::NotRestored);
    }
    return verdict(PermutationVerdict::Restored);
}

PermutationVerdict
permutationCheck(const ir::Circuit &circuit, ir::QubitId q,
                 unsigned window)
{
    const ir::CircuitIndex index(circuit);
    return permutationCheck(index, q, 0, circuit.size(), window);
}

} // namespace qb::analysis
