#include "analysis/dataflow.h"

#include <algorithm>

#include "support/logging.h"

namespace qb::analysis {

namespace {

/** splitmix64 finalizer: decorrelates wire indices and row digests so
 *  the XOR-over-wires state hash is position-sensitive. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

// ---------------------------------------------------------- AffineState

AffineState::AffineState(std::uint32_t num_qubits)
    : numQubits_(num_qubits),
      rows_(static_cast<std::size_t>(num_qubits) *
            ((static_cast<std::size_t>(num_qubits) + 63) / 64)),
      consts_((static_cast<std::size_t>(num_qubits) + 63) / 64),
      top_((static_cast<std::size_t>(num_qubits) + 63) / 64)
{
    for (ir::QubitId q = 0; q < num_qubits; ++q)
        row(q)[q / 64] |= std::uint64_t{1} << (q % 64);
    hash_ = 0;
    for (ir::QubitId q = 0; q < num_qubits; ++q)
        hash_ ^= wireDigest(q);
}

std::uint64_t
AffineState::wireDigest(ir::QubitId wire) const
{
    // FNV-1a over the row words, then const/⊤ bits, then a splitmix
    // of the wire index so wires with equal rows digest differently.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const std::uint64_t *r = row(wire);
    for (std::size_t i = 0; i < words(); ++i) {
        h ^= r[i];
        h *= 0x100000001b3ULL;
    }
    h ^= (bit(consts_, wire) ? 2u : 0u) | (bit(top_, wire) ? 1u : 0u);
    h *= 0x100000001b3ULL;
    return mix64(h ^ mix64(wire));
}

bool
AffineState::rowEmpty(ir::QubitId wire) const
{
    const std::uint64_t *r = row(wire);
    return std::all_of(r, r + words(),
                       [](std::uint64_t w) { return w == 0; });
}

bool
AffineState::isTop(ir::QubitId wire) const
{
    qbAssert(wire < numQubits_, "AffineState::isTop: out of range");
    return bit(top_, wire);
}

bool
AffineState::anyTop() const
{
    return std::any_of(top_.begin(), top_.end(),
                       [](std::uint64_t w) { return w != 0; });
}

bool
AffineState::isIdentity(ir::QubitId wire) const
{
    qbAssert(wire < numQubits_,
             "AffineState::isIdentity: out of range");
    if (bit(top_, wire) || bit(consts_, wire))
        return false;
    const std::uint64_t *r = row(wire);
    for (std::size_t i = 0; i < words(); ++i) {
        const std::uint64_t expect =
            i == wire / 64 ? std::uint64_t{1} << (wire % 64) : 0;
        if (r[i] != expect)
            return false;
    }
    return true;
}

bool
AffineState::mayDependOn(ir::QubitId wire, ir::QubitId q) const
{
    qbAssert(wire < numQubits_ && q < numQubits_,
             "AffineState::mayDependOn: out of range");
    if (bit(top_, wire))
        return true;
    return (row(wire)[q / 64] >> (q % 64)) & 1;
}

std::optional<bool>
AffineState::constantOf(ir::QubitId wire) const
{
    qbAssert(wire < numQubits_,
             "AffineState::constantOf: out of range");
    if (bit(top_, wire) || !rowEmpty(wire))
        return std::nullopt;
    return bit(consts_, wire);
}

void
AffineState::setTop(ir::QubitId wire)
{
    hash_ ^= wireDigest(wire);
    std::uint64_t *r = row(wire);
    std::fill(r, r + words(), 0);
    consts_[wire / 64] &= ~(std::uint64_t{1} << (wire % 64));
    top_[wire / 64] |= std::uint64_t{1} << (wire % 64);
    hash_ ^= wireDigest(wire);
}

void
AffineState::poison()
{
    for (ir::QubitId q = 0; q < numQubits_; ++q)
        if (!bit(top_, q))
            setTop(q);
}

void
AffineState::seedConstant(ir::QubitId wire, bool value)
{
    qbAssert(wire < numQubits_,
             "AffineState::seedConstant: out of range");
    hash_ ^= wireDigest(wire);
    std::uint64_t *r = row(wire);
    std::fill(r, r + words(), 0);
    top_[wire / 64] &= ~(std::uint64_t{1} << (wire % 64));
    if (value)
        consts_[wire / 64] |= std::uint64_t{1} << (wire % 64);
    else
        consts_[wire / 64] &= ~(std::uint64_t{1} << (wire % 64));
    hash_ ^= wireDigest(wire);
}

void
AffineState::applyGate(const ir::Gate &gate)
{
    switch (gate.kind()) {
      case ir::GateKind::X:
      case ir::GateKind::CNOT:
      case ir::GateKind::CCNOT:
      case ir::GateKind::MCX: {
        // Resolve the controls first: a provably-|0> control kills
        // the gate outright, constant-1 controls drop out, and what
        // survives decides whether the target update stays affine.
        bool saw_top_control = false;
        ir::QubitId symbolic = 0;
        std::size_t num_symbolic = 0;
        for (const ir::QubitId c : gate.controls()) {
            if (bit(top_, c)) {
                saw_top_control = true;
                continue;
            }
            if (rowEmpty(c)) {
                if (!bit(consts_, c))
                    return; // dead control: the gate never fires
                continue;   // constant-1 control: always fires
            }
            symbolic = c;
            ++num_symbolic;
        }
        const ir::QubitId t = gate.target();
        if (bit(top_, t))
            return; // ⊤ is sticky: t ^= f still reads the old t
        if (saw_top_control || num_symbolic >= 2) {
            setTop(t);
            return;
        }
        hash_ ^= wireDigest(t);
        if (num_symbolic == 0) {
            // Degenerate X: flip the constant bit.
            consts_[t / 64] ^= std::uint64_t{1} << (t % 64);
        } else {
            // Degenerate CNOT from the lone symbolic control.
            const std::uint64_t *src = row(symbolic);
            std::uint64_t *dst = row(t);
            for (std::size_t i = 0; i < words(); ++i)
                dst[i] ^= src[i];
            if (bit(consts_, symbolic))
                consts_[t / 64] ^= std::uint64_t{1} << (t % 64);
        }
        hash_ ^= wireDigest(t);
        return;
      }
      case ir::GateKind::Swap: {
        const ir::QubitId a = gate.qubits()[0];
        const ir::QubitId b = gate.qubits()[1];
        hash_ ^= wireDigest(a) ^ wireDigest(b);
        std::uint64_t *ra = row(a);
        std::swap_ranges(ra, ra + words(), row(b));
        const bool ca = bit(consts_, a), cb = bit(consts_, b);
        if (ca != cb) {
            consts_[a / 64] ^= std::uint64_t{1} << (a % 64);
            consts_[b / 64] ^= std::uint64_t{1} << (b % 64);
        }
        const bool ta = bit(top_, a), tb = bit(top_, b);
        if (ta != tb) {
            top_[a / 64] ^= std::uint64_t{1} << (a % 64);
            top_[b / 64] ^= std::uint64_t{1} << (b % 64);
        }
        hash_ ^= wireDigest(a) ^ wireDigest(b);
        return;
      }
      default:
        // Non-classical gate: no classical transition function
        // exists; poison everything.
        poison();
        return;
    }
}

void
AffineState::join(const AffineState &other)
{
    qbAssert(numQubits_ == other.numQubits_,
             "AffineState::join: width mismatch");
    for (ir::QubitId q = 0; q < numQubits_; ++q) {
        if (bit(top_, q))
            continue;
        const bool agree =
            !other.bit(other.top_, q) &&
            bit(consts_, q) == other.bit(other.consts_, q) &&
            std::equal(row(q), row(q) + words(), other.row(q));
        if (!agree)
            setTop(q);
    }
}

bool
AffineState::operator==(const AffineState &other) const
{
    return numQubits_ == other.numQubits_ && hash_ == other.hash_ &&
           rows_ == other.rows_ && consts_ == other.consts_ &&
           top_ == other.top_;
}

// -------------------------------------------------------- LivenessState

LivenessState::LivenessState(std::uint32_t num_qubits)
    : numQubits_(num_qubits),
      bits_((static_cast<std::size_t>(num_qubits) + 63) / 64)
{
}

void
LivenessState::setLive(ir::QubitId wire)
{
    qbAssert(wire < numQubits_, "LivenessState::setLive: out of range");
    bits_[wire / 64] |= std::uint64_t{1} << (wire % 64);
}

bool
LivenessState::isLive(ir::QubitId wire) const
{
    qbAssert(wire < numQubits_, "LivenessState::isLive: out of range");
    return (bits_[wire / 64] >> (wire % 64)) & 1;
}

void
LivenessState::applyGateBackward(const ir::Gate &gate)
{
    switch (gate.kind()) {
      case ir::GateKind::X:
      case ir::GateKind::CNOT:
      case ir::GateKind::CCNOT:
      case ir::GateKind::MCX:
        // t ^= AND(controls): a live target reads its old value AND
        // every control; a dead target observes nothing.
        if (isLive(gate.target()))
            for (const ir::QubitId c : gate.controls())
                setLive(c);
        return;
      case ir::GateKind::Swap: {
        // Exact permutation of the live set: the value live in a
        // after the swap was in b before it, and vice versa.
        const ir::QubitId a = gate.qubits()[0];
        const ir::QubitId b = gate.qubits()[1];
        const bool la = isLive(a), lb = isLive(b);
        if (la != lb) {
            bits_[a / 64] ^= std::uint64_t{1} << (a % 64);
            bits_[b / 64] ^= std::uint64_t{1} << (b % 64);
        }
        return;
      }
      default:
        // Non-classical gates observe all their operands.
        for (const ir::QubitId q : gate.qubits())
            setLive(q);
        return;
    }
}

void
LivenessState::join(const LivenessState &other)
{
    qbAssert(numQubits_ == other.numQubits_,
             "LivenessState::join: width mismatch");
    for (std::size_t i = 0; i < bits_.size(); ++i)
        bits_[i] |= other.bits_[i];
}

// -------------------------------------------------------------- clients

std::vector<bool>
affineTopWires(const ir::Circuit &circuit)
{
    return affineTopWires(circuit.gates(), circuit.numQubits());
}

std::vector<bool>
affineTopWires(std::span<const ir::Gate> gates, std::uint32_t num_qubits)
{
    std::vector<bool> top(num_qubits, false);
    for (const ir::Gate &gate : gates) {
        switch (gate.kind()) {
          case ir::GateKind::X:
          case ir::GateKind::CNOT:
          case ir::GateKind::CCNOT:
          case ir::GateKind::MCX: {
            const auto controls = gate.controls();
            bool poisoned = controls.size() >= 2;
            for (const ir::QubitId c : controls)
                poisoned = poisoned || top[c];
            if (poisoned)
                top[gate.target()] = true;
            break;
          }
          case ir::GateKind::Swap: {
            const ir::QubitId a = gate.qubits()[0];
            const ir::QubitId b = gate.qubits()[1];
            const bool ta = top[a];
            top[a] = top[b];
            top[b] = ta;
            break;
          }
          default:
            std::fill(top.begin(), top.end(), true);
            break;
        }
    }
    return top;
}

bool
writesWire(const ir::Circuit &circuit, ir::QubitId q)
{
    for (const ir::Gate &gate : circuit.gates()) {
        switch (gate.kind()) {
          case ir::GateKind::X:
          case ir::GateKind::CNOT:
          case ir::GateKind::CCNOT:
          case ir::GateKind::MCX:
            if (gate.target() == q)
                return true;
            break;
          case ir::GateKind::Swap:
            if (gate.touches(q))
                return true;
            break;
          default:
            break;
        }
    }
    return false;
}

} // namespace qb::analysis
