#include "circuits/qbr_text.h"

#include <stdexcept>

#include "support/strings.h"

namespace qb::circuits {

std::string
adderQbrSource(std::uint32_t n)
{
    // Below n = 3 the loop bounds invert and the emitted text indexes
    // qubits that do not exist: reject here with the standard
    // bad-argument exception instead of handing a broken program to
    // the parser (whose error would point at generated text the user
    // never wrote).
    if (n < 3)
        throw std::invalid_argument(
            format("adderQbrSource requires n >= 3 (got %u)", n));
    std::string out = format("// adder.qbr\nlet n = %u;\n", n);
    out += R"(borrow@ q[n]; // inputs: no assumptions, skip verification
borrow a[n - 1]; // dirty qubits
CNOT[a[n - 1], q[n]];
for i = (n - 1) to 2 {
    CNOT[q[i], a[i]];
    X[q[i]];
    CCNOT[a[i - 1], q[i], a[i]];
}
CNOT[q[1], a[1]];
for i = 2 to (n - 1) {
    CCNOT[a[i - 1], q[i], a[i]];
}
CNOT[a[n - 1], q[n]];
X[q[n]];

// reverse the circuit to uncompute
for i = (n - 1) to 2 {
    CCNOT[a[i - 1], q[i], a[i]];
}
CNOT[q[1], a[1]];
for i = 2 to (n - 1) {
    CCNOT[a[i - 1], q[i], a[i]];
    X[q[i]];
    CNOT[q[i], a[i]];
}
)";
    return out;
}

std::string
mcxQbrSource(std::uint32_t m)
{
    if (m < 4)
        throw std::invalid_argument(
            format("mcxQbrSource requires m >= 4 (got %u)", m));
    std::string out = format("// mcx.qbr\nlet m = %u;\n", m);
    out += R"(let n = m + (m - 1); // n-controlled NOT gate

borrow@ q[n];
borrow@ t;

borrow anc;

// first part
CCNOT[q[n - 1], q[n], anc];
for i = (m - 2) to 2 {
    CCNOT[q[2 * i], q[2 * i + 1], q[2 * i + 2]];
}
CCNOT[q[1], q[3], q[4]];
for i = 2 to (m - 2) {
    CCNOT[q[2 * i], q[2 * i + 1], q[2 * i + 2]];
}
CCNOT[q[n - 1], q[n], anc];
for i = (m - 2) to 2 {
    CCNOT[q[2 * i], q[2 * i + 1], q[2 * i + 2]];
}
CCNOT[q[1], q[3], q[4]];
for i = 2 to (m - 2) {
    CCNOT[q[2 * i], q[2 * i + 1], q[2 * i + 2]];
}

// second part
CCNOT[q[n], anc, t];
for i = (m - 1) to 3 {
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}
CCNOT[q[2], q[4], q[5]];
for i = 3 to (m - 1) {
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}
CCNOT[q[n], anc, t];
for i = (m - 1) to 3 {
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}
CCNOT[q[2], q[4], q[5]];
for i = 3 to (m - 1) {
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}

// third part
CCNOT[q[n - 1], q[n], anc];
for i = (m - 2) to 2 {
    CCNOT[q[2 * i], q[2 * i + 1], q[2 * i + 2]];
}
CCNOT[q[1], q[3], q[4]];
for i = 2 to (m - 2) {
    CCNOT[q[2 * i], q[2 * i + 1], q[2 * i + 2]];
}
CCNOT[q[n - 1], q[n], anc];
for i = (m - 2) to 2 {
    CCNOT[q[2 * i], q[2 * i + 1], q[2 * i + 2]];
}
CCNOT[q[1], q[3], q[4]];
for i = 2 to (m - 2) {
    CCNOT[q[2 * i], q[2 * i + 1], q[2 * i + 2]];
}

// fourth part
CCNOT[q[n], anc, t];
for i = (m - 1) to 3 {
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}
CCNOT[q[2], q[4], q[5]];
for i = 3 to (m - 1) {
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}
CCNOT[q[n], anc, t];

release anc;

for i = (m - 1) to 3 {
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}
CCNOT[q[2], q[4], q[5]];
for i = 3 to (m - 1) {
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}
)";
    return out;
}

std::string
binaryHeavyMcxQbrSource(std::uint32_t m)
{
    // Reuse the real benchmark program and wrap the dirty wire in a
    // self-inverse dressing borrowed from the adder's carry motif:
    // CNOT; X; CCNOT mixes the dirty wire into the AND arguments of
    // the ladder, which is exactly what gives the Tseitin encoding
    // nested conjunction sharing - a binary implication graph with
    // equivalence cycles and transitively redundant edges, where the
    // plain ladder's graph is a tree.
    std::string out = mcxQbrSource(m);
    const std::string decl = "borrow anc;\n";
    const std::string dress = R"(
// binary-heavy dressing (adder carry motif on the dirty wire)
CNOT[q[2], anc];
X[q[2]];
CCNOT[q[1], q[2], anc];
)";
    const std::string rel = "release anc;";
    const std::string undress =
        R"(// undo the dressing before the wire is released
CCNOT[q[1], q[2], anc];
X[q[2]];
CNOT[q[2], anc];

release anc;)";
    out.replace(out.find(decl), decl.size(), decl + dress);
    out.replace(out.find(rel), rel.size(), undress);
    return out;
}

std::string
randomQbrSource(Rng &rng, const RandomQbrOptions &options)
{
    if (options.minQubits < 3 || options.maxQubits < options.minQubits)
        throw std::invalid_argument(
            "randomQbrSource requires 3 <= minQubits <= maxQubits");
    if (options.maxBodyGates < options.minBodyGates)
        throw std::invalid_argument(
            "randomQbrSource requires minBodyGates <= maxBodyGates");
    const auto nq = static_cast<std::uint32_t>(
        options.minQubits +
        rng.nextBelow(options.maxQubits - options.minQubits + 1));
    std::string src = format("borrow@ q[%u];\n", nq);
    // One weighted-random gate over a shuffled operand pool; when
    // @p extra is non-empty it joins the pool (the borrowed wire).
    auto random_gate = [&](const std::string &extra) {
        std::vector<std::string> operands;
        operands.reserve(nq + 1);
        for (std::uint32_t i = 1; i <= nq; ++i)
            operands.push_back(format("q[%u]", i));
        if (!extra.empty())
            operands.push_back(extra);
        // Fisher-Yates via repeated swaps (deterministic in rng).
        for (std::size_t i = operands.size(); i > 1; --i)
            std::swap(operands[i - 1], operands[rng.nextBelow(i)]);
        const double total = options.xWeight + options.cnotWeight +
                             options.ccnotWeight;
        const double draw = rng.nextDouble() * total;
        if (draw < options.xWeight)
            return "X[" + operands[0] + "];\n";
        if (draw < options.xWeight + options.cnotWeight)
            return "CNOT[" + operands[0] + ", " + operands[1] +
                   "];\n";
        return "CCNOT[" + operands[0] + ", " + operands[1] + ", " +
               operands[2] + "];\n";
    };
    const auto prefix = static_cast<std::uint32_t>(
        rng.nextBelow(options.maxPrefixGates + 1));
    for (std::uint32_t i = 0; i < prefix; ++i)
        src += random_gate("");
    src += "borrow a;\n";
    const auto body = static_cast<std::uint32_t>(
        options.minBodyGates +
        rng.nextBelow(options.maxBodyGates - options.minBodyGates +
                      1));
    for (std::uint32_t i = 0; i < body; ++i)
        src += random_gate(rng.nextBool(options.borrowTouchProb)
                               ? "a"
                               : "");
    src += "release a;\n";
    const auto suffix = static_cast<std::uint32_t>(
        rng.nextBelow(options.maxSuffixGates + 1));
    for (std::uint32_t i = 0; i < suffix; ++i)
        src += random_gate("");
    return src;
}

std::string
mirrorMcxQbrSource(std::uint32_t m)
{
    if (m < 3)
        throw std::invalid_argument(
            format("mirrorMcxQbrSource requires m >= 3 (got %u)", m));
    std::string out = format("// mirror_mcx.qbr\nlet m = %u;\n", m);
    out += R"(borrow@ q[m]; // inputs: no assumptions, skip verification
borrow w; // dirty qubit, restored by the cell below

// compute: a CCNOT ladder over the inputs (scale knob)
for i = 1 to (m - 2) {
    CCNOT[q[i], q[i + 1], q[i + 2]];
}

// restore cell: w ^= (q1 & q2) ^ (q1 & ~q2) ^ q1 = 0
CCNOT[q[1], q[2], w];
X[q[2]];
CCNOT[q[1], q[2], w];
X[q[2]];
CNOT[q[1], w];

// uncompute: the ladder, mirrored
for i = (m - 2) to 1 {
    CCNOT[q[i], q[i + 1], q[i + 2]];
}

release w;
)";
    return out;
}

/** The wide-linear mirror, with @p toffoli spliced into the fold and
 *  into its undo (empty for the purely linear program). */
static std::string
wideLinearSource(const char *generator, const char *file,
                 std::uint32_t n, const char *toffoli)
{
    if (n < 4)
        throw std::invalid_argument(
            format("%s requires n >= 4 (got %u)", generator, n));
    std::string out = format("// %s\nlet n = %u;\n", file, n);
    out += R"(borrow@ q[n]; // inputs: no assumptions, skip verification
borrow w; // dirty qubit: its cone spans all n+1 wires

// mixing: pull every input into the cone of w
for i = 1 to (n - 1) {
    CNOT[q[i], q[i + 1]];
}

// fold every mixed input into w ...
for i = 1 to n {
    CNOT[q[i], w];
}
)";
    out += toffoli;
    out += R"(X[w];

// ... and undo the fold in rotated order (not a textual mirror)
for i = 2 to n {
    CNOT[q[i], w];
}
CNOT[q[1], w];
)";
    out += toffoli;
    out += R"(X[w];

release w;
)";
    return out;
}

std::string
wideLinearMirrorQbrSource(std::uint32_t n)
{
    return wideLinearSource("wideLinearMirrorQbrSource",
                            "wide_linear_mirror.qbr", n, "");
}

std::string
wideLinearToffoliMirrorQbrSource(std::uint32_t n)
{
    return wideLinearSource("wideLinearToffoliMirrorQbrSource",
                            "wide_linear_toffoli_mirror.qbr", n,
                            "CCNOT[q[1], q[2], w];\n");
}

} // namespace qb::circuits
