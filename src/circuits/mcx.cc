#include "circuits/mcx.h"

#include "support/logging.h"
#include "support/strings.h"

namespace qb::circuits {

using ir::Circuit;
using ir::Gate;
using ir::QubitId;

std::uint32_t
gidneyMcxAncilla(std::uint32_t m)
{
    return 2 * m; // after the target
}

ir::Circuit
gidneyMcx(std::uint32_t m)
{
    qbAssert(m >= 4, "gidneyMcx requires m >= 4");
    const std::uint32_t n = 2 * m - 1;
    Circuit circuit(n + 2, format("gidney-mcx(m=%u)", m));
    for (std::uint32_t i = 1; i <= n; ++i)
        circuit.setLabel(i - 1, format("q[%u]", i));
    circuit.setLabel(n, "t");
    circuit.setLabel(n + 1, "anc");
    auto q = [](std::uint32_t i) { return i - 1; };
    const QubitId t = n;
    const QubitId anc = n + 1;

    // "First part" of mcx.qbr: the odd-position ladder conjugating the
    // Toffoli onto the dirty ancilla; appears twice per half.
    auto odd_part = [&]() {
        for (int rep = 0; rep < 2; ++rep) {
            circuit.append(Gate::ccnot(q(n - 1), q(n), anc));
            for (std::uint32_t i = m - 2; i >= 2; --i)
                circuit.append(Gate::ccnot(q(2 * i), q(2 * i + 1),
                                           q(2 * i + 2)));
            circuit.append(Gate::ccnot(q(1), q(3), q(4)));
            for (std::uint32_t i = 2; i <= m - 2; ++i)
                circuit.append(Gate::ccnot(q(2 * i), q(2 * i + 1),
                                           q(2 * i + 2)));
        }
    };
    // "Second part": the even-position ladder targeting t.
    auto even_part = [&]() {
        for (int rep = 0; rep < 2; ++rep) {
            circuit.append(Gate::ccnot(q(n), anc, t));
            for (std::uint32_t i = m - 1; i >= 3; --i)
                circuit.append(Gate::ccnot(q(2 * i - 1), q(2 * i),
                                           q(2 * i + 1)));
            circuit.append(Gate::ccnot(q(2), q(4), q(5)));
            for (std::uint32_t i = 3; i <= m - 1; ++i)
                circuit.append(Gate::ccnot(q(2 * i - 1), q(2 * i),
                                           q(2 * i + 1)));
        }
    };

    odd_part();  // part 1
    even_part(); // part 2
    odd_part();  // part 3
    even_part(); // part 4 (anc is released after its second Toffoli)
    return circuit;
}

std::size_t
gidneyMcxAncillaRelease(std::uint32_t m)
{
    const Circuit circuit = gidneyMcx(m);
    const auto interval =
        circuit.busyInterval(gidneyMcxAncilla(m));
    qbAssert(interval.has_value(), "ancilla is never used");
    return interval->second + 1;
}

ir::Circuit
barencoMcx(std::uint32_t m)
{
    qbAssert(m >= 3, "barencoMcx requires m >= 3 controls");
    // Controls [0, m), target m, dirty ancillas [m+1, m+1 + (m-2)).
    Circuit circuit(2 * m - 1, format("barenco-mcx(m=%u)", m));
    for (std::uint32_t i = 0; i < m; ++i)
        circuit.setLabel(i, format("x[%u]", i + 1));
    circuit.setLabel(m, "y");
    for (std::uint32_t i = 0; i + 2 < m; ++i)
        circuit.setLabel(m + 1 + i, format("w[%u]", i + 1));
    auto x = [](std::uint32_t i) { return i - 1; };     // 1-based
    auto a = [m](std::uint32_t i) { return m + i; };    // 1-based
    const QubitId y = m;

    // Lemma 7.2 V-chain, applied twice; 4(m-2) Toffolis total.
    for (int rep = 0; rep < 2; ++rep) {
        circuit.append(Gate::ccnot(x(m), a(m - 2), y));
        for (std::uint32_t i = m - 2; i >= 2; --i)
            circuit.append(Gate::ccnot(x(i + 1), a(i - 1), a(i)));
        circuit.append(Gate::ccnot(x(1), x(2), a(1)));
        for (std::uint32_t i = 2; i <= m - 2; ++i)
            circuit.append(Gate::ccnot(x(i + 1), a(i - 1), a(i)));
    }
    return circuit;
}

} // namespace qb::circuits
