/**
 * @file
 * Multi-controlled NOT constructions with dirty qubits.
 *
 * gidneyMcx() follows the paper's mcx.qbr benchmark (Section 10.4),
 * which implements a (2m-1)-controlled NOT with a single borrowed
 * dirty ancilla and 16(m-2) Toffoli gates, adapted from Gidney's
 * "Constructing Large Controlled Nots".
 *
 * barencoMcx() is the classic Barenco et al. decomposition of an
 * m-controlled NOT into 4(m-2) Toffolis using m-2 dirty ancillas,
 * provided as an additional library routine and test workload.
 */

#ifndef QB_CIRCUITS_MCX_H
#define QB_CIRCUITS_MCX_H

#include <cstdint>

#include "ir/circuit.h"

namespace qb::circuits {

/**
 * The paper's MCX benchmark circuit for parameter m >= 4.
 *
 * Layout (matching mcx.qbr): controls q[1..n] = qubits [0, n) with
 * n = 2m-1, target t = qubit n, dirty ancilla anc = qubit n+1.
 * Implements MCX[q[1..n] -> t] while safely uncomputing anc.
 */
ir::Circuit gidneyMcx(std::uint32_t m);

/** Id of the dirty ancilla anc in gidneyMcx(m). */
std::uint32_t gidneyMcxAncilla(std::uint32_t m);
/** Gate index at which anc's lifetime ends (its release point). */
std::size_t gidneyMcxAncillaRelease(std::uint32_t m);

/**
 * Barenco et al. V-chain: MCX with @p m controls (m >= 3) using m-2
 * dirty ancillas and 4(m-2) Toffolis.
 *
 * Layout: controls = [0, m), target = m, dirty ancillas =
 * [m+1, 2m-1).
 */
ir::Circuit barencoMcx(std::uint32_t m);

} // namespace qb::circuits

#endif // QB_CIRCUITS_MCX_H
