/**
 * @file
 * Seeded input sets of the closed-loop workloads.
 *
 * Sizes are drawn stratified: the size range is cut into as many
 * equal strata as there are programs of a family, and each program
 * draws its size uniformly inside its own stratum.  Every seed thus
 * covers the whole range with the same density, so percentiles
 * measure the program rather than the luck of one draw.
 */
#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "circuits/qbr_text.h"
#include "sim/classical.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qbbench {
namespace {

/** Size of program @p i of @p count, stratified over [lo, hi]. */
std::uint32_t
stratified(qb::Rng &rng, std::uint32_t lo, std::uint32_t hi, std::size_t i,
           std::size_t count)
{
    const double width = static_cast<double>(hi - lo + 1);
    const double at = (static_cast<double>(i) + rng.nextDouble()) /
                      static_cast<double>(count);
    return std::min(hi, lo + static_cast<std::uint32_t>(width * at));
}

Input
safeInput(const std::string &family, std::uint32_t size,
          const std::string &source)
{
    return {qb::format("%s/%u", family.c_str(), size), family, source,
            Expect::AllSafe, {}};
}

/** MCX ladders (plain or binary-heavy, a seeded coin each) and
 *  wide-linear mirrors, half and half, in seeded order. */
std::vector<Input>
ladderInputs(std::uint64_t seed, std::uint32_t mcx_lo, std::uint32_t mcx_hi,
             std::uint32_t wide_lo, std::uint32_t wide_hi)
{
    constexpr std::size_t kPerFamily = 24;
    qb::Rng rng(seed);
    std::vector<Input> out;
    for (std::size_t i = 0; i < kPerFamily; ++i) {
        const std::uint32_t m = stratified(rng, mcx_lo, mcx_hi, i, kPerFamily);
        out.push_back(rng.nextBool()
                          ? safeInput("mcx", m, qb::circuits::mcxQbrSource(m))
                          : safeInput("mcx_binary_heavy", m,
                                      qb::circuits::binaryHeavyMcxQbrSource(m)));
    }
    for (std::size_t i = 0; i < kPerFamily; ++i) {
        const std::uint32_t n =
            stratified(rng, wide_lo, wide_hi, i, kPerFamily);
        out.push_back(safeInput("wide_linear", n,
                                qb::circuits::wideLinearMirrorQbrSource(n)));
    }
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

/**
 * Verified qubits of @p source for which random classical inputs
 * show a violation of (6.1) or (6.2) on the qubit's borrow...release
 * slice: the mutant's known-unsafe qubits, found without any solver.
 */
std::vector<qb::ir::QubitId>
simulationWitnesses(const std::string &source, qb::Rng &rng)
{
    constexpr int kTrials = 32;
    const auto program = qb::lang::elaborateSource(source);
    std::vector<qb::ir::QubitId> out;
    for (qb::ir::QubitId q :
         program.qubitsWithRole(qb::lang::QubitRole::BorrowVerify)) {
        const auto &info = program.qubits[q];
        const auto scope =
            program.circuit.slice(info.scopeBegin, info.scopeEnd);
        for (int t = 0; t < kTrials; ++t) {
            std::vector<bool> x(scope.numQubits());
            for (std::size_t k = 0; k < x.size(); ++k)
                x[k] = rng.nextBool();
            x[q] = false;
            if (replayViolates(scope, q,
                               qb::core::FailedCondition::ZeroRestoration,
                               x) ||
                replayViolates(scope, q,
                               qb::core::FailedCondition::PlusRestoration,
                               x)) {
                out.push_back(q);
                break;
            }
        }
    }
    return out;
}

/**
 * adder.qbr with one gate of its final uncompute loop dropped at
 * iteration @p k: the loop is split around k and the iteration is
 * written out with concrete indices, minus gate @p gate (0..2).
 */
std::string
adderMutantSource(std::uint32_t n, std::uint32_t k, unsigned gate)
{
    const std::string loop = "for i = 2 to (n - 1) {\n"
                             "    CCNOT[a[i - 1], q[i], a[i]];\n"
                             "    X[q[i]];\n"
                             "    CNOT[q[i], a[i]];\n"
                             "}\n";
    std::string source = qb::circuits::adderQbrSource(n);
    const std::size_t at = source.rfind(loop);
    if (at == std::string::npos)
        throw std::runtime_error("adder.qbr layout changed: the "
                                 "uncompute loop was not found");
    const std::string body[3] = {
        qb::format("CCNOT[a[%u], q[%u], a[%u]];\n", k - 1, k, k),
        qb::format("X[q[%u]];\n", k),
        qb::format("CNOT[q[%u], a[%u]];\n", k, k)};
    std::string split = qb::format("for i = 2 to %u {\n", k - 1) +
                        loop.substr(loop.find('\n') + 1);
    for (unsigned g = 0; g < 3; ++g)
        if (g != gate)
            split += body[g];
    split += qb::format("for i = %u to (n - 1) {\n", k + 1) +
             loop.substr(loop.find('\n') + 1);
    source.replace(at, loop.size(), split);
    return source;
}

} // namespace

std::vector<Input>
ladderJsonInputs(std::uint64_t seed)
{
    return ladderInputs(seed, 150, 350, 256, 1024);
}

std::vector<Input>
ladderCliInputs(std::uint64_t seed)
{
    return ladderInputs(seed ^ 0x5bd1e995u, 80, 200, 128, 512);
}

std::vector<Input>
adderRaceInputs(std::uint64_t seed)
{
    constexpr std::size_t kSafe = 36;
    constexpr std::size_t kMutants = 12;
    qb::Rng rng(seed ^ 0x27d4eb2fu);
    std::vector<Input> out;
    for (std::size_t i = 0; i < kSafe; ++i) {
        const std::uint32_t n = stratified(rng, 16, 40, i, kSafe);
        out.push_back(safeInput("adder", n, qb::circuits::adderQbrSource(n)));
    }
    // A mutant's cost grows with the number of qubits its dropped gate
    // leaves unsafe, which depends on where in the loop the gate sat.
    // Sizes and drop positions are both stratified, paired by a fixed
    // permutation (5 is coprime to 12), and the dropped gate cycles
    // through the loop body, so every seed carries the same spread of
    // damage.
    for (std::size_t j = 0; j < kMutants; ++j) {
        const std::uint32_t n = stratified(rng, 16, 40, j, kMutants);
        const std::size_t position = (5 * j) % kMutants;
        const auto gate = static_cast<unsigned>(j % 3);
        // Redraw inside the stratum until simulation witnesses the
        // damage: a mutant's unsafety must be known before the run.
        for (int attempt = 0;; ++attempt) {
            if (attempt == 64)
                throw std::runtime_error("no witnessed adder mutant");
            // k in [3, n - 2] keeps both split loops non-empty.
            const std::uint32_t k =
                stratified(rng, 3, n - 2, position, kMutants);
            Input in{qb::format("adder_mutant/%u/k%u/g%u", n, k, gate),
                     "adder_mutant", adderMutantSource(n, k, gate),
                     Expect::Mutant, {}};
            in.witnessed = simulationWitnesses(in.source, rng);
            if (!in.witnessed.empty()) {
                out.push_back(std::move(in));
                break;
            }
        }
    }
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

} // namespace qbbench
