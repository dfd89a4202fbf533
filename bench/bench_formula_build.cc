/**
 * @file
 * Experiment E7 - the Section 6.2 claim that "the construction of
 * Boolean formulas involves only a linear scan of the circuit and
 * completes in under one second", plus an ablation of the arena's
 * structural simplification.
 *
 * Benchmarks:
 *  - FormulaBuildAdder / FormulaBuildMcx: time of the per-qubit
 *    formula construction (linear scan) alone, across circuit sizes.
 *  - CofactorSweepAdder: the substitution (cofactor) stage behind
 *    formula (6.2), which dominates verification at large n.
 *  - FormulaBuildWideLinear / FormulaBuildWideLinearToffoli: the scan
 *    over circuits::wideLinearMirrorQbrSource and its Toffoli variant,
 *    whose dirty-qubit cone is one n-ary XOR.  The arena flattens,
 *    sorts and re-interns that XOR on every CNOT onto the wire, so
 *    this scan is quadratic, not linear.  The engine skips it when
 *    the affine pass discharges every condition (the plain family);
 *    the Toffoli sends w to ⊤, so that family still pays it.
 *    One run on a 4-vCPU Xeon host, n = 1024 / 2048 / 4096 / 8192:
 *      WideLinear         60 ms / 257 ms / 1.49 s / 8.22 s
 *      WideLinearToffoli  86 ms / 402 ms / 1.86 s / 8.39 s
 *    Least-squares exponents 2.4 and 2.2, while arena_nodes only
 *    doubles per doubling (4.1k -> 32.8k).  ROADMAP item 2(b) targets
 *    under 100 ms at n = 8192 with an exponent of at most 1.2.
 */

#include <benchmark/benchmark.h>

#include "boolexpr/arena.h"
#include "circuits/adders.h"
#include "circuits/mcx.h"
#include "circuits/qbr_text.h"
#include "core/formula_builder.h"
#include "lang/elaborate.h"

namespace {

/** Time the scan over @p circuit; report its arena size. */
void
formulaBuild(benchmark::State &state, const qb::ir::Circuit &circuit)
{
    std::size_t nodes = 0;
    for (auto _ : state) {
        qb::bexp::Arena arena;
        qb::core::FormulaBuilder builder(arena,
                                         circuit.numQubits());
        builder.applyCircuit(circuit);
        nodes = arena.numNodes();
        benchmark::DoNotOptimize(nodes);
    }
    state.counters["arena_nodes"] = static_cast<double>(nodes);
    state.counters["gates"] = static_cast<double>(circuit.size());
}

void
FormulaBuildAdder(benchmark::State &state)
{
    formulaBuild(state, qb::circuits::hanerCarryCircuit(
                            static_cast<std::uint32_t>(state.range(0))));
}

void
FormulaBuildMcx(benchmark::State &state)
{
    formulaBuild(state, qb::circuits::gidneyMcx(
                            static_cast<std::uint32_t>(state.range(0))));
}

void
FormulaBuildWideLinear(benchmark::State &state)
{
    formulaBuild(state,
                 qb::lang::elaborateSource(
                     qb::circuits::wideLinearMirrorQbrSource(
                         static_cast<std::uint32_t>(state.range(0))))
                     .circuit);
}

void
FormulaBuildWideLinearToffoli(benchmark::State &state)
{
    formulaBuild(state,
                 qb::lang::elaborateSource(
                     qb::circuits::wideLinearToffoliMirrorQbrSource(
                         static_cast<std::uint32_t>(state.range(0))))
                     .circuit);
}

void
CofactorSweepAdder(benchmark::State &state)
{
    // For dirty qubit a[1], compute both cofactors of every other
    // qubit's formula - the inner loop of formula (6.2).
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto circuit = qb::circuits::hanerCarryCircuit(n);
    for (auto _ : state) {
        qb::bexp::Arena arena;
        qb::core::FormulaBuilder builder(arena,
                                         circuit.numQubits());
        builder.applyCircuit(circuit);
        const std::uint32_t dirty = n; // a[1]
        std::size_t nonzero = 0;
        for (std::uint32_t q = 0; q < circuit.numQubits(); ++q) {
            if (q == dirty)
                continue;
            const auto f = builder.formula(q);
            const auto c0 =
                arena.substitute(f, dirty, qb::bexp::kFalse);
            const auto c1 =
                arena.substitute(f, dirty, qb::bexp::kTrue);
            nonzero += arena.mkXor({c0, c1}) != qb::bexp::kFalse;
        }
        benchmark::DoNotOptimize(nonzero);
    }
}

} // namespace

BENCHMARK(FormulaBuildAdder)
    ->DenseRange(50, 200, 50)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(FormulaBuildMcx)
    ->DenseRange(250, 1750, 500)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(FormulaBuildWideLinear)
    ->RangeMultiplier(2)
    ->Range(1024, 8192)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(FormulaBuildWideLinearToffoli)
    ->RangeMultiplier(2)
    ->Range(1024, 8192)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(CofactorSweepAdder)
    ->DenseRange(50, 200, 50)
    ->Unit(benchmark::kMillisecond);
