/**
 * @file
 * Unit tests for the gate-level IR: gates, circuits and structural
 * analyses.
 */

#include <gtest/gtest.h>

#include "ir/circuit.h"
#include "ir/circuit_index.h"
#include "support/logging.h"

namespace qb::ir {
namespace {

TEST(Gate, FactoriesAndAccessors)
{
    const Gate x = Gate::x(3);
    EXPECT_EQ(GateKind::X, x.kind());
    EXPECT_EQ(3u, x.target());
    EXPECT_EQ(0u, x.numControls());

    const Gate cx = Gate::cnot(0, 1);
    EXPECT_EQ(1u, cx.target());
    ASSERT_EQ(1u, cx.numControls());
    EXPECT_EQ(0u, cx.controls()[0]);

    const Gate ccx = Gate::ccnot(4, 2, 7);
    EXPECT_EQ(7u, ccx.target());
    EXPECT_EQ(2u, ccx.numControls());

    const Gate mcx = Gate::mcx({1, 2, 3, 4}, 0);
    EXPECT_EQ(0u, mcx.target());
    EXPECT_EQ(4u, mcx.numControls());
}

TEST(Gate, Classicality)
{
    EXPECT_TRUE(Gate::x(0).isClassical());
    EXPECT_TRUE(Gate::cnot(0, 1).isClassical());
    EXPECT_TRUE(Gate::ccnot(0, 1, 2).isClassical());
    EXPECT_TRUE(Gate::mcx({0, 1, 2}, 3).isClassical());
    EXPECT_TRUE(Gate::swap(0, 1).isClassical());
    EXPECT_FALSE(Gate::h(0).isClassical());
    EXPECT_FALSE(Gate::s(0).isClassical());
    EXPECT_FALSE(Gate::cz(0, 1).isClassical());
    EXPECT_FALSE(Gate::phase(0, 0.5).isClassical());
}

TEST(Gate, Touches)
{
    const Gate g = Gate::ccnot(1, 3, 5);
    EXPECT_TRUE(g.touches(1));
    EXPECT_TRUE(g.touches(3));
    EXPECT_TRUE(g.touches(5));
    EXPECT_FALSE(g.touches(0));
    EXPECT_FALSE(g.touches(4));
}

TEST(Gate, InverseOfSelfInverseGates)
{
    EXPECT_EQ(Gate::x(0), Gate::x(0).inverse());
    EXPECT_EQ(Gate::cnot(0, 1), Gate::cnot(0, 1).inverse());
    EXPECT_EQ(Gate::h(0), Gate::h(0).inverse());
    EXPECT_EQ(Gate::z(0), Gate::z(0).inverse());
}

TEST(Gate, InverseOfPhaseGates)
{
    EXPECT_EQ(GateKind::Sdg, Gate::s(0).inverse().kind());
    EXPECT_EQ(GateKind::S, Gate::sdg(0).inverse().kind());
    EXPECT_EQ(GateKind::Tdg, Gate::t(0).inverse().kind());
    EXPECT_EQ(GateKind::T, Gate::tdg(0).inverse().kind());
    EXPECT_DOUBLE_EQ(-0.7, Gate::phase(0, 0.7).inverse().angle());
    EXPECT_DOUBLE_EQ(-0.3, Gate::cphase(0, 1, 0.3).inverse().angle());
}

TEST(Gate, ToStringSmoke)
{
    EXPECT_EQ("X[2]", Gate::x(2).toString());
    EXPECT_EQ("CNOT[0, 1]", Gate::cnot(0, 1).toString());
    EXPECT_EQ("CCNOT[0, 1, 2]", Gate::ccnot(0, 1, 2).toString());
}

TEST(Circuit, AppendBoundsChecked)
{
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    EXPECT_EQ(1u, c.size());
    EXPECT_DEATH(c.append(Gate::x(2)), "out of range");
}

TEST(Circuit, IsClassical)
{
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    EXPECT_TRUE(c.isClassical());
    c.append(Gate::h(0));
    EXPECT_FALSE(c.isClassical());
}

TEST(Circuit, DepthOfParallelAndSerialGates)
{
    Circuit c(4);
    EXPECT_EQ(0u, c.depth());
    c.append(Gate::x(0));
    c.append(Gate::x(1)); // parallel with the first
    EXPECT_EQ(1u, c.depth());
    c.append(Gate::cnot(0, 1)); // depends on both
    EXPECT_EQ(2u, c.depth());
    c.append(Gate::x(3)); // independent
    EXPECT_EQ(2u, c.depth());
}

TEST(Circuit, WidthCountsTouchedQubits)
{
    Circuit c(5);
    c.append(Gate::cnot(0, 3));
    EXPECT_EQ(2u, c.width());
    const auto used = c.usedMask();
    EXPECT_TRUE(used[0]);
    EXPECT_FALSE(used[1]);
    EXPECT_TRUE(used[3]);
}

TEST(Circuit, BusyInterval)
{
    Circuit c(3);
    c.append(Gate::x(0));       // 0
    c.append(Gate::cnot(1, 2)); // 1
    c.append(Gate::x(1));       // 2
    c.append(Gate::x(0));       // 3
    const auto i0 = c.busyInterval(0);
    ASSERT_TRUE(i0.has_value());
    EXPECT_EQ(0u, i0->first);
    EXPECT_EQ(3u, i0->second);
    const auto i1 = c.busyInterval(1);
    ASSERT_TRUE(i1.has_value());
    EXPECT_EQ(1u, i1->first);
    EXPECT_EQ(2u, i1->second);
    Circuit d(2);
    EXPECT_FALSE(d.busyInterval(0).has_value());
}

TEST(Circuit, SliceSelectsGateRange)
{
    Circuit c(2);
    c.append(Gate::x(0));
    c.append(Gate::x(1));
    c.append(Gate::cnot(0, 1));
    const Circuit mid = c.slice(1, 3);
    ASSERT_EQ(2u, mid.size());
    EXPECT_EQ(Gate::x(1), mid.gates()[0]);
    EXPECT_EQ(Gate::cnot(0, 1), mid.gates()[1]);
    EXPECT_EQ(0u, c.slice(2, 2).size());
}

TEST(Circuit, InverseReversesAndInverts)
{
    Circuit c(2);
    c.append(Gate::s(0));
    c.append(Gate::cnot(0, 1));
    const Circuit inv = c.inverse();
    ASSERT_EQ(2u, inv.size());
    EXPECT_EQ(GateKind::CNOT, inv.gates()[0].kind());
    EXPECT_EQ(GateKind::Sdg, inv.gates()[1].kind());
}

TEST(Circuit, StatsCountsByKind)
{
    Circuit c(5);
    c.append(Gate::x(0));
    c.append(Gate::x(1));
    c.append(Gate::cnot(0, 1));
    c.append(Gate::ccnot(0, 1, 2));
    c.append(Gate::mcx({0, 1, 2}, 3));
    c.append(Gate::h(4));
    const ResourceStats s = c.stats();
    EXPECT_EQ(6u, s.gateCount);
    EXPECT_EQ(2u, s.notCount);
    EXPECT_EQ(1u, s.cnotCount);
    EXPECT_EQ(1u, s.toffoliCount);
    EXPECT_EQ(1u, s.mcxCount);
    EXPECT_EQ(1u, s.otherCount);
    EXPECT_EQ(5u, s.width);
}

TEST(Circuit, LabelsDefaultAndCustom)
{
    Circuit c(2);
    EXPECT_EQ("q0", c.label(0));
    c.setLabel(0, "anc");
    EXPECT_EQ("anc", c.label(0));
    EXPECT_EQ("q1", c.label(1));
}

TEST(Circuit, AppendCircuitConcatenates)
{
    Circuit a(2), b(2);
    a.append(Gate::x(0));
    b.append(Gate::x(1));
    a.appendCircuit(b);
    EXPECT_EQ(2u, a.size());
}

TEST(Circuit, EqualityComparesGatesAndWidth)
{
    Circuit a(2), b(2), c(3);
    a.append(Gate::x(0));
    b.append(Gate::x(0));
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
    b.append(Gate::x(1));
    EXPECT_FALSE(a == b);
}

TEST(CircuitIndex, TouchListsAreAscendingPerWire)
{
    Circuit c(4);
    c.append(Gate::x(0));           // 0
    c.append(Gate::cnot(1, 2));     // 1
    c.append(Gate::ccnot(0, 2, 1)); // 2
    c.append(Gate::swap(2, 0));     // 3
    const CircuitIndex index(c);
    const auto list = [&](QubitId q) {
        const auto span = index.touches(q);
        return std::vector<std::size_t>(span.begin(), span.end());
    };
    EXPECT_EQ((std::vector<std::size_t>{0, 2, 3}), list(0));
    EXPECT_EQ((std::vector<std::size_t>{1, 2}), list(1));
    EXPECT_EQ((std::vector<std::size_t>{1, 2, 3}), list(2));
    EXPECT_TRUE(list(3).empty()); // idle wire
    EXPECT_EQ(&c, &index.circuit());
}

TEST(CircuitIndex, NextTouchAgreesWithAScan)
{
    Circuit c(3);
    c.append(Gate::x(0));       // 0
    c.append(Gate::cnot(1, 2)); // 1
    c.append(Gate::x(1));       // 2
    c.append(Gate::x(0));       // 3
    const CircuitIndex index(c);
    for (QubitId q = 0; q < c.numQubits(); ++q)
        for (std::size_t from = 0; from <= c.size() + 1; ++from) {
            std::size_t scan = from;
            while (scan < c.size() && !c.gates()[scan].touches(q))
                ++scan;
            EXPECT_EQ(std::min(scan, c.size()),
                      index.nextTouch(q, from))
                << q << " " << from;
        }
    EXPECT_DEATH(index.touches(3), "out of range");
}

} // namespace
} // namespace qb::ir
