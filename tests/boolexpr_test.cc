/**
 * @file
 * Unit and property tests for the hash-consed Boolean DAG, checked
 * against the canonical ANF reference engine.
 */

#include <gtest/gtest.h>

#include "boolexpr/anf.h"
#include "boolexpr/arena.h"
#include "support/rng.h"

namespace qb::bexp {
namespace {

TEST(Arena, ConstantsAreFixed)
{
    Arena a;
    EXPECT_EQ(kFalse, a.mkConst(false));
    EXPECT_EQ(kTrue, a.mkConst(true));
    EXPECT_TRUE(a.isConst(kFalse));
    EXPECT_TRUE(a.isConst(kTrue));
    EXPECT_FALSE(a.constValue(kFalse));
    EXPECT_TRUE(a.constValue(kTrue));
}

TEST(Arena, VarsAreHashConsed)
{
    Arena a;
    EXPECT_EQ(a.mkVar(3), a.mkVar(3));
    EXPECT_NE(a.mkVar(3), a.mkVar(4));
    EXPECT_EQ(3u, a.varId(a.mkVar(3)));
}

TEST(Arena, XorSelfCancels)
{
    // The Figure 6.1 identity: x ^ x = 0.
    Arena a;
    const NodeRef x = a.mkVar(0);
    EXPECT_EQ(kFalse, a.mkXor({x, x}));
}

TEST(Arena, XorNestedCancellation)
{
    // a ^ q1q2 ^ q1q2 = a, the third-gate simplification of Fig 6.1.
    Arena a;
    const NodeRef va = a.mkVar(0);
    const NodeRef and12 = a.mkAnd({a.mkVar(1), a.mkVar(2)});
    const NodeRef once = a.mkXor({va, and12});
    EXPECT_EQ(va, a.mkXor({once, and12}));
}

TEST(Arena, AndIdempotent)
{
    Arena a;
    const NodeRef x = a.mkVar(0);
    EXPECT_EQ(x, a.mkAnd({x, x}));
}

TEST(Arena, AndAbsorbsConstants)
{
    Arena a;
    const NodeRef x = a.mkVar(0);
    EXPECT_EQ(kFalse, a.mkAnd({x, kFalse}));
    EXPECT_EQ(x, a.mkAnd({x, kTrue}));
    EXPECT_EQ(kTrue, a.mkAnd({}));
}

TEST(Arena, XorConstantFolding)
{
    Arena a;
    const NodeRef x = a.mkVar(0);
    EXPECT_EQ(x, a.mkXor({x, kFalse}));
    EXPECT_EQ(kTrue, a.mkXor({kTrue}));
    EXPECT_EQ(kFalse, a.mkXor({kTrue, kTrue}));
    EXPECT_EQ(kFalse, a.mkXor({}));
}

TEST(Arena, NotIsInvolutive)
{
    Arena a;
    const NodeRef x = a.mkVar(0);
    EXPECT_EQ(x, a.mkNot(a.mkNot(x)));
    EXPECT_EQ(kFalse, a.mkNot(kTrue));
    EXPECT_EQ(kTrue, a.mkNot(kFalse));
}

TEST(Arena, AndFlattensNested)
{
    Arena a;
    const NodeRef x = a.mkVar(0), y = a.mkVar(1), z = a.mkVar(2);
    EXPECT_EQ(a.mkAnd({x, y, z}), a.mkAnd({a.mkAnd({x, y}), z}));
    EXPECT_EQ(a.mkAnd({x, y, z}), a.mkAnd({x, a.mkAnd({y, z})}));
}

TEST(Arena, XorFlattensNested)
{
    Arena a;
    const NodeRef x = a.mkVar(0), y = a.mkVar(1), z = a.mkVar(2);
    EXPECT_EQ(a.mkXor({x, y, z}), a.mkXor({a.mkXor({x, y}), z}));
}

TEST(Arena, OrDeMorgan)
{
    Arena a;
    const NodeRef x = a.mkVar(0), y = a.mkVar(1);
    const NodeRef either = a.mkOr({x, y});
    for (int xv = 0; xv < 2; ++xv) {
        for (int yv = 0; yv < 2; ++yv) {
            std::vector<bool> env{xv == 1, yv == 1};
            EXPECT_EQ(xv || yv, a.evaluate(either, env));
        }
    }
}

TEST(Arena, ImpliesTruthTable)
{
    Arena a;
    const NodeRef x = a.mkVar(0), y = a.mkVar(1);
    const NodeRef imp = a.mkImplies(x, y);
    for (int xv = 0; xv < 2; ++xv) {
        for (int yv = 0; yv < 2; ++yv) {
            std::vector<bool> env{xv == 1, yv == 1};
            EXPECT_EQ(!xv || yv, a.evaluate(imp, env));
        }
    }
}

TEST(Arena, SubstituteConstantCofactor)
{
    Arena a;
    const NodeRef x = a.mkVar(0), y = a.mkVar(1);
    const NodeRef f = a.mkXor({y, a.mkAnd({x, y})}); // y ^ xy
    EXPECT_EQ(y, a.substitute(f, 0, kFalse));        // y ^ 0 = y
    EXPECT_EQ(kFalse, a.substitute(f, 0, kTrue));    // y ^ y = 0
}

TEST(Arena, SubstituteExpression)
{
    Arena a;
    const NodeRef x = a.mkVar(0), y = a.mkVar(1), z = a.mkVar(2);
    const NodeRef f = a.mkAnd({x, y});
    const NodeRef g = a.substitute(f, 0, a.mkXor({z, kTrue}));
    // (NOT z) AND y.
    std::vector<bool> env{false, true, false};
    EXPECT_TRUE(a.evaluate(g, env));
    env[2] = true;
    EXPECT_FALSE(a.evaluate(g, env));
}

TEST(Arena, SubstituteAbsentVarIsIdentity)
{
    Arena a;
    const NodeRef f = a.mkAnd({a.mkVar(0), a.mkVar(1)});
    EXPECT_EQ(f, a.substitute(f, 7, kTrue));
}

TEST(Arena, SharedMemoMatchesOneShotAndCountsEachNodeOnce)
{
    Arena a;
    const NodeRef x = a.mkVar(0), y = a.mkVar(1), z = a.mkVar(2);
    const NodeRef shared = a.mkAnd({x, y});
    const NodeRef f = a.mkXor({shared, z});
    const NodeRef g = a.mkAnd({shared, a.mkNot(z)});
    const NodeRef f0 = a.substitute(f, 0, kFalse);
    const NodeRef g0 = a.substitute(g, 0, kFalse);

    SubstituteMemo memo;
    memo.reset(0, kFalse);
    EXPECT_EQ(f0, a.substitute(f, memo));
    const std::size_t after_f = memo.visits();
    EXPECT_EQ(a.dagShape(f).nodes, after_f);
    EXPECT_EQ(g0, a.substitute(g, memo));
    // g shares x, y, z and x&y with f: only its own nodes are new.
    EXPECT_LT(memo.visits() - after_f, a.dagShape(g).nodes);

    // Nodes interned after reset() lie past the memo's old size and
    // must still be rewritten, not read from stale slots.
    const NodeRef late = a.mkXor({a.mkAnd({x, z}), a.mkVar(9)});
    EXPECT_EQ(a.substitute(late, 0, kTrue),
              [&] {
                  memo.reset(0, kTrue);
                  return a.substitute(late, memo);
              }());
    EXPECT_EQ(a.dagShape(late).nodes, memo.visits());
}

TEST(Arena, SupportSet)
{
    Arena a;
    const NodeRef f =
        a.mkXor({a.mkAnd({a.mkVar(4), a.mkVar(2)}), a.mkVar(9)});
    EXPECT_EQ((std::vector<std::uint32_t>{2, 4, 9}), a.supportSet(f));
    EXPECT_TRUE(a.supportSet(kTrue).empty());
}

TEST(Arena, DagSizeCountsSharedOnce)
{
    Arena a;
    const NodeRef x = a.mkVar(0), y = a.mkVar(1);
    const NodeRef f = a.mkAnd({x, y});
    const NodeRef g = a.mkXor({f, a.mkAnd({f, a.mkVar(2)})});
    // Nodes: g, f, and(f,z), x, y, z.
    const DagShape shape = a.dagShape(g);
    EXPECT_EQ(6u, shape.nodes);
    EXPECT_EQ(2u, shape.ands); // f and and(f,z), f counted once
    EXPECT_EQ(1u, shape.xors); // g
}

TEST(Arena, ToStringSmoke)
{
    Arena a;
    EXPECT_EQ("0", a.toString(kFalse));
    EXPECT_EQ("1", a.toString(kTrue));
    EXPECT_EQ("x3", a.toString(a.mkVar(3)));
    const NodeRef f = a.mkAnd({a.mkVar(0), a.mkVar(1)});
    EXPECT_EQ("(x0 & x1)", a.toString(f));
}

TEST(Anf, BasicAlgebra)
{
    const Anf x = Anf::var(0), y = Anf::var(1);
    EXPECT_TRUE((x ^ x).isZero());
    EXPECT_TRUE((x & x) == x);
    EXPECT_TRUE((~~x) == x);
    EXPECT_TRUE((x & y) == (y & x));
    EXPECT_TRUE(Anf::one().isOne());
}

TEST(Anf, DistributesOverXor)
{
    const Anf x = Anf::var(0), y = Anf::var(1), z = Anf::var(2);
    EXPECT_TRUE((x & (y ^ z)) == ((x & y) ^ (x & z)));
}

TEST(Anf, ToStringSmoke)
{
    EXPECT_EQ("0", Anf::zero().toString());
    EXPECT_EQ("1", Anf::one().toString());
    EXPECT_EQ("x1", Anf::var(1).toString());
    EXPECT_EQ("1 ^ x0", (~Anf::var(0)).toString());
}

/** Build a random expression and its ANF mirror simultaneously. */
struct RandomExpr
{
    Arena &arena;
    Rng &rng;
    std::uint32_t num_vars;

    std::pair<NodeRef, Anf>
    gen(int depth)
    {
        if (depth == 0 || rng.nextBool(0.3)) {
            if (rng.nextBool(0.1))
                return rng.nextBool()
                           ? std::pair{kTrue, Anf::one()}
                           : std::pair{kFalse, Anf::zero()};
            const std::uint32_t v =
                static_cast<std::uint32_t>(rng.nextBelow(num_vars));
            return {arena.mkVar(v), Anf::var(v)};
        }
        const auto [l, la] = gen(depth - 1);
        const auto [r, ra] = gen(depth - 1);
        switch (rng.nextBelow(3)) {
          case 0:
            return {arena.mkAnd({l, r}), la & ra};
          case 1:
            return {arena.mkXor({l, r}), la ^ ra};
          default:
            return {arena.mkNot(l), ~la};
        }
    }
};

class BoolExprProperty : public ::testing::TestWithParam<int>
{};

TEST_P(BoolExprProperty, DagAgreesWithAnfOnAllAssignments)
{
    Rng rng(GetParam());
    Arena arena;
    constexpr std::uint32_t num_vars = 5;
    RandomExpr gen{arena, rng, num_vars};
    const auto [expr, anf] = gen.gen(5);
    for (std::uint32_t bits = 0; bits < (1u << num_vars); ++bits) {
        std::vector<bool> env(num_vars);
        for (std::uint32_t v = 0; v < num_vars; ++v)
            env[v] = (bits >> v) & 1;
        EXPECT_EQ(anf.evaluate(env), arena.evaluate(expr, env))
            << "assignment " << bits;
    }
}

TEST_P(BoolExprProperty, SubstitutionCommutesWithEvaluation)
{
    Rng rng(GetParam() + 1000);
    Arena arena;
    constexpr std::uint32_t num_vars = 5;
    RandomExpr gen{arena, rng, num_vars};
    const auto [expr, anf] = gen.gen(5);
    const std::uint32_t victim =
        static_cast<std::uint32_t>(rng.nextBelow(num_vars));
    const bool value = rng.nextBool();
    const NodeRef cofactor =
        arena.substitute(expr, victim, arena.mkConst(value));
    for (std::uint32_t bits = 0; bits < (1u << num_vars); ++bits) {
        std::vector<bool> env(num_vars);
        for (std::uint32_t v = 0; v < num_vars; ++v)
            env[v] = (bits >> v) & 1;
        std::vector<bool> forced = env;
        forced[victim] = value;
        EXPECT_EQ(arena.evaluate(expr, forced),
                  arena.evaluate(cofactor, env));
    }
}

TEST_P(BoolExprProperty, AnfFromExprRoundTrips)
{
    Rng rng(GetParam() + 2000);
    Arena arena;
    RandomExpr gen{arena, rng, 4};
    const auto [expr, anf] = gen.gen(4);
    EXPECT_TRUE(Anf::fromExpr(arena, expr) == anf);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoolExprProperty,
                         ::testing::Range(0, 25));

} // namespace
} // namespace qb::bexp
