/**
 * @file
 * Hash-consed Boolean expression DAG.
 *
 * The verification algorithm of the paper (Section 6.1) tracks, for every
 * qubit q, a Boolean formula b_q describing its value as a function of the
 * circuit inputs.  Formulas are built by a linear scan over the circuit:
 * X[q] maps b_q to NOT b_q, and an m-controlled NOT updates the target to
 * b_t XOR (b_c1 AND ... AND b_cm).  The same sub-formulas recur constantly
 * (every control chain shares prefixes), so the natural representation is
 * a DAG with structural hash-consing.
 *
 * The node language is {CONST, VAR, AND, XOR} with NOT canonicalized as
 * XOR with TRUE.  Construction applies the algebraic identities the paper
 * uses in Figure 6.1 (x XOR x = 0, x AND x = x, constant folding), which
 * fall out of canonical n-ary child lists for free.
 */

#ifndef QB_BOOLEXPR_ARENA_H
#define QB_BOOLEXPR_ARENA_H

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/chunked_vector.h"

namespace qb::bexp {

/** Reference to a node inside an Arena; valid for the arena's lifetime. */
using NodeRef = std::uint32_t;

/** The constant-false node, present in every arena. */
constexpr NodeRef kFalse = 0;
/** The constant-true node, present in every arena. */
constexpr NodeRef kTrue = 1;

/** Node discriminator. */
enum class NodeKind : std::uint8_t {
    Const, ///< FALSE or TRUE
    Var,   ///< input variable
    And,   ///< n-ary conjunction (>= 2 canonical children)
    Xor,   ///< n-ary exclusive or (>= 2 canonical children)
};

/** Node counts of the DAG reachable from one root. */
struct DagShape
{
    std::size_t nodes = 0; ///< distinct nodes, leaves included
    std::size_t ands = 0;  ///< And nodes
    std::size_t xors = 0;  ///< Xor nodes (a NOT is an Xor with TRUE)
};

/**
 * Rewrite memo for Arena::substitute(): one slot per NodeRef (arena ids
 * are dense), stamped with an epoch so reset() forgets every entry in
 * O(1).  A memo fixes one substitution var := value; passing the same
 * memo for many roots rewrites each shared DAG node at most once.
 * Nodes interned after reset() are covered too - substitute() grows the
 * memo to the root's id on entry (children always have smaller ids).
 * Not thread-safe: use it only on the arena's single writer thread.
 */
class SubstituteMemo
{
  public:
    /** Forget every entry and fix the substitution to
     *  @p var := @p value; also zeroes visits(). */
    void reset(std::uint32_t var, NodeRef value);

    /** Nodes rewritten (memo entries filled) since the last reset(). */
    std::size_t visits() const { return visits_; }

  private:
    friend class Arena;

    bool has(NodeRef ref) const
    {
        return ref < stamp_.size() && stamp_[ref] == epoch_;
    }

    std::vector<std::uint32_t> stamp_;
    std::vector<NodeRef> result_;
    std::uint32_t epoch_ = 1; ///< fresh slots carry stamp 0
    std::uint32_t var_ = 0;
    NodeRef value_ = kFalse;
    std::size_t visits_ = 0;
};

/**
 * Arena owning a set of hash-consed Boolean expression nodes.
 *
 * Structural equality coincides with NodeRef equality: two formulas built
 * in the same arena are equal as canonical DAGs iff their refs are equal.
 * This makes the x XOR x = 0 simplification of Figure 6.1 a constant-time
 * side effect of construction.
 *
 * Concurrency: construction (the mk functions, substitute, intern) is
 * single-writer - only one thread may grow an arena.  The structural readers (kind(),
 * children(), varId(), constValue(), evaluate(), dagShape()...) may run
 * concurrently on OTHER threads for any node whose ref was handed to
 * them through a synchronizing channel, while the writer keeps
 * interning new nodes: node and child storage is chunked and never
 * relocates (see support/chunked_vector.h for the exact contract).
 * The verification engine relies on this to build the conditions of
 * later qubits while scheduler workers encode earlier ones.
 */
class Arena
{
  public:
    Arena();

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** @name Constructors for each node kind. @{ */
    NodeRef mkConst(bool value) { return value ? kTrue : kFalse; }
    NodeRef mkVar(std::uint32_t var);
    NodeRef mkAnd(std::vector<NodeRef> children);
    NodeRef mkXor(std::vector<NodeRef> children);
    NodeRef mkNot(NodeRef a);
    /** OR via De Morgan: NOT(AND(NOT a...)). */
    NodeRef mkOr(std::vector<NodeRef> children);
    /** a implies b, i.e. NOT a OR b. */
    NodeRef mkImplies(NodeRef a, NodeRef b);
    /** @} */

    /** @name Structural queries. @{ */
    NodeKind kind(NodeRef ref) const { return nodes[ref].kind; }
    bool isConst(NodeRef ref) const { return ref <= kTrue; }
    /** Value of a CONST node. */
    bool constValue(NodeRef ref) const;
    /** Variable id of a VAR node. */
    std::uint32_t varId(NodeRef ref) const;
    /** Canonical children of an AND/XOR node. */
    std::span<const NodeRef> children(NodeRef ref) const;
    /** Total number of distinct nodes allocated in the arena. */
    std::size_t numNodes() const { return nodes.size(); }
    /** Distinct nodes reachable from @p root, in all and by kind. */
    DagShape dagShape(NodeRef root) const;
    /** Collect the ids of variables occurring under @p root (sorted). */
    std::vector<std::uint32_t> supportSet(NodeRef root) const;
    /** @} */

    /**
     * Substitute @p value for variable @p var throughout @p root.
     *
     * This implements the cofactor operation b[0/q], b[1/q] used by
     * formula (6.2) of the paper when @p value is a constant, and general
     * composition otherwise.  Memoized over the DAG, so the cost is
     * linear in the number of reachable nodes.
     */
    NodeRef substitute(NodeRef root, std::uint32_t var, NodeRef value);

    /**
     * substitute() through a caller-owned @p memo, whose reset() fixed
     * the variable and value.  Nodes already rewritten since that
     * reset are not visited again, so rewriting many roots that share
     * sub-DAGs costs the size of their union, not the sum of their
     * sizes.
     */
    NodeRef substitute(NodeRef root, SubstituteMemo &memo);

    /**
     * Evaluate @p root under a total assignment.
     *
     * @param assignment assignment[v] is the value of variable v; the
     *        vector must cover every variable in the support of root.
     */
    bool evaluate(NodeRef root,
                  const std::vector<bool> &assignment) const;

    /** Render as a human-readable string (tests and debugging). */
    std::string toString(NodeRef root) const;

  private:
    struct Node
    {
        NodeKind kind;
        std::uint32_t var;        // Var payload
        std::uint32_t childBegin; // And/Xor payload: [begin, end) into
        std::uint32_t childEnd;   // the shared children pool
    };

    NodeRef intern(NodeKind kind, std::uint32_t var,
                   const std::vector<NodeRef> &children);
    std::uint64_t hashNode(NodeKind kind, std::uint32_t var,
                           const std::vector<NodeRef> &children) const;
    bool equalNode(NodeRef ref, NodeKind kind, std::uint32_t var,
                   const std::vector<NodeRef> &children) const;

    ChunkedVector<Node> nodes;
    ChunkedVector<NodeRef> childPool;
    std::unordered_multimap<std::uint64_t, NodeRef> uniqueTable;
    std::unordered_map<std::uint32_t, NodeRef> varTable;
    /** Memo of the one-shot substitute(), reset on every call. */
    SubstituteMemo scratchMemo;
};

} // namespace qb::bexp

#endif // QB_BOOLEXPR_ARENA_H
