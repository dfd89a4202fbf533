#include "boolexpr/arena.h"

#include <algorithm>
#include <unordered_set>

#include "support/logging.h"

namespace qb::bexp {

Arena::Arena()
{
    // Slots 0 and 1 are reserved for FALSE and TRUE.
    nodes.push_back({NodeKind::Const, 0, 0, 0});
    nodes.push_back({NodeKind::Const, 1, 0, 0});
}

bool
Arena::constValue(NodeRef ref) const
{
    qbAssert(isConst(ref), "constValue on non-const node");
    return ref == kTrue;
}

std::uint32_t
Arena::varId(NodeRef ref) const
{
    qbAssert(kind(ref) == NodeKind::Var, "varId on non-var node");
    return nodes[ref].var;
}

std::span<const NodeRef>
Arena::children(NodeRef ref) const
{
    const Node &n = nodes[ref];
    qbAssert(n.kind == NodeKind::And || n.kind == NodeKind::Xor,
             "children on leaf node");
    // Child lists are single appendRun() runs: contiguous by contract.
    return {childPool.at(n.childBegin), n.childEnd - n.childBegin};
}

NodeRef
Arena::mkVar(std::uint32_t var)
{
    auto it = varTable.find(var);
    if (it != varTable.end())
        return it->second;
    const NodeRef ref = static_cast<NodeRef>(nodes.size());
    nodes.push_back({NodeKind::Var, var, 0, 0});
    varTable.emplace(var, ref);
    return ref;
}

NodeRef
Arena::mkAnd(std::vector<NodeRef> children_in)
{
    // Flatten nested ANDs, drop TRUE, sort, dedupe (x & x = x), and
    // short-circuit on FALSE.
    std::vector<NodeRef> flat;
    flat.reserve(children_in.size());
    for (NodeRef c : children_in) {
        if (c == kFalse)
            return kFalse;
        if (c == kTrue)
            continue;
        if (kind(c) == NodeKind::And) {
            auto sub = children(c);
            flat.insert(flat.end(), sub.begin(), sub.end());
        } else {
            flat.push_back(c);
        }
    }
    std::sort(flat.begin(), flat.end());
    flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
    if (flat.empty())
        return kTrue;
    if (flat.size() == 1)
        return flat[0];
    // Complementary pair: x & NOT x = 0.  mkNot is cheap (hash-consed)
    // and lets the (6.1) condition of idle qubits fold to a constant.
    for (NodeRef c : flat) {
        const NodeRef negated = mkNot(c);
        if (std::binary_search(flat.begin(), flat.end(), negated))
            return kFalse;
    }
    return intern(NodeKind::And, 0, flat);
}

NodeRef
Arena::mkXor(std::vector<NodeRef> children_in)
{
    // Flatten nested XORs, fold constants into a parity bit, sort and
    // cancel equal pairs (x ^ x = 0, the Figure 6.1 identity).
    std::vector<NodeRef> flat;
    flat.reserve(children_in.size());
    bool parity = false;
    for (NodeRef c : children_in) {
        if (c == kFalse)
            continue;
        if (c == kTrue) {
            parity = !parity;
            continue;
        }
        if (kind(c) == NodeKind::Xor) {
            // Nested XOR may itself carry a TRUE child; children are
            // canonical so TRUE, if present, sorts first.
            for (NodeRef s : children(c)) {
                if (s == kTrue)
                    parity = !parity;
                else
                    flat.push_back(s);
            }
        } else {
            flat.push_back(c);
        }
    }
    std::sort(flat.begin(), flat.end());
    std::vector<NodeRef> kept;
    kept.reserve(flat.size());
    for (std::size_t i = 0; i < flat.size();) {
        std::size_t j = i;
        while (j < flat.size() && flat[j] == flat[i])
            ++j;
        if ((j - i) % 2 == 1)
            kept.push_back(flat[i]);
        i = j;
    }
    if (kept.empty())
        return parity ? kTrue : kFalse;
    if (!parity && kept.size() == 1)
        return kept[0];
    if (parity)
        kept.insert(kept.begin(), kTrue);
    return intern(NodeKind::Xor, 0, kept);
}

NodeRef
Arena::mkNot(NodeRef a)
{
    return mkXor({a, kTrue});
}

NodeRef
Arena::mkOr(std::vector<NodeRef> children_in)
{
    std::vector<NodeRef> negated;
    negated.reserve(children_in.size());
    for (NodeRef c : children_in)
        negated.push_back(mkNot(c));
    return mkNot(mkAnd(std::move(negated)));
}

NodeRef
Arena::mkImplies(NodeRef a, NodeRef b)
{
    return mkOr({mkNot(a), b});
}

std::uint64_t
Arena::hashNode(NodeKind node_kind, std::uint32_t var,
                const std::vector<NodeRef> &node_children) const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(node_kind));
    mix(var);
    for (NodeRef c : node_children)
        mix(c);
    return h;
}

bool
Arena::equalNode(NodeRef ref, NodeKind node_kind, std::uint32_t var,
                 const std::vector<NodeRef> &node_children) const
{
    const Node &n = nodes[ref];
    if (n.kind != node_kind || n.var != var)
        return false;
    const std::size_t count = n.childEnd - n.childBegin;
    if (count != node_children.size())
        return false;
    return std::equal(node_children.begin(), node_children.end(),
                      childPool.at(n.childBegin));
}

NodeRef
Arena::intern(NodeKind node_kind, std::uint32_t var,
              const std::vector<NodeRef> &node_children)
{
    const std::uint64_t h = hashNode(node_kind, var, node_children);
    auto [lo, hi] = uniqueTable.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
        if (equalNode(it->second, node_kind, var, node_children))
            return it->second;
    }
    const NodeRef ref = static_cast<NodeRef>(nodes.size());
    const auto begin = static_cast<std::uint32_t>(childPool.appendRun(
        node_children.data(), node_children.size()));
    const auto end =
        begin + static_cast<std::uint32_t>(node_children.size());
    nodes.push_back({node_kind, var, begin, end});
    uniqueTable.emplace(h, ref);
    return ref;
}

DagShape
Arena::dagShape(NodeRef root) const
{
    DagShape shape;
    std::unordered_set<NodeRef> seen;
    std::vector<NodeRef> stack{root};
    while (!stack.empty()) {
        const NodeRef ref = stack.back();
        stack.pop_back();
        if (!seen.insert(ref).second)
            continue;
        const Node &n = nodes[ref];
        if (n.kind == NodeKind::And || n.kind == NodeKind::Xor) {
            ++(n.kind == NodeKind::And ? shape.ands : shape.xors);
            for (NodeRef c : children(ref))
                stack.push_back(c);
        }
    }
    shape.nodes = seen.size();
    return shape;
}

std::vector<std::uint32_t>
Arena::supportSet(NodeRef root) const
{
    std::unordered_set<NodeRef> seen;
    std::unordered_set<std::uint32_t> vars;
    std::vector<NodeRef> stack{root};
    while (!stack.empty()) {
        const NodeRef ref = stack.back();
        stack.pop_back();
        if (!seen.insert(ref).second)
            continue;
        const Node &n = nodes[ref];
        if (n.kind == NodeKind::Var) {
            vars.insert(n.var);
        } else if (n.kind == NodeKind::And || n.kind == NodeKind::Xor) {
            for (NodeRef c : children(ref))
                stack.push_back(c);
        }
    }
    std::vector<std::uint32_t> out(vars.begin(), vars.end());
    std::sort(out.begin(), out.end());
    return out;
}

void
SubstituteMemo::reset(std::uint32_t var, NodeRef value)
{
    if (++epoch_ == 0) {
        // Wrapped: stale stamps could alias the new epoch.
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
    }
    var_ = var;
    value_ = value;
    visits_ = 0;
}

NodeRef
Arena::substitute(NodeRef root, std::uint32_t var, NodeRef value)
{
    scratchMemo.reset(var, value);
    return substitute(root, scratchMemo);
}

NodeRef
Arena::substitute(NodeRef root, SubstituteMemo &memo)
{
    // Children are interned before their parents, so every node the
    // walk reaches has an id <= root: slots [0, root] cover it, even
    // for roots interned after the memo's last reset.  New slots carry
    // stamp 0, which no live epoch uses.
    if (memo.stamp_.size() <= root) {
        memo.stamp_.resize(std::size_t{root} + 1, 0);
        memo.result_.resize(std::size_t{root} + 1, kFalse);
    }
    const auto store = [&memo](NodeRef ref, NodeRef result) {
        memo.stamp_[ref] = memo.epoch_;
        memo.result_[ref] = result;
        ++memo.visits_;
    };
    // Iterative post-order rewrite: formula chains produced by long
    // circuits nest thousands deep, so recursion is not an option.
    std::vector<std::pair<NodeRef, bool>> stack;
    stack.emplace_back(root, false);
    while (!stack.empty()) {
        auto [ref, expanded] = stack.back();
        stack.pop_back();
        if (memo.has(ref))
            continue;
        const Node &n = nodes[ref];
        switch (n.kind) {
          case NodeKind::Const:
            store(ref, ref);
            break;
          case NodeKind::Var:
            store(ref, n.var == memo.var_ ? memo.value_ : ref);
            break;
          case NodeKind::And:
          case NodeKind::Xor:
            if (!expanded) {
                stack.emplace_back(ref, true);
                for (NodeRef c : children(ref))
                    if (!memo.has(c))
                        stack.emplace_back(c, false);
            } else {
                std::vector<NodeRef> rebuilt;
                bool changed = false;
                const auto kids = children(ref);
                rebuilt.reserve(kids.size());
                for (NodeRef c : kids) {
                    const NodeRef rc = memo.result_[c];
                    changed |= rc != c;
                    rebuilt.push_back(rc);
                }
                if (!changed)
                    store(ref, ref);
                else if (n.kind == NodeKind::And)
                    store(ref, mkAnd(std::move(rebuilt)));
                else
                    store(ref, mkXor(std::move(rebuilt)));
            }
            break;
        }
    }
    return memo.result_[root];
}

bool
Arena::evaluate(NodeRef root, const std::vector<bool> &assignment) const
{
    std::unordered_map<NodeRef, bool> memo;
    std::vector<std::pair<NodeRef, bool>> stack;
    stack.emplace_back(root, false);
    while (!stack.empty()) {
        auto [ref, expanded] = stack.back();
        stack.pop_back();
        if (memo.count(ref))
            continue;
        const Node &n = nodes[ref];
        switch (n.kind) {
          case NodeKind::Const:
            memo.emplace(ref, ref == kTrue);
            break;
          case NodeKind::Var:
            qbAssert(n.var < assignment.size(),
                     "evaluate: assignment does not cover variable");
            memo.emplace(ref, assignment[n.var]);
            break;
          case NodeKind::And:
          case NodeKind::Xor:
            if (!expanded) {
                stack.emplace_back(ref, true);
                for (NodeRef c : children(ref))
                    stack.emplace_back(c, false);
            } else {
                bool acc = n.kind == NodeKind::And;
                for (NodeRef c : children(ref)) {
                    const bool v = memo.at(c);
                    if (n.kind == NodeKind::And)
                        acc = acc && v;
                    else
                        acc = acc != v;
                }
                memo.emplace(ref, acc);
            }
            break;
        }
    }
    return memo.at(root);
}

std::string
Arena::toString(NodeRef root) const
{
    const Node &n = nodes[root];
    switch (n.kind) {
      case NodeKind::Const:
        return root == kTrue ? "1" : "0";
      case NodeKind::Var:
        return "x" + std::to_string(n.var);
      case NodeKind::And:
      case NodeKind::Xor: {
        const char *sep = n.kind == NodeKind::And ? " & " : " ^ ";
        std::string out = "(";
        bool first = true;
        for (NodeRef c : children(root)) {
            if (!first)
                out += sep;
            out += toString(c);
            first = false;
        }
        return out + ")";
      }
    }
    return "?";
}

} // namespace qb::bexp
