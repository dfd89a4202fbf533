/**
 * @file
 * Arena-backed clause storage for the CDCL solver.
 *
 * Clauses live in ONE contiguous array of 32-bit words and are named by
 * 32-bit ClauseRef offsets instead of pointers (the MiniSat / dawn
 * ClauseAllocator design).  Each clause is a three-word header followed
 * by its literals inline:
 *
 *   word 0   size (30 bits) | learnt | relocated
 *   word 1   LBD - or, once relocated, the forwarding ClauseRef
 *   word 2   activity (float bits)
 *   word 3+  literals
 *
 * BINARY clauses do not live in the arena at all: the solver keeps
 * them exclusively as mirrored watch-list pairs that inline the other
 * literal, and conflict analysis names a binary antecedent through a
 * tagged Reason word (the implied literal's partner) instead of a
 * ClauseRef.  Binary propagation therefore performs no arena access -
 * derefCount() exists to let tests assert exactly that - and a
 * binary-heavy formula contributes nothing to arena_peak_kw.
 *
 * Compared with one heap allocation (plus a std::vector of literals)
 * per clause, the arena halves the pointer width in every watcher and
 * reason slot, removes a level of indirection from the propagation
 * loop, and - decisively for long incremental sessions - makes the
 * learnt database CONTIGUOUS, so the watcher loop walks cache lines
 * instead of chasing malloc placements.
 *
 * free() only accounts the freed words: the arena reclaims memory in
 * bulk through a relocating garbage collection (see Solver::
 * garbageCollect()), which copies the live clauses into a fresh arena
 * and patches every watcher, reason and clause-list reference through
 * the per-clause forwarding word.
 */

#ifndef QB_SAT_CLAUSE_ALLOCATOR_H
#define QB_SAT_CLAUSE_ALLOCATOR_H

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sat/literal.h"
#include "support/logging.h"

namespace qb::sat {

/** Word offset of a clause inside its ClauseAllocator. */
using ClauseRef = std::uint32_t;

/** Null reference (no reason / no conflict). */
constexpr ClauseRef kRefUndef = 0xFFFFFFFFu;

/**
 * In-arena clause view.  Never constructed directly: obtained by
 * dereferencing a ClauseRef through a ClauseAllocator, and valid only
 * until the next alloc() or garbage collection on that allocator.
 */
class Clause
{
  public:
    unsigned size() const { return header >> kSizeShift; }
    bool learnt() const { return header & kLearntBit; }
    bool relocated() const { return header & kRelocatedBit; }

    unsigned lbd() const { return extra; }
    void setLbd(unsigned new_lbd) { extra = new_lbd; }

    float activity() const
    {
        float a;
        std::memcpy(&a, &act, sizeof a);
        return a;
    }
    void setActivity(float a) { std::memcpy(&act, &a, sizeof a); }

    /** Strip the learnt mark (subsumption promotes a learnt clause
     *  that subsumed a problem clause to problem status). */
    void clearLearnt() { header &= ~kLearntBit; }

    Lit &operator[](std::size_t i) { return lits()[i]; }
    const Lit &operator[](std::size_t i) const { return lits()[i]; }
    Lit *begin() { return lits(); }
    Lit *end() { return lits() + size(); }
    const Lit *begin() const { return lits(); }
    const Lit *end() const { return lits() + size(); }

    /** Forwarding address left behind by a relocating GC. */
    ClauseRef forward() const { return extra; }
    void relocate(ClauseRef to)
    {
        header |= kRelocatedBit;
        extra = to;
    }

    /**
     * Remove one occurrence of @p l by swapping the last literal into
     * its slot (detach first: watch positions are not preserved).
     */
    void removeLiteral(Lit l)
    {
        Lit *ls = lits();
        const unsigned n = size();
        for (unsigned i = 0; i < n; ++i) {
            if (ls[i] == l) {
                ls[i] = ls[n - 1];
                header -= 1u << kSizeShift;
                return;
            }
        }
        qbAssert(false, "removeLiteral: literal not in clause");
    }

  private:
    friend class ClauseAllocator;

    static constexpr std::uint32_t kLearntBit = 1u;
    static constexpr std::uint32_t kRelocatedBit = 2u;
    static constexpr unsigned kSizeShift = 2;

    Lit *lits() { return reinterpret_cast<Lit *>(this + 1); }
    const Lit *lits() const
    {
        return reinterpret_cast<const Lit *>(this + 1);
    }

    std::uint32_t header;
    std::uint32_t extra;
    std::uint32_t act;
};

static_assert(sizeof(Clause) == 12, "three-word clause header");
static_assert(sizeof(Lit) == 4, "literals must pack into arena words");

class ClauseAllocator
{
  public:
    static constexpr std::size_t kHeaderWords =
        sizeof(Clause) / sizeof(std::uint32_t);

    /** Append a clause; invalidates outstanding Clause references. */
    ClauseRef alloc(std::span<const Lit> lits, bool learnt, unsigned lbd,
                    float activity = 0.0f)
    {
        qbAssert(lits.size() >= 1, "alloc of empty clause");
        qbAssert(lits.size() < (1u << (32 - Clause::kSizeShift)),
                 "clause too long for arena");
        const std::size_t need = kHeaderWords + lits.size();
        qbAssert(mem.size() + need < kRefUndef, "clause arena full");
        const auto ref = static_cast<ClauseRef>(mem.size());
        mem.resize(mem.size() + need);
        Clause &c = deref(ref);
        c.header =
            (static_cast<std::uint32_t>(lits.size()) << Clause::kSizeShift) |
            (learnt ? Clause::kLearntBit : 0);
        c.extra = lbd;
        c.setActivity(activity);
        std::memcpy(c.begin(), lits.data(), lits.size() * sizeof(Lit));
        return ref;
    }

    Clause &operator[](ClauseRef r) { return deref(r); }
    const Clause &operator[](ClauseRef r) const
    {
        return const_cast<ClauseAllocator *>(this)->deref(r);
    }

    /**
     * Account @p r as garbage.  The words stay in place (dangling
     * watchers must already be gone) until the next garbage
     * collection copies the survivors out.
     */
    void free(ClauseRef r)
    {
        wasted_ += kHeaderWords + deref(r).size();
    }

    /** Account @p words literals shaved off in-place (strengthening). */
    void noteShrink(std::size_t words) { wasted_ += words; }

    std::size_t words() const { return mem.size(); }
    std::size_t wasted() const { return wasted_; }

    /**
     * Clause dereferences performed through this allocator since
     * construction.  This is the observable behind the binary-watcher
     * contract: the solver snapshots it around propagate() (which
     * never runs a GC, so the delta is well-defined) and accumulates
     * the deltas into SolverStats::propagationArenaReads, letting
     * tests assert that propagation over binary clauses reads NOTHING
     * from the arena.  Cost: one increment on a cache line already
     * being touched.
     */
    std::uint64_t derefCount() const { return derefs_; }

    void reserveWords(std::size_t w) { mem.reserve(w); }

    /**
     * Move the clause behind @p r into @p to (memoised: the first move
     * leaves a forwarding address, later calls return it).  The
     * Solver's relocAll() maps this over every watcher, reason and
     * clause-list slot; watcher blockers and all header flags survive
     * verbatim.
     */
    ClauseRef reloc(ClauseRef r, ClauseAllocator &to)
    {
        Clause &c = deref(r);
        if (c.relocated())
            return c.forward();
        const std::size_t need = kHeaderWords + c.size();
        qbAssert(to.mem.size() + need < kRefUndef, "clause arena full");
        const auto nr = static_cast<ClauseRef>(to.mem.size());
        to.mem.insert(to.mem.end(), &mem[r], &mem[r] + need);
        c.relocate(nr);
        return nr;
    }

  private:
    // No bounds assert: this is the propagation loop's inner
    // dereference, and qbAssert is active in release builds.
    Clause &deref(ClauseRef r)
    {
        ++derefs_;
        return *reinterpret_cast<Clause *>(&mem[r]);
    }

    std::vector<std::uint32_t> mem;
    std::size_t wasted_ = 0;
    std::uint64_t derefs_ = 0;
};

} // namespace qb::sat

#endif // QB_SAT_CLAUSE_ALLOCATOR_H
