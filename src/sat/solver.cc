#include "sat/solver.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "support/logging.h"

namespace qb::sat {

SolverConfig
SolverConfig::baseline()
{
    SolverConfig cfg;
    cfg.useVsids = true;
    cfg.phaseSaving = true;
    cfg.initialPhaseTrue = false;
    cfg.lubyRestarts = true;
    cfg.preprocess = false;
    return cfg;
}

SolverConfig
SolverConfig::simplify()
{
    SolverConfig cfg;
    cfg.useVsids = true;
    cfg.phaseSaving = true;
    cfg.initialPhaseTrue = true;
    cfg.lubyRestarts = true;
    cfg.restartBase = 2000; // long runs before restarting
    cfg.varDecay = 0.75;    // aggressive recency bias
    cfg.preprocess = true;
    return cfg;
}

void
SolverStats::accumulate(const SolverStats &other)
{
    decisions += other.decisions;
    propagations += other.propagations;
    binPropagations += other.binPropagations;
    propagationArenaReads += other.propagationArenaReads;
    conflicts += other.conflicts;
    restarts += other.restarts;
    learntClauses += other.learntClauses;
    removedClauses += other.removedClauses;
    eliminatedVars += other.eliminatedVars;
    inprocessRuns += other.inprocessRuns;
    vivifiedClauses += other.vivifiedClauses;
    vivifiedLiterals += other.vivifiedLiterals;
    subsumedClauses += other.subsumedClauses;
    strengthenedClauses += other.strengthenedClauses;
    otfStrengthenedClauses += other.otfStrengthenedClauses;
    otfSkipped += other.otfSkipped;
    otfDeferredApplied += other.otfDeferredApplied;
    gcRuns += other.gcRuns;
    gcWordsReclaimed += other.gcWordsReclaimed;
    arenaPeakWords += other.arenaPeakWords;
    peakLearnts += other.peakLearnts;
}

namespace {

/** Inverse of Lit::index(). */
inline Lit
litFromIndex(std::size_t idx)
{
    return mkLit(static_cast<Var>(idx >> 1), (idx & 1) != 0);
}

/**
 * Conflict "reference" propagate() reports for a falsified binary
 * clause, which has no arena clause to name: the two conflict
 * literals are parked in Solver::binConflict instead.  Distinct from
 * kRefUndef (so every `conflict != kRefUndef` check still works) and
 * unreachable as a real allocation in any practical arena.
 */
constexpr ClauseRef kBinConflictRef = kRefUndef - 1;

/** Bound on the strengthenings otfStrengthen() queues for the next
 *  root boundary (oldest kept; see Solver::applyDeferredOtf()). */
constexpr std::size_t kOtfDeferredMax = 64;

} // namespace

/** Watch-list entry; blocker enables the common fast-path check that
 *  decides most visits without ever dereferencing the arena. */
struct Solver::Watcher
{
    ClauseRef cref;
    Lit blocker;
};

/**
 * Binary watch-list entry: the OTHER literal of the clause rides in
 * the watcher, so visiting a binary clause needs one assignment probe
 * and zero arena reads - implication and conflict alike.  Binary
 * clauses exist ONLY as their two mirrored entries (no arena clause at
 * all): an implication carries the other literal in the Reason word,
 * a conflict is reported through Solver::binConflict, and the learnt
 * flag rides here so shrink-style passes can tell redundant binaries
 * from problem structure.
 */
struct Solver::BinWatcher
{
    Lit other;
    bool learnt;
};

/** Binary max-heap over variables ordered by EVSIDS activity. */
class Solver::VarOrder
{
  public:
    explicit VarOrder(const std::vector<double> &act) : activity(act) {}

    void
    insert(Var v)
    {
        if (v >= static_cast<Var>(position.size()))
            position.resize(v + 1, -1);
        if (position[v] >= 0)
            return;
        position[v] = static_cast<int>(heap.size());
        heap.push_back(v);
        siftUp(position[v]);
    }

    bool empty() const { return heap.empty(); }

    Var
    removeMax()
    {
        const Var top = heap[0];
        position[top] = -1;
        if (heap.size() > 1) {
            heap[0] = heap.back();
            position[heap[0]] = 0;
            heap.pop_back();
            siftDown(0);
        } else {
            heap.pop_back();
        }
        return top;
    }

    void
    update(Var v)
    {
        if (v < static_cast<Var>(position.size()) && position[v] >= 0)
            siftUp(position[v]);
    }

  private:
    bool
    less(Var a, Var b) const
    {
        return activity[a] < activity[b] ||
               (activity[a] == activity[b] && a > b);
    }

    void
    siftUp(int i)
    {
        while (i > 0) {
            const int parent = (i - 1) / 2;
            if (!less(heap[parent], heap[i]))
                break;
            std::swap(heap[parent], heap[i]);
            position[heap[parent]] = parent;
            position[heap[i]] = i;
            i = parent;
        }
    }

    void
    siftDown(int i)
    {
        const int n = static_cast<int>(heap.size());
        while (true) {
            const int l = 2 * i + 1, r = 2 * i + 2;
            int best = i;
            if (l < n && less(heap[best], heap[l]))
                best = l;
            if (r < n && less(heap[best], heap[r]))
                best = r;
            if (best == i)
                break;
            std::swap(heap[best], heap[i]);
            position[heap[best]] = best;
            position[heap[i]] = i;
            i = best;
        }
    }

    const std::vector<double> &activity;
    std::vector<Var> heap;
    std::vector<int> position;
};

Solver::Solver(SolverConfig config)
    : cfg(config), order(std::make_unique<VarOrder>(activity))
{
}

Solver::~Solver() = default;

Var
Solver::newVar()
{
    const Var v = numVars();
    assigns.push_back(LBool::Undef);
    levels.push_back(0);
    reasons.push_back(Reason());
    polarity.push_back(cfg.initialPhaseTrue);
    activity.push_back(0.0);
    seen.push_back(0);
    watches.emplace_back();
    watches.emplace_back();
    binWatches.emplace_back();
    binWatches.emplace_back();
    order->insert(v);
    return v;
}

LBool
Solver::value(Lit l) const
{
    const LBool v = assigns[l.var()];
    return l.sign() ? lboolNeg(v) : v;
}

void
Solver::notePeaks()
{
    statistics.arenaPeakWords =
        std::max<std::int64_t>(statistics.arenaPeakWords,
                               static_cast<std::int64_t>(ca.words()));
    statistics.peakLearnts = std::max<std::int64_t>(
        statistics.peakLearnts,
        static_cast<std::int64_t>(learntClauses.size()));
}

bool
Solver::addClause(LitVec lits)
{
    qbAssert(decisionLevel() == 0, "addClause above root level");
    if (!okay)
        return false;
    // New clauses must not be simplified against the placeholder
    // assignments bounded variable elimination leaves behind; undo
    // the elimination first (restoreEliminated() re-enters here with
    // the stack already cleared).
    if (!elimStack.empty()) {
        restoreEliminated();
        // Restoration re-adds the eliminated clauses through this very
        // function; if that latched root unsatisfiability, the solver
        // is broken and the new clause must not be simplified against
        // or attached to it.
        if (!okay)
            return false;
    }
    for (Lit l : lits) {
        while (l.var() >= numVars())
            newVar();
    }
    std::sort(lits.begin(), lits.end());
    LitVec kept;
    Lit prev = kUndefLit;
    for (Lit l : lits) {
        if (value(l) == LBool::True || l == ~prev)
            return true; // satisfied or tautological
        if (value(l) != LBool::False && l != prev)
            kept.push_back(l);
        prev = l;
    }
    if (kept.empty()) {
        okay = false;
        return false;
    }
    if (kept.size() == 1) {
        uncheckedEnqueue(kept[0], Reason());
        okay = propagate() == kRefUndef;
        return okay;
    }
    if (kept.size() == 2) {
        // Binary clauses never touch the arena: the mirrored watcher
        // pair IS the clause.
        attachBinary(kept[0], kept[1], /*learnt=*/false);
        return true;
    }
    const ClauseRef cr = ca.alloc(kept, /*learnt=*/false, /*lbd=*/0);
    problemClauses.push_back(cr);
    attachClause(cr);
    notePeaks();
    return true;
}

void
Solver::addCnf(const Cnf &cnf)
{
    while (numVars() < cnf.numVars())
        newVar();
    if (cnf.trivialConflict())
        okay = false;
    for (const LitVec &c : cnf.clauses()) {
        if (!addClause(c))
            return;
    }
}

void
Solver::attachClause(ClauseRef cr)
{
    const Clause &c = ca[cr];
    qbAssert(c.size() >= 3, "attaching short clause");
    watches[(~c[0]).index()].push_back({cr, c[1]});
    watches[(~c[1]).index()].push_back({cr, c[0]});
}

void
Solver::detachClause(ClauseRef cr)
{
    const Clause &c = ca[cr];
    for (Lit w : {c[0], c[1]}) {
        auto &list = watches[(~w).index()];
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list[i].cref == cr) {
                list[i] = list.back();
                list.pop_back();
                break;
            }
        }
    }
}

bool
Solver::attachBinary(Lit a, Lit b, bool learnt)
{
    qbAssert(a.var() != b.var(), "degenerate binary clause");
    // Duplicate-aware: the lists stay set-like, so a re-derived
    // binary (root cleaning, subsumption shrinks) must not file a
    // second edge pair.  A problem-status duplicate of a learnt
    // binary upgrades both existing entries instead, so no pass can
    // ever retire what is really problem structure.
    auto &fwd = binWatches[(~a).index()];
    for (BinWatcher &w : fwd) {
        if (w.other != b)
            continue;
        if (!learnt && w.learnt) {
            w.learnt = false;
            for (BinWatcher &m : binWatches[(~b).index()]) {
                if (m.other == a)
                    m.learnt = false;
            }
        }
        return false;
    }
    fwd.push_back({b, learnt});
    binWatches[(~b).index()].push_back({a, learnt});
    return true;
}

void
Solver::checkInvariants() const
{
    // Live set + exact arena accounting: everything problemClauses
    // and learntClauses reference, and nothing else, occupies the
    // non-wasted part of the arena.  Binary clauses live only in the
    // binary watch lists, so every arena clause has size >= 3.
    std::unordered_set<ClauseRef> live;
    std::size_t live_words = 0;
    for (const auto *list : {&problemClauses, &learntClauses}) {
        for (const ClauseRef cr : *list) {
            qbAssert(live.insert(cr).second,
                     "invariant: clause listed twice");
            const Clause &c = ca[cr];
            qbAssert(c.size() >= 3,
                     "invariant: short clause in the arena");
            live_words += ClauseAllocator::kHeaderWords + c.size();
        }
    }
    qbAssert(live_words + ca.wasted() == ca.words(),
             "invariant: arena waste accounting drifted");

    // Every watcher points at a live clause and is filed under one of
    // its two watched slots, with a blocker drawn from the clause.
    // Counting per (clause, slot) makes the exactly-twice property of
    // attachClause() checkable in one scan.
    std::unordered_map<ClauseRef, unsigned> seen_watch;
    std::size_t long_watchers = 0;
    for (std::size_t idx = 0; idx < watches.size(); ++idx) {
        for (const Watcher &w : watches[idx]) {
            ++long_watchers;
            qbAssert(live.count(w.cref),
                     "invariant: watcher on freed clause");
            const Clause &c = ca[w.cref];
            qbAssert((~c[0]).index() == idx || (~c[1]).index() == idx,
                     "invariant: watcher filed under an unwatched "
                     "literal");
            bool blocker_in_clause = false;
            for (unsigned i = 0; i < c.size() && !blocker_in_clause;
                 ++i)
                blocker_in_clause = c[i] == w.blocker;
            qbAssert(blocker_in_clause,
                     "invariant: blocker not in its clause");
            ++seen_watch[w.cref];
        }
    }
    qbAssert(long_watchers == 2 * live.size(),
             "invariant: long watcher count != 2 * live clauses");
    for (const ClauseRef cr : live)
        qbAssert(seen_watch[cr] == 2,
                 "invariant: live clause not watched exactly twice");

    // The binary implication graph: every directed edge a→b (filed
    // under a's index with b inlined) appears once, never self-loops,
    // and has its mirror edge ¬b→¬a filed with the SAME learnt flag -
    // the two entries of one clause must agree on everything.
    std::unordered_map<std::uint64_t, bool> edges;
    for (std::size_t idx = 0; idx < binWatches.size(); ++idx) {
        const Lit trigger = litFromIndex(idx);
        for (const BinWatcher &w : binWatches[idx]) {
            qbAssert(w.other.var() != trigger.var(),
                     "invariant: self or tautological binary");
            const std::uint64_t key =
                (static_cast<std::uint64_t>(idx) << 32) |
                static_cast<std::uint64_t>(w.other.index());
            qbAssert(edges.emplace(key, w.learnt).second,
                     "invariant: duplicate binary edge");
        }
    }
    for (const auto &[key, learnt] : edges) {
        // Edge idx→other mirrors as (other^1)→(idx^1): negating a
        // literal flips the low bit of its index.
        const std::uint64_t mirror =
            (((key & 0xFFFFFFFFULL) ^ 1ULL) << 32) |
            ((key >> 32) ^ 1ULL);
        const auto it = edges.find(mirror);
        qbAssert(it != edges.end(),
                 "invariant: binary edge missing its mirror");
        qbAssert(it->second == learnt,
                 "invariant: binary mirror learnt-flag mismatch");
    }

    // Trail/reason consistency.  Long reasons keep the implied
    // literal normalized into slot 0; a binary reason is
    // self-contained - its word holds the OTHER literal of the
    // clause, which must be false for as long as the implication
    // stands (the other literal was falsified at or below the
    // implied literal's level).
    for (const Lit l : trail) {
        qbAssert(value(l) == LBool::True,
                 "invariant: false literal on the trail");
        const Reason r = reasons[l.var()];
        if (r.isUndef())
            continue;
        if (r.isBinary()) {
            qbAssert(value(r.otherLit()) == LBool::False,
                     "invariant: binary reason's other literal not "
                     "false");
            continue;
        }
        qbAssert(live.count(r.clauseRef()),
                 "invariant: reason clause was freed");
        const Clause &c = ca[r.clauseRef()];
        qbAssert(c[0] == l,
                 "invariant: reason clause does not imply its "
                 "literal");
    }
}

void
Solver::removeClause(ClauseRef cr)
{
    detachClause(cr);
    purgeDeferredOtf(cr);
    ca.free(cr);
    ++statistics.removedClauses;
}

bool
Solver::locked(ClauseRef cr) const
{
    // Only long clauses live in the arena, and long-clause
    // propagation normalizes the implied literal into slot 0.
    const Clause &c = ca[cr];
    const Reason r = reasons[c[0].var()];
    return r.isClause() && r.clauseRef() == cr &&
           value(c[0]) == LBool::True;
}

void
Solver::uncheckedEnqueue(Lit l, Reason reason)
{
    qbAssert(value(l) == LBool::Undef, "enqueue of assigned literal");
    assigns[l.var()] = lboolOf(!l.sign());
    levels[l.var()] = decisionLevel();
    reasons[l.var()] = reason;
    if (cfg.phaseSaving)
        polarity[l.var()] = !l.sign();
    trail.push_back(l);
}

ClauseRef
Solver::propagate()
{
    ClauseRef conflict = kRefUndef;
    const std::uint64_t derefs_before = ca.derefCount();
    while (qhead < trail.size()) {
        const Lit p = trail[qhead++];
        ++statistics.propagations;
        // Binary clauses first: the implied literal is inlined in the
        // watcher, so this whole loop performs zero arena reads -
        // every binary is decided from the watcher pair and the
        // assignment array alone.  Running them before the long
        // clauses also finds the cheap implications (and conflicts)
        // before any clause memory is touched.
        {
            const auto &bins = binWatches[p.index()];
            for (const BinWatcher w : bins) {
                const LBool v = value(w.other);
                if (v == LBool::True)
                    continue;
                if (v == LBool::False) {
                    // No arena clause to name: report the sentinel
                    // and park the two literals for analyze().
                    binConflict[0] = ~p;
                    binConflict[1] = w.other;
                    conflict = kBinConflictRef;
                    qhead = trail.size();
                    break;
                }
                ++statistics.binPropagations;
                uncheckedEnqueue(w.other, Reason::binary(~p));
            }
            if (conflict != kRefUndef)
                break;
        }
        auto &list = watches[p.index()];
        std::size_t keep = 0;
        std::size_t i = 0;
        for (; i < list.size(); ++i) {
            const Watcher w = list[i];
            // Blocker fast path: one literal probe, no arena access.
            if (value(w.blocker) == LBool::True) {
                list[keep++] = w;
                continue;
            }
            Clause &c = ca[w.cref];
            // Normalize so the false literal ~p sits at lits[1].
            const Lit not_p = ~p;
            if (c[0] == not_p)
                std::swap(c[0], c[1]);
            const Lit first = c[0];
            if (first != w.blocker && value(first) == LBool::True) {
                list[keep++] = {w.cref, first};
                continue;
            }
            // Look for a replacement watch.
            bool moved = false;
            const unsigned size = c.size();
            for (unsigned k = 2; k < size; ++k) {
                if (value(c[k]) != LBool::False) {
                    std::swap(c[1], c[k]);
                    watches[(~c[1]).index()].push_back(
                        {w.cref, first});
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // Clause is unit or conflicting.
            list[keep++] = {w.cref, first};
            if (value(first) == LBool::False) {
                conflict = w.cref;
                qhead = trail.size();
                ++i;
                break;
            }
            uncheckedEnqueue(first, Reason::clause(w.cref));
        }
        for (; i < list.size(); ++i)
            list[keep++] = list[i];
        list.resize(keep);
        if (conflict != kRefUndef)
            break;
    }
    statistics.propagationArenaReads += static_cast<std::int64_t>(
        ca.derefCount() - derefs_before);
    return conflict;
}

/**
 * The LONG reason clause of assigned variable @p v, with the implied
 * literal in slot 0 - the layout conflict analysis iterates from
 * index 1 under, established by the propagation loop itself.  Binary
 * reasons never reach here: their single antecedent literal is read
 * straight out of the Reason word.
 */
Clause &
Solver::reasonClause(Var v)
{
    const Reason r = reasons[v];
    qbAssert(r.isClause(), "reasonClause without long reason");
    Clause &c = ca[r.clauseRef()];
    qbAssert(c[0].var() == v, "unnormalized long reason");
    return c;
}

unsigned
Solver::computeLbd(const LitVec &lits)
{
    // Number of distinct decision levels; small LBD = valuable clause.
    std::vector<int> lvl;
    lvl.reserve(lits.size());
    for (Lit l : lits)
        lvl.push_back(levels[l.var()]);
    std::sort(lvl.begin(), lvl.end());
    return static_cast<unsigned>(
        std::unique(lvl.begin(), lvl.end()) - lvl.begin());
}

void
Solver::analyze(ClauseRef conflict, LitVec &out_learnt, int &out_btlevel,
                unsigned &out_lbd)
{
    out_learnt.clear();
    out_learnt.push_back(kUndefLit); // slot for the asserting literal
    otfCandidates.clear();
    int counter = 0;
    Lit p = kUndefLit;
    std::size_t index = trail.size();
    do {
        // Resolution source: the conflict first, then each pivot's
        // reason.  A binary source has no arena clause - its
        // antecedent literals come from binConflict (both literals)
        // or the pivot's Reason word (the single other literal).
        Lit bin_tail[2];
        const Lit *tail = nullptr;
        std::size_t tail_size = 0;
        Clause *rc = nullptr;
        ClauseRef rc_ref = kRefUndef;
        if (p == kUndefLit) {
            if (conflict == kBinConflictRef) {
                bin_tail[0] = binConflict[0];
                bin_tail[1] = binConflict[1];
                tail = bin_tail;
                tail_size = 2;
            } else {
                rc = &ca[conflict];
                rc_ref = conflict;
            }
        } else {
            const Reason r = reasons[p.var()];
            qbAssert(!r.isUndef(), "analyze without reason");
            if (r.isBinary()) {
                bin_tail[0] = r.otherLit();
                tail = bin_tail;
                tail_size = 1;
            } else {
                rc = &reasonClause(p.var());
                rc_ref = r.clauseRef();
            }
        }
        if (rc != nullptr) {
            if (rc->learnt())
                claBumpActivity(*rc);
            const std::size_t start = (p == kUndefLit) ? 0 : 1;
            tail = rc->begin() + start;
            tail_size = rc->size() - start;
        }
        unsigned root_lits = 0;
        for (std::size_t j = 0; j < tail_size; ++j) {
            const Lit q = tail[j];
            if (levels[q.var()] == 0)
                ++root_lits;
            if (!seen[q.var()] && levels[q.var()] > 0) {
                seen[q.var()] = 1;
                varBumpActivity(q.var());
                if (levels[q.var()] >= decisionLevel())
                    ++counter;
                else
                    out_learnt.push_back(q);
            }
        }
        // On-the-fly self-subsumption (Han/Somenzi-style): the
        // running resolvent is `counter` conflict-level literals
        // plus the out_learnt tail.  Right after resolving reason rc
        // on pivot p, the resolvent contains all of rc except the
        // pivot and rc's root-false literals (rc's other literals
        // were assigned before p, so none has been resolved away
        // yet); if the sizes match it IS exactly that set, i.e. an
        // implied clause subsuming rc with the pivot removed.
        // Remember (rc, pivot); search() strengthens the arena in
        // place once backtracking has unlocked the antecedent.
        // Binary reasons have nothing to strengthen.
        if (cfg.otfSubsume && p != kUndefLit && rc != nullptr &&
            rc->size() >= 3 &&
            otfCandidates.size() < cfg.otfMaxAntecedents) {
            const std::size_t resolvent =
                static_cast<std::size_t>(counter) +
                out_learnt.size() - 1;
            if (resolvent + root_lits + 1 == rc->size())
                otfCandidates.push_back({rc_ref, (*rc)[0]});
        }
        // Pick the next seen literal from the trail.
        while (!seen[trail[index - 1].var()])
            --index;
        p = trail[--index];
        seen[p.var()] = 0;
        --counter;
    } while (counter > 0);
    out_learnt[0] = ~p;

    // Recursive minimization: drop literals implied by the rest.  All
    // seen[] marks set here and in litRedundant() are collected so they
    // can be cleared before the next analyze() call.
    analyzeClear.clear();
    for (std::size_t i = 1; i < out_learnt.size(); ++i)
        analyzeClear.push_back(out_learnt[i].var());
    std::uint32_t ab_levels = 0;
    for (std::size_t i = 1; i < out_learnt.size(); ++i)
        ab_levels |= 1u << (levels[out_learnt[i].var()] & 31);
    std::size_t keep = 1;
    for (std::size_t i = 1; i < out_learnt.size(); ++i) {
        const Lit l = out_learnt[i];
        if (reasons[l.var()].isUndef() ||
            !litRedundant(l, ab_levels))
            out_learnt[keep++] = l;
    }
    out_learnt.resize(keep);

    out_btlevel = 0;
    if (out_learnt.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < out_learnt.size(); ++i) {
            if (levels[out_learnt[i].var()] >
                levels[out_learnt[max_i].var()])
                max_i = i;
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = levels[out_learnt[1].var()];
    }
    out_lbd = computeLbd(out_learnt);
    for (Var v : analyzeClear)
        seen[v] = 0;
}

void
Solver::analyzeFinal(Lit failed)
{
    // Final-conflict analysis (MiniSat's analyzeFinal): @p failed is an
    // assumption whose negation is implied by the other assumptions.
    // Walk the trail backwards from the implication, expanding reasons;
    // every reason-less (decision) literal reached is an assumption
    // participating in the conflict.  Expressed directly in assumption
    // literals rather than as a negated conflict clause.
    conflictCore.clear();
    conflictCore.push_back(failed);
    if (decisionLevel() > 0) {
        seen[failed.var()] = 1;
        for (std::size_t i = trail.size();
             i > static_cast<std::size_t>(trailLim[0]); --i) {
            const Var x = trail[i - 1].var();
            if (!seen[x])
                continue;
            const Reason r = reasons[x];
            if (r.isUndef()) {
                // Decisions below the assumption prefix are
                // assumptions.
                conflictCore.push_back(trail[i - 1]);
            } else if (r.isBinary()) {
                const Var v = r.otherLit().var();
                if (levels[v] > 0)
                    seen[v] = 1;
            } else {
                const Clause &rc = reasonClause(x);
                const unsigned size = rc.size();
                for (std::size_t j = 1; j < size; ++j) {
                    const Var v = rc[j].var();
                    if (levels[v] > 0)
                        seen[v] = 1;
                }
            }
            seen[x] = 0;
        }
        seen[failed.var()] = 0;
    }
}

bool
Solver::litRedundant(Lit l, std::uint32_t ab_levels)
{
    // Depth-first check that every antecedent of l is already seen.
    std::vector<Lit> stack{l};
    std::vector<Var> cleared;
    bool redundant = true;
    // One antecedent literal: already-seen/root literals pass, a
    // decision or level outside the learnt clause's level set fails,
    // anything else is explored in turn.
    const auto visit = [this, &ab_levels, &cleared,
                        &stack](const Lit q) {
        if (seen[q.var()] || levels[q.var()] == 0)
            return true;
        if (reasons[q.var()].isUndef() ||
            !(ab_levels & (1U << (levels[q.var()] & 31))))
            return false;
        seen[q.var()] = 1;
        cleared.push_back(q.var());
        stack.push_back(q);
        return true;
    };
    while (!stack.empty() && redundant) {
        const Lit cur = stack.back();
        stack.pop_back();
        const Reason r = reasons[cur.var()];
        qbAssert(!r.isUndef(), "litRedundant without reason");
        if (r.isBinary()) {
            redundant = visit(r.otherLit());
            continue;
        }
        const Clause &rc = reasonClause(cur.var());
        const unsigned size = rc.size();
        for (std::size_t j = 1; j < size && redundant; ++j)
            redundant = visit(rc[j]);
    }
    if (!redundant) {
        for (Var v : cleared)
            seen[v] = 0;
    } else {
        // Keep the marks (they short-circuit later redundancy checks)
        // but register them for clearing at the end of analyze().
        analyzeClear.insert(analyzeClear.end(), cleared.begin(),
                            cleared.end());
    }
    return redundant;
}

/**
 * On-the-fly self-subsumption (learn-time clause improvement): apply
 * the strengthenings analyze() discovered - during resolution, the
 * running resolvent turned out to equal an antecedent minus its
 * pivot, so that antecedent can lose the pivot literal, in the arena,
 * NOW, instead of waiting for the slice-boundary subsumption pass to
 * rediscover the pair.
 *
 * Called from search() AFTER backtracking to the assertion level:
 * every candidate was the reason of a conflict-level variable, so
 * none is locked any more and detaching is safe.  The edit keeps all
 * watch invariants: the clause is detached, the pivot removed, and
 * watches are re-picked among literals not false under the current
 * assignment - a shrink to binary simply re-attaches through the
 * specialized binary lists.  When fewer than two non-false literals
 * would remain the clause is left untouched (counted as otfSkipped);
 * vivification will catch it at the root.
 */
void
Solver::otfStrengthen()
{
    for (const auto &[cr, pivot] : otfCandidates) {
        const Clause &c = ca[cr];
        if (locked(cr))
            continue; // defensive: never edit a live reason
        // Commit only if the remainder still has two watchable
        // (non-false) literals right now.
        unsigned nonfalse = 0;
        for (const Lit y : c)
            if (y != pivot && value(y) != LBool::False)
                ++nonfalse;
        if (nonfalse < 2) {
            ++statistics.otfSkipped;
            // Remember the pair for the next root boundary, where the
            // edit is always safe, instead of waiting for the
            // slice-boundary vivification pass (see applyDeferredOtf).
            if (otfDeferred.size() < kOtfDeferredMax)
                otfDeferred.push_back({cr, pivot});
            continue;
        }
        strengthenInPlace(cr, pivot);
        ++statistics.otfStrengthenedClauses;
    }
    otfCandidates.clear();
}

/** Drop queued deferred strengthenings of the clause behind @p cr;
 *  called from every clause-free site so otfDeferred never holds a
 *  dangling ClauseRef. */
void
Solver::purgeDeferredOtf(ClauseRef cr)
{
    if (otfDeferred.empty())
        return;
    std::erase_if(otfDeferred, [cr](const OtfCandidate &d) {
        return d.cref == cr;
    });
}

/**
 * Apply the strengthenings otfStrengthen() had to skip mid-search.
 * Called at root boundaries only - solve() entry and restarts that
 * return to decision level 0 - where strengthenInPlace() is
 * unconditionally safe: a result that goes unit is enqueued on the
 * root trail, an empty result latches Unsat (mirroring the
 * backwardSubsume() strengthening path).  Every queued cref is live
 * (see purgeDeferredOtf), but the clause may have changed since the
 * skip - the pivot is re-checked before editing.
 */
void
Solver::applyDeferredOtf()
{
    qbAssert(decisionLevel() == 0, "deferred OTF above root level");
    std::vector<OtfCandidate> pending;
    pending.swap(otfDeferred);
    for (std::size_t k = 0; k < pending.size() && okay; ++k) {
        const ClauseRef cr = pending[k].cref;
        const Lit pivot = pending[k].pivot;
        if (cr == kRefUndef || locked(cr))
            continue;
        const Clause &c = ca[cr];
        // Vivification/subsumption may have rewritten the clause since
        // the skip; only edit if the pivot is still present and the
        // clause can lose a literal.
        bool has_pivot = false;
        for (const Lit y : c)
            has_pivot |= (y == pivot);
        if (!has_pivot || c.size() < 2)
            continue;
        const bool learnt = c.learnt();
        const Strengthened s = strengthenInPlace(cr, pivot);
        ++statistics.otfDeferredApplied;
        if (s.becameBinary) {
            // The clause dissolved into the binary watch lists
            // (strengthenInPlace freed the ref and unlisted it);
            // invalidate later queue entries that still name it.
            for (std::size_t j = k + 1; j < pending.size(); ++j)
                if (pending[j].cref == cr)
                    pending[j].cref = kRefUndef;
            continue;
        }
        if (s.nonfalse >= 2)
            continue;
        // Unit (or empty) at the root: dissolve into the trail, free
        // the clause, and invalidate any later queue entries (and the
        // clause-list slot) that still name it.
        const Clause &d = ca[cr];
        const Lit unit = d.size() > 0 ? d[0] : kUndefLit;
        auto &list = learnt ? learntClauses : problemClauses;
        std::erase(list, cr);
        ca.free(cr);
        for (std::size_t j = k + 1; j < pending.size(); ++j)
            if (pending[j].cref == cr)
                pending[j].cref = kRefUndef;
        if (s.nonfalse == 0) {
            okay = false;
            break;
        }
        if (value(unit) == LBool::Undef) {
            uncheckedEnqueue(unit, Reason());
            okay = propagate() == kRefUndef;
        }
    }
}

/**
 * Remove @p l from the clause behind @p cr in place: detach, drop the
 * literal (accounting the shaved word), tighten the LBD, re-pick
 * watches among literals not false under the CURRENT assignment and
 * re-attach.  A shrink to TWO literals dissolves the clause out of
 * the arena entirely - it is freed, unlisted and re-filed as a
 * mirrored pair in the binary watch lists (becameBinary reports the
 * dead cref to the caller).  With fewer than two non-false literals
 * the clause is left DETACHED (unit or conflicting under the current
 * assignment) and the caller decides its fate.  Shared by the
 * learn-time OTF pass and the slice-boundary subsumption pass.
 */
Solver::Strengthened
Solver::strengthenInPlace(ClauseRef cr, Lit l)
{
    detachClause(cr);
    Clause &c = ca[cr];
    c.removeLiteral(l);
    ca.noteShrink(1);
    c.setLbd(std::min(c.lbd(), c.size()));
    std::size_t nonfalse = 0;
    for (std::size_t i = 0; i < c.size() && nonfalse < 2; ++i) {
        if (value(c[i]) != LBool::False)
            std::swap(c[nonfalse++], c[i]);
    }
    if (nonfalse < 2)
        return {nonfalse, false};
    if (c.size() == 2) {
        const Lit a = c[0];
        const Lit b = c[1];
        const bool learnt = c.learnt();
        auto &list = learnt ? learntClauses : problemClauses;
        std::erase(list, cr);
        purgeDeferredOtf(cr);
        ca.free(cr);
        attachBinary(a, b, learnt);
        return {nonfalse, true};
    }
    attachClause(cr);
    return {nonfalse, false};
}

void
Solver::cancelUntil(int target_level)
{
    if (decisionLevel() <= target_level)
        return;
    for (std::size_t i = trail.size();
         i > static_cast<std::size_t>(trailLim[target_level]); --i) {
        const Var v = trail[i - 1].var();
        assigns[v] = LBool::Undef;
        reasons[v] = Reason();
        order->insert(v);
    }
    trail.resize(trailLim[target_level]);
    trailLim.resize(target_level);
    qhead = trail.size();
}

Lit
Solver::pickBranchLit()
{
    if (cfg.useVsids) {
        while (!order->empty()) {
            // Peek by removing; re-inserted on backtrack.
            const Var v = order->removeMax();
            if (assigns[v] == LBool::Undef)
                return mkLit(v, !polarity[v]);
        }
        return kUndefLit;
    }
    for (Var v = 0; v < numVars(); ++v) {
        if (assigns[v] == LBool::Undef)
            return mkLit(v, !polarity[v]);
    }
    return kUndefLit;
}

void
Solver::varBumpActivity(Var v)
{
    activity[v] += varInc;
    if (activity[v] > 1e100) {
        for (double &a : activity)
            a *= 1e-100;
        varInc *= 1e-100;
    }
    order->update(v);
}

void
Solver::varDecayActivity()
{
    varInc /= cfg.varDecay;
}

void
Solver::claBumpActivity(Clause &c)
{
    c.setActivity(static_cast<float>(c.activity() + claInc));
    if (c.activity() > 1e20f) {
        for (ClauseRef lc : learntClauses) {
            Clause &x = ca[lc];
            x.setActivity(x.activity() * 1e-20f);
        }
        claInc *= 1e-20;
    }
}

void
Solver::claDecayActivity()
{
    claInc /= cfg.clauseDecay;
    // Activities are float in the arena header: rescale on the
    // increment itself, not only on a bump, so a long bump-free streak
    // cannot push claInc past float range.
    if (claInc > 1e20) {
        for (ClauseRef lc : learntClauses) {
            Clause &x = ca[lc];
            x.setActivity(x.activity() * 1e-20f);
        }
        claInc *= 1e-20;
    }
}

void
Solver::reduceDb()
{
    // Keep the better half, ranked by LBD then activity; always keep
    // clauses that are reasons for current assignments.
    std::sort(learntClauses.begin(), learntClauses.end(),
              [this](ClauseRef a, ClauseRef b) {
                  const Clause &x = ca[a];
                  const Clause &y = ca[b];
                  if (x.lbd() != y.lbd())
                      return x.lbd() < y.lbd();
                  return x.activity() > y.activity();
              });
    std::vector<ClauseRef> kept;
    kept.reserve(learntClauses.size());
    const std::size_t limit = learntClauses.size() / 2;
    for (std::size_t i = 0; i < learntClauses.size(); ++i) {
        const ClauseRef cr = learntClauses[i];
        if (i < limit || locked(cr) || ca[cr].lbd() <= 2)
            kept.push_back(cr);
        else
            removeClause(cr);
    }
    learntClauses = std::move(kept);
    maybeGarbageCollect();
}

void
Solver::restoreEliminated()
{
    // Undo bounded variable elimination: clear the placeholder
    // assignments, then re-add the original clauses each elimination
    // saved.  The resolvents stay (they are implied), so nothing that
    // was learnt since becomes unsound.  Restoration runs newest
    // elimination first: a variable's saved clauses can mention
    // variables eliminated later, never earlier (those were already
    // gone from the live clause set when it was eliminated).
    qbAssert(decisionLevel() == 0, "restore above root level");
    // Move the stack aside first: addClause() below re-enters the
    // elimStack guard, which must already see it empty.
    const auto saved = std::move(elimStack);
    const FlatClauses clauses = std::move(elimClauses);
    elimStack.clear();
    elimClauses = {};
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
        const Var v = it->first;
        assigns[v] = LBool::Undef;
        order->insert(v);
    }
    for (std::size_t k = saved.size(); k-- > 0;) {
        for (std::uint32_t i = k == 0 ? 0 : saved[k - 1].second;
             i < saved[k].second; ++i) {
            if (!addClause(LitVec(clauses[i].begin(), clauses[i].end())))
                return;
        }
    }
    statistics.eliminatedVars = 0;
}

void
Solver::shrinkLearnts(unsigned max_lbd)
{
    qbAssert(decisionLevel() == 0, "shrinkLearnts above root level");
    std::vector<ClauseRef> kept;
    kept.reserve(learntClauses.size());
    for (const ClauseRef cr : learntClauses) {
        if (locked(cr) || ca[cr].lbd() <= max_lbd) {
            kept.push_back(cr);
            continue;
        }
        removeClause(cr);
    }
    learntClauses = std::move(kept);
    maybeGarbageCollect();
}

std::int64_t
Solver::luby(std::int64_t i)
{
    // Finite-subsequence trick from the MiniSat sources.
    std::int64_t size = 1, seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        --seq;
        i = i % size;
    }
    return std::int64_t{1} << seq;
}

SolveResult
Solver::search(std::int64_t conflict_limit)
{
    std::int64_t conflicts_here = 0;
    LitVec learnt;
    while (true) {
        if (stopFlag != nullptr &&
            stopFlag->load(std::memory_order_relaxed)) {
            cancelUntil(0);
            return SolveResult::Unknown;
        }
        const ClauseRef conflict = propagate();
        if (conflict != kRefUndef) {
            ++statistics.conflicts;
            ++conflicts_here;
            if (decisionLevel() == 0) {
                // A root-level conflict means the clause database
                // itself is unsatisfiable; latch that for later
                // incremental calls (the falsified clause has already
                // been consumed from the propagation queue, so a
                // fresh search would not rediscover it).
                okay = false;
                return SolveResult::Unsat;
            }
            int bt_level;
            unsigned lbd;
            analyze(conflict, learnt, bt_level, lbd);
            cancelUntil(bt_level);
            // Learn-time clause improvement: strengthen antecedents
            // the fresh clause self-subsumes, now that backtracking
            // has unlocked them.
            if (cfg.otfSubsume)
                otfStrengthen();
            if (learnt.size() == 1) {
                uncheckedEnqueue(learnt[0], Reason());
            } else if (learnt.size() == 2) {
                // Learnt binaries never touch the arena: the watcher
                // pair is the clause and the Reason word carries the
                // antecedent literal.
                attachBinary(learnt[0], learnt[1], /*learnt=*/true);
                ++statistics.learntClauses;
                uncheckedEnqueue(learnt[0],
                                 Reason::binary(learnt[1]));
            } else {
                const ClauseRef cr =
                    ca.alloc(learnt, /*learnt=*/true, lbd,
                             static_cast<float>(claInc));
                learntClauses.push_back(cr);
                ++statistics.learntClauses;
                attachClause(cr);
                uncheckedEnqueue(learnt[0], Reason::clause(cr));
                notePeaks();
            }
            varDecayActivity();
            claDecayActivity();
            if (cfg.conflictBudget >= 0 &&
                statistics.conflicts - conflictsAtCallStart >=
                    cfg.conflictBudget)
                return SolveResult::Unknown;
        } else {
            if (conflict_limit >= 0 && conflicts_here >= conflict_limit) {
                // Restart: keep the assumption prefix of the trail so
                // the next search round does not re-propagate the
                // whole assumption cone (solve() unwinds to the root
                // before returning to the caller).
                cancelUntil(static_cast<int>(assumptions.size()));
                return SolveResult::Unknown;
            }
            // The legacy one-shot trigger scales with the problem
            // size, which in a long-lived incremental solver lets the
            // learnt database grow with session age and tax every
            // later query.  learntLimitBase selects an absolute limit
            // instead, rate-limited by conflict count so a floor of
            // protected (locked / lbd<=2) clauses cannot force a
            // database sort on every decision.
            if (cfg.reduceDb) {
                if (cfg.learntLimitBase >= 0) {
                    if (learntClauses.size() >
                            static_cast<std::size_t>(
                                cfg.learntLimitBase) +
                                trail.size() &&
                        statistics.conflicts >= nextReduceConflicts) {
                        reduceDb();
                        nextReduceConflicts =
                            statistics.conflicts + 1000;
                    }
                } else if (learntClauses.size() >
                           problemClauses.size() / 3 + 3000 +
                               trail.size()) {
                    reduceDb();
                }
            }
            // Extend the assumption prefix before free decisions: each
            // assumption gets its own decision level, so conflict
            // analysis can attribute an eventual Unsat to the precise
            // subset of assumptions it used.
            Lit next = kUndefLit;
            while (decisionLevel() <
                   static_cast<int>(assumptions.size())) {
                const Lit a = assumptions[decisionLevel()];
                if (value(a) == LBool::True) {
                    // Already implied: dummy level keeps the
                    // level <-> assumption-index correspondence.
                    trailLim.push_back(static_cast<int>(trail.size()));
                } else if (value(a) == LBool::False) {
                    analyzeFinal(a);
                    return SolveResult::Unsat;
                } else {
                    next = a;
                    break;
                }
            }
            if (next == kUndefLit) {
                next = pickBranchLit();
                if (next == kUndefLit) {
                    model.assign(assigns.begin(), assigns.end());
                    return SolveResult::Sat;
                }
            }
            ++statistics.decisions;
            trailLim.push_back(static_cast<int>(trail.size()));
            uncheckedEnqueue(next, Reason());
        }
    }
}

SolveResult
Solver::solve()
{
    return solve(LitVec{});
}

SolveResult
Solver::solve(const LitVec &assumps)
{
    assumptions = assumps;
    conflictCore.clear();
    conflictsAtCallStart = statistics.conflicts;
    if (!okay)
        return SolveResult::Unsat;
    for (Lit a : assumptions) {
        while (a.var() >= numVars())
            newVar();
    }
    if (propagate() != kRefUndef) {
        okay = false;
        return SolveResult::Unsat;
    }
    // Bounded variable elimination is a one-shot, whole-database
    // transformation: it is unsound to run once clauses have been
    // learnt or when assumptions may mention eliminated variables, so
    // it only runs on the first assumption-free call - and if an
    // assumption-based call arrives after it has run, the eliminated
    // clauses are restored first (an eliminated variable carries a
    // placeholder assignment that would silently satisfy or falsify
    // assumptions on it).
    if (!assumptions.empty() && !elimStack.empty()) {
        restoreEliminated();
        if (!okay)
            return SolveResult::Unsat;
    }
    if (cfg.preprocess && assumptions.empty() && !preprocessed &&
        learntClauses.empty()) {
        preprocessed = true;
        if (!preprocessEliminate()) {
            okay = false;
            return SolveResult::Unsat;
        }
    }
    // Root boundary: land the strengthenings the last call's conflict
    // analysis could not apply mid-search.
    if (!otfDeferred.empty()) {
        applyDeferredOtf();
        if (!okay)
            return SolveResult::Unsat;
    }
    std::int64_t restart = 0;
    double geometric = static_cast<double>(cfg.restartBase);
    while (true) {
        const std::int64_t limit = cfg.lubyRestarts
            ? luby(restart) * cfg.restartBase
            : static_cast<std::int64_t>(geometric);
        const SolveResult result = search(limit);
        if (result != SolveResult::Unknown) {
            if (result == SolveResult::Sat) {
                // Extend the model over eliminated variables.
                for (std::size_t k = elimStack.size(); k-- > 0;) {
                    const Var v = elimStack[k].first;
                    model[v] = LBool::True;
                    for (std::uint32_t i =
                             k == 0 ? 0 : elimStack[k - 1].second;
                         i < elimStack[k].second; ++i) {
                        bool sat = false;
                        bool v_neg = false;
                        for (Lit l : elimClauses[i]) {
                            if (l.var() == v) {
                                v_neg = l.sign();
                                continue;
                            }
                            if (model[l.var()] == lboolOf(!l.sign())) {
                                sat = true;
                                break;
                            }
                        }
                        if (!sat)
                            model[v] = lboolOf(!v_neg);
                    }
                }
            }
            cancelUntil(0);
            return result;
        }
        if (cfg.conflictBudget >= 0 &&
            statistics.conflicts - conflictsAtCallStart >=
                cfg.conflictBudget) {
            cancelUntil(0);
            return SolveResult::Unknown;
        }
        if (stopFlag != nullptr &&
            stopFlag->load(std::memory_order_relaxed)) {
            cancelUntil(0);
            return SolveResult::Unknown;
        }
        // A restart that lands at the root is also a safe point for
        // the deferred strengthenings (assumption-based calls keep
        // their assumption prefix and defer to the next solve()).
        if (!otfDeferred.empty() && decisionLevel() == 0) {
            applyDeferredOtf();
            if (!okay) {
                cancelUntil(0);
                return SolveResult::Unsat;
            }
        }
        ++statistics.restarts;
        ++restart;
        geometric *= 1.5;
    }
}

LBool
Solver::modelValue(Var v) const
{
    if (v < 0 || v >= static_cast<Var>(model.size()))
        return LBool::Undef;
    return model[v];
}

bool
Solver::preprocessEliminate()
{
    // Bounded variable elimination (NiVER-style): resolve away variables
    // whenever doing so does not grow the clause count.  Operates on the
    // root-level problem clauses before any learning has happened.
    qbAssert(decisionLevel() == 0, "preprocess above root level");
    // Every assignment is a root-level fact here and none of their
    // reason clauses survive the rebuild below.  Drop the references
    // NOW: conflict analysis never expands level-0 reasons, but a kept
    // reference would make relocAll() resurrect the freed clause into
    // every future arena - an unbounded, unaccounted leak.
    for (const Lit l : trail)
        reasons[l.var()] = Reason();

    // The working clause set.  Every clause in it is a set of distinct,
    // non-complementary literals (addClause() sorts and drops
    // tautologies; later rewrites only remove literals), which is what
    // lets the candidate check below count resolvents with marks.
    FlatClauses clauses;
    std::size_t binary_lits = 0;
    for (const auto &list : binWatches)
        binary_lits += list.size();
    clauses.lits.reserve(ca.words() + binary_lits);
    clauses.ends.reserve(problemClauses.size() + binary_lits / 2);
    auto keep = [&](const Lit *first, const Lit *last) {
        const std::size_t mark = clauses.lits.size();
        for (; first != last; ++first) {
            if (value(*first) == LBool::True) {
                clauses.lits.resize(mark);
                return;
            }
            if (value(*first) == LBool::Undef)
                clauses.lits.push_back(*first);
        }
        clauses.close();
    };
    for (const ClauseRef cr : problemClauses) {
        const Clause &c = ca[cr];
        keep(c.begin(), c.end());
        detachClause(cr);
        ca.free(cr);
    }
    problemClauses.clear();
    otfDeferred.clear(); // whole pre-elimination database is gone
    // Binary clauses live only in the watch lists: fold the canonical
    // direction of every pair into the working set and clear the
    // lists (survivors are re-filed by the re-add loop below).
    for (std::size_t idx = 0; idx < binWatches.size(); ++idx) {
        const Lit a = ~litFromIndex(idx);
        for (const BinWatcher &w : binWatches[idx]) {
            if (!(a < w.other))
                continue;
            const Lit pair[2] = {a, w.other};
            keep(pair, pair + 2);
        }
    }
    for (auto &list : binWatches)
        list.clear();
    std::vector<char> dead(clauses.size(), 0);

    // Occurrence lists by literal index, in one pool: list l holds
    // occ[l].size clause indices from pool[occ[l].begin], with room
    // for occ[l].cap.  A full list moves to the end of the pool with
    // twice the room; dead entries are compacted out when it is read.
    struct OccList
    {
        std::uint32_t begin = 0, size = 0, cap = 0;
    };
    std::vector<OccList> occ(2 * static_cast<std::size_t>(numVars()));
    for (const Lit l : clauses.lits)
        ++occ[l.index()].cap;
    std::uint32_t filled = 0;
    for (OccList &o : occ) {
        o.begin = filled;
        filled += o.cap;
    }
    std::vector<std::uint32_t> pool(filled);
    auto push_occ = [&](Lit l, std::uint32_t i) {
        OccList &o = occ[l.index()];
        if (o.size == o.cap) {
            const auto moved = static_cast<std::uint32_t>(pool.size());
            o.cap = std::max<std::uint32_t>(4, 2 * o.cap);
            pool.resize(pool.size() + o.cap);
            std::copy_n(pool.begin() + o.begin, o.size,
                        pool.begin() + moved);
            o.begin = moved;
        }
        pool[o.begin + o.size++] = i;
    };
    for (std::uint32_t i = 0; i < clauses.size(); ++i)
        for (const Lit l : clauses[i])
            push_occ(l, i);
    auto live = [&](Lit l) {
        OccList &o = occ[l.index()];
        std::uint32_t *first = pool.data() + o.begin;
        o.size = static_cast<std::uint32_t>(
            std::remove_if(first, first + o.size,
                           [&](std::uint32_t i) { return dead[i]; }) -
            first);
        return std::span<const std::uint32_t>(first, o.size);
    };

    // Marks hold the positive clause's literals other than v: the
    // resolvent with a negative clause is a tautology exactly when
    // that clause holds the complement of a marked literal.
    std::vector<char> marked(occ.size(), 0);
    auto set_marks = [&](std::uint32_t pi, Var v, char on) {
        for (const Lit l : clauses[pi])
            if (l.var() != v)
                marked[l.index()] = on;
    };
    auto tautology = [&](std::uint32_t ni, Var v) {
        for (const Lit l : clauses[ni])
            if (l.var() != v && marked[(~l).index()])
                return true;
        return false;
    };

    constexpr std::size_t occ_limit = 10;
    std::vector<bool> frozen(numVars(), false);
    std::vector<Var> queue;
    for (Var v = 0; v < numVars(); ++v)
        queue.push_back(v);
    FlatClauses resolvents; // of the variable being committed
    while (!queue.empty()) {
        const Var v = queue.back();
        queue.pop_back();
        if (frozen[v] || assigns[v] != LBool::Undef)
            continue;
        const auto pos = live(mkLit(v));
        const auto neg = live(~mkLit(v));
        if (pos.empty() && neg.empty())
            continue;
        if (pos.size() > occ_limit || neg.size() > occ_limit)
            continue;
        // Count the non-tautological resolvents; abort if eliminating
        // v would grow the clause count (NiVER criterion).
        const std::size_t bound = pos.size() + neg.size();
        std::size_t count = 0;
        for (const std::uint32_t pi : pos) {
            set_marks(pi, v, 1);
            for (const std::uint32_t ni : neg)
                if (!tautology(ni, v) && ++count > bound)
                    break;
            set_marks(pi, v, 0);
            if (count > bound)
                break;
        }
        if (count > bound) {
            frozen[v] = true;
            continue;
        }
        // Commit: build the resolvents, each sorted with duplicates
        // merged, then move v's clauses onto the reconstruction stack
        // and splice the resolvents in.
        resolvents.lits.clear();
        resolvents.ends.clear();
        for (const std::uint32_t pi : pos) {
            set_marks(pi, v, 1);
            for (const std::uint32_t ni : neg) {
                if (tautology(ni, v))
                    continue;
                const std::size_t first = resolvents.lits.size();
                for (const Lit l : clauses[pi])
                    if (l.var() != v)
                        resolvents.lits.push_back(l);
                for (const Lit l : clauses[ni])
                    if (l.var() != v && !marked[l.index()])
                        resolvents.lits.push_back(l);
                std::sort(resolvents.lits.begin() + first,
                          resolvents.lits.end());
                resolvents.close();
            }
            set_marks(pi, v, 0);
        }
        for (const auto side : {pos, neg}) {
            for (const std::uint32_t i : side) {
                elimClauses.push(clauses[i]);
                dead[i] = 1;
            }
        }
        elimStack.emplace_back(
            v, static_cast<std::uint32_t>(elimClauses.size()));
        for (std::size_t r = 0; r < resolvents.size(); ++r) {
            const auto idx = static_cast<std::uint32_t>(clauses.size());
            clauses.push(resolvents[r]);
            dead.push_back(0);
            for (const Lit l : resolvents[r]) {
                push_occ(l, idx);
                // Touched variables become candidates again.  A frozen
                // or assigned one stays so and would be skipped when
                // popped, so it is not queued at all.
                if (!frozen[l.var()] && assigns[l.var()] == LBool::Undef)
                    queue.push_back(l.var());
            }
        }
        assigns[v] = LBool::True; // block decisions on v
        levels[v] = 0;
        ++statistics.eliminatedVars;
    }

    // Re-add the surviving clauses through the normal path.
    for (std::uint32_t i = 0; i < clauses.size(); ++i) {
        if (dead[i])
            continue;
        const auto c = clauses[i];
        if (c.empty())
            return false;
        if (c.size() == 1) {
            if (value(c[0]) == LBool::False)
                return false;
            if (value(c[0]) == LBool::Undef)
                uncheckedEnqueue(c[0], Reason());
            continue;
        }
        if (c.size() == 2) {
            attachBinary(c[0], c[1], /*learnt=*/false);
            continue;
        }
        const ClauseRef cl = ca.alloc(c, /*learnt=*/false, /*lbd=*/0);
        problemClauses.push_back(cl);
        attachClause(cl);
    }
    notePeaks();
    const bool ok = propagate() == kRefUndef;
    // The whole pre-elimination database is garbage in the arena now.
    maybeGarbageCollect();
    return ok;
}

void
Solver::relocAll(ClauseAllocator &to)
{
    // Patch every live reference through the forwarding words: watcher
    // lists first (order and blockers preserved verbatim), then the
    // reasons of all assigned variables (root-level assignments keep
    // their reason clauses forever; reduceDb/shrinkLearnts never free
    // locked clauses, so every such reference is live), then the
    // clause lists themselves.
    for (auto &list : watches)
        for (Watcher &w : list)
            w.cref = ca.reloc(w.cref, to);
    // Binary watchers carry literals, not arena references - nothing
    // to patch there, and binary reason words survive GC untouched.
    for (Var v = 0; v < numVars(); ++v) {
        if (assigns[v] != LBool::Undef && reasons[v].isClause())
            reasons[v] = Reason::clause(
                ca.reloc(reasons[v].clauseRef(), to));
    }
    for (ClauseRef &cr : problemClauses)
        cr = ca.reloc(cr, to);
    for (ClauseRef &cr : learntClauses)
        cr = ca.reloc(cr, to);
    for (OtfCandidate &d : otfDeferred)
        d.cref = ca.reloc(d.cref, to);
}

void
Solver::garbageCollect()
{
    ClauseAllocator to;
    to.reserveWords(ca.words() - ca.wasted());
    relocAll(to);
    ++statistics.gcRuns;
    statistics.gcWordsReclaimed +=
        static_cast<std::int64_t>(ca.words() - to.words());
    ca = std::move(to);
}

void
Solver::maybeGarbageCollect()
{
    // The MiniSat threshold: compact once a fifth of the arena is
    // garbage.  Cheaper than malloc/free per clause ever was, and the
    // copy restores allocation order = traversal order.
    if (ca.wasted() > ca.words() / 5)
        garbageCollect();
}

bool
Solver::inprocess()
{
    qbAssert(decisionLevel() == 0, "inprocess above root level");
    if (!okay || !cfg.inprocessing)
        return okay;
    ++statistics.inprocessRuns;
    if (propagate() != kRefUndef) {
        okay = false;
        return okay;
    }
    cleanRootClauses();
    vivifyLearnts();
    if (okay)
        backwardSubsume();
    maybeGarbageCollect();
    return okay;
}

void
Solver::vivifyLearnts()
{
    // Clause vivification (distillation): for a learnt clause
    // l1..lk, enqueue ~l1..~li in turn at a throwaway decision level.
    // A propagation conflict proves the prefix l1..li is implied (the
    // clause shrinks to it); an implied lj proves prefix+lj subsumes
    // the clause; an implied ~lj removes lj by resolution.  The clause
    // under test is detached first so it cannot justify itself.
    std::int64_t budget = cfg.vivifyPropBudget;
    for (std::size_t idx = 0; idx < learntClauses.size(); ++idx) {
        if (budget <= 0 || !okay)
            break;
        const ClauseRef cr = learntClauses[idx];
        if (locked(cr))
            continue;
        const Clause &c = ca[cr];
        if (c.size() < 3)
            continue;
        const LitVec lits(c.begin(), c.end());
        const unsigned old_lbd = c.lbd();
        const float act = c.activity();
        // Clauses satisfied at the root are pure ballast.
        bool root_sat = false;
        for (Lit l : lits) {
            if (value(l) == LBool::True) {
                root_sat = true;
                break;
            }
        }
        if (root_sat) {
            removeClause(cr);
            learntClauses[idx--] = learntClauses.back();
            learntClauses.pop_back();
            continue;
        }
        detachClause(cr);
        const std::int64_t props_before = statistics.propagations;
        trailLim.push_back(static_cast<int>(trail.size()));
        LitVec kept;
        bool shortened = false;
        for (Lit l : lits) {
            const LBool v = value(l);
            if (v == LBool::True) {
                // Implied by the negated prefix: prefix + l subsumes.
                kept.push_back(l);
                shortened = true;
                break;
            }
            if (v == LBool::False) {
                // ~l implied: drop l by self-subsuming resolution.
                shortened = true;
                continue;
            }
            kept.push_back(l);
            uncheckedEnqueue(~l, Reason());
            if (propagate() != kRefUndef) {
                // The negated prefix is contradictory: it suffices.
                shortened = true;
                break;
            }
        }
        cancelUntil(0);
        budget -= statistics.propagations - props_before;
        if (!shortened || kept.size() >= lits.size()) {
            attachClause(cr); // unchanged; watch positions intact
            continue;
        }
        ++statistics.vivifiedClauses;
        statistics.vivifiedLiterals +=
            static_cast<std::int64_t>(lits.size() - kept.size());
        purgeDeferredOtf(cr);
        ca.free(cr);
        if (kept.size() >= 3) {
            // All kept literals are unassigned at the root (false ones
            // were dropped, a true one ends the root_sat scan), so any
            // two of them are valid watches.
            const unsigned lbd = std::min(
                old_lbd, static_cast<unsigned>(kept.size()));
            const ClauseRef nr =
                ca.alloc(kept, /*learnt=*/true, lbd, act);
            learntClauses[idx] = nr;
            attachClause(nr);
            notePeaks(); // replacements grow the arena tail
            continue;
        }
        learntClauses[idx--] = learntClauses.back();
        learntClauses.pop_back();
        if (kept.size() == 2) {
            // Shrank to a binary: it moves out of the arena into the
            // mirrored watch-list pair.
            attachBinary(kept[0], kept[1], /*learnt=*/true);
            continue;
        }
        if (kept.empty()) {
            okay = false; // every literal false at the root
            return;
        }
        if (value(kept[0]) == LBool::False) {
            okay = false;
        } else if (value(kept[0]) == LBool::Undef) {
            uncheckedEnqueue(kept[0], Reason());
            okay = propagate() == kRefUndef;
        }
    }
}

void
Solver::backwardSubsume()
{
    // Backward subsumption with self-subsuming resolution over the
    // whole database (krox/dawn-style, bounded): for each clause C up
    // to subsumeMaxSize literals, scan the occurrence lists of its
    // least-frequent literal (both polarities) for clauses D with
    // C subset D (drop D) or C \ {l} + {~l} subset D (remove ~l from
    // D).  Signatures prune most candidate pairs to one 64-bit test.
    qbAssert(decisionLevel() == 0, "subsume above root level");
    struct Entry
    {
        ClauseRef cr;
        std::uint64_t sig;
        bool learnt;
        bool dead;
    };
    std::vector<Entry> entries;
    entries.reserve(problemClauses.size() + learntClauses.size());
    for (const ClauseRef cr : problemClauses)
        entries.push_back({cr, 0, false, false});
    for (const ClauseRef cr : learntClauses)
        entries.push_back({cr, 0, true, false});

    std::vector<std::vector<std::uint32_t>> occ(watches.size());
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(entries.size()); ++i) {
        const Clause &c = ca[entries[i].cr];
        std::uint64_t sig = 0;
        for (Lit l : c) {
            sig |= std::uint64_t{1} << (l.var() & 63);
            occ[l.index()].push_back(i);
        }
        entries[i].sig = sig;
    }

    std::vector<char> inSubsumer(watches.size(), 0);

    // Remove @p l from @p d in place (self-subsuming resolution):
    // strengthenInPlace() re-picks watches among non-false literals -
    // the swapped-in tail literal may be root-false, and watching a
    // falsified literal whose negation was already propagated would
    // silence the clause forever.
    const auto strengthen = [this, &entries](std::uint32_t j, Lit l) {
        Entry &d = entries[j];
        ++statistics.strengthenedClauses;
        const Strengthened s = strengthenInPlace(d.cr, l);
        if (s.becameBinary) {
            // Dissolved into the binary watch lists; the ref is
            // already freed and unlisted.
            d.dead = true;
            return;
        }
        if (s.nonfalse >= 2)
            return; // re-attached
        // Unit (or empty) at the root: dissolve into the trail.
        d.dead = true;
        const Clause &c = ca[d.cr];
        purgeDeferredOtf(d.cr);
        ca.free(d.cr);
        if (s.nonfalse == 0) {
            okay = false;
            return;
        }
        if (value(c[0]) == LBool::Undef) {
            uncheckedEnqueue(c[0], Reason());
            okay = propagate() == kRefUndef;
        }
    };

    // Least-frequent literal, counting both polarities (the negated
    // list feeds the strengthening case).
    const auto pairCount = [&occ](Lit l) {
        return occ[l.index()].size() + occ[(~l).index()].size();
    };

    // Binary clauses live outside the arena and therefore outside
    // `entries`; run them as SUBSUMERS in a prepass.  Index-based
    // loops: strengthen() can append to binary watch lists (a long
    // clause shrinking to two literals), which may reallocate them,
    // but never appends to `occ`.
    for (std::size_t idx = 0; idx < binWatches.size() && okay; ++idx) {
        for (std::size_t k = 0; k < binWatches[idx].size() && okay;
             ++k) {
            const BinWatcher w = binWatches[idx][k]; // value copy
            const Lit a = ~litFromIndex(idx);
            if (!(a < w.other))
                continue; // visit each pair once, canonically
            const Lit b = w.other;
            const Lit best = pairCount(a) <= pairCount(b) ? a : b;
            if (pairCount(best) > cfg.subsumeOccLimit)
                continue;
            inSubsumer[a.index()] = 1;
            inSubsumer[b.index()] = 1;
            const std::uint64_t sig =
                (std::uint64_t{1} << (a.var() & 63)) |
                (std::uint64_t{1} << (b.var() & 63));
            for (const Lit probe : {best, ~best}) {
                for (const std::uint32_t j : occ[probe.index()]) {
                    Entry &d = entries[j];
                    if (d.dead || (sig & ~d.sig) != 0 || locked(d.cr))
                        continue;
                    const Clause &cd = ca[d.cr];
                    unsigned matched = 0, negations = 0;
                    Lit neg = kUndefLit;
                    for (Lit y : cd) {
                        if (inSubsumer[y.index()]) {
                            ++matched;
                        } else if (inSubsumer[(~y).index()]) {
                            ++negations;
                            neg = y;
                        }
                    }
                    if (matched == 2) {
                        // (a | b) subsumes D.  A learnt binary
                        // standing in for a problem clause is promoted
                        // (both mirrored entries), same rationale as
                        // the long-clause case below.
                        if (w.learnt && !d.learnt) {
                            binWatches[idx][k].learnt = false;
                            for (BinWatcher &m :
                                 binWatches[(~b).index()])
                                if (m.other == a)
                                    m.learnt = false;
                        }
                        d.dead = true;
                        detachClause(d.cr);
                        purgeDeferredOtf(d.cr);
                        ca.free(d.cr);
                        ++statistics.subsumedClauses;
                    } else if (matched == 1 && negations == 1) {
                        strengthen(j, neg);
                        if (!okay)
                            break;
                    }
                }
                if (!okay)
                    break;
            }
            inSubsumer[a.index()] = 0;
            inSubsumer[b.index()] = 0;
        }
    }

    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(entries.size()) && okay; ++i) {
        Entry &e = entries[i];
        if (e.dead)
            continue;
        const Clause &c = ca[e.cr];
        if (c.size() < 2 || c.size() > cfg.subsumeMaxSize)
            continue;
        Lit best = c[0];
        for (Lit l : c)
            if (pairCount(l) < pairCount(best))
                best = l;
        if (pairCount(best) > cfg.subsumeOccLimit)
            continue;
        for (Lit l : c)
            inSubsumer[l.index()] = 1;
        const unsigned csize = c.size();
        for (const Lit probe : {best, ~best}) {
            for (const std::uint32_t j : occ[probe.index()]) {
                if (j == i || entries[j].dead)
                    continue;
                Entry &d = entries[j];
                const Clause &cd = ca[d.cr];
                if (cd.size() < csize || (e.sig & ~d.sig) != 0)
                    continue;
                if (locked(d.cr))
                    continue;
                unsigned matched = 0, negations = 0;
                Lit neg = kUndefLit;
                for (Lit y : cd) {
                    if (inSubsumer[y.index()]) {
                        ++matched;
                    } else if (inSubsumer[(~y).index()]) {
                        ++negations;
                        neg = y;
                    }
                }
                if (matched == csize) {
                    // C subsumes D.  A learnt subsumer standing in for
                    // a problem clause is promoted to problem status,
                    // otherwise a later shrinkLearnts() could silently
                    // lose the constraint.
                    if (e.learnt && !d.learnt) {
                        e.learnt = false;
                        ca[e.cr].clearLearnt();
                    }
                    d.dead = true;
                    detachClause(d.cr);
                    purgeDeferredOtf(d.cr);
                    ca.free(d.cr);
                    ++statistics.subsumedClauses;
                } else if (matched + 1 == csize && negations == 1) {
                    strengthen(j, neg);
                    if (!okay)
                        break;
                }
            }
            if (!okay)
                break;
        }
        for (Lit l : c)
            inSubsumer[l.index()] = 0;
    }

    problemClauses.clear();
    learntClauses.clear();
    for (const Entry &e : entries) {
        if (e.dead)
            continue;
        (e.learnt ? learntClauses : problemClauses).push_back(e.cr);
    }
}

/**
 * Rewrite the long-clause database against the root trail: a
 * root-satisfied clause drops, a root-false literal drops from its
 * clause, and a clause left with exactly two free literals re-files as
 * a binary in the watch lists, where propagation needs no arena read.
 * Problem clauses included - vivification only shortens learnt ones -
 * so an XOR gate whose output became a root fact leaves its ternaries
 * as plain binaries.  Requires the root propagation fixpoint.
 */
void
Solver::cleanRootClauses()
{
    qbAssert(decisionLevel() == 0, "root cleaning above root level");
    // Reason references into the long-clause arena may be freed
    // below; root facts need no justification (see
    // preprocessEliminate()).
    for (const Lit l : trail)
        reasons[l.var()] = Reason();
    for (auto *list : {&problemClauses, &learntClauses}) {
        for (std::size_t i = 0; i < list->size();) {
            const ClauseRef cr = (*list)[i];
            Clause &c = ca[cr];
            bool satisfied = false;
            bool touched = false;
            for (const Lit l : c) {
                if (value(l) == LBool::True) {
                    satisfied = true;
                    break;
                }
                touched |= value(l) == LBool::False;
            }
            if (!satisfied && !touched) {
                ++i;
                continue;
            }
            LitVec kept;
            if (!satisfied) {
                for (const Lit l : c)
                    if (value(l) == LBool::Undef)
                        kept.push_back(l);
                ++statistics.strengthenedClauses;
            }
            const bool learnt = c.learnt();
            const unsigned lbd = c.lbd();
            const float act = c.activity();
            detachClause(cr);
            purgeDeferredOtf(cr);
            ca.free(cr);
            if (!satisfied && kept.size() >= 3) {
                const ClauseRef nr = ca.alloc(
                    kept, learnt,
                    std::min(lbd,
                             static_cast<unsigned>(kept.size())),
                    act);
                (*list)[i] = nr;
                attachClause(nr);
                ++i;
                continue;
            }
            std::swap((*list)[i], list->back());
            list->pop_back();
            if (satisfied)
                continue;
            // At the root propagation fixpoint a live clause keeps at
            // least two free literals: one survivor would have been
            // propagated (satisfying the clause), zero would have
            // conflicted in the propagate() call just above.
            qbAssert(kept.size() == 2,
                     "root fixpoint leaves >= 2 free literals");
            attachBinary(kept[0], kept[1], learnt);
        }
    }
}

SolveResult
solveCnf(const Cnf &cnf, SolverConfig config, SolverStats *stats_out)
{
    Solver solver(config);
    solver.addCnf(cnf);
    const SolveResult result = solver.solve();
    if (stats_out)
        *stats_out = solver.stats();
    return result;
}

} // namespace qb::sat
