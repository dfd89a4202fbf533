#include "core/engine.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "core/formula_builder.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/timer.h"

namespace qb::core {

EngineOptions
EngineOptions::singleLane(const VerifierOptions &options)
{
    EngineOptions o;
    o.lanes = {options};
    return o;
}

EngineOptions
EngineOptions::portfolioAB()
{
    EngineOptions o;
    o.lanes = {VerifierOptions::laneA(), VerifierOptions::laneB()};
    return o;
}

namespace {

/**
 * Solver configuration for a long-lived lane.  Bounded variable
 * elimination is a whole-database transformation that is unsound once
 * selector-guarded conditions and learnt clauses accumulate, so it is
 * disabled regardless of the lane preset; the presets keep their
 * branching/restart/phase identities.
 */
sat::SolverConfig
incrementalConfig(const VerifierOptions &options)
{
    sat::SolverConfig cfg = options.solver;
    cfg.preprocess = false;
    cfg.conflictBudget = options.conflictBudget;
    return cfg;
}

/** Satisfying input assignment (by qubit id) from a solver model. */
std::vector<bool>
extractModel(const std::unordered_map<std::uint32_t, sat::Var> &inputs,
             const sat::Solver &solver, std::uint32_t num_qubits)
{
    std::vector<bool> model(num_qubits, false);
    for (const auto &[input, solver_var] : inputs)
        model[input] =
            solver.modelValue(solver_var) == sat::LBool::True;
    return model;
}

} // namespace

void
CancelSource::requestCancel()
{
    flag.store(true, std::memory_order_release);
    // Holding the mutex across cancelNow() is what makes this safe
    // against concurrent engine destruction: ~VerificationEngine
    // detaches FIRST, and detach() blocks until this iteration is
    // over, so no engine here is mid-destruction.
    const std::lock_guard<std::mutex> guard(mutex);
    for (VerificationEngine *engine : engines)
        engine->cancelNow();
}

void
CancelSource::attach(VerificationEngine *engine)
{
    const std::lock_guard<std::mutex> guard(mutex);
    engines.push_back(engine);
}

void
CancelSource::detach(VerificationEngine *engine)
{
    const std::lock_guard<std::mutex> guard(mutex);
    std::erase(engines, engine);
}

/** One lane: a persistent solver plus its incremental encoder. */
struct VerificationEngine::Lane
{
    int index;
    VerifierOptions options;
    sat::Solver solver;
    sat::IncrementalTseitin encoder;
    /** Preprocessing lanes discharge per-condition in fresh solvers. */
    bool scratch;
    /** Serial task queue keeping this lane's condition stream ordered
     *  (persistent lanes only; scratch work is unordered). */
    std::shared_ptr<Scheduler::SerialQueue> queue;
    /** Queries since the last inprocessing pass (owned by the lane's
     *  serial task chain; see EngineOptions::inprocessInterval). */
    unsigned queriesSinceInprocess = 0;

    Lane(int idx, const VerifierOptions &opts, const bexp::Arena &arena,
         Scheduler &sched, unsigned band)
        : index(idx), options(opts),
          solver(incrementalConfig(opts)),
          encoder(arena, solver, opts.encoding, opts.xorChunk),
          scratch(opts.solver.preprocess)
    {
        if (!scratch)
            queue = sched.makeQueue(band);
        // Scratch lanes build their per-condition solvers straight
        // from the stored preset, bypassing incrementalConfig(): the
        // lane's conflict budget must reach them here.
        options.solver.conflictBudget = opts.conflictBudget;
    }
};

/** Cached per-qubit verification conditions (6.1) and (6.2). */
struct VerificationEngine::Conditions
{
    bexp::NodeRef zero = bexp::kFalse;
    bexp::NodeRef plus = bexp::kFalse;
    std::size_t nodes = 0;
    /** Lane each condition goes to (laneFor() of its cone). */
    std::size_t zeroLane = 0;
    std::size_t plusLane = 0;
    /** @name Affine pre-build discharges (UNSAT-only): the stored
     *  formula is a kFalse placeholder that was never built, so it
     *  must not be read as a structural constant. @{ */
    bool zeroDischarged = false;
    bool plusDischarged = false;
    /** @} */
};

/** Result of deciding one condition in one lane (or structurally). */
struct VerificationEngine::LaneOutcome
{
    sat::SolveResult result = sat::SolveResult::Unknown;
    std::optional<std::vector<bool>> model;
    double encodeSeconds = 0.0;
    double solveSeconds = 0.0;
    std::int64_t conflicts = 0;
    std::size_t vars = 0;
    std::size_t clauses = 0;
    int lane = -1;
    bool structural = false;
};

/**
 * One condition on its chosen lane: the (qubit, condition) work item
 * of the scheduler.  The lane's task fills outcome and sets finished;
 * the producing thread blocks in collectQuery() only when it actually
 * needs the verdict.
 */
struct VerificationEngine::Query
{
    bexp::NodeRef condition = bexp::kFalse;
    /** Cancellation flag; doubles as the lane solver's stop flag. */
    std::atomic<bool> stop{false};
    std::mutex mutex;
    std::condition_variable done;
    bool finished = false; ///< guarded by mutex
    LaneOutcome outcome;   ///< written before finished is set
};

VerificationEngine::Pending::Pending() = default;
VerificationEngine::Pending::Pending(Pending &&) noexcept = default;
VerificationEngine::Pending &
VerificationEngine::Pending::operator=(Pending &&) noexcept = default;

VerificationEngine::Pending::~Pending()
{
    // An unredeemed handle cancels its queries; the engine's
    // destruction fence keeps the lanes alive until the cancelled
    // tasks drain.
    VerificationEngine::abandon(zero);
    VerificationEngine::abandon(plus);
}

VerificationEngine::VerificationEngine(
    const ir::Circuit &circuit, EngineOptions options,
    std::shared_ptr<Scheduler> scheduler,
    std::shared_ptr<CancelSource> cancel)
    : options_(std::move(options)), circuit_(circuit),
      scheduler_(std::move(scheduler)), cancel_(std::move(cancel))
{
    if (options_.lanes.empty())
        options_.lanes = {VerifierOptions::laneA()};
    if (!scheduler_) {
        // Auto-sizing (jobs == 0) caps the private pool at what this
        // session can actually keep busy - one worker per lane - so
        // the one-shot wrappers do not spin up (and join) a
        // machine-wide pool per single query.  An explicit jobs count
        // is honored verbatim, and batch drivers inject one
        // full-width shared scheduler instead.
        unsigned jobs = options_.jobs;
        if (jobs == 0) {
            jobs = std::thread::hardware_concurrency();
            if (jobs == 0)
                jobs = 1;
            jobs = std::min(
                jobs, static_cast<unsigned>(options_.lanes.size()));
        }
        scheduler_ = std::make_shared<Scheduler>(jobs);
    }
    classical = circuit_.isClassical();
    if (options_.analysis.affine && classical)
        written_ = analysis::writtenWires(circuit_);
    const std::uint32_t n = circuit_.numQubits();
    conditionCache.resize(n);
    cleanCache.assign(n, std::nullopt);
    int index = 0;
    for (const VerifierOptions &lane_options : options_.lanes)
        lanes_.push_back(std::make_unique<Lane>(
            index++, lane_options, arena, *scheduler_,
            options_.fairnessBand));
    if (cancel_) {
        cancel_->attach(this);
        // The source may have fired before this session existed:
        // start out cancelled rather than race the requestCancel()
        // iteration that may already have passed us by.
        if (cancel_->cancelRequested())
            cancelled_.store(true, std::memory_order_release);
    }
}

VerificationEngine::~VerificationEngine()
{
    // Detach FIRST: after this returns, no CancelSource iteration can
    // still hold a pointer to this engine.
    if (cancel_)
        cancel_->detach(this);
    {
        const std::lock_guard<std::mutex> guard(fenceMutex);
        for (const std::weak_ptr<Query> &weak : liveQueries)
            if (const std::shared_ptr<Query> query = weak.lock())
                query->stop.store(true, std::memory_order_release);
    }
    waitIdle();
}

void
VerificationEngine::cancelNow()
{
    cancelled_.store(true, std::memory_order_release);
    const std::lock_guard<std::mutex> guard(fenceMutex);
    for (const std::weak_ptr<Query> &weak : liveQueries)
        if (const std::shared_ptr<Query> query = weak.lock())
            query->stop.store(true, std::memory_order_release);
}

void
VerificationEngine::waitIdle()
{
    std::unique_lock<std::mutex> lock(fenceMutex);
    fenceIdle.wait(lock, [this] { return tasksInFlight == 0; });
}

sat::SolverStats
VerificationEngine::laneSolverStats(std::size_t lane)
{
    qbAssert(lane < lanes_.size(),
             "laneSolverStats: lane out of range");
    waitIdle();
    return lanes_[lane]->solver.stats();
}

sat::SolverStats
VerificationEngine::aggregateSolverStats()
{
    waitIdle();
    sat::SolverStats total;
    for (const auto &lane : lanes_)
        total.accumulate(lane->solver.stats());
    {
        const std::lock_guard<std::mutex> guard(scratchStatsMutex);
        total.accumulate(scratchTotals_);
    }
    return total;
}

void
VerificationEngine::harvestScratchStats(const sat::Solver &solver)
{
    const std::lock_guard<std::mutex> guard(scratchStatsMutex);
    scratchTotals_.accumulate(solver.stats());
}

/** Static-discharge counters of @p stats as report-ready totals. */
static AnalysisTotals
analysisTotalsOf(const VerificationEngine::Stats &stats)
{
    AnalysisTotals totals;
    totals.discharged =
        static_cast<std::int64_t>(stats.analysisDischarged);
    totals.affine = totals.discharged; // the only discharging pass
    return totals;
}

void
VerificationEngine::ensureFinals()
{
    // All or nothing: the first reader scans the whole circuit.  Only
    // the arena-writer thread calls this, and no query can exist
    // before it runs (every query encodes a formula built from
    // finals), so the scan interns exactly the nodes, in exactly the
    // order, that an eager scan in the constructor would - same
    // NodeRefs, same CNF, same counterexamples.
    if (engineStats.formulaScans != 0)
        return;
    ++engineStats.formulaScans;
    const std::uint32_t n = circuit_.numQubits();
    FormulaBuilder builder(arena, n);
    builder.applyCircuit(circuit_);
    finals.reserve(n);
    for (std::uint32_t q = 0; q < n; ++q)
        finals.push_back(builder.formula(q));
    // The arena now holds exactly the circuit's qubit formulas: that
    // region sits in every condition's cone, so its definitions stay
    // unguarded and the conflict clauses learnt over it transfer
    // between queries.  No lane has encoded anything yet.
    for (const std::unique_ptr<Lane> &lane : lanes_)
        lane->encoder.markSessionShared();
}

const VerificationEngine::Conditions &
VerificationEngine::conditionsFor(ir::QubitId q)
{
    if (conditionCache[q]) {
        ++engineStats.conditionHits;
        return *conditionCache[q];
    }
    auto conds = std::make_unique<Conditions>();
    const std::uint32_t n = circuit_.numQubits();

    // GF(2)-affine pre-build consult (window-free): for a purely
    // linear cone the arena's own XOR canonicalization would fold
    // both conditions to constants during construction, so a
    // POST-build affine discharge can never fire - the pass pays off
    // only by proving UNSAT first and skipping the build, notably the
    // (6.2) cofactor sweep.  Gated on q being written: unwritten
    // qubits fold in O(1) anyway, and skipping them keeps their
    // results attributed as structural.  affineFacts() applies the
    // exact ⊤ gate itself: where q and another wire are both ⊤ it
    // answers without the dense sweep.
    analysis::AffineFacts affine;
    if (options_.analysis.affine && classical && written_[q]) {
        if (!analyzer_)
            analyzer_ = std::make_unique<analysis::Analyzer>(
                circuit_, options_.analysis);
        affine = analyzer_->affineFacts(q);
    }

    // Formula (6.1): b_q AND NOT q - satisfiable iff some input with
    // q = 0 ends with q = 1, i.e. |0> is not restored.
    if (affine.zeroUnsat) {
        conds->zero = bexp::kFalse;
        conds->zeroDischarged = true;
    } else {
        ensureFinals();
        const bexp::NodeRef b_q = finals[q];
        conds->zero =
            arena.mkAnd({b_q, arena.mkNot(arena.mkVar(q))});
    }

    // Formula (6.2): OR over the other qubits of the XOR of the two
    // cofactors - satisfiable iff some other output depends on q,
    // i.e. |+> is not restored.
    if (affine.plusUnsat) {
        conds->plus = bexp::kFalse;
        conds->plusDischarged = true;
    } else {
        // One memo per polarity for the whole wire loop: the finals
        // share most of their DAG, so each node is rewritten at most
        // once per qubit, and the sweep costs O(dagSize), not
        // O(wires * dagSize).
        ensureFinals();
        zeroCofactor_.reset(q, bexp::kFalse);
        oneCofactor_.reset(q, bexp::kTrue);
        std::vector<bexp::NodeRef> disjuncts;
        for (std::uint32_t other = 0; other < n; ++other) {
            if (other == q)
                continue;
            const bexp::NodeRef b_other = finals[other];
            const bexp::NodeRef cof0 =
                arena.substitute(b_other, zeroCofactor_);
            const bexp::NodeRef cof1 =
                arena.substitute(b_other, oneCofactor_);
            const bexp::NodeRef diff = arena.mkXor({cof0, cof1});
            if (diff != bexp::kFalse)
                disjuncts.push_back(diff);
        }
        engineStats.substituteVisits +=
            zeroCofactor_.visits() + oneCofactor_.visits();
        conds->plus = arena.mkOr(std::move(disjuncts));
    }
    const bexp::DagShape zero_cone = arena.dagShape(conds->zero);
    const bexp::DagShape plus_cone = arena.dagShape(conds->plus);
    conds->nodes = zero_cone.nodes + plus_cone.nodes;
    conds->zeroLane = laneFor(zero_cone);
    conds->plusLane = laneFor(plus_cone);
    conditionCache[q] = std::move(conds);
    return *conditionCache[q];
}

void
VerificationEngine::abandon(const std::shared_ptr<Query> &query)
{
    if (query)
        query->stop.store(true, std::memory_order_release);
}

std::size_t
VerificationEngine::laneFor(const bexp::DagShape &cone) const
{
    // XOR-dense cones go to the preprocessing lane, the rest to the
    // persistent one.  Adder conditions carry about one XOR per AND,
    // and bounded variable elimination on a per-condition solver is
    // the whole of their speed-up; MCX ladders carry one XOR per two
    // ANDs, and a per-condition solver's set-up is the whole of their
    // loss.  Sizes overlap between the families, so size cannot
    // decide.  A session without a lane of the wanted kind uses
    // lane 0.
    const bool xor_dense = 4 * cone.xors >= 3 * cone.ands;
    for (const std::unique_ptr<Lane> &lane : lanes_)
        if (lane->scratch == xor_dense)
            return static_cast<std::size_t>(lane->index);
    return 0;
}

std::shared_ptr<VerificationEngine::Query>
VerificationEngine::submitQuery(bexp::NodeRef condition,
                                std::size_t lane_index)
{
    auto query = std::make_shared<Query>();
    query->condition = condition;
    ++engineStats.satCalls;
    {
        const std::lock_guard<std::mutex> guard(fenceMutex);
        // A cancel that fired while this qubit's conditions were
        // being built has already swept liveQueries; seed the new
        // query's stop flag here, under the same mutex, so it cannot
        // slip through the sweep and run to completion.
        if (cancelled_.load(std::memory_order_acquire))
            query->stop.store(true, std::memory_order_release);
        if (liveQueries.size() >= 64) {
            std::erase_if(liveQueries,
                          [](const std::weak_ptr<Query> &weak) {
                              return weak.expired();
                          });
        }
        liveQueries.push_back(query);
        ++tasksInFlight;
    }
    Lane &lane = *lanes_[lane_index];
    auto task = [this, &lane, query] {
        reportOutcome(*query, lane.scratch ? runScratchTask(lane, *query)
                                           : runPersistentTask(lane, *query));
        // Notify UNDER the mutex: waitIdle()'s waiter may destroy the
        // engine (and this condition variable) the instant the count
        // hits zero, so the notify must complete before the lock is
        // released.
        const std::lock_guard<std::mutex> guard(fenceMutex);
        --tasksInFlight;
        fenceIdle.notify_all();
    };
    if (lane.scratch)
        scheduler_->submit(options_.fairnessBand, std::move(task));
    else
        scheduler_->submit(lane.queue, std::move(task));
    return query;
}

VerificationEngine::LaneOutcome
VerificationEngine::runPersistentTask(Lane &lane, Query &query)
{
    LaneOutcome out;
    out.lane = lane.index;
    if (query.stop.load(std::memory_order_acquire))
        return out;
    Timer encode_timer;
    const std::size_t vars_before = lane.encoder.varsCreated();
    const std::size_t clauses_before = lane.encoder.clausesEmitted();
    const sat::IncrementalTseitin::Selector sel =
        lane.encoder.assertCondition(query.condition);
    out.encodeSeconds = encode_timer.seconds();
    out.vars = lane.encoder.varsCreated() - vars_before;
    out.clauses = lane.encoder.clausesEmitted() - clauses_before;
    // Constant conditions resolve at prepare time, upstream.
    qbAssert(!sel.rootIsConst, "constant conditions decide upstream");
    // Epoch-style retention BETWEEN queries: carry over only the
    // high-value (low-LBD) conflict clauses.  They are what makes
    // repeated or structurally-related queries cheap, while the bulk
    // of the learnt database would tax every propagation.
    lane.solver.shrinkLearnts(3);
    // Query-boundary inprocessing: every inprocessInterval-th query,
    // vivify and subsume what the shrink kept, then let the arena GC
    // compact.  Serialized with all other solver access by the lane's
    // serial queue.
    if (options_.inprocessInterval != 0 &&
        ++lane.queriesSinceInprocess >= options_.inprocessInterval) {
        lane.queriesSinceInprocess = 0;
        lane.solver.inprocess();
    }
    if (query.stop.load(std::memory_order_acquire))
        return out;
    lane.solver.setStopFlag(&query.stop);
    const std::int64_t conflicts_before = lane.solver.stats().conflicts;
    Timer solve_timer;
    out.result = lane.solver.solve({sel.lit});
    out.solveSeconds = solve_timer.seconds();
    out.conflicts = lane.solver.stats().conflicts - conflicts_before;
    lane.solver.setStopFlag(nullptr);
#ifdef QB_DEBUG_CHECKS
    // Query boundary: the solver is quiesced between solve() calls -
    // the exact point where watcher, reason and arena-waste invariants
    // must all hold, whatever the decision level.
    lane.solver.checkInvariants();
#endif
    return out;
}

VerificationEngine::LaneOutcome
VerificationEngine::runScratchTask(Lane &lane, Query &query)
{
    // Lanes whose preset asks for preprocessing discharge each
    // condition in a dedicated solver: bounded variable elimination
    // is a whole-database transformation that is unsound once
    // selector-guarded conditions and learnt clauses accumulate, and
    // for these lanes it is worth far more than clause reuse (the
    // paper's "formula simplification algorithms" trade-off).
    LaneOutcome out;
    out.lane = lane.index;
    if (query.stop.load(std::memory_order_acquire))
        return out;
    Timer encode_timer;
    sat::TseitinResult enc = sat::encodeAssertTrue(
        arena, query.condition, lane.options.encoding,
        lane.options.xorChunk);
    out.encodeSeconds = encode_timer.seconds();
    qbAssert(!enc.rootIsConst, "constant conditions decide upstream");
    out.vars = static_cast<std::size_t>(enc.cnf.numVars());
    out.clauses = enc.cnf.numClauses();
    sat::Solver solver(lane.options.solver);
    solver.addCnf(enc.cnf);
    solver.setStopFlag(&query.stop);
    Timer solve_timer;
    out.result = solver.solve();
    out.solveSeconds = solve_timer.seconds();
    out.conflicts = solver.stats().conflicts;
    solver.setStopFlag(nullptr);
#ifdef QB_DEBUG_CHECKS
    solver.checkInvariants();
#endif
    harvestScratchStats(solver);
    return out;
}

void
VerificationEngine::reportOutcome(Query &query, LaneOutcome outcome)
{
    {
        const std::lock_guard<std::mutex> guard(query.mutex);
        query.outcome = std::move(outcome);
        query.finished = true;
    }
    query.done.notify_all();
}

VerificationEngine::LaneOutcome
VerificationEngine::collectQuery(Query &query, QubitResult &out)
{
    {
        std::unique_lock<std::mutex> lock(query.mutex);
        query.done.wait(lock, [&query] { return query.finished; });
    }
    // The task has reported; the outcome is immutable from here on.
    const LaneOutcome &o = query.outcome;
    out.encodeSeconds += o.encodeSeconds;
    out.solveSeconds += o.solveSeconds;
    out.conflicts += o.conflicts;
    out.cnfVars += o.vars;
    out.cnfClauses += o.clauses;
    out.lane = o.lane;
    LaneOutcome result;
    result.lane = o.lane;
    result.result = o.result;
    if (result.result == sat::SolveResult::Sat &&
        lanes_.front()->options.wantCounterexample)
        result.model = deterministicModel(query.condition);
    return result;
}

VerificationEngine::LaneOutcome
VerificationEngine::structuralOutcome(bexp::NodeRef condition)
{
    // Construction-time simplification discharged the condition
    // outright (the paper's Figure 6.1 observation).
    ++engineStats.structural;
    LaneOutcome outcome;
    outcome.structural = true;
    outcome.result = arena.constValue(condition)
        ? sat::SolveResult::Sat
        : sat::SolveResult::Unsat;
    if (outcome.result == sat::SolveResult::Sat &&
        lanes_.front()->options.wantCounterexample)
        outcome.model =
            std::vector<bool>(circuit_.numQubits(), false);
    return outcome;
}

std::optional<std::vector<bool>>
VerificationEngine::deterministicModel(bexp::NodeRef condition)
{
    // Replay the satisfiable condition in a fresh lane-0-configured
    // solver with no stop flag: the resulting model depends only on
    // the condition, never on which lane decided it or on the learnt
    // clauses a persistent lane carried in from earlier (possibly
    // cancelled) queries, so counterexamples are identical between
    // --jobs 1 and --jobs N runs.  The replay honors the lane's
    // per-call conflict budget (it is one more SAT call); if the
    // budget is too tight to re-find a model, the Unsafe verdict
    // stands and the counterexample is simply omitted.
    const VerifierOptions &opts = lanes_.front()->options;
    sat::TseitinResult enc = sat::encodeAssertTrue(
        arena, condition, opts.encoding, opts.xorChunk);
    qbAssert(!enc.rootIsConst, "constant conditions decide upstream");
    sat::SolverConfig config = opts.solver;
    config.conflictBudget = opts.conflictBudget;
    sat::Solver solver(config);
    solver.addCnf(enc.cnf);
    const sat::SolveResult res = solver.solve();
    qbAssert(res != sat::SolveResult::Unsat,
             "replay of a satisfiable condition cannot be Unsat");
    if (res != sat::SolveResult::Sat)
        return std::nullopt;
    return extractModel(enc.inputVar, solver, circuit_.numQubits());
}

void
VerificationEngine::finishUnsafe(QubitResult &out,
                                 const LaneOutcome &outcome,
                                 FailedCondition which)
{
    out.verdict = Verdict::Unsafe;
    out.failed = which;
    out.counterexample = outcome.model;
}

VerificationEngine::Pending
VerificationEngine::prepare(ir::QubitId q)
{
    Pending p;
    p.out.qubit = q;
    p.out.name = circuit_.label(q);
    qbAssert(q < circuit_.numQubits(), "verify: qubit out of range");
    if (!classical) {
        p.out.verdict = Verdict::NotClassical;
        p.immediate = true;
        return p;
    }
    if (cancelled_.load(std::memory_order_acquire)) {
        // The request this session serves was cancelled: settle
        // immediately, build nothing, queue nothing.
        p.out.verdict = Verdict::Unknown;
        p.immediate = true;
        return p;
    }
    ++engineStats.qubitsVerified;

    Timer build_timer;
    const Conditions &conds = conditionsFor(q);
    p.out.buildSeconds = build_timer.seconds();
    p.out.formulaNodes = conds.nodes;
    // "Structural" means the arena's constant folding alone settled
    // both formulas; a condition the affine pass pre-discharged (its
    // stored formula is a kFalse placeholder, never built) counts as
    // an analysis discharge instead.
    p.out.solvedStructurally =
        !conds.zeroDischarged && !conds.plusDischarged &&
        arena.isConst(conds.zero) && arena.isConst(conds.plus);
    p.conds = &conds;

    if (conds.zeroDischarged) {
        // Statically proven UNSAT: no query.  finish() treats a null
        // zero handle as a settled Unsat, exactly as for a constant.
        // Checked BEFORE the constant test so affine placeholders
        // route here, not through structuralOutcome().
        ++engineStats.analysisDischarged;
    } else if (arena.isConst(conds.zero)) {
        const LaneOutcome zero = structuralOutcome(conds.zero);
        if (zero.result == sat::SolveResult::Sat) {
            // Matches the sequential order: (6.2) is never evaluated
            // once (6.1) already proved the qubit unsafe.
            finishUnsafe(p.out, zero, FailedCondition::ZeroRestoration);
            p.immediate = true;
            return p;
        }
    } else {
        p.zero = submitQuery(conds.zero, conds.zeroLane);
    }
    // Queue (6.2) speculatively: safe qubits (the common case) need it
    // anyway, and an Unsafe (6.1) answer cancels the query.
    if (conds.plusDischarged)
        ++engineStats.analysisDischarged;
    else if (!arena.isConst(conds.plus))
        p.plus = submitQuery(conds.plus, conds.plusLane);
    return p;
}

VerificationEngine::Pending
VerificationEngine::prepareCleanAncilla(ir::QubitId q)
{
    Pending p;
    p.clean = true;
    p.out.qubit = q;
    p.out.name = circuit_.label(q);
    qbAssert(q < circuit_.numQubits(),
             "verifyCleanAncilla: qubit out of range");
    if (!classical) {
        p.out.verdict = Verdict::NotClassical;
        p.immediate = true;
        return p;
    }
    if (cancelled_.load(std::memory_order_acquire)) {
        p.out.verdict = Verdict::Unknown;
        p.immediate = true;
        return p;
    }
    ++engineStats.qubitsVerified;

    Timer build_timer;
    // The ancilla starts in |0>, so only the q = 0 cofactor of its
    // final value matters: it must be identically 0.
    bexp::NodeRef residue;
    if (cleanCache[q]) {
        ++engineStats.conditionHits;
        residue = *cleanCache[q];
    } else {
        ensureFinals();
        residue = arena.substitute(finals[q], q, bexp::kFalse);
        cleanCache[q] = residue;
    }
    p.out.buildSeconds = build_timer.seconds();
    const bexp::DagShape cone = arena.dagShape(residue);
    p.out.formulaNodes = cone.nodes;
    p.out.solvedStructurally = arena.isConst(residue);

    if (arena.isConst(residue)) {
        const LaneOutcome res = structuralOutcome(residue);
        if (res.result == sat::SolveResult::Sat)
            finishUnsafe(p.out, res, FailedCondition::ZeroRestoration);
        else
            p.out.verdict = Verdict::Safe;
        p.immediate = true;
    } else {
        p.zero = submitQuery(residue, laneFor(cone));
    }
    return p;
}

QubitResult
VerificationEngine::finish(Pending p)
{
    if (p.immediate)
        return std::move(p.out);

    if (p.clean) {
        const LaneOutcome res = collectQuery(*p.zero, p.out);
        p.zero.reset();
        switch (res.result) {
          case sat::SolveResult::Unsat:
            p.out.verdict = Verdict::Safe;
            break;
          case sat::SolveResult::Sat:
            finishUnsafe(p.out, res, FailedCondition::ZeroRestoration);
            break;
          case sat::SolveResult::Unknown:
            p.out.verdict = Verdict::Unknown;
            break;
        }
        return std::move(p.out);
    }

    if (p.zero) {
        const LaneOutcome zero = collectQuery(*p.zero, p.out);
        p.zero.reset();
        if (zero.result == sat::SolveResult::Sat) {
            finishUnsafe(p.out, zero, FailedCondition::ZeroRestoration);
            return std::move(p.out); // ~Pending cancels the (6.2) query
        }
        if (zero.result == sat::SolveResult::Unknown) {
            p.out.verdict = Verdict::Unknown;
            return std::move(p.out);
        }
    }

    LaneOutcome plus;
    if (p.plus) {
        plus = collectQuery(*p.plus, p.out);
        p.plus.reset();
    } else if (p.conds->plusDischarged) {
        // Statically discharged in prepare(): settled Unsat with no
        // lane attribution.  (structuralOutcome() would read a
        // constant value this non-constant condition does not have.)
        plus.result = sat::SolveResult::Unsat;
    } else {
        plus = structuralOutcome(p.conds->plus);
    }
    if (plus.result == sat::SolveResult::Sat) {
        finishUnsafe(p.out, plus, FailedCondition::PlusRestoration);
        return std::move(p.out);
    }
    if (plus.result == sat::SolveResult::Unknown) {
        p.out.verdict = Verdict::Unknown;
        return std::move(p.out);
    }
    p.out.verdict = Verdict::Safe;
    return std::move(p.out);
}

QubitResult
VerificationEngine::verify(ir::QubitId q)
{
    return finish(prepare(q));
}

QubitResult
VerificationEngine::verifyCleanAncilla(ir::QubitId q)
{
    return finish(prepareCleanAncilla(q));
}

ProgramResult
VerificationEngine::verifyAllQubits(const ResultObserver &observer)
{
    ProgramResult result;
    Timer timer;
    // Pipeline the whole circuit: queue every qubit's queries before
    // awaiting the first verdict, so the worker pool crosses qubit
    // boundaries without draining.
    std::vector<Pending> pendings;
    pendings.reserve(circuit_.numQubits());
    for (ir::QubitId q = 0; q < circuit_.numQubits(); ++q)
        pendings.push_back(prepare(q));
    for (Pending &pending : pendings) {
        result.qubits.push_back(finish(std::move(pending)));
        if (observer)
            observer(result.qubits.back());
    }
    result.solverTotals = aggregateSolverStats();
    result.analysisTotals = analysisTotalsOf(engineStats);
    result.totalSeconds = timer.seconds();
    return result;
}

ProgramResult
verifyAll(const lang::ElaboratedProgram &program,
          const EngineOptions &options, const ResultObserver &observer,
          bool check_clean_ancillas)
{
    // ONE worker pool for the whole program, shared by every session:
    // the process runs at most options.jobs solver threads no matter
    // how many lifetimes the program has.  (The server entry point
    // below amortizes even this across requests by passing its own
    // long-lived pool.)
    return verifyAll(program, options, observer, check_clean_ancillas,
                     std::make_shared<Scheduler>(options.jobs),
                     nullptr);
}

ProgramResult
verifyAll(const lang::ElaboratedProgram &program,
          const EngineOptions &options, const ResultObserver &observer,
          bool check_clean_ancillas,
          const std::shared_ptr<Scheduler> &scheduler,
          const std::shared_ptr<CancelSource> &cancel)
{
    qbAssert(scheduler != nullptr, "verifyAll: null scheduler");
    ProgramResult result;
    Timer timer;

    // One session per distinct borrow...release lifetime: qubits whose
    // scopes coincide (e.g. adder.qbr's a[1..n-1], all borrowed and
    // released together) share one arena and one solver per lane.
    std::map<std::pair<std::size_t, std::size_t>,
             std::unique_ptr<VerificationEngine>>
        sessions;
    const auto sessionFor =
        [&](const lang::QubitInfo &info) -> VerificationEngine & {
        std::unique_ptr<VerificationEngine> &session =
            sessions[{info.scopeBegin, info.scopeEnd}];
        if (!session)
            session = std::make_unique<VerificationEngine>(
                program.circuit.slice(info.scopeBegin, info.scopeEnd),
                options, scheduler, cancel);
        return *session;
    };

    // Pass 1 - pipeline: build and queue every qubit's queries, in
    // emission order, without waiting on any verdict.
    struct WorkItem
    {
        VerificationEngine *engine;
        VerificationEngine::Pending pending;
    };
    std::vector<WorkItem> work;
    for (ir::QubitId q :
         program.qubitsWithRole(lang::QubitRole::BorrowVerify)) {
        // Definition 5.1: verify over the statements inside the
        // qubit's borrow ... release lifetime.
        VerificationEngine &session = sessionFor(program.qubits[q]);
        work.push_back({&session, session.prepare(q)});
    }
    if (check_clean_ancillas) {
        for (ir::QubitId q :
             program.qubitsWithRole(lang::QubitRole::Alloc)) {
            VerificationEngine &session = sessionFor(program.qubits[q]);
            work.push_back({&session, session.prepareCleanAncilla(q)});
        }
    }

    // Pass 2 - collect and stream, preserving qubit order.
    for (WorkItem &item : work) {
        result.qubits.push_back(
            item.engine->finish(std::move(item.pending)));
        if (observer)
            observer(result.qubits.back());
    }
    for (const auto &[scope, session] : sessions) {
        result.solverTotals.accumulate(session->aggregateSolverStats());
        result.analysisTotals.accumulate(
            analysisTotalsOf(session->stats()));
    }
    result.totalSeconds = timer.seconds();
    return result;
}

} // namespace qb::core
