/**
 * @file
 * Session-based, incremental, multi-lane verification engine.
 *
 * The one-shot entry points of verifier.h rebuild everything per qubit:
 * a fresh arena, a fresh Tseitin encoding and a fresh CDCL solver for
 * every formula of every qubit, even though all qubits of a circuit
 * share the same gate DAG and most of the same CNF.  A
 * VerificationEngine is the session object that hoists the shared work:
 *
 *   - ONE bexp::Arena and at most ONE FormulaBuilder pass over the
 *     circuit, run when the first condition needs it and shared by all
 *     per-qubit conditions (6.1), (6.2) and the clean-ancilla
 *     criterion;
 *   - ONE long-lived solver per configured lane, queried through
 *     assumption-based incremental SAT (sat::IncrementalTseitin emits
 *     each condition behind a selector literal), so conflict clauses
 *     learnt while verifying one qubit speed up the next;
 *   - with more than one lane, a per-condition CHOICE of lane made
 *     from the shape of the condition's cone (its XOR:AND node ratio),
 *     reproducing the paper's CVC5-vs-Bitwuzla complementarity
 *     without having to guess the winning solver per benchmark family
 *     up front - and without paying to run the loser.
 *
 * All SAT work runs on a persistent core::Scheduler worker pool sized
 * to the hardware (or EngineOptions::jobs): lanes are serial queues on
 * the pool, conditions are (qubit, condition) work items, and batch
 * verification pipelines whole circuits through the pool instead of
 * spawning threads per condition and barriering per qubit.
 *
 * The free functions of verifier.h remain as thin compatibility
 * wrappers over this class.
 */

#ifndef QB_CORE_ENGINE_H
#define QB_CORE_ENGINE_H

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "analysis/analyzer.h"
#include "boolexpr/arena.h"
#include "core/scheduler.h"
#include "core/verifier.h"

namespace qb::core {

/** Configuration of a verification session. */
struct EngineOptions
{
    /**
     * Lane configurations; the engine keeps one incremental solver per
     * lane for its whole lifetime.  Exception: a lane whose preset
     * enables preprocessing discharges each condition in a dedicated
     * solver instead - bounded variable elimination is a
     * whole-database transformation that cannot survive incremental
     * clause addition, and for such lanes it outweighs clause reuse.
     *
     * With more than one lane, each SAT condition goes to exactly one
     * of them, chosen when the condition is built from the XOR:AND
     * node ratio of its cone: XOR-dense cones (adders) to the first
     * preprocessing lane, the rest (MCX ladders) to the first
     * persistent lane, lane 0 when the wanted kind is missing.
     * Nothing is raced.  The choice depends on the condition alone,
     * so it is the same at every jobs count, and counterexamples come
     * from the deterministic replay solve either way.
     */
    std::vector<VerifierOptions> lanes{VerifierOptions::laneA()};

    /**
     * Worker threads in the scheduler pool backing this session;
     * 0 sizes the pool to std::thread::hardware_concurrency().  The
     * pool bounds the engine's parallelism: no thread is ever created
     * per condition or per query.
     */
    unsigned jobs = 0;

    /**
     * Slice-boundary inprocessing policy: each persistent lane runs
     * Solver::inprocess() (clause vivification, backward subsumption,
     * then an arena GC if warranted) after every this-many queries on
     * that lane, at the query boundary where the epoch shrink already
     * happens - never inside a slice chain.  0 disables.  The
     * per-pass effort bounds live in sat::SolverConfig
     * (vivifyPropBudget, subsumeMaxSize, subsumeOccLimit).
     */
    unsigned inprocessInterval = 16;

    /**
     * Binary implication graph analysis inside each inprocessing
     * pass (sat::SolverConfig::binaryAnalysis): SCC equivalence
     * reduction, failed-literal probing with hyper-binary resolution,
     * and transitive reduction over the binary clauses.  Every pass
     * preserves the model set over the original variables, so
     * verdicts and counterexamples are bit-identical with the switch
     * on or off; only the solving work (and the binary-graph
     * counters) differ.  On by default; --no-binary-analysis
     * restores the PR 5 behavior.
     */
    bool binaryAnalysis = true;

    /**
     * Scheduler fairness band of this session's work (lane queues and
     * scratch tasks).  Sessions sharing one pool but belonging to
     * different request streams - distinct programs in qborrow server
     * mode - should use distinct bands: the pool drains bands
     * round-robin, so a program with a deep backlog of queries cannot
     * starve a newly-admitted program.  0 (the default) is the shared
     * band of standalone runs.
     */
    unsigned fairnessBand = 0;

    /**
     * Static condition discharge (analysis/analyzer.h), consulted
     * before a qubit's conditions are built: a condition the affine
     * pass proves UNSAT from circuit structure skips building,
     * encoding and solving entirely.  Discharges are UNSAT-only, so verdicts and
     * counterexamples are identical to a SAT-only run; only the
     * skipped work (and the analysis counters) differ.  On by
     * default; analysis::AnalysisOptions::none() restores pure-SAT
     * behavior.  Result-affecting for caching purposes - the serving
     * tier folds this option into its options fingerprint.
     */
    analysis::AnalysisOptions analysis;

    /** Session with exactly one lane (the compatibility default). */
    static EngineOptions singleLane(const VerifierOptions &options);
    /** Both benchmark lanes, chosen per condition, like the paper's
     *  solver pairing. */
    static EngineOptions portfolioAB();
};

/** Streaming consumer of per-qubit results (batch verification). */
using ResultObserver = std::function<void(const QubitResult &)>;

class VerificationEngine;

/**
 * Cooperative cancellation handle for an in-flight verification
 * request (server mode: a client cancels a submitted program while its
 * queries are still running).
 *
 * One CancelSource is shared between the submitting side (which calls
 * requestCancel() from any thread) and the engine sessions doing the
 * work: every VerificationEngine constructed with this source attaches
 * itself, and requestCancel() flips the stop flag of each attached
 * engine's live queries - solvers poll that flag and bail within a
 * propagation round - then marks the engines cancelled so later
 * prepare() calls settle immediately with Verdict::Unknown.
 * Cancellation is a VERDICT downgrade, never a data race: queries
 * drain through the normal collect path and report Unknown.
 *
 * Thread-safe; requestCancel() is idempotent.
 */
class CancelSource
{
  public:
    /** Cancel: stop attached engines' queries, mark future work moot. */
    void requestCancel();

    /** Has requestCancel() been called? */
    bool cancelRequested() const
    {
        return flag.load(std::memory_order_acquire);
    }

  private:
    friend class VerificationEngine;
    void attach(VerificationEngine *engine);
    void detach(VerificationEngine *engine);

    mutable std::mutex mutex;
    std::vector<VerificationEngine *> engines; ///< guarded by mutex
    std::atomic<bool> flag{false};
};

/**
 * A verification session over one circuit.
 *
 * The formula-building scan runs at most once, when the first
 * condition that the static analysis could not discharge needs the
 * final formulas; a session whose conditions are all discharged builds
 * no formula.  Every verify()/verifyCleanAncilla() call only pays for
 * its own conditions and SAT queries.  Sessions are single-threaded
 * objects from the caller's point of view (scheduler parallelism is
 * internal): all prepare/finish/verify calls must come from one
 * thread.
 *
 * Counterexamples are extracted by a deterministic replay solve of the
 * satisfiable condition rather than from the deciding lane's solver,
 * so with the default unlimited conflict budget, verdicts AND
 * counterexamples are identical across jobs counts and schedules.
 * (A finite budget makes "decided vs Unknown" depend on the
 * persistent lane's learnt-clause state, which a cancelled speculative
 * (6.2) query leaves schedule-dependent.)
 */
class VerificationEngine
{
  public:
    /** Cumulative session counters. */
    struct Stats
    {
        std::size_t satCalls = 0;        ///< conditions sent to a lane
        std::size_t structural = 0;      ///< conditions folded to const
        std::size_t conditionHits = 0;   ///< condition cache hits
        std::size_t qubitsVerified = 0;
        /** Conditions the GF(2)-affine pass proved UNSAT (no SAT
         *  query queued).  A discharge also skips BUILDING the
         *  condition: the pass is consulted before the formula
         *  construction, window-free, so wide linear cones pay
         *  neither the (6.2) cofactor sweep nor any encoding. */
        std::size_t analysisDischarged = 0;
        /** DAG nodes rewritten by the (6.2) cofactor sweeps, both
         *  polarities: linear in the circuit per qubit (regression
         *  tests count it instead of timing the build).  Not part of
         *  the report JSON. */
        std::size_t substituteVisits = 0;
        /** FormulaBuilder scans of the whole circuit: 0 while every
         *  condition so far was discharged before its build, 1 once
         *  any condition read the final formulas.  Its time lands in
         *  the demanding qubit's QubitResult::buildSeconds. */
        std::size_t formulaScans = 0;
    };

    /**
     * In-flight verification of one qubit: conditions built and
     * queries submitted to the scheduler, result not yet collected.
     * Obtained from prepare()/prepareCleanAncilla(), redeemed exactly
     * once with finish().  Move-only; destroying an unredeemed handle
     * cancels its queries.
     */
    class Pending;

    explicit VerificationEngine(
        const ir::Circuit &circuit, EngineOptions options = {},
        std::shared_ptr<Scheduler> scheduler = nullptr,
        std::shared_ptr<CancelSource> cancel = nullptr);
    ~VerificationEngine();

    VerificationEngine(const VerificationEngine &) = delete;
    VerificationEngine &operator=(const VerificationEngine &) = delete;

    /**
     * Verify safe uncomputation of dirty qubit @p q (Theorem 6.4),
     * like verifyQubit() but reusing all session state.
     */
    QubitResult verify(ir::QubitId q);

    /**
     * Verify the clean-ancilla criterion for @p q, like the free
     * verifyCleanAncilla() but reusing all session state.
     */
    QubitResult verifyCleanAncilla(ir::QubitId q);

    /**
     * Build the conditions of @p q, choose each one's lane and submit
     * the SAT queries to the scheduler without waiting: the
     * pipelining half of verify().
     * Preparing several qubits before finishing the first keeps every
     * worker busy across qubit boundaries.
     */
    Pending prepare(ir::QubitId q);
    /** prepare() for the clean-ancilla criterion. */
    Pending prepareCleanAncilla(ir::QubitId q);
    /** Await @p pending's queries and assemble its QubitResult. */
    QubitResult finish(Pending pending);

    /**
     * Verify every qubit of the circuit in id order, streaming each
     * result through @p observer (when set) as it is produced.  The
     * whole circuit is pipelined: all conditions are prepared and
     * queued up front, results are collected in order.
     */
    ProgramResult verifyAllQubits(const ResultObserver &observer = {});

    const ir::Circuit &circuit() const { return circuit_; }
    const EngineOptions &options() const { return options_; }
    std::size_t numLanes() const { return lanes_.size(); }
    const Stats &stats() const { return engineStats; }

    /**
     * True once this session's CancelSource fired (or the session was
     * constructed from an already-cancelled source).  Cancelled
     * sessions settle every further prepare() immediately with
     * Verdict::Unknown and abandon their in-flight queries.
     */
    bool cancelled() const
    {
        return cancelled_.load(std::memory_order_acquire);
    }

    /**
     * Counters of lane @p lane's persistent solver (conflicts, learnt
     * clauses...).  Quiesces the scheduler work of
     * this session first, so it is safe - but blocking - mid-batch.
     */
    sat::SolverStats laneSolverStats(std::size_t lane);

    /**
     * Sum of every persistent lane's solver counters (peak fields sum
     * per-lane peaks) plus the harvested totals of every retired
     * scratch-lane solver - preprocessing lanes discharge each
     * condition in a throwaway solver, and without the harvest their
     * preprocessing and binary-graph work would vanish with it.
     * Quiesces this session's scheduler work first, like
     * laneSolverStats().  The batch drivers copy this into
     * ProgramResult::solverTotals so reports and benchmarks can show
     * learnt-DB size, GC and inprocessing activity.
     */
    sat::SolverStats aggregateSolverStats();

  private:
    friend class CancelSource;

    struct Lane;
    struct Conditions;
    struct LaneOutcome;
    struct Query;

    /** Flip the stop flag of every live query and mark the session
     *  cancelled (called by CancelSource::requestCancel()). */
    void cancelNow();

    /** Run the FormulaBuilder scan into finals, once per session. */
    void ensureFinals();
    const Conditions &conditionsFor(ir::QubitId q);
    /** Lane of a condition whose cone has shape @p cone. */
    std::size_t laneFor(const bexp::DagShape &cone) const;
    std::shared_ptr<Query> submitQuery(bexp::NodeRef condition,
                                       std::size_t lane_index);
    LaneOutcome collectQuery(Query &query, QubitResult &out);
    LaneOutcome structuralOutcome(bexp::NodeRef condition);
    LaneOutcome runPersistentTask(Lane &lane, Query &query);
    LaneOutcome runScratchTask(Lane &lane, Query &query);
    std::optional<std::vector<bool>>
    deterministicModel(bexp::NodeRef condition);
    static void reportOutcome(Query &query, LaneOutcome outcome);
    void finishUnsafe(QubitResult &out, const LaneOutcome &outcome,
                      FailedCondition which);
    static void abandon(const std::shared_ptr<Query> &query);
    void waitIdle();

    EngineOptions options_;
    ir::Circuit circuit_;
    bexp::Arena arena;
    bool classical = false;
    /** analysis::writtenWires() of circuit_, computed at construction
     *  when the affine consult is on (it gates the consult). */
    std::vector<bool> written_;
    /** Final formula b_q per qubit; filled by ensureFinals(). */
    std::vector<bexp::NodeRef> finals;
    std::shared_ptr<Scheduler> scheduler_;
    std::shared_ptr<CancelSource> cancel_;
    std::atomic<bool> cancelled_{false};
    std::vector<std::unique_ptr<Lane>> lanes_;
    /** Static discharge over circuit_; created on first use. */
    std::unique_ptr<analysis::Analyzer> analyzer_;
    std::vector<std::unique_ptr<Conditions>> conditionCache;
    /** Cofactor memos of the (6.2) sweep, q := 0 and q := 1; reset
     *  per qubit, used only on the arena-writer thread. */
    bexp::SubstituteMemo zeroCofactor_;
    bexp::SubstituteMemo oneCofactor_;
    std::vector<std::optional<bexp::NodeRef>> cleanCache;
    Stats engineStats;

    /** Fold a retiring scratch solver's counters into
     *  scratchTotals_. */
    void harvestScratchStats(const sat::Solver &solver);
    /** Solver counters of every scratch solver retired so far;
     *  guarded by scratchStatsMutex (harvests run on pool workers). */
    sat::SolverStats scratchTotals_;
    std::mutex scratchStatsMutex;

    /** @name Destruction fence over in-flight scheduler tasks. @{ */
    std::mutex fenceMutex;
    std::condition_variable fenceIdle;
    std::size_t tasksInFlight = 0;      ///< guarded by fenceMutex
    std::vector<std::weak_ptr<Query>> liveQueries; ///< guarded by fenceMutex
    /** @} */
};

class VerificationEngine::Pending
{
  public:
    Pending(Pending &&) noexcept;
    Pending &operator=(Pending &&) noexcept;
    ~Pending();

  private:
    friend class VerificationEngine;
    Pending();

    QubitResult out;
    /** Conditions backing the queries (owned by the engine's cache). */
    const Conditions *conds = nullptr;
    std::shared_ptr<Query> zero; ///< (6.1) query, or the clean residue
    std::shared_ptr<Query> plus; ///< (6.2) query (speculative)
    bool immediate = false;     ///< verdict settled at prepare time
    bool clean = false;         ///< clean-ancilla single-condition check
};

/**
 * Batch-verify an elaborated program: every `borrow`-introduced qubit
 * over its borrow...release lifetime and (optionally) every `alloc`
 * qubit against the clean-ancilla criterion, exactly like
 * verifyProgram() but through engine sessions.
 *
 * Qubits whose lifetimes span the same gate range share one session -
 * one arena, one solver per lane - which is where the incremental
 * speedup comes from on programs like adder.qbr whose dirty qubits are
 * borrowed together.  All sessions share ONE scheduler pool sized by
 * @p options.jobs, and the whole program is pipelined through it:
 * every qubit's queries are queued before the first result is
 * awaited.
 * Results stream through @p observer (when set) in qubit order as they
 * are produced.
 */
ProgramResult verifyAll(const lang::ElaboratedProgram &program,
                        const EngineOptions &options = {},
                        const ResultObserver &observer = {},
                        bool check_clean_ancillas = false);

/**
 * verifyAll() over an externally-owned scheduler pool, optionally
 * cancellable: the serving entry point.  The qborrow daemon calls this
 * with the ONE process-wide pool it created at startup and a
 * per-request CancelSource, so pool startup is amortized across
 * requests, concurrent requests' queries interleave fairly (give each
 * request a distinct EngineOptions::fairnessBand), and a cancelled
 * request's remaining qubits settle as Verdict::Unknown without
 * blocking the pool.  @p scheduler must be non-null; @p cancel may be
 * null for uncancellable batch runs.
 */
ProgramResult verifyAll(const lang::ElaboratedProgram &program,
                        const EngineOptions &options,
                        const ResultObserver &observer,
                        bool check_clean_ancillas,
                        const std::shared_ptr<Scheduler> &scheduler,
                        const std::shared_ptr<CancelSource> &cancel);

} // namespace qb::core

#endif // QB_CORE_ENGINE_H
