/**
 * @file
 * Persistent worker pool for batch verification.
 *
 * PR 1's portfolio spawned and joined one std::thread per solver lane
 * for every verification condition: thread churn dominated short
 * queries and the live thread count was unbounded (lanes x concurrent
 * batch items, never consulting the hardware).  The Scheduler is the
 * replacement subsystem: a fixed pool of workers, created once and
 * sized to the machine (or to EngineOptions::jobs), that pulls
 * (qubit, condition) work items from queues.  Engines submit every SAT
 * task here - batch pipelines and single queries, on any lane - so the
 * process-wide thread count is the pool size, full stop.
 *
 * Two submission flavors cover the engine's needs:
 *
 *   - submit(task): independent work, runs on any free worker (the
 *     scratch-solver lanes, whose per-condition solves share no state);
 *   - submit(queue, task): ordered work.  Tasks on one SerialQueue run
 *     strictly one-at-a-time in FIFO order (actor semantics), which is
 *     how a persistent incremental solver lane - single-threaded by
 *     nature - processes its condition stream without locks and in a
 *     deterministic order, while distinct lanes still run in parallel.
 *
 * Every submission additionally belongs to a fairness BAND.  Runnable
 * units are drained round-robin across non-empty bands and FIFO within
 * each band, so when independent request streams share one pool (the
 * qborrow server feeding many programs through one process-wide
 * scheduler), a program that queued a hundred races cannot starve a
 * newly-arrived program: the newcomer's band is served on the next
 * rotation.  Band 0 is the default; with all work in one band the
 * schedule is plain FIFO, exactly the pre-band behavior.
 *
 * The pool is shareable: verifyAll() hands one Scheduler to every
 * session of a program - and the qborrow server hands one Scheduler to
 * every session of every request - so concurrent sessions cannot
 * multiply threads.
 */

#ifndef QB_CORE_SCHEDULER_H
#define QB_CORE_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace qb::core {

class Scheduler
{
  public:
    using Task = std::function<void()>;

    /** Ordered task stream; create via makeQueue().  Tasks submitted
     *  to one queue never run concurrently with each other and run in
     *  submission order. */
    class SerialQueue
    {
        friend class Scheduler;
        std::deque<Task> tasks; ///< guarded by the scheduler mutex
        bool active = false;    ///< a worker is draining this queue
        unsigned band = 0;      ///< fairness band of the drain thunks
    };

    /**
     * Start the pool.  @p jobs = 0 sizes it to
     * std::thread::hardware_concurrency() (at least one worker).
     */
    explicit Scheduler(unsigned jobs = 0);

    /** Joins the workers; all submitted tasks complete first. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Number of worker threads (fixed for the pool's lifetime). */
    unsigned workers() const;

    /** Run @p task on any worker, unordered, in band 0. */
    void submit(Task task);

    /** Run @p task on any worker, unordered, in fairness band
     *  @p band. */
    void submit(unsigned band, Task task);

    /** Run @p task after every earlier task of @p queue,
     *  exclusively. */
    void submit(const std::shared_ptr<SerialQueue> &queue, Task task);

    /** New serial queue whose drain turns run in fairness band
     *  @p band. */
    std::shared_ptr<SerialQueue> makeQueue(unsigned band = 0);

    /**
     * Snapshot of the queued (runnable, not yet running) units per
     * fairness band, as (band, backlog) pairs in band order.  Empty
     * bands are absent.  This is the pool-side half of the server's
     * `stats` protocol op: with one band per request stream, the
     * backlog shape shows which programs are waiting on SAT work.
     */
    std::vector<std::pair<unsigned, std::size_t>> bandBacklog() const;

  private:
    struct Impl;
    Task drainThunk(std::shared_ptr<SerialQueue> queue);
    std::unique_ptr<Impl> impl;
};

} // namespace qb::core

#endif // QB_CORE_SCHEDULER_H
