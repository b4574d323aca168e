/**
 * @file
 * Conservative parallel discrete-event simulation (PDES): shard a
 * Simulation into per-node EventQueues and run them on a thread
 * pool, bounded by a lookahead derived from the smallest
 * inter-shard link latency (the dist-gem5 synchronization scheme
 * the paper's own evaluation used).
 *
 * Model (see DESIGN.md §9 for the full determinism argument):
 *
 *  - Every shard is one EventQueue plus the components built inside
 *    its Simulation::ShardScope. Components interact freely within
 *    a shard (same queue, same thread during a window).
 *  - Time advances in windows. Each window, the set computes the
 *    global horizon h = min over shards of the next event tick,
 *    then every shard executes its events with tick < h + L in
 *    parallel, where L is the lookahead: the smallest latency of
 *    any registered inter-shard edge (addEdge). Events a shard
 *    creates for itself are unrestricted; events crossing shards
 *    must land at or beyond the current window end, which the
 *    physical link latency guarantees.
 *  - Cross-shard events travel as mailbox messages, not direct
 *    schedule() calls. Each registered (src, dst) edge has a
 *    single-writer mailbox; messages carry a deterministic (tick,
 *    priority, srcShard, srcSeq) key and are merged into the
 *    destination queue -- in exactly that order -- at the window
 *    boundary. The merge order is therefore a pure function of
 *    simulation state, never of thread scheduling, which is why an
 *    N-thread run is byte-identical to a 1-thread run.
 *  - A window's drain costs O(posted edges), not O(shards^2): each
 *    destination keeps its mailboxes parallel to its sorted
 *    neighbour list, plus a bitmask of the ones posted to since the
 *    last drain, and the drain visits only those.
 *
 * Usage (normally driven by Simulation, not directly):
 *
 *   ShardSet set;
 *   set.addQueue(&q0); set.addQueue(&q1);
 *   set.addEdge(0, 1, linkLatency);       // lookahead source
 *   set.post(0, 1, when, prio, "wire", fn);   // cross-shard event
 *   set.run(until, threads);              // window loop
 *
 * post() outside run() degrades to a plain (single-threaded)
 * schedule on the destination queue, so system wiring and
 * between-run setup need no special casing. post() *inside* a
 * window enforces the lookahead contract unconditionally (every
 * build, not just checked): a message below the current window end
 * panics, because the destination shard may already have advanced
 * past that tick, and so does a message between two shards that
 * share no registered edge, because no edge latency bounds it.
 */

#ifndef MCNSIM_SIM_SHARD_HH
#define MCNSIM_SIM_SHARD_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/barrier.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace mcnsim::sim {

/** A set of EventQueue shards co-simulated under one clock. */
class ShardSet
{
  public:
    ShardSet() = default;
    ~ShardSet();

    ShardSet(const ShardSet &) = delete;
    ShardSet &operator=(const ShardSet &) = delete;

    /** Register @p q as the next shard (index = registration
     *  order). All queues must be added before the first run(). */
    void addQueue(EventQueue *q);

    std::size_t shardCount() const { return queues_.size(); }

    EventQueue &queue(std::size_t i) { return *queues_[i]; }

    /**
     * Declare an inter-shard communication edge with the given
     * minimum latency (a wire's propagation delay). The lookahead
     * is the minimum over all edges; builders call this once per
     * link that crosses shards. Either endpoint may then post to
     * the other; a repeated pair adds no second mailbox.
     */
    void addEdge(std::size_t a, std::size_t b, Tick latency);

    /** Conservative lookahead: min edge latency (maxTick when the
     *  shards share no edges and may free-run independently). */
    Tick lookahead() const { return lookahead_; }

    /**
     * Deliver a cross-shard event: run @p fn at @p when on shard
     * @p dst. Inside a run the message is mailboxed and merged at
     * the next window boundary; @p src and @p dst must share a
     * registered edge, and @p when must be at or beyond the current
     * window end (guaranteed by any edge latency >= the lookahead),
     * or this panics. Outside a run it schedules directly. @p name
     * must outlive the event (literal/interned).
     */
    void post(std::size_t src, std::size_t dst, Tick when,
              EventPriority prio, const char *name,
              std::function<void()> fn);

    /**
     * Run every shard up to @p until (inclusive, like
     * EventQueue::run) using at most @p workers threads. The
     * logical schedule -- window boundaries, merge orders, per-queue
     * event order -- depends only on queue state, never on
     * @p workers, so any thread count produces byte-identical
     * results. @p workers is clamped to the shard count and to the
     * CPUs this process may run on; observability that assumes a
     * single thread (trace flags, timeline) clamps execution to one
     * worker. Results are unchanged for the same reason.
     */
    Tick run(Tick until, unsigned workers);

    /** True while run() is executing (posts must mailbox). */
    bool running() const { return running_; }

    /** Windows executed since construction (diagnostics). */
    std::uint64_t windowsRun() const { return windows_; }

  private:
    /** One mailboxed cross-shard event. */
    struct Msg
    {
        Tick when;
        EventPriority prio;
        std::uint32_t srcShard;
        std::uint64_t seq; ///< per-(src,dst) mailbox counter
        const char *name;
        std::function<void()> fn;
    };

    /** Single-writer (src thread) / single-reader (dst thread at
     *  the barrier) message buffer. Cache-line aligned so two
     *  sources appending concurrently never share a line. */
    struct alignas(64) Mailbox
    {
        std::vector<Msg> msgs;
        std::uint64_t nextSeq = 0;
    };

    /** One destination shard's inbound edges. */
    struct Inbox
    {
        std::vector<std::size_t> srcs; ///< sorted neighbour shards
        std::vector<Mailbox> boxes;    ///< boxes[i]: posts from srcs[i]
        /** Bit i set: boxes[i] was posted to since the last drain.
         *  Set by any source's worker, cleared by dst's worker;
         *  the barrier orders the two. */
        std::vector<std::atomic<std::uint64_t>> posted;
    };

    static void addNeighbour(Inbox &in, std::size_t nbr);
    void startThreads(unsigned workers);
    void workerMain(unsigned idx);
    void windowLoop(unsigned w);
    void drainInbox(std::size_t dst);
    Tick windowEndFor(Tick horizon) const;
    void recordError();
    static void atomicMinTick(std::atomic<Tick> &a, Tick v);

    std::vector<EventQueue *> queues_;
    /** inbox_[dst]: its mailboxes are written only by their source
     *  shard's worker during a window and drained only by dst's
     *  worker at the barrier. */
    std::vector<Inbox> inbox_;
    /** Per-destination merge scratch (owned by dst's worker). */
    std::vector<std::vector<Msg>> scratch_;
    Tick lookahead_ = maxTick;

    // Thread pool (lazily started by the first multi-worker run).
    std::vector<std::thread> threads_;
    std::unique_ptr<SpinBarrier> barrier_;
    unsigned startedWorkers_ = 0; ///< barrier participants; 0 = none
    std::mutex m_;
    std::condition_variable cv_;
    std::uint64_t runGen_ = 0;
    bool shutdown_ = false;

    // Per-run state. Plain members are written in single-writer
    // phases separated by the barrier (which provides the ordering).
    Tick until_ = 0;
    Tick windowEnd_ = 0;
    unsigned assignWorkers_ = 1; ///< workers owning shards this run
    bool done_ = false;
    bool running_ = false;
    std::uint64_t windows_ = 0;
    std::atomic<Tick> horizon_{maxTick};
    std::atomic<bool> errored_{false};
    std::exception_ptr error_;
    std::mutex errorMutex_;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_SHARD_HH
