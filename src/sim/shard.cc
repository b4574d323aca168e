#include "sim/shard.hh"

#include <algorithm>
#include <bit>
#include <iterator>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/timeline.hh"

namespace mcnsim::sim {

namespace {

/** CPUs this process may run on: its affinity mask where the OS
 *  exposes one, else the hardware thread count, and at least 1. */
unsigned
usableCpus()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

ShardSet::~ShardSet()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        shutdown_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ShardSet::addQueue(EventQueue *q)
{
    MCNSIM_ASSERT(!running_, "addQueue during run");
    q->setShardIndex(queues_.size());
    queues_.push_back(q);
    inbox_.resize(queues_.size());
    scratch_.resize(queues_.size());
}

void
ShardSet::addNeighbour(Inbox &in, std::size_t nbr)
{
    auto it = std::lower_bound(in.srcs.begin(), in.srcs.end(), nbr);
    if (it != in.srcs.end() && *it == nbr)
        return;
    const auto i = it - in.srcs.begin();
    in.srcs.insert(it, nbr);
    in.boxes.emplace(in.boxes.begin() + i);
    if (in.posted.size() * 64 < in.srcs.size())
        in.posted = decltype(in.posted)(in.posted.size() + 1);
}

void
ShardSet::addEdge(std::size_t a, std::size_t b, Tick latency)
{
    MCNSIM_ASSERT(a < queues_.size() && b < queues_.size(),
                  "addEdge shard index out of range");
    MCNSIM_ASSERT(!running_, "addEdge during run");
    addNeighbour(inbox_[a], b);
    addNeighbour(inbox_[b], a);
    // A zero-latency edge would leave no room for any window to
    // make progress; clamp to one tick (the finest wire we model
    // is still orders of magnitude above a tick).
    if (latency < 1)
        latency = 1;
    lookahead_ = std::min(lookahead_, latency);
}

void
ShardSet::post(std::size_t src, std::size_t dst, Tick when,
               EventPriority prio, const char *name,
               std::function<void()> fn)
{
    MCNSIM_ASSERT(src < queues_.size() && dst < queues_.size(),
                  "post shard index out of range");
    if (!running_) {
        // Single-threaded setup path (system wiring, between
        // run-slices): a plain schedule is already deterministic.
        queues_[dst]->schedule(std::move(fn), when, name, prio);
        return;
    }
    // The lookahead contract is load-bearing in every build: the
    // destination shard may already be executing past `when` on
    // another thread, so a below-horizon post cannot be honored.
    if (when < windowEnd_) {
        panic("cross-shard post below the lookahead horizon: event '",
              name, "' from shard ", src, " to shard ", dst,
              " lands at tick ", when, " but the current window ends "
              "at tick ", windowEnd_, " (lookahead ", lookahead_,
              "); cross-shard events must travel over a registered "
              "edge whose latency >= the lookahead (see DESIGN.md "
              "§9)");
    }
    // Same contract: only a registered edge bounds how soon src can
    // affect dst, and only a registered edge has a mailbox.
    Inbox &in = inbox_[dst];
    auto it = std::lower_bound(in.srcs.begin(), in.srcs.end(), src);
    if (it == in.srcs.end() || *it != src) {
        panic("cross-shard post on an unregistered edge: event '",
              name, "' from shard ", src, " to shard ", dst,
              " at tick ", when, "; the two shards share no edge "
              "(addEdge), so no latency bounds the post (see "
              "DESIGN.md §9)");
    }
    const auto i = static_cast<std::size_t>(it - in.srcs.begin());
    Mailbox &mb = in.boxes[i];
    if (mb.msgs.empty())
        in.posted[i / 64].fetch_or(std::uint64_t{1} << (i % 64),
                                   std::memory_order_relaxed);
    mb.msgs.push_back(Msg{when, prio, static_cast<std::uint32_t>(src),
                          mb.nextSeq++, name, std::move(fn)});
}

void
ShardSet::startThreads(unsigned workers)
{
    barrier_ = std::make_unique<SpinBarrier>(workers);
    startedWorkers_ = workers;
    threads_.reserve(workers - 1);
    for (unsigned i = 1; i < workers; ++i)
        threads_.emplace_back([this, i] { workerMain(i); });
}

void
ShardSet::workerMain(unsigned idx)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(m_);
            cv_.wait(lk, [&] { return shutdown_ || runGen_ != seen; });
            if (shutdown_)
                return;
            seen = runGen_;
        }
        windowLoop(idx);
    }
}

void
ShardSet::recordError()
{
    std::lock_guard<std::mutex> lk(errorMutex_);
    if (!error_)
        error_ = std::current_exception();
    errored_.store(true, std::memory_order_release);
}

void
ShardSet::atomicMinTick(std::atomic<Tick> &a, Tick v)
{
    Tick cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v,
                                    std::memory_order_relaxed))
        ;
}

Tick
ShardSet::windowEndFor(Tick h) const
{
    // Exclusive end: min(h + lookahead, until + 1), saturating.
    Tick end;
    if (lookahead_ == maxTick || h > maxTick - lookahead_)
        end = maxTick;
    else
        end = h + lookahead_;
    if (until_ != maxTick && end > until_)
        end = until_ + 1;
    return end;
}

void
ShardSet::drainInbox(std::size_t dst)
{
    Inbox &in = inbox_[dst];
    auto &sc = scratch_[dst];
    sc.clear();
    for (std::size_t w = 0; w < in.posted.size(); ++w) {
        // No post runs during a drain (the barrier separates the
        // phases), so a plain load and store suffice here.
        std::uint64_t bits = in.posted[w].load(std::memory_order_relaxed);
        if (bits == 0)
            continue;
        in.posted[w].store(0, std::memory_order_relaxed);
        for (; bits != 0; bits &= bits - 1) {
            auto &mb = in.boxes[w * 64 + static_cast<std::size_t>(
                                             std::countr_zero(bits))];
            sc.insert(sc.end(),
                      std::make_move_iterator(mb.msgs.begin()),
                      std::make_move_iterator(mb.msgs.end()));
            mb.msgs.clear();
        }
    }
    if (sc.empty())
        return;
    // The merge key. Everything in it is simulation state -- tick,
    // priority, topology index, per-mailbox message count -- so the
    // resulting schedule() order (and hence the destination queue's
    // sequence numbers) is identical for every thread count.
    std::sort(sc.begin(), sc.end(), [](const Msg &a, const Msg &b) {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.prio != b.prio)
            return static_cast<int>(a.prio) < static_cast<int>(b.prio);
        if (a.srcShard != b.srcShard)
            return a.srcShard < b.srcShard;
        return a.seq < b.seq;
    });
    EventQueue &q = *queues_[dst];
    for (auto &m : sc)
        q.schedule(std::move(m.fn), m.when, m.name, m.prio);
    sc.clear();
}

void
ShardSet::windowLoop(unsigned w)
{
    SpinBarrier &bar = *barrier_;
    for (;;) {
        // Barrier A: last window's mailbox appends are visible.
        bar.arriveAndWait();

        // Phase 1 (parallel): merge inboxes, contribute to the
        // global horizon. Shards are strided across the workers
        // that own shards this run; extra pool threads idle
        // through the barriers.
        try {
            if (w < assignWorkers_) {
                for (std::size_t s = w; s < queues_.size();
                     s += assignWorkers_) {
                    drainInbox(s);
                    atomicMinTick(horizon_,
                                  queues_[s]->nextEventTick());
                }
            }
        } catch (...) {
            recordError();
        }

        // Barrier B: horizon complete.
        bar.arriveAndWait();

        // Phase 2 (worker 0 only): pick the window or finish.
        if (w == 0) {
            const Tick h = horizon_.load(std::memory_order_relaxed);
            if (errored_.load(std::memory_order_acquire) ||
                h == maxTick || h > until_) {
                done_ = true;
            } else {
                done_ = false;
                windowEnd_ = windowEndFor(h);
                horizon_.store(maxTick, std::memory_order_relaxed);
                ++windows_;
            }
        }

        // Barrier C: window end (or done flag) published.
        bar.arriveAndWait();
        if (done_) {
            // Barrier D: nobody leaves until every participant has
            // read done_. The coordinator resets it for the next
            // run() the moment it returns; a late reader would see
            // false, loop back to barrier A with no run active, and
            // strand itself (deadlocking the eventual join).
            bar.arriveAndWait();
            return;
        }

        // Phase 3 (parallel): execute the window on owned shards.
        try {
            if (w < assignWorkers_) {
                for (std::size_t s = w; s < queues_.size();
                     s += assignWorkers_)
                    queues_[s]->runWindow(windowEnd_);
            }
        } catch (...) {
            recordError();
        }
    }
}

Tick
ShardSet::run(Tick until, unsigned workers)
{
    MCNSIM_ASSERT(!queues_.empty(), "run on an empty ShardSet");
    if (queues_.size() == 1)
        return queues_[0]->run(until);

    // More workers than shards or than usable CPUs only adds
    // barrier participants that wait; the schedule does not depend
    // on the count, so clamping cannot change results.
    workers = std::clamp<unsigned>(
        workers, 1,
        std::min<unsigned>(static_cast<unsigned>(queues_.size()),
                           usableCpus()));
    // Single-threaded machinery clamps execution to one worker: the
    // trace ring and timeline record global order, and an armed
    // fault plan draws from shared per-site RNG streams whose draw
    // order must not depend on thread scheduling. The logical
    // schedule is worker-count-invariant, so results do not change.
    if (Trace::anyActive() || Timeline::active() ||
        FaultPlan::active())
        workers = 1;

    if (workers > 1 && startedWorkers_ == 0)
        startThreads(workers);
    if (!barrier_)
        barrier_ = std::make_unique<SpinBarrier>(1);
    assignWorkers_ =
        startedWorkers_ ? std::min(workers, startedWorkers_) : 1;

    until_ = until;
    done_ = false;
    horizon_.store(maxTick, std::memory_order_relaxed);
    errored_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    running_ = true;

    if (startedWorkers_ > 1) {
        {
            std::lock_guard<std::mutex> lk(m_);
            ++runGen_;
        }
        cv_.notify_all();
    }
    windowLoop(0); // the caller is worker 0
    running_ = false;

    if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        std::rethrow_exception(e);
    }

    // Mirror EventQueue::run: fast-forward every shard's clock to
    // the requested bound so curTick() agrees across shards between
    // run slices.
    if (until != maxTick) {
        for (auto *q : queues_) {
            if (q->curTick() < until)
                q->setCurTick(until);
        }
    }
    return queues_[0]->curTick();
}

} // namespace mcnsim::sim
