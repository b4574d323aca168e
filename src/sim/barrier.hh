/**
 * @file
 * SpinBarrier: the synchronization point between parallel-simulation
 * window phases (see sim/shard.hh and DESIGN.md §9).
 *
 * A conservative-lookahead window is three short phases (drain
 * mailboxes, pick the window end, execute), each a handful of
 * microseconds of host work, so the barrier must cost less than a
 * futex round trip. This one is a classic generation-counting
 * (sense-reversing) barrier: the last arriver bumps the generation
 * and wakes the rest. A waiter goes through three bounded stages:
 *
 *  1. spin on the generation word with a pause instruction, which
 *     covers a typical phase without a syscall;
 *  2. yield the CPU for a bounded number of rounds, so that on an
 *     oversubscribed host (more runnable threads than cores) the
 *     sibling it waits for gets the core instead of a spinner;
 *  3. sleep in C++20 atomic wait (a futex), so a long phase or a
 *     descheduled sibling cannot pin a core.
 *
 * The stages are bounded by round counts, not by a clock: host time
 * stays out of src/sim apart from the run metadata and the profiler.
 *
 * Usage:
 *
 *   sim::SpinBarrier bar(workers);
 *   // on every worker thread, once per phase:
 *   bar.arriveAndWait();
 *
 * The barrier provides acquire/release ordering: every write made
 * before arriveAndWait() is visible to every thread after it
 * returns. That ordering is what lets the window loop keep its
 * shared state (window end, horizon, done flag) as plain members
 * written in single-writer phases.
 */

#ifndef MCNSIM_SIM_BARRIER_HH
#define MCNSIM_SIM_BARRIER_HH

#include <atomic>
#include <cstdint>
#include <thread>

namespace mcnsim::sim {

/** Tell the core this is a spin-wait loop (x86 PAUSE, ARM YIELD). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/** Generation-counting barrier for a fixed set of threads. */
class SpinBarrier
{
  public:
    explicit SpinBarrier(unsigned count) : count_(count) {}

    SpinBarrier(const SpinBarrier &) = delete;
    SpinBarrier &operator=(const SpinBarrier &) = delete;

    /** Number of participating threads. */
    unsigned count() const { return count_; }

    /**
     * Block until all count() threads have arrived. The last
     * arriver releases the rest; the generation counter makes the
     * barrier immediately reusable for the next phase.
     */
    void
    arriveAndWait()
    {
        if (count_ <= 1)
            return;
        const std::uint64_t gen = gen_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            count_) {
            arrived_.store(0, std::memory_order_relaxed);
            gen_.fetch_add(1, std::memory_order_release);
            gen_.notify_all();
            return;
        }
        for (int i = 0; i < spinRounds; ++i) {
            if (gen_.load(std::memory_order_acquire) != gen)
                return;
            cpuRelax();
        }
        for (int i = 0; i < yieldRounds; ++i) {
            if (gen_.load(std::memory_order_acquire) != gen)
                return;
            std::this_thread::yield();
        }
        while (gen_.load(std::memory_order_acquire) == gen)
            gen_.wait(gen, std::memory_order_acquire);
    }

  private:
    // Short on purpose. On a 4-vCPU VM (PAUSE ~17 ns, an idle
    // yield ~0.3 µs) this is ~2 µs of spinning and ~20 µs of idle
    // yields. Longer spins were no faster with a core per worker
    // and about 4x slower once two runs shared the cores (DESIGN.md §9,
    // "Measuring scaling").
    static constexpr int spinRounds = 128;
    static constexpr int yieldRounds = 64;

    unsigned count_;
    std::atomic<unsigned> arrived_{0};
    std::atomic<std::uint64_t> gen_{0};
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_BARRIER_HH
