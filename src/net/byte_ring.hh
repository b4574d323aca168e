/**
 * @file
 * ByteRing: the byte FIFO behind a TCP socket's send and receive
 * queues, kept as a queue of runs.
 *
 * A run is a stretch of the stream of one of two kinds:
 *
 *  - a literal run: bytes the application handed over (send(), and
 *    everything the receive side appends). They live in one
 *    growable power-of-two circular store, in stream order, so a
 *    read is one or two memcpys.
 *  - a pattern run {len, phase}: byte i of the run is
 *    (phase + i) & 0xff (net/pattern.hh). sendPattern() -- every
 *    iperf and MPI bulk payload -- stays a description until a
 *    segment is built, so a socket that only sends patterns holds
 *    no send-side byte storage at all.
 *
 * appendPattern() extends the last run when it is a pattern run
 * whose next byte has the new run's phase, so consecutive
 * sendPattern() chunks form one run; append() likewise extends a
 * literal last run. Each run records the absolute stream offset of
 * its first byte, so copyOut() finds its first run with a binary
 * search (MPI interleaves literal headers with pattern payloads).
 * popFront() is O(runs dropped) and releases consumed literal bytes
 * from the store at once.
 *
 *  - append()/appendPattern(): add at the tail
 *  - copyOut(): random-access read (segment payload extraction,
 *    written straight into the segment's pooled buffer)
 *  - popFront(): consume (ACKed bytes, recv drain)
 *  - take(): copy out and consume (recv)
 *
 * The literal store grows by doubling up to what is live (the TCP
 * buffer caps are 1 MiB, so it starts small). Byte values and sizes
 * are exactly what a byte-by-byte FIFO would hold -- host-side
 * representation only, so modeled metrics are untouched.
 */

#ifndef MCNSIM_NET_BYTE_RING_HH
#define MCNSIM_NET_BYTE_RING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "net/pattern.hh"
#include "sim/logging.hh"

namespace mcnsim::net {

/** Byte FIFO of literal and pattern runs with random-access reads. */
class ByteRing
{
  public:
    std::size_t size() const { return end_ - base_; }
    bool empty() const { return end_ == base_; }

    /** Append @p n bytes from @p p. */
    void
    append(const std::uint8_t *p, std::size_t n)
    {
        if (n == 0)
            return;
        reserve(litSize_ + n);
        std::size_t w = wrap(litHead_ + litSize_);
        std::size_t first = std::min(n, cap_ - w);
        std::memcpy(&buf_[w], p, first);
        if (n > first)
            std::memcpy(&buf_[0], p + first, n - first);
        if (!runs_.empty() && !runs_.back().pattern)
            runs_.back().len += n;
        else
            runs_.push_back({end_, n, litBase_ + litSize_, false});
        litSize_ += n;
        end_ += n;
    }

    /** Append the n-byte test pattern ((base + i) & 0xff). */
    void
    appendPattern(std::size_t base, std::size_t n)
    {
        if (n == 0)
            return;
        if (!runs_.empty() && runs_.back().pattern &&
            ((runs_.back().from + runs_.back().len - base) & 0xff) == 0)
            runs_.back().len += n;
        else
            runs_.push_back({end_, n, base & 0xff, true});
        end_ += n;
    }

    /** Copy bytes [off, off+n) into @p dst. */
    void
    copyOut(std::size_t off, std::size_t n, std::uint8_t *dst) const
    {
        forEachSpan(off, n, [&](const std::uint8_t *src, std::size_t k) {
            std::memcpy(dst, src, k);
            dst += k;
        });
    }

    /** Drop the first @p n bytes. */
    void
    popFront(std::size_t n)
    {
        MCNSIM_ASSERT(n <= size(), "ByteRing pop past end");
        std::size_t at = base_;
        base_ += n;
        while (at < base_) {
            const Run &r = runs_[runHead_];
            std::size_t rend = r.start + r.len;
            std::size_t k = std::min(base_, rend) - at;
            if (!r.pattern)
                popLiteral(k);
            at += k;
            if (at == rend)
                ++runHead_;
        }
        if (runHead_ == runs_.size()) {
            runs_.clear();
            runHead_ = 0;
        } else if (runHead_ >= 64 && 2 * runHead_ >= runs_.size()) {
            runs_.erase(runs_.begin(),
                        runs_.begin() +
                            static_cast<std::ptrdiff_t>(runHead_));
            runHead_ = 0;
        }
    }

    /** Copy the first @p n bytes out and consume them. */
    std::vector<std::uint8_t>
    take(std::size_t n)
    {
        std::vector<std::uint8_t> out;
        out.reserve(n);
        forEachSpan(0, n, [&](const std::uint8_t *src, std::size_t k) {
            out.insert(out.end(), src, src + k);
        });
        popFront(n);
        return out;
    }

    /** Live runs (tests: merging). */
    std::size_t runCount() const { return runs_.size() - runHead_; }

    /** Bytes allocated for literal bytes (tests: a pattern-only
     *  ring allocates none). */
    std::size_t literalCapacity() const { return cap_; }

  private:
    struct Run
    {
        std::size_t start; ///< absolute stream offset of byte 0
        std::size_t len;
        /** Pattern run: phase of byte 0. Literal run: offset of
         *  byte 0 in the literal stream (the store's bytes). */
        std::size_t from;
        bool pattern;
    };

    std::size_t wrap(std::size_t i) const { return i & (cap_ - 1); }

    /** Index in runs_ of the run holding absolute offset @p at. */
    std::size_t
    findRun(std::size_t at) const
    {
        const Run &front = runs_[runHead_];
        if (at < front.start + front.len)
            return runHead_;
        auto it = std::upper_bound(
            runs_.begin() + static_cast<std::ptrdiff_t>(runHead_) + 1,
            runs_.end(), at,
            [](std::size_t a, const Run &r) { return a < r.start; });
        return static_cast<std::size_t>(it - runs_.begin()) - 1;
    }

    /** Call @p f(src, k) for the contiguous source slices of bytes
     *  [off, off+n), in order. */
    template <class F>
    void
    forEachSpan(std::size_t off, std::size_t n, F &&f) const
    {
        MCNSIM_ASSERT(off + n <= size(), "ByteRing read past end");
        if (n == 0)
            return;
        std::size_t at = base_ + off;
        for (std::size_t i = findRun(at); n; ++i) {
            const Run &r = runs_[i];
            std::size_t in = at - r.start;
            std::size_t k = std::min(n, r.len - in);
            if (r.pattern)
                forEachPatternSpan(r.from + in, k, f);
            else
                literalSpans(r.from + in, k, f);
            at += k;
            n -= k;
        }
    }

    /** Slices of literal-stream bytes [lit, lit+n) in the store. */
    template <class F>
    void
    literalSpans(std::size_t lit, std::size_t n, F &&f) const
    {
        std::size_t r = wrap(litHead_ + (lit - litBase_));
        std::size_t first = std::min(n, cap_ - r);
        f(&buf_[r], first);
        if (n > first)
            f(&buf_[0], n - first);
    }

    void
    popLiteral(std::size_t n)
    {
        litHead_ = wrap(litHead_ + n);
        litBase_ += n;
        litSize_ -= n;
        if (litSize_ == 0)
            litHead_ = 0;
    }

    /** Grow the literal store to a power-of-two capacity >= @p need,
     *  linearising the live bytes into the new allocation. */
    void
    reserve(std::size_t need)
    {
        if (need <= cap_)
            return;
        std::size_t cap = cap_ ? cap_ : 1024;
        while (cap < need)
            cap *= 2;
        // analyze-ok: packet-alloc (socket stream store, not packets)
        auto fresh = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
        std::uint8_t *dst = fresh.get();
        if (litSize_)
            literalSpans(litBase_, litSize_,
                         [&](const std::uint8_t *src, std::size_t k) {
                             std::memcpy(dst, src, k);
                             dst += k;
                         });
        buf_ = std::move(fresh);
        cap_ = cap;
        litHead_ = 0;
    }

    std::vector<Run> runs_; ///< runs_[runHead_..] are live, in order
    std::size_t runHead_ = 0;
    std::size_t base_ = 0; ///< absolute offset of the first live byte
    std::size_t end_ = 0;  ///< absolute offset one past the last

    std::unique_ptr<std::uint8_t[]> buf_; ///< literal store
    std::size_t cap_ = 0;     ///< power of two (or 0 before first use)
    std::size_t litHead_ = 0; ///< store index of the first live byte
    std::size_t litBase_ = 0; ///< literal-stream offset of that byte
    std::size_t litSize_ = 0; ///< live literal byte count
};

} // namespace mcnsim::net

#endif // MCNSIM_NET_BYTE_RING_HH
