/**
 * @file
 * Unit tests for packet buffers, the TCP stream ring, checksums,
 * Ethernet/IPv4/ICMP/UDP wire formats, and interface-table routing
 * semantics.
 */

#include <gtest/gtest.h>

#include <deque>

#include "net/byte_ring.hh"
#include "net/checksum.hh"
#include "net/ethernet.hh"
#include "net/icmp.hh"
#include "net/ipv4.hh"
#include "net/packet.hh"
#include "net/tcp.hh"
#include "net/udp.hh"
#include "sim/random.hh"

using namespace mcnsim::net;
using mcnsim::sim::Rng;

TEST(PacketBuf, PushPullRoundTrip)
{
    auto pkt = Packet::makePattern(100, 7);
    EXPECT_EQ(pkt->size(), 100u);
    std::uint8_t *h = pkt->push(14);
    std::memset(h, 0xab, 14);
    EXPECT_EQ(pkt->size(), 114u);
    pkt->pull(14);
    EXPECT_EQ(pkt->size(), 100u);
    EXPECT_EQ(pkt->data()[0], 7);
}

TEST(PacketBuf, MakePatternBytesFollowSeed)
{
    // Byte i is (seed + i) & 0xff across the 256-byte fill chunks.
    for (std::size_t n : {0u, 1u, 255u, 256u, 257u, 1500u}) {
        for (std::size_t seed : {0u, 200u}) {
            auto pkt = Packet::makePattern(
                n, static_cast<std::uint8_t>(seed));
            ASSERT_EQ(pkt->size(), n);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(pkt->cdata()[i],
                          static_cast<std::uint8_t>((seed + i) & 0xff))
                    << "n=" << n << " seed=" << seed << " i=" << i;
            }
        }
    }
}

TEST(PacketBuf, PushBeyondHeadroomGrows)
{
    auto pkt = Packet::makePattern(10, 0, /*headroom=*/4);
    pkt->push(100); // more than the 4-byte headroom
    EXPECT_EQ(pkt->size(), 110u);
}

TEST(PacketBuf, CloneIsDeep)
{
    auto pkt = Packet::makePattern(50, 1);
    auto copy = pkt->clone();
    copy->data()[0] = 0xff;
    EXPECT_NE(pkt->data()[0], copy->data()[0]);
    EXPECT_EQ(pkt->size(), copy->size());
}

TEST(PacketBuf, TrimShortens)
{
    auto pkt = Packet::makePattern(100);
    pkt->trim(40);
    EXPECT_EQ(pkt->size(), 40u);
}

TEST(PacketBuf, CloneIsCopyOnWrite)
{
    auto pkt = Packet::makePattern(1500, 3);
    auto c = pkt->clone();
    EXPECT_TRUE(pkt->sharesBufferWith(*c));
    // Read-only access keeps the buffer shared ...
    EXPECT_EQ(c->cdata()[0], 3);
    EXPECT_TRUE(pkt->sharesBufferWith(*c));
    // ... and the first write detaches the writer only.
    c->data()[0] = 0xee;
    EXPECT_FALSE(pkt->sharesBufferWith(*c));
    EXPECT_EQ(pkt->cdata()[0], 3);
    EXPECT_EQ(c->cdata()[0], 0xee);
}

TEST(PacketBuf, PullAndTrimKeepSharing)
{
    // View adjustments are not writes: a cloned packet can shed
    // headers (pull) or padding (trim) without copying bytes.
    auto pkt = Packet::makePattern(200, 9);
    auto c = pkt->clone();
    c->pull(14);
    c->trim(100);
    EXPECT_TRUE(pkt->sharesBufferWith(*c));
    EXPECT_EQ(c->size(), 100u);
    EXPECT_EQ(pkt->size(), 200u);
}

TEST(PacketBuf, PushOnSharedCloneLeavesSiblingIntact)
{
    auto pkt = Packet::makePattern(64, 5);
    auto c = pkt->clone();
    std::uint8_t *h = c->push(14);
    std::memset(h, 0xab, 14);
    EXPECT_FALSE(pkt->sharesBufferWith(*c));
    EXPECT_EQ(pkt->size(), 64u);
    EXPECT_EQ(pkt->cdata()[0], 5);
    EXPECT_EQ(c->size(), 78u);
    EXPECT_EQ(c->cdata()[14], 5);
}

TEST(PacketBuf, DetachCopiesLiveViewNotOriginalCapacity)
{
    // Regression: detach() used to size the private copy from the
    // *original* buffer, so a cloned jumbo frame that had pulled its
    // headers still paid a jumbo-sized copy on first write. The copy
    // must cover only [head, tail) plus standard slack.
    auto pkt = Packet::makePattern(8192, 3);
    auto c = pkt->clone();
    c->pull(8000); // live view is the 192-byte tail
    ASSERT_TRUE(pkt->sharesBufferWith(*c));
    c->data()[0] = 0xee; // CoW detach
    EXPECT_FALSE(pkt->sharesBufferWith(*c));
    // Initialised extent = headroom + live bytes, nowhere near the
    // 8 KB original (the class capacity may round up; len may not).
    EXPECT_LE(c->bufferLen(),
              Packet::defaultHeadroom + 192 + 64);
    EXPECT_GE(pkt->bufferLen(), 8192u);
    // Bytes survived the copy; the sibling is untouched.
    EXPECT_EQ(c->cdata()[0], 0xee);
    EXPECT_EQ(c->cdata()[1],
              static_cast<std::uint8_t>((8001 + 3) & 0xff));
    EXPECT_EQ(pkt->cdata()[8000],
              static_cast<std::uint8_t>((8000 + 3) & 0xff));
}

TEST(PacketBuf, PoolRecyclesBlocksAcrossPackets)
{
    auto classTotals = [] {
        std::uint64_t acquires = 0, carves = 0, recycles = 0;
        for (const auto &c : BufferPool::stats()) {
            acquires += c.acquires;
            carves += c.carves;
            recycles += c.recycles;
        }
        return std::array<std::uint64_t, 3>{acquires, carves,
                                            recycles};
    };

    auto before = classTotals();
    { auto p = Packet::makePattern(1500); }
    auto mid = classTotals();
    // The packet took at least one block (payload; the Packet object
    // itself rides in a class-0 block) and returned every one.
    EXPECT_GT(mid[0], before[0]);
    EXPECT_EQ(mid[2] - before[2], mid[0] - before[0]);

    // An identical allocation right after runs entirely from the
    // free lists: same classes were just recycled, so zero carves.
    { auto p = Packet::makePattern(1500); }
    auto fin = classTotals();
    EXPECT_GT(fin[0], mid[0]);
    EXPECT_EQ(fin[1], mid[1]) << "warm-cache alloc carved a block";
}

TEST(PacketBuf, PoolClassSelection)
{
    // Each traffic class lands in the intended size class: the
    // chosen capacity is the smallest class >= headroom + payload.
    auto cap = [](std::size_t payload) {
        return Packet::makePattern(payload)->bufferCapacity();
    };
    EXPECT_EQ(cap(64), 256u);
    EXPECT_EQ(cap(1500), 2048u);
    EXPECT_EQ(cap(9000), 10240u);
    // Beyond the largest class: exact heap block.
    EXPECT_EQ(cap(100000), 100000u + Packet::defaultHeadroom);
}

namespace {

/** Reference model for ByteRing: the bytes in a deque, plus the run
 *  boundaries the ring should keep (absolute end offset, kind, and
 *  for pattern runs the phase of the byte after the run). */
struct RingModel
{
    struct Run
    {
        std::size_t end;
        bool pattern;
        std::size_t nextPhase;
    };

    std::deque<std::uint8_t> bytes;
    std::deque<Run> runs;
    std::size_t base = 0; ///< absolute offset of bytes.front()

    std::size_t end() const { return base + bytes.size(); }

    /** Returns true when the append should extend the last run. */
    bool
    append(const std::vector<std::uint8_t> &v)
    {
        if (v.empty())
            return false;
        bytes.insert(bytes.end(), v.begin(), v.end());
        bool merge = !runs.empty() && !runs.back().pattern;
        if (merge)
            runs.back().end = end();
        else
            runs.push_back({end(), false, 0});
        return merge;
    }

    bool
    appendPattern(std::size_t phase, std::size_t n)
    {
        if (n == 0)
            return false;
        for (std::size_t i = 0; i < n; ++i)
            bytes.push_back(static_cast<std::uint8_t>((phase + i) & 0xff));
        bool merge = !runs.empty() && runs.back().pattern &&
                     runs.back().nextPhase == (phase & 0xff);
        if (merge)
            runs.back() = {end(), true, (phase + n) & 0xff};
        else
            runs.push_back({end(), true, (phase + n) & 0xff});
        return merge;
    }

    void
    pop(std::size_t n)
    {
        bytes.erase(bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(n));
        base += n;
        while (!runs.empty() && runs.front().end <= base)
            runs.pop_front();
    }

    /** True when bytes [off, off+n) span more than one run. */
    bool
    crossesRun(std::size_t off, std::size_t n) const
    {
        for (const Run &r : runs)
            if (r.end > base + off && r.end < base + off + n)
                return true;
        return false;
    }
};

} // namespace

TEST(ByteRingTest, PatternOnlyRingAllocatesNoStore)
{
    ByteRing ring;
    ring.appendPattern(0, 128 * 1024);
    ring.appendPattern(128 * 1024, 128 * 1024);
    EXPECT_EQ(ring.size(), 256u * 1024);
    EXPECT_EQ(ring.runCount(), 1u); // consecutive chunks merged
    EXPECT_EQ(ring.literalCapacity(), 0u);
    std::vector<std::uint8_t> seg(1400);
    ring.copyOut(200'000, seg.size(), seg.data());
    for (std::size_t i = 0; i < seg.size(); ++i)
        ASSERT_EQ(seg[i], static_cast<std::uint8_t>((200'000 + i) & 0xff));
}

TEST(ByteRingTest, LiteralStoreWrapsAndGrowsAcrossPatternRuns)
{
    // 1000 literal bytes fill most of the first 1 KiB store; popping
    // 900 and appending 500 more wraps the store's tail, and a
    // further 2000 grows it while the live bytes straddle the seam.
    RingModel m;
    ByteRing ring;
    auto lit = [](std::size_t n, std::uint8_t salt) {
        std::vector<std::uint8_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint8_t>(i * 7 + salt);
        return v;
    };
    auto add = [&](const std::vector<std::uint8_t> &v) {
        ring.append(v.data(), v.size());
        m.append(v);
    };
    add(lit(1000, 1));
    EXPECT_EQ(ring.literalCapacity(), 1024u);
    ring.popFront(900);
    m.pop(900);
    ring.appendPattern(77, 300);
    m.appendPattern(77, 300);
    add(lit(500, 2));
    EXPECT_EQ(ring.literalCapacity(), 1024u); // wrapped, not grown
    add(lit(2000, 3));
    EXPECT_EQ(ring.literalCapacity(), 4096u);
    EXPECT_EQ(ring.runCount(), m.runs.size());
    std::vector<std::uint8_t> all(ring.size());
    ring.copyOut(0, all.size(), all.data());
    EXPECT_TRUE(std::equal(all.begin(), all.end(), m.bytes.begin(),
                           m.bytes.end()));
}

TEST(ByteRingTest, MatchesDequeReferenceOverRandomOps)
{
    // Seeded differential test against a std::deque<uint8_t>: mixed
    // literal and pattern appends (some continuing the last pattern
    // run, so they merge), random-offset reads, pops and takes.
    Rng rng(1414);
    ByteRing ring;
    RingModel m;
    std::size_t merged = 0, unmerged = 0, crossingReads = 0,
                crossingPops = 0, grows = 0;
    std::size_t lastCap = 0, nextPhase = 0;
    auto len = [&]() -> std::size_t {
        // Mostly small; now and then large enough to grow the store.
        return rng.chance(0.05) ? rng.uniformInt(0, 20'000)
                                : rng.uniformInt(0, 1'500);
    };
    for (int op = 0; op < 20'000; ++op) {
        // Drain harder while the ring is large, so it keeps wrapping.
        int kind = static_cast<int>(rng.uniformInt(0, 9));
        if (m.bytes.size() > 60'000 && kind < 5)
            kind += 5;
        if (kind <= 1) {
            std::vector<std::uint8_t> v(len());
            for (auto &b : v)
                b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
            std::size_t before = ring.runCount();
            ring.append(v.data(), v.size());
            bool merge = m.append(v);
            if (!v.empty()) {
                EXPECT_EQ(ring.runCount(), before + (merge ? 0 : 1));
            }
        } else if (kind <= 4) {
            std::size_t n = len();
            std::size_t phase = rng.chance(0.5)
                                    ? nextPhase + 256 * rng.uniformInt(0, 3)
                                    : rng.uniformInt(0, 1 << 20);
            std::size_t before = ring.runCount();
            ring.appendPattern(phase, n);
            bool merge = m.appendPattern(phase, n);
            if (n) {
                EXPECT_EQ(ring.runCount(), before + (merge ? 0 : 1));
                (merge ? merged : unmerged)++;
                nextPhase = (phase + n) & 0xff;
            }
        } else if (kind <= 6) {
            std::size_t sz = m.bytes.size();
            std::size_t off = rng.uniformInt(0, sz);
            std::size_t n = rng.uniformInt(0, sz - off);
            std::vector<std::uint8_t> got(n);
            ring.copyOut(off, n, got.data());
            ASSERT_TRUE(std::equal(
                got.begin(), got.end(),
                m.bytes.begin() + static_cast<std::ptrdiff_t>(off)))
                << "op " << op << " copyOut(" << off << ", " << n << ")";
            crossingReads += m.crossesRun(off, n);
        } else if (kind <= 8) {
            std::size_t n = rng.uniformInt(0, m.bytes.size());
            crossingPops += m.crossesRun(0, n);
            ring.popFront(n);
            m.pop(n);
        } else {
            std::size_t n = rng.uniformInt(0, m.bytes.size());
            auto got = ring.take(n);
            ASSERT_EQ(got.size(), n);
            ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                   m.bytes.begin()))
                << "op " << op << " take(" << n << ")";
            m.pop(n);
        }
        ASSERT_EQ(ring.size(), m.bytes.size()) << "op " << op;
        ASSERT_EQ(ring.runCount(), m.runs.size()) << "op " << op;
        if (ring.literalCapacity() != lastCap) {
            grows++;
            lastCap = ring.literalCapacity();
        }
    }
    // The run exercised what it is meant to.
    EXPECT_GT(merged, 100u);
    EXPECT_GT(unmerged, 100u);
    EXPECT_GT(crossingReads, 100u);
    EXPECT_GT(crossingPops, 100u);
    EXPECT_GE(grows, 3u);
}

TEST(LatencyTraceTest, SpansComputed)
{
    LatencyTrace t;
    t.stamp(Stage::StackTx, 100);
    t.stamp(Stage::DriverTx, 250);
    t.stamp(Stage::Delivered, 900);
    EXPECT_EQ(t.span(Stage::StackTx, Stage::DriverTx), 150u);
    EXPECT_EQ(t.span(Stage::StackTx, Stage::Delivered), 800u);
    EXPECT_EQ(t.span(Stage::StackTx, Stage::Phy), 0u); // missing
    EXPECT_TRUE(t.reached(Stage::DriverTx));
    EXPECT_FALSE(t.reached(Stage::DmaRx));
}

TEST(LatencyTraceTest, TickZeroStampIsReached)
{
    // Tick 0 is a legal simulation time, not the "never reached"
    // sentinel (that is maxTick).
    LatencyTrace t;
    EXPECT_FALSE(t.reached(Stage::StackTx));
    t.stamp(Stage::StackTx, 0);
    t.stamp(Stage::Delivered, 50);
    EXPECT_TRUE(t.reached(Stage::StackTx));
    EXPECT_EQ(t.span(Stage::StackTx, Stage::Delivered), 50u);
}

TEST(Checksum, KnownVector)
{
    // RFC 1071 example-style check: verifying a checksummed buffer
    // yields zero.
    std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x73,
                                      0x00, 0x00, 0x40, 0x00,
                                      0x40, 0x11, 0x00, 0x00,
                                      0xc0, 0xa8, 0x00, 0x01,
                                      0xc0, 0xa8, 0x00, 0xc7};
    std::uint16_t c = checksum(data.data(), data.size());
    data[10] = static_cast<std::uint8_t>(c >> 8);
    data[11] = static_cast<std::uint8_t>(c & 0xff);
    EXPECT_EQ(checksum(data.data(), data.size()), 0);
}

TEST(Checksum, DetectsCorruption)
{
    Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> data(64);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        data[62] = data[63] = 0; // checksum field zeroed first
        std::uint16_t c = checksum(data.data(), data.size());
        data[62] = static_cast<std::uint8_t>(c >> 8);
        data[63] = static_cast<std::uint8_t>(c & 0xff);
        EXPECT_EQ(checksum(data.data(), data.size()), 0);
        // Flip one bit: checksum must not verify.
        std::size_t i = rng.uniformInt(0, 61);
        data[i] = static_cast<std::uint8_t>(
            data[i] ^ (1u << rng.uniformInt(0, 7)));
        EXPECT_NE(checksum(data.data(), data.size()), 0);
    }
}

TEST(Checksum, OddLengthHandled)
{
    std::vector<std::uint8_t> data = {1, 2, 3};
    EXPECT_NE(checksum(data.data(), data.size()), 0);
}

namespace {

/** Byte-pair RFC 1071 reference the optimized path must match. */
std::uint16_t
naiveChecksum(const std::uint8_t *p, std::size_t n,
              std::uint32_t seed)
{
    std::uint64_t sum = seed;
    for (std::size_t i = 0; i + 1 < n; i += 2)
        sum += (static_cast<std::uint32_t>(p[i]) << 8) | p[i + 1];
    if (n & 1)
        sum += static_cast<std::uint32_t>(p[n - 1]) << 8;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum & 0xffff);
}

} // namespace

TEST(Checksum, MatchesNaiveReferenceAcrossLengthsAndOffsets)
{
    // The wide (64-bit, unrolled) checksum must agree with the naive
    // reference for every length class the unroll produces (0, odd
    // tails, each remainder bucket, jumbo) at aligned and unaligned
    // starting offsets, with and without a pseudo-header seed.
    Rng rng(2026);
    std::vector<std::uint8_t> buf(65536 + 8);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

    std::vector<std::size_t> lens = {0,  1,  2,  3,  4,    7,
                                     8,  9,  15, 16, 31,   32,
                                     33, 63, 64, 65, 1499, 1500,
                                     9000, 65536};
    for (int i = 0; i < 48; ++i)
        lens.push_back(rng.uniformInt(0, 65536));

    for (std::size_t len : lens) {
        std::size_t off = rng.uniformInt(0, 7);
        auto seed =
            static_cast<std::uint32_t>(rng.uniformInt(0, 0x1ffff));
        const std::uint8_t *p = buf.data() + off;
        EXPECT_EQ(checksumFold(checksumPartial(p, len, seed)),
                  naiveChecksum(p, len, seed))
            << "len=" << len << " off=" << off << " seed=" << seed;
    }
}

TEST(Mac, FormatAndBroadcast)
{
    auto m = MacAddr::fromId(0x123456);
    EXPECT_EQ(m.str(), "02:4d:43:12:34:56");
    EXPECT_FALSE(m.isBroadcast());
    EXPECT_TRUE(MacAddr::broadcast().isBroadcast());
    EXPECT_EQ(MacAddr::fromId(7), MacAddr::fromId(7));
}

TEST(Ethernet, HeaderRoundTrip)
{
    auto pkt = Packet::makePattern(60);
    EthernetHeader h;
    h.dst = MacAddr::fromId(1);
    h.src = MacAddr::fromId(2);
    h.type = ethTypeIpv4;
    h.push(*pkt);
    EXPECT_EQ(pkt->size(), 74u);

    auto parsed = EthernetHeader::pull(*pkt);
    EXPECT_EQ(parsed.dst, h.dst);
    EXPECT_EQ(parsed.src, h.src);
    EXPECT_EQ(parsed.type, ethTypeIpv4);
    EXPECT_EQ(pkt->size(), 60u);
}

TEST(Ipv4, AddrFormatting)
{
    Ipv4Addr a(10, 0, 0, 2);
    EXPECT_EQ(a.str(), "10.0.0.2");
    EXPECT_TRUE(Ipv4Addr(127, 0, 0, 1).isLoopback());
    EXPECT_TRUE(Ipv4Addr(127, 255, 1, 2).isLoopback());
    EXPECT_FALSE(a.isLoopback());
}

TEST(Ipv4, HeaderRoundTripWithChecksum)
{
    auto pkt = Packet::makePattern(100);
    Ipv4Header h;
    h.src = Ipv4Addr(10, 0, 0, 1);
    h.dst = Ipv4Addr(10, 0, 0, 2);
    h.protocol = protoTcp;
    h.totalLength = 120;
    h.id = 42;
    h.push(*pkt, true);

    auto parsed = Ipv4Header::pull(*pkt, true);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->src, h.src);
    EXPECT_EQ(parsed->dst, h.dst);
    EXPECT_EQ(parsed->protocol, protoTcp);
    EXPECT_EQ(parsed->totalLength, 120);
    EXPECT_EQ(parsed->id, 42);
}

TEST(Ipv4, CorruptHeaderRejectedUnlessBypassed)
{
    auto pkt = Packet::makePattern(10);
    Ipv4Header h;
    h.src = Ipv4Addr(1, 2, 3, 4);
    h.dst = Ipv4Addr(5, 6, 7, 8);
    h.totalLength = 30;
    h.push(*pkt, true);
    pkt->data()[12] ^= 0xff; // corrupt src address

    auto strict = Packet::make(pkt->bytes());
    EXPECT_FALSE(Ipv4Header::pull(*strict, true));

    // mcn2 semantics: bypassing the check accepts the header.
    auto bypass = Packet::make(pkt->bytes());
    EXPECT_TRUE(Ipv4Header::pull(*bypass, false));
}

TEST(Ipv4, ZeroChecksumHeaderAcceptedOnlyWhenBypassed)
{
    // mcn2 senders do not fill the checksum; a bypassing receiver
    // must accept, a strict one must reject.
    auto pkt = Packet::makePattern(10);
    Ipv4Header h;
    h.src = Ipv4Addr(1, 1, 1, 1);
    h.dst = Ipv4Addr(2, 2, 2, 2);
    h.totalLength = 30;
    h.push(*pkt, false);

    auto strict = Packet::make(pkt->bytes());
    EXPECT_FALSE(Ipv4Header::pull(*strict, true));
    auto bypass = Packet::make(pkt->bytes());
    EXPECT_TRUE(Ipv4Header::pull(*bypass, false));
}

TEST(InterfaceTableTest, PaperRoutingSemantics)
{
    // Host: own address + /32 point-to-point peer routes.
    InterfaceTable host;
    Ipv4Addr host_ip(10, 0, 0, 1);
    Ipv4Addr mcn0(10, 0, 0, 2), mcn1(10, 0, 0, 3);
    host.addOwn(host_ip);
    host.add(0, mcn0, SubnetMask::exact());
    host.add(1, mcn1, SubnetMask::exact());

    EXPECT_EQ(host.route(mcn0), 0);
    EXPECT_EQ(host.route(mcn1), 1);
    // Own address and loopback stay local.
    EXPECT_EQ(host.route(host_ip), InterfaceTable::loopbackIfindex);
    EXPECT_EQ(host.route(Ipv4Addr(127, 0, 0, 1)),
              InterfaceTable::loopbackIfindex);
    // Unknown destination: unroutable on the host.
    EXPECT_FALSE(host.route(Ipv4Addr(8, 8, 8, 8)));

    // MCN node: mask 0.0.0.0 forwards everything to the host...
    InterfaceTable mcn;
    mcn.addOwn(mcn0);
    mcn.add(0, mcn0, SubnetMask::any());
    EXPECT_EQ(mcn.route(host_ip), 0);
    EXPECT_EQ(mcn.route(mcn1), 0);
    EXPECT_EQ(mcn.route(Ipv4Addr(8, 8, 8, 8)), 0);
    // ...except loopback and its own address (Sec. III-B).
    EXPECT_EQ(mcn.route(Ipv4Addr(127, 0, 0, 1)),
              InterfaceTable::loopbackIfindex);
    EXPECT_EQ(mcn.route(mcn0), InterfaceTable::loopbackIfindex);
}

TEST(TcpWire, HeaderRoundTrip)
{
    Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
    auto pkt = Packet::makePattern(64);
    TcpHeader h;
    h.srcPort = 1234;
    h.dstPort = 5001;
    h.seq = 0xdeadbeef;
    h.ack = 0x12345678;
    h.flags = tcpAck | tcpPsh;
    h.window = 1000;
    h.push(*pkt, src, dst, true);

    auto parsed = TcpHeader::pull(*pkt, src, dst, true);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->srcPort, 1234);
    EXPECT_EQ(parsed->dstPort, 5001);
    EXPECT_EQ(parsed->seq, 0xdeadbeefu);
    EXPECT_EQ(parsed->ack, 0x12345678u);
    EXPECT_EQ(parsed->flags, tcpAck | tcpPsh);
    EXPECT_EQ(parsed->window, 1000);
    EXPECT_EQ(pkt->size(), 64u);
}

TEST(TcpWire, PayloadCorruptionCaughtByChecksum)
{
    Ipv4Addr src(1, 1, 1, 1), dst(2, 2, 2, 2);
    auto pkt = Packet::makePattern(32);
    TcpHeader h;
    h.srcPort = 1;
    h.dstPort = 2;
    h.push(*pkt, src, dst, true);
    pkt->data()[25] ^= 0x10; // corrupt payload

    EXPECT_FALSE(TcpHeader::pull(*pkt, src, dst, true));
}

TEST(TcpWire, WrongPseudoHeaderCaught)
{
    Ipv4Addr src(1, 1, 1, 1), dst(2, 2, 2, 2);
    auto pkt = Packet::makePattern(32);
    TcpHeader h;
    h.push(*pkt, src, dst, true);
    // Same bytes, different claimed addresses: must fail.
    EXPECT_FALSE(
        TcpHeader::pull(*pkt, Ipv4Addr(9, 9, 9, 9), dst, true));
}

TEST(TcpWire, ZeroChecksumMeansOffloadedAndIsAccepted)
{
    // A zero TCP checksum is the simulator's CHECKSUM_UNNECESSARY:
    // the sending device claimed a trusted medium (memory channel,
    // loopback) and skipped the fill. The receiver must accept it
    // even when asked to verify -- only *wrong* checksums drop.
    Ipv4Addr src(1, 1, 1, 1), dst(2, 2, 2, 2);
    auto pkt = Packet::makePattern(48);
    TcpHeader h;
    h.srcPort = 7;
    h.dstPort = 9;
    h.seq = 1234;
    h.flags = tcpAck;
    h.push(*pkt, src, dst, /*compute_checksum=*/false);

    auto parsed = TcpHeader::pull(*pkt, src, dst, true);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->checksum, 0);
    EXPECT_EQ(parsed->srcPort, 7);
    EXPECT_EQ(parsed->dstPort, 9);
    EXPECT_EQ(parsed->seq, 1234u);
    EXPECT_EQ(parsed->flags, tcpAck);
}

TEST(TcpWire, WindowFieldScalesAndSaturates)
{
    // The 16-bit window field carries units of windowScale bytes.
    // Both edges must survive the wire: a zero window (flow-control
    // stall, rescued by persist probes) and the saturated maximum,
    // which has to cover the socket's whole receive buffer or the
    // advertised window could never open fully.
    static_assert(std::uint64_t{0xffff} * TcpHeader::windowScale >=
                      TcpSocket::rcvBufCap,
                  "max advertisable window smaller than rcv buffer");

    Ipv4Addr src(1, 1, 1, 1), dst(2, 2, 2, 2);
    for (std::uint16_t w : {std::uint16_t{0}, std::uint16_t{0xffff}}) {
        auto pkt = Packet::makePattern(16);
        TcpHeader h;
        h.srcPort = 5;
        h.dstPort = 6;
        h.window = w;
        h.push(*pkt, src, dst, true);
        auto parsed = TcpHeader::pull(*pkt, src, dst, true);
        ASSERT_TRUE(parsed);
        EXPECT_EQ(parsed->window, w);
    }
}

TEST(UdpWire, HeaderRoundTrip)
{
    Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
    auto pkt = Packet::makePattern(200);
    UdpHeader h;
    h.srcPort = 7;
    h.dstPort = 9;
    h.push(*pkt, src, dst, true);

    auto parsed = UdpHeader::pull(*pkt, src, dst, true);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->srcPort, 7);
    EXPECT_EQ(parsed->dstPort, 9);
    EXPECT_EQ(parsed->length, 208);
    EXPECT_EQ(pkt->size(), 200u);
}

TEST(IcmpWire, EchoRoundTrip)
{
    auto pkt = Packet::makePattern(56);
    IcmpHeader h;
    h.type = icmpEchoRequest;
    h.id = 99;
    h.seqNo = 3;
    h.push(*pkt, true);

    auto parsed = IcmpHeader::pull(*pkt, true);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->type, icmpEchoRequest);
    EXPECT_EQ(parsed->id, 99);
    EXPECT_EQ(parsed->seqNo, 3);
}
