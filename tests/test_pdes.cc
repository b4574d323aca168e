/**
 * @file
 * Parallel-simulation (PDES) tests: the sharded engine's results
 * must be a pure function of the scenario, never of the worker
 * count, and its guard rails must fire loudly.
 *
 * The determinism oracle is the same modeled-state digest the
 * determinism suite and --selfcheck use: StatRegistry::dumpJson
 * (no host-time meta) plus final tick and event count. A sharded
 * run at N threads must byte-match the same run at 1 thread --
 * window boundaries and mailbox merge order depend only on queue
 * state, so thread scheduling can never reorder modeled events
 * (DESIGN.md §9).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "sim/barrier.hh"
#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/shard.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::core;

namespace {

/** Modeled end-state digest (see file comment). */
std::string
digestOf(sim::Simulation &s)
{
    std::ostringstream os;
    s.prepareStatsDump();
    s.statRegistry().dumpJson(os);
    os << "tick=" << s.curTick() << " events=" << s.eventsProcessed();
    return os.str();
}

/** Cluster iperf, sharded per node, on @p threads workers. */
std::string
clusterIperfDigest(std::uint64_t seed, unsigned threads)
{
    sim::Simulation s(seed);
    s.enableSharding();
    s.setThreads(threads);
    ClusterSystemParams p;
    p.numNodes = 4;
    ClusterSystem sys(s, p);
    runIperf(s, sys, 0, {1, 2, 3}, 300 * sim::oneUs);
    return digestOf(s);
}

/** Multi-server MCN iperf, sharded per server. */
std::string
multiServerIperfDigest(std::uint64_t seed, unsigned threads)
{
    sim::Simulation s(seed);
    s.enableSharding();
    s.setThreads(threads);
    McnMultiServerParams p;
    p.numServers = 2;
    p.dimmsPerServer = 1;
    McnMultiServer sys(s, p);
    std::vector<std::size_t> clients;
    for (std::size_t i = 1; i < sys.nodeCount(); ++i)
        clients.push_back(i);
    runIperf(s, sys, 0, clients, 200 * sim::oneUs);
    return digestOf(s);
}

/** Cluster iperf on the classic single-queue engine. */
std::string
classicIperfDigest(std::uint64_t seed)
{
    sim::Simulation s(seed);
    ClusterSystemParams p;
    p.numNodes = 4;
    ClusterSystem sys(s, p);
    runIperf(s, sys, 0, {1, 2, 3}, 300 * sim::oneUs);
    return digestOf(s);
}

/** Multi-switch fabric iperf (ECMP + hello liveness), sharded per
 *  node and per switch. 0 threads = classic engine. */
std::string
fabricIperfDigest(std::uint64_t seed, unsigned threads,
                  FabricTopology topo = FabricTopology::LeafSpine)
{
    sim::Simulation s(seed);
    if (threads > 0) {
        s.enableSharding();
        s.setThreads(threads);
    }
    FabricSystemParams p;
    p.topology = topo;
    FabricSystem sys(s, p);
    runIperf(s, sys, 0, {1, 2, 3}, 300 * sim::oneUs);
    return digestOf(s);
}

/** Modeled digest plus flow-telemetry artifact (fixed meta) of a
 *  fabric iperf run; 0 threads = classic engine. */
std::string
fabricFlowRun(std::uint64_t seed, unsigned threads)
{
    auto &tel = sim::FlowTelemetry::instance();
    sim::Simulation s(seed);
    if (threads > 0) {
        s.enableSharding();
        s.setThreads(threads);
    }
    FabricSystemParams p;
    FabricSystem sys(s, p);
    tel.enable();
    runIperf(s, sys, 0, {1, 2, 3}, 300 * sim::oneUs);
    tel.disable();
    std::ostringstream os;
    tel.exportJson(os, {{"scenario", "fabric-iperf"}});
    return digestOf(s) + "\n" + os.str();
}

} // namespace

TEST(Pdes, BurstCoalescingInvisibleToModeledStateClassic)
{
    // The classic engine's same-queue link path (one local event per
    // frame) and the sharded engine's split path (one mailbox post
    // per frame) must agree on every modeled stat, the final tick
    // and the event count.
    std::string classic = classicIperfDigest(42);
    ASSERT_FALSE(classic.empty());
    EXPECT_EQ(clusterIperfDigest(42, 1), classic);
}

TEST(Pdes, BurstCoalescingInvisibleToModeledStateSharded)
{
    // Same claim across worker counts on the sharded side.
    std::string classic = classicIperfDigest(42);
    ASSERT_FALSE(classic.empty());
    EXPECT_EQ(clusterIperfDigest(42, 2), classic);
    EXPECT_EQ(clusterIperfDigest(42, 4), classic);
}

TEST(Pdes, RepeatedConstructionByteIdenticalAcrossThreadCounts)
{
    // The digest must be a pure function of (scenario, seed): a
    // second Simulation built in the same process -- at any worker
    // count -- must reproduce the first byte for byte. This is the
    // regression net for process-global construction-time state
    // (e.g. the NIC IRQ-line counter that moved into
    // os::IrqController::allocateLine).
    std::string first = clusterIperfDigest(42, 1);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(clusterIperfDigest(42, 1), first);
    EXPECT_EQ(clusterIperfDigest(42, 2), first);
    EXPECT_EQ(clusterIperfDigest(42, 4), first);
}

TEST(Pdes, ClusterIperfByteIdenticalAcrossThreadCounts)
{
    std::string one = clusterIperfDigest(42, 1);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, clusterIperfDigest(42, 2));
    EXPECT_EQ(one, clusterIperfDigest(42, 4));
}

TEST(Pdes, MultiServerIperfByteIdenticalAcrossThreadCounts)
{
    std::string one = multiServerIperfDigest(7, 1);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, multiServerIperfDigest(7, 2));
    EXPECT_EQ(one, multiServerIperfDigest(7, 4));
}

TEST(Pdes, FabricIperfByteIdenticalAcrossThreadCounts)
{
    // The multi-switch fabric (per-switch shards, hello control
    // plane, ECMP) is subject to the same oracle: worker count must
    // be invisible.
    std::string one = fabricIperfDigest(7, 1);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, fabricIperfDigest(7, 2));
    EXPECT_EQ(one, fabricIperfDigest(7, 4));

    std::string ft = fabricIperfDigest(7, 1, FabricTopology::FatTree);
    ASSERT_FALSE(ft.empty());
    EXPECT_EQ(ft, fabricIperfDigest(7, 2, FabricTopology::FatTree));
    EXPECT_EQ(ft, fabricIperfDigest(7, 4, FabricTopology::FatTree));
}

TEST(Pdes, FabricFlowTelemetryAgreesClassicVsSharded)
{
    // The classic engine and a 4-worker sharded run must agree on
    // every modeled stat, the final tick and the event count, and
    // emit byte-identical flow telemetry (per-flow bytes, RTTs,
    // per-hop latency, path-length histogram).
    std::string classic = fabricFlowRun(7, 0);
    ASSERT_FALSE(classic.empty());
    EXPECT_EQ(classic, fabricFlowRun(7, 4));
}

TEST(Pdes, FabricLookaheadDerivedFromAccessLinkLatency)
{
    sim::Simulation s;
    s.enableSharding();
    FabricSystemParams p; // 2 racks x 2 nodes + 2 leaves + 2 spines
    FabricSystem sys(s, p);
    // Default shard + one per switch (2 leaves, 2 spines) and one
    // per node (4).
    EXPECT_EQ(s.shardCount(), 9u);
    // The min edge is the lookahead; access and trunk links share
    // the default latency here.
    EXPECT_EQ(s.shardLookahead(),
              std::min(p.net.linkLatency, p.trunk.linkLatency));
}

TEST(Pdes, LookaheadDerivedFromLinkLatency)
{
    sim::Simulation s;
    s.enableSharding();
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);
    EXPECT_EQ(s.shardCount(), 3u); // switch shard + one per node
    EXPECT_EQ(s.shardLookahead(), p.net.linkLatency);
}

TEST(Pdes, UnshardedSimulationDegradesToNoOps)
{
    sim::Simulation s;
    EXPECT_FALSE(s.shardingEnabled());
    EXPECT_EQ(s.newShard(), 0u);
    EXPECT_EQ(s.shardCount(), 1u);
    EXPECT_EQ(s.shardLookahead(), sim::maxTick);
    // postCrossShard degrades to a plain schedule.
    int fired = 0;
    s.postCrossShard(0, 0, 10 * sim::oneNs,
                     sim::EventPriority::Default, "test.post",
                     [&] { fired++; });
    s.run(1 * sim::oneUs);
    EXPECT_EQ(fired, 1);
}

TEST(Pdes, CrossShardPostAtLookaheadExecutesOnTime)
{
    sim::Simulation s;
    s.enableSharding();
    std::size_t other = s.newShard();
    ASSERT_EQ(other, 1u);
    s.addShardEdge(0, other, 1 * sim::oneUs);

    sim::Tick fired = 0;
    s.shardQueue(0).schedule(
        [&] {
            sim::Tick when =
                s.shardQueue(0).curTick() + s.shardLookahead();
            s.postCrossShard(0, other, when,
                             sim::EventPriority::Default,
                             "test.cross", [&] {
                                 fired = s.shardQueue(other)
                                             .curTick();
                             });
        },
        100 * sim::oneNs, "test.src");
    s.run(10 * sim::oneUs);
    EXPECT_EQ(fired, 100 * sim::oneNs + 1 * sim::oneUs);
}

TEST(Pdes, CrossShardPostBelowHorizonPanics)
{
    sim::Simulation s;
    s.enableSharding();
    std::size_t other = s.newShard();
    s.addShardEdge(0, other, 1 * sim::oneUs);

    // An event that tries to deliver cross-shard *now*: below the
    // lookahead horizon, which the engine must refuse loudly (the
    // destination shard may already have run past this tick).
    s.shardQueue(0).schedule(
        [&] {
            s.postCrossShard(0, other, s.shardQueue(0).curTick(),
                             sim::EventPriority::Default,
                             "test.early", [] {});
        },
        100 * sim::oneNs, "test.src");
    try {
        s.run(10 * sim::oneUs);
        FAIL() << "expected a lookahead-violation panic";
    } catch (const sim::PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("lookahead horizon"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Pdes, PostOnUnregisteredEdgePanics)
{
    // Shards 0 and 1 share an edge; shards 0 and 2 do not. A post
    // at the lookahead horizon is on time over the edge, and is
    // refused loudly without one: no edge latency bounds how soon
    // shard 0 may affect shard 2.
    auto postAtHorizon = [](std::size_t dst) {
        sim::Simulation s;
        s.enableSharding();
        std::size_t one = s.newShard();
        s.newShard();
        s.addShardEdge(0, one, 1 * sim::oneUs);
        sim::Tick fired = 0;
        s.shardQueue(0).schedule(
            [&] {
                sim::Tick when =
                    s.shardQueue(0).curTick() + s.shardLookahead();
                s.postCrossShard(0, dst, when,
                                 sim::EventPriority::Default,
                                 "test.cross", [&] {
                                     fired = s.shardQueue(dst)
                                                 .curTick();
                                 });
            },
            100 * sim::oneNs, "test.src");
        s.run(10 * sim::oneUs);
        return fired;
    };
    EXPECT_EQ(postAtHorizon(1), 100 * sim::oneNs + 1 * sim::oneUs);
    try {
        postAtHorizon(2);
        FAIL() << "expected an unregistered-edge panic";
    } catch (const sim::PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "cross-shard post on an unregistered edge: "
                      "event 'test.cross' from shard 0 to shard 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Pdes, BarrierOversubscribedFinishes)
{
    // More threads than cores: a waiter must hand its core to the
    // threads it waits for (yield, then sleep) rather than spin
    // through their time slices. Every thread must see every phase
    // complete: all n arrivals are in before anyone is released.
    const unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned n = std::min(2 * cores + 1, 16u);
    constexpr int phases = 10000;
    sim::SpinBarrier bar(n);
    std::vector<std::atomic<unsigned>> arrived(phases);
    std::atomic<unsigned> early{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([&] {
            for (int p = 0; p < phases; ++p) {
                arrived[p].fetch_add(1, std::memory_order_relaxed);
                bar.arriveAndWait();
                if (arrived[p].load(std::memory_order_relaxed) != n)
                    early.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const auto wall = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(early.load(), 0u);
    for (int p = 0; p < phases; ++p)
        ASSERT_EQ(arrived[p].load(), n) << "phase " << p;
    EXPECT_LT(wall, std::chrono::seconds(60))
        << n << " threads, " << phases << " phases";
}

TEST(Pdes, ShardSetRunsWindowsAndAgreesOnFinalTick)
{
    sim::Simulation s;
    s.enableSharding();
    s.setThreads(2);
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);
    runPingSweep(s, sys, 0, 1, {56}, 2);
    ASSERT_NE(s.shardSet(), nullptr);
    EXPECT_GT(s.shardSet()->windowsRun(), 0u);
    // Every shard's clock agrees between run slices.
    for (std::size_t i = 0; i < s.shardCount(); ++i)
        EXPECT_EQ(s.shardQueue(i).curTick(), s.curTick());
}

#ifdef MCNSIM_CHECKED

TEST(PdesChecked, CrossShardDirectScheduleTrips)
{
    // The cross-shard lifetime rule (DESIGN.md §7, §9): while a
    // queue is dispatching, scheduling onto a *different* queue is
    // a shard-safety bug -- it must go through the mailbox API.
    sim::Simulation s;
    s.enableSharding();
    std::size_t other = s.newShard();
    s.addShardEdge(0, other, 1 * sim::oneUs);

    s.shardQueue(0).schedule(
        [&] {
            s.shardQueue(1).schedule([] {},
                                     s.curTick() + 2 * sim::oneUs,
                                     "test.direct");
        },
        100 * sim::oneNs, "test.src");
    try {
        s.run(10 * sim::oneUs);
        FAIL() << "expected a cross-shard schedule panic";
    } catch (const sim::PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("cross-shard"),
                  std::string::npos)
            << e.what();
    }
}

#endif // MCNSIM_CHECKED
