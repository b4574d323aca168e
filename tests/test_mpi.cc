/**
 * @file
 * Tests for the mini-MPI runtime and the workload models, on the
 * scale-up node (loopback), the 10 GbE cluster, and the MCN server
 * -- the same binary-level transparency the paper demonstrates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "dist/mpi.hh"
#include "dist/npb.hh"
#include "dist/workload.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::core;
using namespace mcnsim::dist;
using namespace mcnsim::sim;

TEST(MpiBasics, SendRecvOnCluster)
{
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);

    MpiWorld world(s, {sys.node(0), sys.node(1)});
    std::uint64_t got = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        if (r.rank() == 0) {
            co_await r.send(1, 10'000);
        } else {
            got = co_await r.recv(0);
        }
    });
    world.runToCompletion(s, secondsToTicks(5.0));
    ASSERT_TRUE(world.done());
    EXPECT_EQ(got, 10'000u);
}

TEST(MpiBasics, SendRecvWithinOneNodeUsesLoopback)
{
    Simulation s;
    ScaleUpSystem sys(s, 4);

    // Two ranks on the same node.
    MpiWorld world(s, {sys.node(0), sys.node(0)});
    std::uint64_t got = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        if (r.rank() == 0)
            co_await r.send(1, 4096);
        else
            got = co_await r.recv(0);
    });
    world.runToCompletion(s, secondsToTicks(5.0));
    ASSERT_TRUE(world.done());
    EXPECT_EQ(got, 4096u);
}

TEST(MpiBasics, BarrierSynchronisesRanks)
{
    Simulation s;
    ScaleUpSystem sys(s, 4);
    MpiWorld world(s, {sys.node(0), sys.node(0), sys.node(0)});

    std::vector<Tick> after(3);
    Tick slow_done = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        if (r.rank() == 2) {
            co_await delayFor(r.kernel().eventQueue(), oneMs);
            slow_done = r.kernel().curTick();
        }
        co_await r.barrier();
        after[static_cast<std::size_t>(r.rank())] =
            r.kernel().curTick();
    });
    world.runToCompletion(s, secondsToTicks(5.0));
    ASSERT_TRUE(world.done());
    for (auto t : after)
        EXPECT_GE(t, slow_done); // nobody passes before the sleeper
}

TEST(MpiCollectives, BcastReachesEveryRank)
{
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 3;
    ClusterSystem sys(s, p);
    MpiWorld world(s, {sys.node(0), sys.node(1), sys.node(2)});
    int received = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        co_await r.bcast(0, 100'000);
        if (r.rank() != 0)
            received++;
    });
    world.runToCompletion(s, secondsToTicks(10.0));
    ASSERT_TRUE(world.done());
    EXPECT_EQ(received, 2);
}

TEST(MpiCollectives, AllReduceAndAllToAllComplete)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 3;
    p.config = McnConfig::level(3);
    McnSystem sys(s, p);

    // Ranks: host + 3 DIMMs.
    MpiWorld world(s, {sys.node(0), sys.node(1), sys.node(2),
                       sys.node(3)});
    int finished = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        co_await r.allreduce(64 * 1024);
        co_await r.alltoall(32 * 1024);
        co_await r.barrier();
        finished++;
    });
    world.runToCompletion(s, secondsToTicks(10.0));
    ASSERT_TRUE(world.done());
    EXPECT_EQ(finished, 4);
    EXPECT_GT(world.bytesMoved(), 4u * (64 + 3 * 32) * 1024u / 2);
}

TEST(MpiWorkloads, NpbSuiteSpecsAreSane)
{
    for (const auto &w : npb::suite()) {
        EXPECT_FALSE(w.name.empty());
        EXPECT_GT(w.iterations, 0);
        // Strong scaling shrinks per-rank work.
        auto scaled = w.scaledTo(16);
        EXPECT_LE(scaled.memBytesPerIter, w.memBytesPerIter);
        EXPECT_LE(scaled.computeCyclesPerIter,
                  w.computeCyclesPerIter);
    }
    // ep is compute-dominated; mg is memory-dominated.
    EXPECT_GT(npb::ep().computeCyclesPerIter,
              10 * npb::mg().computeCyclesPerIter);
    EXPECT_GT(npb::mg().memBytesPerIter,
              10 * npb::ep().memBytesPerIter);
}

TEST(MpiWorkloads, EpRunsOnScaleUpNode)
{
    Simulation s;
    ScaleUpSystem sys(s, 4);
    auto spec = npb::ep();
    spec.iterations = 2; // keep the test fast

    auto report = runMpiWorkload(
        s, sys, spec, {0, 0, 0, 0}, secondsToTicks(20.0));
    ASSERT_TRUE(report.completed);
    EXPECT_GT(report.makespan, 0u);
}

TEST(MpiWorkloads, MgRunsOnMcnServer)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    p.config = McnConfig::level(5);
    McnSystem sys(s, p);

    auto spec = npb::mg().scaledTo(3);
    spec.iterations = 2;
    auto report = runMpiWorkload(s, sys, spec, {0, 1, 2},
                                 secondsToTicks(20.0));
    ASSERT_TRUE(report.completed);
    EXPECT_GT(report.mpiBytes, 0u);
}

TEST(MpiWorkloads, SameWorkloadRunsUnchangedOnAllSystems)
{
    // The application-transparency claim: identical workload code
    // on scale-up, cluster, and MCN systems.
    auto spec = npb::cg().scaledTo(2);
    spec.iterations = 2;

    {
        Simulation s;
        ScaleUpSystem sys(s, 4);
        auto r = runMpiWorkload(s, sys, spec, {0, 0},
                                secondsToTicks(20.0));
        EXPECT_TRUE(r.completed) << "scale-up";
    }
    {
        Simulation s;
        ClusterSystemParams p;
        p.numNodes = 2;
        ClusterSystem sys(s, p);
        auto r = runMpiWorkload(s, sys, spec, {0, 1},
                                secondsToTicks(20.0));
        EXPECT_TRUE(r.completed) << "cluster";
    }
    {
        Simulation s;
        McnSystemParams p;
        p.numDimms = 1;
        p.config = McnConfig::level(0);
        McnSystem sys(s, p);
        auto r = runMpiWorkload(s, sys, spec, {0, 1},
                                secondsToTicks(20.0));
        EXPECT_TRUE(r.completed) << "mcn";
    }
}

TEST(Placement, AllCoresPlacementCoversEveryCore)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    McnSystem sys(s, p);
    auto placement = allCoresPlacement(sys);
    // host 8 cores + 2 DIMMs x 4 cores.
    EXPECT_EQ(placement.size(), 8u + 2u * 4u);
}

TEST(MpiInit, MeshWaitIsEventFreeThroughTheSynStall)
{
    // The perfbench mcn_mpi128_mg shape: 8 MCN servers x 2 DIMMs,
    // one rank per core. Above 96 ranks MPI_Init stalls for ~2.56 s
    // of modeled time on SYN retransmit backoff; ranks whose mesh is
    // still incomplete must sit that out without scheduling events.
    Simulation s;
    McnMultiServerParams p;
    p.numServers = 8;
    p.dimmsPerServer = 2;
    p.config = McnConfig::level(5);
    McnMultiServer sys(s, p);
    std::vector<NodeRef> nodes;
    for (std::size_t n : allCoresPlacement(sys))
        nodes.push_back(sys.node(n));
    ASSERT_EQ(nodes.size(), 128u);

    s.eventQueue().setProfiling(true);
    MpiWorld world(s, std::move(nodes));
    Tick last_done = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        co_await r.barrier();
        last_done = std::max(last_done, r.kernel().curTick());
    });
    runUntil(s, [&] { return world.allReadyAt() != 0; },
             30 * oneSec);
    std::uint64_t delays = 0;
    for (const auto &e : s.eventQueue().profileEntries())
        if (std::strcmp(e.name, "task-delay") == 0)
            delays = e.count;
    // A 5 us poll loop would dispatch ~47.5 M here.
    EXPECT_LT(delays, 1000u);

    world.runToCompletion(s, 30 * oneSec);
    ASSERT_TRUE(world.done());
    // Recorded once from the poll-loop implementation: the event-free
    // wait must release every rank at the same tick it did.
    EXPECT_EQ(world.allReadyAt(), 2'560'579'094'310u);
    EXPECT_EQ(world.bytesMoved(), 7'168u);
    EXPECT_EQ(last_done, 2'560'698'065'280u);
}
