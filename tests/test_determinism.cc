/**
 * @file
 * Determinism regression tests: two runs of the same scenario with
 * the same seed must produce bit-identical modeled state.
 *
 * The digest is StatRegistry::dumpJson (every modeled counter,
 * histogram and average in the simulation -- and no host-time meta
 * header) plus the final tick and event count. Any nondeterminism
 * that touches modeled behaviour -- iteration over pointer-keyed
 * containers, uninitialised reads, wall-clock leakage into model
 * code -- diverges some stat or the event schedule and trips these
 * tests. The CLI's --selfcheck flag applies the same oracle from
 * the command line.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/system_builder.hh"

using namespace mcnsim;
using namespace mcnsim::core;

namespace {

/** Modeled end-state digest; see the file comment. */
std::string
digestOf(sim::Simulation &s)
{
    std::ostringstream os;
    s.prepareStatsDump();
    s.statRegistry().dumpJson(os);
    os << "tick=" << s.curTick()
       << " events=" << s.eventQueue().eventsProcessed();
    return os.str();
}

std::string
runIperfOnce(std::uint64_t seed, int level)
{
    sim::Simulation s(seed);
    McnSystemParams p;
    p.numDimms = 2;
    p.config = McnConfig::level(level);
    McnSystem sys(s, p);
    runIperf(s, sys, 0, {1, 2}, 500 * sim::oneUs);
    return digestOf(s);
}

std::string
runPingOnce(std::uint64_t seed)
{
    sim::Simulation s(seed);
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);
    runPingSweep(s, sys, 0, 1, {56, 1024}, 3);
    return digestOf(s);
}

} // namespace

TEST(Determinism, IperfSameSeedBitIdentical)
{
    std::string a = runIperfOnce(42, 5);
    std::string b = runIperfOnce(42, 5);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Determinism, IperfBaselineConfigSameSeedBitIdentical)
{
    std::string a = runIperfOnce(7, 0);
    std::string b = runIperfOnce(7, 0);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Determinism, PingSameSeedBitIdentical)
{
    std::string a = runPingOnce(1);
    std::string b = runPingOnce(1);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsActuallyReachTheRng)
{
    // Guard against the digest being insensitive: a different seed
    // must still produce a *valid* run. (Seeds may or may not change
    // modeled stats depending on how much randomness the scenario
    // consumes, so only identity across equal seeds is asserted.)
    std::string a = runIperfOnce(1, 5);
    std::string b = runIperfOnce(2, 5);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
}
