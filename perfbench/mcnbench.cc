/**
 * @file
 * mcnbench: runs one benchmark workload against the mcnsim library's
 * public API and prints one JSON object of raw measurements on the
 * last line of stdout. perfbench/run.py generates the inputs from the
 * workload seed, runs this program repeatedly, takes medians and
 * checks the modeled output against perfbench/reference.json.
 *
 *   mcnbench --workload=mcn_multi64_iperf --server=3 --clients=1,2,4
 *            --stats-out=stats.json [--profile]
 *   mcnbench --workload=mcn_mpi128_mg --rotate=2 --stats-out=stats.json
 *   mcnbench --workload=fattree256_iperf --setup-only
 *
 * Timing: setup_s is the system builder's constructor; run_s is host
 * time from launching the workload to its completion. --setup-only
 * stops after the constructor. --profile turns on the event queues'
 * per-event-name dispatch timer for the run and adds the merged rows
 * to the output. The stats registry is written to --stats-out.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "dist/mpi.hh"
#include "dist/npb.hh"
#include "dist/workload.hh"
#include "sim/simulation.hh"

using namespace mcnsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "mcnbench: %s\n", why.c_str());
    std::exit(2);
}

struct Args
{
    std::map<std::string, std::string> flags;

    bool has(const std::string &k) const { return flags.count(k) > 0; }

    std::string
    get(const std::string &k) const
    {
        auto it = flags.find(k);
        if (it == flags.end())
            usage("missing --" + k);
        return it->second;
    }

    long
    getInt(const std::string &k) const
    {
        std::string v = get(k);
        char *end = nullptr;
        long n = std::strtol(v.c_str(), &end, 10);
        if (v.empty() || *end != '\0' || n < 0)
            usage("--" + k + " needs a non-negative integer");
        return n;
    }

    std::vector<std::size_t>
    getList(const std::string &k) const
    {
        std::vector<std::size_t> out;
        std::stringstream ss(get(k));
        std::string item;
        while (std::getline(ss, item, ','))
            out.push_back(std::stoul(item));
        return out;
    }
};

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string s = argv[i];
        if (s.rfind("--", 0) != 0)
            usage("unexpected argument " + s);
        auto eq = s.find('=');
        if (eq == std::string::npos)
            a.flags[s.substr(2)] = "1";
        else
            a.flags[s.substr(2, eq - 2)] = s.substr(eq + 1);
    }
    return a;
}

/** Exact decimal form of a double, so reference values round-trip. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

/** What one run of a workload produced. */
struct Outcome
{
    /** Headline modeled results, as JSON members (name, value). */
    std::vector<std::pair<std::string, std::string>> modeled;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Host seconds until MPI_Init finished; < 0 when not MPI. */
    double mpiInitHostS = -1.0;
};

/** One workload: how to build its system and how to drive it. */
struct Workload
{
    std::string name;
    /** Worker threads of the sharded engine; 0 = classic engine. */
    unsigned workers;
    std::unique_ptr<core::System> (*build)(sim::Simulation &);
    Outcome (*run)(sim::Simulation &, core::System &, const Args &);
};

std::unique_ptr<core::System>
buildMulti64(sim::Simulation &s)
{
    core::McnMultiServerParams p;
    p.numServers = 64;
    p.dimmsPerServer = 2;
    p.config = core::McnConfig::level(5);
    return std::make_unique<core::McnMultiServer>(s, p);
}

std::unique_ptr<core::System>
buildFatTree256(sim::Simulation &s)
{
    core::FabricSystemParams p;
    p.topology = core::FabricTopology::FatTree;
    p.racks = 16;
    p.nodesPerRack = 16;
    p.spines = 4;
    return std::make_unique<core::FabricSystem>(s, p);
}

std::unique_ptr<core::System>
buildMpi128(sim::Simulation &s)
{
    core::McnMultiServerParams p;
    p.numServers = 8;
    p.dimmsPerServer = 2;
    p.config = core::McnConfig::level(5);
    return std::make_unique<core::McnMultiServer>(s, p);
}

/** iperf for 10 ms of simulated time: --server receives from every
 *  node in --clients, spawned in the order given. An operation is a
 *  client connection; one the server never accepted has failed. */
Outcome
driveIperf(sim::Simulation &s, core::System &sys, const Args &a)
{
    auto server = static_cast<std::size_t>(a.getInt("server"));
    auto clients = a.getList("clients");
    for (std::size_t c : clients)
        if (c >= sys.nodeCount() || c == server)
            usage("bad client node " + std::to_string(c));
    if (server >= sys.nodeCount())
        usage("bad server node");
    auto r = core::runIperf(s, sys, server, clients, 10 * sim::oneMs);
    Outcome o;
    o.modeled = {{"gbps", num(r.gbps)},
                 {"bytes", num(r.bytes)},
                 {"connections",
                  num(static_cast<std::uint64_t>(r.connections))}};
    o.attempted = clients.size();
    auto ok = static_cast<std::uint64_t>(std::max(r.connections, 0));
    o.failed = o.attempted > ok ? o.attempted - ok : 0;
    return o;
}

sim::Task<void>
timedRank(dist::MpiRank &r, dist::WorkloadSpec spec,
          std::vector<sim::Tick> *done_at)
{
    co_await dist::runWorkloadRank(r, std::move(spec));
    (*done_at)[static_cast<std::size_t>(r.rank())] =
        r.core().curTick();
}

/** NPB MG on one rank per core, driven through MpiWorld directly so
 *  MPI_Init (mesh set-up) and the body are timed apart. --rotate
 *  shifts the placement by whole servers. An operation is a rank;
 *  one that has not finished by the deadline has failed. */
Outcome
driveMpi(sim::Simulation &s, core::System &sys, const Args &a)
{
    auto &multi = static_cast<core::McnMultiServer &>(sys);
    auto rotate = static_cast<std::size_t>(a.getInt("rotate"));
    if (rotate >= multi.serverCount())
        usage("--rotate must be below the server count");
    auto placement = core::allCoresPlacement(sys);
    std::size_t per_server = sys.nodeCount() / multi.serverCount();
    std::vector<core::NodeRef> nodes;
    nodes.reserve(placement.size());
    for (std::size_t n : placement)
        nodes.push_back(sys.node((n + rotate * per_server) %
                                 sys.nodeCount()));

    auto spec = dist::npb::mg().scaledTo(
        static_cast<int>(placement.size()));
    std::vector<sim::Tick> done_at(placement.size(), 0);

    auto t0 = Clock::now();
    sim::Tick start = s.curTick();
    sim::Tick deadline = start + 30 * sim::oneSec;
    dist::MpiWorld world(s, std::move(nodes));
    world.launch([&spec, &done_at](dist::MpiRank &r) {
        return timedRank(r, spec, &done_at);
    });
    core::runUntil(
        s, [&] { return world.allReadyAt() != 0; }, deadline);
    Outcome o;
    o.mpiInitHostS = secondsSince(t0);
    core::runUntil(
        s, [&] { return world.done(); }, deadline);

    sim::Tick ready = world.allReadyAt();
    sim::Tick last = *std::max_element(done_at.begin(), done_at.end());
    o.attempted = done_at.size();
    o.failed = static_cast<std::uint64_t>(
        std::count(done_at.begin(), done_at.end(), sim::Tick{0}));
    double init_ms = ready ? sim::ticksToSeconds(ready - start) * 1e3 : 0;
    double makespan_ms =
        ready && last > ready ? sim::ticksToSeconds(last - ready) * 1e3
                              : 0.0;
    o.modeled = {{"completed", world.done() ? "true" : "false"},
                 {"mpi_init_sim_ms", num(init_ms)},
                 {"mpi_makespan_ms", num(makespan_ms)},
                 {"mpi_bytes", num(world.bytesMoved())}};
    return o;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"mcn_multi64_iperf", 0, buildMulti64, driveIperf},
        {"fattree256_iperf", 4, buildFatTree256, driveIperf},
        {"mcn_mpi128_mg", 0, buildMpi128, driveMpi},
    };
    return all;
}

struct Built
{
    std::unique_ptr<sim::Simulation> sim;
    /** Declared after sim: destroyed before the simulation it
     *  registered with. */
    std::unique_ptr<core::System> sys;
    double setupSeconds = 0.0;
};

Built
setUp(const Workload &w)
{
    Built b;
    b.sim = std::make_unique<sim::Simulation>();
    if (w.workers) {
        b.sim->enableSharding();
        b.sim->setThreads(w.workers);
    }
    auto t0 = Clock::now();
    b.sys = w.build(*b.sim);
    b.setupSeconds = secondsSince(t0);
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parse(argc, argv);
    std::string name = a.get("workload");
    auto it = std::find_if(workloads().begin(), workloads().end(),
                           [&](const Workload &w) {
                               return w.name == name;
                           });
    if (it == workloads().end())
        usage("unknown workload " + name);
    const Workload &w = *it;
    bool profile = a.has("profile");
    Built b = setUp(w);
    if (a.has("setup-only")) {
        std::printf("{\"workload\":\"%s\",\"setup_s\":%s}\n",
                    w.name.c_str(), num(b.setupSeconds).c_str());
        return 0;
    }
    sim::Simulation &s = *b.sim;
    for (std::size_t i = 0; profile && i < s.shardCount(); ++i)
        s.shardQueue(i).setProfiling(true);

    auto t0 = Clock::now();
    Outcome o = w.run(s, *b.sys, a);
    double run_s = secondsSince(t0);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    {
        std::ofstream f(a.get("stats-out"));
        s.prepareStatsDump();
        s.statRegistry().dumpJson(f);
        if (!f.good())
            usage("cannot write " + a.get("stats-out"));
    }

    // Per-shard profiles merged by event name.
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> prof;
    for (std::size_t i = 0; profile && i < s.shardCount(); ++i)
        for (const auto &r : s.shardQueue(i).profileEntries()) {
            auto &row = prof[r.name];
            row.first += r.count;
            row.second += r.hostNs;
        }

    std::ostringstream os;
    os << "{\"workload\":\"" << w.name << "\",\"engine\":\""
       << (w.workers ? "sharded" : "classic")
       << "\",\"workers\":" << (w.workers ? w.workers : 1)
       << ",\"compiler\":\"" << MCNBENCH_COMPILER
       << "\",\"cxx_flags\":\"" << MCNBENCH_CXX_FLAGS
       << "\",\"setup_s\":" << num(b.setupSeconds)
       << ",\"run_s\":" << num(run_s)
       << ",\"peak_rss_mb\":"
       << num(static_cast<double>(ru.ru_maxrss) / 1024.0)
       << ",\"events\":" << s.eventsProcessed()
       << ",\"sim_ticks\":" << s.curTick()
       << ",\"attempted\":" << o.attempted
       << ",\"failed\":" << o.failed;
    if (o.mpiInitHostS >= 0)
        os << ",\"mpi_init_host_s\":" << num(o.mpiInitHostS);
    os << ",\"modeled\":{";
    for (std::size_t i = 0; i < o.modeled.size(); ++i)
        os << (i ? "," : "") << "\"" << o.modeled[i].first
           << "\":" << o.modeled[i].second;
    os << "},\"profile\":[";
    bool first = true;
    for (const auto &[ev, row] : prof) {
        os << (first ? "" : ",") << "{\"name\":\"" << ev
           << "\",\"count\":" << row.first
           << ",\"host_ns\":" << row.second << "}";
        first = false;
    }
    os << "]}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
