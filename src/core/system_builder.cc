/**
 * @file
 * System builders: address assignment, neighbour tables, wiring.
 */

#include "core/system_builder.hh"

#include "net/icmp.hh"
#include "sim/logging.hh"

namespace mcnsim::core {

// ---------------------------------------------------------------------
// McnSystem
// ---------------------------------------------------------------------

McnSystem::McnSystem(sim::Simulation &s,
                     const McnSystemParams &params)
    : params_(params)
{
    const std::string pfx = params.namePrefix;
    hostKernel_ = std::make_unique<os::Kernel>(s, pfx + "host", 0,
                                               params.host);
    hostStack_ = std::make_unique<net::NetStack>(
        s, pfx + "host.net", *hostKernel_);
    hostStack_->setChecksumBypass(params.config.checksumBypass);
    driver_ = std::make_unique<mcn::McnHostDriver>(
        s, pfx + "host.mcndrv", *hostKernel_, params.config);

    hostAddr_ = net::Ipv4Addr(10, 0, params.subnet, 1);
    hostStack_->setNodeAddress(hostAddr_);

    // Create the DIMMs, spread round-robin over host channels
    // ("we evenly distribute MCN DIMMs on the host memory
    // channels", Sec. VI-B).
    std::uint32_t channels = hostKernel_->mem().channelCount();
    for (std::size_t i = 0; i < params.numDimms; ++i) {
        mcn::McnDimmParams dp;
        dp.kernel = params.dimmKernel;
        dp.config = params.config;
        auto dimm = std::make_unique<mcn::McnDimm>(
            s, pfx + "mcn" + std::to_string(i),
            static_cast<int>(i + 1), dp);
        dimm->configureAddress(dimmAddr(i));

        auto &host_if = driver_->addDimm(
            *dimm, static_cast<std::uint32_t>(i % channels));

        // Host-side: point-to-point /32 route keyed on the peer's
        // address (Sec. III-B network organization).
        hostStack_->addPointToPoint(host_if, dimmAddr(i));
        hostStack_->addNeighbor(dimmAddr(i), dimm->mac());

        dimms_.push_back(std::move(dimm));
    }

    // MCN-side neighbour tables: the host resolves to the
    // corresponding host-side interface (F1); other MCN nodes
    // resolve to their own MCN-side interface MAC (F3).
    for (std::size_t i = 0; i < dimms_.size(); ++i) {
        auto &st = dimms_[i]->stack();
        st.addNeighbor(hostAddr_,
                       driver_->hostInterface(i).mac());
        // Anything beyond this server (multi-server MCN) also goes
        // to the host, which forwards it (F1 + IP forwarding).
        st.setDefaultNeighbor(driver_->hostInterface(i).mac());
        for (std::size_t j = 0; j < dimms_.size(); ++j) {
            if (j != i)
                st.addNeighbor(dimmAddr(j), dimms_[j]->mac());
        }
    }

    // Dead-node reporting: when the forwarding engine drops a frame
    // for a degraded DIMM, the host's ICMP layer tells the sender
    // (destination unreachable) so pings and connecting sockets
    // fail fast instead of timing out.
    net::NetStack *hs = hostStack_.get();
    driver_->setUnreachableNotifier(
        [hs](net::Ipv4Addr src, net::Ipv4Addr dead) {
            hs->icmp().sendUnreachable(src, dead);
        });
}

net::Ipv4Addr
McnSystem::dimmAddr(std::size_t i) const
{
    return net::Ipv4Addr(10, 0, params_.subnet,
                         static_cast<std::uint8_t>(2 + i));
}

NodeRef
McnSystem::node(std::size_t i)
{
    NodeRef r;
    if (i == 0) {
        r.kernel = hostKernel_.get();
        r.stack = hostStack_.get();
        r.addr = hostAddr_;
    } else {
        r.kernel = &dimms_[i - 1]->kernel();
        r.stack = &dimms_[i - 1]->stack();
        r.addr = dimmAddr(i - 1);
    }
    return r;
}

// ---------------------------------------------------------------------
// ClusterSystem
// ---------------------------------------------------------------------

ClusterSystem::ClusterSystem(sim::Simulation &s,
                             const ClusterSystemParams &params)
    : params_(params)
{
    // The switch lives on shard 0; when sharding is enabled (see
    // DESIGN.md §9) every node gets its own shard and the node-to-
    // switch link latency becomes the conservative-lookahead edge.
    // Unsharded, newShard()/addShardEdge() degrade to no-ops and
    // this is the classic single-queue build.
    switch_ = std::make_unique<netdev::EthernetSwitch>(
        s, "tor", static_cast<std::uint32_t>(params.numNodes));

    for (std::size_t i = 0; i < params.numNodes; ++i) {
        const std::size_t shard = s.newShard();
        sim::Simulation::ShardScope scope(s, shard);
        auto n = std::make_unique<Node>();
        std::string nm = "node" + std::to_string(i);
        n->kernel = std::make_unique<os::Kernel>(
            s, nm, static_cast<int>(i), params.node);
        n->stack = std::make_unique<net::NetStack>(s, nm + ".net",
                                                   *n->kernel);
        n->nic = std::make_unique<netdev::Nic>(
            s, nm + ".nic",
            net::MacAddr::fromId(
                0x300000u + static_cast<std::uint32_t>(i)),
            *n->kernel);
        n->nic->setMtu(params.net.mtu);
        n->nic->features().tso = params.net.nicTso;
        n->nic->features().checksumOffload =
            params.net.nicChecksumOffload;

        n->link = std::make_unique<netdev::EthernetLink>(
            s, nm + ".link", params.net.linkBps,
            params.net.linkLatency);
        n->nic->attachLink(*n->link);
        switch_->attachLink(static_cast<std::uint32_t>(i),
                            *n->link);
        s.addShardEdge(0, shard, params.net.linkLatency);

        n->addr = net::Ipv4Addr(
            192, 168, 1, static_cast<std::uint8_t>(1 + i));
        // One /24-ish interface: match anything in 192.168.1.x.
        n->stack->addInterface(*n->nic, n->addr,
                               net::SubnetMask{0xffffff00});
        nodes_.push_back(std::move(n));
    }

    // Static neighbour tables (no ARP, see DESIGN.md).
    for (auto &a : nodes_)
        for (auto &b : nodes_)
            if (a != b)
                a->stack->addNeighbor(b->addr, b->nic->mac());
}

net::Ipv4Addr
ClusterSystem::addrOf(std::size_t i) const
{
    return nodes_[i]->addr;
}

NodeRef
ClusterSystem::node(std::size_t i)
{
    NodeRef r;
    r.kernel = nodes_[i]->kernel.get();
    r.stack = nodes_[i]->stack.get();
    r.addr = nodes_[i]->addr;
    return r;
}

// ---------------------------------------------------------------------
// FabricSystem
// ---------------------------------------------------------------------

namespace {

net::MacAddr
fabricMac(std::size_t rack, std::size_t member)
{
    return net::MacAddr::fromId(
        0x500000u + static_cast<std::uint32_t>(rack) * 256u +
        static_cast<std::uint32_t>(member));
}

} // namespace

FabricSystem::FabricSystem(sim::Simulation &s,
                           const FabricSystemParams &params)
    : params_(params)
{
    MCNSIM_ASSERT(params.racks > 0 && params.nodesPerRack > 0 &&
                      params.spines > 0,
                  "fabric needs racks, nodes and spines");
    upf_ = params.topology == FabricTopology::FatTree
               ? (params.nodesPerRack + params.spines - 1) /
                     params.spines
               : 1;

    // Every switch gets its own shard (ROADMAP item 1): the access
    // and trunk link latencies become the lookahead edges. The
    // construction order below is part of the determinism contract
    // -- shard ids and names are a pure function of the params.
    const std::uint32_t leaf_ports = static_cast<std::uint32_t>(
        params.nodesPerRack + params.spines * upf_);
    for (std::size_t r = 0; r < params.racks; ++r) {
        Switch lf;
        lf.shard = s.newShard();
        sim::Simulation::ShardScope scope(s, lf.shard);
        lf.sw = std::make_unique<netdev::EthernetSwitch>(
            s, "rack" + std::to_string(r) + ".leaf", leaf_ports);
        lf.sw->enableFabric(params.fabric);
        for (std::size_t u = 0; u < uplinkPortCount(); ++u)
            lf.sw->markTrunk(static_cast<std::uint32_t>(
                params.nodesPerRack + u));
        leaves_.push_back(std::move(lf));
    }

    const std::uint32_t spine_ports =
        static_cast<std::uint32_t>(params.racks * upf_);
    for (std::size_t j = 0; j < params.spines; ++j) {
        Switch sp;
        sp.shard = s.newShard();
        sim::Simulation::ShardScope scope(s, sp.shard);
        sp.sw = std::make_unique<netdev::EthernetSwitch>(
            s, "spine" + std::to_string(j), spine_ports);
        sp.sw->enableFabric(params.fabric);
        for (std::uint32_t p = 0; p < spine_ports; ++p)
            sp.sw->markTrunk(p);
        spines_.push_back(std::move(sp));
    }

    // Trunks: leaf r's uplink (j, k) <-> spine j's port (r, k).
    for (std::size_t r = 0; r < params.racks; ++r) {
        for (std::size_t j = 0; j < params.spines; ++j) {
            for (std::size_t k = 0; k < upf_; ++k) {
                sim::Simulation::ShardScope scope(s,
                                                 leaves_[r].shard);
                const std::size_t t = j * upf_ + k;
                auto link = std::make_unique<netdev::EthernetLink>(
                    s,
                    "rack" + std::to_string(r) + ".trunk" +
                        std::to_string(t),
                    params.trunk.linkBps, params.trunk.linkLatency);
                leaves_[r].sw->attachLink(
                    static_cast<std::uint32_t>(
                        params.nodesPerRack + t),
                    *link);
                spines_[j].sw->attachLink(
                    static_cast<std::uint32_t>(r * upf_ + k), *link,
                    /*b_side=*/true);
                s.addShardEdge(leaves_[r].shard, spines_[j].shard,
                               params.trunk.linkLatency);
                trunks_.push_back(std::move(link));
            }
        }
    }

    // Nodes: one shard each, hanging off their rack's leaf.
    for (std::size_t r = 0; r < params.racks; ++r) {
        for (std::size_t m = 0; m < params.nodesPerRack; ++m) {
            auto n = std::make_unique<Node>();
            n->shard = s.newShard();
            sim::Simulation::ShardScope scope(s, n->shard);
            const std::string nm = "rack" + std::to_string(r) +
                                   ".node" + std::to_string(m);
            n->kernel = std::make_unique<os::Kernel>(
                s, nm,
                static_cast<int>(r * params.nodesPerRack + m),
                params.node);
            n->stack = std::make_unique<net::NetStack>(
                s, nm + ".net", *n->kernel);
            n->nic = std::make_unique<netdev::Nic>(
                s, nm + ".nic", fabricMac(r, m), *n->kernel);
            n->nic->setMtu(params.net.mtu);
            n->nic->features().tso = params.net.nicTso;
            n->nic->features().checksumOffload =
                params.net.nicChecksumOffload;
            n->link = std::make_unique<netdev::EthernetLink>(
                s, nm + ".link", params.net.linkBps,
                params.net.linkLatency);
            n->nic->attachLink(*n->link);
            leaves_[r].sw->attachLink(
                static_cast<std::uint32_t>(m), *n->link);
            s.addShardEdge(leaves_[r].shard, n->shard,
                           params.net.linkLatency);
            n->addr = net::Ipv4Addr(
                10, 32, static_cast<std::uint8_t>(r),
                static_cast<std::uint8_t>(1 + m));
            n->stack->addInterface(*n->nic, n->addr,
                                   net::SubnetMask{0xffff0000});
            nodes_.push_back(std::move(n));
        }
    }

    // Static ECMP routes. Leaf: local members on their access
    // port, everything remote over the whole uplink group. Spine:
    // each rack's members over that rack's trunk group.
    std::vector<std::uint32_t> uplinks;
    for (std::size_t u = 0; u < uplinkPortCount(); ++u)
        uplinks.push_back(
            static_cast<std::uint32_t>(params.nodesPerRack + u));
    for (std::size_t r = 0; r < params.racks; ++r) {
        for (std::size_t r2 = 0; r2 < params.racks; ++r2) {
            for (std::size_t m = 0; m < params.nodesPerRack; ++m) {
                if (r2 == r)
                    leaves_[r].sw->addFabricRoute(
                        fabricMac(r2, m),
                        {static_cast<std::uint32_t>(m)});
                else
                    leaves_[r].sw->addFabricRoute(fabricMac(r2, m),
                                                  uplinks);
            }
        }
    }
    for (std::size_t j = 0; j < params.spines; ++j) {
        for (std::size_t r = 0; r < params.racks; ++r) {
            std::vector<std::uint32_t> group;
            for (std::size_t k = 0; k < upf_; ++k)
                group.push_back(
                    static_cast<std::uint32_t>(r * upf_ + k));
            for (std::size_t m = 0; m < params.nodesPerRack; ++m)
                spines_[j].sw->addFabricRoute(fabricMac(r, m),
                                              group);
        }
    }

    // Static neighbour tables (no ARP): one /16, so every node
    // resolves every other node's MAC directly.
    for (auto &a : nodes_)
        for (auto &b : nodes_)
            if (a != b)
                a->stack->addNeighbor(b->addr, b->nic->mac());

    // Partition detection: a switch with no live next hop toward a
    // destination tells the traffic source, which fails its pings
    // and sockets toward that destination fast (DESIGN.md §12).
    for (auto &lf : leaves_)
        wireNotifier(*lf.sw, lf.shard);
    for (auto &sp : spines_)
        wireNotifier(*sp.sw, sp.shard);
}

void
FabricSystem::wireNotifier(netdev::EthernetSwitch &sw,
                           std::size_t sw_shard)
{
    // A notice goes straight to the source node, which need not be
    // a neighbour of this switch: declare each such hop as a shard
    // edge. It has the access-link latency, so the lookahead (the
    // minimum edge latency) does not change.
    for (auto &n : nodes_)
        sw.simulation().addShardEdge(sw_shard, n->shard,
                                     params_.net.linkLatency);
    sw.setUnreachableNotifier([this, &sw, sw_shard](
                                  net::Ipv4Addr src,
                                  net::Ipv4Addr dead) {
        for (auto &n : nodes_) {
            if (!(n->addr == src))
                continue;
            net::NetStack *stack = n->stack.get();
            // Model the notice as one access-link hop back to the
            // source; the latency is a registered shard edge, so
            // the post always clears the lookahead horizon.
            sw.simulation().postCrossShard(
                sw_shard, n->shard,
                sw.curTick() + params_.net.linkLatency,
                sim::EventPriority::Default, "fabric.unreach",
                [stack, dead] {
                    stack->icmp().notifyUnreachable(dead);
                });
            return;
        }
    });
}

net::Ipv4Addr
FabricSystem::addrOf(std::size_t i) const
{
    return nodes_[i]->addr;
}

net::MacAddr
FabricSystem::macOf(std::size_t i) const
{
    return fabricMac(i / params_.nodesPerRack,
                     i % params_.nodesPerRack);
}

NodeRef
FabricSystem::node(std::size_t i)
{
    NodeRef r;
    r.kernel = nodes_[i]->kernel.get();
    r.stack = nodes_[i]->stack.get();
    r.addr = nodes_[i]->addr;
    return r;
}

// ---------------------------------------------------------------------
// McnMultiServer
// ---------------------------------------------------------------------

McnMultiServer::McnMultiServer(sim::Simulation &s,
                               const McnMultiServerParams &params)
    : params_(params)
{
    switch_ = std::make_unique<netdev::EthernetSwitch>(
        s, "fabric",
        static_cast<std::uint32_t>(params.numServers));

    // One shard per server (the dist-gem5 partitioning the paper's
    // own evaluation used: a server's host + DIMMs share a
    // synchronous memory channel, so they must co-schedule; only
    // the inter-server Ethernet has latency to hide). The fabric
    // switch stays on shard 0.
    std::vector<std::size_t> shards;
    for (std::size_t sv = 0; sv < params.numServers; ++sv) {
        shards.push_back(s.newShard());
        sim::Simulation::ShardScope scope(s, shards.back());
        McnSystemParams sp;
        sp.numDimms = params.dimmsPerServer;
        sp.config = params.config;
        sp.subnet = static_cast<std::uint8_t>(sv);
        sp.namePrefix = "srv" + std::to_string(sv) + ".";
        servers_.push_back(std::make_unique<McnSystem>(s, sp));
    }

    // Give each host a conventional NIC into the fabric and the
    // routes/neighbours to reach every other server's nodes.
    for (std::size_t sv = 0; sv < params.numServers; ++sv) {
        sim::Simulation::ShardScope scope(s, shards[sv]);
        auto &host = servers_[sv]->host();
        auto &stack = servers_[sv]->hostStack();
        auto nic = std::make_unique<netdev::Nic>(
            s, "srv" + std::to_string(sv) + ".nic",
            net::MacAddr::fromId(
                0x400000u + static_cast<std::uint32_t>(sv)),
            host);
        nic->setMtu(params.uplink.mtu);
        auto link = std::make_unique<netdev::EthernetLink>(
            s, "srv" + std::to_string(sv) + ".uplink",
            params.uplink.linkBps, params.uplink.linkLatency);
        nic->attachLink(*link);
        switch_->attachLink(static_cast<std::uint32_t>(sv), *link);
        s.addShardEdge(0, shards[sv], params.uplink.linkLatency);

        net::Ipv4Addr uplink_addr(
            192, 168, 0, static_cast<std::uint8_t>(1 + sv));
        int nic_if = stack.addInterface(
            *nic, uplink_addr, net::SubnetMask{0xffffff00});
        stack.setIpForwarding(true);
        servers_[sv]->driver().setUplink(nic.get());

        // Routes + gateway MACs toward every other server.
        for (std::size_t other = 0; other < params.numServers;
             ++other) {
            if (other == sv)
                continue;
            stack.addRoute(
                nic_if,
                net::Ipv4Addr(10, 0,
                              static_cast<std::uint8_t>(other), 0),
                net::SubnetMask{0xffffff00});
            net::MacAddr gw = net::MacAddr::fromId(
                0x400000u + static_cast<std::uint32_t>(other));
            stack.addNeighbor(
                net::Ipv4Addr(192, 168, 0,
                              static_cast<std::uint8_t>(1 + other)),
                gw);
            // Remote host + remote DIMM addresses resolve to the
            // remote host's NIC (it forwards internally).
            stack.addNeighbor(
                net::Ipv4Addr(10, 0,
                              static_cast<std::uint8_t>(other), 1),
                gw);
            for (std::size_t d = 0; d < params.dimmsPerServer;
                 ++d)
                stack.addNeighbor(
                    net::Ipv4Addr(
                        10, 0, static_cast<std::uint8_t>(other),
                        static_cast<std::uint8_t>(2 + d)),
                    gw);
        }
        nics_.push_back(std::move(nic));
        links_.push_back(std::move(link));
    }
}

std::size_t
McnMultiServer::nodeCount() const
{
    return params_.numServers * (1 + params_.dimmsPerServer);
}

NodeRef
McnMultiServer::node(std::size_t i)
{
    std::size_t per = 1 + params_.dimmsPerServer;
    return servers_[i / per]->node(i % per);
}

// ---------------------------------------------------------------------
// ScaleUpSystem
// ---------------------------------------------------------------------

ScaleUpSystem::ScaleUpSystem(sim::Simulation &s, std::uint32_t cores,
                             std::uint32_t mem_channels)
{
    kernel_ = std::make_unique<os::Kernel>(
        s, "fatnode", 0, hostKernelParams(mem_channels, cores));
    stack_ = std::make_unique<net::NetStack>(s, "fatnode.net",
                                             *kernel_);
    addr_ = net::Ipv4Addr(10, 1, 0, 1);
    stack_->setNodeAddress(addr_);
}

NodeRef
ScaleUpSystem::node(std::size_t i)
{
    MCNSIM_ASSERT(i == 0, "scale-up system has one node");
    NodeRef r;
    r.kernel = kernel_.get();
    r.stack = stack_.get();
    r.addr = addr_;
    return r;
}

} // namespace mcnsim::core
