/**
 * @file
 * Analyzer fixture: R8 fault-site violations. A fault point's name
 * is how a fault spec addresses it ("mcn1.iface.rx-irq-lost"), so
 * it must be a literal in the spec grammar.
 */

namespace mcnsim::fixture {

struct FaultSite
{
};

const char *dropName();

struct Nic
{
    FaultSite faultDrop_ = FAULT_POINT(dropName()); // expect: fault-site
    FaultSite faultStall_ = FAULT_POINT("Stall"); // expect: fault-site
    FaultSite faultLost_ = FAULT_POINT("rx_irq_lost"); // expect: fault-site
    FaultSite faultEmpty_ = FAULT_POINT(""); // expect: fault-site
    // analyze-ok: fault-site (two lines up: the window is one line)
    int pad_ = 0;
    FaultSite faultDup_ = FAULT_POINT("1dup"); // expect: fault-site
};

} // namespace mcnsim::fixture
