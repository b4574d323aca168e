/**
 * @file
 * Analyzer fixture: R8 clean counterpart. Literal, lowercase,
 * dash-separated names; FAULT_POINT(Bad) in a comment or a string
 * is not a site.
 */

namespace mcnsim::fixture {

struct FaultSite
{
};

extern const char *const kCustomName;

struct Link
{
    FaultSite faultDrop_ = FAULT_POINT("drop");
    FaultSite faultLost_ = FAULT_POINT( "rx-irq-lost" );
    FaultSite faultDup2_ = FAULT_POINT("dup2");
    const char *doc_ = "FAULT_POINT(Bad) in a string";
    // analyze-ok: fault-site (name shared with the spec table)
    FaultSite faultCustom_ = FAULT_POINT(kCustomName);
};

} // namespace mcnsim::fixture
