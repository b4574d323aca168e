/**
 * @file
 * Analyzer fixture: R10 stat-name violations. Stats are addressed as
 * <group>.<stat> by filters and report tools, so a name must be a
 * literal in dotted lowerCamel.
 */

#include <string>

namespace mcnsim::fixture {

struct NicStats
{
    explicit NicStats(const std::string &prefix);

    Scalar txBytes{"TxBytes"}; // expect: stat-name
    Scalar rxDrops{"rx_drops"}; // expect: stat-name
    Average latency{prefix + "latency"}; // expect: stat-name
    QueueStat depth{"txRing..depth"}; // expect: stat-name
    // analyze-ok: stat-name (two lines up: the window is one line)
    int pad = 0;
    Histogram sizes("frame-sizes", 16); // expect: stat-name
};

} // namespace mcnsim::fixture
