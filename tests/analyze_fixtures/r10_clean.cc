/**
 * @file
 * Analyzer fixture: R10 clean counterpart. Literal dotted-lowerCamel
 * names; text in comments is not a constructor.
 */

namespace mcnsim::fixture {

struct NicStats
{
    Scalar txBytes{"txBytes"};
    QueueStat txRing{"txRing.usedBytes"};
    LogHistogram rtt("rttNs", 16);
    Average lat2{"lat2.p50"};
    // Scalar commented{"Bad_Name"} is not a stat.
    // analyze-ok: stat-name (name kept for archived artifacts)
    Scalar legacy{"tx_bytes"};
};

} // namespace mcnsim::fixture
