// The four workloads. Each builds its world from RunOptions::seed, runs on
// the calling thread only, audits its outputs outside timing and returns
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
//
//   des_fanout    DES twin, per-client plane (Publisher/Broker/Subscriber)
//   des_cohort    DES twin, cohort plane (~1M clients folded into cohorts)
//   live_fanout   three Broker nodes on loopback SocketTransports, open loop
//   control_churn EC2-2016 world, RegionManagers + Controller control rounds
#pragma once

#include "report.h"

namespace perfbench {

/// live_fanout's open-loop offered rate, publications per second. The plane
/// saturates near 35-40k/s on a 4-core Xeon VM; 10k/s stays below saturation
/// even in the host's slow phases, which run the plane up to 2x slower.
inline constexpr double kLiveOfferedRate = 10000.0;

Result run_des_fanout(const RunOptions& options);
Result run_des_cohort(const RunOptions& options);
Result run_live_fanout(const RunOptions& options);
Result run_control_churn(const RunOptions& options);

}  // namespace perfbench
