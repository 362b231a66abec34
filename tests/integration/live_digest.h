// Golden-digest row of one LiveSystem round (see golden_digest.h).
#pragma once

#include "golden_digest.h"
#include "sim/live_runner.h"
#include "sim/metrics_snapshot.h"

namespace multipub::sim {

/// Digests one round: the interval's delivery times and cost from `run`,
/// and the system's cumulative ledger, counters, deployed matrix and
/// rendered metrics as they stand after the round's control step.
[[nodiscard]] inline testutil::DigestRow live_round_digest(
    LiveSystem& sys, const LiveRunResult& run, TopicId topic) {
  const net::SimTransport& transport = sys.transport();
  testutil::DigestRow row{};
  row[testutil::kDeliveryTimes] =
      testutil::Fnv1a().f64s(run.delivery_times).value();
  row[testutil::kCost] = testutil::Fnv1a()
                             .f64(run.interval_cost)
                             .f64(transport.topic_cost(topic))
                             .u64s(transport.ledger().inter_region_bytes)
                             .u64s(transport.ledger().internet_bytes)
                             .value();
  testutil::Fnv1a counters;
  counters.u64(transport.sent_count())
      .u64(transport.delivered_count())
      .u64(transport.dropped_count())
      .u64(transport.dropped_unregistered_count())
      .u64(transport.dropped_sender_down_count())
      .u64(transport.dropped_dead_arrival_count())
      .u64(transport.dropped_faulted_count());
  for (const auto& region : sys.scenario().catalog.all()) {
    const auto& broker = sys.region_manager(region.id).broker();
    counters.u64(broker.delivered_count())
        .u64(broker.forwarded_count())
        .u64(broker.drain_forwarded_count())
        .u64(broker.filtered_count());
  }
  row[testutil::kCounters] = counters.value();
  row[testutil::kMatrix] =
      testutil::Fnv1a().str(sys.controller().render_assignment_matrix())
          .value();
  row[testutil::kMetrics] =
      testutil::Fnv1a().str(collect_metrics(sys).render()).value();
  return row;
}

}  // namespace multipub::sim
