// Golden-digest run for the data plane, and the sharded-plane differential.
//
// DataPlaneDiff drives one system through a randomized multi-round scenario
// with rate shifts, jittered latencies, churn, reconfigurations and a region
// outage with recovery, and pins every observable — delivery times, broker
// and transport counters, the CostLedger, the deployed matrix and the full
// metrics snapshot — to a checked-in digest per round (golden_digest.h).
// The tables were recorded from the seed's std::function-per-hop scheduling
// engine and the typed-event engine side by side, which agreed bit for bit;
// the seed engine is gone, the tables keep the differential. Parameterized
// over the control-plane pipeline (incremental vs full-scan).
//
// A second sweep proves the sharded parallel plane (DESIGN.md §11): the
// same script over shard counts {1, 2, 4, 8}, every observable compared
// against the single-threaded fast path — the shard count must never be
// observable. That sweep is itself parameterized over the full tuning grid
// {incremental, full-scan} x {round-robin, topology} x {fixed, adaptive}
// (DESIGN.md §14): neither the placement nor the window policy may be
// observable either.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "integration/live_digest.h"
#include "net/shard_placement.h"
#include "sim/live_runner.h"
#include "sim/metrics_snapshot.h"
#include "sim/scenario.h"

namespace multipub::sim {
namespace {

using testutil::DigestRow;

// Recorded at commit 57aa6c54de90effa53cf51fb2fae0a5da37ba8f7 from the seed
// scheduling engine and the typed-event engine, under both control-plane
// pipelines; all four runs gave this table.
constexpr DigestRow kDataPlane[] = {
    {0xe5ddf9413e46890e, 0xb2ea9206cb327f9d, 0x8430c995ba84f105,
     0x7bcaca4d25f3a39e, 0x7745e8829844e293},  // round 0
    {0x3856fa601ad73476, 0x89fbe6fd4c5ecdb3, 0x688f02687d94ec7d,
     0x7bcaca4d25f3a39e, 0x8d4ba21b348daa4e},  // round 1
    {0xdfbad01ae9c8af23, 0xa03251e3836b3f6d, 0x2e4b13bad3bc7da5,
     0x7bcaca4d25f3a39e, 0x19504a5adc58f000},  // round 2
    {0x2546b3667ce31537, 0x67d55c0659bc6520, 0x666c62e7a4316ed5,
     0x7bcaca4d25f3a39e, 0xd10a755ac8a74d9d},  // round 3
    {0x867749432b83cf2a, 0xc479ef52aa061e6a, 0x14abb484e40464c9,
     0x0038a4c461d9c8a6, 0x13fbc594a9ec5684},  // round 4
    {0x98f8e614a3010903, 0x29475546bd760000, 0x0448a43609af4fda,
     0x0038a4c461d9c8a6, 0x46d5ce544351e7eb},  // round 5
    {0xbbad6165fa72f150, 0x8a213007cb235fb3, 0x6a67a3b81982ba44,
     0x0038a4c461d9c8a6, 0x975233792be77343},  // round 6
    {0x49a9a743702a97c9, 0x46587158392196c9, 0xb20eb6dbd1be950b,
     0x7bcaca4d25f3a39e, 0x6c71caed3370c2f4},  // round 7
    {0xf9878a3ec1bd1c21, 0xcd9c912a6b5bf94f, 0x091acf0c80021e5f,
     0x7bcaca4d25f3a39e, 0x48485e85d153f09a},  // round 8
    {0xb48f1db4d85e87ee, 0x3bb9a25bbf3ea647, 0x8918bc1d425aa76b,
     0x7bcaca4d25f3a39e, 0x8e42df485d5ade39},  // round 9
    {0xd0e8dde91990b68c, 0x5ac6322f625f744a, 0x78d379d6204cde59,
     0x7bcaca4d25f3a39e, 0x8d57cf6819dccd6e},  // round 10
    {0xa4a0ccdb2022ce1f, 0xb2dad1307126ccd4, 0xa0e307479b06f3d2,
     0x7bcaca4d25f3a39e, 0x1c624b2de562c1ef},  // round 11
};

class DataPlaneDiff : public ::testing::TestWithParam<bool> {};

TEST_P(DataPlaneDiff, FastPathIsBitIdenticalToSeedPathAcrossLiveRounds) {
  const bool incremental = GetParam();
  Rng rng(2026);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}}, workload, rng);

  LiveSystem sys(scenario);
  sys.set_incremental(incremental);
  // Jitter exercises the per-hop RNG draw order.
  sys.transport().enable_jitter({0.05, 1.5}, 99);
  sys.deploy({geo::RegionSet::universe(10), core::DeliveryMode::kRouted});

  // The traffic and the per-round rates come from separate streams.
  Rng traffic(555);
  Rng rng_rounds(556);

  const TopicId topic = scenario.topic.topic;
  RegionId failed{-1};
  testutil::DigestTable table;
  for (int round = 0; round < 12; ++round) {
    const double rate_hz = rng_rounds.uniform(0.5, 3.0);
    const LiveRunResult run = sys.run_interval(10.0, 1024, rate_hz, traffic);

    if (round == 3) {
      // Churn: the last subscriber leaves...
      sys.subscribers().back()->unsubscribe(topic);
      sys.simulator().run();
    }
    if (round == 9) {
      // ...and rejoins, attaching to whatever is deployed right now.
      const auto* config = sys.controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      sys.subscribers().back()->subscribe(topic, *config);
      sys.simulator().run();
    }
    if (round == 4) {
      // Outage of a currently serving region.
      const auto* config = sys.controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      failed = config->regions.first();
      sys.transport().set_region_down(failed, true);
      sys.controller().set_region_available(failed, false);
    }
    if (round == 7) {
      sys.transport().set_region_down(failed, false);
      sys.controller().set_region_available(failed, true);
    }

    // Reconfigurations ride along: the control plane feeds off the data
    // plane's observed traffic, so the matrix digest also checks the
    // statistics.
    (void)sys.control_round();
    table.push_back(live_round_digest(sys, run, topic));
  }

  // The scenario actually exercised the outage branch.
  ASSERT_NE(failed.value(), -1);
  EXPECT_TRUE(testutil::matches_golden(table, kDataPlane));
}

INSTANTIATE_TEST_SUITE_P(ControlPlane, DataPlaneDiff, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Incremental" : "FullScan";
                         });

using ShardedTuning =
    std::tuple<bool, net::ShardPlacement, net::WindowPolicy>;

class ShardedPlaneDiff : public ::testing::TestWithParam<ShardedTuning> {};

TEST_P(ShardedPlaneDiff, BitIdenticalForEveryShardCount) {
  const auto [incremental, placement, policy] = GetParam();
  Rng rng(2026);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}}, workload, rng);

  // The reference never calls set_shards at all; the candidates sweep the
  // shard counts, including the trivial K = 1 (same plane, exercised
  // through the configuration path).
  const std::vector<std::uint32_t> shard_counts{1, 2, 4, 8};
  auto reference = std::make_unique<LiveSystem>(scenario);
  std::vector<std::unique_ptr<LiveSystem>> candidates;
  std::vector<LiveSystem*> systems{reference.get()};
  for (std::uint32_t shards : shard_counts) {
    candidates.push_back(std::make_unique<LiveSystem>(scenario));
    candidates.back()->set_shard_placement(placement);
    candidates.back()->set_window_policy(policy);
    candidates.back()->set_shards(shards);
    ASSERT_EQ(candidates.back()->shards(), shards);
    systems.push_back(candidates.back().get());
  }

  const net::SimTransport::JitterSpec jitter{0.05, 1.5};
  for (LiveSystem* sys : systems) {
    sys->set_incremental(incremental);
    sys->transport().enable_jitter(jitter, 99);
  }

  const core::TopicConfig bootstrap{geo::RegionSet::universe(10),
                                    core::DeliveryMode::kRouted};
  for (LiveSystem* sys : systems) sys->deploy(bootstrap);

  // Identical traffic: one generator per system, all seeded alike; the
  // per-round rates come from a shared side stream.
  std::vector<Rng> traffic;
  for (std::size_t i = 0; i < systems.size(); ++i) traffic.emplace_back(555);
  Rng rng_rounds(556);

  const TopicId topic = scenario.topic.topic;
  RegionId failed{-1};
  for (int round = 0; round < 12; ++round) {
    const double rate_hz = rng_rounds.uniform(0.5, 3.0);
    std::vector<LiveRunResult> runs;
    for (std::size_t i = 0; i < systems.size(); ++i) {
      runs.push_back(systems[i]->run_interval(10.0, 1024, rate_hz,
                                              traffic[i]));
    }
    for (std::size_t i = 1; i < systems.size(); ++i) {
      ASSERT_EQ(runs[i].delivery_times, runs[0].delivery_times)
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(runs[i].interval_cost, runs[0].interval_cost)
          << "round " << round << " shards " << shard_counts[i - 1];
    }

    if (round == 3) {
      for (LiveSystem* sys : systems) {
        sys->subscribers().back()->unsubscribe(topic);
        sys->simulator().run();
      }
    }
    if (round == 9) {
      const auto* config = reference->controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      for (LiveSystem* sys : systems) {
        sys->subscribers().back()->subscribe(topic, *config);
        sys->simulator().run();
      }
    }
    if (round == 4) {
      const auto* config = reference->controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      failed = config->regions.first();
      for (LiveSystem* sys : systems) {
        sys->transport().set_region_down(failed, true);
        sys->controller().set_region_available(failed, false);
      }
    }
    if (round == 7) {
      for (LiveSystem* sys : systems) {
        sys->transport().set_region_down(failed, false);
        sys->controller().set_region_available(failed, true);
      }
    }

    for (LiveSystem* sys : systems) (void)sys->control_round();
    const std::string matrix =
        reference->controller().render_assignment_matrix();
    const std::string snapshot = collect_metrics(*reference).render();
    for (std::size_t i = 1; i < systems.size(); ++i) {
      LiveSystem& sys = *systems[i];
      ASSERT_EQ(sys.controller().render_assignment_matrix(), matrix)
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(sys.transport().ledger().inter_region_bytes,
                reference->transport().ledger().inter_region_bytes)
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(sys.transport().ledger().internet_bytes,
                reference->transport().ledger().internet_bytes)
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(sys.transport().sent_count(),
                reference->transport().sent_count())
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(sys.transport().topic_cost(topic),
                reference->transport().topic_cost(topic))
          << "round " << round << " shards " << shard_counts[i - 1];
      // The full rendered snapshot covers broker counters, client books and
      // the controller state in one sweep.
      ASSERT_EQ(collect_metrics(sys).render(), snapshot)
          << "round " << round << " shards " << shard_counts[i - 1];
    }
  }
  ASSERT_NE(failed.value(), -1);
}

std::string sharded_tuning_name(
    const ::testing::TestParamInfo<ShardedTuning>& info) {
  const auto [incremental, placement, policy] = info.param;
  std::string name = incremental ? "Incremental" : "FullScan";
  name += placement == net::ShardPlacement::kRoundRobin ? "RoundRobin"
                                                        : "Topology";
  name += policy == net::WindowPolicy::kFixed ? "Fixed" : "Adaptive";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Tuning, ShardedPlaneDiff,
    ::testing::Combine(
        ::testing::Bool(),
        ::testing::Values(net::ShardPlacement::kRoundRobin,
                          net::ShardPlacement::kTopology),
        ::testing::Values(net::WindowPolicy::kFixed,
                          net::WindowPolicy::kAdaptive)),
    sharded_tuning_name);

}  // namespace
}  // namespace multipub::sim
