// Live middleware vs. analytic model.
//
// The strongest correctness evidence in the repository: the event-driven
// middleware (publishers -> brokers -> subscribers over the latency-billing
// transport) must measure exactly the delivery times and exactly the dollar
// cost that Equations 1-4 predict, for both delivery modes and a variety of
// configurations.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/cost_model.h"
#include "core/delivery_model.h"
#include "sim/live_runner.h"
#include "sim/scenario.h"

namespace multipub::sim {
namespace {

// LiveCase has no printer, so ctest names each case after gtest's byte dump
// of it. `name_tag` fills the four bytes that were padding, and so held
// whatever the stack held, with the values the case names were recorded with.
struct LiveCase {
  std::uint64_t mask;
  core::DeliveryMode mode;
  std::uint32_t name_tag = 0;
};
static_assert(std::has_unique_object_representations_v<LiveCase>,
              "every byte of LiveCase shows in the case names");

class LiveVsModel : public ::testing::TestWithParam<LiveCase> {
 protected:
  LiveVsModel() : rng_(31) {
    WorkloadSpec workload;
    workload.interval_seconds = 20.0;
    workload.ratio = 75.0;
    scenario_ = make_scenario(
        {{RegionId{0}, 2, 3}, {RegionId{5}, 2, 3}, {RegionId{9}, 1, 2}},
        workload, rng_);
  }

  Rng rng_;
  Scenario scenario_;
};

TEST_P(LiveVsModel, MeasurementsMatchEquations) {
  const core::TopicConfig config{geo::RegionSet(GetParam().mask),
                                 GetParam().mode};

  LiveSystem live(scenario_);
  live.deploy(config);
  const auto run = live.run_interval(20.0, 1024, 1.0, rng_);

  // Every publication reached every subscriber.
  EXPECT_EQ(run.deliveries,
            run.publications * scenario_.topic.subscribers.size());

  const core::TopicState observed = live.observed_topic_state();
  const core::DeliveryModel delivery(scenario_.backbone,
                                     scenario_.population.latencies);
  const core::CostModel cost(scenario_.catalog,
                             scenario_.population.latencies);

  // Delivery-time percentile: measured == Eq. 1/2 prediction.
  const Millis predicted =
      delivery.delivery_percentile(observed, config, 75.0);
  EXPECT_NEAR(run.percentile, predicted, 1e-9) << config.to_string();

  // Billed dollars: ledger == Eq. 3/4.
  const Dollars predicted_cost = cost.cost(observed, config);
  EXPECT_NEAR(run.interval_cost, predicted_cost, 1e-12) << config.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LiveVsModel,
    ::testing::Values(
        LiveCase{0b0000000001, core::DeliveryMode::kDirect},   // {R1}
        LiveCase{0b1000000000, core::DeliveryMode::kDirect},   // {R10}
        LiveCase{0b0000100001, core::DeliveryMode::kDirect},   // {R1,R6}
        LiveCase{0b0000100001, core::DeliveryMode::kRouted},
        LiveCase{0b1000100001, core::DeliveryMode::kDirect},   // {R1,R6,R10}
        LiveCase{0b1000100001, core::DeliveryMode::kRouted},
        LiveCase{0b1111111111, core::DeliveryMode::kDirect},   // all
        LiveCase{0b1111111111, core::DeliveryMode::kRouted, 0x20}));

TEST(LiveVsModelExtras, EveryIndividualDeliveryMatchesPairModel) {
  Rng rng(32);
  WorkloadSpec workload;
  workload.interval_seconds = 5.0;
  const auto scenario =
      make_scenario({{RegionId{0}, 1, 2}, {RegionId{4}, 1, 2}}, workload, rng);
  const core::TopicConfig config{geo::RegionSet(0b0000010001),
                                 core::DeliveryMode::kRouted};

  LiveSystem live(scenario);
  live.deploy(config);
  (void)live.run_interval(5.0, 256, 1.0, rng);

  const core::DeliveryModel delivery(scenario.backbone,
                                     scenario.population.latencies);
  for (const auto& subscriber : live.subscribers()) {
    for (const auto& record : subscriber->deliveries()) {
      const Millis expected = delivery.pair_delivery_time(
          record.publisher, subscriber->id(), config);
      EXPECT_NEAR(record.delivery_time, expected, 1e-9);
    }
  }
}

TEST(LiveVsModelExtras, JitteredNetworkStaysNearTheModel) {
  // With per-message jitter enabled the analytic equality becomes an
  // approximation: measured latencies are >= the model (jitter only adds)
  // and the percentile stays within the configured spread.
  Rng rng(34);
  WorkloadSpec workload;
  workload.interval_seconds = 30.0;
  workload.ratio = 75.0;
  const auto scenario =
      make_scenario({{RegionId{0}, 2, 4}, {RegionId{4}, 2, 4}}, workload, rng);
  const core::TopicConfig config{geo::RegionSet(0b0000010001),
                                 core::DeliveryMode::kRouted};

  LiveSystem live(scenario);
  live.transport().enable_jitter({.relative = 0.10, .absolute_ms = 2.0}, 99);
  live.deploy(config);
  const auto run = live.run_interval(30.0, 1024, 1.0, rng);

  const core::DeliveryModel delivery(scenario.backbone,
                                     scenario.population.latencies);
  const Millis predicted = delivery.delivery_percentile(
      live.observed_topic_state(), config, 75.0);

  EXPECT_GE(run.percentile, predicted);            // jitter only adds
  EXPECT_LE(run.percentile, predicted * 1.10 + 3 * 2.0 + 10.0);
  // Cost is latency-independent: still exact.
  const core::CostModel cost(scenario.catalog, scenario.population.latencies);
  EXPECT_NEAR(run.interval_cost,
              cost.cost(live.observed_topic_state(), config), 1e-12);
}

TEST(LiveVsModelExtras, NoPublicationIsDuplicatedOrLost) {
  Rng rng(33);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  const auto scenario =
      make_scenario({{RegionId{2}, 3, 4}, {RegionId{7}, 2, 3}}, workload, rng);
  const core::TopicConfig config{geo::RegionSet(0b0010000100),
                                 core::DeliveryMode::kRouted};

  LiveSystem live(scenario);
  live.deploy(config);
  (void)live.run_interval(10.0, 128, 2.0, rng);

  // Each subscriber got each publisher's sequence exactly once.
  for (const auto& subscriber : live.subscribers()) {
    std::map<std::pair<ClientId, std::uint64_t>, int> seen;
    for (const auto& record : subscriber->deliveries()) {
      ++seen[{record.publisher, record.seq}];
    }
    for (const auto& [key, count] : seen) {
      EXPECT_EQ(count, 1) << "publisher " << key.first.value() << " seq "
                          << key.second;
    }
    EXPECT_EQ(subscriber->deliveries().size(), 5u * 20u);  // 5 pubs x 20 msgs
  }
}

}  // namespace
}  // namespace multipub::sim
