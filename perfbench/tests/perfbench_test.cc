// Self-tests of the end-to-end benchmark: the span self-time arithmetic,
// the statistics helpers, a tiny run of every workload in both modes, and
// the audits catching a swallowed delivery.
//
// Build and run: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <string>

#include "checks.h"
#include "report.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Tracer, SelfTimeOfAHandBuiltSpanTree) {
  // bench [0,100]
  //   net.sim [10,80]
  //     broker [20,50]
  //     net.sim_transport [60,70]
  //   client.subscriber [85,95]
  Tracer tracer(/*sample_every=*/1);
  tracer.open(Layer::kBench, 7, 0);
  tracer.open(Layer::kNetSim, 7, 10);
  tracer.open(Layer::kBroker, 7, 20);
  EXPECT_EQ(tracer.close(50), 30);
  tracer.open(Layer::kSimTransport, 7, 60);
  EXPECT_EQ(tracer.close(70), 10);
  EXPECT_EQ(tracer.close(80), 70 - 30 - 10);
  tracer.open(Layer::kSubscriber, 7, 85);
  EXPECT_EQ(tracer.close(95), 10);
  EXPECT_EQ(tracer.close(100), 100 - 70 - 10);
  EXPECT_EQ(tracer.depth(), 0u);

  EXPECT_EQ(tracer.self_ns(Layer::kBench), 20);
  EXPECT_EQ(tracer.self_ns(Layer::kNetSim), 30);
  EXPECT_EQ(tracer.self_ns(Layer::kBroker), 30);
  EXPECT_EQ(tracer.self_ns(Layer::kSimTransport), 10);
  EXPECT_EQ(tracer.self_ns(Layer::kSubscriber), 10);
  // Self times partition the root span exactly.
  EXPECT_EQ(tracer.total_self_ns(), 100);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 1);
  EXPECT_EQ(spans[4].parent, 0);
  EXPECT_EQ(spans[1].self_ns, 30);
  EXPECT_EQ(spans[4].end_ns, 95);
  for (const Span& span : spans) EXPECT_EQ(span.trace_id, 7u);
}

TEST(Tracer, UnsampledAncestorsAreRecordedForASampledSpan) {
  Tracer tracer(/*sample_every=*/1);
  tracer.open(Layer::kSocket, 0, 0);  // id 0: a harness span, never sampled
  tracer.open(Layer::kBroker, 0, 1);
  EXPECT_EQ(tracer.close(2), 1);
  EXPECT_TRUE(tracer.spans().empty());
  tracer.open(Layer::kSubscriber, 42, 3);  // sampled publication
  tracer.close(5);
  tracer.close(9);
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].layer, Layer::kSocket);
  EXPECT_EQ(spans[0].self_ns, 9 - 1 - 2);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].trace_id, 42u);
}

TEST(Stats, PercentilesHistogramAndFastestBlocks) {
  std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(values, 0.5), 3);
  EXPECT_EQ(percentile(values, 0.99), 5);

  DelayHistogram histogram;
  histogram.add(10.0, 99);
  histogram.add(250.0, 1);
  EXPECT_NEAR(histogram.percentile(0.5), 10.01, 1e-9);
  EXPECT_NEAR(histogram.percentile(1.0), 250.01, 1e-9);

  // Items in three blocks of two, ranked by their median. A single slow
  // item (the program's own stall) does not move its block's median, so
  // the block is kept with the stall in it; a block that is slow
  // throughout is dropped.
  EXPECT_EQ(fastest_items({1, 1, 1, 9, 3, 3}, 3, 2.0 / 3.0),
            (std::vector<bool>{true, true, true, true, false, false}));
  // At least one block is kept.
  EXPECT_EQ(fastest_items({2, 2, 1, 1}, 2, 0.0),
            (std::vector<bool>{false, false, true, true}));
}

TEST(Checks, DeliveryAuditCountsMissingDuplicateAndSurplus) {
  DeliveryAudit audit;
  audit.add(/*expected=*/10, /*unique=*/10, 0);
  audit.add(10, 9, 0);
  audit.add(10, 11, 2);
  Result result;
  audit.report(result);
  EXPECT_EQ(result.attempted, 30u);
  EXPECT_EQ(result.failed, 1u + 1u + 2u);
  EXPECT_FALSE(result.correct());

  Result ledger;
  audit_ledger({1, 2}, {3, 4}, {1, 2}, {3, 5}, "books", ledger);
  EXPECT_EQ(ledger.failed, 1u);
}

struct Case {
  const char* name;
  Result (*run)(const RunOptions&);
};

class Workload : public ::testing::TestWithParam<Case> {
 protected:
  RunOptions tiny(bool trace, double scale = 0.02,
                  double seconds = 0.5) const {
    RunOptions options;
    options.workload = GetParam().name;
    options.seed = 3;
    options.seconds = seconds;
    options.scale = scale;
    options.trace = trace;
    return options;
  }
};

TEST_P(Workload, ReportsEveryEndToEndMetricAndPassesItsAudits) {
  const Result result = GetParam().run(tiny(false));
  EXPECT_TRUE(result.correct()) << (result.failures.empty()
                                        ? std::string()
                                        : result.failures.front());
  EXPECT_GT(result.attempted, 0u);
  for (const MetricSpec& spec : end_to_end_metrics()) {
    const auto it = result.values.find(spec.name);
    ASSERT_NE(it, result.values.end()) << spec.name;
    EXPECT_GT(it->second, 0.0) << spec.name;
  }
  const std::string json = result_json(result, end_to_end_metrics());
  for (const MetricSpec& spec : end_to_end_metrics()) {
    EXPECT_NE(json.find("\"" + std::string(spec.name) +
                        "\": {\"value\": "),
              std::string::npos);
    EXPECT_NE(json.find(std::string("\"unit\": \"") + spec.unit + "\""),
              std::string::npos);
  }
}

TEST_P(Workload, TracedRunReportsLayersThatCoverTheWallTime) {
  // Long enough that the simulator's drain tail (slices with almost no
  // work, where clock reads dominate) is a small part of the phase.
  const Result result = GetParam().run(tiny(true, 0.2, 5.0));
  EXPECT_TRUE(result.correct());
  const std::string json = result_json(result, per_layer_metrics());
  for (const MetricSpec& spec : per_layer_metrics()) {
    EXPECT_NE(json.find("\"" + std::string(spec.name) + "\": {\"value\": "),
              std::string::npos)
        << spec.name;
  }
  ASSERT_TRUE(result.values.count("trace.self_coverage"));
  EXPECT_NEAR(result.values.at("trace.self_coverage"), 1.0, 0.05);
  EXPECT_TRUE(result.values.count("trace.overhead_frac"));
}

TEST_P(Workload, AuditsFailOnASwallowedDelivery) {
  RunOptions options = tiny(false);
  options.drop_delivery = 5;
  const Result result = GetParam().run(options);
  EXPECT_FALSE(result.correct());
  EXPECT_GE(result.failed, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Workload,
    ::testing::Values(Case{"des_fanout", run_des_fanout},
                      Case{"des_cohort", run_des_cohort},
                      Case{"live_fanout", run_live_fanout},
                      Case{"control_churn", run_control_churn}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace perfbench
