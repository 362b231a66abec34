// control_churn: the control plane of the EC2-2016 world (the paper's
// Table I, 10 regions) under steady churn, with the default exhaustive
// solver and the incremental controller.
//
// A RegionManager (with its Broker) per region, one Controller, and real
// Publisher/Subscriber endpoints run on the DES fabric. Each topic has one
// publisher and 2-5 subscribers. Before every round a seeded 5% of topics
// change their publication rate or gain/lose a subscriber, and a small
// traffic interval (every publisher publishes its per-interval count) feeds
// the brokers' counters; that interval is kept out of the round time and
// feeds deliveries_per_s instead.
//
// One control round, timed end to end: collect reports from every region
// manager -> ingest into the controller -> reconfigure() -> apply changed
// configurations on every region manager -> settle (the simulator runs
// until the config updates, re-subscriptions and handover timers are done).
// Delivery times are the traffic intervals' simulated publish-to-deliver
// times, which the deployed configurations determine.
//
// The measured rounds run in kBlocks blocks, each on a freshly built copy of
// the seed's world with its own seeded churn stream, so the blocks carry
// equal volumes of different churn and the run covers as many distinct
// rounds as a single world would. A single long-lived world would let the
// endpoints' dedup sets grow by every delivery of the run (to ~170 MB at
// 20 s) and make late rounds slower than early ones. Every block's world is
// audited, and every block's build is one setup_s sample, so set-up is
// sampled across the whole run.
#include <algorithm>
#include <map>
#include <memory>

#include "broker/controller.h"
#include "broker/region_manager.h"
#include "checks.h"
#include "client/publisher.h"
#include "client/subscriber.h"
#include "common/rng.h"
#include "core/config.h"
#include "geo/king_synth.h"
#include "geo/latency.h"
#include "geo/region.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace multipub;

constexpr Bytes kPayload = 1024;
constexpr std::uint64_t kWorldSeed = 4242;
constexpr int kWarmupRounds = 3;
constexpr double kChurn = 0.05;
constexpr std::uint64_t kMaxRate = 3;
constexpr std::size_t kMinSubs = 2;
constexpr std::size_t kMaxSubs = 5;
// Rounds per second of --seconds (4,400 rounds at 20 s).
constexpr double kRoundsPerSecond = 220.0;
// World blocks, ranked by their median round time (fastest_items in
// report.h); the best 40% is kept: 1,650 rounds at 20 s, so round_p99_ms
// has at least ten rounds beyond it.
constexpr std::size_t kBlocks = 16;
constexpr double kKeepFraction = 0.4;

struct ControlParams {
  std::size_t clients_per_region = 20;
  std::size_t topics = 200;
  std::size_t rounds = 0;
};

ControlParams make_params(const RunOptions& options) {
  ControlParams p;
  const double s = std::clamp(options.scale, 0.001, 1.0);
  if (s < 1.0) {
    p.clients_per_region =
        std::max<std::size_t>(8, static_cast<std::size_t>(20 * s));
    p.topics = std::max<std::size_t>(20, static_cast<std::size_t>(200 * s));
  }
  p.rounds = std::max<std::size_t>(
      20, static_cast<std::size_t>(kRoundsPerSecond * options.seconds * s));
  return p;
}

struct ControlWorld {
  ControlParams params;
  geo::RegionCatalog catalog = geo::RegionCatalog::ec2_2016();
  geo::InterRegionLatency backbone = geo::InterRegionLatency::ec2_2016();
  geo::ClientLatencyMap latencies;  // subscribers 0..n-1, then publishers
  std::size_t first_publisher = 0;
  Rng churn_rng{0};

  net::Simulator sim;
  std::unique_ptr<net::SimTransport> transport;
  Instruments instruments;
  std::unique_ptr<LayerBus> broker_bus;
  std::unique_ptr<LayerBus> publisher_bus;
  std::unique_ptr<LayerBus> subscriber_bus;
  std::vector<std::unique_ptr<broker::RegionManager>> managers;
  std::unique_ptr<broker::Controller> controller;
  std::vector<std::unique_ptr<client::Publisher>> publishers;  // per topic
  std::vector<std::unique_ptr<client::Subscriber>> subscribers;  // per client
  std::vector<core::DeliveryConstraint> constraints;

  // Ground truth the audits compare against.
  std::vector<std::uint64_t> rate;                 // per topic, per interval
  std::vector<std::vector<std::size_t>> members;   // per topic
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> expected;
  std::uint64_t stalled = 0;

  ControlWorld() = default;
  ControlWorld(const ControlWorld&) = delete;
  ControlWorld& operator=(const ControlWorld&) = delete;

  [[nodiscard]] TopicId topic(std::size_t t) const {
    return TopicId{static_cast<TopicId::underlying_type>(t)};
  }
  [[nodiscard]] const core::TopicConfig& deployed(std::size_t t) const {
    return *controller->deployed_config(topic(t));
  }
};

/// Everything one round's phases cost.
struct RoundTimes {
  double collect_ms = 0.0;
  double ingest_ms = 0.0;
  double reconfigure_ms = 0.0;
  double deploy_settle_ms = 0.0;
  [[nodiscard]] double total() const {
    return collect_ms + ingest_ms + reconfigure_ms + deploy_settle_ms;
  }
};

struct RoundOutcome {
  RoundTimes times;
  std::size_t tracked = 0;
  std::size_t dirty = 0;
  std::size_t evaluated = 0;
  std::size_t changed = 0;
};

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

/// Every changed topic's publisher and subscribers must run the deployed
/// configuration once the round has settled.
bool converged(const ControlWorld& w,
               const std::vector<broker::Controller::Decision>& decisions) {
  for (const auto& decision : decisions) {
    if (!decision.changed) continue;
    const auto t = static_cast<std::size_t>(decision.topic.value());
    const core::TopicConfig& config = decision.result.config;
    const core::TopicConfig* pub = w.publishers[t]->config(decision.topic);
    if (pub == nullptr || !(*pub == config)) return false;
    for (const std::size_t c : w.members[t]) {
      const ClientId id{static_cast<ClientId::underlying_type>(c)};
      if (w.subscribers[c]->attached_region(decision.topic) !=
          w.latencies.closest_region(id, config.regions)) {
        return false;
      }
    }
  }
  return true;
}

RoundOutcome control_round(ControlWorld& w) {
  RoundOutcome out;
  Tracer* tracer = w.instruments.tracer;
  Scope bench(tracer, Layer::kBench);
  const std::int64_t t0 = now_ns();
  std::vector<broker::ReportBatch> batches;
  {
    Scope span(tracer, Layer::kRegionManager);
    for (auto& manager : w.managers) batches.push_back(manager->collect_reports());
  }
  const std::int64_t t1 = now_ns();
  {
    Scope span(tracer, Layer::kController);
    for (std::size_t r = 0; r < w.managers.size(); ++r) {
      w.controller->ingest(w.managers[r]->region(), batches[r].reports,
                           batches[r].full_snapshot);
    }
  }
  const std::int64_t t2 = now_ns();
  std::vector<broker::Controller::Decision> decisions;
  {
    Scope span(tracer, Layer::kController);
    decisions = w.controller->reconfigure();
  }
  const std::int64_t t3 = now_ns();
  {
    Scope span(tracer, Layer::kRegionManager);
    for (const auto& decision : decisions) {
      if (!decision.changed) continue;
      for (auto& manager : w.managers) {
        manager->apply_config(decision.topic, decision.result.config);
      }
    }
  }
  {
    Scope span(tracer, Layer::kNetSim);
    w.sim.run();
  }
  const std::int64_t t4 = now_ns();
  out.times = {ms_between(t0, t1), ms_between(t1, t2), ms_between(t2, t3),
               ms_between(t3, t4)};
  const auto& stats = w.controller->last_round_stats();
  out.tracked = stats.tracked;
  out.dirty = stats.dirty;
  out.evaluated = stats.evaluated;
  for (const auto& decision : decisions) out.changed += decision.changed;
  if (!converged(w, decisions)) ++w.stalled;
  return out;
}

/// Seeded churn: kChurn of the topics, drawn by the seed, change rate or
/// membership. The count is fixed so every round carries the same volume.
void churn(ControlWorld& w) {
  Rng& rng = w.churn_rng;
  const std::size_t clients = w.first_publisher;
  const std::size_t topics = w.params.topics;
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(kChurn * static_cast<double>(topics)));
  std::vector<std::size_t> chosen;
  while (chosen.size() < count) {
    const auto t = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(topics) - 1));
    if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
      chosen.push_back(t);
    }
  }
  for (const std::size_t t : chosen) {
    auto& members = w.members[t];
    const std::int64_t kind = rng.uniform_int(0, 2);
    if (kind == 0) {
      std::uint64_t next = w.rate[t];
      while (next == w.rate[t]) {
        next = static_cast<std::uint64_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(kMaxRate)));
      }
      w.rate[t] = next;
    } else if ((kind == 1 && members.size() < kMaxSubs) ||
               members.size() <= kMinSubs) {
      std::size_t c = 0;
      do {
        c = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(clients) - 1));
      } while (std::find(members.begin(), members.end(), c) != members.end());
      members.push_back(c);
      w.subscribers[c]->subscribe(w.topic(t), w.deployed(t));
    } else {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(members.size()) - 1));
      w.subscribers[members[i]]->unsubscribe(w.topic(t));
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  w.sim.run();
}

struct Interval {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time
};

/// One collection interval of traffic: every publisher publishes its rate.
/// Returns the interval's wall and CPU time; deliveries are counted by the
/// caller.
Interval traffic_interval(ControlWorld& w) {
  for (std::size_t t = 0; t < w.params.topics; ++t) {
    for (std::uint64_t i = 0; i < w.rate[t]; ++i) {
      w.sim.schedule_after(static_cast<double>(t % 100) + 10.0 * static_cast<double>(i),
                           [&w, t] {
                             w.publishers[t]->publish(w.topic(t), kPayload);
                           });
    }
    for (const std::size_t c : w.members[t]) w.expected[{c, t}] += w.rate[t];
  }
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  w.sim.run();
  const std::int64_t t1 = now_ns();
  return {static_cast<double>(t1 - t0) * 1e-9,
          static_cast<double>(process_cpu_ns() - cpu0) * 1e-9};
}

std::uint64_t delivered(const ControlWorld& w) {
  std::uint64_t total = 0;
  for (const auto& s : w.subscribers) total += s->deliveries().size();
  return total;
}

/// The world `seed` draws; `block` picks the churn stream that runs on it.
std::unique_ptr<ControlWorld> build_world(const ControlParams& params,
                                          std::uint64_t seed,
                                          std::uint64_t block) {
  auto w = std::make_unique<ControlWorld>();
  w->params = params;
  // Fixed client positions on the EC2-2016 world; the seed draws the
  // topics, memberships, constraints and churn.
  Rng world_rng(kWorldSeed);
  Rng member_rng(derive_stream_seed(seed, 302));
  w->churn_rng =
      Rng(derive_stream_seed(derive_stream_seed(seed, 303), block));
  const geo::ClientPopulation population = geo::synthesize_population(
      w->catalog, w->backbone, params.clients_per_region, {}, world_rng);
  w->latencies = population.latencies;
  w->first_publisher = population.size();
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        member_rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<RegionId> publisher_home;
  for (std::size_t t = 0; t < params.topics; ++t) {
    const std::size_t position = pick(population.size());
    w->latencies.add_client(population.latencies.row(
        ClientId{static_cast<ClientId::underlying_type>(position)}));
    publisher_home.push_back(population.home_region[position]);
    w->constraints.push_back(
        core::DeliveryConstraint{90.0, member_rng.uniform(150.0, 400.0)});
    w->rate.push_back(
        static_cast<std::uint64_t>(member_rng.uniform_int(1, kMaxRate)));
    std::vector<std::size_t> members;
    const std::size_t n = 2 + pick(3);
    while (members.size() < n) {
      const std::size_t c = pick(population.size());
      if (std::find(members.begin(), members.end(), c) == members.end()) {
        members.push_back(c);
      }
    }
    w->members.push_back(std::move(members));
  }

  w->transport = std::make_unique<net::SimTransport>(
      w->sim, w->catalog, w->backbone, w->latencies);
  w->broker_bus = std::make_unique<LayerBus>(
      *w->transport, w->instruments, Layer::kBroker, Layer::kSimTransport);
  w->publisher_bus = std::make_unique<LayerBus>(
      *w->transport, w->instruments, Layer::kPublisher, Layer::kSimTransport);
  w->subscriber_bus = std::make_unique<LayerBus>(
      *w->transport, w->instruments, Layer::kSubscriber, Layer::kSimTransport);
  for (std::size_t r = 0; r < w->catalog.size(); ++r) {
    w->managers.push_back(std::make_unique<broker::RegionManager>(
        RegionId{static_cast<RegionId::underlying_type>(r)}, w->sim,
        *w->broker_bus));
  }
  w->controller = std::make_unique<broker::Controller>(w->catalog,
                                                       w->backbone,
                                                       w->latencies);
  for (std::size_t c = 0; c < w->first_publisher; ++c) {
    w->subscribers.push_back(std::make_unique<client::Subscriber>(
        ClientId{static_cast<ClientId::underlying_type>(c)}, w->sim,
        *w->subscriber_bus, w->latencies));
  }
  // Bootstrap: each topic starts routed at its publisher's home region.
  for (std::size_t t = 0; t < params.topics; ++t) {
    w->controller->set_constraint(w->topic(t), w->constraints[t]);
    geo::RegionSet home;
    home.add(publisher_home[t]);
    const core::TopicConfig bootstrap{home, core::DeliveryMode::kRouted};
    for (auto& manager : w->managers) {
      manager->broker().set_topic_config(w->topic(t), bootstrap);
    }
    w->publishers.push_back(std::make_unique<client::Publisher>(
        ClientId{static_cast<ClientId::underlying_type>(w->first_publisher + t)},
        w->sim, *w->publisher_bus, w->latencies));
    w->publishers.back()->set_config(w->topic(t), bootstrap);
    for (const std::size_t c : w->members[t]) {
      w->subscribers[c]->subscribe(w->topic(t), bootstrap);
    }
  }
  w->sim.run();
  // Warm-up rounds: the first deploys every topic, the rest let the
  // incremental store settle into steady churn.
  for (int i = 0; i < kWarmupRounds; ++i) {
    if (i > 0) churn(*w);
    (void)traffic_interval(*w);
    (void)control_round(*w);
  }
  return w;
}

struct ChurnPhase {
  std::vector<RoundOutcome> rounds;
  std::vector<Interval> traffic;           // per round's traffic interval
  std::vector<double> traffic_deliveries;  // per round's traffic interval
};

ChurnPhase run_rounds(ControlWorld& w, std::size_t rounds, Tracer* tracer,
                      DelayHistogram* delays) {
  ChurnPhase phase;
  for (std::size_t i = 0; i < rounds; ++i) {
    churn(w);
    for (auto& s : w.subscribers) s->clear_deliveries();  // memory bound
    if (delays != nullptr) {
      w.instruments.on_arrival = [&w, delays](const wire::Message& msg) {
        delays->add(w.sim.now() - msg.published_at, msg.weight);
      };
    }
    phase.traffic.push_back(traffic_interval(w));
    w.instruments.on_arrival = nullptr;
    phase.traffic_deliveries.push_back(static_cast<double>(delivered(w)));
    w.instruments.tracer = tracer;
    phase.rounds.push_back(control_round(w));
    w.instruments.tracer = nullptr;
  }
  return phase;
}

/// Exactly-once data plane, drops, stalled rounds, and the final assignment
/// matrix against reconfigure_full() on a fresh controller fed full
/// snapshots of the same traffic.
void audit(ControlWorld& w, Result& result) {
  (void)traffic_interval(w);
  broker::Controller fresh(w.catalog, w.backbone, w.latencies);
  for (std::size_t t = 0; t < w.params.topics; ++t) {
    fresh.set_constraint(w.topic(t), w.constraints[t]);
  }
  for (auto& manager : w.managers) {
    const auto reports = manager->collect_full_reports();
    w.controller->ingest(manager->region(), reports, /*full_snapshot=*/true);
    fresh.ingest(manager->region(), reports, /*full_snapshot=*/true);
  }
  (void)w.controller->reconfigure();
  (void)fresh.reconfigure_full();
  if (w.controller->render_assignment_matrix() !=
      fresh.render_assignment_matrix()) {
    result.fail(1, "assignment matrix differs from reconfigure_full");
  }

  DeliveryAudit deliveries;
  for (const auto& [key, count] : w.expected) {
    deliveries.add(count, w.subscribers[key.first]->unique_count(w.topic(key.second)),
                   0);
  }
  for (const auto& s : w.subscribers) deliveries.duplicates += s->duplicate_count();
  deliveries.report(result);
  result.fail(w.transport->dropped_count(), "transport drops");
  result.fail(w.stalled, "stalled rounds");
}

}  // namespace

Result run_control_churn(const RunOptions& options) {
  const ControlParams params = make_params(options);
  Result result;
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const std::size_t per_block =
      std::max<std::size_t>(1, params.rounds / kBlocks);

  if (!options.trace) {
    std::vector<double> setups;
    std::vector<double> round_ms;
    std::vector<Interval> traffic;
    std::vector<double> traffic_deliveries;
    DelayHistogram delays;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const std::int64_t t0 = now_ns();
      const std::unique_ptr<ControlWorld> world =
          build_world(params, options.seed, b);
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      world->instruments.drop_after(options.drop_delivery);
      const ChurnPhase phase = run_rounds(*world, per_block, nullptr, &delays);
      audit(*world, result);
      result.attempted += phase.rounds.size();
      for (std::size_t i = 0; i < phase.rounds.size(); ++i) {
        round_ms.push_back(phase.rounds[i].times.total());
        traffic.push_back(phase.traffic[i]);
        traffic_deliveries.push_back(phase.traffic_deliveries[i]);
      }
    }
    // Fastest world blocks; every round of a kept block counts, and so does
    // the traffic interval before it.
    const std::vector<bool> kept =
        fastest_items(round_ms, kBlocks, kKeepFraction);
    std::vector<double> kept_rounds;
    double traffic_s = 0.0;
    double traffic_cpu_s = 0.0;
    double deliveries = 0.0;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (!kept[i]) continue;
      kept_rounds.push_back(round_ms[i]);
      traffic_s += traffic[i].wall_s;
      traffic_cpu_s += traffic[i].cpu_s;
      deliveries += traffic_deliveries[i];
    }
    result.set("setup_s", median(setups));
    result.set("deliveries_per_s", per(deliveries, traffic_s));
    result.set("busy_us_per_delivery", per(traffic_cpu_s * 1e6, deliveries));
    result.set("deliver_p50_ms", delays.percentile(0.50));
    result.set("deliver_p99_ms", delays.percentile(0.99));
    result.set("round_p50_ms", percentile(kept_rounds, 0.50));
    result.set("round_p99_ms", percentile(kept_rounds, 0.99));
    result.set("peak_rss_mb", peak_rss_mb());
    return result;
  }

  // Traced run: pairs of blocks, the first untraced and the second traced,
  // each on a fresh world and both running the pair's churn stream. Only
  // the first block runs on a heap that has not held a world before, so the
  // two halves see the same memory conditions.
  Tracer tracer;
  std::vector<RoundOutcome> plain;
  std::vector<RoundOutcome> traced;
  double dropped = 0.0;
  for (std::size_t b = 0; b < kBlocks / 2; ++b) {
    for (Tracer* t : {static_cast<Tracer*>(nullptr), &tracer}) {
      const std::unique_ptr<ControlWorld> world =
          build_world(params, options.seed, b);
      world->instruments.drop_after(options.drop_delivery);
      const ChurnPhase phase = run_rounds(*world, per_block, t, nullptr);
      audit(*world, result);
      auto& into = t == nullptr ? plain : traced;
      into.insert(into.end(), phase.rounds.begin(), phase.rounds.end());
      if (t != nullptr) {
        dropped += static_cast<double>(world->transport->dropped_count());
      }
    }
  }
  result.attempted += plain.size() + traced.size();

  std::vector<double> collect, ingest, reconf, deploy;
  double wall_ms = 0.0;
  double plain_ms = 0.0;
  double reconfigure_ms = 0.0;
  double dirty = 0.0, evaluated = 0.0, tracked = 0.0, changed = 0.0;
  for (const auto& r : traced) {
    collect.push_back(r.times.collect_ms);
    ingest.push_back(r.times.ingest_ms);
    reconf.push_back(r.times.reconfigure_ms);
    deploy.push_back(r.times.deploy_settle_ms);
    wall_ms += r.times.total();
    reconfigure_ms += r.times.reconfigure_ms;
    dirty += static_cast<double>(r.dirty);
    evaluated += static_cast<double>(r.evaluated);
    tracked += static_cast<double>(r.tracked);
    changed += static_cast<double>(r.changed);
  }
  for (const auto& r : plain) plain_ms += r.times.total();
  const double n = static_cast<double>(traced.size());
  result.set("broker.region_manager.collect_ms", median(collect));
  result.set("broker.controller.ingest_ms", median(ingest));
  result.set("broker.controller.reconfigure_ms", median(reconf));
  result.set("broker.deploy_settle_ms", median(deploy));
  result.set("core.dirty_per_round", per(dirty, n));
  result.set("core.evaluated_per_round", per(evaluated, n));
  result.set("core.evaluated_frac", per(evaluated, tracked));
  result.set("core.changed_frac", per(changed, evaluated));
  result.set("core.ms_per_evaluated_topic", per(reconfigure_ms, evaluated));
  result.set("broker.handle_calls",
             static_cast<double>(tracer.calls(Layer::kBroker)));
  result.set("broker.self_ns_per_handle",
             per(static_cast<double>(tracer.self_ns(Layer::kBroker)),
                 static_cast<double>(tracer.calls(Layer::kBroker))));
  result.set("net.sim_transport.dropped", dropped);
  result.set("trace.overhead_frac",
             per(wall_ms, n) / per(plain_ms, static_cast<double>(plain.size())) -
                 1.0);
  report_trace(tracer, wall_ms * 1e6, options, result);
  return result;
}

}  // namespace perfbench
