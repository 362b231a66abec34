// des_fanout and des_cohort: the DES twin's data plane driven from one
// thread.
//
// World (both planes): the bench_dataplane shape — 40 synthetic regions,
// 500 routed topics each served by 3 seeded regions, 1 KiB payloads, one
// real client::Publisher per topic and real Broker objects in every region.
//   des_fanout : 10k clients, 50 client::Subscriber endpoints per topic.
//   des_cohort : ~1M clients over 2,000 positions x 2 topic sets (4,000
//                (position, topic-set) pairs of 6 topics each), folded by
//                client::CohortPool into ~250-member cohorts, ~48 flocks
//                per topic.
//
// Measured phase: every topic publishes every kPubIntervalMs of virtual
// time (open loop in virtual time, so hundreds of thousands of events are
// in flight); the harness advances the simulator in kSliceMs virtual slices
// and times each run_until call. The untraced run makes kRepeats such
// phases on fresh worlds and keeps each stretch of slices from the repeat
// that ran it fastest (see run_des). Delivery times are the simulated
// publish-to-deliver times the endpoints record, never wall-clock readings
// of the virtual-time run.
#include <algorithm>
#include <memory>

#include "broker/broker.h"
#include "checks.h"
#include "client/client_registry.h"
#include "client/cohort_pool.h"
#include "client/publisher.h"
#include "client/subscriber.h"
#include "client/topic_set_pool.h"
#include "common/arena.h"
#include "common/rng.h"
#include "core/config.h"
#include "geo/king_synth.h"
#include "geo/synthetic.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace multipub;

constexpr Bytes kPayload = 1024;
constexpr std::uint64_t kWorldSeed = 4242;
constexpr Millis kPubIntervalMs = 20.0;  // per topic, virtual
constexpr Millis kSliceMs = 0.25;       // virtual time per timed run_until
constexpr Millis kRampMs = 300.0;       // in-flight window filling up
// The dense phase runs kRepeats times per run, each on a fresh world; every
// build is one setup_s sample. Steady slices are compared across repeats in
// segments of kSlicesPerSegment (25 ms of virtual time).
constexpr int kRepeats = 6;
constexpr std::size_t kSlicesPerSegment = 100;
constexpr std::size_t kFoldEverySlices = 64;
// Publications per second of --seconds, sized so the measured phase takes
// about --seconds on a 4-core Xeon host.
constexpr double kFanoutPubsPerSecond = 6700.0;
constexpr double kCohortPubsPerSecond = 5700.0;

struct DesParams {
  bool cohorts = false;
  std::size_t regions = 40;
  std::size_t topics = 500;
  std::size_t serving = 3;
  // Per-client plane.
  std::size_t clients_per_region = 250;
  std::size_t subs_per_topic = 50;
  // Cohort plane.
  std::size_t positions_per_region = 50;
  std::size_t sets_per_position = 2;
  std::size_t topics_per_set = 6;
  std::size_t cohort_clients = 1000000;
  std::uint64_t publications = 0;  // dense phase, all topics together
};

DesParams make_params(const RunOptions& options, bool cohorts) {
  DesParams p;
  p.cohorts = cohorts;
  const double s = std::clamp(options.scale, 0.001, 1.0);
  if (s < 1.0) {
    p.regions = s < 0.2 ? 8 : 40;
    p.topics = std::max<std::size_t>(16, static_cast<std::size_t>(500 * s));
    p.clients_per_region = std::max<std::size_t>(
        30, static_cast<std::size_t>(250 * s));
    p.subs_per_topic = std::max<std::size_t>(5, static_cast<std::size_t>(50 * s));
    p.positions_per_region = std::max<std::size_t>(
        6, static_cast<std::size_t>(50 * s));
    p.cohort_clients = std::max<std::size_t>(
        2000, static_cast<std::size_t>(1000000 * s));
  }
  const double rate = cohorts ? kCohortPubsPerSecond : kFanoutPubsPerSecond;
  p.publications = std::max<std::uint64_t>(
      p.topics, static_cast<std::uint64_t>(rate * options.seconds * s));
  return p;
}

/// One DES world. Members are declared in dependency order: everything a
/// later member borrows is constructed before it and destroyed after it.
struct DesWorld {
  DesParams params;
  geo::SyntheticWorld world;
  geo::ClientLatencyMap latencies;  // subscribers/positions, then publishers
  std::vector<core::TopicConfig> configs;
  std::vector<RegionId> entry;  // region each topic's publisher sends to
  // Expected books: per topic, how many subscribers (cohort: members) are
  // attached at each region.
  std::vector<std::vector<std::uint64_t>> attached;
  std::vector<std::vector<TopicId>> client_topics;  // per-client plane

  net::Simulator sim;
  std::unique_ptr<net::SimTransport> transport;
  Instruments instruments;
  std::unique_ptr<LayerBus> broker_bus;
  std::unique_ptr<LayerBus> publisher_bus;
  std::unique_ptr<LayerBus> subscriber_bus;
  std::vector<std::unique_ptr<broker::Broker>> brokers;
  std::vector<std::unique_ptr<client::Publisher>> publishers;
  std::vector<std::unique_ptr<client::Subscriber>> subscribers;
  std::unique_ptr<Arena> arena;
  std::unique_ptr<client::TopicSetPool> topic_sets;
  std::unique_ptr<client::ClientRegistry> registry;
  std::unique_ptr<client::CohortPool> pool;

  std::vector<std::uint64_t> published;  // per topic
  double enroll_s = 0.0;
  double deploy_s = 0.0;

  DesWorld() = default;
  DesWorld(const DesWorld&) = delete;
  DesWorld& operator=(const DesWorld&) = delete;
  ~DesWorld() {
    if (transport != nullptr) transport->set_cohort_directory(nullptr);
  }

  [[nodiscard]] TopicId topic(std::size_t t) const {
    return TopicId{static_cast<TopicId::underlying_type>(t)};
  }

  /// Drops the endpoints' per-delivery records (memory bound); dedup state
  /// and delivery totals stay.
  void fold_records() {
    if (pool != nullptr) pool->clear_arrivals();
    for (auto& s : subscribers) s->clear_deliveries();
  }
};

std::unique_ptr<DesWorld> build_world(const DesParams& params,
                                      std::uint64_t seed) {
  auto w = std::make_unique<DesWorld>();
  w->params = params;
  // The world (region layout, client positions) is bench_dataplane's fixed
  // one; the seed draws everything that runs on it.
  Rng world_rng(kWorldSeed);
  Rng member_rng(derive_stream_seed(seed, 102));
  w->world = geo::synthesize_world(params.regions, {}, world_rng);
  const std::size_t per_region = params.cohorts ? params.positions_per_region
                                                : params.clients_per_region;
  geo::ClientPopulation population = geo::synthesize_population(
      w->world.catalog, w->world.backbone, per_region, {}, world_rng);
  const std::size_t positions = population.size();
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        member_rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  // Topics: seeded serving sets, publisher positions.
  w->configs.resize(params.topics);
  std::vector<std::size_t> publisher_position(params.topics);
  for (std::size_t t = 0; t < params.topics; ++t) {
    geo::RegionSet serving;
    while (static_cast<std::size_t>(serving.size()) < params.serving) {
      serving.add(RegionId{static_cast<RegionId::underlying_type>(
          pick(params.regions))});
    }
    w->configs[t] = core::TopicConfig{serving, core::DeliveryMode::kRouted};
    publisher_position[t] = pick(positions);
  }

  // Endpoint latency rows: the per-client plane keeps the whole population
  // (ids 0..n-1 are subscribers) and appends one row per publisher; the
  // cohort plane's flocks take their latencies from the registry, so the
  // transport's map only holds the publishers.
  const std::size_t first_publisher = params.cohorts ? 0 : positions;
  w->latencies = params.cohorts ? geo::ClientLatencyMap(params.regions)
                                : population.latencies;
  for (std::size_t t = 0; t < params.topics; ++t) {
    w->latencies.add_client(population.latencies.row(ClientId{
        static_cast<ClientId::underlying_type>(publisher_position[t])}));
  }
  w->entry.resize(params.topics);
  for (std::size_t t = 0; t < params.topics; ++t) {
    w->entry[t] = w->latencies.closest_region(
        ClientId{static_cast<ClientId::underlying_type>(first_publisher + t)},
        w->configs[t].regions);
  }

  w->transport = std::make_unique<net::SimTransport>(
      w->sim, w->world.catalog, w->world.backbone, w->latencies);
  w->broker_bus = std::make_unique<LayerBus>(
      *w->transport, w->instruments, Layer::kBroker, Layer::kSimTransport);
  w->publisher_bus = std::make_unique<LayerBus>(
      *w->transport, w->instruments, Layer::kPublisher, Layer::kSimTransport);
  w->subscriber_bus = std::make_unique<LayerBus>(
      *w->transport, w->instruments,
      params.cohorts ? Layer::kCohort : Layer::kSubscriber,
      Layer::kSimTransport);

  w->attached.assign(params.topics,
                     std::vector<std::uint64_t>(params.regions, 0));
  if (params.cohorts) {
    // (position, topic set) pairs, then clients spread over them.
    const std::size_t pairs = positions * params.sets_per_position;
    std::vector<std::vector<TopicId>> pair_topics(pairs);
    for (auto& topics : pair_topics) {
      while (topics.size() < params.topics_per_set) {
        const TopicId t = w->topic(pick(params.topics));
        if (std::find(topics.begin(), topics.end(), t) == topics.end()) {
          topics.push_back(t);
        }
      }
      std::sort(topics.begin(), topics.end());
    }
    std::vector<std::size_t> pair_of(params.cohort_clients);
    std::vector<std::uint64_t> pair_weight(pairs, 0);
    for (auto& pair : pair_of) {
      pair = pick(pairs);
      ++pair_weight[pair];
    }
    for (std::size_t pair = 0; pair < pairs; ++pair) {
      const ClientId position{static_cast<ClientId::underlying_type>(
          pair / params.sets_per_position)};
      for (const TopicId t : pair_topics[pair]) {
        const auto ti = static_cast<std::size_t>(t.value());
        const RegionId at =
            population.latencies.closest_region(position, w->configs[ti].regions);
        w->attached[ti][at.index()] += pair_weight[pair];
      }
    }

    const std::int64_t t0 = now_ns();
    w->arena = std::make_unique<Arena>();
    w->topic_sets = std::make_unique<client::TopicSetPool>(*w->arena);
    std::vector<std::int32_t> pair_set(pairs);
    for (std::size_t pair = 0; pair < pairs; ++pair) {
      pair_set[pair] = w->topic_sets->intern(pair_topics[pair]);
    }
    w->registry = std::make_unique<client::ClientRegistry>(
        params.cohort_clients, params.regions, /*row_bucket_ms=*/0.0,
        *w->arena);
    w->pool = std::make_unique<client::CohortPool>(
        *w->registry, *w->topic_sets, w->sim, *w->subscriber_bus);
    for (std::size_t c = 0; c < params.cohort_clients; ++c) {
      const std::size_t position = pair_of[c] / params.sets_per_position;
      const ClientId id = w->registry->add(
          population.home_region[position],
          population.latencies.row(
              ClientId{static_cast<ClientId::underlying_type>(position)}),
          pair_set[pair_of[c]]);
      w->pool->enroll(id);
    }
    w->transport->set_cohort_directory(w->pool.get());
    w->enroll_s = static_cast<double>(now_ns() - t0) * 1e-9;
  } else {
    w->client_topics.resize(positions);
    for (std::size_t t = 0; t < params.topics; ++t) {
      std::vector<std::size_t> chosen;
      while (chosen.size() < params.subs_per_topic) {
        const std::size_t c = pick(positions);
        if (std::find(chosen.begin(), chosen.end(), c) == chosen.end()) {
          chosen.push_back(c);
        }
      }
      for (const std::size_t c : chosen) {
        w->client_topics[c].push_back(w->topic(t));
        const RegionId at = population.latencies.closest_region(
            ClientId{static_cast<ClientId::underlying_type>(c)},
            w->configs[t].regions);
        ++w->attached[t][at.index()];
      }
    }
  }

  for (std::size_t r = 0; r < params.regions; ++r) {
    w->brokers.push_back(std::make_unique<broker::Broker>(
        RegionId{static_cast<RegionId::underlying_type>(r)}, w->sim,
        *w->broker_bus));
  }
  for (std::size_t t = 0; t < params.topics; ++t) {
    for (auto& b : w->brokers) b->set_topic_config(w->topic(t), w->configs[t]);
    auto publisher = std::make_unique<client::Publisher>(
        ClientId{static_cast<ClientId::underlying_type>(first_publisher + t)},
        w->sim, *w->publisher_bus, w->latencies);
    publisher->set_config(w->topic(t), w->configs[t]);
    w->publishers.push_back(std::move(publisher));
  }

  const std::int64_t deploy_t0 = now_ns();
  if (params.cohorts) {
    for (std::size_t t = 0; t < params.topics; ++t) {
      w->pool->deploy(w->topic(t), w->configs[t]);
    }
  } else {
    for (std::size_t c = 0; c < w->client_topics.size(); ++c) {
      if (w->client_topics[c].empty()) continue;
      auto sub = std::make_unique<client::Subscriber>(
          ClientId{static_cast<ClientId::underlying_type>(c)}, w->sim,
          *w->subscriber_bus, w->latencies);
      for (const TopicId t : w->client_topics[c]) {
        sub->subscribe(t, w->configs[static_cast<std::size_t>(t.value())]);
      }
      w->subscribers.push_back(std::move(sub));
    }
  }
  w->sim.run();  // settle the subscription handshakes
  w->deploy_s = static_cast<double>(now_ns() - deploy_t0) * 1e-9;
  w->published.assign(params.topics, 0);
  return w;
}

/// Per-topic generator: publishes every kPubIntervalMs of virtual time.
struct Driver {
  DesWorld* world;
  std::size_t topic;
  std::uint64_t remaining;

  void fire() {
    Tracer* tracer = world->instruments.tracer;
    {
      Scope gen(tracer, Layer::kGen);
      {
        Scope pub(tracer, Layer::kPublisher);
        world->publishers[topic]->publish(world->topic(topic), kPayload);
      }
      ++world->published[topic];
      if (--remaining > 0) {
        world->sim.schedule_after(kPubIntervalMs, [this] { fire(); });
      }
    }
  }
};

/// Outcome of one dense phase.
struct DensePhase {
  double wall_s = 0.0;
  std::uint64_t deliveries = 0;
  std::uint64_t publications = 0;
  std::uint64_t events = 0;
  // Steady-state slices (in-flight window full, generators running).
  std::vector<double> slice_ms;
  std::vector<double> slice_cpu_ms;  // process CPU time of the slice
  std::vector<double> slice_deliveries;
};

DensePhase run_dense(DesWorld& w, std::uint64_t publications,
                     DelayHistogram* delays) {
  const DesParams& p = w.params;
  const std::uint64_t per_topic =
      std::max<std::uint64_t>(1, publications / p.topics);
  std::vector<std::unique_ptr<Driver>> drivers;
  const Millis start = w.sim.now();
  for (std::size_t t = 0; t < p.topics; ++t) {
    drivers.push_back(std::make_unique<Driver>(Driver{&w, t, per_topic}));
    Driver* driver = drivers.back().get();
    w.sim.schedule_at(start + kPubIntervalMs * static_cast<double>(t) /
                                  static_cast<double>(p.topics),
                      [driver] { driver->fire(); });
  }
  const Millis last_publication =
      start + kPubIntervalMs * static_cast<double>(per_topic);
  // Slices count once the in-flight window has filled (short runs: after
  // the first quarter) and until the generators stop.
  const Millis steady_from =
      start + std::min(kRampMs, (last_publication - start) / 4);
  if (delays != nullptr) {
    // The simulated publish-to-deliver time, exactly as the endpoint
    // computes it.
    w.instruments.on_arrival = [&w, delays](const wire::Message& msg) {
      delays->add(w.sim.now() - msg.published_at, msg.weight);
    };
  }

  DensePhase phase;
  phase.publications = per_topic * p.topics;
  const std::uint64_t weight_before = w.instruments.arrival_weight;
  const std::uint64_t events_before = w.sim.processed();
  Tracer* tracer = w.instruments.tracer;
  Millis horizon = start;
  std::int64_t wall_ns = 0;
  std::size_t slices = 0;
  while (w.sim.pending() > 0) {
    horizon += kSliceMs;
    const std::uint64_t delivered = w.instruments.arrival_weight;
    const bool steady =
        horizon - kSliceMs >= steady_from && horizon <= last_publication;
    const std::int64_t cpu0 = steady ? process_cpu_ns() : 0;
    const std::int64_t t0 = now_ns();
    {
      Scope bench(tracer, Layer::kBench);
      Scope sim(tracer, Layer::kNetSim);
      w.sim.run_until(horizon);
    }
    const std::int64_t dt = now_ns() - t0;
    wall_ns += dt;
    if (steady) {
      phase.slice_cpu_ms.push_back(
          static_cast<double>(process_cpu_ns() - cpu0) * 1e-6);
      phase.slice_ms.push_back(static_cast<double>(dt) * 1e-6);
      phase.slice_deliveries.push_back(
          static_cast<double>(w.instruments.arrival_weight - delivered));
    }
    if (++slices % kFoldEverySlices == 0) {
      w.fold_records();
    }
  }
  w.instruments.on_arrival = nullptr;
  w.fold_records();
  phase.wall_s = static_cast<double>(wall_ns) * 1e-9;
  phase.deliveries = w.instruments.arrival_weight - weight_before;
  phase.events = w.sim.processed() - events_before;
  return phase;
}

/// Exactly-once, drop and billing audits against the closed form.
void audit(DesWorld& w, Result& result) {
  const DesParams& p = w.params;
  DeliveryAudit deliveries;
  if (p.cohorts) {
    std::vector<std::uint64_t> subscribed(p.topics, 0);
    for (std::size_t f = 0; f < w.pool->flock_count(); ++f) {
      const auto flock = static_cast<std::int32_t>(f);
      const auto t = static_cast<std::size_t>(w.pool->flock_topic(flock).value());
      const std::uint64_t weight = w.pool->flock_weight(flock);
      subscribed[t] += weight;
      deliveries.add(w.published[t] * weight,
                     w.pool->flock_complete_count(flock) * weight, 0);
    }
    deliveries.duplicates += w.pool->duplicate_weight();
    std::uint64_t expected_total = 0;
    for (std::size_t t = 0; t < p.topics; ++t) {
      std::uint64_t members = 0;
      for (const std::uint64_t n : w.attached[t]) members += n;
      if (members != subscribed[t]) {
        result.fail(1, "topic whose flocks do not cover its subscribers");
      }
      expected_total += w.published[t] * members;
    }
    const std::uint64_t total = w.pool->total_delivery_weight();
    if (total != expected_total) {
      result.fail(total > expected_total ? total - expected_total
                                         : expected_total - total,
                  "weighted deliveries off the expected total");
    }
  } else {
    for (const auto& sub : w.subscribers) {
      for (const TopicId t :
           w.client_topics[static_cast<std::size_t>(sub->id().value())]) {
        deliveries.add(w.published[static_cast<std::size_t>(t.value())],
                       sub->unique_count(t), 0);
      }
      deliveries.duplicates += sub->duplicate_count();
    }
  }
  deliveries.report(result);
  result.fail(w.transport->dropped_count(), "transport drops");

  std::vector<Bytes> inter(p.regions, 0);
  std::vector<Bytes> internet(p.regions, 0);
  for (std::size_t t = 0; t < p.topics; ++t) {
    const Bytes published_bytes = kPayload * w.published[t];
    inter[w.entry[t].index()] +=
        published_bytes * (w.configs[t].regions.size() - 1);
    for (std::size_t r = 0; r < p.regions; ++r) {
      internet[r] += published_bytes * w.attached[t][r];
    }
  }
  const net::CostLedger& ledger = w.transport->ledger();
  audit_ledger(inter, internet, ledger.inter_region_bytes,
               ledger.internet_bytes, "closed-form billing", result);
}

Result run_des(const RunOptions& options, bool cohorts) {
  const DesParams params = make_params(options, cohorts);
  Result result;
  std::unique_ptr<DesWorld> world;

  if (!options.trace) {
    std::vector<double> setups;
    std::vector<DensePhase> repeats;
    DelayHistogram delays;
    for (int r = 0; r < kRepeats; ++r) {
      world.reset();  // the previous world's memory is gone before timing
      const std::int64_t t0 = now_ns();
      world = build_world(params, options.seed);
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      world->instruments.drop_after(options.drop_delivery);
      // At least four publications per topic, so that a short run still
      // has steady slices.
      repeats.push_back(run_dense(
          *world,
          std::max<std::uint64_t>(4 * params.topics,
                                  params.publications / kRepeats),
          &delays));
      audit(*world, result);
    }
    // Every repeat replays the same seeded publications on a fresh world,
    // so steady slice i does the same work in each. For every segment of
    // slices the repeat that ran it in the least wall time is kept, and the
    // timed figures are taken over the kept segments: one whole dense phase,
    // each stretch as it ran in its fastest repeat. The host's slow phases
    // fall on different segments in different repeats and drop out; the
    // program's own stalls, such as the Subscribers' dedup sets rehashing
    // together as they grow, recur at the same slice of every repeat and
    // stay in.
    std::size_t n = repeats.front().slice_ms.size();
    for (const DensePhase& d : repeats) n = std::min(n, d.slice_ms.size());
    double steady_ms = 0.0;
    double steady_cpu_ms = 0.0;
    double steady_deliveries = 0.0;
    std::vector<double> slices;
    for (std::size_t from = 0; from < n; from += kSlicesPerSegment) {
      const std::size_t to = std::min(n, from + kSlicesPerSegment);
      const auto wall = [&](const DensePhase& d) {
        double sum = 0.0;
        for (std::size_t i = from; i < to; ++i) sum += d.slice_ms[i];
        return sum;
      };
      const DensePhase* fastest = &repeats.front();
      for (const DensePhase& d : repeats) {
        if (wall(d) < wall(*fastest)) fastest = &d;
      }
      for (std::size_t i = from; i < to; ++i) {
        steady_ms += fastest->slice_ms[i];
        steady_cpu_ms += fastest->slice_cpu_ms[i];
        steady_deliveries += fastest->slice_deliveries[i];
        slices.push_back(fastest->slice_ms[i]);
      }
    }
    result.set("setup_s", median(setups));
    result.set("deliveries_per_s", steady_deliveries / (steady_ms * 1e-3));
    result.set("busy_us_per_delivery",
               steady_cpu_ms * 1e3 / steady_deliveries);
    result.set("deliver_p50_ms", delays.percentile(0.50));
    result.set("deliver_p99_ms", delays.percentile(0.99));
    result.set("round_p50_ms", percentile(slices, 0.50));
    result.set("round_p99_ms", percentile(slices, 0.99));
    result.set("peak_rss_mb", peak_rss_mb());
    return result;
  }

  // Traced run: half the work untraced, then half traced on the same world.
  world = build_world(params, options.seed);
  world->instruments.drop_after(options.drop_delivery);
  const DensePhase plain =
      run_dense(*world, params.publications / 2, nullptr);
  Tracer tracer;
  world->instruments.tracer = &tracer;
  const std::uint64_t sends0 = world->instruments.send_calls;
  const std::uint64_t batches0 = world->instruments.batch_calls;
  const std::uint64_t targets0 = world->instruments.batch_targets;
  std::uint64_t delivered0 = 0;
  std::uint64_t forwarded0 = 0;
  for (const auto& b : world->brokers) {
    delivered0 += b->delivered_count();
    forwarded0 += b->forwarded_count();
  }
  const DensePhase traced =
      run_dense(*world, params.publications / 2, nullptr);
  world->instruments.tracer = nullptr;
  audit(*world, result);

  const double wall_ns = traced.wall_s * 1e9;
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  for (const auto& b : world->brokers) {
    delivered += b->delivered_count();
    forwarded += b->forwarded_count();
  }
  const double sends =
      static_cast<double>(world->instruments.send_calls - sends0);
  const double batches =
      static_cast<double>(world->instruments.batch_calls - batches0);
  const double targets =
      static_cast<double>(world->instruments.batch_targets - targets0);
  const auto self = [&](Layer l) {
    return static_cast<double>(tracer.self_ns(l));
  };
  const auto calls = [&](Layer l) {
    return static_cast<double>(tracer.calls(l));
  };
  result.set("net.sim.events", static_cast<double>(traced.events));
  result.set("net.sim.self_ns_per_event",
             per(self(Layer::kNetSim), static_cast<double>(traced.events)));
  result.set("net.sim_transport.send_calls", sends);
  result.set("net.sim_transport.batch_calls", batches);
  result.set("net.sim_transport.targets_per_batch", per(targets, batches));
  result.set("net.sim_transport.ns_per_target",
             per(self(Layer::kSimTransport), sends + targets));
  result.set("net.sim_transport.dropped",
             static_cast<double>(world->transport->dropped_count()));
  result.set("broker.handle_calls", calls(Layer::kBroker));
  result.set("broker.self_ns_per_handle",
             per(self(Layer::kBroker), calls(Layer::kBroker)));
  const double pubs = static_cast<double>(traced.publications);
  result.set("broker.deliveries_per_publish",
             per(static_cast<double>(delivered - delivered0), pubs));
  result.set("broker.forwards_per_publish",
             per(static_cast<double>(forwarded - forwarded0), pubs));
  result.set("client.subscriber.self_ns_per_delivery",
             per(self(Layer::kSubscriber), calls(Layer::kSubscriber)));
  if (cohorts) {
    result.set("client.cohort.enroll_s", world->enroll_s);
    result.set("client.cohort.deploy_s", world->deploy_s);
    result.set("client.cohort.cohorts",
               static_cast<double>(world->pool->cohort_count()));
    result.set("client.cohort.flocks",
               static_cast<double>(world->pool->flock_count()));
    result.set("client.cohort.weight_per_event",
               per(static_cast<double>(traced.deliveries),
                   calls(Layer::kCohort)));
    result.set("client.cohort.self_ns_per_flock_delivery",
               per(self(Layer::kCohort), calls(Layer::kCohort)));
  }
  result.set("trace.overhead_frac",
             per(traced.wall_s, static_cast<double>(traced.deliveries)) /
                     per(plain.wall_s, static_cast<double>(plain.deliveries)) -
                 1.0);
  report_trace(tracer, wall_ns, options, result);
  return result;
}

}  // namespace

Result run_des_fanout(const RunOptions& options) {
  return run_des(options, /*cohorts=*/false);
}

Result run_des_cohort(const RunOptions& options) {
  return run_des(options, /*cohorts=*/true);
}

}  // namespace perfbench
