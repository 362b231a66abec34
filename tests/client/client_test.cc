// Publisher/Subscriber endpoint unit tests (the live suites cover them
// end-to-end; these pin the per-endpoint behaviours in isolation).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "client/publisher.h"
#include "client/subscriber.h"
#include "common/rng.h"
#include "common/seq_set.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "testutil.h"

namespace multipub::client {
namespace {

using testutil::TinyWorld;

class ClientEndpointTest : public ::testing::Test {
 protected:
  ClientEndpointTest() {
    for (int r = 0; r < 3; ++r) {
      transport_.register_handler(
          net::Address::region(RegionId{r}),
          [this, r](const wire::Message& msg) {
            region_inbox_[RegionId{r}].push_back(msg);
          });
    }
  }

  static core::TopicConfig config(std::uint64_t mask, core::DeliveryMode mode) {
    return {geo::RegionSet(mask), mode};
  }

  TinyWorld world_;
  net::Simulator sim_;
  net::SimTransport transport_{sim_, world_.catalog, world_.backbone,
                               world_.clients};
  std::map<RegionId, std::vector<wire::Message>> region_inbox_;
};

TEST_F(ClientEndpointTest, DirectPublishFansOutToEveryServingRegion) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  pub.set_config(TopicId{0}, config(0b111, core::DeliveryMode::kDirect));
  pub.publish(TopicId{0}, 512);
  sim_.run();
  EXPECT_EQ(region_inbox_[TinyWorld::kA].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kB].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kC].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kA][0].config_mode,
            wire::WireMode::kDirect);
}

TEST_F(ClientEndpointTest, RoutedPublishTargetsClosestServingRegionOnly) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  // Closest of {B, C} for nearA ([10,100,80]) is C.
  pub.set_config(TopicId{0}, config(0b110, core::DeliveryMode::kRouted));
  pub.publish(TopicId{0}, 512);
  sim_.run();
  EXPECT_TRUE(region_inbox_[TinyWorld::kA].empty());
  EXPECT_TRUE(region_inbox_[TinyWorld::kB].empty());
  ASSERT_EQ(region_inbox_[TinyWorld::kC].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kC][0].config_mode,
            wire::WireMode::kRouted);
}

TEST_F(ClientEndpointTest, SequenceNumbersAreMonotonePerPublisher) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  pub.set_config(TopicId{0}, config(0b001, core::DeliveryMode::kDirect));
  for (int i = 0; i < 5; ++i) pub.publish(TopicId{0}, 64);
  sim_.run();
  const auto& msgs = region_inbox_[TinyWorld::kA];
  ASSERT_EQ(msgs.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(msgs[i].seq, i);
  EXPECT_EQ(pub.published_count(), 5u);
}

TEST_F(ClientEndpointTest, FirstConfigUpdateAppliesImmediately) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  wire::Message update;
  update.type = wire::MessageType::kConfigUpdate;
  update.topic = TopicId{0};
  update.config_regions = geo::RegionSet(0b010);
  update.config_mode = wire::WireMode::kDirect;
  transport_.send(net::Address::region(TinyWorld::kA),
                  net::Address::client(TinyWorld::kNearA), update);
  sim_.run();
  ASSERT_NE(pub.config(TopicId{0}), nullptr);
  EXPECT_EQ(pub.config(TopicId{0})->regions.mask(), 0b010u);
}

TEST_F(ClientEndpointTest, SubsequentConfigUpdateDefersByGrace) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  pub.set_config(TopicId{0}, config(0b001, core::DeliveryMode::kDirect));
  pub.set_handover_grace(500.0);

  wire::Message update;
  update.type = wire::MessageType::kConfigUpdate;
  update.topic = TopicId{0};
  update.config_regions = geo::RegionSet(0b010);
  update.config_mode = wire::WireMode::kDirect;
  transport_.send(net::Address::region(TinyWorld::kA),
                  net::Address::client(TinyWorld::kNearA), update);

  // Update arrives at L[nearA][A] = 10 ms; applies at 510 ms.
  sim_.run_until(100.0);
  EXPECT_EQ(pub.config(TopicId{0})->regions.mask(), 0b001u);
  sim_.run();
  EXPECT_EQ(pub.config(TopicId{0})->regions.mask(), 0b010u);
}

TEST_F(ClientEndpointTest, SubscriberRecordsDeliveryLatency) {
  Subscriber sub(TinyWorld::kNearB, sim_, transport_, world_.clients);
  wire::Message deliver;
  deliver.type = wire::MessageType::kDeliver;
  deliver.topic = TopicId{0};
  deliver.publisher = TinyWorld::kNearA;
  deliver.seq = 9;
  deliver.published_at = 0.0;
  transport_.send(net::Address::region(TinyWorld::kB),
                  net::Address::client(TinyWorld::kNearB), deliver);
  sim_.run();
  ASSERT_EQ(sub.deliveries().size(), 1u);
  EXPECT_DOUBLE_EQ(sub.deliveries()[0].delivery_time, 15.0);  // L[nearB][B]
  EXPECT_EQ(sub.deliveries()[0].seq, 9u);
}

TEST_F(ClientEndpointTest, SubscriberIgnoresUpdatesForUnknownTopics) {
  Subscriber sub(TinyWorld::kNearB, sim_, transport_, world_.clients);
  wire::Message update;
  update.type = wire::MessageType::kConfigUpdate;
  update.topic = TopicId{42};  // never subscribed
  update.config_regions = geo::RegionSet(0b001);
  transport_.send(net::Address::region(TinyWorld::kB),
                  net::Address::client(TinyWorld::kNearB), update);
  sim_.run();
  EXPECT_FALSE(sub.attached_region(TopicId{42}).valid());
}

TEST_F(ClientEndpointTest, UnsubscribeClearsAttachmentAndFilter) {
  Subscriber sub(TinyWorld::kNearB, sim_, transport_, world_.clients);
  sub.subscribe(TopicId{0}, config(0b010, core::DeliveryMode::kDirect),
                wire::KeyFilter{1, 2});
  sim_.run();
  EXPECT_EQ(sub.attached_region(TopicId{0}), TinyWorld::kB);

  sub.unsubscribe(TopicId{0});
  sim_.run();
  EXPECT_FALSE(sub.attached_region(TopicId{0}).valid());
  ASSERT_EQ(region_inbox_[TinyWorld::kB].size(), 2u);
  EXPECT_EQ(region_inbox_[TinyWorld::kB][1].type,
            wire::MessageType::kUnsubscribe);
}

TEST_F(ClientEndpointTest, ProberWorksForBothEndpointKinds) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  Subscriber sub(TinyWorld::kNearB, sim_, transport_, world_.clients);
  // No broker behind the region addresses here; pings land in the region
  // inbox. Just assert the sends happen (pong handling is covered by the
  // latency-monitoring integration suite).
  pub.probe_latencies(geo::RegionSet(0b011));
  sub.probe_latencies(geo::RegionSet(0b100));
  sim_.run();
  EXPECT_EQ(pub.prober().pings_sent(), 2u);
  EXPECT_EQ(sub.prober().pings_sent(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kC].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kC][0].type, wire::MessageType::kPing);
}

// Dedup regression: publications from two publishers on two topics arrive
// shuffled, over two regions (the make-before-break overlap sends part of
// each stream from both the old and the new region), with replayed repeats
// on top. unique_count / duplicate_count must match a std::set model of the
// (topic, publisher, seq) identities, with dedup on and off.
TEST_F(ClientEndpointTest, SubscriberDedupMatchesSetModelUnderReorderAndOverlap) {
  for (const bool dedup : {true, false}) {
    net::Simulator sim;
    net::SimTransport transport{sim, world_.catalog, world_.backbone,
                                world_.clients};
    Subscriber sub(TinyWorld::kNearB, sim, transport, world_.clients);
    sub.set_dedup_enabled(dedup);

    struct Arrival {
      TopicId topic;
      ClientId publisher;
      std::uint64_t seq;
      RegionId via;
    };
    Rng rng(5);
    std::vector<Arrival> arrivals;
    for (const TopicId topic : {TopicId{0}, TopicId{3}}) {
      for (const ClientId publisher : {TinyWorld::kNearA, TinyWorld::kNearC}) {
        for (std::uint64_t seq = 0; seq < 300; ++seq) {
          if (rng.uniform(0.0, 1.0) < 0.05) continue;  // never arrives
          arrivals.push_back({topic, publisher, seq, TinyWorld::kA});
          // Handover overlap: seqs 100..159 also come via the new region.
          if (seq >= 100 && seq < 160) {
            arrivals.push_back({topic, publisher, seq, TinyWorld::kB});
          }
          if (rng.uniform(0.0, 1.0) < 0.1) {  // a replayed repeat
            arrivals.push_back({topic, publisher, seq, TinyWorld::kB});
          }
        }
      }
    }
    std::shuffle(arrivals.begin(), arrivals.end(), rng.engine());

    std::set<std::tuple<std::int32_t, std::int32_t, std::uint64_t>> model;
    for (const Arrival& a : arrivals) {
      model.insert({a.topic.value(), a.publisher.value(), a.seq});
      wire::Message deliver;
      deliver.type = wire::MessageType::kDeliver;
      deliver.topic = a.topic;
      deliver.publisher = a.publisher;
      deliver.seq = a.seq;
      transport.send(net::Address::region(a.via),
                     net::Address::client(TinyWorld::kNearB), deliver);
    }
    sim.run();

    for (const TopicId topic : {TopicId{0}, TopicId{3}}) {
      const auto expected = static_cast<std::uint64_t>(std::count_if(
          model.begin(), model.end(), [topic](const auto& identity) {
            return std::get<0>(identity) == topic.value();
          }));
      EXPECT_EQ(sub.unique_count(topic), expected) << "dedup=" << dedup;
    }
    EXPECT_EQ(sub.unique_count(TopicId{1}), 0u);
    const std::uint64_t duplicates = arrivals.size() - model.size();
    EXPECT_EQ(sub.duplicate_count(), duplicates) << "dedup=" << dedup;
    if (dedup) {
      EXPECT_EQ(sub.deliveries().size(), model.size());
      EXPECT_EQ(sub.recorded_duplicate_count(), 0u);
    } else {
      // Negative hook: every duplicate is recorded as a delivery.
      EXPECT_EQ(sub.deliveries().size(), arrivals.size());
      EXPECT_EQ(sub.recorded_duplicate_count(), duplicates);
    }
  }
}

// The dedup table over many streams: 64 topics x 3 publishers whose first
// arrivals come in shuffled stream order, so the flat stream table grows
// through several doublings while holding live streams. unique_count,
// duplicate_count and the recorded deliveries must match a
// std::map<stream, std::set<seq>> model, with dedup on and off.
TEST_F(ClientEndpointTest, SubscriberDedupMatchesMapModelOverManyStreams) {
  constexpr int kTopics = 64;
  const std::vector<ClientId> publishers = {ClientId{0}, ClientId{7},
                                            ClientId{1 << 20}};
  for (const bool dedup : {true, false}) {
    net::Simulator sim;
    net::SimTransport transport{sim, world_.catalog, world_.backbone,
                                world_.clients};
    Subscriber sub(TinyWorld::kNearB, sim, transport, world_.clients);
    sub.set_dedup_enabled(dedup);

    Rng rng(11);
    std::vector<std::tuple<TopicId, ClientId, std::uint64_t>> arrivals;
    for (int t = 0; t < kTopics; ++t) {
      for (const ClientId publisher : publishers) {
        for (std::uint64_t seq = 0; seq < 12; ++seq) {
          if (rng.uniform(0.0, 1.0) < 0.1) continue;  // never arrives
          const int copies = rng.uniform(0.0, 1.0) < 0.25 ? 2 : 1;
          for (int k = 0; k < copies; ++k) {
            arrivals.emplace_back(TopicId{t}, publisher, seq);
          }
        }
      }
    }
    std::shuffle(arrivals.begin(), arrivals.end(), rng.engine());

    std::map<std::uint64_t, std::set<std::uint64_t>> model;
    std::vector<std::tuple<TopicId, ClientId, std::uint64_t>> first_sights;
    for (const auto& [topic, publisher, seq] : arrivals) {
      if (model[stream_key(topic, publisher)].insert(seq).second) {
        first_sights.emplace_back(topic, publisher, seq);
      }
      wire::Message deliver;
      deliver.type = wire::MessageType::kDeliver;
      deliver.topic = topic;
      deliver.publisher = publisher;
      deliver.seq = seq;
      transport.send(net::Address::region(TinyWorld::kB),
                     net::Address::client(TinyWorld::kNearB), deliver);
    }
    sim.run();

    ASSERT_EQ(model.size(), static_cast<std::size_t>(kTopics) * 3u);
    std::uint64_t unique = 0;
    for (int t = 0; t < kTopics; ++t) {
      std::uint64_t expected = 0;
      for (const ClientId publisher : publishers) {
        expected += model[stream_key(TopicId{t}, publisher)].size();
      }
      unique += expected;
      EXPECT_EQ(sub.unique_count(TopicId{t}), expected)
          << "topic " << t << " dedup=" << dedup;
    }
    EXPECT_EQ(sub.unique_count(TopicId{kTopics}), 0u);
    EXPECT_EQ(sub.duplicate_count(), arrivals.size() - unique)
        << "dedup=" << dedup;
    if (dedup) {
      // Same-latency sends arrive in send order: the recorded deliveries
      // are exactly the first sights, in order.
      ASSERT_EQ(sub.deliveries().size(), first_sights.size());
      for (std::size_t i = 0; i < first_sights.size(); ++i) {
        const DeliveryRecord& record = sub.deliveries()[i];
        EXPECT_EQ(std::make_tuple(record.topic, record.publisher, record.seq),
                  first_sights[i])
            << i;
      }
    } else {
      EXPECT_EQ(sub.deliveries().size(), arrivals.size());
      EXPECT_EQ(sub.recorded_duplicate_count(), arrivals.size() - unique);
    }
  }
}

}  // namespace
}  // namespace multipub::client
