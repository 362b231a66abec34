#include "broker/broker.h"

#include <gtest/gtest.h>

#include <map>

#include "net/simulator.h"
#include "net/transport.h"
#include "testutil.h"

namespace multipub::broker {
namespace {

using testutil::TinyWorld;

class BrokerTest : public ::testing::Test {
 protected:
  BrokerTest() {
    // Collect everything delivered to each client address.
    for (ClientId c : {TinyWorld::kNearA, TinyWorld::kNearA2,
                       TinyWorld::kNearB, TinyWorld::kNearC}) {
      transport_.register_handler(
          net::Address::client(c), [this, c](const wire::Message& msg) {
            inbox_[c].push_back(msg);
          });
    }
  }

  wire::Message publish_msg(ClientId publisher, Bytes payload = 1000,
                            wire::WireMode mode = wire::WireMode::kDirect) {
    wire::Message msg;
    msg.type = wire::MessageType::kPublish;
    msg.topic = TopicId{0};
    msg.publisher = publisher;
    msg.seq = next_seq_++;
    msg.published_at = sim_.now();
    msg.payload_bytes = payload;
    msg.config_mode = mode;  // the publisher stamps its fan-out intent
    return msg;
  }

  void subscribe(Broker& broker, ClientId subscriber) {
    wire::Message msg;
    msg.type = wire::MessageType::kSubscribe;
    msg.topic = TopicId{0};
    msg.subscriber = subscriber;
    broker.handle(msg);
  }

  static core::TopicConfig config_ab(core::DeliveryMode mode) {
    geo::RegionSet set;
    set.add(TinyWorld::kA);
    set.add(TinyWorld::kB);
    return {set, mode};
  }

  TinyWorld world_;
  net::Simulator sim_;
  net::SimTransport transport_{sim_, world_.catalog, world_.backbone,
                               world_.clients};
  std::map<ClientId, std::vector<wire::Message>> inbox_;
  std::uint64_t next_seq_ = 0;
};

TEST_F(BrokerTest, DeliversPublicationToLocalSubscribers) {
  Broker broker(TinyWorld::kA, sim_, transport_);
  broker.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));
  subscribe(broker, TinyWorld::kNearA2);
  subscribe(broker, TinyWorld::kNearC);

  broker.handle(publish_msg(TinyWorld::kNearA));
  sim_.run();

  ASSERT_EQ(inbox_[TinyWorld::kNearA2].size(), 1u);
  ASSERT_EQ(inbox_[TinyWorld::kNearC].size(), 1u);
  EXPECT_EQ(inbox_[TinyWorld::kNearA2][0].type, wire::MessageType::kDeliver);
  EXPECT_EQ(inbox_[TinyWorld::kNearA2][0].subscriber, TinyWorld::kNearA2);
  EXPECT_EQ(broker.delivered_count(), 2u);
}

TEST_F(BrokerTest, DirectModeDoesNotForward) {
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  Broker broker_b(TinyWorld::kB, sim_, transport_);
  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));
  broker_b.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));
  subscribe(broker_b, TinyWorld::kNearB);

  // Direct mode: the publisher itself sends to each region; broker A must
  // not replicate to B.
  broker_a.handle(publish_msg(TinyWorld::kNearA));
  sim_.run();
  EXPECT_TRUE(inbox_[TinyWorld::kNearB].empty());
}

TEST_F(BrokerTest, RoutedModeForwardsToPeersExactlyOnce) {
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  Broker broker_b(TinyWorld::kB, sim_, transport_);
  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  broker_b.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  subscribe(broker_a, TinyWorld::kNearA2);
  subscribe(broker_b, TinyWorld::kNearB);

  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  sim_.run();

  // Local subscriber served, remote subscriber served via forward.
  EXPECT_EQ(inbox_[TinyWorld::kNearA2].size(), 1u);
  ASSERT_EQ(inbox_[TinyWorld::kNearB].size(), 1u);
  // A forward must not be re-forwarded (no loop): B received kForward and
  // only delivered locally. Exactly one inter-region message was billed.
  EXPECT_EQ(transport_.ledger().inter_region_bytes[TinyWorld::kA.index()],
            1000u);
  EXPECT_EQ(transport_.ledger().inter_region_bytes[TinyWorld::kB.index()], 0u);
}

TEST_F(BrokerTest, DrainForwardedCountsDuplicateFanOut) {
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  EXPECT_EQ(broker_a.drain_forwarded_count(), 0u);

  // The serving set shrinks to {A}: B enters the drain window, and routed
  // publications keep fanning out to it — counted as drain forwards.
  geo::RegionSet only_a;
  only_a.add(TinyWorld::kA);
  broker_a.set_topic_config(TopicId{0},
                            {only_a, core::DeliveryMode::kRouted});
  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  EXPECT_EQ(broker_a.drain_forwarded_count(), 1u);

  // Once the grace period expires, the duplicate fan-out stops.
  sim_.run();  // runs past the scheduled drain expiry
  EXPECT_TRUE(broker_a.draining_regions(TopicId{0}).empty());
  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  EXPECT_EQ(broker_a.drain_forwarded_count(), 1u);
}

TEST_F(BrokerTest, RoutedFanOutSendsOneCopyPerPeerAcrossServingAndDraining) {
  // Region B sits in BOTH the new serving set and the drain window after a
  // reconfiguration {A,B} -> {A,B,C}; the fan-out targets are the UNION, so
  // B must receive exactly one copy (and C, newly serving, one too).
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  std::uint64_t to_b = 0, to_c = 0;
  transport_.register_handler(net::Address::region(TinyWorld::kB),
                              [&](const wire::Message&) { ++to_b; });
  transport_.register_handler(net::Address::region(TinyWorld::kC),
                              [&](const wire::Message&) { ++to_c; });

  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  geo::RegionSet abc;
  abc.add(TinyWorld::kA);
  abc.add(TinyWorld::kB);
  abc.add(TinyWorld::kC);
  broker_a.set_topic_config(TopicId{0}, {abc, core::DeliveryMode::kRouted});
  ASSERT_TRUE(broker_a.draining_regions(TopicId{0}).contains(TinyWorld::kB));

  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  sim_.run_until(sim_.now() + 500.0);  // deliver forwards, stay in the window

  EXPECT_EQ(to_b, 1u);
  EXPECT_EQ(to_c, 1u);
  EXPECT_EQ(broker_a.forwarded_count(), 2u);
  // B still serves, so neither forward is a drain-only duplicate.
  EXPECT_EQ(broker_a.drain_forwarded_count(), 0u);
  EXPECT_EQ(transport_.ledger().inter_region_bytes[TinyWorld::kA.index()],
            2000u);
}

TEST_F(BrokerTest, DrainOnlyPeerStillGetsExactlyOneCopy) {
  // {A,B} -> {A,C}: B is drain-only, C newly serving; one copy each, and
  // only B's copy counts as a drain forward.
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  std::uint64_t to_b = 0, to_c = 0;
  transport_.register_handler(net::Address::region(TinyWorld::kB),
                              [&](const wire::Message&) { ++to_b; });
  transport_.register_handler(net::Address::region(TinyWorld::kC),
                              [&](const wire::Message&) { ++to_c; });

  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  geo::RegionSet ac;
  ac.add(TinyWorld::kA);
  ac.add(TinyWorld::kC);
  broker_a.set_topic_config(TopicId{0}, {ac, core::DeliveryMode::kRouted});

  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  sim_.run_until(sim_.now() + 500.0);

  EXPECT_EQ(to_b, 1u);
  EXPECT_EQ(to_c, 1u);
  EXPECT_EQ(broker_a.forwarded_count(), 2u);
  EXPECT_EQ(broker_a.drain_forwarded_count(), 1u);
}

TEST_F(BrokerTest, RoutedDeliveryTimingMatchesEquation2) {
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  Broker broker_b(TinyWorld::kB, sim_, transport_);
  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  broker_b.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  subscribe(broker_b, TinyWorld::kNearB);

  // Inject at broker A as if the publisher's kPublish just arrived
  // (publisher leg simulated by sending through the transport).
  wire::Message msg =
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted);
  transport_.send(net::Address::client(TinyWorld::kNearA),
                  net::Address::region(TinyWorld::kA), msg);
  sim_.run();

  ASSERT_EQ(inbox_[TinyWorld::kNearB].size(), 1u);
  const Millis delivery =
      sim_.now() - inbox_[TinyWorld::kNearB][0].published_at;
  // 10 (pub->A) + 80 (A->B) + 15 (B->nearB) = 105; the last event in the
  // simulation is exactly this delivery.
  EXPECT_DOUBLE_EQ(inbox_[TinyWorld::kNearB][0].published_at, 0.0);
  EXPECT_DOUBLE_EQ(delivery, 105.0);
}

TEST_F(BrokerTest, UnsubscribedClientStopsReceiving) {
  Broker broker(TinyWorld::kA, sim_, transport_);
  broker.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));
  subscribe(broker, TinyWorld::kNearA2);

  broker.handle(publish_msg(TinyWorld::kNearA));
  wire::Message unsub;
  unsub.type = wire::MessageType::kUnsubscribe;
  unsub.topic = TopicId{0};
  unsub.subscriber = TinyWorld::kNearA2;
  broker.handle(unsub);
  broker.handle(publish_msg(TinyWorld::kNearA));
  sim_.run();

  EXPECT_EQ(inbox_[TinyWorld::kNearA2].size(), 1u);
}

TEST_F(BrokerTest, TrafficStatisticsAccumulateAndReset) {
  Broker broker(TinyWorld::kA, sim_, transport_);
  broker.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));

  broker.handle(publish_msg(TinyWorld::kNearA, 100));
  broker.handle(publish_msg(TinyWorld::kNearA, 200));
  broker.handle(publish_msg(TinyWorld::kNearB, 50));

  const auto& traffic = broker.traffic().at(TopicId{0});
  EXPECT_EQ(traffic.at(TinyWorld::kNearA).msg_count, 2u);
  EXPECT_EQ(traffic.at(TinyWorld::kNearA).total_bytes, 300u);
  EXPECT_EQ(traffic.at(TinyWorld::kNearB).msg_count, 1u);

  broker.reset_traffic();
  EXPECT_TRUE(broker.traffic().empty());
}

TEST_F(BrokerTest, PublishWithoutConfigStillDeliversLocally) {
  // A broker that has not yet received the assignment row behaves as a
  // plain single-region pub/sub (no forwarding).
  Broker broker(TinyWorld::kA, sim_, transport_);
  subscribe(broker, TinyWorld::kNearA2);
  broker.handle(publish_msg(TinyWorld::kNearA));
  sim_.run();
  EXPECT_EQ(inbox_[TinyWorld::kNearA2].size(), 1u);
}

// The reliable broker's dedup state: has_accepted answers exactly for the
// (topic, publisher, seq) identities it took, for_each_accepted walks them
// as runs, and crash() forgets all of it.
TEST_F(BrokerTest, HasAcceptedTracksPublicationsUntilCrash) {
  Broker broker(TinyWorld::kA, sim_, transport_);
  broker.set_reliable(true);
  for (const std::uint64_t seq : {0u, 1u, 2u, 5u}) {
    next_seq_ = seq;
    broker.handle(publish_msg(TinyWorld::kNearA));
  }
  next_seq_ = 7;
  broker.handle(publish_msg(TinyWorld::kNearB));
  sim_.run();

  for (const std::uint64_t seq : {0u, 1u, 2u, 5u}) {
    EXPECT_TRUE(broker.has_accepted(TopicId{0}, TinyWorld::kNearA, seq));
  }
  EXPECT_FALSE(broker.has_accepted(TopicId{0}, TinyWorld::kNearA, 3));
  EXPECT_FALSE(broker.has_accepted(TopicId{0}, TinyWorld::kNearA, 7));
  EXPECT_TRUE(broker.has_accepted(TopicId{0}, TinyWorld::kNearB, 7));
  EXPECT_FALSE(broker.has_accepted(TopicId{1}, TinyWorld::kNearA, 0));
  EXPECT_EQ(broker.unique_accepted(TopicId{0}), 5u);

  std::map<ClientId, std::vector<SeqSet::Run>> runs;
  broker.for_each_accepted(
      [&runs](TopicId topic, ClientId publisher, const SeqSet& seqs) {
        EXPECT_EQ(topic, TopicId{0});
        runs[publisher].assign(seqs.runs().begin(), seqs.runs().end());
      });
  EXPECT_EQ(runs[TinyWorld::kNearA],
            (std::vector<SeqSet::Run>{{0, 2}, {5, 5}}));
  EXPECT_EQ(runs[TinyWorld::kNearB], (std::vector<SeqSet::Run>{{7, 7}}));

  broker.crash();
  EXPECT_FALSE(broker.has_accepted(TopicId{0}, TinyWorld::kNearA, 0));
  EXPECT_FALSE(broker.has_accepted(TopicId{0}, TinyWorld::kNearB, 7));
  std::size_t streams = 0;
  broker.for_each_accepted(
      [&streams](TopicId, ClientId, const SeqSet&) { ++streams; });
  EXPECT_EQ(streams, 0u);

  // After the crash a publication is accepted afresh, once.
  next_seq_ = 5;
  broker.handle(publish_msg(TinyWorld::kNearA));
  EXPECT_TRUE(broker.has_accepted(TopicId{0}, TinyWorld::kNearA, 5));
  EXPECT_FALSE(broker.has_accepted(TopicId{0}, TinyWorld::kNearA, 0));
  EXPECT_EQ(broker.unique_accepted(TopicId{0}), 1u);
}

}  // namespace
}  // namespace multipub::broker
