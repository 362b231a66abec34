// The batched socket hot path (DESIGN.md §16) against its contract: the
// encode-once/patch-per-target fan-out stamps exactly what the per-target
// loop stamps, billing and counters are bit-identical to the unbatched
// reference, coalescing provably reduces syscalls, partial vectored writes
// resume mid-frame, and the reconnect backoff follows its schedule
// deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "testutil.h"

namespace multipub::net {
namespace {

wire::Message publication(std::uint64_t seq, Bytes bytes = 512) {
  wire::Message msg;
  msg.type = wire::MessageType::kForward;
  msg.topic = TopicId{2};
  msg.publisher = ClientId{9};
  msg.subscriber = ClientId{55};
  msg.seq = seq;
  msg.payload_bytes = bytes;
  return msg;
}

template <typename Pred>
bool pump(std::vector<SocketTransport*> nodes, Pred pred,
          int budget_ms = 5000) {
  for (int elapsed = 0; elapsed < budget_ms; elapsed += 2) {
    for (SocketTransport* node : nodes) node->poll_once(1);
    if (pred()) return true;
  }
  return pred();
}

/// A connected loopback pair: node 0 sends, node 1 hosts every client,
/// cohort and region 1.
struct Pair {
  SocketTransport a;  // node 0
  SocketTransport b;  // node 1

  explicit Pair(bool batching) {
    a.set_self_node(0);
    b.set_self_node(1);
    a.set_batching(batching);
    b.set_batching(batching);
    const auto resolver = [](Address to) {
      return to.kind == Address::Kind::kRegion ? to.id : 1;
    };
    a.set_address_resolver(resolver);
    b.set_address_resolver(resolver);
    EXPECT_TRUE(b.listen(0));
    a.add_peer(1, b.port());
  }
};

TEST(TransportBatching, FanOutStampsPerTargetLikeThePerTargetLoop) {
  Pair pair(/*batching=*/true);
  std::map<std::int32_t, std::vector<wire::Message>> by_client;
  std::vector<wire::Message> at_cohort;
  for (std::int32_t c = 0; c < 3; ++c) {
    pair.b.register_handler(Address::client(ClientId{c}),
                            [&by_client, c](const wire::Message& m) {
                              by_client[c].push_back(m);
                            });
  }
  pair.b.register_handler(Address::cohort(17),
                          [&at_cohort](const wire::Message& m) {
                            at_cohort.push_back(m);
                          });

  const std::vector<Address> targets = {
      Address::client(ClientId{0}), Address::client(ClientId{1}),
      Address::cohort(17), Address::client(ClientId{2})};
  pair.a.send_batch(Address::region(RegionId{0}), targets, publication(41),
                    wire::MessageType::kDeliver);

  ASSERT_TRUE(pump({&pair.a, &pair.b}, [&] {
    return pair.b.delivered_count() == targets.size();
  }));
  for (std::int32_t c = 0; c < 3; ++c) {
    ASSERT_EQ(by_client[c].size(), 1u) << "client " << c;
    // The per-target patch: type stamped, subscriber = the target client.
    EXPECT_EQ(by_client[c][0].type, wire::MessageType::kDeliver);
    EXPECT_EQ(by_client[c][0].subscriber, ClientId{c});
    EXPECT_EQ(by_client[c][0].seq, 41u);
    EXPECT_EQ(by_client[c][0].payload_bytes, 512u);
  }
  // A cohort target keeps the message's own subscriber field (the flock
  // rides in the address, not the subscriber id).
  ASSERT_EQ(at_cohort.size(), 1u);
  EXPECT_EQ(at_cohort[0].type, wire::MessageType::kDeliver);
  EXPECT_EQ(at_cohort[0].subscriber, ClientId{55});
}

/// One three-member flock, 5 ms from every region.
class ThreeMemberFlock : public CohortDirectory {
 public:
  [[nodiscard]] std::uint32_t flock_weight(std::int32_t) const override {
    return 3;
  }
  [[nodiscard]] std::span<const ClientId> flock_members(
      std::int32_t) const override {
    return members_;
  }
  [[nodiscard]] Millis flock_latency(std::int32_t, RegionId) const override {
    return 5.0;
  }
  [[nodiscard]] RegionId flock_home(std::int32_t) const override {
    return testutil::TinyWorld::kA;
  }
  [[nodiscard]] RegionId flock_attachment(std::int32_t) const override {
    return testutil::TinyWorld::kA;
  }

 private:
  std::vector<ClientId> members_ = {testutil::TinyWorld::kNearA,
                                    testutil::TinyWorld::kNearA2,
                                    testutil::TinyWorld::kNearB};
};

/// What one kReplayBatch fan-out from region A did on the DES twin.
struct ReplayFanOut {
  std::vector<wire::Message> at_flock;
  std::uint64_t at_client = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  Bytes internet = 0;
};

ReplayFanOut replay_fan_out(const std::vector<Address>& targets) {
  testutil::TinyWorld world;
  Simulator sim;
  SimTransport transport(sim, world.catalog, world.backbone, world.clients);
  ThreeMemberFlock directory;
  transport.set_cohort_directory(&directory);
  ReplayFanOut out;
  transport.register_handler(
      Address::cohort(4),
      [&out](const wire::Message& m) { out.at_flock.push_back(m); });
  transport.register_handler(Address::client(testutil::TinyWorld::kNearC),
                             [&out](const wire::Message&) { ++out.at_client; });
  wire::Message msg = publication(17, 400);
  msg.subscriber = ClientId::invalid();  // a broker's fan-out names nobody
  transport.send_batch(Address::region(testutil::TinyWorld::kA), targets, msg,
                       wire::MessageType::kReplayBatch);
  sim.run();
  out.sent = transport.sent_count();
  out.delivered = transport.delivered_count();
  out.internet = transport.ledger().internet_bytes[0];
  return out;
}

TEST(TransportBatching, CohortLegAfterAClientTargetIsBilledLikeACohortBatch) {
  // The cohort leg of a mixed [client, cohort] replay batch must not
  // inherit the client target's subscriber stamp: that would turn the
  // whole-flock hop into a member-addressed weight-1 replay.
  const Address client = Address::client(testutil::TinyWorld::kNearC);
  const Address flock = Address::cohort(4);
  const ReplayFanOut mixed = replay_fan_out({client, flock});
  const ReplayFanOut cohort_only = replay_fan_out({flock});
  const ReplayFanOut client_only = replay_fan_out({client});

  EXPECT_EQ(mixed.at_client, 1u);
  EXPECT_EQ(mixed.at_flock, cohort_only.at_flock);
  ASSERT_EQ(mixed.at_flock.size(), 1u);
  EXPECT_EQ(mixed.at_flock[0].weight, 3u);
  EXPECT_FALSE(mixed.at_flock[0].subscriber.valid());
  EXPECT_EQ(mixed.sent, cohort_only.sent + client_only.sent);
  EXPECT_EQ(mixed.delivered, cohort_only.delivered + client_only.delivered);
  EXPECT_EQ(mixed.internet, cohort_only.internet + client_only.internet);
  EXPECT_EQ(cohort_only.sent, 3u);
  EXPECT_EQ(cohort_only.internet, 3u * 400u);
}

/// Drives identical mixed traffic (point-to-point sends, remote fan-out,
/// weighted cohort fan-out) through one pair and returns its aggregates.
struct Aggregates {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  Bytes inter_region = 0;
  Bytes internet = 0;
};

Aggregates run_mixed_traffic(bool batching) {
  Pair pair(batching);
  std::uint64_t received = 0;
  const auto count = [&received](const wire::Message&) { ++received; };
  pair.b.register_handler(Address::region(RegionId{1}), count);
  std::vector<Address> targets;
  for (std::int32_t c = 0; c < 8; ++c) {
    targets.push_back(Address::client(ClientId{c}));
    pair.b.register_handler(targets.back(), count);
  }
  targets.push_back(Address::cohort(3));
  pair.b.register_handler(targets.back(), count);

  const Address from = Address::region(RegionId{0});
  std::uint64_t expected = 0;
  for (std::uint64_t round = 0; round < 40; ++round) {
    pair.a.send(from, Address::region(RegionId{1}), publication(round));
    ++expected;
    wire::Message fan = publication(1000 + round, 300);
    fan.weight = round % 4 == 0 ? 5 : 1;  // weighted cohort rounds
    pair.a.send_batch(from, targets, fan, wire::MessageType::kDeliver);
    expected += targets.size();
    if (round % 8 == 0) {
      pair.a.poll_once(0);
      pair.b.poll_once(0);
    }
  }
  EXPECT_TRUE(pump({&pair.a, &pair.b},
                   [&] { return received == expected; }));

  Aggregates out;
  out.sent = pair.a.sent_count();
  out.delivered = pair.b.delivered_count();
  out.inter_region = pair.a.inter_region_bytes(RegionId{0});
  out.internet = pair.a.internet_bytes(RegionId{0});
  return out;
}

TEST(TransportBatching, BillingAndCountersAreBitIdenticalToUnbatched) {
  const Aggregates batched = run_mixed_traffic(true);
  const Aggregates reference = run_mixed_traffic(false);
  EXPECT_EQ(batched.sent, reference.sent);
  EXPECT_EQ(batched.delivered, reference.delivered);
  EXPECT_EQ(batched.inter_region, reference.inter_region);
  EXPECT_EQ(batched.internet, reference.internet);
  EXPECT_GT(batched.inter_region, 0u);
  EXPECT_GT(batched.internet, 0u);
}

TEST(TransportBatching, ARoundOfFramesCoalescesIntoFewFlushSyscalls) {
  Pair pair(/*batching=*/true);
  std::uint64_t received = 0;
  pair.b.register_handler(Address::region(RegionId{1}),
                          [&received](const wire::Message&) { ++received; });
  constexpr std::uint64_t kFrames = 200;
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    pair.a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
                publication(seq));
  }
  ASSERT_TRUE(pump({&pair.a, &pair.b}, [&] { return received == kFrames; }));

  const TransportStats& stats = pair.a.stats();
  EXPECT_EQ(stats.frames_sent, kFrames);
  EXPECT_GT(stats.frames_per_flush(), 1.0);
  EXPECT_LT(stats.flush_syscalls(), kFrames / 2)
      << "batched mode should not pay per-frame syscalls";
  // The whole burst fits one pooled segment chain; the histogram must put
  // mass past the 1-frame bucket.
  std::uint64_t beyond_single = 0;
  for (std::size_t bucket = 1; bucket < stats.flush_frames_hist.size();
       ++bucket) {
    beyond_single += stats.flush_frames_hist[bucket];
  }
  EXPECT_GT(beyond_single, 0u);
  EXPECT_GT(stats.pool_high_water, 0u);
}

TEST(TransportBatching, UnbatchedReferencePaysOneWritePerFrame) {
  Pair pair(/*batching=*/false);
  std::uint64_t received = 0;
  pair.b.register_handler(Address::region(RegionId{1}),
                          [&received](const wire::Message&) { ++received; });
  constexpr std::uint64_t kFrames = 64;
  // Prime the link: one frame, pumped until delivered, so the connection
  // is up and uncongested before the measured burst.
  pair.a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
              publication(9999));
  ASSERT_TRUE(pump({&pair.a, &pair.b}, [&] { return received == 1; }));
  const std::uint64_t baseline = pair.a.stats().flush_syscalls();

  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    pair.a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
                publication(seq));
  }
  ASSERT_TRUE(
      pump({&pair.a, &pair.b}, [&] { return received == 1 + kFrames; }));
  // The reference path flushes every frame the moment it is queued: one
  // write syscall per frame.
  EXPECT_GE(pair.a.stats().flush_syscalls() - baseline, kFrames);
}

TEST(TransportBatching, TinySendBufferResumesVectoredWritesMidFrame) {
  // Wired by hand (not via Pair) because the tiny socket buffers must be
  // configured BEFORE add_peer creates the outbound socket.
  SocketTransport a;
  SocketTransport b;
  a.set_self_node(0);
  b.set_self_node(1);
  const auto resolver = [](Address to) {
    return to.kind == Address::Kind::kRegion ? to.id : 1;
  };
  a.set_address_resolver(resolver);
  b.set_address_resolver(resolver);
  // Shrink both socket buffers to a fraction of the burst so sendmsg()
  // keeps accepting partial iovec chains, splitting frames at arbitrary
  // byte offsets across flushes.
  a.set_socket_buffer_bytes(4096);
  b.set_socket_buffer_bytes(4096);
  ASSERT_TRUE(b.listen(0));
  a.add_peer(1, b.port());

  std::vector<std::uint64_t> seqs;
  b.register_handler(Address::region(RegionId{1}),
                     [&seqs](const wire::Message& m) {
                       seqs.push_back(m.seq);
                     });
  constexpr std::uint64_t kFrames = 4000;  // ~400 KB >> both buffers
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
           publication(seq, 64));
  }
  ASSERT_TRUE(pump({&a, &b}, [&] { return seqs.size() == kFrames; }, 20000));

  // Backpressure must delay frames, never tear, drop or reorder them.
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    ASSERT_EQ(seqs[seq], seq) << "stream reordered or torn at " << seq;
  }
  EXPECT_GT(a.stats().partial_flushes, 0u)
      << "the burst was supposed to overrun the tiny socket buffer";
  EXPECT_EQ(a.stats().frames_sent, kFrames);
}

TEST(TransportBatching, LocalFanOutNeverTouchesTheWire) {
  SocketTransport transport;
  transport.set_self_node(0);
  transport.set_address_resolver([](Address) { return 0; });
  std::uint64_t received = 0;
  std::vector<Address> targets;
  for (std::int32_t c = 0; c < 4; ++c) {
    targets.push_back(Address::client(ClientId{c}));
    transport.register_handler(
        targets.back(), [&received](const wire::Message&) { ++received; });
  }
  transport.send_batch(Address::region(RegionId{0}), targets, publication(1),
                       wire::MessageType::kDeliver);
  EXPECT_EQ(received, 0u) << "local delivery must be deferred";
  for (int i = 0; i < 50 && received < targets.size(); ++i) {
    transport.poll_once(1);
  }
  EXPECT_EQ(received, targets.size());
  // The codec and the sockets stayed cold.
  EXPECT_EQ(transport.stats().bytes_sent, 0u);
  EXPECT_EQ(transport.stats().flush_syscalls(), 0u);
  EXPECT_EQ(transport.stats().pool_acquires, 0u);
}

TEST(TransportBackoff, DelayDoublesFromBaseUntilTheCap) {
  Rng rng(7);
  double previous_floor = 0.0;
  for (std::uint32_t attempt = 0; attempt < 24; ++attempt) {
    const double floor =
        std::min(SocketTransport::kBackoffCapMs,
                 SocketTransport::kBackoffBaseMs *
                     static_cast<double>(std::uint64_t{1} << attempt));
    const Millis delay = SocketTransport::backoff_delay_ms(attempt, rng);
    EXPECT_GE(delay, floor) << "attempt " << attempt;
    EXPECT_LT(delay, floor * (1.0 + SocketTransport::kBackoffJitter))
        << "attempt " << attempt;
    EXPECT_GE(floor, previous_floor) << "schedule must never shrink";
    previous_floor = floor;
  }
  // Deep attempts are pinned at the cap (plus jitter), not overflowing.
  const Millis deep = SocketTransport::backoff_delay_ms(1000, rng);
  EXPECT_GE(deep, SocketTransport::kBackoffCapMs);
  EXPECT_LT(deep, SocketTransport::kBackoffCapMs *
                      (1.0 + SocketTransport::kBackoffJitter));
}

TEST(TransportBackoff, JitterIsDeterministicInTheSeed) {
  Rng first(42);
  Rng second(42);
  Rng other(43);
  bool any_differs = false;
  for (std::uint32_t attempt = 0; attempt < 16; ++attempt) {
    const Millis lhs = SocketTransport::backoff_delay_ms(attempt, first);
    const Millis rhs = SocketTransport::backoff_delay_ms(attempt, second);
    EXPECT_EQ(lhs, rhs) << "same seed must give the same schedule";
    if (lhs != SocketTransport::backoff_delay_ms(attempt, other)) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs) << "different seeds should jitter differently";
}

}  // namespace
}  // namespace multipub::net
