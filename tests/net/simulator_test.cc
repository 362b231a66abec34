#include "net/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace multipub::net {
namespace {

/// Records the insertion markers (carried in msg.seq) of typed deliveries.
struct RecordingSink : DeliverySink {
  explicit RecordingSink(std::vector<int>& order) : order(&order) {}
  void deliver(const DeliveryEvent& event) override {
    order->push_back(static_cast<int>(event.msg.seq));
  }
  std::vector<int>* order;
};

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsRunInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ClockAdvancesDuringExecution) {
  Simulator sim;
  Millis seen = -1.0;
  sim.schedule_after(42.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 42.5);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 5) sim.schedule_after(10.0, hop);
  };
  sim.schedule_after(0.0, hop);
  sim.run();
  EXPECT_EQ(hops, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 40.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<Millis> fired;
  sim.schedule_at(10.0, [&] { fired.push_back(10.0); });
  sim.schedule_at(50.0, [&] { fired.push_back(50.0); });
  sim.schedule_at(90.0, [&] { fired.push_back(90.0); });

  sim.run_until(50.0);
  EXPECT_EQ(fired.size(), 2u);  // boundary event included
  EXPECT_DOUBLE_EQ(sim.now(), 50.0);
  EXPECT_EQ(sim.pending(), 1u);

  sim.run_until(100.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, ProcessedCountsEveryEvent) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(1.0 * i, [] {});
  sim.run();
  EXPECT_EQ(sim.processed(), 7u);
}

TEST(Simulator, TypedDeliveriesInterleaveWithActionsInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  RecordingSink sink(order);
  wire::Message msg;

  // Same timestamp, alternating kinds: dispatch must follow insertion order
  // regardless of the event's representation.
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
    } else {
      msg.seq = static_cast<std::uint64_t>(i);
      sim.schedule_delivery_at(5.0, sink, Address::client(ClientId{0}),
                               Address::client(ClientId{1}), msg);
    }
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, MixedEventOrderingPropertyRandomized) {
  // Property: for any mix of typed and generic events at clashing
  // timestamps, dispatch order equals a stable sort by time — i.e. the
  // (time, seq) FIFO contract, bit for bit.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    Simulator sim;
    std::vector<int> order;
    RecordingSink sink(order);
    std::vector<std::pair<Millis, int>> scheduled;  // (time, marker)

    const int n = 100;
    wire::Message msg;
    for (int i = 0; i < n; ++i) {
      // A handful of distinct instants guarantees plenty of ties.
      const Millis t = 5.0 * static_cast<double>(rng.uniform_int(0, 4));
      scheduled.emplace_back(t, i);
      if (rng.uniform_int(0, 1) == 0) {
        sim.schedule_at(t, [&order, i] { order.push_back(i); });
      } else {
        msg.seq = static_cast<std::uint64_t>(i);
        sim.schedule_delivery_at(t, sink, Address::client(ClientId{0}),
                                 Address::client(ClientId{1}), msg);
      }
    }
    sim.run();

    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(order.size(), scheduled.size());
    for (std::size_t i = 0; i < scheduled.size(); ++i) {
      EXPECT_EQ(order[i], scheduled[i].second) << "trial " << trial;
    }
    EXPECT_EQ(sim.processed(), static_cast<std::uint64_t>(n));
  }
}

TEST(Simulator, DeliveryHandlersCanScheduleFurtherEvents) {
  // Pool-reuse path: a delivery dispatch schedules both another delivery
  // and an action, exercising slot recycling mid-dispatch.
  Simulator sim;
  std::vector<int> order;
  struct ChainSink : DeliverySink {
    Simulator* sim;
    std::vector<int>* order;
    void deliver(const DeliveryEvent& event) override {
      order->push_back(static_cast<int>(event.msg.seq));
      if (event.msg.seq < 3) {
        wire::Message next = event.msg;
        ++next.seq;
        sim->schedule_delivery_after(1.0, *this, event.from, event.to, next);
        sim->schedule_after(0.5, [this] { order->push_back(-1); });
      }
    }
  };
  ChainSink sink;
  sink.sim = &sim;
  sink.order = &order;
  wire::Message msg;
  msg.seq = 0;
  sim.schedule_delivery_at(0.0, sink, Address::client(ClientId{0}),
                           Address::client(ClientId{1}), msg);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, -1, 2, -1, 3}));
}

TEST(Simulator, LateScheduleBeforeRungCoverageStaysOrdered) {
  // Regression: run_until can stop with the clock far below the rung's
  // start (the rung was built from far-future events). A later schedule
  // below rung_start_ would produce a negative bucket index; it must go to
  // the near heap, not be cast to an out-of-range size_t.
  Simulator sim;
  std::vector<Millis> fired;
  sim.schedule_at(5000.0, [&] { fired.push_back(5000.0); });
  sim.run_until(1000.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1000.0);
  sim.schedule_at(1100.0, [&] { fired.push_back(1100.0); });
  sim.schedule_at(1050.0, [&] { fired.push_back(1050.0); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<Millis>{1050.0, 1100.0, 5000.0}));
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  sim.schedule_at(25.0, [&] {
    sim.schedule_after(0.0, [&] { EXPECT_DOUBLE_EQ(sim.now(), 25.0); });
  });
  sim.run();
  EXPECT_EQ(sim.processed(), 2u);
}

/// A publication with every field set, so a lost or torn copy shows.
wire::Message rich_message(std::uint64_t seq) {
  wire::Message msg;
  msg.type = wire::MessageType::kDeliver;
  msg.topic = TopicId{7};
  msg.publisher = ClientId{3};
  msg.subscriber = ClientId{99};
  msg.seq = seq;
  msg.published_at = 12.5;
  msg.payload_bytes = 1024;
  msg.key = 0xfeedULL;
  msg.weight = 1;
  msg.delivery_seq = 11;
  return msg;
}

/// Records every delivered (to, msg) pair.
struct CapturingSink : DeliverySink {
  std::vector<std::pair<Address, wire::Message>> got;
  void deliver(const DeliveryEvent& event) override {
    got.emplace_back(event.to, event.msg);
  }
};

TEST(Simulator, FanOutDeliversIdenticalPayloadsWithPerTargetStamps) {
  Simulator sim;
  CapturingSink sink;
  const wire::Message msg = rich_message(41);
  Simulator::FanOut fan(msg);
  for (int c = 0; c < 5; ++c) {
    // Reverse delays: dispatch order differs from scheduling order.
    sim.schedule_fan_out_after(10.0 - c, sink, Address::region(RegionId{0}),
                               Address::client(ClientId{c}), fan,
                               ClientId{c});
  }
  // Five hops, one interned copy.
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_EQ(sim.interned_messages(), 1u);
  sim.run();
  ASSERT_EQ(sink.got.size(), 5u);
  for (const auto& [to, got] : sink.got) {
    wire::Message expected = msg;
    expected.subscriber = ClientId{to.id};
    EXPECT_EQ(got, expected) << "client " << to.id;
  }
  EXPECT_EQ(sink.got.front().first.id, 4);  // shortest delay first
}

TEST(Simulator, InternedMessagesReturnToZeroAfterRun) {
  Simulator sim;
  CapturingSink sink;
  const Address from = Address::region(RegionId{0});
  for (std::uint64_t round = 0; round < 20; ++round) {
    const wire::Message msg = rich_message(round);
    Simulator::FanOut fan(msg);
    for (int c = 0; c < 8; ++c) {
      sim.schedule_fan_out_after(1.0 + static_cast<double>(round % 3), sink,
                                 from, Address::client(ClientId{c}), fan,
                                 ClientId{c});
    }
    sim.schedule_delivery_after(2.0, sink, from,
                                Address::region(RegionId{1}), msg);
  }
  EXPECT_EQ(sim.interned_messages(), 40u);  // one per fan-out + one per send
  sim.run_until(2.0);
  // Left: the fan-outs of rounds 2, 5, ..., 17 (delay 3).
  EXPECT_EQ(sim.interned_messages(), 6u);
  sim.run();
  EXPECT_EQ(sink.got.size(), 20u * 9u);
  EXPECT_EQ(sim.interned_messages(), 0u);
}

TEST(Simulator, FanOutStartedMidDispatchKeepsTheMessageIntact) {
  // The handler of the first hop starts a large fan-out plus many single
  // sends, growing (and reallocating) the record and message pools while
  // it still reads its own event; every later hop must carry its intact
  // message. Run under ASan, a read from a freed pool slot aborts here.
  struct GrowingSink : DeliverySink {
    Simulator* sim = nullptr;
    std::vector<wire::Message> got;
    bool grew = false;
    void deliver(const DeliveryEvent& event) override {
      if (!grew) {
        grew = true;
        const wire::Message inner = rich_message(1000);
        Simulator::FanOut fan(inner);
        for (int c = 0; c < 4096; ++c) {
          sim->schedule_fan_out_after(1.0, *this, event.to,
                                      Address::client(ClientId{c}), fan,
                                      ClientId{c});
        }
        for (std::uint64_t i = 0; i < 4096; ++i) {
          sim->schedule_delivery_after(2.0, *this, event.to, event.from,
                                       rich_message(2000 + i));
        }
      }
      got.push_back(event.msg);
    }
  };
  Simulator sim;
  GrowingSink sink;
  sink.sim = &sim;
  const wire::Message first = rich_message(7);
  sim.schedule_delivery_at(0.0, sink, Address::client(ClientId{0}),
                           Address::region(RegionId{0}), first);
  sim.run();
  ASSERT_EQ(sink.got.size(), 1u + 4096u + 4096u);
  EXPECT_EQ(sink.got[0], first);
  for (int c = 0; c < 4096; ++c) {
    wire::Message expected = rich_message(1000);
    expected.subscriber = ClientId{c};
    ASSERT_EQ(sink.got[1 + static_cast<std::size_t>(c)], expected) << c;
  }
  for (std::uint64_t i = 0; i < 4096; ++i) {
    ASSERT_EQ(sink.got[4097 + i], rich_message(2000 + i)) << i;
  }
  EXPECT_EQ(sim.interned_messages(), 0u);
}

}  // namespace
}  // namespace multipub::net
