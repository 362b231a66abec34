#include "common/seq_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"

namespace multipub {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// The runs must be sorted, disjoint and non-adjacent, and sum to size().
void expect_canonical(const SeqSet& set) {
  std::uint64_t total = 0;
  const auto runs = set.runs();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_LE(runs[i].lo, runs[i].hi);
    total += runs[i].hi - runs[i].lo + 1;
    if (i > 0) {
      ASSERT_GT(runs[i].lo, runs[i - 1].hi + 1);  // a gap between
    }
  }
  EXPECT_EQ(total, set.size());
}

/// Feeds `stream` to a SeqSet and a std::set model side by side, comparing
/// the insert result, contains and size after every operation, and the
/// whole membership (via for_each) at the end.
void differential(const std::vector<std::uint64_t>& stream) {
  SeqSet set;
  std::set<std::uint64_t> model;
  for (const std::uint64_t s : stream) {
    const bool before = model.count(s) > 0;
    ASSERT_EQ(set.contains(s), before) << "s=" << s;
    ASSERT_EQ(set.insert(s), model.insert(s).second) << "s=" << s;
    ASSERT_TRUE(set.contains(s)) << "s=" << s;
    ASSERT_EQ(set.size(), model.size());
  }
  expect_canonical(set);
  std::vector<std::uint64_t> members;
  set.for_each([&members](std::uint64_t s) { members.push_back(s); });
  EXPECT_EQ(members, std::vector<std::uint64_t>(model.begin(), model.end()));
  // Probe around every member: no value is claimed that was never added.
  for (const std::uint64_t s : model) {
    if (s > 0) {
      EXPECT_EQ(set.contains(s - 1), model.count(s - 1) > 0);
    }
    if (s < kMax) {
      EXPECT_EQ(set.contains(s + 1), model.count(s + 1) > 0);
    }
  }
}

TEST(SeqSet, EmptySetHoldsNothing) {
  const SeqSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.runs().empty());
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(kMax));
}

TEST(SeqSet, InsertReportsFirstSightOnly) {
  SeqSet set;
  EXPECT_TRUE(set.insert(0));  // a publisher's first seq
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.insert(1));
  EXPECT_FALSE(set.insert(1));
  EXPECT_EQ(set.size(), 2u);
  ASSERT_EQ(set.runs().size(), 1u);
  EXPECT_EQ(set.runs()[0], (SeqSet::Run{0, 1}));
}

TEST(SeqSet, GapFillMergesNeighbouringRuns) {
  SeqSet set;
  for (const std::uint64_t s : {1u, 2u, 5u, 6u, 9u}) set.insert(s);
  ASSERT_EQ(set.runs().size(), 3u);
  EXPECT_TRUE(set.insert(4));  // joins [5, 6] from below
  EXPECT_TRUE(set.insert(3));  // bridges [1, 2] and [4, 6]
  ASSERT_EQ(set.runs().size(), 2u);
  EXPECT_EQ(set.runs()[0], (SeqSet::Run{1, 6}));
  EXPECT_TRUE(set.insert(7));  // extends [1, 6] from above
  EXPECT_TRUE(set.insert(0));  // new lowest value joins from below
  EXPECT_TRUE(set.insert(8));  // bridges again
  ASSERT_EQ(set.runs().size(), 1u);
  EXPECT_EQ(set.runs()[0], (SeqSet::Run{0, 9}));
  EXPECT_EQ(set.size(), 10u);
  EXPECT_FALSE(set.contains(10));
}

TEST(SeqSet, ValuesNearTheTopDoNotOverflow) {
  SeqSet set;
  EXPECT_TRUE(set.insert(kMax));
  EXPECT_FALSE(set.insert(kMax));
  EXPECT_TRUE(set.insert(kMax - 2));
  ASSERT_EQ(set.runs().size(), 2u);
  EXPECT_FALSE(set.contains(kMax - 1));
  EXPECT_TRUE(set.insert(kMax - 1));
  ASSERT_EQ(set.runs().size(), 1u);
  EXPECT_EQ(set.runs()[0], (SeqSet::Run{kMax - 2, kMax}));
  EXPECT_TRUE(set.insert(0));  // far below: its own run
  EXPECT_EQ(set.size(), 4u);
  std::vector<std::uint64_t> members;
  set.for_each([&members](std::uint64_t s) { members.push_back(s); });
  EXPECT_EQ(members,
            (std::vector<std::uint64_t>{0, kMax - 2, kMax - 1, kMax}));
}

TEST(SeqSet, InOrderAppendKeepsOneRun) {
  SeqSet set;
  for (std::uint64_t s = 0; s < 100'000; ++s) ASSERT_TRUE(set.insert(s));
  EXPECT_EQ(set.size(), 100'000u);
  ASSERT_EQ(set.runs().size(), 1u);  // the memory property: O(1) state
  EXPECT_EQ(set.runs()[0], (SeqSet::Run{0, 99'999}));
}

// ---- Randomized differential against std::set

TEST(SeqSetDifferential, InOrder) {
  std::vector<std::uint64_t> stream;
  for (std::uint64_t s = 0; s < 2'000; ++s) stream.push_back(s);
  differential(stream);
}

TEST(SeqSetDifferential, ReorderedWithinAWindow) {
  // Jitter-like: each seq is displaced by a bounded random amount, so the
  // set keeps a few open holes behind the head.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> stream;
    for (std::uint64_t s = 0; s < 2'000; ++s) stream.push_back(s);
    const std::int64_t window = static_cast<std::int64_t>(2 + seed * 3);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::int64_t hi = std::min<std::int64_t>(
          static_cast<std::int64_t>(stream.size()) - 1,
          static_cast<std::int64_t>(i) + window);
      std::swap(stream[i], stream[static_cast<std::size_t>(
                               rng.uniform_int(static_cast<std::int64_t>(i), hi))]);
    }
    differential(stream);
  }
}

TEST(SeqSetDifferential, DuplicateHeavy) {
  // Handover overlap and replay: most arrivals repeat a recent seq.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> stream;
    std::uint64_t head = 0;
    for (int i = 0; i < 4'000; ++i) {
      if (rng.uniform(0.0, 1.0) < 0.7 && head > 0) {
        const auto back = static_cast<std::uint64_t>(rng.uniform_int(
            0, std::min<std::int64_t>(static_cast<std::int64_t>(head), 40)));
        stream.push_back(head - back);
      } else {
        head += static_cast<std::uint64_t>(rng.uniform_int(1, 3));
        stream.push_back(head);
      }
    }
    differential(stream);
  }
}

TEST(SeqSetDifferential, ContainingZero) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 1'000; ++i) {
      stream.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, 60)));
    }
    stream.insert(stream.begin() + 500, 0);  // 0 arrives mid-stream for sure
    differential(stream);
  }
}

TEST(SeqSetDifferential, NearTheTop) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 1'000; ++i) {
      stream.push_back(kMax -
                       static_cast<std::uint64_t>(rng.uniform_int(0, 60)));
    }
    stream.push_back(kMax);
    differential(stream);
  }
}

TEST(SeqSetDifferential, SparseAcrossTheWholeRange) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 1'000; ++i) {
      const std::uint64_t base = rng.engine()();
      stream.push_back(base);
      if (rng.uniform(0.0, 1.0) < 0.3) stream.push_back(base);  // repeat
      if (base < kMax && rng.uniform(0.0, 1.0) < 0.3) {
        stream.push_back(base + 1);  // neighbour
      }
    }
    differential(stream);
  }
}

TEST(StreamKey, RoundTripsTopicAndPublisher) {
  for (const std::int32_t topic : {0, 1, 499, 0x7fffffff}) {
    for (const std::int32_t publisher : {0, 7, 1'000'000, 0x7fffffff}) {
      const std::uint64_t key = stream_key(TopicId{topic}, ClientId{publisher});
      EXPECT_EQ(stream_topic(key), TopicId{topic});
      EXPECT_EQ(stream_publisher(key), ClientId{publisher});
    }
  }
  EXPECT_NE(stream_key(TopicId{1}, ClientId{2}),
            stream_key(TopicId{2}, ClientId{1}));
}

TEST(StreamTable, MatchesAMapOfSetsModel) {
  // Streams include key 0 (the value an empty slot's key field holds) and
  // all-ones; arrivals are shuffled and duplicate-heavy, and the table
  // grows through several doublings while holding live streams.
  Rng rng(21);
  std::vector<std::uint64_t> keys = {0, kMax, stream_key(TopicId{0},
                                                          ClientId{1})};
  for (int i = 0; i < 60; ++i) keys.push_back(rng.engine()());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> arrivals;
  for (const std::uint64_t key : keys) {
    for (std::uint64_t seq = 0; seq < 40; ++seq) {
      arrivals.emplace_back(key, seq);
      if (rng.uniform(0.0, 1.0) < 0.3) arrivals.emplace_back(key, seq);
    }
  }
  std::shuffle(arrivals.begin(), arrivals.end(), rng.engine());

  StreamTable table;
  std::map<std::uint64_t, std::set<std::uint64_t>> model;
  for (const auto& [key, seq] : arrivals) {
    ASSERT_EQ(table.insert(key, seq), model[key].insert(seq).second)
        << key << " " << seq;
  }
  EXPECT_EQ(table.streams(), keys.size());
  std::size_t visited = 0;
  table.for_each([&](std::uint64_t key, const SeqSet& seqs) {
    ++visited;
    ASSERT_EQ(model.count(key), 1u) << key;
    EXPECT_EQ(seqs.size(), model[key].size()) << key;
    for (const std::uint64_t seq : model[key]) EXPECT_TRUE(seqs.contains(seq));
  });
  EXPECT_EQ(visited, keys.size());
}

}  // namespace
}  // namespace multipub
