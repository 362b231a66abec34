// Exact set of publication sequence numbers, stored as runs.
//
// Dedup filters (DESIGN.md §6) must remember every (topic, publisher, seq)
// they have seen, forever: forgetting one would let a late handover or
// replay copy through as a fresh delivery. A publisher numbers its
// publications 0, 1, 2, ... and endpoints receive them almost in order, so
// the set a filter holds is a handful of contiguous runs, not millions of
// scattered values. SeqSet stores exactly that: sorted, disjoint,
// non-adjacent closed runs [lo, hi] plus the element count. An in-order
// append extends the last run in O(1) with no allocation; an out-of-order
// or duplicate value costs a binary search plus a local merge. Nothing is
// ever dropped, so membership is exact.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace multipub {

class SeqSet {
 public:
  /// Closed run [lo, hi] of consecutive sequence numbers.
  struct Run {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    friend bool operator==(const Run&, const Run&) = default;
  };

  /// Adds `s`; true when it was not in the set before (first sight).
  bool insert(std::uint64_t s) {
    if (runs_.empty() || s > runs_.back().hi) {
      // In-order append: s > hi, so hi + 1 cannot overflow.
      if (!runs_.empty() && s == runs_.back().hi + 1) {
        runs_.back().hi = s;
      } else {
        runs_.push_back({s, s});
      }
      ++size_;
      return true;
    }
    // s <= back().hi, so a run with hi >= s exists.
    const auto it = std::lower_bound(runs_.begin(), runs_.end(), s, below);
    if (it->lo <= s) return false;  // inside the run: duplicate
    // s falls in the gap before *it (and after it[-1], if any). s < it->lo
    // and it[-1].hi < s, so neither +1 below can overflow.
    const bool joins_next = s + 1 == it->lo;
    const bool joins_prev = it != runs_.begin() && (it - 1)->hi + 1 == s;
    if (joins_prev && joins_next) {
      (it - 1)->hi = it->hi;
      runs_.erase(it);
    } else if (joins_prev) {
      (it - 1)->hi = s;
    } else if (joins_next) {
      it->lo = s;
    } else {
      runs_.insert(it, Run{s, s});
    }
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t s) const {
    if (runs_.empty() || s > runs_.back().hi) return false;
    return std::lower_bound(runs_.begin(), runs_.end(), s, below)->lo <= s;
  }

  /// Number of sequence numbers in the set.
  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// The runs, ascending; consecutive runs are separated by a missing value.
  [[nodiscard]] std::span<const Run> runs() const { return runs_; }

  /// Calls visit(s) for every member, ascending.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const Run& run : runs_) {
      for (std::uint64_t s = run.lo;; ++s) {
        visit(s);
        if (s == run.hi) break;  // not `s <= hi`: hi may be UINT64_MAX
      }
    }
  }

 private:
  /// lower_bound order: runs lying wholly below `s` come first.
  static bool below(const Run& run, std::uint64_t s) { return run.hi < s; }

  std::vector<Run> runs_;
  std::uint64_t size_ = 0;
};

/// Packs a publication stream's identity — (topic, publisher) — into one
/// key, so a dedup filter needs one lookup per delivery.
[[nodiscard]] constexpr std::uint64_t stream_key(TopicId topic,
                                                 ClientId publisher) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(topic.value()))
          << 32) |
         static_cast<std::uint32_t>(publisher.value());
}
[[nodiscard]] constexpr TopicId stream_topic(std::uint64_t key) {
  return TopicId{static_cast<std::int32_t>(static_cast<std::uint32_t>(key >> 32))};
}
[[nodiscard]] constexpr ClientId stream_publisher(std::uint64_t key) {
  return ClientId{static_cast<std::int32_t>(static_cast<std::uint32_t>(key))};
}

/// Exact dedup state of an endpoint's streams: stream_key -> SeqSet in one
/// flat open-addressing table (power-of-two slots, Fibonacci hashing,
/// linear probing, at most half full). An endpoint holds a handful of
/// streams, so a lookup is one multiply and, almost always, one probe whose
/// key and runs share a cache line — no hash node, no bucket array, no
/// division, no data-dependent search branches. A slot is empty exactly
/// when its SeqSet is: insert() is the only way in, and it always adds a
/// seq. Nothing is ever removed.
class StreamTable {
 public:
  /// Adds `seq` to stream `key`; true when it was not seen before.
  bool insert(std::uint64_t key, std::uint64_t seq) {
    if (!slots_.empty()) {
      for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
        Slot& slot = slots_[i];
        if (slot.seqs.size() == 0) break;  // empty: a new stream
        if (slot.key == key) return slot.seqs.insert(seq);
      }
    }
    if ((streams_ + 1) * 2 > slots_.size()) grow();
    Slot& slot = free_slot(key);
    slot.key = key;
    ++streams_;
    return slot.seqs.insert(seq);
  }

  /// Number of streams seen.
  [[nodiscard]] std::size_t streams() const { return streams_; }

  /// Calls visit(key, seqs) for every stream, in no particular order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const Slot& slot : slots_) {
      if (slot.seqs.size() > 0) visit(slot.key, slot.seqs);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    SeqSet seqs;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  Slot& free_slot(std::uint64_t key) {
    std::size_t i = home(key);
    while (slots_[i].seqs.size() > 0) i = (i + 1) & (slots_.size() - 1);
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 4 : slots_.size() * 2);
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (Slot& slot : old) {
      if (slot.seqs.size() > 0) free_slot(slot.key) = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t streams_ = 0;
  unsigned shift_ = 64;
};

}  // namespace multipub
