// Golden digests: FNV-1a-64 fingerprints of a run's observables, one per
// round and observable family, checked in as constants.
//
// A golden test folds what a run observed — delivery times, costs,
// counters, the deployed assignment matrix, the rendered metrics — into a
// table of 64-bit digests and compares it with a checked-in table. The
// data-plane tables were recorded from the seed scheduling engine
// (std::priority_queue with a std::function per hop) and the typed-event
// engine side by side; both produced the same tables, so the digest keeps
// that differential alive after the seed engine's removal. On a mismatch
// the failure names the first diverging round and family and prints the
// whole actual table as a C++ initializer: a deliberate re-record is a
// paste.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace multipub::testutil {

/// Incremental FNV-1a-64. Integers are folded least-significant byte first
/// and doubles by their IEEE-754 bit pattern, so a digest is exact (no
/// tolerance) and independent of the host's byte order.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  Fnv1a& byte(std::uint8_t b) {
    hash_ = (hash_ ^ b) * kPrime;
    return *this;
  }
  Fnv1a& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Fnv1a& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  /// Length-prefixed, so ("ab", "c") and ("a", "bc") differ.
  Fnv1a& str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    return *this;
  }
  template <typename T>
  Fnv1a& u64s(const std::vector<T>& values) {
    u64(values.size());
    for (const T v : values) u64(static_cast<std::uint64_t>(v));
    return *this;
  }
  Fnv1a& f64s(const std::vector<double>& values) {
    u64(values.size());
    for (const double v : values) f64(v);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kOffset;
};

/// Observable families, one digest column each.
enum Family : std::size_t {
  kDeliveryTimes,  ///< the round's delivery times (bit patterns, in order)
  kCost,           ///< interval cost and cumulative ledger bytes
  kCounters,       ///< transport and broker counters
  kMatrix,         ///< the controller's rendered assignment matrix
  kMetrics,        ///< the rendered metrics snapshot
  kFamilyCount,
};
inline constexpr std::array<const char*, kFamilyCount> kFamilyNames{
    "delivery_times", "cost", "counters", "matrix", "metrics"};

/// One round's digests, indexed by Family. 0 marks a family the test does
/// not observe.
using DigestRow = std::array<std::uint64_t, kFamilyCount>;
using DigestTable = std::vector<DigestRow>;

/// `table` as a paste-ready C++ initializer body, two lines per round.
[[nodiscard]] inline std::string render_digest_table(
    std::span<const DigestRow> table) {
  static_assert(kFamilyCount == 5, "one %016 conversion per family");
  std::string out;
  char line[160];
  for (std::size_t round = 0; round < table.size(); ++round) {
    const DigestRow& row = table[round];
    std::snprintf(line, sizeof line,
                  "    {0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
                  ",\n     0x%016" PRIx64 ", 0x%016" PRIx64
                  "},  // round %zu\n",
                  row[0], row[1], row[2], row[3], row[4], round);
    out += line;
  }
  return out;
}

/// Succeeds iff `actual` equals `golden` exactly. Otherwise the message
/// names the first diverging round and family and prints the full actual
/// table.
[[nodiscard]] inline ::testing::AssertionResult matches_golden(
    std::span<const DigestRow> actual, std::span<const DigestRow> golden) {
  std::string where;
  if (actual.size() != golden.size()) {
    where = "round count: " + std::to_string(actual.size()) + " actual vs " +
            std::to_string(golden.size()) + " golden";
  }
  for (std::size_t round = 0;
       where.empty() && round < actual.size(); ++round) {
    for (std::size_t f = 0; f < kFamilyCount; ++f) {
      if (actual[round][f] != golden[round][f]) {
        where = "round " + std::to_string(round) + ", family " +
                kFamilyNames[f];
        break;
      }
    }
  }
  if (where.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "golden digest diverged at " << where
         << "\nactual table (columns: delivery_times, cost, counters, "
            "matrix, metrics):\n"
         << render_digest_table(actual);
}

}  // namespace multipub::testutil
