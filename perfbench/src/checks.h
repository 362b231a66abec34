// Correctness audits run after a workload's measured phase, outside timing.
// Each turns an observed outcome into failed operations on the Result, so
// a run with any failure prints "correct": false and exits non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "report.h"

namespace perfbench {

/// Exactly-once audit of one (subscriber, topic) stream: `unique` distinct
/// publications arrived where `expected` were published, `duplicates`
/// arrived more than once. Missing and surplus publications and duplicates
/// each count as failed deliveries.
struct DeliveryAudit {
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  std::uint64_t surplus = 0;
  std::uint64_t duplicates = 0;

  void add(std::uint64_t expected_count, std::uint64_t unique,
           std::uint64_t duplicate_count);
  /// Charges the audit to `result` (attempted += expected).
  void report(Result& result) const;
};

/// Per-region billed bytes against a reference; every region whose
/// inter-region or internet byte count differs is one failure.
void audit_ledger(const std::vector<multipub::Bytes>& expected_inter,
                  const std::vector<multipub::Bytes>& expected_internet,
                  const std::vector<multipub::Bytes>& actual_inter,
                  const std::vector<multipub::Bytes>& actual_internet,
                  const std::string& what, Result& result);

}  // namespace perfbench
