#include "checks.h"

namespace perfbench {

void DeliveryAudit::add(std::uint64_t expected_count, std::uint64_t unique,
                        std::uint64_t duplicate_count) {
  expected += expected_count;
  if (unique < expected_count) missing += expected_count - unique;
  if (unique > expected_count) surplus += unique - expected_count;
  duplicates += duplicate_count;
}

void DeliveryAudit::report(Result& result) const {
  result.attempted += expected;
  result.fail(missing, "deliveries missing");
  result.fail(surplus, "deliveries of unpublished messages");
  result.fail(duplicates, "duplicate deliveries");
}

void audit_ledger(const std::vector<multipub::Bytes>& expected_inter,
                  const std::vector<multipub::Bytes>& expected_internet,
                  const std::vector<multipub::Bytes>& actual_inter,
                  const std::vector<multipub::Bytes>& actual_internet,
                  const std::string& what, Result& result) {
  std::uint64_t mismatched = 0;
  const std::size_t regions = expected_inter.size();
  if (expected_internet.size() != regions || actual_inter.size() != regions ||
      actual_internet.size() != regions) {
    result.fail(regions == 0 ? 1 : regions, what + ": region count differs");
    return;
  }
  for (std::size_t r = 0; r < regions; ++r) {
    if (expected_inter[r] != actual_inter[r] ||
        expected_internet[r] != actual_internet[r]) {
      ++mismatched;
    }
  }
  result.fail(mismatched, what + ": regions with mismatched billed bytes");
}

}  // namespace perfbench
