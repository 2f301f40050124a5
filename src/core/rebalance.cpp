#include "core/rebalance.hpp"

#include <algorithm>
#include <cstring>

#include "mapreduce/mapreduce.hpp"
#include "util/bytes.hpp"

namespace papar::core {

namespace {

double imbalance_of(const std::vector<std::uint64_t>& counts) {
  std::uint64_t total = 0, mx = 0;
  for (auto c : counts) {
    total += c;
    mx = std::max(mx, c);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(mx) /
         (static_cast<double>(total) / static_cast<double>(counts.size()));
}

}  // namespace

RebalanceReport rebalance_op(mp::Comm& comm, Dataset& ds, DistrPolicyKind policy) {
  PAPAR_CHECK_MSG(policy == DistrPolicyKind::kCyclic ||
                      policy == DistrPolicyKind::kBlock,
                  "rebalance supports the cyclic and block policies");
  const int p = comm.size();

  RebalanceReport report;
  report.before = ds.page.count();

  mr::MapReduce mr(comm);
  mr.mutable_local() = std::move(ds.page);
  auto counts_before = mr.rank_counts();
  report.imbalance_before = imbalance_of(counts_before);

  // Global offsets so placement applies to the logical global sequence.
  std::uint64_t offset = 0, total = 0;
  for (int r = 0; r < p; ++r) {
    if (r < comm.rank()) offset += counts_before[static_cast<std::size_t>(r)];
    total += counts_before[static_cast<std::size_t>(r)];
  }

  // Tag each entry with its global index (preserved through the shuffle so
  // receivers can restore the global order), then route by the policy.
  std::uint64_t index = offset;
  mr.map_kv([&](std::string_view, std::string_view value, mr::KvEmitter& emit) {
    char key[sizeof(std::uint64_t)];
    std::memcpy(key, &index, sizeof(index));
    ++index;
    emit.emit(std::string_view(key, sizeof(key)), value);
  });
  const auto total_entries = std::max<std::uint64_t>(total, 1);
  mr.aggregate([&](std::string_view key, std::string_view) {
    std::uint64_t i;
    std::memcpy(&i, key.data(), sizeof(i));
    if (policy == DistrPolicyKind::kCyclic) {
      return static_cast<int>(i % static_cast<std::uint64_t>(p));
    }
    return static_cast<int>(i * static_cast<std::uint64_t>(p) / total_entries);
  });
  mr.sort_by_key(mr::KeyColumn::u64_key());
  // Strip the temporary index key (basic operators reorder but never alter
  // data — the index was a reduce-key in the paper's sense).
  mr.map_kv([](std::string_view, std::string_view value, mr::KvEmitter& emit) {
    emit.emit("", value);
  });

  auto counts_after = mr.rank_counts();
  report.imbalance_after = imbalance_of(counts_after);
  report.after = mr.local().count();
  ds.page = std::move(mr.mutable_local());
  return report;
}

}  // namespace papar::core
