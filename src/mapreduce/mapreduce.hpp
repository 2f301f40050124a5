// MapReduce engine over the simulated message-passing runtime.
//
// A from-scratch reimplementation of the MR-MPI programming model the paper
// maps PaPar onto: each rank holds one KvBuffer page; `map` populates it,
// `aggregate` shuffles records to reducers through one alltoallv, `reduce`
// groups local records by key and folds each group, and `sample_sort_u64`
// performs a sampling-based global sort (the paper's §III-D "Data Sampling"
// balancing technique, with a naive range-splitting mode kept for the
// ablation bench).
//
// All operations are collectives: every rank of the communicator must call
// them in the same order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "mapreduce/checkpoint.hpp"
#include "mapreduce/kvbuffer.hpp"
#include "mpsim/comm.hpp"

namespace papar {
class MemoryBudget;
}

namespace papar::mr {

/// How sample_sort_u64 chooses reducer range splitters.
enum class SplitterMethod {
  /// Sample keys on every rank, gather the samples at rank 0, which picks
  /// the p-1 splitters and broadcasts them (the paper's approach, after
  /// Gufler et al. [9]).
  kSampled,
  /// Linear interpolation between the global min and max key. Cheap but
  /// badly imbalanced on skewed distributions; kept for the ablation.
  kNaive,
};

/// What MapReduce::sort_by_key orders a page by: per record, a fixed-width,
/// byte-order-preserving key of one or two u64 words (compared
/// lexicographically, words[0] first), and how records whose words are equal
/// are ordered. The order is stable and total: ties left after the tie-break
/// keep page order. Build one with the factories below.
struct KeyColumn {
  /// What decides between records whose key words are equal.
  enum class TieBreak {
    kStable,       ///< page order
    kKeyBytes,     ///< full key bytes, then page order
    kRecordBytes,  ///< key bytes, then value bytes, then page order
  };
  /// Writes a record's `words` key words. Returns true when the words encode
  /// the whole key, so equal words mean equal keys and a kKeyBytes tie-break
  /// has nothing left to decide.
  using Extract = std::function<bool(const KvPair& kv, std::uint64_t* words)>;

  Extract extract;
  int words = 1;  ///< 1 or 2
  TieBreak tie_break = TieBreak::kStable;

  /// Raw key bytes in lexicographic order: key bytes 0-14 big-endian, then
  /// min(length, 16) in the last byte, so keys of up to 15 bytes are ordered
  /// by the words alone; longer keys tie-break on their full bytes.
  static KeyColumn key_bytes();
  /// The key as a native u64 (8-byte keys), page order on ties.
  static KeyColumn u64_key();
  /// Distribute's [u32 partition][u64 stamp] keys: by partition, then
  /// stamp, then value bytes.
  static KeyColumn partition_stamp();
  /// A caller-provided u64 projection, tie-broken by record bytes when
  /// `tie_break_bytes`, by page order otherwise.
  static KeyColumn projection(std::function<std::uint64_t(const KvPair&)> proj,
                              bool tie_break_bytes);

  /// Strict-weak "less" over records implied by this column: the
  /// comparator that a stable comparison sort would need to reproduce
  /// sort_by_key's order (the external spill sort uses it).
  bool less(const KvPair& a, const KvPair& b) const;
};

class MapReduce {
 public:
  using MapTaskFn = std::function<void(int itask, KvEmitter&)>;
  using MapKvFn = std::function<void(std::string_view key, std::string_view value, KvEmitter&)>;
  using ReduceFn = std::function<void(std::string_view key,
                                      std::span<const std::string_view> values, KvEmitter&)>;
  using PartitionFn = std::function<int(std::string_view key, std::string_view value)>;
  /// Projects a record's sort key to an integer; sorting is by this value.
  using KeyProjection = std::function<std::uint64_t(std::string_view key, std::string_view value)>;

  /// Binds to the communicator and inherits its runtime's memory budget
  /// (if one is attached): with a budget, the shuffle streams bounded
  /// segments under credit-based flow control, and sort/rewrite phases
  /// spill sealed frames to disk past the soft watermark instead of
  /// holding a second in-memory copy. Output bytes are identical either
  /// way.
  explicit MapReduce(mp::Comm& comm)
      : comm_(&comm), budget_(comm.memory_budget()) {}

  mp::Comm& comm() { return *comm_; }

  // -- Populate ------------------------------------------------------------

  /// Runs `nmap` map tasks; task i executes on rank i % P. Emitted records
  /// land in this rank's page.
  void map(int nmap, const MapTaskFn& fn);

  /// Rewrites every local record through `fn` (record-parallel transform).
  void map_kv(const MapKvFn& fn);

  // -- Shuffle -------------------------------------------------------------

  /// Routes every record to rank hash(key) % P. One alltoallv.
  void aggregate();

  /// Routes every record to the rank chosen by `part`.
  void aggregate(const PartitionFn& part);

  // -- Group / fold --------------------------------------------------------

  /// Groups local records by exact key bytes (stable: values keep page
  /// order) and calls `fn` once per group; emitted records replace the page.
  /// This is MR-MPI's convert+reduce.
  void reduce(const ReduceFn& fn);

  /// MR-MPI's `compress`: a purely local convert+reduce used as a combiner
  /// before aggregate() — pre-fold duplicate keys on the producing rank so
  /// the shuffle moves one record per (rank, key) instead of one per
  /// emission. Semantically identical to reduce() but named for its role.
  void local_combine(const ReduceFn& fn) { reduce(fn); }

  // -- Sort ----------------------------------------------------------------

  /// Stable local sort by `col`; the only way a page gets locally ordered.
  /// One pass extracts a {key words, record offset} column, which is
  /// LSD-radix-sorted from sortlib::kRadixAutoCutoff records and
  /// comparison-sorted below that; runs of equal words are then tie-broken on record bytes and
  /// the page is rebuilt with one reorder. Past the budget's soft watermark
  /// the page is sorted externally (runs spill to disk) with `col.less`.
  /// Output bytes are identical on every path.
  void sort_by_key(const KeyColumn& col);

  /// Global sort: after the call, records are ordered by `proj` within each
  /// rank and ranges are ordered across ranks (rank 0 holds the smallest
  /// keys when ascending). `method` controls splitter selection. With
  /// `tie_break_bytes`, equal projections are ordered by raw (key, value)
  /// bytes, making the global order total and backend-independent — PaPar's
  /// partition-identity guarantee relies on this.
  void sample_sort_u64(const KeyProjection& proj, bool ascending = true,
                       SplitterMethod method = SplitterMethod::kSampled,
                       int oversample = 32, bool tie_break_bytes = false);

  // -- Movement / inspection ----------------------------------------------

  /// Concentrates all records on `root` (pages from other ranks append in
  /// rank order).
  void gather(int root);

  /// Total records across ranks.
  std::uint64_t global_count();

  /// Per-rank record counts (same vector on every rank) — used by the
  /// sampling ablation to measure reducer imbalance.
  std::vector<std::uint64_t> rank_counts();

  const KvBuffer& local() const { return page_; }
  KvBuffer& mutable_local() { return page_; }

  // -- Checkpointing -------------------------------------------------------

  /// Saves this rank's page as its checkpoint of `stage`. Purely local (no
  /// communication), so a scheduled fault-injection crash can never fire
  /// mid-save.
  void checkpoint(CheckpointStore& store, std::uint64_t stage) const;

  /// Replaces this rank's page with its checkpoint of `stage`; returns
  /// false (page untouched) if that checkpoint was never saved.
  bool restore(CheckpointStore& store, std::uint64_t stage);

 private:
  void shuffle_by(const std::function<int(const KvPair&)>& route);

  /// Budget-aware shuffle body: streams many bounded segments per
  /// destination (wire format [u32 seq][u32 segment-count][frames...])
  /// instead of one monolithic page, draining incoming segments between
  /// sends so mailbox credits keep circulating. Requires route_cache_ to
  /// be filled by the sizing pass. `dest_bytes` is per-destination
  /// payload bytes (observability counters only).
  void shuffle_segmented(const std::vector<std::size_t>& dest_bytes);

  /// Record offsets of the page in `col` order: the in-memory body of
  /// sort_by_key, also used directly by reduce, which walks the groups in
  /// this order instead of rebuilding the page. Bumps the sort.* counters;
  /// charges nothing to the memory budget (sort_by_key charges the column).
  std::vector<std::size_t> order_by_key(const KeyColumn& col);

  mp::Comm* comm_;
  MemoryBudget* budget_ = nullptr;
  KvBuffer page_;
  // Reusable shuffle state. `arena_` holds the per-destination send pages;
  // after each alltoallv the received buffers are recycled into it, so a
  // steady-state aggregate() loop reuses storage instead of reallocating.
  // `route_cache_` remembers each record's destination from the sizing pass
  // so the (possibly stateful) routing function runs exactly once per
  // record.
  std::vector<std::vector<unsigned char>> arena_;
  std::vector<int> route_cache_;
};

}  // namespace papar::mr
