// The sort engine: network-leaf mergesort, LSD radix, and a parallel front
// end that picks between them at runtime.
//
// Serves the role ASPaS [12] plays in the paper's sort operator: a highly
// optimized sort on multicore processors. Three layers:
//
//  - merge_sort / merge_sort_into: iterative bottom-up mergesort whose
//    leaves are 8- or 16-element sorting networks (networks.hpp, replayed in
//    SIMD registers for u32/u64 keys via simd.hpp). The leaf width is chosen
//    by pass-count parity so the ping-pong between the data and scratch
//    buffers *ends* in the caller-requested buffer — no copy-back.
//  - radix.hpp: byte-wise LSD radix sort for fixed-width keys.
//  - parallel_sort: sorts balanced chunks concurrently into scratch, then
//    combines them with the splitter-partitioned parallel multiway merge
//    (merge.hpp) straight into the caller's buffer; or dispatches the whole
//    input to radix when the key type allows it (SortEngine below).
//
// Engine selection (SortEngine): callers may pin an engine per call; kAuto
// dispatches integral keys of at least kRadixAutoCutoff elements to radix
// and everything else to mergesort. Float/double spans use radix only
// when pinned explicitly (their normalized key order refines operator<;
// see radix.hpp). The decision and the SIMD level actually used are
// reported in SortBreakdown and surface as papar_sort_* metrics in the
// engine layer.
//
// Stability: merge_sort and parallel_sort are stable as long as `less` is a
// strict weak ordering, EXCEPT inside the initial sorting networks (which
// are not stable). The radix path is stable end-to-end. PaPar's
// partition-identity guarantee therefore never relies on stability: callers
// sort with a total order (key, tie-broken by full record bytes) so equal
// elements are indistinguishable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "sortlib/merge.hpp"
#include "sortlib/networks.hpp"
#include "sortlib/radix.hpp"
#include "sortlib/simd.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace papar::sortlib {

inline constexpr std::size_t kNetworkBlock = 8;

/// Integral inputs at least this large auto-dispatch to the radix engine
/// under SortEngine::kAuto (MapReduce's key-column sort uses the same
/// cutoff).
inline constexpr std::size_t kRadixAutoCutoff = 8192;

/// How parallel_sort combines the independently sorted chunks.
enum class MergeAlgo {
  /// Splitter-partitioned parallel multiway merge: each pool thread merges
  /// one value range of the output directly into its final destination
  /// offset (the default).
  kParallelSplitter,
  /// The pre-parallel-merge behavior: a single-threaded loser tree popping
  /// into the output. Kept as the measured "before" of tools/run_bench and
  /// for A/B tests.
  kSequentialLoserTree,
};

/// Which algorithm family parallel_sort runs.
enum class SortEngine {
  /// Dispatch on key type and input size (integral keys >=
  /// kRadixAutoCutoff go to radix, everything else to mergesort).
  kAuto,
  /// Network-leaf mergesort + multiway merge (any type, any comparator).
  kMergesort,
  /// LSD radix sort; applies only when the element type has a RadixKey
  /// specialization and the comparator is the default ascending order,
  /// otherwise the call falls back to mergesort.
  kRadix,
};

inline const char* sort_engine_name(SortEngine engine) {
  switch (engine) {
    case SortEngine::kMergesort:
      return "merge";
    case SortEngine::kRadix:
      return "radix";
    case SortEngine::kAuto:
      break;
  }
  return "auto";
}

/// True when (T, Less) may legally take the radix path: fixed-width
/// normalized key under the default ascending order.
template <typename T, typename Less>
inline constexpr bool radix_compatible =
    radix_sortable<T> && (std::is_same_v<std::decay_t<Less>, std::less<std::remove_cv_t<T>>> ||
                          std::is_same_v<std::decay_t<Less>, std::less<>>);

/// Wall-clock breakdown of one parallel_sort call, plus the dispatch
/// decision it made. Filled when a non-null pointer is passed.
///
/// Semantics: `merge_seconds` measures ONLY the cross-chunk merge that
/// combines independently sorted chunk runs. In the single-chunk fallback
/// (tiny input, or a one-thread pool) there is no cross-chunk merge, so
/// `chunks` is 1 and `merge_seconds` is 0 even though merge_sort's internal
/// bottom-up passes may dominate; all of that time is `chunk_sort_seconds`.
/// For the radix engine the whole sort (histogram + scatter passes) is
/// `chunk_sort_seconds`, `chunks` is the parallel scatter chunk count, and
/// `merge_seconds` stays 0.
struct SortBreakdown {
  double chunk_sort_seconds = 0.0;
  /// Cross-chunk merge wall time (splitter partitioning + parallel merge
  /// passes, or the whole sequential loser-tree merge).
  double merge_seconds = 0.0;
  /// Of merge_seconds, the sequential splitter sampling + run slicing
  /// (0 for the loser-tree algorithm).
  double merge_partition_seconds = 0.0;
  std::size_t chunks = 0;
  /// Independent jobs of the parallel merge (1 for the loser tree; 0 when
  /// no cross-chunk merge ran).
  std::size_t merge_jobs = 0;
  /// The engine that actually ran (never kAuto).
  SortEngine engine_used = SortEngine::kMergesort;
  /// SIMD kernel level active during the call (scalar for non-u32/u64 keys
  /// regardless of hardware).
  simd::Level simd_level = simd::Level::kScalar;
  /// Width of the normalized radix key in bytes (0 for the merge engine).
  std::size_t key_bytes = 0;
  /// Radix scatter passes executed / skipped as trivial (see RadixStats).
  std::size_t radix_passes = 0;
  std::size_t radix_passes_skipped = 0;
  /// True when an odd radix pass count cost one copy back from scratch.
  bool radix_copied_back = false;
};

/// Splits [0, n) into `chunks` contiguous ranges whose sizes differ by at
/// most one element (size of chunk c is (n + c) / chunks), so no chunk — in
/// particular not the last one — carries a rounding remainder and the tail
/// latency of the parallel chunk-sort phase stays even.
inline std::vector<std::pair<std::size_t, std::size_t>> balanced_chunk_ranges(
    std::size_t n, std::size_t chunks) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t size = (n + c) / chunks;
    ranges[c] = {begin, begin + size};
    begin += size;
  }
  return ranges;
}

namespace sort_detail {

inline constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Sorts every `leaf`-wide block of [data, data+n) in place (the final
/// partial block included), using the SIMD block sorters when the type
/// qualifies.
template <typename T, typename Less>
void sort_leaves(T* data, std::size_t n, std::size_t leaf, Less& less) {
  const std::size_t full = n / leaf;
  if constexpr (simd::simd_sortable<T, Less>) {
    if (leaf == kNetworkBlock) {
      simd::sort8_blocks(data, full);
    } else {
      simd::sort16_blocks(data, full);
    }
  } else {
    for (std::size_t b = 0; b < full; ++b) {
      sort_small(data + b * leaf, leaf, less);
    }
  }
  const std::size_t tail = full * leaf;
  if (tail < n) sort_small(data + tail, n - tail, less);
}

}  // namespace sort_detail

/// Iterative bottom-up mergesort of `data` using caller scratch (>= n
/// elements, clobbered); the sorted result lands in `data` or — when
/// `want_in_scratch` — in [scratch, scratch + n).
///
/// The leaf width (8 or 16) is picked so the number of bottom-up merge
/// levels has the parity that makes the data<->scratch ping-pong *end* in
/// the requested buffer: for n > 8 the 16-wide leaf runs exactly one fewer
/// level than the 8-wide leaf, so one of the two always matches and no
/// final copy is ever needed (parallel_sort exploits this to land chunk
/// runs in scratch and the cross-chunk merge back in the caller's buffer).
template <typename T, typename Less>
void merge_sort_into(std::span<T> data, T* scratch, bool want_in_scratch, Less less) {
  const std::size_t n = data.size();
  T* const d = data.data();
  if (n == 0) return;
  if (n <= kNetworkBlock) {
    sort_small(d, n, less);
    if (want_in_scratch) std::copy(d, d + n, scratch);
    return;
  }
  std::size_t leaf = kNetworkBlock;
  std::size_t levels = merge_detail::ceil_log2(sort_detail::ceil_div(n, leaf));
  const bool want_even = !want_in_scratch;  // the ping-pong starts at `data`
  if ((levels % 2 == 0) != want_even) {
    leaf = 2 * kNetworkBlock;
    levels = merge_detail::ceil_log2(sort_detail::ceil_div(n, leaf));
  }
  sort_detail::sort_leaves(d, n, leaf, less);
  T* src = d;
  T* dst = scratch;
  for (std::size_t width = leaf; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      merge_runs(src + lo, src + mid, src + hi, dst + lo, less);
    }
    std::swap(src, dst);
  }
  PAPAR_CHECK_MSG(src == (want_in_scratch ? scratch : d),
                  "merge_sort_into parity landed in the wrong buffer");
}

/// In-place mergesort front end (allocates its own scratch). Requires T to
/// be default-constructible (the scratch is value-initialized, never read
/// before being written).
template <typename T, typename Less>
void merge_sort(std::span<T> data, Less less) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  if (n <= kNetworkBlock) {
    sort_small(data.data(), n, less);
    return;
  }
  std::vector<T> scratch(n);
  merge_sort_into(data, scratch.data(), false, less);
}

/// Parallel sort with engine dispatch. The mergesort engine sorts balanced
/// chunks concurrently (each landing its run in the shared scratch buffer),
/// then combines the runs with the splitter-partitioned parallel multiway
/// merge writing every element directly into its final position in `data` —
/// the chunk phase, the merge phase, and the radix engine all finish
/// without a copy-back. When `breakdown` is non-null it receives the phase
/// split and the dispatch decision.
template <typename T, typename Less>
void parallel_sort(std::span<T> data, Less less, ThreadPool& pool,
                   SortBreakdown* breakdown = nullptr,
                   MergeAlgo algo = MergeAlgo::kParallelSplitter,
                   SortEngine engine = SortEngine::kAuto) {
  WallTimer timer;
  const std::size_t n = data.size();
  if (breakdown != nullptr) *breakdown = SortBreakdown{};

  if constexpr (radix_compatible<T, Less>) {
    const bool use_radix =
        engine == SortEngine::kRadix ||
        (engine == SortEngine::kAuto && std::is_integral_v<std::remove_cv_t<T>> &&
         n >= kRadixAutoCutoff);
    if (use_radix) {
      using Traits = RadixKey<std::remove_cv_t<T>>;
      RadixStats rstats;
      if (n > 1) {
        std::vector<T> scratch(n);
        lsd_radix_sort(data, std::span<T>(scratch),
                       [](const T& v) { return Traits::to_key(v); }, pool, &rstats);
      } else {
        rstats.chunks = 1;
      }
      if (breakdown != nullptr) {
        breakdown->chunk_sort_seconds = timer.seconds();
        breakdown->chunks = rstats.chunks;
        breakdown->engine_used = SortEngine::kRadix;
        breakdown->key_bytes = sizeof(typename Traits::Key);
        breakdown->radix_passes = rstats.passes;
        breakdown->radix_passes_skipped = rstats.skipped_passes;
        breakdown->radix_copied_back = rstats.copied_back;
      }
      return;
    }
  }

  if (breakdown != nullptr) {
    breakdown->engine_used = SortEngine::kMergesort;
    if constexpr (simd::simd_sortable<T, Less>) {
      breakdown->simd_level = simd::active_level();
    }
  }
  if (n <= 4 * kNetworkBlock || pool.size() == 1) {
    merge_sort(data, less);
    if (breakdown != nullptr) {
      breakdown->chunk_sort_seconds = timer.seconds();
      breakdown->chunks = 1;
    }
    return;
  }
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(pool.size(), n / (2 * kNetworkBlock)));
  const auto ranges = balanced_chunk_ranges(n, chunks);
  // One shared scratch: every chunk's ping-pong lands its sorted run in the
  // scratch slice, and the multiway merge reads the runs from there while
  // writing final positions in `data` (see
  // parallel_multiway_merge_from_scratch).
  std::vector<T> scratch(n);
  pool.parallel_for(chunks, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t c = begin; c < end; ++c) {
      auto [lo, hi] = ranges[c];
      merge_sort_into(std::span<T>(data.data() + lo, hi - lo), scratch.data() + lo,
                      true, less);
    }
  });
  const double chunk_seconds = timer.seconds();

  std::vector<std::span<const T>> runs;
  for (auto [begin, end] : ranges) {
    if (end > begin) runs.emplace_back(scratch.data() + begin, end - begin);
  }
  if (breakdown != nullptr) {
    breakdown->chunk_sort_seconds = chunk_seconds;
    breakdown->chunks = chunks;
  }
  if (runs.size() == 1) {
    std::copy(runs[0].begin(), runs[0].end(), data.begin());
    return;
  }
  if (algo == MergeAlgo::kParallelSplitter) {
    MultiwayMergeStats stats;
    parallel_multiway_merge_from_scratch(std::move(runs), data, std::span<T>(scratch),
                                         less, pool, 0,
                                         breakdown != nullptr ? &stats : nullptr);
    if (breakdown != nullptr) {
      breakdown->merge_seconds = timer.seconds() - chunk_seconds;
      breakdown->merge_partition_seconds = stats.partition_seconds;
      breakdown->merge_jobs = stats.jobs;
    }
  } else {
    // The runs live in scratch, so the loser tree can pop straight into
    // `data` (the old copy-through-a-temporary is gone here too).
    LoserTree<T, Less> tree(std::move(runs), less);
    T* out = data.data();
    while (!tree.empty()) *out++ = tree.pop();
    if (breakdown != nullptr) {
      breakdown->merge_seconds = timer.seconds() - chunk_seconds;
      breakdown->merge_jobs = 1;
    }
  }
}

}  // namespace papar::sortlib
