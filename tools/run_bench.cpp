// Before/after perf driver: reruns the hot-path workloads this repo
// optimizes with the replaced code path ("before", kept alive behind a
// switch) and the current default ("after"), and writes the medians to
// BENCH_<workload>.json (see bench/bench_json.hpp for the schema).
//
// Workloads:
//   sortlib  parallel_sort on 1M random u64, 4 pool threads. Before:
//            MergeAlgo::kSequentialLoserTree (single-threaded loser tree +
//            copy-back). After: the splitter-partitioned parallel merge.
//            Reports the cross-chunk merge phase and the total sort.
//
// Rank-count scaling is measured by perfbench's `hybrid-cut-wide` workload
// (1024 ranks), and per-stage critical-path shares by
// `perfbench/run.py --trace 1`.
//
// Usage: run_bench [--out-dir DIR] [sortlib ...]
// Defaults: sortlib, files written to the current directory.
// PAPAR_BENCH_REPEATS (default 5) sets the sample count per knob;
// PAPAR_BENCH_SCALE shrinks the datasets for smoke runs as usual.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "bench/common.hpp"
#include "sortlib/simd.hpp"
#include "sortlib/sort.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace papar;

int repeats() {
  if (const char* s = std::getenv("PAPAR_BENCH_REPEATS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 5;
}

void print_entry(const bench::BenchEntry& e, const char* unit = "s") {
  std::printf("  %-32s before %.4f%s  after %.4f%s  speedup %.2fx\n",
              e.name.c_str(), e.before_median(), unit, e.after_median(), unit,
              e.speedup());
}

/// One timed parallel_sort under an explicit (engine, merge algo, SIMD)
/// configuration, hard-stopping if the output differs from `reference`
/// (byte-identity across every path is the contract the numbers ride on).
template <typename T>
double timed_sort(std::vector<T> v, ThreadPool& pool, sortlib::SortEngine engine,
                  sortlib::MergeAlgo algo, bool force_scalar,
                  std::vector<T>& reference) {
  sortlib::simd::set_force_scalar(force_scalar);
  WallTimer timer;
  sortlib::parallel_sort(std::span<T>(v), std::less<T>(), pool, nullptr, algo,
                         engine);
  const double wall = timer.seconds();
  sortlib::simd::set_force_scalar(false);
  if (reference.empty()) {
    reference = std::move(v);
  } else if (v != reference) {
    std::fprintf(stderr, "FATAL: sort output differs between engine paths\n");
    std::exit(1);
  }
  return wall;
}

template <typename T>
std::vector<T> random_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.next_u64());
  return v;
}

bench::BenchReport bench_sortlib(int reps) {
  const std::size_t n = bench::scaled(1'000'000);
  const std::size_t threads = 4;
  std::printf("sortlib: %zu random u64, %zu pool threads, %d repeats/knob\n", n,
              threads, reps);

  const auto base = random_keys<std::uint64_t>(n, 42);

  ThreadPool pool(threads);
  bench::BenchEntry merge{
      "merge_phase.1M_u64.4t",
      "sequential loser tree + copy-back",
      "splitter-partitioned parallel multiway merge",
      {},
      {}};
  bench::BenchEntry total{"total_sort.1M_u64.4t", merge.before_label,
                          merge.after_label,      {},
                          {}};

  std::vector<std::uint64_t> reference;
  for (int r = 0; r < reps; ++r) {
    for (const auto algo : {sortlib::MergeAlgo::kSequentialLoserTree,
                            sortlib::MergeAlgo::kParallelSplitter}) {
      auto v = base;
      sortlib::SortBreakdown breakdown;
      WallTimer timer;
      sortlib::parallel_sort(std::span<std::uint64_t>(v),
                             std::less<std::uint64_t>(), pool, &breakdown, algo,
                             sortlib::SortEngine::kMergesort);
      const double wall = timer.seconds();
      const bool before = algo == sortlib::MergeAlgo::kSequentialLoserTree;
      (before ? merge.before_samples : merge.after_samples)
          .push_back(breakdown.merge_seconds);
      (before ? total.before_samples : total.after_samples).push_back(wall);
      // Both algorithms must produce the same permutation (partition
      // identity); a mismatch invalidates the numbers, so hard-stop.
      if (reference.empty()) {
        reference = std::move(v);
      } else if (v != reference) {
        std::fprintf(stderr, "FATAL: sort output differs between merge algorithms\n");
        std::exit(1);
      }
    }
  }

  // Engine A/B on the headline input: the pre-vectorization default (the
  // parallel-merge sort with scalar networks) vs the LSD radix path kAuto
  // now dispatches large integral spans to.
  bench::BenchEntry engine_ab{"sort_engine.1M_u64.4t",
                              "parallel mergesort, scalar networks (previous default)",
                              "LSD radix (auto-dispatch choice)",
                              {},
                              {}};
  // SIMD A/B on the mergesort engine: forced-scalar networks/merge vs the
  // runtime-dispatched vector kernels.
  bench::BenchEntry simd_ab{"simd_networks.1M_u64.4t",
                            "scalar networks + scalar merge (PAPAR_FORCE_SCALAR)",
                            std::string("vector kernels (") +
                                sortlib::simd::level_name(sortlib::simd::active_level()) +
                                ")",
                            {},
                            {}};
  for (int r = 0; r < reps; ++r) {
    // The engine "before" forces scalar kernels: that is the parallel-merge
    // path as it existed before this round of vectorization work.
    engine_ab.before_samples.push_back(
        timed_sort(base, pool, sortlib::SortEngine::kMergesort,
                   sortlib::MergeAlgo::kParallelSplitter, true, reference));
    engine_ab.after_samples.push_back(
        timed_sort(base, pool, sortlib::SortEngine::kRadix,
                   sortlib::MergeAlgo::kParallelSplitter, false, reference));
    simd_ab.before_samples.push_back(
        timed_sort(base, pool, sortlib::SortEngine::kMergesort,
                   sortlib::MergeAlgo::kParallelSplitter, true, reference));
    simd_ab.after_samples.push_back(
        timed_sort(base, pool, sortlib::SortEngine::kMergesort,
                   sortlib::MergeAlgo::kParallelSplitter, false, reference));
  }

  bench::BenchReport report;
  report.bench = "sortlib";
  report.scale = bench::scale_factor();
  report.repeats = reps;
  report.entries = {merge, total, engine_ab, simd_ab};

  // The sortlib-matrix sweep: engine path x key width x input size, every
  // cell byte-identity-checked. Covers both dispatch regimes (below/above
  // the radix cutoff territory) per width.
  const std::vector<std::size_t> matrix_sizes = {bench::scaled(65'536),
                                                 bench::scaled(1'000'000)};
  auto matrix_cell = [&](auto tag, const char* width_name, std::size_t size) {
    using T = decltype(tag);
    const auto data = random_keys<T>(size, 7 + size);
    const std::string suffix = std::string(width_name) + "." +
                               std::to_string(size / 1024) + "k";
    bench::BenchEntry radix_vs_merge{"matrix.radix_vs_merge." + suffix,
                                     "mergesort engine (SIMD leaves)",
                                     "radix engine",
                                     {},
                                     {}};
    bench::BenchEntry simd_vs_scalar{"matrix.simd_vs_scalar." + suffix,
                                     "mergesort engine, forced scalar",
                                     "mergesort engine, vector kernels",
                                     {},
                                     {}};
    std::vector<T> cell_reference;
    for (int r = 0; r < reps; ++r) {
      radix_vs_merge.before_samples.push_back(
          timed_sort(data, pool, sortlib::SortEngine::kMergesort,
                     sortlib::MergeAlgo::kParallelSplitter, false, cell_reference));
      radix_vs_merge.after_samples.push_back(
          timed_sort(data, pool, sortlib::SortEngine::kRadix,
                     sortlib::MergeAlgo::kParallelSplitter, false, cell_reference));
      simd_vs_scalar.before_samples.push_back(
          timed_sort(data, pool, sortlib::SortEngine::kMergesort,
                     sortlib::MergeAlgo::kParallelSplitter, true, cell_reference));
      simd_vs_scalar.after_samples.push_back(
          timed_sort(data, pool, sortlib::SortEngine::kMergesort,
                     sortlib::MergeAlgo::kParallelSplitter, false, cell_reference));
    }
    report.entries.push_back(std::move(radix_vs_merge));
    report.entries.push_back(std::move(simd_vs_scalar));
  };
  for (const std::size_t size : matrix_sizes) {
    matrix_cell(std::uint32_t{}, "u32", size);
    matrix_cell(std::uint64_t{}, "u64", size);
  }

  for (const auto& e : report.entries) print_entry(e);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  std::vector<std::string> workloads;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: run_bench [--out-dir DIR] [sortlib ...]\n");
      return 0;
    } else {
      workloads.emplace_back(argv[i]);
    }
  }
  if (workloads.empty()) workloads = {"sortlib"};

  const int reps = repeats();
  for (const std::string& w : workloads) {
    papar::bench::BenchReport report;
    if (w == "sortlib") {
      report = bench_sortlib(reps);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", w.c_str());
      return 2;
    }
    const std::string path = out_dir + "/BENCH_" + report.bench + ".json";
    report.write(path);
    std::printf("  wrote %s\n", path.c_str());
  }
  return 0;
}
