// Property tests for the vectorized sort engine: the LSD radix path and the
// SIMD sorting-network/merge kernels must be byte-identical to their scalar
// and std::stable_sort baselines on adversarial distributions — all-equal,
// presorted, reversed, duplicate-heavy, denormal/NaN-adjacent floats, and
// sizes straddling every network and radix cutoff. MapReduce's key-column
// sort (sort_by_key, and reduce's group-by order) is held to the same
// standard against std::stable_sort with the per-operator comparators it
// replaced, on both sides of the radix cutoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "mapreduce/mapreduce.hpp"
#include "mpsim/runtime.hpp"
#include "obs/obs.hpp"
#include "sortlib/radix.hpp"
#include "sortlib/simd.hpp"
#include "sortlib/sort.hpp"
#include "util/membudget.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace papar::sortlib {
namespace {

// Sizes straddling the sorting-network widths (8, 16), typical chunk
// boundaries, and the radix auto-dispatch cutoff.
const std::vector<std::size_t> kEdgeSizes = {
    0,  1,  2,    7,    8,    9,    15,   16,  17,
    31, 63, 64,   65,   127,  255,  1023, 4095, 4096,
    4097, 8191, 8192, 8193, 20000};

template <typename T>
std::vector<T> adversarial(std::size_t n, int shape, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // uniform random
        v[i] = static_cast<T>(rng.next_u64());
        break;
      case 1:  // all equal
        v[i] = static_cast<T>(42);
        break;
      case 2:  // presorted
        v[i] = static_cast<T>(i);
        break;
      case 3:  // reversed
        v[i] = static_cast<T>(n - i);
        break;
      case 4:  // duplicate-heavy (8 distinct values)
        v[i] = static_cast<T>(rng.next_below(8));
        break;
      default:  // sawtooth
        v[i] = static_cast<T>(i % 37);
        break;
    }
  }
  return v;
}

constexpr int kShapes = 6;

TEST(RadixSort, MatchesStableSortOnAdversarialU64) {
  ThreadPool pool(4);
  for (const std::size_t n : kEdgeSizes) {
    for (int shape = 0; shape < kShapes; ++shape) {
      auto v = adversarial<std::uint64_t>(n, shape, 0x9e3779b9u + n);
      auto expect = v;
      std::stable_sort(expect.begin(), expect.end());
      radix_sort(std::span<std::uint64_t>(v), pool);
      EXPECT_EQ(v, expect) << "n=" << n << " shape=" << shape;
    }
  }
}

TEST(RadixSort, MatchesStableSortOnAdversarialU32) {
  ThreadPool pool(4);
  for (const std::size_t n : kEdgeSizes) {
    for (int shape = 0; shape < kShapes; ++shape) {
      auto v = adversarial<std::uint32_t>(n, shape, 0xdecafbadu + n);
      auto expect = v;
      std::stable_sort(expect.begin(), expect.end());
      radix_sort(std::span<std::uint32_t>(v), pool);
      EXPECT_EQ(v, expect) << "n=" << n << " shape=" << shape;
    }
  }
}

TEST(RadixSort, MatchesStableSortOnSignedKeys) {
  ThreadPool pool(2);
  for (const std::size_t n : {std::size_t{1000}, std::size_t{8193}}) {
    auto v = adversarial<std::int64_t>(n, 0, 77);
    for (std::size_t i = 0; i < v.size(); i += 3) v[i] = -v[i];
    auto expect = v;
    std::stable_sort(expect.begin(), expect.end());
    radix_sort(std::span<std::int64_t>(v), pool);
    EXPECT_EQ(v, expect);
  }
}

// Floats sort in normalized bit-pattern order (radix.hpp): a total order
// refining operator< that places -NaN payloads first, then -inf .. -0.0,
// +0.0 .. +inf, then +NaN payloads. The baseline sorts by the same
// normalized key, and the comparison is on exact bit patterns.
TEST(RadixSort, FloatBitPatternOrderOnDenormalsAndNans) {
  ThreadPool pool(2);
  std::vector<float> v;
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  for (int rep = 0; rep < 200; ++rep) {
    v.push_back(denorm * static_cast<float>(rep % 7));
    v.push_back(-denorm * static_cast<float>(rep % 5));
    v.push_back(rep % 11 == 0 ? qnan : static_cast<float>(rep) * 0.25f);
    v.push_back(rep % 13 == 0 ? -qnan : -static_cast<float>(rep) * 0.5f);
    v.push_back(rep % 2 == 0 ? 0.0f : -0.0f);
    v.push_back(rep % 17 == 0 ? std::numeric_limits<float>::infinity()
                              : -std::numeric_limits<float>::infinity());
  }
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end(), [](float a, float b) {
    return RadixKey<float>::to_key(a) < RadixKey<float>::to_key(b);
  });
  radix_sort(std::span<float>(v), pool);
  ASSERT_EQ(v.size(), expect.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(v[i]), std::bit_cast<std::uint32_t>(expect[i]))
        << "index " << i;
  }
}

TEST(RadixSort, SkipsTrivialPassesAndReportsStats) {
  ThreadPool pool(4);
  // Keys confined to the low byte: 7 of 8 passes are trivial.
  auto v = adversarial<std::uint64_t>(50000, 4, 3);
  RadixStats stats;
  radix_sort(std::span<std::uint64_t>(v), pool, &stats);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.skipped_passes, 7u);
  EXPECT_TRUE(stats.copied_back);  // one active pass ends in scratch
  EXPECT_GT(stats.chunks, 1u);
}

TEST(RadixSort, AllEqualDoesNoPasses) {
  ThreadPool pool(2);
  std::vector<std::uint64_t> v(10000, 7);
  RadixStats stats;
  radix_sort(std::span<std::uint64_t>(v), pool, &stats);
  EXPECT_EQ(stats.passes, 0u);
  EXPECT_FALSE(stats.copied_back);
}

// The three engines must agree byte-for-byte on plain u64 spans.
TEST(SortEngines, MergeRadixAndLoserTreeAreByteIdentical) {
  ThreadPool pool(4);
  for (const std::size_t n : kEdgeSizes) {
    auto base = adversarial<std::uint64_t>(n, 4, 0xabcdefu + n);
    auto via_merge = base;
    auto via_radix = base;
    auto via_loser = base;
    parallel_sort(std::span<std::uint64_t>(via_merge), std::less<std::uint64_t>(),
                  pool, nullptr, MergeAlgo::kParallelSplitter, SortEngine::kMergesort);
    parallel_sort(std::span<std::uint64_t>(via_radix), std::less<std::uint64_t>(),
                  pool, nullptr, MergeAlgo::kParallelSplitter, SortEngine::kRadix);
    parallel_sort(std::span<std::uint64_t>(via_loser), std::less<std::uint64_t>(),
                  pool, nullptr, MergeAlgo::kSequentialLoserTree, SortEngine::kMergesort);
    EXPECT_EQ(via_merge, via_radix) << "n=" << n;
    EXPECT_EQ(via_merge, via_loser) << "n=" << n;
  }
}

TEST(SortEngines, AutoDispatchesBySizeAndReportsBreakdown) {
  ThreadPool pool(4);
  auto small = adversarial<std::uint64_t>(kRadixAutoCutoff - 1, 0, 5);
  SortBreakdown bd;
  parallel_sort(std::span<std::uint64_t>(small), std::less<std::uint64_t>(), pool, &bd);
  EXPECT_EQ(bd.engine_used, SortEngine::kMergesort);

  auto large = adversarial<std::uint64_t>(kRadixAutoCutoff, 0, 5);
  parallel_sort(std::span<std::uint64_t>(large), std::less<std::uint64_t>(), pool, &bd);
  EXPECT_EQ(bd.engine_used, SortEngine::kRadix);
  EXPECT_EQ(bd.key_bytes, sizeof(std::uint64_t));
  EXPECT_GT(bd.radix_passes, 0u);
}

TEST(SortEngines, ParseAndNameRoundTrip) {
  EXPECT_STREQ(sort_engine_name(SortEngine::kAuto), "auto");
  EXPECT_STREQ(sort_engine_name(SortEngine::kMergesort), "merge");
  EXPECT_STREQ(sort_engine_name(SortEngine::kRadix), "radix");
}

// Explicit kRadix on a non-radix type must fall back to mergesort, not
// misbehave.
TEST(SortEngines, RadixRequestOnCustomComparatorFallsBack) {
  struct Rec {
    std::uint64_t k;
    std::uint64_t payload;
  };
  ThreadPool pool(2);
  std::vector<Rec> v;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) v.push_back({rng.next_below(100), rng.next_u64()});
  auto less = [](const Rec& a, const Rec& b) { return a.k < b.k; };
  SortBreakdown bd;
  parallel_sort(std::span<Rec>(v), less, pool, &bd, MergeAlgo::kParallelSplitter,
                SortEngine::kRadix);
  EXPECT_EQ(bd.engine_used, SortEngine::kMergesort);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), less));
}

// ---- SIMD kernels vs the forced-scalar path --------------------------------

template <typename T>
void expect_simd_matches_scalar_blocks(std::size_t width, std::size_t blocks) {
  // Odd block counts exercise the vector kernels' scalar tail (they batch 4
  // u64 / 8 u32 blocks per transpose).
  auto via_simd = adversarial<T>(width * blocks, 0, 123 + width * blocks);
  auto via_scalar = via_simd;
  simd::set_force_scalar(false);
  if (width == 8) {
    simd::sort8_blocks(via_simd.data(), blocks);
  } else {
    simd::sort16_blocks(via_simd.data(), blocks);
  }
  simd::set_force_scalar(true);
  if (width == 8) {
    simd::sort8_blocks(via_scalar.data(), blocks);
  } else {
    simd::sort16_blocks(via_scalar.data(), blocks);
  }
  simd::set_force_scalar(false);
  EXPECT_EQ(via_simd, via_scalar) << "width=" << width << " blocks=" << blocks;
  for (std::size_t b = 0; b + width <= via_simd.size(); b += width) {
    EXPECT_TRUE(std::is_sorted(via_simd.begin() + static_cast<std::ptrdiff_t>(b),
                               via_simd.begin() + static_cast<std::ptrdiff_t>(b + width)));
  }
}

TEST(SimdKernels, SortBlocksMatchForcedScalar) {
  for (const std::size_t blocks : {1u, 4u, 5u, 32u}) {
    expect_simd_matches_scalar_blocks<std::uint64_t>(8, blocks);
    expect_simd_matches_scalar_blocks<std::uint64_t>(16, blocks);
    expect_simd_matches_scalar_blocks<std::uint32_t>(8, blocks);
    expect_simd_matches_scalar_blocks<std::uint32_t>(16, blocks);
  }
}

TEST(SimdKernels, MergeTwoMatchesScalarMerge) {
  Rng rng(17);
  for (const std::size_t na : {0u, 1u, 5u, 64u, 1000u}) {
    for (const std::size_t nb : {0u, 1u, 7u, 63u, 1000u}) {
      std::vector<std::uint64_t> a(na);
      std::vector<std::uint64_t> b(nb);
      for (auto& x : a) x = rng.next_below(500);
      for (auto& x : b) x = rng.next_below(500);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::vector<std::uint64_t> expect(na + nb);
      std::merge(a.begin(), a.end(), b.begin(), b.end(), expect.begin());
      std::vector<std::uint64_t> got(na + nb, ~0ull);
      simd::merge_two_u64(a.data(), a.data() + na, b.data(), b.data() + nb, got.data());
      EXPECT_EQ(got, expect) << "na=" << na << " nb=" << nb;
    }
  }
}

// 0-1 principle: a comparison network that sorts every 0-1 sequence sorts
// every sequence. 2^16 masks exhaustively certify the 16-wide network the
// SIMD kernels replay.
TEST(SimdKernels, Sort16NetworkSatisfiesZeroOnePrinciple) {
  for (std::uint32_t mask = 0; mask < (1u << 16); ++mask) {
    std::uint64_t v[16];
    int ones = 0;
    for (int i = 0; i < 16; ++i) {
      v[i] = (mask >> i) & 1u;
      ones += static_cast<int>(v[i]);
    }
    simd::sort16_blocks(v, 1);
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t want = i < 16 - ones ? 0u : 1u;
      ASSERT_EQ(v[i], want) << "mask=" << mask << " lane=" << i;
    }
  }
}

TEST(SimdKernels, LevelNameIsConsistent) {
  const simd::Level level = simd::active_level();
  EXPECT_NE(simd::level_name(level), nullptr);
  simd::set_force_scalar(true);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  simd::set_force_scalar(false);
}

// parallel_sort under both SIMD settings: identical output, and identical
// to std::stable_sort.
TEST(SimdKernels, ParallelSortByteIdenticalUnderForcedScalar) {
  ThreadPool pool(4);
  for (const std::size_t n : kEdgeSizes) {
    auto base = adversarial<std::uint64_t>(n, 0, 0xfeedu + n);
    auto expect = base;
    std::stable_sort(expect.begin(), expect.end());
    auto vector_path = base;
    auto scalar_path = base;
    parallel_sort(std::span<std::uint64_t>(vector_path), std::less<std::uint64_t>(),
                  pool, nullptr, MergeAlgo::kParallelSplitter, SortEngine::kMergesort);
    simd::set_force_scalar(true);
    parallel_sort(std::span<std::uint64_t>(scalar_path), std::less<std::uint64_t>(),
                  pool, nullptr, MergeAlgo::kParallelSplitter, SortEngine::kMergesort);
    simd::set_force_scalar(false);
    EXPECT_EQ(vector_path, expect) << "n=" << n;
    EXPECT_EQ(scalar_path, expect) << "n=" << n;
  }
}

// -- Key-column sort vs the comparator stable sort ----------------------------

using mr::KeyColumn;
using mr::KvBuffer;
using mr::KvPair;
using KvLess = std::function<bool(const KvPair&, const KvPair&)>;

/// A key that stresses the normalized two-word prefix: lengths on both sides
/// of the 8- and 16-byte word boundaries (0, 7, 8, 9, 15, 16, 17), bytes from
/// {0x00, 0x01, 0x7F, 0xFF}, and half the keys cut from three shared bases
/// so that mutual prefixes and equal 15-byte prefixes with different tails
/// are common.
std::string edge_key_of_len(Rng& rng, std::size_t len) {
  static const unsigned char kBytes[] = {0x00, 0x01, 0x7F, 0xFF};
  std::string k(len, '\0');
  if (rng.next_below(2) == 0) {
    const unsigned char base = kBytes[rng.next_below(3)];
    std::fill(k.begin(), k.end(), static_cast<char>(base));
    if (len > 0 && rng.next_below(2) == 0) {
      k.back() = static_cast<char>(kBytes[rng.next_below(std::size(kBytes))]);
    }
  } else {
    for (auto& c : k) c = static_cast<char>(kBytes[rng.next_below(std::size(kBytes))]);
  }
  return k;
}

const std::size_t kKeyLens[] = {0, 1, 7, 8, 9, 15, 16, 17};

std::string edge_key(Rng& rng) {
  return edge_key_of_len(rng, kKeyLens[rng.next_below(std::size(kKeyLens))]);
}

std::string edge_value(Rng& rng) {
  std::string v(rng.next_below(4), '\0');
  for (auto& c : v) c = static_cast<char>(rng.next_below(3) == 0 ? 0xFF : rng.next_below(3));
  return v;
}

/// Distribute's [u32 partition][u64 stamp] key; few distinct values, so
/// equal (partition, stamp) pairs with different values are common.
std::string partition_stamp_key(Rng& rng) {
  static const std::uint32_t kParts[] = {0, 1, 7, 0xFFFFFFFFu};
  static const std::uint64_t kStamps[] = {0, 1, 255, 256, std::uint64_t{1} << 63,
                                          ~std::uint64_t{0}};
  const std::uint32_t part = kParts[rng.next_below(std::size(kParts))];
  const std::uint64_t stamp = kStamps[rng.next_below(std::size(kStamps))];
  std::string k(sizeof(part) + sizeof(stamp), '\0');
  std::memcpy(k.data(), &part, sizeof(part));
  std::memcpy(k.data() + sizeof(part), &stamp, sizeof(stamp));
  return k;
}

std::string u64_key(Rng& rng) {
  const std::uint64_t x = rng.next_below(3) == 0 ? ~std::uint64_t{0} - rng.next_below(2)
                                                 : rng.next_below(40);
  std::string k(sizeof(x), '\0');
  std::memcpy(k.data(), &x, sizeof(x));
  return k;
}

std::uint64_t value_projection(const KvPair& kv) {
  return kv.value.empty() ? 0 : static_cast<unsigned char>(kv.value[0]) % 3;
}

/// One column under test: how to make its keys, the column, and the
/// comparator the operator used before the key-column sort.
struct ColumnCase {
  std::string name;
  std::function<std::string(Rng&)> key;
  KeyColumn column;
  KvLess old_less;
};

std::vector<ColumnCase> column_cases() {
  auto le = [](std::string_view s, std::size_t at, auto zero) {
    std::memcpy(&zero, s.data() + at, sizeof(zero));
    return zero;
  };
  auto key_less = [](const KvPair& a, const KvPair& b) { return a.key < b.key; };
  std::vector<ColumnCase> cases = {
      {"key_bytes (reduce, group)", edge_key, KeyColumn::key_bytes(), key_less},
      {"record bytes (constant projection)", edge_key,
       KeyColumn::projection([](const KvPair&) { return std::uint64_t{0}; },
                             /*tie_break_bytes=*/true),
       [](const KvPair& a, const KvPair& b) {
         return a.key < b.key || (a.key == b.key && a.value < b.value);
       }},
      {"all-equal keys", [](Rng&) { return std::string("same key, 17 bytes"); },
       KeyColumn::key_bytes(), key_less},
      {"partition_stamp (distribute)", partition_stamp_key, KeyColumn::partition_stamp(),
       [le](const KvPair& a, const KvPair& b) {
         const auto pa = le(a.key, 0, std::uint32_t{});
         const auto pb = le(b.key, 0, std::uint32_t{});
         const auto sa = le(a.key, 4, std::uint64_t{});
         const auto sb = le(b.key, 4, std::uint64_t{});
         if (pa != pb) return pa < pb;
         if (sa != sb) return sa < sb;
         return a.value < b.value;
       }},
      {"u64_key (rebalance)", u64_key, KeyColumn::u64_key(),
       [le](const KvPair& a, const KvPair& b) {
         return le(a.key, 0, std::uint64_t{}) < le(b.key, 0, std::uint64_t{});
       }},
      {"projection+bytes (sample sort)", edge_key,
       KeyColumn::projection(value_projection, /*tie_break_bytes=*/true),
       [](const KvPair& a, const KvPair& b) {
         const auto pa = value_projection(a);
         const auto pb = value_projection(b);
         if (pa != pb) return pa < pb;
         if (a.key != b.key) return a.key < b.key;
         return a.value < b.value;
       }},
      {"projection (sample sort, stable)", edge_key,
       KeyColumn::projection(value_projection, /*tie_break_bytes=*/false),
       [](const KvPair& a, const KvPair& b) {
         return value_projection(a) < value_projection(b);
       }},
  };
  // One key length per page, so equal-word runs cannot borrow a tie-break
  // from a key of another length.
  for (const std::size_t len : kKeyLens) {
    cases.push_back({"key_bytes, length " + std::to_string(len),
                     [len](Rng& rng) { return edge_key_of_len(rng, len); },
                     KeyColumn::key_bytes(), key_less});
  }
  return cases;
}

KvBuffer make_page(const ColumnCase& c, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  KvBuffer page;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string k = c.key(rng);
    page.add(k, edge_value(rng));
  }
  return page;
}

std::vector<unsigned char> stable_sorted(const KvBuffer& src, const KvLess& less) {
  KvBuffer page = src;
  auto offs = page.offsets();
  std::stable_sort(offs.begin(), offs.end(), [&](std::size_t a, std::size_t b) {
    return less(page.at(a), page.at(b));
  });
  page.reorder(offs);
  return page.bytes();
}

/// Runs `fn` on a one-rank MapReduce holding a copy of `src`; returns the
/// page afterwards.
std::vector<unsigned char> on_one_rank(const KvBuffer& src,
                                       const std::function<void(mr::MapReduce&)>& fn,
                                       obs::Recorder* rec = nullptr,
                                       MemoryBudget* budget = nullptr) {
  mp::Runtime rt(1, mp::NetworkModel::zero());
  if (rec != nullptr) rt.set_recorder(rec);
  if (budget != nullptr) rt.set_memory_budget(budget);
  std::vector<unsigned char> out;
  rt.run([&](mp::Comm& comm) {
    mr::MapReduce mapred(comm);
    mapred.mutable_local() = src;
    fn(mapred);
    out = mapred.local().bytes();
  });
  return out;
}

// Sizes on both sides of kRadixAutoCutoff, so every key-column case runs
// through both the merge and the radix engine.
const std::vector<std::size_t> kColumnSizes = {0, 1, 2, 300, kRadixAutoCutoff - 1,
                                               kRadixAutoCutoff + 77};

TEST(KeyColumnSort, MatchesComparatorStableSortOnEveryEngine) {
  for (const auto& c : column_cases()) {
    for (const std::size_t n : kColumnSizes) {
      const KvBuffer src = make_page(c, n, 0xC011u + n);
      const auto expected = stable_sorted(src, c.old_less);
      obs::Recorder rec;
      const auto got =
          on_one_rank(src, [&](mr::MapReduce& m) { m.sort_by_key(c.column); }, &rec);
      EXPECT_EQ(got, expected) << c.name << " n=" << n;
      const bool radix = n >= kRadixAutoCutoff;
      EXPECT_EQ(rec.counter("sort.records"), n);
      EXPECT_EQ(rec.counter(radix ? "sort.engine_radix" : "sort.engine_merge"), 1u)
          << c.name << " n=" << n;
    }
  }
}

TEST(KeyColumnSort, ReduceGroupsInOldKeyOrderAndCountsTheSort) {
  // reduce() walks the key column's order without rebuilding the page;
  // emitting every value back under its key must reproduce the stable sort
  // by key bytes that it used to run.
  ColumnCase c = column_cases()[0];
  for (const std::size_t n : kColumnSizes) {
    const KvBuffer src = make_page(c, n, 0x6E0Bu + n);
    const auto expected = stable_sorted(src, c.old_less);
    obs::Recorder rec;
    const auto got = on_one_rank(src, [](mr::MapReduce& m) {
      m.reduce([](std::string_view key, std::span<const std::string_view> values,
                  mr::KvEmitter& out) {
        for (auto v : values) out.emit(key, v);
      });
    }, &rec);
    EXPECT_EQ(got, expected) << "n=" << n;
    EXPECT_EQ(rec.counter("sort.records"), n);
    EXPECT_EQ(rec.counter("sort.engine_radix") + rec.counter("sort.engine_merge"), 1u);
  }
}

TEST(KeyColumnSort, SpillBudgetTakesExternalSortAndMatches) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_key_column_spill";
  std::filesystem::remove_all(dir);
  for (const auto& c : column_cases()) {
    const KvBuffer src = make_page(c, 600, 0x5B11u);
    const auto expected = stable_sorted(src, c.old_less);
    // A 64-byte soft watermark puts every page past it: the sort must take
    // external_stable_sort with the comparator derived from the column.
    MemoryBudget budget({.hard_limit = 1 << 20, .soft_limit = 64,
                         .spill_dir = dir.string()});
    obs::Recorder rec;
    const auto got =
        on_one_rank(src, [&](mr::MapReduce& m) { m.sort_by_key(c.column); }, &rec, &budget);
    EXPECT_EQ(got, expected) << c.name;
    EXPECT_GT(budget.spill_bytes(), 0u) << c.name;
    EXPECT_EQ(rec.counter("sort.engine_merge"), 1u) << c.name;
  }
  EXPECT_TRUE(!std::filesystem::exists(dir) || std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace papar::sortlib
