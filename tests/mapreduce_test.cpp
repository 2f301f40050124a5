// Tests for the MapReduce engine: KV pages, map/aggregate/reduce cycles,
// sampling-based global sort, and reducer balance properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mapreduce/mapreduce.hpp"
#include "obs/obs.hpp"
#include "mpsim/runtime.hpp"
#include "util/rng.hpp"

namespace papar::mr {
namespace {

std::string pod_key(std::uint64_t x) {
  return std::string(reinterpret_cast<const char*>(&x), sizeof(x));
}

std::uint64_t key_u64(std::string_view key) {
  std::uint64_t x;
  std::memcpy(&x, key.data(), sizeof(x));
  return x;
}

TEST(KvBuffer, AddAndIterate) {
  KvBuffer buf;
  buf.add("k1", "v1");
  buf.add("k2", "value-two");
  buf.add("", "");
  EXPECT_EQ(buf.count(), 3u);
  std::vector<std::pair<std::string, std::string>> seen;
  buf.for_each([&](std::string_view k, std::string_view v) {
    seen.emplace_back(std::string(k), std::string(v));
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::string>{"k1", "v1"}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{"k2", "value-two"}));
  EXPECT_EQ(seen[2], (std::pair<std::string, std::string>{"", ""}));
}

TEST(KvBuffer, AppendPageConcatenates) {
  KvBuffer a, b;
  a.add("x", "1");
  b.add("y", "2");
  b.add("z", "3");
  a.append_page(b.bytes().data(), b.bytes().size());
  EXPECT_EQ(a.count(), 3u);
}

TEST(KvBuffer, AppendTruncatedPageThrows) {
  KvBuffer a, b;
  b.add("key", "value");
  EXPECT_THROW(a.append_page(b.bytes().data(), b.bytes().size() - 1), DataError);
}

TEST(KvBuffer, ReorderPermutesRecords) {
  KvBuffer buf;
  buf.add("a", "0");
  buf.add("b", "1");
  buf.add("c", "2");
  auto offs = buf.offsets();
  std::reverse(offs.begin(), offs.end());
  buf.reorder(offs);
  std::vector<std::string> keys;
  buf.for_each([&](std::string_view k, std::string_view) { keys.emplace_back(k); });
  EXPECT_EQ(keys, (std::vector<std::string>{"c", "b", "a"}));
}

TEST(KvBuffer, TakeAndAdoptRoundTrip) {
  KvBuffer buf;
  buf.add("k", "v");
  auto raw = buf.take_bytes();
  EXPECT_EQ(buf.count(), 0u);
  KvBuffer other;
  other.adopt_bytes(std::move(raw));
  EXPECT_EQ(other.count(), 1u);
}

TEST(KvBuffer, PodHelpers) {
  KvBuffer buf;
  buf.add_pod<std::uint32_t, double>(7, 2.5);
  buf.for_each([](std::string_view k, std::string_view v) {
    std::uint32_t key;
    double value;
    std::memcpy(&key, k.data(), sizeof(key));
    std::memcpy(&value, v.data(), sizeof(value));
    EXPECT_EQ(key, 7u);
    EXPECT_DOUBLE_EQ(value, 2.5);
  });
}

class MapReduceRanksTest : public ::testing::TestWithParam<int> {};

TEST_P(MapReduceRanksTest, WordCountPipeline) {
  // The canonical MapReduce smoke test across rank counts.
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    const std::vector<std::string> words{"a", "b", "a", "c", "b", "a"};
    mr.map(12, [&](int itask, KvEmitter& emit) {
      emit.emit(words[static_cast<std::size_t>(itask) % words.size()], "1");
    });
    mr.aggregate();
    mr.reduce([](std::string_view key, std::span<const std::string_view> values,
                 KvEmitter& emit) {
      const auto n = static_cast<std::uint64_t>(values.size());
      emit.emit(key, std::string(reinterpret_cast<const char*>(&n), sizeof(n)));
    });
    mr.gather(0);
    if (comm.rank() == 0) {
      std::map<std::string, std::uint64_t> counts;
      mr.local().for_each([&](std::string_view k, std::string_view v) {
        std::uint64_t n;
        std::memcpy(&n, v.data(), sizeof(n));
        counts[std::string(k)] = n;
      });
      // 12 tasks cycle the 6-word list twice: a=6, b=4, c=2.
      EXPECT_EQ(counts.at("a"), 6u);
      EXPECT_EQ(counts.at("b"), 4u);
      EXPECT_EQ(counts.at("c"), 2u);
    }
  });
}

TEST_P(MapReduceRanksTest, AggregateColocatesKeys) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.map(64, [](int itask, KvEmitter& emit) {
      emit.emit(pod_key(static_cast<std::uint64_t>(itask % 8)),
                std::to_string(itask));
    });
    mr.aggregate();
    // Each key must now live on exactly one rank.
    std::set<std::uint64_t> local_keys;
    mr.local().for_each([&](std::string_view k, std::string_view) {
      local_keys.insert(key_u64(k));
    });
    ByteWriter w;
    for (auto k : local_keys) w.put(k);
    auto all = comm.allgather(w.take());
    std::map<std::uint64_t, int> owners;
    for (const auto& part : all) {
      ByteReader r(part);
      while (!r.done()) owners[r.get<std::uint64_t>()] += 1;
    }
    EXPECT_EQ(owners.size(), 8u);
    for (const auto& [k, n] : owners) EXPECT_EQ(n, 1) << "key " << k;
  });
}

TEST_P(MapReduceRanksTest, ReduceValuesKeepPageOrder) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    // All tasks emit under one key; values are task ids in task order per
    // rank, and page order after the shuffle is rank-major.
    mr.map(20, [](int itask, KvEmitter& emit) {
      emit.emit("shared", std::to_string(itask));
    });
    mr.aggregate();
    mr.reduce([&](std::string_view, std::span<const std::string_view> values,
                  KvEmitter& emit) {
      EXPECT_EQ(values.size(), 20u);
      // Within one source rank the task order must be preserved: extract
      // this rank's subsequence and check monotonicity per residue class.
      std::map<int, std::vector<int>> by_residue;
      for (auto v : values) {
        const int t = std::stoi(std::string(v));
        by_residue[t % comm.size()].push_back(t);
      }
      for (const auto& [residue, tasks] : by_residue) {
        EXPECT_TRUE(std::is_sorted(tasks.begin(), tasks.end()))
            << "residue " << residue;
      }
      emit.emit("done", "1");
    });
  });
}

TEST_P(MapReduceRanksTest, SampleSortOrdersGlobally) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    Rng rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t k = rng.next_below(10000);
      mr.mutable_local().add(pod_key(k), "payload");
    }
    mr.sample_sort_u64(
        [](std::string_view key, std::string_view) { return key_u64(key); });
    // Local pages sorted...
    std::vector<std::uint64_t> local;
    mr.local().for_each(
        [&](std::string_view k, std::string_view) { local.push_back(key_u64(k)); });
    EXPECT_TRUE(std::is_sorted(local.begin(), local.end()));
    // ...and rank ranges ordered: my max <= next rank's min.
    const std::uint64_t my_max = local.empty() ? 0 : local.back();
    const std::uint64_t my_min = local.empty() ? UINT64_MAX : local.front();
    ByteWriter w;
    w.put(my_min);
    w.put(my_max);
    auto all = comm.allgather(w.take());
    std::uint64_t prev_max = 0;
    for (int r = 0; r < comm.size(); ++r) {
      ByteReader br(all[static_cast<std::size_t>(r)]);
      const auto mn = br.get<std::uint64_t>();
      const auto mx = br.get<std::uint64_t>();
      if (mn != UINT64_MAX) {
        EXPECT_GE(mn, prev_max);
        prev_max = mx;
      }
    }
    // Nothing lost.
    EXPECT_EQ(mr.global_count(), static_cast<std::uint64_t>(comm.size()) * 500u);
  });
}

TEST_P(MapReduceRanksTest, SampleSortDescending) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    Rng rng(7 + static_cast<std::uint64_t>(comm.rank()));
    for (int i = 0; i < 200; ++i) {
      mr.mutable_local().add(pod_key(rng.next_below(1000)), "");
    }
    mr.sample_sort_u64(
        [](std::string_view key, std::string_view) { return key_u64(key); },
        /*ascending=*/false);
    std::vector<std::uint64_t> local;
    mr.local().for_each(
        [&](std::string_view k, std::string_view) { local.push_back(key_u64(k)); });
    EXPECT_TRUE(std::is_sorted(local.rbegin(), local.rend()));
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, MapReduceRanksTest, ::testing::Values(1, 2, 3, 4, 8));

TEST(MapReduce, SampledSplittersBalanceSkewedKeys) {
  // §III-D: on a heavily skewed distribution the sampled splitters keep the
  // reducer loads far more even than naive min/max interpolation.
  const int p = 8;
  const int per_rank = 2000;
  auto imbalance = [&](SplitterMethod method) {
    mp::Runtime rt(p, mp::NetworkModel::zero());
    double result = 0;
    rt.run([&](mp::Comm& comm) {
      MapReduce mr(comm);
      Rng rng(99 + static_cast<std::uint64_t>(comm.rank()));
      for (int i = 0; i < per_rank; ++i) {
        // Zipf-skewed keys plus one extreme outlier per rank.
        std::uint64_t k = rng.next_zipf(1 << 20, 1.1);
        if (i == 0) k = 1ULL << 40;
        mr.mutable_local().add(pod_key(k), "");
      }
      mr.sample_sort_u64(
          [](std::string_view key, std::string_view) { return key_u64(key); },
          true, method);
      auto counts = mr.rank_counts();
      const auto total = std::accumulate(counts.begin(), counts.end(), 0ULL);
      const auto mx = *std::max_element(counts.begin(), counts.end());
      if (comm.rank() == 0) {
        result = static_cast<double>(mx) /
                 (static_cast<double>(total) / static_cast<double>(counts.size()));
      }
    });
    return result;
  };
  const double sampled = imbalance(SplitterMethod::kSampled);
  const double naive = imbalance(SplitterMethod::kNaive);
  EXPECT_LT(sampled, 1.6);  // near-even
  EXPECT_GT(naive, 4.0);    // outlier-stretched ranges collapse onto rank 0
}

TEST(MapReduce, SampleSortAllEqualKeysSpreadAcrossRanks) {
  // Regression: when every record projects to the same key, all sampled
  // splitters coincide. Routing by upper_bound alone sent the entire dataset
  // to the last rank; duplicates must be spread across the run of coinciding
  // splitters instead.
  const int p = 4;
  const int per_rank = 500;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    for (int i = 0; i < per_rank; ++i) {
      mr.mutable_local().add(pod_key(42), "v" + std::to_string(i));
    }
    mr.sample_sort_u64(
        [](std::string_view key, std::string_view) { return key_u64(key); });
    auto counts = mr.rank_counts();
    const auto total = std::accumulate(counts.begin(), counts.end(), 0ULL);
    EXPECT_EQ(total, static_cast<std::uint64_t>(p) * per_rank);
    const auto mx = *std::max_element(counts.begin(), counts.end());
    EXPECT_LT(static_cast<double>(mx),
              1.5 * static_cast<double>(total) / static_cast<double>(p));
    for (auto c : counts) EXPECT_GT(c, 0u);
  });
}

TEST(MapReduce, SampleSortIdenticalRecordsSpreadWithTieBreak) {
  // Fully identical records cannot be ordered even by raw bytes; they are the
  // only ties left under tie_break_bytes and must still be spread, not routed
  // wholesale to one reducer.
  const int p = 4;
  const int per_rank = 300;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    for (int i = 0; i < per_rank; ++i) mr.mutable_local().add(pod_key(7), "same");
    mr.sample_sort_u64(
        [](std::string_view key, std::string_view) { return key_u64(key); },
        true, SplitterMethod::kSampled, 32, /*tie_break_bytes=*/true);
    auto counts = mr.rank_counts();
    const auto total = std::accumulate(counts.begin(), counts.end(), 0ULL);
    EXPECT_EQ(total, static_cast<std::uint64_t>(p) * per_rank);
    const auto mx = *std::max_element(counts.begin(), counts.end());
    EXPECT_LT(static_cast<double>(mx),
              1.5 * static_cast<double>(total) / static_cast<double>(p));
  });
}

TEST(MapReduce, SampleSortTieBreakBytesGlobalTotalOrder) {
  // Heavy duplication under tie_break_bytes: the concatenation of rank pages
  // must equal the reference sort of all inputs under the promised total
  // order (projection, then key bytes, then value bytes). The projection is
  // deliberately lossy so the key-byte tie-break is exercised too.
  const int p = 4;
  const int per_rank = 400;
  using Rec = std::tuple<std::uint64_t, std::string, std::string>;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    const auto proj = [](std::string_view key, std::string_view) {
      return key_u64(key) & 3;  // 8 distinct keys fold onto 4 projections
    };
    MapReduce mr(comm);
    std::vector<Rec> expected;  // every rank rebuilds the full input set
    for (int r = 0; r < comm.size(); ++r) {
      Rng gen(500 + static_cast<std::uint64_t>(r));
      for (int i = 0; i < per_rank; ++i) {
        std::string key = pod_key(gen.next_below(8));
        std::string value = std::to_string(gen.next_below(16));
        expected.emplace_back(key_u64(key) & 3, key, value);
        if (r == comm.rank()) mr.mutable_local().add(key, value);
      }
    }
    mr.sample_sort_u64(proj, true, SplitterMethod::kSampled, 32,
                       /*tie_break_bytes=*/true);

    // Gather every rank's page in rank order.
    ByteWriter w;
    w.put<std::uint64_t>(mr.local().count());
    mr.local().for_each([&](std::string_view k, std::string_view v) {
      w.put_string(k);
      w.put_string(v);
    });
    auto all = comm.allgather(w.take());
    std::vector<Rec> got;
    for (int r = 0; r < comm.size(); ++r) {
      ByteReader br(all[static_cast<std::size_t>(r)]);
      const auto n = br.get<std::uint64_t>();
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string key = br.get_string();
        std::string value = br.get_string();
        got.emplace_back(key_u64(key) & 3, key, value);
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected);
  });
}

// -- Splitter selection at 64 ranks ------------------------------------------

using SortRec = std::tuple<std::uint64_t, std::string, std::string>;  // (proj, key, value)

/// Lossy projection on the first value byte, so both byte tie-breaks and
/// fully identical records come up; empty values project to 0.
std::uint64_t first_byte_proj(std::string_view, std::string_view value) {
  return value.empty() ? 0 : static_cast<unsigned char>(value[0]) % 4;
}

/// Single-threaded reference of sample_sort_u64 (kSampled, ascending): each
/// rank's evenly spaced sample of up to oversample*p records, boundaries
/// sample[i*N/p] of the whole sorted sample (max when it is empty), routing
/// with ties spread round-robin per source rank, then each destination's
/// records in the final local order. `composite` is tie_break_bytes: order
/// and splitters use (projection, key, value); otherwise projection only,
/// stable in arrival order (source rank, then source page order).
std::vector<std::vector<SortRec>> reference_sample_sort(
    const std::vector<std::vector<SortRec>>& input, bool composite, int oversample = 32) {
  const std::size_t p = input.size();
  auto order_key = [composite](const SortRec& r) {
    return composite ? r : SortRec{std::get<0>(r), {}, {}};
  };
  std::vector<SortRec> sample;
  for (const auto& recs : input) {
    const std::size_t want =
        std::min(recs.size(), static_cast<std::size_t>(oversample) * p);
    for (std::size_t i = 0; i < want; ++i) {
      sample.push_back(order_key(recs[i * recs.size() / want]));
    }
  }
  std::sort(sample.begin(), sample.end());
  std::vector<SortRec> bounds;
  for (std::size_t i = 1; i < p; ++i) {
    bounds.push_back(sample.empty() ? SortRec{UINT64_MAX, {}, {}}
                                    : sample[i * sample.size() / p]);
  }
  std::vector<std::vector<SortRec>> out(p);
  for (const auto& recs : input) {
    std::size_t spread = 0;
    for (const auto& rec : recs) {
      const SortRec k = order_key(rec);
      const auto lo = static_cast<std::size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), k) - bounds.begin());
      const auto hi = static_cast<std::size_t>(
          std::upper_bound(bounds.begin(), bounds.end(), k) - bounds.begin());
      out[lo == hi ? hi : lo + spread++ % (hi - lo + 1)].push_back(rec);
    }
  }
  for (auto& recs : out) {
    std::stable_sort(recs.begin(), recs.end(), [&](const SortRec& a, const SortRec& b) {
      return order_key(a) < order_key(b);
    });
  }
  return out;
}

/// Runs sample_sort_u64 with first_byte_proj over `input` (one page per
/// rank, in order) and returns each rank's page after the sort.
std::vector<std::vector<SortRec>> run_sample_sort(
    const std::vector<std::vector<SortRec>>& input, bool tie_break_bytes) {
  const int p = static_cast<int>(input.size());
  std::vector<std::vector<SortRec>> got(input.size());
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    MapReduce mr(comm);
    for (const auto& [proj, key, value] : input[me]) mr.mutable_local().add(key, value);
    mr.sample_sort_u64(first_byte_proj, true, SplitterMethod::kSampled, 32, tie_break_bytes);
    mr.local().for_each([&](std::string_view k, std::string_view v) {
      got[me].emplace_back(first_byte_proj(k, v), std::string(k), std::string(v));
    });
  });
  return got;
}

/// Rank r holds sizes(r) records over a 3-letter alphabet; keys and values
/// are 0-3 bytes long, so zero-length keys and values are common.
std::vector<std::vector<SortRec>> make_sort_input(int p, const std::function<int(int)>& sizes) {
  std::vector<std::vector<SortRec>> input(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    Rng rng(4100 + static_cast<std::uint64_t>(r));
    auto word = [&rng] {
      std::string s(rng.next_below(4), 'a');
      for (auto& c : s) c = static_cast<char>('a' + rng.next_below(3));
      return s;
    };
    for (int i = 0; i < sizes(r); ++i) {
      std::string key = word();
      std::string value = word();
      input[static_cast<std::size_t>(r)].emplace_back(first_byte_proj(key, value), key, value);
    }
  }
  return input;
}

TEST(MapReduce, SampleSortMatchesReferenceAt64Ranks) {
  // Some ranks are empty, some sample a stride of a page larger than the
  // 32*64 oversample, the rest sample every record.
  const auto input = make_sort_input(64, [](int r) {
    return r % 7 == 3 ? 0 : (r % 5 == 0 ? 2600 : 40 + 3 * r);
  });
  for (const bool tie_break : {true, false}) {
    SCOPED_TRACE(tie_break ? "composite splitters" : "projection splitters");
    const auto want = reference_sample_sort(input, tie_break);
    const auto got = run_sample_sort(input, tie_break);
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r], want[r]) << "rank " << r;
    }
  }
}

TEST(MapReduce, SampleSortAllKeysEqualAt64Ranks) {
  // Every record identical, empty key and value: every boundary coincides,
  // so routing is tie spreading alone and still reaches every rank.
  std::vector<std::vector<SortRec>> input(64);
  for (std::size_t r = 0; r < input.size(); ++r) {
    input[r].assign(r % 3 == 0 ? 0 : 90, SortRec{0, "", ""});
  }
  const auto want = reference_sample_sort(input, true);
  const auto got = run_sample_sort(input, true);
  EXPECT_EQ(got, want);
  for (const auto& recs : got) EXPECT_FALSE(recs.empty());
}

TEST(MapReduce, SampleSortAllRanksEmptyAt64Ranks) {
  // No records anywhere: every boundary is the max sentinel, which must pass
  // the non-decreasing check and leave every page empty.
  const std::vector<std::vector<SortRec>> input(64);
  for (const bool tie_break : {true, false}) {
    EXPECT_EQ(run_sample_sort(input, tie_break), reference_sample_sort(input, tie_break));
  }
}

TEST(MapReduce, SampleSortSplitterTrafficIsLinearInRanks) {
  // Only the sample travels to one root and only p-1 boundaries travel back,
  // so everything the sort sends besides its shuffle stays under 2x the
  // gathered sample. An allgather of the sample would send about p times it.
  const int p = 64;
  const int per_rank = 32 * p;  // the whole page is the sample
  constexpr std::int64_t kSampleRecordBytes = 4 * 8;  // proj, klen, 8-byte key, vlen
  obs::Recorder rec;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.set_recorder(&rec);
  const auto stats = rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    Rng rng(77 + static_cast<std::uint64_t>(comm.rank()));
    for (int i = 0; i < per_rank; ++i) mr.mutable_local().add(pod_key(rng.next_u64()), "");
    mr.sample_sort_u64([](std::string_view key, std::string_view) { return key_u64(key); },
                       true, SplitterMethod::kSampled, 32, /*tie_break_bytes=*/true);
  });
  const std::int64_t gathered = std::int64_t{p - 1} * per_rank * kSampleRecordBytes;
  const auto overhead = static_cast<std::int64_t>(stats.remote_bytes) -
                        static_cast<std::int64_t>(rec.counter("mr.shuffle.bytes"));
  EXPECT_GE(overhead, gathered / 2);  // the sample did travel
  EXPECT_LT(overhead, 2 * gathered);
}

TEST(MapReduce, MapKvTransformsInPlace) {
  mp::Runtime rt(2, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.mutable_local().add("k", "1");
    mr.mutable_local().add("k", "2");
    mr.map_kv([](std::string_view k, std::string_view v, KvEmitter& emit) {
      emit.emit(std::string(k) + "!", std::string(v) + std::string(v));
    });
    std::vector<std::string> vals;
    mr.local().for_each([&](std::string_view k, std::string_view v) {
      EXPECT_EQ(k, "k!");
      vals.emplace_back(v);
    });
    EXPECT_EQ(vals, (std::vector<std::string>{"11", "22"}));
  });
}

TEST(MapReduce, CustomPartitioner) {
  mp::Runtime rt(4, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.map(40, [](int itask, KvEmitter& emit) {
      emit.emit(pod_key(static_cast<std::uint64_t>(itask)), "");
    });
    // Route everything to rank 2.
    mr.aggregate([](std::string_view, std::string_view) { return 2; });
    auto counts = mr.rank_counts();
    EXPECT_EQ(counts[2], 40u);
    EXPECT_EQ(counts[0] + counts[1] + counts[3], 0u);
  });
}

TEST(MapReduce, EmptyPipelineSurvives) {
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.aggregate();
    mr.reduce([](std::string_view, std::span<const std::string_view>, KvEmitter&) {
      FAIL() << "no groups expected";
    });
    mr.sample_sort_u64([](std::string_view, std::string_view) { return 0ULL; });
    EXPECT_EQ(mr.global_count(), 0u);
  });
}

TEST(MapReduce, RepeatedAggregateReusesArenaAndPreservesRecords) {
  // The shuffle serializes through an arena recycled from the previous
  // round's received buffers. Run several aggregate rounds with different
  // routing functions and verify the global record multiset is preserved
  // every time — including rounds that concentrate everything on one rank
  // (wildly uneven per-destination sizes) and rounds after the page shrank.
  const int p = 4;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.map(97, [](int itask, KvEmitter& emit) {
      emit.emit(pod_key(static_cast<std::uint64_t>(itask)),
                std::string(static_cast<std::size_t>(itask % 17), 'v'));
    });
    auto snapshot = [&]() {
      std::multiset<std::pair<std::string, std::string>> all;
      mr.local().for_each([&](std::string_view k, std::string_view v) {
        all.emplace(std::string(k), std::string(v));
      });
      ByteWriter w;
      for (const auto& [k, v] : all) {
        w.put_string(k);
        w.put_string(v);
      }
      auto parts = comm.allgather(w.take());
      std::multiset<std::pair<std::string, std::string>> global;
      for (const auto& part : parts) {
        ByteReader r(part);
        while (!r.done()) {
          std::string k = r.get_string();
          std::string v = r.get_string();
          global.emplace(std::move(k), std::move(v));
        }
      }
      return global;
    };
    const auto before = snapshot();
    ASSERT_EQ(before.size(), 97u);

    mr.aggregate();  // hash routing
    EXPECT_EQ(snapshot(), before);
    mr.aggregate([&](std::string_view, std::string_view) { return 2; });  // all→rank 2
    EXPECT_EQ(snapshot(), before);
    int rr = comm.rank();  // round-robin from a per-rank phase
    mr.aggregate([&, p](std::string_view, std::string_view) mutable {
      return (rr++) % p;
    });
    EXPECT_EQ(snapshot(), before);
    mr.aggregate();  // steady-state round on recycled arena storage
    EXPECT_EQ(snapshot(), before);
  });
}

TEST(MapReduce, ShuffleCountersMatchRoutedBytes) {
  // mr.shuffle.bytes counts every routed byte (self-destined included),
  // mr.shuffle.records every routed record.
  const int p = 3;
  obs::Recorder rec;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.set_recorder(&rec);
  std::atomic<std::uint64_t> page_bytes{0};
  std::atomic<std::uint64_t> page_records{0};
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.map(50, [](int itask, KvEmitter& emit) {
      emit.emit(pod_key(static_cast<std::uint64_t>(itask)), std::to_string(itask));
    });
    page_bytes += mr.local().byte_size();
    page_records += mr.local().count();
    comm.barrier();
    mr.aggregate();
  });
  EXPECT_EQ(rec.counter("mr.shuffle.bytes"), page_bytes.load());
  EXPECT_EQ(rec.counter("mr.shuffle.records"), page_records.load());
  // Framed pages travel as they are: the wire carries exactly the page bytes.
  EXPECT_EQ(rec.counter("mr.shuffle.wire_bytes"), page_bytes.load());
}

TEST(MapReduce, LocalSortIsStable) {
  mp::Runtime rt(1, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.mutable_local().add("b", "1");
    mr.mutable_local().add("a", "2");
    mr.mutable_local().add("b", "3");
    mr.mutable_local().add("a", "4");
    mr.sort_by_key(KeyColumn::key_bytes());
    std::vector<std::string> vals;
    mr.local().for_each([&](std::string_view, std::string_view v) { vals.emplace_back(v); });
    EXPECT_EQ(vals, (std::vector<std::string>{"2", "4", "1", "3"}));
  });
}

}  // namespace
}  // namespace papar::mr
