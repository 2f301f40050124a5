// Tests for the PaPar operator set: sort, group (+add-ons), split,
// distribute (+policies), pack/unpack, and partition materialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>

#include "core/operators.hpp"
#include "mpsim/runtime.hpp"
#include "util/rng.hpp"

namespace papar::core {
namespace {

using schema::FieldType;
using schema::Record;
using schema::Schema;
using schema::Value;

Schema blast_schema() {
  Schema s;
  s.add_field("seq_start", FieldType::kInt32)
      .add_field("seq_size", FieldType::kInt32)
      .add_field("desc_start", FieldType::kInt32)
      .add_field("desc_size", FieldType::kInt32);
  return s;
}

Schema edge_schema() {
  Schema s;
  s.add_field("vertex_a", FieldType::kString, "\t")
      .add_field("vertex_b", FieldType::kString, "\n");
  return s;
}

/// Loads `records` into per-rank datasets, round-robin by index.
Dataset slice_of(const Schema& schema, const std::vector<Record>& records, int rank,
                 int nranks) {
  Dataset ds;
  ds.schema = schema;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(nranks)) == rank) {
      ds.page.add("", records[i].encode(schema));
    }
  }
  return ds;
}

std::vector<Record> paper_fig1_index() {
  // The four-tuple index of paper Fig. 1.
  const std::vector<std::array<int, 4>> rows{
      {0, 94, 0, 74}, {94, 100, 74, 89}, {194, 99, 163, 109}, {293, 91, 272, 107}};
  std::vector<Record> recs;
  for (const auto& r : rows) {
    recs.emplace_back(std::vector<Value>{std::int32_t{r[0]}, std::int32_t{r[1]},
                                         std::int32_t{r[2]}, std::int32_t{r[3]}});
  }
  return recs;
}

class OperatorRanksTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, OperatorRanksTest, ::testing::Values(1, 2, 3, 4));

TEST_P(OperatorRanksTest, SortByFieldGloballyOrders) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = blast_schema();
  Rng rng(5);
  std::vector<Record> recs;
  for (int i = 0; i < 200; ++i) {
    recs.emplace_back(std::vector<Value>{
        std::int32_t{i}, std::int32_t{static_cast<std::int32_t>(rng.next_below(500))},
        std::int32_t{0}, std::int32_t{0}});
  }
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, recs, comm.rank(), comm.size());
    sort_op(comm, ds, SortArgs{"seq_size", true, mr::SplitterMethod::kSampled});
    // Collect globally: rank ranges concatenate to the sorted order.
    ByteWriter w;
    ds.page.for_each([&](std::string_view, std::string_view v) {
      w.put_string(std::string(v));
    });
    auto all = comm.allgather(w.take());
    if (comm.rank() == 0) {
      std::vector<std::int64_t> keys;
      for (const auto& part : all) {
        ByteReader r(part);
        while (!r.done()) {
          keys.push_back(Record::decode(s, r.get_string()).as_int(1));
        }
      }
      ASSERT_EQ(keys.size(), recs.size());
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    }
  });
}

TEST_P(OperatorRanksTest, SortDescendingWithPaperFlag) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = blast_schema();
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, paper_fig1_index(), comm.rank(), comm.size());
    SortArgs args;
    args.key = "seq_size";
    args.ascending = false;
    sort_op(comm, ds, args);
    ByteWriter w;
    ds.page.for_each([&](std::string_view, std::string_view v) {
      w.put_string(std::string(v));
    });
    auto all = comm.allgather(w.take());
    std::vector<std::int64_t> keys;
    for (const auto& part : all) {
      ByteReader r(part);
      while (!r.done()) keys.push_back(Record::decode(s, r.get_string()).as_int(1));
    }
    // Paper Fig. 1 sorted descending by seq_size: 100, 99, 94, 91.
    EXPECT_EQ(keys, (std::vector<std::int64_t>{100, 99, 94, 91}));
  });
}

TEST_P(OperatorRanksTest, GroupCountAddsIndegree) {
  // The PowerLyra group job: group edges by in-vertex, count -> indegree.
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = edge_schema();
  // Fig. 2-style graph: vertex 1 has in-edges from 2,3,4,5; vertex 6 from 7.
  std::vector<Record> edges;
  for (const char* src : {"2", "3", "4", "5"}) {
    edges.emplace_back(std::vector<Value>{std::string(src), std::string("1")});
  }
  edges.emplace_back(std::vector<Value>{std::string("7"), std::string("6")});
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, edges, comm.rank(), comm.size());
    GroupArgs args;
    args.key = "vertex_b";
    args.addon = AddOnSpec{AddOnKind::kCount, "", "indegree"};
    args.output_format = DataFormat::kPacked;
    group_op(comm, ds, args);
    EXPECT_EQ(ds.schema.field_count(), 3u);
    EXPECT_EQ(ds.schema.field(2).name, "indegree");
    EXPECT_EQ(ds.format, DataFormat::kPacked);
    // Sum group count and verify indegree attributes.
    std::uint64_t local_groups = ds.page.count();
    std::map<std::string, std::int64_t> degrees;
    ds.page.for_each([&](std::string_view, std::string_view packed) {
      for (const auto& rec : decode_group(ds.schema, 1, packed)) {
        const Record r = Record::decode(ds.schema, rec);
        degrees[r.as_string(1)] = r.as_int(2);
      }
    });
    const auto total_groups = comm.allreduce_sum<std::uint64_t>(local_groups);
    EXPECT_EQ(total_groups, 2u);
    for (const auto& [v, d] : degrees) {
      EXPECT_EQ(d, v == "1" ? 4 : 1) << "vertex " << v;
    }
  });
}

TEST(Operators, GroupAddOnSumMaxMinMean) {
  mp::Runtime rt(2, mp::NetworkModel::zero());
  Schema s;
  s.add_field("k", FieldType::kInt32).add_field("x", FieldType::kInt32);
  std::vector<Record> recs;
  for (int x : {3, 9, 6}) {
    recs.emplace_back(std::vector<Value>{std::int32_t{1}, std::int32_t{x}});
  }
  struct Case {
    AddOnKind kind;
    double expected;
  };
  for (const auto& c : {Case{AddOnKind::kSum, 18}, Case{AddOnKind::kMax, 9},
                        Case{AddOnKind::kMin, 3}, Case{AddOnKind::kMean, 6.0}}) {
    rt.run([&](mp::Comm& comm) {
      Dataset ds = slice_of(s, recs, comm.rank(), comm.size());
      GroupArgs args;
      args.key = "k";
      args.addon = AddOnSpec{c.kind, "x", "agg"};
      args.output_format = DataFormat::kPacked;
      group_op(comm, ds, args);
      ds.page.for_each([&](std::string_view, std::string_view packed) {
        for (const auto& rec : decode_group(ds.schema, 0, packed)) {
          const Record r = Record::decode(ds.schema, rec);
          if (c.kind == AddOnKind::kMean) {
            EXPECT_DOUBLE_EQ(r.as_double(2), c.expected);
          } else {
            EXPECT_EQ(r.as_int(2), static_cast<std::int64_t>(c.expected));
          }
        }
      });
    });
  }
}

TEST(Operators, SplitConditionsParseAndMatch) {
  const auto ge = parse_split_condition("{>=, 200}");
  EXPECT_TRUE(ge.matches(200));
  EXPECT_FALSE(ge.matches(199));
  const auto lt = parse_split_condition("{<,200}");
  EXPECT_TRUE(lt.matches(199));
  EXPECT_FALSE(lt.matches(200));
  EXPECT_TRUE(parse_split_condition("{==, 5}").matches(5));
  EXPECT_TRUE(parse_split_condition("{!=, 5}").matches(6));
  EXPECT_TRUE(parse_split_condition("{>, -3}").matches(0));
  EXPECT_TRUE(parse_split_condition("{<=, 0}").matches(-1));
  EXPECT_THROW(parse_split_condition(">= 200"), ConfigError);
  EXPECT_THROW(parse_split_condition("{~~, 1}"), ConfigError);
  EXPECT_THROW(parse_split_condition("{>=, abc}"), ConfigError);
}

TEST_P(OperatorRanksTest, SplitRoutesByThreshold) {
  // The hybrid-cut split: indegree >= threshold to output 0 (unpacked),
  // the rest to output 1 (still packed).
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = edge_schema();
  std::vector<Record> edges;
  for (const char* src : {"2", "3", "4", "5"}) {
    edges.emplace_back(std::vector<Value>{std::string(src), std::string("1")});
  }
  edges.emplace_back(std::vector<Value>{std::string("7"), std::string("6")});
  edges.emplace_back(std::vector<Value>{std::string("8"), std::string("6")});
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, edges, comm.rank(), comm.size());
    GroupArgs gargs;
    gargs.key = "vertex_b";
    gargs.addon = AddOnSpec{AddOnKind::kCount, "", "indegree"};
    group_op(comm, ds, gargs);

    SplitArgs sargs;
    sargs.key = "indegree";
    sargs.conditions = {parse_split_condition("{>=, 4}"),
                        parse_split_condition("{<, 4}")};
    sargs.output_formats = {DataFormat::kOrig, std::nullopt};
    auto outs = split_op(comm, std::move(ds), sargs);
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_EQ(outs[0].format, DataFormat::kOrig);    // unpacked high-degree
    EXPECT_EQ(outs[1].format, DataFormat::kPacked);  // packed low-degree

    const auto high = comm.allreduce_sum<std::uint64_t>(outs[0].local_record_count());
    const auto low = comm.allreduce_sum<std::uint64_t>(outs[1].local_record_count());
    EXPECT_EQ(high, 4u);  // vertex 1's four in-edges
    EXPECT_EQ(low, 2u);   // vertex 6's two in-edges
  });
}

TEST(Operators, SplitUnmatchedEntryThrows) {
  mp::Runtime rt(1, mp::NetworkModel::zero());
  Schema s;
  s.add_field("x", FieldType::kInt32);
  EXPECT_THROW(rt.run([&](mp::Comm& comm) {
    Dataset ds;
    ds.schema = s;
    ds.page.add("", Record({std::int32_t{5}}).encode(s));
    SplitArgs args;
    args.key = "x";
    args.conditions = {parse_split_condition("{>, 100}")};
    (void)split_op(comm, std::move(ds), args);
  }),
               DataError);
}

TEST_P(OperatorRanksTest, DistributeCyclicMatchesStridePermutation) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = blast_schema();
  const int n = 23;
  const std::size_t parts = 5;
  std::vector<Record> recs;
  for (int i = 0; i < n; ++i) {
    recs.emplace_back(std::vector<Value>{std::int32_t{i}, std::int32_t{0},
                                         std::int32_t{0}, std::int32_t{0}});
  }
  rt.run([&](mp::Comm& comm) {
    // Block-slice so the global order (by rank, then local order) equals
    // record index order.
    Dataset ds;
    ds.schema = s;
    for (int i = 0; i < n; ++i) {
      const int owner = i * comm.size() / n;
      if (owner == comm.rank()) ds.page.add("", recs[static_cast<std::size_t>(i)].encode(s));
    }
    std::vector<Dataset*> inputs{&ds};
    DistributeArgs args;
    args.policy = DistrPolicyKind::kCyclic;
    args.num_partitions = parts;
    auto dist = distribute_op(comm, inputs, args);
    auto partitions = materialize_partitions(comm, dist);
    if (comm.rank() != 0) return;  // partitions materialize at rank 0
    ASSERT_EQ(partitions.size(), parts);
    StridePermutation perm(parts, n);
    for (std::size_t part = 0; part < parts; ++part) {
      EXPECT_EQ(partitions[part].size(), perm.partition_size(part));
      for (const auto& wire : partitions[part]) {
        const auto idx = static_cast<std::size_t>(Record::decode(s, wire).as_int(0));
        EXPECT_EQ(perm.partition(idx), part);
      }
    }
  });
}

TEST_P(OperatorRanksTest, DistributeBlockKeepsContiguousRanges) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = blast_schema();
  const int n = 40;
  rt.run([&](mp::Comm& comm) {
    Dataset ds;
    ds.schema = s;
    for (int i = 0; i < n; ++i) {
      const int owner = i * comm.size() / n;
      if (owner == comm.rank()) {
        ds.page.add("", Record({std::int32_t{i}, std::int32_t{0}, std::int32_t{0},
                                std::int32_t{0}})
                            .encode(s));
      }
    }
    std::vector<Dataset*> inputs{&ds};
    DistributeArgs args;
    args.policy = DistrPolicyKind::kBlock;
    args.num_partitions = 4;
    auto partitions = materialize_partitions(comm, distribute_op(comm, inputs, args));
    if (comm.rank() != 0) return;
    ASSERT_EQ(partitions.size(), 4u);
    int expected = 0;
    for (const auto& part : partitions) {
      EXPECT_EQ(part.size(), 10u);
      for (const auto& wire : part) {
        EXPECT_EQ(Record::decode(s, wire).as_int(0), expected++);
      }
    }
  });
}

TEST_P(OperatorRanksTest, DistributeResultIndependentOfRankCount) {
  // The partition-identity property: the same workflow on any rank count
  // produces byte-identical partitions.
  const Schema s = blast_schema();
  Rng rng(77);
  std::vector<Record> recs;
  for (int i = 0; i < 150; ++i) {
    recs.emplace_back(std::vector<Value>{
        std::int32_t{i}, std::int32_t{static_cast<std::int32_t>(rng.next_below(300))},
        std::int32_t{0}, std::int32_t{0}});
  }
  auto run_partitions = [&](int nranks) {
    mp::Runtime rt(nranks, mp::NetworkModel::zero());
    std::vector<std::vector<std::string>> result;
    rt.run([&](mp::Comm& comm) {
      Dataset ds = slice_of(s, recs, comm.rank(), comm.size());
      sort_op(comm, ds, SortArgs{"seq_size", true, mr::SplitterMethod::kSampled});
      std::vector<Dataset*> inputs{&ds};
      DistributeArgs args;
      args.policy = DistrPolicyKind::kCyclic;
      args.num_partitions = 7;
      auto partitions = materialize_partitions(comm, distribute_op(comm, inputs, args));
      if (comm.rank() == 0) result = std::move(partitions);
    });
    return result;
  };
  const auto base = run_partitions(1);
  EXPECT_EQ(run_partitions(GetParam()), base);
}

TEST(Operators, DistributeGraphVertexCutPlacesGroupsWhole) {
  mp::Runtime rt(2, mp::NetworkModel::zero());
  const Schema s = edge_schema();
  std::vector<Record> edges;
  for (int v = 0; v < 20; ++v) {
    for (int src = 0; src < 3; ++src) {
      edges.emplace_back(std::vector<Value>{std::string("s") + std::to_string(src),
                                            std::string("v") + std::to_string(v)});
    }
  }
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, edges, comm.rank(), comm.size());
    GroupArgs gargs;
    gargs.key = "vertex_b";
    gargs.addon = AddOnSpec{AddOnKind::kCount, "", "indegree"};
    group_op(comm, ds, gargs);
    std::vector<Dataset*> inputs{&ds};
    DistributeArgs args;
    args.policy = DistrPolicyKind::kGraphVertexCut;
    args.num_partitions = 4;
    args.output_schema = s;  // drop the indegree attribute
    auto dist = distribute_op(comm, inputs, args);
    EXPECT_EQ(dist.schema.field_count(), 2u);
    auto partitions = materialize_partitions(comm, dist);
    if (comm.rank() != 0) return;
    // Each in-vertex's edges must land in exactly one partition.
    std::map<std::string, std::set<std::size_t>> where;
    for (std::size_t part = 0; part < partitions.size(); ++part) {
      for (const auto& wire : partitions[part]) {
        where[Record::decode(s, wire).as_string(1)].insert(part);
      }
    }
    EXPECT_EQ(where.size(), 20u);
    for (const auto& [v, parts] : where) {
      EXPECT_EQ(parts.size(), 1u) << "vertex " << v << " was split";
    }
  });
}

TEST(Operators, DistributeTypeChangingProjectionThrowsOnEveryRank) {
  mp::Runtime rt(3, mp::NetworkModel::zero());
  const Schema s = edge_schema();
  Schema retyped;
  retyped.add_field("vertex_a", FieldType::kString, "\t")
      .add_field("vertex_b", FieldType::kInt64);
  const std::vector<Record> edges{Record(std::vector<Value>{std::string("a"), std::string("b")})};
  std::atomic<int> threw{0};
  rt.run([&](mp::Comm& comm) {
    // One record in total: ranks 1 and 2 hold none and must still fail,
    // before any communication, so no rank waits on a failed peer.
    Dataset ds = slice_of(s, edges, comm.rank(), comm.size());
    EXPECT_EQ(ds.page.count(), comm.rank() == 0 ? 1u : 0u);
    std::vector<Dataset*> inputs{&ds};
    DistributeArgs args;
    args.policy = DistrPolicyKind::kCyclic;
    args.num_partitions = 2;
    args.output_schema = retyped;
    EXPECT_THROW(distribute_op(comm, inputs, args), ConfigError) << "rank " << comm.rank();
    ++threw;
  });
  EXPECT_EQ(threw.load(), 3);
}

TEST(Operators, PackUnpackRoundTrip) {
  const Schema s = edge_schema();
  Dataset ds;
  ds.schema = s;
  // Adjacent equal keys (as after a group/sort).
  for (const char* v : {"1", "1", "1", "2", "2", "3"}) {
    ds.page.add("", Record({std::string("s"), std::string(v)}).encode(s));
  }
  const auto before_count = ds.page.count();
  pack_op(ds, 1, false);
  EXPECT_EQ(ds.format, DataFormat::kPacked);
  EXPECT_EQ(ds.page.count(), 3u);  // three groups
  EXPECT_EQ(ds.local_record_count(), before_count);
  unpack_op(ds);
  EXPECT_EQ(ds.format, DataFormat::kOrig);
  EXPECT_EQ(ds.page.count(), before_count);
}

TEST(Operators, PackIdempotentAndUnpackIdempotent) {
  const Schema s = edge_schema();
  Dataset ds;
  ds.schema = s;
  ds.page.add("", Record({std::string("a"), std::string("b")}).encode(s));
  unpack_op(ds);  // no-op on kOrig
  EXPECT_EQ(ds.format, DataFormat::kOrig);
  pack_op(ds, 1, false);
  pack_op(ds, 1, false);  // no-op on kPacked
  EXPECT_EQ(ds.page.count(), 1u);
}

TEST(Operators, ProjectEntryFieldAgreesAcrossFormats) {
  const Schema s = edge_schema();
  Dataset orig;
  orig.schema = s;
  for (const char* v : {"x", "x"}) {
    orig.page.add("", Record({std::string(v), std::string("t")}).encode(s));
  }
  Dataset packed_plain = orig;
  pack_op(packed_plain, 1, false);
  Dataset packed_csc = orig;
  pack_op(packed_csc, 1, true);

  std::string orig_value, plain_value, csc_value;
  orig.page.for_each([&](std::string_view, std::string_view v) {
    if (orig_value.empty()) orig_value = std::string(v);
  });
  packed_plain.page.for_each(
      [&](std::string_view, std::string_view v) { plain_value = std::string(v); });
  packed_csc.page.for_each(
      [&](std::string_view, std::string_view v) { csc_value = std::string(v); });

  const auto expected = project_entry_field(orig, orig_value, 1);
  EXPECT_EQ(project_entry_field(packed_plain, plain_value, 1), expected);
  EXPECT_EQ(project_entry_field(packed_csc, csc_value, 1), expected);
  EXPECT_EQ(project_entry_field(packed_csc, csc_value, 0),
            project_entry_field(orig, orig_value, 0));
}

TEST(Operators, AddOnKindNamesRoundTrip) {
  for (auto k : {AddOnKind::kCount, AddOnKind::kMax, AddOnKind::kMin, AddOnKind::kMean,
                 AddOnKind::kSum}) {
    EXPECT_EQ(parse_addon_kind(addon_kind_name(k)), k);
  }
  EXPECT_THROW(parse_addon_kind("median"), ConfigError);
}

}  // namespace
}  // namespace papar::core
