// Fiber-scheduler scale tests (DESIGN.md §13): hundreds of virtual ranks
// multiplexed over a handful of workers must produce byte-identical
// partitions to the default paper-scale (16-rank) run, under FIFO and
// seeded-random run queue interleavings and injected faults. Both case
// studies are covered: BLAST cyclic partitioning (global-index stamps) and
// PowerLyra hybrid-cut (content stamps), whose outputs are rank-count
// independent by design.
#include <gtest/gtest.h>

#include "blast/generator.hpp"
#include "blast/partitioner.hpp"
#include "graph/generator.hpp"
#include "graph/papar_hybrid.hpp"
#include "mpsim/fault.hpp"

namespace papar {
namespace {

core::EngineOptions fiber_options(int workers, std::uint64_t seed) {
  core::EngineOptions options;
  options.scheduler.workers = workers;
  options.scheduler.seed = seed;
  return options;
}

blast::Database scale_db() {
  blast::GeneratorOptions opt = blast::env_nr_like();
  opt.sequence_count = 2048;
  return blast::generate_database(opt);
}

graph::Graph scale_graph() {
  graph::ZipfGraphOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 6144;
  opt.zipf_s = 1.25;
  opt.seed = 9;
  return graph::generate_zipf(opt);
}

TEST(SchedulerScale, Blast512RanksOver4WorkersMatches16RankBaseline) {
  const auto db = scale_db();
  const auto baseline =
      blast::partition_with_papar(db, 16, 32, blast::Policy::kCyclic);
  const auto scaled = blast::partition_with_papar(
      db, 512, 32, blast::Policy::kCyclic, fiber_options(4, /*seed=*/1));
  EXPECT_EQ(scaled.partitions.partitions, baseline.partitions.partitions);
}

TEST(SchedulerScale, HybridCut512RanksOver4WorkersMatches16RankBaseline) {
  const auto g = scale_graph();
  const auto baseline = graph::papar_hybrid_cut(g, 16, 16, /*threshold=*/32);
  const auto scaled = graph::papar_hybrid_cut(g, 512, 16, /*threshold=*/32,
                                              fiber_options(4, /*seed=*/1));
  EXPECT_EQ(scaled.partitioning.edge_partition,
            baseline.partitioning.edge_partition);
}

TEST(SchedulerScale, RandomizedInterleavingsAreAllByteIdentical) {
  const auto g = scale_graph();
  const auto baseline = graph::papar_hybrid_cut(g, 16, 16, /*threshold=*/32);
  // Different scheduler seeds explore different ready-queue interleavings;
  // none of them may change the output.
  for (const std::uint64_t seed : {2u, 3u, 4u}) {
    const auto run = graph::papar_hybrid_cut(g, 96, 16, /*threshold=*/32,
                                             fiber_options(3, seed));
    EXPECT_EQ(run.partitioning.edge_partition,
              baseline.partitioning.edge_partition)
        << "scheduler seed " << seed;
  }
}

TEST(SchedulerScale, BothModesAgreeAt256Ranks) {
  // The same 256-rank run in both run-queue modes: FIFO on one worker vs
  // seeded-random over 4 workers. Partitions must match each other and the
  // 16-rank baseline.
  const auto g = scale_graph();
  const auto baseline = graph::papar_hybrid_cut(g, 16, 16, /*threshold=*/32);
  const auto fifo = graph::papar_hybrid_cut(g, 256, 16, /*threshold=*/32,
                                            fiber_options(1, /*seed=*/0));
  const auto seeded = graph::papar_hybrid_cut(g, 256, 16, /*threshold=*/32,
                                              fiber_options(4, /*seed=*/6));
  EXPECT_EQ(fifo.partitioning.edge_partition,
            baseline.partitioning.edge_partition);
  EXPECT_EQ(seeded.partitioning.edge_partition,
            baseline.partitioning.edge_partition);
}

TEST(SchedulerScale, HybridCut1024RanksShufflesOnlyNonEmptyLegs) {
  // At 1024 ranks most shuffle legs carry nothing: the has-data exchange
  // keeps every stage far below the p*(p-1) messages a dense all-to-all
  // posts, and partitions still match the 16-rank baseline.
  const auto g = scale_graph();
  const auto baseline = graph::papar_hybrid_cut(g, 16, 16, /*threshold=*/32);
  const int p = 1024;
  const auto wide = graph::papar_hybrid_cut(g, p, 16, /*threshold=*/32,
                                            fiber_options(4, /*seed=*/0));
  EXPECT_EQ(wide.partitioning.edge_partition, baseline.partitioning.edge_partition);
  ASSERT_FALSE(wide.report.stages.empty());
  for (const auto& stage : wide.report.stages) {
    EXPECT_LT(static_cast<double>(stage.shuffle_messages), 0.3 * p * p) << stage.id;
  }
}

TEST(SchedulerScale, FaultInjectionUnderFibersRecoversExactly) {
  const auto db = scale_db();
  const auto clean =
      blast::partition_with_papar(db, 16, 32, blast::Policy::kCyclic);
  const auto plan =
      mp::FaultPlan::parse("seed=7,drop=0.05,dup=0.02,delay=0.02,crash=1@20");
  mp::FaultInjector inj(plan);
  const auto run = blast::partition_with_papar(
      db, 64, 32, blast::Policy::kCyclic, fiber_options(4, /*seed=*/5),
      mp::NetworkModel::rdma(), &inj);
  EXPECT_EQ(inj.counts().crashes, 1u);
  EXPECT_EQ(run.stats.recoveries, 1);
  EXPECT_EQ(run.partitions.partitions, clean.partitions.partitions);
}

}  // namespace
}  // namespace papar
