// Memory-governance coverage (DESIGN.md §12): budget watermark semantics,
// spill-backed sort/rewrite byte-identity, credit-based backpressure in the
// simulated runtime, allocation-failure injection, engine-level budgeted
// runs, and the checkpoint/spill file lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "mapreduce/mapreduce.hpp"
#include "mapreduce/spill.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/runtime.hpp"
#include "util/bytes.hpp"
#include "util/membudget.hpp"
#include "xml/xml.hpp"

namespace papar {
namespace {

// -- MemoryBudget -------------------------------------------------------------

TEST(MemoryBudget, HardLimitThrowsTypedError) {
  MemoryBudget budget({.hard_limit = 100, .soft_limit = 80});
  budget.bind(2);
  budget.set_stage(0, "job:sort");
  budget.acquire(0, 60);
  try {
    budget.acquire(0, 50);
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& e) {
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.stage(), "job:sort");
    EXPECT_EQ(e.requested(), 50u);
    EXPECT_EQ(e.used(), 60u);
    EXPECT_EQ(e.limit(), 100u);
    EXPECT_NE(std::string(e.what()).find("job:sort"), std::string::npos);
  }
  // The failed acquire must not leak into the usage count.
  EXPECT_EQ(budget.used(0), 60u);
  // Other ranks have their own pool.
  budget.acquire(1, 90);
  EXPECT_EQ(budget.used(1), 90u);
}

TEST(MemoryBudget, SoftWatermarkDrivesShouldSpill) {
  MemoryBudget budget({.hard_limit = 1000, .soft_limit = 50});
  budget.bind(1);
  budget.acquire(0, 40);
  EXPECT_FALSE(budget.should_spill(0, 5));
  EXPECT_TRUE(budget.should_spill(0, 20));
  EXPECT_EQ(budget.soft_crossings(), 0u);
  budget.acquire(0, 20);  // crosses the watermark
  EXPECT_EQ(budget.soft_crossings(), 1u);
  budget.release(0, 60);
  EXPECT_EQ(budget.used(0), 0u);
}

TEST(MemoryBudget, HighWaterCombinesTrackedAndMailbox) {
  MemoryBudget budget({.hard_limit = 1000, .mailbox_limit = 100});
  budget.bind(1);
  budget.set_stage(0, "job:group");
  budget.acquire(0, 300);
  budget.add_mailbox(0, 200);
  EXPECT_EQ(budget.high_water(0), 500u);
  budget.sub_mailbox(0, 200);
  budget.release(0, 300);
  EXPECT_EQ(budget.high_water(0), 500u);  // peak, not current
  const auto by_stage = budget.stage_high_water();
  ASSERT_TRUE(by_stage.count("job:group"));
  EXPECT_EQ(by_stage.at("job:group"), 500u);
}

TEST(MemoryBudget, FailAllocationAfterInjectsBadAlloc) {
  MemoryBudget budget({.hard_limit = 1 << 20});
  budget.bind(1);
  budget.fail_allocation_after(2);
  budget.acquire(0, 1);
  EXPECT_THROW(budget.acquire(0, 1), std::bad_alloc);
  // The armed point fires exactly once.
  budget.acquire(0, 1);
  EXPECT_EQ(budget.used(0), 2u);
}

TEST(MemoryBudget, CounterHookSeesSpillEvents) {
  MemoryBudget budget({});
  budget.bind(1);
  std::map<std::string, std::uint64_t> seen;
  budget.set_counter_hook(
      [&seen](const char* name, std::uint64_t delta) { seen[name] += delta; });
  budget.note_spill(0, 4096);
  budget.note_backpressure(0);
  EXPECT_EQ(seen.at("mem.spill_bytes"), 4096u);
  EXPECT_EQ(seen.at("mem.spill_runs"), 1u);
  EXPECT_EQ(seen.at("mem.backpressure_stalls"), 1u);
  EXPECT_EQ(budget.spill_bytes(), 4096u);
  EXPECT_EQ(budget.spill_runs(), 1u);
}

TEST(MemoryBudget, ScopeReleasesOnUnwindAndSupportsGrowShrink) {
  MemoryBudget budget({.hard_limit = 100});
  budget.bind(1);
  {
    BudgetScope scope(&budget, 0, 30);
    scope.grow(20);
    EXPECT_EQ(budget.used(0), 50u);
    scope.shrink(10);
    EXPECT_EQ(budget.used(0), 40u);
    EXPECT_THROW(scope.grow(200), BudgetExceededError);
  }
  EXPECT_EQ(budget.used(0), 0u);
}

// -- Spill-backed sort and rewrite --------------------------------------------

mr::KvBuffer test_page(std::size_t records, std::uint64_t seed) {
  mr::KvBuffer page;
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < records; ++i) {
    // Few distinct keys so stability is actually exercised; values record
    // the emission index so any reordering of equal keys is visible.
    const std::string key = "k" + std::to_string(rng() % 7);
    const std::string value = "v" + std::to_string(i) + std::string(rng() % 40, 'x');
    page.add(key, value);
  }
  return page;
}

bool key_less(const mr::KvPair& a, const mr::KvPair& b) { return a.key < b.key; }

std::vector<unsigned char> in_memory_sorted(const mr::KvBuffer& src) {
  mr::KvBuffer page;
  page.append_page(src.bytes().data(), src.byte_size());
  auto offs = page.offsets();
  std::stable_sort(offs.begin(), offs.end(), [&](std::size_t a, std::size_t b) {
    return key_less(page.at(a), page.at(b));
  });
  page.reorder(offs);
  return page.bytes();
}

TEST(Spill, ExternalSortMatchesInMemoryStableSortAcrossRunSizes) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_spill_test";
  std::filesystem::remove_all(dir);
  const mr::KvBuffer src = test_page(500, 11);
  const auto expected = in_memory_sorted(src);
  for (const std::size_t run_bytes : {std::size_t{1}, std::size_t{256},
                                      std::size_t{4096}, std::size_t{1} << 20}) {
    mr::KvBuffer page;
    page.append_page(src.bytes().data(), src.byte_size());
    mr::SpillConfig cfg;
    cfg.dir = dir.string();
    cfg.run_bytes = run_bytes;
    const auto stats = mr::external_stable_sort(page, key_less, cfg);
    EXPECT_EQ(page.bytes(), expected) << "run_bytes=" << run_bytes;
    EXPECT_GT(stats.runs, 0u);
    EXPECT_EQ(stats.spilled_bytes, src.byte_size());
  }
  // Spill files never outlive the sort.
  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(Spill, RewriteSpoolRoundTripsEmissionOrder) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_spool_test";
  std::filesystem::remove_all(dir);
  // A soft watermark of one byte forces a flush after every record.
  MemoryBudget budget({.hard_limit = 1 << 20, .soft_limit = 1});
  budget.bind(1);
  mr::SpillConfig cfg;
  cfg.dir = dir.string();
  cfg.budget = &budget;
  const mr::KvBuffer src = test_page(200, 23);

  mr::RewriteSpool spool(cfg);
  src.for_each([&](std::string_view k, std::string_view v) {
    spool.buffer().add(k, v);
    spool.maybe_flush();
  });
  EXPECT_TRUE(spool.spilled());
  mr::KvBuffer out;
  spool.finish(out);
  EXPECT_EQ(out.bytes(), src.bytes());
  EXPECT_EQ(out.count(), src.count());
  EXPECT_GT(budget.spill_bytes(), 0u);
  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(Spill, RewriteSpoolFastPathNeverTouchesDisk) {
  mr::SpillConfig cfg;  // no budget: never over the (absent) watermark
  cfg.dir = (std::filesystem::temp_directory_path() / "papar_no_spool").string();
  const mr::KvBuffer src = test_page(50, 3);
  mr::RewriteSpool spool(cfg);
  src.for_each([&](std::string_view k, std::string_view v) {
    spool.buffer().add(k, v);
    spool.maybe_flush();
  });
  EXPECT_FALSE(spool.spilled());
  mr::KvBuffer out;
  spool.finish(out);
  EXPECT_EQ(out.bytes(), src.bytes());
  EXPECT_FALSE(std::filesystem::exists(cfg.dir));
}

TEST(Spill, InjectedAllocationFailureBecomesTypedErrorWithoutLeaks) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_spill_oom_test";
  std::filesystem::remove_all(dir);
  MemoryBudget budget({.hard_limit = 1 << 20, .soft_limit = 64});
  budget.bind(1);
  budget.set_stage(0, "job:sort");
  mr::KvBuffer page = test_page(300, 7);
  mr::SpillConfig cfg;
  cfg.dir = dir.string();
  cfg.run_bytes = 512;
  cfg.budget = &budget;
  budget.fail_allocation_after(1);
  try {
    mr::external_stable_sort(page, key_less, cfg);
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& e) {
    EXPECT_EQ(e.stage(), "job:sort");
  }
  // The error path must not leave spill files behind.
  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// -- Credit-based backpressure in the runtime ---------------------------------

TEST(Backpressure, TinyMailboxCapDeliversEverythingAndCountsStalls) {
  MemoryBudget budget({.hard_limit = 1 << 20, .mailbox_limit = 256});
  mp::Runtime rt(2, mp::NetworkModel::zero());
  rt.set_memory_budget(&budget);
  const int kMessages = 64;
  rt.run([&](mp::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        std::vector<unsigned char> payload(100, static_cast<unsigned char>(i));
        comm.send(1, 5, std::move(payload));
      }
    } else {
      for (int i = 0; i < kMessages; ++i) {
        const auto env = comm.recv(0, 5);
        ASSERT_EQ(env.payload.size(), 100u);
        EXPECT_EQ(env.payload[0], static_cast<unsigned char>(i));
      }
    }
  });
  // 64 * 100 B through a 256 B mailbox cannot avoid stalling.
  EXPECT_GT(budget.backpressure_stalls(), 0u);
  EXPECT_EQ(budget.mailbox_used(1), 0u);  // credits all returned
}

TEST(Backpressure, DeadlockDumpNamesCreditState) {
  MemoryBudget budget({.hard_limit = 1 << 20, .mailbox_limit = 1024});
  mp::Runtime rt(2, mp::NetworkModel::zero());
  rt.set_memory_budget(&budget);
  try {
    rt.run([&](mp::Comm& comm) {
      // Both ranks receive, nobody sends: a true deadlock, not backpressure.
      comm.recv(1 - comm.rank(), 9);
    });
    FAIL() << "expected DeadlockError";
  } catch (const mp::DeadlockError& e) {
    // The dump carries the per-rank budget/credit summary.
    EXPECT_NE(std::string(e.what()).find("tracked"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("mailbox"), std::string::npos);
  }
}

TEST(Backpressure, BudgetedShuffleIsByteIdenticalAndSpills) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_shuffle_spill";
  std::filesystem::remove_all(dir);
  const int p = 4;

  auto job = [p](mp::Comm& comm, std::vector<std::string>* out, std::mutex* mu) {
    mr::MapReduce mapred(comm);
    std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    for (int i = 0; i < 400; ++i) {
      const std::string key = "key" + std::to_string(rng() % 97);
      const std::string value = std::string(1 + rng() % 50, 'a' + comm.rank());
      mapred.mutable_local().add(key, value);
    }
    mapred.aggregate();
    mapred.sort_by_key(mr::KeyColumn::projection(
        [](const mr::KvPair&) { return std::uint64_t{0}; }, /*tie_break_bytes=*/true));
    std::lock_guard<std::mutex> lock(*mu);
    auto& slot = (*out)[static_cast<std::size_t>(comm.rank())];
    slot.assign(mapred.local().bytes().begin(), mapred.local().bytes().end());
  };

  std::vector<std::string> plain(p);
  std::mutex mu;
  {
    mp::Runtime rt(p, mp::NetworkModel::zero());
    rt.run([&](mp::Comm& comm) { job(comm, &plain, &mu); });
  }

  MemoryBudget budget({.hard_limit = 1 << 20,
                       .soft_limit = 2048,
                       .mailbox_limit = 1024,
                       .spill_dir = dir.string()});
  std::vector<std::string> governed(p);
  {
    mp::Runtime rt(p, mp::NetworkModel::zero());
    rt.set_memory_budget(&budget);
    rt.run([&](mp::Comm& comm) { job(comm, &governed, &mu); });
  }

  EXPECT_EQ(governed, plain);
  EXPECT_GT(budget.spill_bytes(), 0u);
  EXPECT_GT(budget.backpressure_stalls(), 0u);
  EXPECT_GT(budget.high_water(), 0u);
  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// -- Engine-level governance --------------------------------------------------

const char* kPairsSpec = R"(
<input id="pairs"><input_format>binary</input_format>
  <element>
    <value name="k" type="integer"/>
    <value name="x" type="integer"/>
  </element>
</input>)";

const char* kSortWorkflow = R"(
  <workflow id="w">
    <arguments><param name="input_path" type="hdfs" format="pairs"/></arguments>
    <operators>
      <operator id="sort" operator="Sort">
        <param name="inputPath" value="$input_path"/>
        <param name="outputPath" value="sorted"/>
        <param name="key" value="x"/>
      </operator>
    </operators>
  </workflow>)";

std::string pairs_content(int rows, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ByteWriter w;
  for (int i = 0; i < rows; ++i) {
    w.put<std::int32_t>(static_cast<std::int32_t>(rng() % 1000));
    w.put<std::int32_t>(static_cast<std::int32_t>(rng() % 100000));
  }
  return std::string(reinterpret_cast<const char*>(w.data()), w.size());
}

core::PartitionResult run_sort_workflow(const std::string& content,
                                        core::EngineOptions opts,
                                        mp::FaultInjector* faults = nullptr) {
  core::WorkflowEngine engine(
      core::parse_workflow(xml::parse(kSortWorkflow)),
      {{"pairs", schema::parse_input_spec(xml::parse(kPairsSpec))}},
      {{"input_path", "data"}}, opts);
  mp::Runtime rt(3, mp::NetworkModel::zero());
  if (faults != nullptr) rt.set_fault_injector(faults);
  return engine.run(rt, {{"data", content}});
}

TEST(EngineGovernance, BudgetedRunIsByteIdenticalAndReportsMemory) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_engine_spill";
  std::filesystem::remove_all(dir);
  // Big enough that per-rank pages clear the external sort's 16 KB run
  // floor — below that, spilling cannot shrink the working set and a
  // quarter-peak budget would be genuinely infeasible.
  const std::string content = pairs_content(12000, 77);

  const auto plain = run_sort_workflow(content, {});
  EXPECT_EQ(plain.report.memory.budget_bytes, 0u);

  // Generous probe measures the peak; the governed run gets a quarter.
  core::EngineOptions probe;
  probe.mem_budget = std::size_t{1} << 30;
  probe.spill_dir = dir.string();
  const auto probed = run_sort_workflow(content, probe);
  ASSERT_EQ(probed.partitions, plain.partitions);
  ASSERT_GT(probed.report.memory.high_water_bytes, 0u);

  core::EngineOptions tight;
  tight.mem_budget =
      std::max<std::size_t>(probed.report.memory.high_water_bytes / 4, 1024);
  tight.spill_dir = dir.string();
  const auto governed = run_sort_workflow(content, tight);
  EXPECT_EQ(governed.partitions, plain.partitions);
  EXPECT_EQ(governed.report.memory.budget_bytes, tight.mem_budget);
  EXPECT_GT(governed.report.memory.spill_bytes, 0u);
  EXPECT_GT(governed.report.memory.high_water_bytes, 0u);

  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// Group (reduce's key-column order), split and distribute (sort_by_key): the
// sorting jobs of the hybrid-cut workflow, on pairs grouped by `k`.
const char* kGroupWorkflow = R"(
  <workflow id="w">
    <arguments><param name="input_path" type="hdfs" format="pairs"/></arguments>
    <operators>
      <operator id="group" operator="group">
        <param name="inputPath" value="$input_path"/>
        <param name="outputPath" value="/tmp/group" format="pack"/>
        <param name="key" value="k"/>
        <addon operator="count" key="k" attr="n"/>
      </operator>
      <operator id="split" operator="Split">
        <param name="inputPath" value="$group.outputPath"/>
        <param name="outputPathList" value="/tmp/split/many, /tmp/split/few"
               format="unpack,orig"/>
        <param name="key" value="$group.$n"/>
        <param name="policy" value="{&gt;=, 12},{&lt;, 12}"/>
      </operator>
      <operator id="distr" operator="Distribute">
        <param name="inputPath" value="/tmp/split/"/>
        <param name="outputPath" value="parts"/>
        <param name="policy" value="cyclic"/>
        <param name="numPartitions" value="5"/>
      </operator>
    </operators>
  </workflow>)";

core::PartitionResult run_group_workflow(const std::string& content,
                                         core::EngineOptions opts) {
  core::WorkflowEngine engine(
      core::parse_workflow(xml::parse(kGroupWorkflow)),
      {{"pairs", schema::parse_input_spec(xml::parse(kPairsSpec))}},
      {{"input_path", "data"}}, opts);
  mp::Runtime rt(3, mp::NetworkModel::zero());
  return engine.run(rt, {{"data", content}});
}

TEST(EngineGovernance, BudgetedGroupRunIsByteIdentical) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_group_spill";
  std::filesystem::remove_all(dir);
  // ~12 records per key, so the split policy sends keys both ways.
  const std::string content = pairs_content(12000, 91);

  const auto plain = run_group_workflow(content, {});
  ASSERT_FALSE(plain.partitions.empty());

  core::EngineOptions probe;
  probe.mem_budget = std::size_t{1} << 30;
  probe.spill_dir = dir.string();
  const auto probed = run_group_workflow(content, probe);
  ASSERT_EQ(probed.partitions, plain.partitions);
  ASSERT_GT(probed.report.memory.high_water_bytes, 0u);

  core::EngineOptions tight;
  tight.mem_budget =
      std::max<std::size_t>(probed.report.memory.high_water_bytes / 4, 1024);
  tight.spill_dir = dir.string();
  const auto governed = run_group_workflow(content, tight);
  EXPECT_EQ(governed.partitions, plain.partitions);
  EXPECT_GT(governed.report.memory.spill_bytes, 0u);

  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(EngineGovernance, MemoryStatsRoundTripThroughStageReportJson) {
  obs::StageReport report;
  report.memory.budget_bytes = 1 << 20;
  report.memory.high_water_bytes = 123456;
  report.memory.spill_bytes = 789;
  report.memory.spill_runs = 3;
  report.memory.soft_crossings = 2;
  report.memory.backpressure_stalls = 40;
  report.memory.emergency_credits = 1;
  const auto round = obs::StageReport::from_json(report.to_json());
  EXPECT_EQ(round.memory.budget_bytes, report.memory.budget_bytes);
  EXPECT_EQ(round.memory.high_water_bytes, report.memory.high_water_bytes);
  EXPECT_EQ(round.memory.spill_bytes, report.memory.spill_bytes);
  EXPECT_EQ(round.memory.spill_runs, report.memory.spill_runs);
  EXPECT_EQ(round.memory.soft_crossings, report.memory.soft_crossings);
  EXPECT_EQ(round.memory.backpressure_stalls, report.memory.backpressure_stalls);
  EXPECT_EQ(round.memory.emergency_credits, report.memory.emergency_credits);
}

TEST(EngineGovernance, CleanRunRemovesCheckpointFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_ckpt_clean";
  std::filesystem::remove_all(dir);
  mp::FaultInjector injector(mp::FaultPlan::parse("seed=3,drop=0.1"));
  core::EngineOptions opts;
  opts.checkpoint_dir = dir.string();
  const auto result = run_sort_workflow(pairs_content(200, 5), opts, &injector);
  EXPECT_GT(result.report.faults.checkpoint_saves, 0u);
  // Clean exit removes the spilled checkpoint files (and the now-empty dir).
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(EngineGovernance, FailedRunKeepsCheckpointFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_ckpt_kept";
  std::filesystem::remove_all(dir);
  // Unrecoverable crash mid-run: stage checkpoints must survive for
  // post-mortem.
  mp::FaultInjector injector(
      mp::FaultPlan::parse("seed=3,crash=1@12,max_recoveries=0"));
  core::EngineOptions opts;
  opts.checkpoint_dir = dir.string();
  EXPECT_THROW(run_sort_workflow(pairs_content(400, 9), opts, &injector),
               papar::Error);
  bool any_ckpt = false;
  if (std::filesystem::exists(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      any_ckpt |= entry.path().extension() == ".ckpt";
    }
  }
  EXPECT_TRUE(any_ckpt);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace papar
