// Fault-injection machinery: plan parsing, injector determinism, message
// faults that never corrupt payloads, crash/recovery, timeouts, failure
// detection, deadlock detection, slow-rank skew, and checkpoint storage.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/checkpoint.hpp"
#include "mapreduce/mapreduce.hpp"
#include "mpsim/runtime.hpp"

namespace papar::mp {
namespace {

std::vector<unsigned char> bytes_of(const std::string& s) {
  return std::vector<unsigned char>(s.begin(), s.end());
}

std::string str_of(const std::vector<unsigned char>& b) {
  return std::string(b.begin(), b.end());
}

// -- FaultPlan parsing --------------------------------------------------------

TEST(FaultPlan, ParsesFullSpec) {
  const auto plan =
      FaultPlan::parse("seed=9, drop=0.1, dup=0.2, delay=0.3:0.001, "
                       "crash=2@40, crash=0@7, slow=1@2.5, max_recoveries=3");
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.drop, 0.1);
  EXPECT_DOUBLE_EQ(plan.duplicate, 0.2);
  EXPECT_DOUBLE_EQ(plan.delay, 0.3);
  EXPECT_DOUBLE_EQ(plan.delay_seconds, 0.001);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].rank, 2);
  EXPECT_EQ(plan.crashes[0].at_event, 40u);
  EXPECT_EQ(plan.crashes[1].rank, 0);
  ASSERT_EQ(plan.slow_ranks.size(), 1u);
  EXPECT_EQ(plan.slow_ranks[0].rank, 1);
  EXPECT_DOUBLE_EQ(plan.slow_ranks[0].scale, 2.5);
  EXPECT_EQ(plan.max_recoveries, 3);
  EXPECT_TRUE(plan.any_faults());
}

TEST(FaultPlan, ToStringRoundTrips) {
  const auto plan = FaultPlan::parse("seed=5,drop=0.05,dup=0.01,crash=1@12,slow=3@4");
  const auto again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());
  EXPECT_EQ(again.seed, plan.seed);
  EXPECT_DOUBLE_EQ(again.drop, plan.drop);
  ASSERT_EQ(again.crashes.size(), 1u);
  EXPECT_EQ(again.crashes[0].at_event, 12u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus=1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("drop=1.5"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("drop=0.99"), ConfigError);  // cap is 0.95
  EXPECT_THROW(FaultPlan::parse("drop=-0.1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("drop=abc"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("crash=1"), ConfigError);     // missing @N
  EXPECT_THROW(FaultPlan::parse("crash=x@3"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("slow=1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("seed="), ConfigError);
  EXPECT_THROW(FaultPlan::parse("drop"), ConfigError);
}

TEST(FaultPlan, ParseArgReadsSpecFiles) {
  const auto inline_plan = FaultPlan::parse_arg("drop=0.2,seed=3");
  EXPECT_DOUBLE_EQ(inline_plan.drop, 0.2);

  const std::string path =
      (std::filesystem::temp_directory_path() / "papar_fault_spec.conf").string();
  {
    std::ofstream out(path);
    out << "# lossy fabric profile\n"
        << "drop=0.1\n"
        << "dup=0.05\n"
        << "seed=11\n";
  }
  const auto file_plan = FaultPlan::parse_arg(path);
  EXPECT_DOUBLE_EQ(file_plan.drop, 0.1);
  EXPECT_DOUBLE_EQ(file_plan.duplicate, 0.05);
  EXPECT_EQ(file_plan.seed, 11u);
  std::remove(path.c_str());

  EXPECT_THROW(FaultPlan::parse_arg("/no/such/fault/spec"), ConfigError);
}

TEST(FaultInjector, BindRejectsOutOfRangeRanks) {
  FaultInjector inj(FaultPlan::parse("crash=5@3"));
  EXPECT_THROW(inj.bind(4), ConfigError);
  FaultInjector slow(FaultPlan::parse("slow=4@2"));
  EXPECT_THROW(slow.bind(4), ConfigError);
}

// -- Injector determinism -----------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisions) {
  const auto plan = FaultPlan::parse("seed=42,drop=0.3,dup=0.2,delay=0.1");
  FaultInjector a(plan);
  FaultInjector b(plan);
  a.bind(4);
  b.bind(4);
  for (int i = 0; i < 200; ++i) {
    const auto da = a.next_decision(0, 3);
    const auto db = b.next_decision(0, 3);
    EXPECT_EQ(da.drops, db.drops);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_DOUBLE_EQ(da.extra_delay, db.extra_delay);
  }
  EXPECT_EQ(a.trace_string(), b.trace_string());
  EXPECT_GT(a.trace_size(), 0u);
}

TEST(FaultInjector, LinksAreIndependentStreams) {
  const auto plan = FaultPlan::parse("seed=42,drop=0.5");
  FaultInjector a(plan);
  FaultInjector b(plan);
  a.bind(4);
  b.bind(4);
  // Interleave draws on other links in `b` only: link (0,3) must not care.
  for (int i = 0; i < 50; ++i) {
    b.next_decision(1, 2);
    b.next_decision(2, 1);
    const auto da = a.next_decision(0, 3);
    const auto db = b.next_decision(0, 3);
    EXPECT_EQ(da.drops, db.drops);
  }
}

// -- Message faults never corrupt payloads ------------------------------------

TEST(FaultRuntime, DropsRetryAndDeliverIntact) {
  Runtime rt(2, NetworkModel::rdma());
  FaultInjector inj(FaultPlan::parse("seed=1,drop=0.4"));
  rt.set_fault_injector(&inj);

  const int kMsgs = 50;
  const auto stats = rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) comm.send(1, i, bytes_of("msg" + std::to_string(i)));
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(str_of(comm.recv(0, i).payload), "msg" + std::to_string(i));
      }
    }
  });
  const auto counts = inj.counts();
  EXPECT_GT(counts.drops, 0u);
  EXPECT_EQ(counts.retries, counts.drops);
  EXPECT_EQ(counts.crashes, 0u);
  EXPECT_EQ(stats.recoveries, 0);

  // Retries are charged: the lossy run must be slower than a clean one.
  Runtime clean(2, NetworkModel::rdma());
  const auto clean_stats = clean.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) comm.send(1, i, bytes_of("msg" + std::to_string(i)));
    } else {
      for (int i = 0; i < kMsgs; ++i) comm.recv(0, i);
    }
  });
  EXPECT_GT(stats.rank_time[0], clean_stats.rank_time[0]);
}

TEST(FaultRuntime, DuplicatesAndDelaysDeliverExactlyOnce) {
  Runtime rt(2, NetworkModel::rdma());
  FaultInjector inj(FaultPlan::parse("seed=2,dup=0.5,delay=0.5:0.01"));
  rt.set_fault_injector(&inj);

  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 40; ++i) comm.send(1, 0, bytes_of("p" + std::to_string(i)));
      comm.send(1, 1, bytes_of("done"));
    } else {
      // Exactly one copy of each message arrives, in order.
      for (int i = 0; i < 40; ++i) {
        EXPECT_EQ(str_of(comm.recv(0, 0).payload), "p" + std::to_string(i));
      }
      EXPECT_EQ(str_of(comm.recv(0, 1).payload), "done");
      EXPECT_FALSE(comm.probe(0, 0));  // no duplicate left behind
    }
  });
  const auto counts = inj.counts();
  EXPECT_GT(counts.duplicates, 0u);
  EXPECT_GT(counts.delays, 0u);
}

TEST(FaultRuntime, CollectivesSurviveLossyFabric) {
  Runtime rt(4, NetworkModel::rdma());
  FaultInjector inj(FaultPlan::parse("seed=3,drop=0.3,dup=0.2,delay=0.2"));
  rt.set_fault_injector(&inj);
  rt.run([&](Comm& comm) {
    const auto all = comm.allgather(bytes_of("r" + std::to_string(comm.rank())));
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(str_of(all[static_cast<std::size_t>(r)]), "r" + std::to_string(r));
    }
    EXPECT_EQ(comm.allreduce_sum<int>(comm.rank()), 6);
    comm.barrier();
  });
  EXPECT_GT(inj.counts().total_injected(), 0u);
}

// -- Crash + recovery ---------------------------------------------------------

TEST(FaultRuntime, CrashRecoveryReproducesFaultFreeResult) {
  auto job = [](Comm& comm, std::string* result) {
    mr::MapReduce mapred(comm);
    mapred.map(16, [](int task, mr::KvEmitter& out) {
      out.emit("key" + std::to_string(task % 5), "v" + std::to_string(task));
    });
    mapred.aggregate();
    mapred.sort_by_key(mr::KeyColumn::projection(
        [](const mr::KvPair&) { return std::uint64_t{0}; }, /*tie_break_bytes=*/true));
    mapred.gather(0);
    if (comm.rank() == 0 && result != nullptr) {
      *result = str_of(mapred.local().bytes());
    }
  };

  std::string clean;
  Runtime clean_rt(4, NetworkModel::zero());
  clean_rt.run([&](Comm& comm) { job(comm, &clean); });
  ASSERT_FALSE(clean.empty());

  std::string recovered;
  Runtime rt(4, NetworkModel::zero());
  FaultInjector inj(FaultPlan::parse("seed=4,crash=1@6"));
  rt.set_fault_injector(&inj);
  const auto stats = rt.run([&](Comm& comm) { job(comm, &recovered); });

  EXPECT_EQ(inj.counts().crashes, 1u);
  EXPECT_GE(inj.counts().detections, 1u);
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(recovered, clean);
}

TEST(FaultRuntime, CrashMidAlltoallvRecovers) {
  std::vector<std::string> got;
  Runtime rt(4, NetworkModel::zero());
  FaultInjector inj(FaultPlan::parse("seed=5,crash=2@3"));
  rt.set_fault_injector(&inj);
  const auto stats = rt.run([&](Comm& comm) {
    std::vector<std::vector<unsigned char>> bufs;
    for (int d = 0; d < comm.size(); ++d) {
      bufs.push_back(bytes_of(std::to_string(comm.rank()) + "->" + std::to_string(d)));
    }
    auto back = comm.alltoallv(std::move(bufs));
    for (int s = 0; s < comm.size(); ++s) {
      EXPECT_EQ(str_of(back[static_cast<std::size_t>(s)]),
                std::to_string(s) + "->" + std::to_string(comm.rank()));
    }
    comm.barrier();
  });
  EXPECT_EQ(inj.counts().crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1);
}

TEST(FaultRuntime, UnrecoverableCrashSurfacesRankCrashedError) {
  Runtime rt(2, NetworkModel::zero());
  FaultInjector inj(FaultPlan::parse("seed=6,crash=0@1,crash=1@1,max_recoveries=0"));
  rt.set_fault_injector(&inj);
  EXPECT_THROW(rt.run([](Comm& comm) { comm.barrier(); }), RankCrashedError);
}

// -- Timeouts and failure detection -------------------------------------------

TEST(FaultRuntime, RecvTimeoutThrowsAndChargesClock) {
  // Deadlines are virtual (DESIGN.md §13): the sender models 0.2s of work
  // before sending, so its message arrives at virtual time ~0.2 — past the
  // receiver's 0.05s deadline — regardless of wall-clock scheduling.
  Runtime rt(2, NetworkModel::zero());
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      const double before = comm.vtime();
      EXPECT_THROW(comm.recv(1, 7, 0.05), TimeoutError);
      EXPECT_GE(comm.vtime(), before + 0.05);
      // The late message is still delivered and consumable afterwards.
      EXPECT_EQ(str_of(comm.recv(1, 7).payload), "late");
    } else {
      comm.charge_modeled(0.2);
      comm.send(0, 7, bytes_of("late"));
    }
  });
}

TEST(FaultRuntime, RecvTimeoutFiresAtQuiescenceWithoutAMatchingMessage) {
  // No matching message is ever in flight when the deadline expires: the
  // watchdog scan must fire the virtual deadline once the system goes
  // quiescent instead of declaring deadlock (rank 1 blocks on a message
  // rank 0 only sends after its timeout).
  Runtime rt(2, NetworkModel::zero());
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      const double before = comm.vtime();
      EXPECT_THROW(comm.recv(1, 9, 0.05), TimeoutError);
      EXPECT_GE(comm.vtime(), before + 0.05);
      comm.send(1, 8, bytes_of("after timeout"));
    } else {
      EXPECT_EQ(str_of(comm.recv(0, 8).payload), "after timeout");
    }
  });
}

TEST(FaultRuntime, RequestWaitForTimesOut) {
  Runtime rt(2, NetworkModel::zero());
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = comm.irecv(1, 9);
      EXPECT_THROW(req.wait_for(0.05), TimeoutError);
      EXPECT_EQ(str_of(comm.recv(1, 9).payload), "eventually");
    } else {
      comm.charge_modeled(0.2);
      comm.send(0, 9, bytes_of("eventually"));
    }
  });
}

TEST(FaultRuntime, RecvFromFinishedPeerIsPeerFailureNotEmptyPayload) {
  // Rank 1 exits without ever sending: rank 0's recv must fail loudly
  // (PeerFailureError), not return an empty envelope.
  Runtime rt(2, NetworkModel::zero());
  EXPECT_THROW(rt.run([](Comm& comm) {
    if (comm.rank() == 0) comm.recv(1, 0);
  }),
               PeerFailureError);
}

TEST(FaultRuntime, MessagesSentBeforeDeathAreStillConsumable) {
  // A peer that sends and then dies must not poison already-delivered data.
  Runtime rt(2, NetworkModel::zero());
  rt.run([&](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send(0, 0, bytes_of("parting gift"));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      EXPECT_EQ(str_of(comm.recv(1, 0).payload), "parting gift");
    }
  });
}

// -- Deadlock detection -------------------------------------------------------

TEST(FaultRuntime, CrossRecvDeadlockIsDetectedWithDump) {
  Runtime rt(2, NetworkModel::zero());
  try {
    rt.run([](Comm& comm) {
      // Classic cycle: each rank waits for a message the other never sends.
      comm.recv(1 - comm.rank(), 0);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("recv"), std::string::npos) << what;
  }
}

TEST(FaultRuntime, SlowMatchingMessageIsNotADeadlock) {
  // One rank blocks while the other computes for longer than the watchdog
  // period before sending: the detector must not fire.
  Runtime rt(2, NetworkModel::zero());
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_EQ(str_of(comm.recv(1, 0).payload), "worth the wait");
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      comm.send(0, 0, bytes_of("worth the wait"));
    }
  });
}

// -- Slow-rank skew -----------------------------------------------------------

TEST(FaultRuntime, SlowRankScalesModeledCompute) {
  Runtime rt(2, NetworkModel::zero());
  FaultInjector inj(FaultPlan::parse("seed=7,slow=1@3"));
  rt.set_fault_injector(&inj);
  const auto stats = rt.run([](Comm& comm) { comm.charge_modeled(1.0); });
  EXPECT_NEAR(stats.rank_time[0], 1.0, 0.05);
  EXPECT_NEAR(stats.rank_time[1], 3.0, 0.05);
}

// -- Checkpoint store ---------------------------------------------------------

TEST(CheckpointStore, SaveLoadAndStageCompletion) {
  mr::CheckpointStore store(2);
  EXPECT_FALSE(store.stage_complete(0));
  EXPECT_FALSE(store.latest_complete(5).has_value());

  store.save(0, 0, bytes_of("r0s0"));
  EXPECT_FALSE(store.stage_complete(0));
  store.save(0, 1, bytes_of("r1s0"));
  EXPECT_TRUE(store.stage_complete(0));

  store.save(1, 0, bytes_of("r0s1"));  // stage 1 incomplete (rank 1 missing)
  ASSERT_TRUE(store.latest_complete(5).has_value());
  EXPECT_EQ(*store.latest_complete(5), 0u);

  auto blob = store.load(0, 1);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(str_of(*blob), "r1s0");
  EXPECT_FALSE(store.load(3, 0).has_value());

  EXPECT_EQ(store.saves(), 3u);
  EXPECT_EQ(store.restores(), 1u);
  EXPECT_EQ(store.bytes_stored(), 12u);
  store.clear();
  EXPECT_EQ(store.saves(), 0u);
  EXPECT_FALSE(store.stage_complete(0));
}

TEST(CheckpointStore, SpillsToDisk) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_ckpt_test";
  std::filesystem::remove_all(dir);
  {
    mr::CheckpointStore store(1, dir.string());
    store.save(2, 0, bytes_of("spilled"));
  }
  std::ifstream in(dir / "stage2.rank0.ckpt", std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "spilled");
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, MapReducePageRoundTrips) {
  Runtime rt(2, NetworkModel::zero());
  mr::CheckpointStore store(2);
  rt.run([&](Comm& comm) {
    mr::MapReduce mapred(comm);
    mapred.mutable_local().add("k" + std::to_string(comm.rank()), "payload");
    mapred.checkpoint(store, 0);
    mapred.mutable_local().clear();
    ASSERT_TRUE(mapred.restore(store, 0));
    EXPECT_EQ(mapred.local().count(), 1u);
    mapred.local().for_each([&](std::string_view k, std::string_view v) {
      EXPECT_EQ(k, "k" + std::to_string(comm.rank()));
      EXPECT_EQ(v, "payload");
    });
    EXPECT_FALSE(mapred.restore(store, 9));
  });
  EXPECT_TRUE(store.stage_complete(0));
}

TEST(FaultInjector, PruneFoldsAcknowledgedEventsIntoAggregates) {
  FaultInjector inj(FaultPlan::parse("seed=11,drop=0.2,dup=0.1,delay=0.3"));
  inj.bind(2);
  for (int i = 0; i < 300; ++i) (void)inj.next_decision(0, 1);
  const std::size_t before = inj.trace_size();
  ASSERT_GT(before, 0u);
  EXPECT_GT(inj.prune_acknowledged(), 0u);
  // Folding bounds the table without losing the count of recorded events.
  EXPECT_EQ(inj.trace_size(), before);
  const std::string trace = inj.trace_string();
  EXPECT_NE(trace.find(" x"), std::string::npos);         // aggregate lines
  EXPECT_NE(trace.find("drop 0->1"), std::string::npos);  // per-link totals
  // A second prune with no new events folds nothing and keeps the canonical
  // trace stable — this is what lets the engine prune at every stage
  // barrier while same-seed runs stay golden-comparable.
  EXPECT_EQ(inj.prune_acknowledged(), 0u);
  EXPECT_EQ(inj.trace_string(), trace);
}

TEST(FaultInjector, PruneKeepsCrashEventsVerbatim) {
  FaultInjector inj(FaultPlan::parse("seed=4,drop=0.5,crash=1@3"));
  inj.bind(2);
  bool crashed = false;
  for (int e = 0; e < 5; ++e) crashed = crashed || inj.on_comm_event(1);
  ASSERT_TRUE(crashed);
  for (int i = 0; i < 50; ++i) (void)inj.next_decision(0, 1);
  (void)inj.prune_acknowledged();
  const std::string trace = inj.trace_string();
  // Drops fold into aggregates; the crash stays a verbatim per-event line.
  EXPECT_NE(trace.find(" x"), std::string::npos);
  EXPECT_NE(trace.find("crash 1->1"), std::string::npos);
}

TEST(CheckpointStore, KeepLastReleasesOldCompleteStages) {
  mr::CheckpointStore store(2);
  store.set_keep_last(2);
  for (std::uint64_t s = 0; s < 5; ++s) {
    store.save(s, 0, bytes_of("a"));
    store.save(s, 1, bytes_of("b"));
  }
  // Stages 3 and 4 are retained (2 ranks x 1 B each); stages 0-2 released.
  EXPECT_EQ(store.bytes_stored(), 4u);
  EXPECT_EQ(store.released_bytes(), 6u);
  ASSERT_TRUE(store.latest_complete(10).has_value());
  EXPECT_EQ(*store.latest_complete(10), 4u);
  EXPECT_FALSE(store.load(0, 0).has_value());
  EXPECT_TRUE(store.load(4, 0).has_value());
}

TEST(CheckpointStore, RetentionSkipsIncompleteStages) {
  mr::CheckpointStore store(2);
  store.set_keep_last(1);
  store.save(0, 0, bytes_of("a0"));
  store.save(0, 1, bytes_of("a1"));
  store.save(1, 0, bytes_of("b0"));  // stage 1 never completes
  store.save(2, 0, bytes_of("c0"));
  store.save(2, 1, bytes_of("c1"));
  // Stage 2 is the kept complete stage; stage 0 is released; the
  // incomplete stage 1 is never touched (it may still complete).
  EXPECT_FALSE(store.load(0, 0).has_value());
  EXPECT_TRUE(store.load(1, 0).has_value());
  EXPECT_TRUE(store.load(2, 1).has_value());
}

TEST(CheckpointStore, DefaultRetentionKeepsEveryStage) {
  mr::CheckpointStore store(2);
  for (std::uint64_t s = 0; s < 4; ++s) {
    store.save(s, 0, bytes_of("x"));
    store.save(s, 1, bytes_of("y"));
  }
  EXPECT_EQ(store.bytes_stored(), 8u);
  EXPECT_EQ(store.released_bytes(), 0u);
  EXPECT_TRUE(store.load(0, 0).has_value());
}

TEST(CheckpointStore, RemoveSpillFilesClearsDiskAndAllowsReuse) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_ckpt_rm_test";
  std::filesystem::remove_all(dir);
  mr::CheckpointStore store(1, dir.string());
  store.save(0, 0, bytes_of("one"));
  store.save(1, 0, bytes_of("two"));
  EXPECT_TRUE(std::filesystem::exists(dir / "stage0.rank0.ckpt"));
  EXPECT_EQ(store.remove_spill_files(), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir));
  // In-memory blobs still serve restores, and a later save recreates the
  // directory from scratch.
  EXPECT_TRUE(store.load(0, 0).has_value());
  store.save(2, 0, bytes_of("three"));
  EXPECT_TRUE(std::filesystem::exists(dir / "stage2.rank0.ckpt"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace papar::mp
