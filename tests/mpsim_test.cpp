// Tests for the simulated message-passing runtime: point-to-point
// semantics, collectives, virtual-clock propagation, and the network model.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "mapreduce/mapreduce.hpp"
#include "mpsim/runtime.hpp"
#include "obs/obs.hpp"
#include "util/membudget.hpp"

namespace papar::mp {
namespace {

std::vector<unsigned char> bytes_of(const std::string& s) {
  return std::vector<unsigned char>(s.begin(), s.end());
}

std::string str_of(const std::vector<unsigned char>& b) {
  return std::string(b.begin(), b.end());
}

TEST(Network, CostsAreAffine) {
  NetworkModel net{1e-6, 1e9, 1e10};
  EXPECT_DOUBLE_EQ(net.remote_cost(0), 1e-6);
  EXPECT_DOUBLE_EQ(net.remote_cost(1000), 1e-6 + 1e-6);
  EXPECT_DOUBLE_EQ(net.local_cost(1000), 1e-7);
}

TEST(Network, PresetsOrdered) {
  // The RDMA fabric must dominate Ethernet in both latency and bandwidth,
  // since fig13/fig15 rely on the contrast.
  EXPECT_LT(NetworkModel::rdma().latency, NetworkModel::ethernet().latency);
  EXPECT_GT(NetworkModel::rdma().bandwidth, NetworkModel::ethernet().bandwidth);
}

TEST(Runtime, SingleRankRuns) {
  Runtime rt(1, NetworkModel::zero());
  int visits = 0;
  rt.run([&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(Runtime, SendRecvDeliversPayload) {
  Runtime rt(2, NetworkModel::zero());
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, bytes_of("payload"));
    } else {
      auto env = comm.recv(0, 7);
      EXPECT_EQ(env.source, 0);
      EXPECT_EQ(env.tag, 7);
      EXPECT_EQ(str_of(env.payload), "payload");
    }
  });
}

TEST(Runtime, TagsMatchSelectively) {
  Runtime rt(2, NetworkModel::zero());
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, bytes_of("one"));
      comm.send(1, 2, bytes_of("two"));
    } else {
      // Receive out of order by tag.
      EXPECT_EQ(str_of(comm.recv(0, 2).payload), "two");
      EXPECT_EQ(str_of(comm.recv(0, 1).payload), "one");
    }
  });
}

TEST(Runtime, FifoPerSourceAndTag) {
  Runtime rt(2, NetworkModel::zero());
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        comm.send(1, 5, &i, sizeof(i));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        auto env = comm.recv(0, 5);
        int got;
        std::memcpy(&got, env.payload.data(), sizeof(got));
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(Runtime, AnySourceReceivesFromAll) {
  const int p = 4;
  Runtime rt(p, NetworkModel::zero());
  rt.run([p](Comm& comm) {
    if (comm.rank() == 0) {
      std::set<int> sources;
      for (int i = 0; i < p - 1; ++i) {
        sources.insert(comm.recv(kAnySource, 3).source);
      }
      EXPECT_EQ(sources.size(), static_cast<std::size_t>(p - 1));
    } else {
      comm.send(0, 3, bytes_of("hi"));
    }
  });
}

TEST(Runtime, IsendIrecvWait) {
  // The paper's MPI backend shuffles with Isend/Irecv/Wait.
  Runtime rt(2, NetworkModel::zero());
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = comm.isend(1, 9, bytes_of("async"));
      EXPECT_TRUE(req.test());
      (void)req.wait();
    } else {
      auto req = comm.irecv(0, 9);
      auto env = req.wait();
      EXPECT_EQ(str_of(env.payload), "async");
    }
  });
}

TEST(Runtime, SelfSendIsLocal) {
  Runtime rt(1, NetworkModel::rdma());
  auto stats = rt.run([](Comm& comm) {
    comm.send(0, 1, bytes_of("self"));
    EXPECT_EQ(str_of(comm.recv(0, 1).payload), "self");
  });
  EXPECT_EQ(stats.remote_messages, 0u);
  EXPECT_EQ(stats.remote_bytes, 0u);
}

TEST(Runtime, StatsCountRemoteTraffic) {
  Runtime rt(2, NetworkModel::rdma());
  auto stats = rt.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 1, bytes_of("12345"));
    else (void)comm.recv(0, 1);
  });
  EXPECT_EQ(stats.remote_messages, 1u);
  EXPECT_EQ(stats.remote_bytes, 5u);
}

TEST(Runtime, BarrierSynchronizesClocks) {
  Runtime rt(4, NetworkModel::rdma());
  rt.run([](Comm& comm) {
    if (comm.rank() == 2) comm.charge_modeled(1.0);  // one slow rank
    comm.barrier();
    // Every rank's clock must now be at least the slow rank's time.
    EXPECT_GE(comm.vtime(), 1.0);
  });
}

TEST(Runtime, MessageArrivalAdvancesReceiverClock) {
  Runtime rt(2, NetworkModel{1.0, 1e9, 1e9});  // 1-second latency
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, bytes_of("x"));
    } else {
      (void)comm.recv(0, 1);
      EXPECT_GE(comm.vtime(), 1.0);
    }
  });
}

TEST(Runtime, ChargeModeledAccumulates) {
  Runtime rt(1, NetworkModel::zero());
  auto stats = rt.run([](Comm& comm) {
    comm.charge_modeled(0.5);
    comm.charge_modeled(0.25);
    EXPECT_GE(comm.vtime(), 0.75);
  });
  EXPECT_GE(stats.makespan, 0.75);
}

TEST(Runtime, BcastFromEveryRoot) {
  const int p = 5;
  Runtime rt(p, NetworkModel::zero());
  rt.run([p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<unsigned char> data;
      if (comm.rank() == root) data = bytes_of("root" + std::to_string(root));
      data = comm.bcast(root, std::move(data));
      EXPECT_EQ(str_of(data), "root" + std::to_string(root));
    }
  });
}

TEST(Runtime, GatherCollectsInRankOrder) {
  const int p = 4;
  Runtime rt(p, NetworkModel::zero());
  rt.run([p](Comm& comm) {
    auto parts = comm.gather(0, bytes_of(std::to_string(comm.rank())));
    if (comm.rank() == 0) {
      ASSERT_EQ(parts.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) EXPECT_EQ(str_of(parts[r]), std::to_string(r));
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
}

TEST(Runtime, AllgatherGivesEveryoneEverything) {
  const int p = 3;
  Runtime rt(p, NetworkModel::zero());
  rt.run([p](Comm& comm) {
    auto parts = comm.allgather(bytes_of("r" + std::to_string(comm.rank())));
    ASSERT_EQ(parts.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) EXPECT_EQ(str_of(parts[r]), "r" + std::to_string(r));
  });
}

TEST(Runtime, AlltoallvRoutesPersonalizedBuffers) {
  const int p = 4;
  Runtime rt(p, NetworkModel::zero());
  rt.run([p](Comm& comm) {
    std::vector<std::vector<unsigned char>> send;
    for (int dest = 0; dest < p; ++dest) {
      send.push_back(bytes_of(std::to_string(comm.rank()) + "->" + std::to_string(dest)));
    }
    auto recv = comm.alltoallv(std::move(send));
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(str_of(recv[src]),
                std::to_string(src) + "->" + std::to_string(comm.rank()));
    }
  });
}

TEST(Runtime, AlltoallvTransfersOwnershipWithoutCopying) {
  // Ranks share one address space, so a moved payload must arrive with the
  // very same heap buffer: record each send buffer's data pointer before the
  // collective and compare it against the received buffer's pointer.
  const int p = 4;
  Runtime rt(p, NetworkModel::zero());
  std::vector<const unsigned char*> sent_ptr(static_cast<std::size_t>(p * p), nullptr);
  rt.run([p, &sent_ptr](Comm& comm) {
    std::vector<std::vector<unsigned char>> send;
    for (int dest = 0; dest < p; ++dest) {
      send.push_back(bytes_of(std::to_string(comm.rank()) + "->" + std::to_string(dest)));
      sent_ptr[static_cast<std::size_t>(comm.rank() * p + dest)] = send.back().data();
    }
    comm.barrier();  // every pointer is published before any buffer moves
    auto recv = comm.alltoallv(std::move(send));
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(recv[static_cast<std::size_t>(src)].data(),
                sent_ptr[static_cast<std::size_t>(src * p + comm.rank())])
          << src << "->" << comm.rank() << " was copied";
    }
  });
}

TEST(Runtime, MoveSendDeliversAndCounts) {
  Runtime rt(2, NetworkModel::rdma());
  auto stats = rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      auto payload = bytes_of("moved-payload");
      comm.send(1, 9, std::move(payload));
    } else {
      EXPECT_EQ(str_of(comm.recv(0, 9).payload), "moved-payload");
    }
  });
  EXPECT_EQ(stats.remote_messages, 1u);
  EXPECT_EQ(stats.remote_bytes, std::string("moved-payload").size());
}

TEST(Runtime, AllreduceSumAndMax) {
  const int p = 6;
  Runtime rt(p, NetworkModel::zero());
  rt.run([p](Comm& comm) {
    EXPECT_EQ(comm.allreduce_sum<std::int64_t>(comm.rank() + 1), p * (p + 1) / 2);
    EXPECT_EQ(comm.allreduce_max<int>(comm.rank()), p - 1);
  });
}

TEST(Runtime, AllreduceVectorElementwise) {
  const int p = 3;
  Runtime rt(p, NetworkModel::zero());
  rt.run([](Comm& comm) {
    std::vector<int> local{comm.rank(), 10 * comm.rank()};
    auto out = comm.allreduce(local, [](int a, int b) { return a + b; });
    EXPECT_EQ(out[0], 0 + 1 + 2);
    EXPECT_EQ(out[1], 0 + 10 + 20);
  });
}

TEST(Runtime, AllreduceIsIdenticalOnEveryRank) {
  // Floating-point addition is not associative: folding from each rank's
  // own value would give rank 2 (1e16 + 1e16 - 1e16 + 1) = 1.0 while ranks 0
  // and 1 get 0.0. The reduction runs once, in rank order, at the root.
  const int p = 3;
  const double values[p] = {1e16, 1.0, -1e16};
  std::vector<double> got(p, -1.0);
  Runtime rt(p, NetworkModel::zero());
  rt.run([&](Comm& comm) {
    got[static_cast<std::size_t>(comm.rank())] = comm.allreduce_sum<double>(values[comm.rank()]);
  });
  EXPECT_EQ(got, std::vector<double>(p, (1e16 + 1.0) + -1e16));
}

TEST(Runtime, AllreduceLengthMismatchThrows) {
  Runtime rt(3, NetworkModel::zero());
  EXPECT_THROW(rt.run([](Comm& comm) {
    std::vector<int> local(comm.rank() == 2 ? 2 : 1, 1);
    comm.allreduce(local, [](int a, int b) { return a + b; });
  }), std::exception);
}

TEST(Runtime, ExceptionsPropagateToHost) {
  Runtime rt(2, NetworkModel::zero());
  EXPECT_THROW(rt.run([](Comm& comm) {
    if (comm.rank() == 1) throw DataError("rank failure");
    // Rank 0 must not deadlock on a collective here; it simply returns.
  }),
               DataError);
}

TEST(Runtime, ReusableAcrossRuns) {
  Runtime rt(3, NetworkModel::zero());
  for (int iter = 0; iter < 3; ++iter) {
    auto stats = rt.run([](Comm& comm) { comm.barrier(); });
    EXPECT_EQ(stats.rank_time.size(), 3u);
  }
}

TEST(Runtime, MakespanIsMaxRankTime) {
  Runtime rt(4, NetworkModel::zero());
  auto stats = rt.run([](Comm& comm) {
    comm.charge_modeled(0.1 * (comm.rank() + 1));
  });
  EXPECT_NEAR(stats.makespan,
              *std::max_element(stats.rank_time.begin(), stats.rank_time.end()), 1e-12);
  EXPECT_GE(stats.makespan, 0.4);
}

TEST(Runtime, ProbeSeesQueuedMessage) {
  Runtime rt(2, NetworkModel::zero());
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 4, bytes_of("x"));
      comm.barrier();
    } else {
      comm.barrier();
      EXPECT_TRUE(comm.probe(0, 4));
      EXPECT_FALSE(comm.probe(0, 5));
      (void)comm.recv(0, 4);
      EXPECT_FALSE(comm.probe(0, 4));
    }
  });
}

TEST(Runtime, ScalabilityShape) {
  // A fixed amount of divisible work should take less virtual time on more
  // ranks: the property every strong-scaling figure relies on.
  auto run_with = [](int p) {
    Runtime rt(p, NetworkModel::rdma());
    const double total_work = 1.0;
    auto stats = rt.run([&](Comm& comm) {
      comm.charge_modeled(total_work / comm.size());
      comm.barrier();
    });
    return stats.makespan;
  };
  const double t1 = run_with(1);
  const double t4 = run_with(4);
  const double t16 = run_with(16);
  EXPECT_GT(t1, t4);
  EXPECT_GT(t4, t16);
  EXPECT_NEAR(t1 / t16, 16.0, 2.0);
}

// -- Sparse all-to-all --------------------------------------------------------

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

enum class Pattern { kEmpty, kSelfOnly, kHot, kDense, kRandom };

/// Whether rank `src` sends rank `dst` anything under `pattern`.
bool has_leg(Pattern pattern, std::uint64_t seed, int p, int src, int dst) {
  const auto pair = static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(p) +
                    static_cast<std::uint64_t>(dst);
  switch (pattern) {
    case Pattern::kEmpty: return false;
    case Pattern::kSelfOnly: return src == dst;
    case Pattern::kHot: return dst == static_cast<int>(seed % static_cast<std::uint64_t>(p));
    case Pattern::kDense: return true;
    case Pattern::kRandom: return mix(seed ^ (pair << 8)) % 8 == 0;
  }
  return false;
}

/// The buffer `src` sends `dst` (empty when there is no leg); lengths vary.
std::vector<unsigned char> leg(Pattern pattern, std::uint64_t seed, int p, int src, int dst) {
  if (!has_leg(pattern, seed, p, src, dst)) return {};
  std::string s = std::to_string(src) + "->" + std::to_string(dst);
  s.append(mix(seed + static_cast<std::uint64_t>(src * p + dst)) % 16, 'x');
  return bytes_of(s);
}

int ceil_log2(int p) {
  int rounds = 0;
  while ((1 << rounds) < p) ++rounds;
  return rounds;
}

/// One alltoallv of `pattern` on `rt`: every received buffer must equal the
/// buffer its source built (the dense reference), and the fabric must carry
/// one message per non-empty off-diagonal leg plus the has-data rounds,
/// whose flag bytes are counted apart from the payload.
void check_sparse_alltoallv(Runtime& rt, Pattern pattern, std::uint64_t seed) {
  const int p = rt.size();
  obs::Recorder rec;
  rt.set_recorder(&rec);
  std::atomic<int> mismatches{0};
  const auto stats = rt.run([&](Comm& comm) {
    std::vector<std::vector<unsigned char>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)] = leg(pattern, seed, p, comm.rank(), d);
    }
    const auto recv = comm.alltoallv(std::move(send));
    if (recv.size() != static_cast<std::size_t>(p)) {
      ++mismatches;
      return;
    }
    for (int src = 0; src < p; ++src) {
      if (recv[static_cast<std::size_t>(src)] != leg(pattern, seed, p, src, comm.rank())) {
        ++mismatches;
      }
    }
  });
  const auto label = "p=" + std::to_string(p) + " pattern=" +
                     std::to_string(static_cast<int>(pattern)) +
                     " seed=" + std::to_string(seed);
  rt.set_recorder(nullptr);
  EXPECT_EQ(mismatches.load(), 0) << label;
  std::uint64_t legs = 0;
  std::uint64_t payload_bytes = 0;
  for (int src = 0; src < p; ++src) {
    for (int dst = 0; dst < p; ++dst) {
      if (src == dst || !has_leg(pattern, seed, p, src, dst)) continue;
      ++legs;
      payload_bytes += leg(pattern, seed, p, src, dst).size();
    }
  }
  // Round d carries one bit per slot index in [0, p) with bit d set.
  std::uint64_t flag_bytes = 0;
  for (int d = 1; d < p; d <<= 1) {
    std::uint64_t bits = 0;
    for (int i = 0; i < p; ++i) bits += (i & d) != 0 ? 1 : 0;
    flag_bytes += static_cast<std::uint64_t>(p) * ((bits + 7) / 8);
  }
  const std::uint64_t rounds = static_cast<std::uint64_t>(p) *
                               static_cast<std::uint64_t>(ceil_log2(p));
  EXPECT_EQ(stats.remote_messages, legs + rounds) << label;
  EXPECT_EQ(rec.counter("mpsim.bytes.alltoall"), payload_bytes) << label;
  EXPECT_EQ(rec.counter("mpsim.bytes.counts"), flag_bytes) << label;
  EXPECT_EQ(stats.remote_bytes, payload_bytes + flag_bytes) << label;
}

TEST(Runtime, SparseAlltoallvMatchesDenseReference) {
  const Pattern patterns[] = {Pattern::kEmpty, Pattern::kSelfOnly, Pattern::kHot,
                              Pattern::kDense, Pattern::kRandom};
  for (const int p : {1, 2, 3, 5, 7, 16, 64}) {
    Runtime rt(p, NetworkModel::rdma());
    for (const Pattern pattern : patterns) {
      for (const std::uint64_t seed : {11u, 12u}) {
        check_sparse_alltoallv(rt, pattern, seed + static_cast<std::uint64_t>(p));
      }
    }
  }
  // The dense pattern stops at 64 ranks: at 1000 it queues a million
  // messages (about 0.4 GB resident), which the TSan build multiplies.
  SchedulerOptions fibers;
  fibers.workers = 4;
  Runtime rt(1000, NetworkModel::rdma(), fibers);
  for (const Pattern pattern : patterns) {
    if (pattern != Pattern::kDense) check_sparse_alltoallv(rt, pattern, 1003);
  }
}

TEST(Backpressure, SparseBudgetedShuffleIsByteIdentical) {
  // Under a tight mailbox cap both shuffle paths stream: alltoallv drains
  // between credit-blocked sends, and the MapReduce shuffle cuts segments.
  // Each rank sends to at most two peers and rank 3 sends nothing, so most
  // legs are skipped; the results must match the ungoverned run.
  const int p = 8;
  auto job = [](Comm& comm, std::vector<std::string>* out, std::mutex* mu) {
    const int r = comm.rank();
    const int size = comm.size();
    std::vector<std::vector<unsigned char>> send(static_cast<std::size_t>(size));
    if (r != 3) {
      send[static_cast<std::size_t>((r * 3) % size)] = std::vector<unsigned char>(
          300 + static_cast<std::size_t>(r), static_cast<unsigned char>('a' + r));
    }
    auto got = comm.alltoallv(std::move(send));
    std::string flat;
    for (const auto& part : got) flat += str_of(part) + "|";

    mr::MapReduce mapred(comm);
    if (r != 3) {
      for (int i = 0; i < 60; ++i) {
        mapred.mutable_local().add("k" + std::to_string(r) + "." + std::to_string(i),
                                   std::string(1 + static_cast<std::size_t>(i % 40), 'v'));
      }
    }
    mapred.aggregate([r, size](std::string_view key, std::string_view) {
      return key.size() % 2 == 0 ? (r + 1) % size : (r * 5 + 2) % size;
    });
    flat += str_of(mapred.local().bytes());
    std::lock_guard<std::mutex> lock(*mu);
    (*out)[static_cast<std::size_t>(r)] = flat;
  };

  std::mutex mu;
  std::vector<std::string> plain(p);
  {
    Runtime rt(p, NetworkModel::zero());
    rt.run([&](Comm& comm) { job(comm, &plain, &mu); });
  }
  MemoryBudget budget({.hard_limit = 1 << 20, .soft_limit = 2048, .mailbox_limit = 256, .spill_dir = {}});
  std::vector<std::string> governed(p);
  {
    Runtime rt(p, NetworkModel::zero());
    rt.set_memory_budget(&budget);
    rt.run([&](Comm& comm) { job(comm, &governed, &mu); });
  }
  EXPECT_EQ(governed, plain);
  EXPECT_GT(budget.backpressure_stalls(), 0u);
  for (int r = 0; r < p; ++r) EXPECT_EQ(budget.mailbox_used(r), 0u) << r;
}

}  // namespace
}  // namespace papar::mp
