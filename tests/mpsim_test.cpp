// Tests for the simulated message-passing runtime: point-to-point
// semantics, collectives, virtual-clock propagation, and the network model.
#include <gtest/gtest.h>

#include <numeric>

#include "mpsim/runtime.hpp"

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

}  // namespace
}  // namespace papar::mp
