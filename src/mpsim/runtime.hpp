// Runtime: spawns N simulated ranks and reports run statistics.
//
// Substitution for the paper's 16-node cluster (see DESIGN.md §2): each rank
// has its own mailbox and virtual clock, and executes as one of N fibers
// multiplexed over a fixed worker pool (sched.hpp; scales to 1024 ranks —
// see DESIGN.md §13). `run` blocks until every rank's function returns, then
// reports per-rank virtual times, the makespan, and fabric traffic totals.
// Exceptions thrown inside a rank are re-thrown from run() after every rank
// has finished.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mpsim/comm.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/network.hpp"
#include "mpsim/sched.hpp"
#include "obs/obs.hpp"

namespace papar {
class MemoryBudget;
}

namespace papar::obs {
class TraceRecorder;
class MetricsRegistry;
class TelemetrySampler;
}  // namespace papar::obs

namespace papar::mp {

struct RunStats {
  /// Final virtual clock of each rank, in seconds.
  std::vector<double> rank_time;
  /// max(rank_time): the simulated parallel completion time.
  double makespan = 0.0;
  /// Total messages and payload bytes that crossed the fabric
  /// (rank-local transfers excluded). Includes fault-injection retries.
  std::uint64_t remote_messages = 0;
  std::uint64_t remote_bytes = 0;
  /// Full-stage crash-recovery attempts this run needed (0 = fault-free,
  /// no crash, or every crash repaired by localized recovery).
  int recoveries = 0;
  /// Localized recovery (RecoveryMode::kLocal): single-rank replays taken
  /// and retained segments / bytes re-fetched by reviving ranks.
  std::uint64_t rank_replays = 0;
  std::uint64_t refetched_segments = 0;
  std::uint64_t refetched_bytes = 0;
};

class Runtime {
 public:
  /// A runtime for `nranks` simulated ranks over the given fabric, executed
  /// as fibers over the given scheduler's worker pool.
  explicit Runtime(int nranks, NetworkModel network = NetworkModel::rdma(),
                   SchedulerOptions sched = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int size() const { return nranks_; }
  const NetworkModel& network() const;
  const SchedulerOptions& scheduler() const { return sched_; }

  /// Attaches an observability recorder: collectives bump per-kind traffic
  /// counters, each run() records one whole-rank span per rank, and code
  /// running on the ranks can add its own spans via Comm::record_span.
  /// Pass nullptr to detach. The recorder must outlive the runtime (or be
  /// detached first).
  void set_recorder(obs::Recorder* recorder);
  obs::Recorder* recorder() const;

  /// Attaches a fault injector (nullptr to detach). The injector is bound
  /// to this runtime's rank count and must outlive the runtime or be
  /// detached first. With an injector attached, run() becomes a recovery
  /// loop: when a scheduled crash kills a rank, the surviving ranks unwind
  /// (PeerFailureError), the mailboxes and barrier state are reset, and the
  /// body is re-executed — up to FaultPlan::max_recoveries times — with
  /// Comm::attempt() telling the body which execution it is on.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const;

  /// Configures crash recovery (see RecoveryOptions). The default is
  /// RecoveryMode::kStage — the whole-body recovery loop described at
  /// set_fault_injector. RecoveryMode::kLocal arms localized recovery:
  /// consumed shuffle segments are retained per rank until the consumer
  /// calls Comm::retention_epoch (the engine does so at stage boundaries),
  /// and a crashed rank revives in place and replays alone against that
  /// retention instead of unwinding every rank (DESIGN.md §16).
  void set_recovery(RecoveryOptions options);
  const RecoveryOptions& recovery() const;

  /// Attaches a causal trace recorder (nullptr to detach): every
  /// send/recv/barrier records a TraceEvent on its rank and messages carry
  /// a propagated trace context (unique id + sender stage), forming the
  /// happens-before graph obs/critpath.hpp analyses. The recorder is bound
  /// to this runtime's rank count and must outlive the runtime or be
  /// detached first. The fault-free hot path is gated on this one pointer.
  void set_tracer(obs::TraceRecorder* tracer);
  obs::TraceRecorder* tracer() const;

  /// Attaches a memory budget (nullptr to detach). The budget is bound to
  /// this runtime's rank count and must outlive the runtime or be detached
  /// first. With a budget attached: mailbox bytes are accounted per rank,
  /// and when the budget's `mailbox_limit` is nonzero, remote sends obey
  /// credit-based flow control (see Comm::send). The deadlock scan
  /// reports per-rank credit state in its dump and converts all-blocked
  /// sender cycles into counted emergency credits instead of DeadlockError.
  void set_memory_budget(MemoryBudget* budget);
  MemoryBudget* memory_budget() const;

  /// Attaches a metrics registry (nullptr to detach): the runtime feeds
  /// virtual-time histograms (message latency, payload size, mailbox queue
  /// depth) and fault counters (retransmits). Handles are resolved once
  /// here, so per-message observation is lock-free.
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const;

  /// Attaches a telemetry sampler (nullptr to detach): ranks snapshot
  /// their own state (stage, blocked kind, mailbox depth, budget, sort
  /// progress) into the sampler's per-rank rings at comm events, and the
  /// scheduler's idle poll sweeps parked ranks, so the rings
  /// stay fresh even when everything is blocked. The sampler is bound to
  /// this runtime's rank count and must outlive the runtime or be detached
  /// first. The disabled hot path is one pointer check.
  void set_sampler(obs::TelemetrySampler* sampler);
  obs::TelemetrySampler* sampler() const;

  /// Runs `fn(comm)` on every rank concurrently and returns the stats.
  /// May be called repeatedly; each call is an independent "job step"
  /// with fresh clocks.
  RunStats run(const std::function<void(Comm&)>& fn);

 private:
  int nranks_;
  SchedulerOptions sched_;
  std::unique_ptr<detail::Shared> shared_;
};

}  // namespace papar::mp
