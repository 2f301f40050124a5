// Rank scheduling for mpsim: N rank fibers multiplexed over a fixed worker
// pool.
//
// Each rank is a resumable ucontext execution context (a quarter MB of
// stack, of which only touched pages become resident) that yields back to
// the scheduler at every blocking communication event — recv, deadline
// waits, barriers, collective waits, and credit-starved sends — so 1024
// virtual ranks run on a handful of workers without oversubscribing the
// host or distorting the virtual clock (see DESIGN.md §13).
//
// Thread-affinity invariant: a rank may resume on a different worker thread
// after every yield, and several ranks share one worker's thread-CPU clock.
// No per-rank state may therefore live in thread_local storage, thread ids,
// or raw CLOCK_THREAD_CPUTIME_ID marks; the runtime re-bases each rank's CPU
// mark at every slice boundary (Comm::last_cpu_) and keys all observability
// on rank ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

namespace papar::mp {

enum class SchedulerMode {
  /// N rank fibers multiplexed over `workers` OS threads (the only
  /// executor; the enumerator stays so callers can name it).
  kFibers,
};

/// Parses the --scheduler value: only "fibers" is accepted; anything else,
/// "threads" included, throws ConfigError.
SchedulerMode parse_scheduler_mode(std::string_view name);

struct SchedulerOptions {
  SchedulerMode mode = SchedulerMode::kFibers;
  /// Worker threads; 0 picks min(hardware threads, ranks).
  int workers = 0;
  /// Nonzero seeds a deterministic shuffle of the fiber run queue: ready
  /// ranks resume in seeded-random order instead of FIFO, which is how the
  /// scheduler stress tests explore yield interleavings. 0 = FIFO.
  std::uint64_t seed = 0;
};

namespace detail {

/// Multiplexes rank fibers over a worker pool. One-shot: construct, run(),
/// destroy (Runtime::run builds a fresh scheduler per recovery attempt).
///
/// Wake/park protocol: a rank that must block registers itself with
/// whatever will wake it (mailbox waiter slots, barrier waiter list) while
/// holding that structure's mutex, drops the mutex, and calls park().
/// wake() may land at any point after registration — even before the
/// parking fiber has saved its context — because the worker, not the
/// fiber, commits the park: after swapcontext returns on the worker stack
/// it re-enqueues the fiber instead of parking it when a wake arrived
/// early (wake_pending). Wakes are sticky, so the cost of a late or
/// duplicate wake is one spurious resume into a predicate re-check loop,
/// never a lost wakeup.
class FiberScheduler {
 public:
  FiberScheduler(int nranks, const SchedulerOptions& options);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Runs body(rank) for every rank as a fiber over the worker pool and
  /// blocks until all fibers have returned. `on_resume(rank)` fires on the
  /// resuming worker immediately before each slice of `rank` begins
  /// (including the first) — the runtime uses it to re-base the rank's
  /// thread-CPU mark. `on_idle` fires on a worker that has seen no runnable
  /// fiber for an idle-poll interval — the runtime points it at the deadlock
  /// scan, which is what fires virtual-deadline timeouts and emergency
  /// credits when every fiber is parked.
  void run(const std::function<void(int)>& body,
           const std::function<void(int)>& on_resume,
           const std::function<void()>& on_idle);

  /// Called from inside a rank fiber: yields the worker back to the
  /// scheduler until wake(rank). Callers must hold no locks and must
  /// re-check their predicate on return (spurious resumes are expected).
  void park(int rank);

  /// Makes `rank` runnable again; callable from any thread, including
  /// other fibers. A wake that lands while the rank is running (or already
  /// queued) is remembered and turns its next park into an immediate
  /// return.
  void wake(int rank);

  /// Wakes every currently-parked fiber (termination / abort broadcast).
  void wake_all();

  /// Ranks currently queued to resume. Wait-free (a relaxed counter kept
  /// beside the queue), so the telemetry sampler can read it from any
  /// rank's hot path without touching the scheduler lock.
  std::size_t runq_depth() const;

  int workers() const { return workers_; }

 private:
  struct Fiber;
  struct Impl;

  void worker_main(int worker_index);

  int nranks_;
  int workers_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace detail

}  // namespace papar::mp
