#include "mpsim/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "mpsim/sched.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "util/crc32c.hpp"
#include "util/membudget.hpp"
#include "util/timer.hpp"

namespace papar::mp {

namespace detail {

namespace {
// Internal tags; user tags must be >= 0.
constexpr int kBcastTag = -2;
constexpr int kGatherTag = -3;
constexpr int kAlltoallTag = -4;
constexpr int kHasDataTag = -5;

struct Message {
  int source;
  int tag;
  double arrival;  // virtual time at which the payload is available
  // Propagated trace context (zero/default when tracing is off).
  std::uint64_t trace_id = 0;     // links the send event to the recv event
  std::uint32_t sender_stage = 0;  // pipeline stage the sender was in
  double sent = 0.0;               // sender clock when the send started
  // End-to-end integrity (stamped only with a fault injector attached, so
  // the fault-free hot path never computes a checksum): CRC32C of the
  // pristine payload, plus which bit the `corrupt=p` fault flipped.
  std::uint32_t crc = 0;
  bool corrupted = false;
  std::uint64_t corrupt_bit = 0;
  std::vector<unsigned char> payload;
};

/// One consumed payload retained for a possible single-rank replay
/// (RecoveryMode::kLocal). In-memory by default; under retention-cap
/// pressure the bytes move to the mailbox's RetentionSpool and only the
/// {offset, len, crc} triple stays resident.
struct RetainedSegment {
  std::vector<unsigned char> data;
  std::size_t off = 0;
  std::size_t len = 0;
  std::uint32_t crc = 0;
  bool spilled = false;
};

/// Append-only scratch file backing spilled retention segments; one per
/// mailbox, created lazily, removed on destruction. Every spilled segment
/// carries a CRC32C verified on read-back.
struct RetentionSpool {
  std::FILE* f = nullptr;
  std::string path;
  std::size_t size = 0;

  explicit RetentionSpool(std::string p) : path(std::move(p)) {}
  ~RetentionSpool() {
    if (f != nullptr) {
      std::fclose(f);
      std::remove(path.c_str());
    }
  }
  RetentionSpool(const RetentionSpool&) = delete;
  RetentionSpool& operator=(const RetentionSpool&) = delete;

  bool append(const unsigned char* data, std::size_t n, std::size_t& off) {
    if (f == nullptr) f = std::fopen(path.c_str(), "w+b");
    if (f == nullptr) return false;
    if (std::fseek(f, static_cast<long>(size), SEEK_SET) != 0) return false;
    if (std::fwrite(data, 1, n, f) != n) return false;
    off = size;
    size += n;
    return true;
  }

  bool read_at(std::size_t off, unsigned char* out, std::size_t n) {
    if (f == nullptr) return false;
    if (std::fseek(f, static_cast<long>(off), SEEK_SET) != 0) return false;
    return std::fread(out, 1, n, f) == n;
  }

  void reset() {
    size = 0;
    if (f != nullptr) {
      std::fclose(f);
      f = std::fopen(path.c_str(), "w+b");
    }
  }
};

struct Mailbox {
  std::mutex mutex;
  std::deque<Message> queue;
  /// Sum of queued payload sizes; the quantity credit-based flow control
  /// caps at Shared::mailbox_cap. Guarded by `mutex`.
  std::size_t queued_bytes = 0;
  /// Emergency credits granted by the deadlock scan: each one admits a
  /// single over-cap enqueue so a cycle of blocked senders always makes
  /// progress instead of deadlocking. Guarded by `mutex`.
  std::size_t credit_grants = 0;
  /// Waiter registration, guarded by `mutex`. Registration happens in the
  /// same critical section as the failed predicate check, so an enqueue
  /// (or credit return) either precedes the check or sees the waiter — a
  /// parked fiber can never miss its wakeup. Wakes are sticky and spurious
  /// resumes are re-checked, so stale entries are harmless.
  bool recv_waiting = false;      // the owning rank is parked in recv
  std::vector<int> send_waiters;  // ranks parked awaiting credits here

  // -- Localized-recovery retention (RecoveryMode::kLocal), guarded by
  // `mutex`. The retention log records every payload this mailbox's owner
  // CONSUMED since its last retention epoch, keyed by (source, tag). It is
  // semantically the senders' retention buffers — per-link FIFO makes the
  // consumed prefix identical to each sender's sent-and-acknowledged
  // prefix — indexed at the receiver because in a shared-address-space
  // simulation that is where a reviving rank re-fetches from. Unconsumed
  // messages live only in `queue`; nothing is held twice.
  std::map<std::pair<int, int>, std::deque<RetainedSegment>> retained;
  /// FIFO of (key, index) in retention order: the spill policy evicts the
  /// oldest in-memory segment first.
  std::deque<std::pair<std::pair<int, int>, std::size_t>> retain_order;
  /// In-memory retained payload bytes (spilled segments excluded) — the
  /// quantity the retention cap bounds.
  std::size_t retained_mem_bytes = 0;
  /// Set when the cap forced the whole window to be dropped (no spool
  /// available): the owner's next crash is ineligible for single-rank
  /// replay and degrades to a full-stage replay (ladder rung 3).
  bool retention_evicted = false;
  std::unique_ptr<RetentionSpool> spool;
};

// Per-rank execution state, maintained for the failure detector and the
// deadlock scan. Written only by the owning rank; read from any worker
// (the idle poll scans every rank), which is why every field is atomic (a
// reader never takes a lock a rank might hold).
enum RankState : int {
  kRunning = 0,
  kBlockedRecv,
  kBlockedBarrier,
  kBlockedSend,  // waiting for mailbox credits (backpressure, not deadlock)
  kDone,         // body returned normally
  kFailed,       // body threw (including scheduled crashes)
};

bool terminated_state(int s) { return s == kDone || s == kFailed; }

const char* rank_state_name(int s) {
  switch (s) {
    case kRunning: return "running";
    case kBlockedRecv: return "blocked in recv";
    case kBlockedBarrier: return "blocked in barrier";
    case kBlockedSend: return "blocked in send (awaiting mailbox credits)";
    case kDone: return "done";
    case kFailed: return "failed";
  }
  return "?";
}

struct RankStatus {
  std::atomic<int> state{kRunning};
  /// While kBlockedRecv: awaited source. While kBlockedSend: destination.
  std::atomic<int> blocked_source{0};
  std::atomic<int> blocked_tag{0};
  /// Payload size a kBlockedSend rank is waiting to enqueue.
  std::atomic<std::size_t> blocked_bytes{0};
  /// Barrier generation the rank is waiting on while kBlockedBarrier.
  /// Lets the deadlock scan tell a genuinely stuck waiter from one whose
  /// barrier already resolved but whose fiber has not resumed yet.
  std::atomic<std::uint64_t> blocked_generation{0};
  /// Virtual clock at which the rank terminated (feeds the heartbeat
  /// failure-detection latency model).
  std::atomic<double> death_vtime{0.0};
  /// While kBlockedRecv with a deadline-aware recv/wait_for: the virtual
  /// deadline (recv-begin clock + timeout). Negative = no deadline.
  /// Deadlines are virtual, not wall-clock, so multiplexing many ranks
  /// over few workers cannot fire false timeouts (see DESIGN.md §13).
  std::atomic<double> blocked_deadline{-1.0};
  /// Set by the deadlock scan when the system went quiescent with this
  /// rank's deadline unmet; the rank observes it and throws TimeoutError.
  std::atomic<bool> timeout_fired{false};
};
}  // namespace

struct Shared {
  explicit Shared(int nranks, NetworkModel net)
      : size(nranks),
        network(net),
        mailboxes(static_cast<std::size_t>(nranks)),
        status(std::make_unique<RankStatus[]>(static_cast<std::size_t>(nranks))) {}

  const int size;
  const NetworkModel network;
  std::vector<Mailbox> mailboxes;

  // Generation-counting barrier that also resolves the post-barrier clock.
  std::mutex barrier_mutex;
  int barrier_count = 0;
  std::uint64_t barrier_generation = 0;
  double barrier_pending_max = 0.0;
  double barrier_resolved_time = 0.0;
  /// Barrier waiters (guarded by barrier_mutex; same registration
  /// discipline as Mailbox's waiter slots).
  std::vector<int> barrier_waiters;

  /// The fiber scheduler hosting this attempt's ranks. Set by Runtime::run
  /// around each attempt; only rank bodies and the idle poll touch it, and
  /// both run inside the attempt.
  FiberScheduler* fibers = nullptr;

  std::atomic<std::uint64_t> remote_messages{0};
  std::atomic<std::uint64_t> remote_bytes{0};

  /// Attached observability sink (nullptr = tracing off). Recorder is
  /// thread-safe, so ranks write to it directly.
  obs::Recorder* recorder = nullptr;

  /// Attached fault injector (nullptr = faults off; the fault-free hot
  /// path is gated on this single pointer).
  FaultInjector* faults = nullptr;

  /// Attached causal trace recorder (nullptr = tracing off). Ranks append
  /// to their own per-rank event vectors, so recording takes no lock.
  obs::TraceRecorder* tracer = nullptr;

  /// Attached memory budget (nullptr = ungoverned). When its mailbox_limit
  /// is nonzero, `mailbox_cap` mirrors it and remote sends block for
  /// credits instead of growing the destination mailbox without bound.
  MemoryBudget* budget = nullptr;
  std::size_t mailbox_cap = 0;

  /// Crash-recovery policy (see Runtime::set_recovery). With the default
  /// RecoveryMode::kStage every retention/replay hook below is inert.
  RecoveryOptions recovery;

  /// Attached telemetry sampler (nullptr = telemetry off; like the tracer,
  /// every hot-path hook is gated on this one pointer). Ranks sample
  /// themselves at comm events (rate-limited by TelemetrySampler::due) and
  /// the idle poll's sweep (`telemetry_scan`) covers parked ranks.
  obs::TelemetrySampler* sampler = nullptr;

  /// Attached metrics registry plus handles resolved at attach time so the
  /// per-message path is a pointer check and an atomic update.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Histogram* m_latency = nullptr;      // virtual message latency (s)
  obs::Histogram* m_payload = nullptr;      // payload size (bytes)
  obs::Histogram* m_queue = nullptr;        // mailbox depth after enqueue
  obs::Counter* m_retransmits = nullptr;    // fault-layer resends

  // -- Failure-detector / deadlock-scan state --------------------------------
  std::unique_ptr<RankStatus[]> status;
  /// Bumped on every delivery, successful receive, barrier resolution, and
  /// rank termination; the deadlock check requires it to hold still.
  std::atomic<std::uint64_t> progress{0};
  std::atomic<int> terminated{0};
  std::atomic<bool> abort_deadlock{false};
  std::mutex abort_mutex;
  std::string abort_reason;
  /// Serializes deadlock scans (try_lock: losers simply skip the scan).
  std::mutex detect_mutex;
  /// Recovery attempt currently executing (written between attempts).
  int attempt = 0;

  /// Counter name for the remote traffic of a message tag.
  static const char* traffic_counter(int tag) {
    switch (tag) {
      case kBcastTag: return "mpsim.bytes.bcast";
      case kGatherTag: return "mpsim.bytes.gather";
      case kAlltoallTag: return "mpsim.bytes.alltoall";
      case kHasDataTag: return "mpsim.bytes.counts";
      default: return "mpsim.bytes.p2p";
    }
  }

  std::string abort_reason_copy() {
    std::lock_guard<std::mutex> lock(abort_mutex);
    return abort_reason;
  }

  /// Clears per-attempt state (mailboxes, barrier, rank statuses) while
  /// keeping traffic counters, so recovery overhead stays visible in the
  /// run totals.
  void reset_for_attempt() {
    {
      std::lock_guard<std::mutex> lock(barrier_mutex);
      barrier_count = 0;
      barrier_pending_max = 0.0;
      barrier_resolved_time = 0.0;
      barrier_waiters.clear();
    }
    for (int r = 0; r < size; ++r) {
      auto& mb = mailboxes[static_cast<std::size_t>(r)];
      std::lock_guard<std::mutex> lock(mb.mutex);
      if (budget != nullptr) budget->sub_mailbox(r, mb.queued_bytes);
      mb.queue.clear();
      mb.queued_bytes = 0;
      mb.credit_grants = 0;
      mb.recv_waiting = false;
      mb.send_waiters.clear();
      clear_retention(mb);
    }
    for (int r = 0; r < size; ++r) {
      auto& st = status[static_cast<std::size_t>(r)];
      st.state.store(kRunning, std::memory_order_relaxed);
      st.blocked_source.store(0, std::memory_order_relaxed);
      st.blocked_tag.store(0, std::memory_order_relaxed);
      st.blocked_bytes.store(0, std::memory_order_relaxed);
      st.death_vtime.store(0.0, std::memory_order_relaxed);
      st.blocked_deadline.store(-1.0, std::memory_order_relaxed);
      st.timeout_fired.store(false, std::memory_order_relaxed);
    }
    terminated.store(0, std::memory_order_relaxed);
    abort_deadlock.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(abort_mutex);
      abort_reason.clear();
    }
  }

  void reset_for_run() {
    reset_for_attempt();
    remote_messages.store(0);
    remote_bytes.store(0);
    attempt = 0;
  }

  /// Marks a rank as terminated exactly once (idempotent: the crash path
  /// declares before throwing and the rank body's catch declares again).
  void declare_terminated(int rank, int new_state, double vtime) {
    auto& st = status[static_cast<std::size_t>(rank)];
    if (terminated_state(st.state.load(std::memory_order_relaxed))) return;
    st.death_vtime.store(vtime, std::memory_order_relaxed);
    st.state.store(new_state, std::memory_order_release);
    terminated.fetch_add(1, std::memory_order_relaxed);
    progress.fetch_add(1, std::memory_order_relaxed);
    // Wakes are sticky, so a rank between its predicate check and its park
    // still re-checks and sees the termination.
    fibers->wake_all();
  }

  /// The terminated rank `self` is waiting on, or -1 when its wait can
  /// still be satisfied. For kAnySource the wait is hopeless only once
  /// every other rank has terminated.
  int awaited_terminated(int self, int source) const {
    if (source != kAnySource) {
      const int s =
          status[static_cast<std::size_t>(source)].state.load(std::memory_order_acquire);
      return source != self && terminated_state(s) ? source : -1;
    }
    int dead = -1;
    for (int r = 0; r < size; ++r) {
      if (r == self) continue;
      const int s = status[static_cast<std::size_t>(r)].state.load(std::memory_order_acquire);
      if (!terminated_state(s)) return -1;
      dead = r;
    }
    return dead;
  }

  /// First terminated rank, or -1.
  int first_terminated() const {
    if (terminated.load(std::memory_order_relaxed) == 0) return -1;
    for (int r = 0; r < size; ++r) {
      if (terminated_state(
              status[static_cast<std::size_t>(r)].state.load(std::memory_order_acquire))) {
        return r;
      }
    }
    return -1;
  }

  /// Latency of a log2(P)-deep synchronization tree.
  double tree_latency() const {
    int depth = 0;
    for (int p = 1; p < size; p <<= 1) ++depth;
    return network.latency * depth;
  }

  void try_detect_deadlock();

  // -- Localized recovery (RecoveryMode::kLocal, DESIGN.md §16) -------------

  bool local_recovery() const { return recovery.mode == RecoveryMode::kLocal; }

  /// In-memory byte cap on one mailbox's retention window: the explicit
  /// retention_limit, else the budget's mailbox cap, else unbounded (0).
  std::size_t retention_cap() const {
    if (recovery.retention_limit > 0) return recovery.retention_limit;
    if (budget != nullptr) return budget->config().mailbox_limit;
    return 0;
  }

  /// Whether `rank`'s next crash may revive in place instead of declaring
  /// the rank dead: local mode, replay attempts left, retention intact.
  bool local_revivable(int rank, int replays_done) {
    if (!local_recovery()) return false;
    if (replays_done >= recovery.retry.max_attempts) return false;
    auto& mb = mailboxes[static_cast<std::size_t>(rank)];
    std::lock_guard<std::mutex> lock(mb.mutex);
    return !mb.retention_evicted;
  }

  /// Appends one consumed payload to `owner`'s retention log (caller holds
  /// mb.mutex). Over the cap, the oldest in-memory segments spill to the
  /// spool; with no spill dir configured the whole window is evicted and
  /// the owner's next crash degrades to a full-stage replay.
  void retain_consumed(Mailbox& mb, int owner, int src, int tag,
                       const std::vector<unsigned char>& payload) {
    const std::pair<int, int> key{src, tag};
    auto& log = mb.retained[key];
    RetainedSegment seg;
    seg.data = payload;
    mb.retain_order.emplace_back(key, log.size());
    log.push_back(std::move(seg));
    mb.retained_mem_bytes += payload.size();
    const std::size_t cap = retention_cap();
    if (cap == 0 || mb.retained_mem_bytes <= cap) return;
    if (recovery.retention_spill_dir.empty()) {
      evict_retention(mb, owner);
      return;
    }
    if (mb.spool == nullptr) {
      std::error_code ec;
      std::filesystem::create_directories(recovery.retention_spill_dir, ec);
      mb.spool = std::make_unique<RetentionSpool>(
          recovery.retention_spill_dir + "/retention-rank" +
          std::to_string(owner) + ".spool");
    }
    while (mb.retained_mem_bytes > cap && !mb.retain_order.empty()) {
      const auto [skey, idx] = mb.retain_order.front();
      mb.retain_order.pop_front();
      auto& seg2 = mb.retained[skey][idx];
      if (seg2.spilled || seg2.data.empty()) continue;
      std::size_t off = 0;
      seg2.crc = crc32c(seg2.data.data(), seg2.data.size());
      if (!mb.spool->append(seg2.data.data(), seg2.data.size(), off)) {
        // Spool write failure: fall back to eviction rather than losing a
        // segment silently.
        evict_retention(mb, owner);
        return;
      }
      seg2.off = off;
      seg2.len = seg2.data.size();
      seg2.spilled = true;
      mb.retained_mem_bytes -= seg2.len;
      seg2.data.clear();
      seg2.data.shrink_to_fit();
      if (recorder != nullptr) {
        recorder->add_counter("recovery.retention_spill_bytes", seg2.len);
      }
    }
  }

  /// Drops `owner`'s whole retention window and marks it evicted.
  void evict_retention(Mailbox& mb, int owner) {
    mb.retained.clear();
    mb.retain_order.clear();
    mb.retained_mem_bytes = 0;
    mb.retention_evicted = true;
    if (mb.spool) mb.spool->reset();
    if (faults != nullptr) faults->note_retention_eviction(owner);
    if (recorder != nullptr) recorder->add_counter("recovery.retention_evictions", 1);
  }

  /// Clears one mailbox's retention state (caller holds mb.mutex).
  static void clear_retention(Mailbox& mb) {
    mb.retained.clear();
    mb.retain_order.clear();
    mb.retained_mem_bytes = 0;
    mb.retention_evicted = false;
    if (mb.spool) mb.spool->reset();
  }

  // -- Telemetry (all no-ops when `sampler` is null) -------------------------

  /// Records one sample of `rank` from fields the caller already holds
  /// (mailbox fields are passed in, so call sites inside a mailbox
  /// critical section add no lock edges).
  void telemetry_record(int rank, double vtime, int state,
                        std::size_t mb_bytes, std::size_t mb_msgs,
                        std::size_t credits);

  /// Records one sample of `rank`, reading its own mailbox briefly.
  /// Callers must hold no mailbox or barrier lock.
  void telemetry_sample_self(int rank, double vtime, int state);

  /// Observer-side sweep over all ranks (parked ranks included), stamping
  /// each with its last known virtual clock. Runs from the idle poll with
  /// no caller locks held.
  void telemetry_scan();

  /// The idle poll's duty, run by a worker that found no runnable fiber
  /// for an interval: deadlock scan plus a telemetry sweep and stream frame.
  void idle_poll() {
    try_detect_deadlock();
    if (obs::TelemetrySampler* smp = sampler) {
      telemetry_scan();
      smp->maybe_flush_stream();
    }
  }
};

void Shared::try_detect_deadlock() {
  // One scanner at a time; a busy lock means someone else is checking.
  if (!detect_mutex.try_lock()) return;
  std::lock_guard<std::mutex> lock(detect_mutex, std::adopt_lock);
  const std::uint64_t before = progress.load(std::memory_order_acquire);
  int blocked = 0;
  int first_blocked_sender = -1;
  for (int r = 0; r < size; ++r) {
    const auto& st = status[static_cast<std::size_t>(r)];
    const int s = st.state.load(std::memory_order_acquire);
    switch (s) {
      case kRunning:
        return;  // someone can still make progress on its own
      case kDone:
      case kFailed:
        break;
      case kBlockedRecv: {
        // A rank whose fired timeout has not been consumed yet will throw
        // TimeoutError as soon as it is scheduled; that is pending
        // progress, not deadlock.
        if (st.timeout_fired.load(std::memory_order_relaxed)) return;
        const int src = st.blocked_source.load(std::memory_order_relaxed);
        // A rank waiting on a terminated peer will throw PeerFailureError
        // by itself; that is progress, not deadlock. (The termination
        // broadcast already woke it; the extra wake is a harmless
        // belt-and-braces resume.)
        if (awaited_terminated(r, src) >= 0) {
          fibers->wake(r);
          return;
        }
        ++blocked;
        break;
      }
      case kBlockedSend: {
        // Backpressure stall: the sender is waiting for mailbox credits.
        // A terminated destination makes the sender throw PeerFailureError
        // on its own — progress, not deadlock.
        const int dest = st.blocked_source.load(std::memory_order_relaxed);
        if (terminated_state(status[static_cast<std::size_t>(dest)].state.load(
                std::memory_order_acquire))) {
          fibers->wake(r);
          return;
        }
        ++blocked;
        if (first_blocked_sender < 0) first_blocked_sender = r;
        break;
      }
      case kBlockedBarrier: {
        // A barrier with a terminated rank is resolved by the waiters'
        // own peer-failure path.
        if (terminated.load(std::memory_order_relaxed) > 0) return;
        // A waiter whose generation already resolved is not stuck — its
        // fiber just has not resumed since the resolving wake; it will
        // observe the advanced generation and proceed.
        std::uint64_t current_generation;
        {
          std::lock_guard<std::mutex> barrier_lock(barrier_mutex);
          current_generation = barrier_generation;
        }
        if (st.blocked_generation.load(std::memory_order_relaxed) !=
            current_generation) {
          fibers->wake(r);
          return;
        }
        ++blocked;
        break;
      }
    }
  }
  if (blocked == 0) return;  // run is simply over
  // Is any blocked receive already satisfiable from its mailbox, or any
  // blocked send already admissible (credits freed or a grant pending)?
  for (int r = 0; r < size; ++r) {
    const auto& st = status[static_cast<std::size_t>(r)];
    const int s = st.state.load(std::memory_order_acquire);
    if (s == kBlockedRecv) {
      const int src = st.blocked_source.load(std::memory_order_relaxed);
      const int tag = st.blocked_tag.load(std::memory_order_relaxed);
      auto& mb = mailboxes[static_cast<std::size_t>(r)];
      std::lock_guard<std::mutex> mb_lock(mb.mutex);
      for (const auto& m : mb.queue) {
        if ((src == kAnySource || m.source == src) && m.tag == tag) {
          // Satisfiable: the parked rank only needs a wake.
          fibers->wake(r);
          return;
        }
      }
    } else if (s == kBlockedSend) {
      const int dest = st.blocked_source.load(std::memory_order_relaxed);
      const std::size_t n = st.blocked_bytes.load(std::memory_order_relaxed);
      auto& mb = mailboxes[static_cast<std::size_t>(dest)];
      std::lock_guard<std::mutex> mb_lock(mb.mutex);
      if (mb.queued_bytes == 0 || mb.queued_bytes + n <= mailbox_cap ||
          mb.credit_grants > 0) {
        fibers->wake(r);
        return;  // the sender can proceed; it just has not been scheduled
      }
    }
  }
  // Nothing moved while we scanned? Then nothing ever will.
  if (progress.load(std::memory_order_acquire) != before) return;

  if (first_blocked_sender >= 0) {
    // A cycle of credit-starved senders is backpressure, not true deadlock:
    // grant one emergency credit to the lowest-ranked blocked sender so it
    // enqueues its (single) over-cap message and the system keeps moving.
    // Memory overshoot is bounded to one payload per grant and the grant is
    // counted, so chronic overshoot is visible in the metrics.
    const auto& st = status[static_cast<std::size_t>(first_blocked_sender)];
    const int dest = st.blocked_source.load(std::memory_order_relaxed);
    auto& mb = mailboxes[static_cast<std::size_t>(dest)];
    {
      std::lock_guard<std::mutex> mb_lock(mb.mutex);
      ++mb.credit_grants;
    }
    if (budget != nullptr) budget->note_emergency_credit(dest);
    progress.fetch_add(1, std::memory_order_release);
    fibers->wake(first_blocked_sender);
    return;
  }

  // Quiescent with no deliverable message: before declaring deadlock, fire
  // the earliest pending virtual recv deadline. The virtual clock only
  // advances when ranks run, so "everyone is parked and nothing can move"
  // is exactly the point at which an unmet deadline is known to be unmet
  // forever — firing it is progress (the expired rank unblocks and runs).
  // Ties break toward the lower rank for determinism.
  {
    int timeout_rank = -1;
    double earliest = 0.0;
    for (int r = 0; r < size; ++r) {
      const auto& st = status[static_cast<std::size_t>(r)];
      if (st.state.load(std::memory_order_acquire) != kBlockedRecv) continue;
      const double d = st.blocked_deadline.load(std::memory_order_relaxed);
      if (d < 0.0) continue;
      if (timeout_rank < 0 || d < earliest) {
        earliest = d;
        timeout_rank = r;
      }
    }
    if (timeout_rank >= 0) {
      auto& st = status[static_cast<std::size_t>(timeout_rank)];
      st.timeout_fired.store(true, std::memory_order_release);
      progress.fetch_add(1, std::memory_order_release);
      auto& mb = mailboxes[static_cast<std::size_t>(timeout_rank)];
      {
        std::lock_guard<std::mutex> mb_lock(mb.mutex);
        mb.recv_waiting = false;
      }
      fibers->wake(timeout_rank);
      return;
    }
  }

  std::ostringstream dump;
  dump << "every live rank is blocked with no deliverable message\n";
  for (int r = 0; r < size; ++r) {
    const auto& st = status[static_cast<std::size_t>(r)];
    const int s = st.state.load(std::memory_order_acquire);
    dump << "  rank " << r << ": " << rank_state_name(s);
    if (s == kBlockedRecv) {
      const int src = st.blocked_source.load(std::memory_order_relaxed);
      dump << "(source=";
      if (src == kAnySource) {
        dump << "any";
      } else {
        dump << src;
      }
      dump << ", tag=" << st.blocked_tag.load(std::memory_order_relaxed) << ")";
    } else if (s == kBlockedSend) {
      dump << "(dest=" << st.blocked_source.load(std::memory_order_relaxed)
           << ", tag=" << st.blocked_tag.load(std::memory_order_relaxed)
           << ", bytes=" << st.blocked_bytes.load(std::memory_order_relaxed)
           << ")";
    }
    if (mailbox_cap > 0) {
      auto& mb = mailboxes[static_cast<std::size_t>(r)];
      std::lock_guard<std::mutex> mb_lock(mb.mutex);
      dump << "; mailbox " << mb.queue.size() << " msgs, " << mb.queued_bytes
           << "/" << mailbox_cap << " B";
      if (mb.credit_grants > 0) dump << ", " << mb.credit_grants << " grants";
    }
    if (budget != nullptr) dump << "; " << budget->describe(r);
    dump << '\n';
  }
  {
    std::lock_guard<std::mutex> abort_lock(abort_mutex);
    abort_reason = dump.str();
  }
  abort_deadlock.store(true, std::memory_order_release);
  fibers->wake_all();
}

void Shared::telemetry_record(int rank, double vtime, int state,
                              std::size_t mb_bytes, std::size_t mb_msgs,
                              std::size_t credits) {
  obs::TelemetrySampler* smp = sampler;  // callers gate on non-null
  obs::TelemetrySample s;
  s.vtime = vtime;
  s.stage = smp->stage(rank);
  s.state = static_cast<obs::RankActivity>(state);
  s.mailbox_bytes = mb_bytes;
  s.mailbox_msgs = static_cast<std::uint32_t>(mb_msgs);
  s.credits = static_cast<std::uint32_t>(credits);
  if (budget != nullptr) {
    s.budget_used = budget->used(rank);
    s.high_water = budget->high_water(rank);
    s.spill_bytes = budget->spill_bytes();
  }
  s.sort_records = smp->sort_records(rank);
  s.replays = smp->replays(rank);
  s.runq_depth = static_cast<std::uint32_t>(fibers->runq_depth());
  smp->record(rank, s);
}

void Shared::telemetry_sample_self(int rank, double vtime, int state) {
  auto& mb = mailboxes[static_cast<std::size_t>(rank)];
  std::size_t bytes, msgs, credits;
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    bytes = mb.queued_bytes;
    msgs = mb.queue.size();
    credits = mb.credit_grants;
  }
  telemetry_record(rank, vtime, state, bytes, msgs, credits);
}

void Shared::telemetry_scan() {
  obs::TelemetrySampler* smp = sampler;
  if (smp == nullptr) return;
  for (int r = 0; r < size; ++r) {
    const int st = status[static_cast<std::size_t>(r)].state.load(
        std::memory_order_acquire);
    // A running rank samples itself. Stamping it here could also land
    // after that rank's own final done/failed sample and hide it.
    if (st == kRunning) continue;
    // A parked rank's clock is frozen; stamp its last known virtual time
    // so the sweep refreshes state without inventing progress.
    const double vt = smp->last_vtime(r);
    if (!smp->due(r, vt, static_cast<obs::RankActivity>(st))) continue;
    auto& mb = mailboxes[static_cast<std::size_t>(r)];
    std::size_t bytes, msgs, credits;
    {
      std::lock_guard<std::mutex> lock(mb.mutex);
      bytes = mb.queued_bytes;
      msgs = mb.queue.size();
      credits = mb.credit_grants;
    }
    // Record outside the mailbox lock so the ring mutex stays a leaf.
    telemetry_record(r, vt, st, bytes, msgs, credits);
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Request

Envelope Request::wait() {
  if (comm_ == nullptr) return {};
  Comm* c = comm_;
  comm_ = nullptr;
  return c->recv(source_, tag_);
}

Envelope Request::wait_for(double timeout_seconds) {
  if (comm_ == nullptr) return {};
  Comm* c = comm_;
  comm_ = nullptr;
  return c->recv(source_, tag_, timeout_seconds);
}

bool Request::test() const {
  if (comm_ == nullptr) return true;
  return comm_->probe(source_, tag_);
}

// ---------------------------------------------------------------------------
// Comm

Comm::Comm(detail::Shared* shared, int rank) : shared_(shared), rank_(rank) {}

int Comm::size() const { return shared_->size; }

void Comm::charge_compute() {
  const double now = thread_cpu_seconds();
  if (last_cpu_ > 0.0) {
    const double delta = now - last_cpu_;
    if (delta > 0.0) vtime_ += delta * compute_scale_;
  }
  last_cpu_ = now;
}

double Comm::vtime() {
  charge_compute();
  return vtime_;
}

std::uint64_t Comm::remote_bytes_so_far() const {
  return shared_->remote_bytes.load(std::memory_order_relaxed);
}

std::uint64_t Comm::remote_messages_so_far() const {
  return shared_->remote_messages.load(std::memory_order_relaxed);
}

obs::Recorder* Comm::recorder() const { return shared_->recorder; }

void Comm::record_span(std::string name, std::string category, double begin_vtime) {
  obs::Recorder* rec = shared_->recorder;
  if (rec == nullptr) return;
  obs::SpanEvent ev;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.tid = rank_;
  ev.begin = begin_vtime;
  ev.end = vtime();
  rec->record_span(std::move(ev));
}

void Comm::charge_modeled(double seconds) {
  charge_compute();
  PAPAR_CHECK_MSG(seconds >= 0.0, "modeled charge must be nonnegative");
  vtime_ += seconds * fault_slow_;
}

void Comm::fault_comm_event() {
  FaultInjector* inj = shared_->faults;
  if (inj == nullptr) return;
  if (inj->on_comm_event(rank_)) {
    charge_compute();
    // Fail-stop: mark this rank dead *before* unwinding so survivors can
    // detect the death while this stack is still unwinding. When localized
    // recovery will revive the rank in place (rank_body's catch), peers
    // must never observe the death — skip the declaration entirely.
    if (!shared_->local_revivable(rank_, replays_done_)) {
      shared_->declare_terminated(rank_, detail::kFailed, vtime_);
    }
    if (obs::Recorder* rec = shared_->recorder) rec->add_counter("fault.crashes", 1);
    throw RankCrashedError(rank_, inj->event_count(rank_));
  }
}

void Comm::on_peer_failure(int dead, const char* what) {
  auto* s = shared_;
  const int dead_state =
      s->status[static_cast<std::size_t>(dead)].state.load(std::memory_order_acquire);
  if (FaultInjector* inj = s->faults) {
    // Heartbeat model: the survivor learns of the death only after
    // `heartbeat_misses` silent intervals past the victim's last beat.
    const double detect_at =
        s->status[static_cast<std::size_t>(dead)].death_vtime.load(std::memory_order_relaxed) +
        inj->plan().heartbeat_interval * inj->plan().heartbeat_misses;
    vtime_ = std::max(vtime_, detect_at);
    inj->note_detection(dead, rank_, s->attempt);
  }
  if (obs::Recorder* rec = s->recorder) rec->add_counter("fault.detections", 1);
  throw PeerFailureError(
      "rank " + std::to_string(rank_) + " " + what + " rank " + std::to_string(dead) +
      ", which " +
      (dead_state == detail::kFailed ? "failed" : "exited without satisfying it"));
}

// -- Localized recovery (DESIGN.md §16) --------------------------------------

void Comm::retention_epoch(bool replaying_window_start) {
  // A reviving rank re-reaching the boundary it restored from must keep its
  // replay window: the in-progress replay still serves from these logs.
  if (replaying_window_start && is_replay_) return;
  stage_retries_used_ = 0;
  if (!shared_->local_recovery()) {
    is_replay_ = false;
    return;
  }
  // Determinism guarantees a completed replay exhausted its suppress map
  // and cursors before the next boundary; whatever is left belongs to the
  // closed window and is dropped with it.
  sent_counts_.clear();
  suppress_.clear();
  replay_limit_.clear();
  replay_cursor_.clear();
  barrier_times_.clear();
  barrier_replay_cursor_ = 0;
  barrier_replay_limit_ = 0;
  is_replay_ = false;
  auto& mb = shared_->mailboxes[static_cast<std::size_t>(rank_)];
  std::lock_guard<std::mutex> lock(mb.mutex);
  detail::Shared::clear_retention(mb);
}

void Comm::arm_replay() {
  auto* s = shared_;
  charge_compute();
  suppress_ = sent_counts_;
  replay_cursor_.clear();
  replay_limit_.clear();
  {
    auto& mb = s->mailboxes[static_cast<std::size_t>(rank_)];
    std::lock_guard<std::mutex> lock(mb.mutex);
    for (const auto& [key, log] : mb.retained) {
      if (!log.empty()) replay_limit_[key] = log.size();
    }
  }
  barrier_replay_cursor_ = 0;
  barrier_replay_limit_ = barrier_times_.size();
  is_replay_ = true;
  ++replays_done_;
  // Exponential backoff in virtual time before the replay begins — the
  // ladder's modeled cost of deciding to revive rather than fail over.
  const RetryPolicy& rp = s->recovery.retry;
  double backoff = rp.backoff_base;
  for (int i = 1; i < replays_done_; ++i) {
    backoff = std::min(backoff * 2.0, rp.backoff_max);
  }
  vtime_ += std::min(backoff, rp.backoff_max);
  if (FaultInjector* inj = s->faults) inj->note_rank_replay(rank_, replays_done_);
  if (obs::Recorder* rec = s->recorder) rec->add_counter("fault.rank_replays", 1);
  if (obs::TelemetrySampler* smp = s->sampler) {
    smp->note_replay(rank_);
    s->telemetry_sample_self(rank_, vtime_, detail::kRunning);
  }
  s->progress.fetch_add(1, std::memory_order_release);
}

bool Comm::replay_serve(int source, int tag, const std::vector<char>* skip_sources,
                        Envelope& out) {
  auto* s = shared_;
  auto& mb = s->mailboxes[static_cast<std::size_t>(rank_)];
  std::lock_guard<std::mutex> lock(mb.mutex);
  // std::map order makes the any-source pick deterministic (lowest source
  // first). Per-link FIFO is all the transport ever guaranteed, so serving
  // keys in a fixed order is within the original run's semantics.
  for (const auto& [key, limit] : replay_limit_) {
    const int src = key.first;
    if (key.second != tag) continue;
    if (source != kAnySource && src != source) continue;
    if (skip_sources != nullptr && src >= 0 &&
        static_cast<std::size_t>(src) < skip_sources->size() &&
        (*skip_sources)[static_cast<std::size_t>(src)] != 0) {
      continue;
    }
    std::uint64_t& cur = replay_cursor_[key];
    if (cur >= limit) continue;
    const auto log_it = mb.retained.find(key);
    if (log_it == mb.retained.end() || log_it->second.size() <= cur) {
      // The window was evicted under cap pressure while this replay was in
      // flight: the segment is gone for good. Degrade to the full-stage
      // ladder rung by crashing for real this time (the eviction flag makes
      // this rank ineligible for another revive).
      mb.retention_evicted = true;
      s->declare_terminated(rank_, detail::kFailed, vtime_);
      throw RankCrashedError(rank_, cur);
    }
    detail::RetainedSegment& seg = log_it->second[static_cast<std::size_t>(cur)];
    out.source = src;
    out.tag = tag;
    if (seg.spilled) {
      out.payload.assign(seg.len, 0);
      const bool ok = mb.spool != nullptr &&
                      mb.spool->read_at(seg.off, out.payload.data(), seg.len);
      if (!ok || crc32c(out.payload.data(), out.payload.size()) != seg.crc) {
        throw DataError("rank " + std::to_string(rank_) +
                        ": retention spool segment from rank " +
                        std::to_string(src) + " failed its CRC32C check");
      }
    } else {
      out.payload = seg.data;
    }
    ++cur;
    // Modeled re-fetch: one round trip to the retaining peer plus the
    // payload's serialization — cheaper than the peer re-executing, which
    // is the whole point of the retention buffer.
    const std::size_t n = out.payload.size();
    if (src != rank_) {
      vtime_ += 2.0 * s->network.latency +
                static_cast<double>(n) / s->network.bandwidth;
      if (FaultInjector* inj = s->faults) {
        inj->note_refetch(src, rank_, cur - 1, n);
      }
      if (obs::Recorder* rec = s->recorder) {
        rec->add_counter("recovery.refetches", 1);
        rec->add_counter("recovery.refetch_bytes", n);
      }
    } else {
      vtime_ += s->network.local_cost(n);
    }
    s->progress.fetch_add(1, std::memory_order_release);
    return true;
  }
  return false;
}

void Comm::check_integrity(Envelope& env, std::uint32_t crc, bool corrupted,
                           std::uint64_t corrupt_bit) {
  FaultInjector* inj = shared_->faults;
  if (inj == nullptr) return;
  const std::uint32_t actual = crc32c(env.payload.data(), env.payload.size());
  if (actual == crc) {
    PAPAR_CHECK_MSG(!corrupted, "payload bit-flip escaped the CRC32C check");
    return;
  }
  if (!corrupted) {
    // Mismatch with no injected flip: genuine integrity loss that no
    // retransmission can repair.
    throw DataError("rank " + std::to_string(rank_) + ": payload from rank " +
                    std::to_string(env.source) + " failed its CRC32C check");
  }
  const RetryPolicy& rp = shared_->recovery.retry;
  ++stage_retries_used_;
  if (stage_retries_used_ > rp.stage_retry_budget) {
    throw DataError("rank " + std::to_string(rank_) +
                    ": corrupted payload from rank " + std::to_string(env.source) +
                    " and the per-stage retry budget (" +
                    std::to_string(rp.stage_retry_budget) + ") is exhausted");
  }
  // Detected: model the retransmission — detection timeout, exponential
  // backoff, and the wire carrying the payload once more.
  double backoff = rp.backoff_base;
  for (std::uint64_t i = 1; i < stage_retries_used_; ++i) {
    backoff = std::min(backoff * 2.0, rp.backoff_max);
    if (backoff >= rp.backoff_max) break;
  }
  vtime_ += static_cast<double>(env.payload.size()) / shared_->network.bandwidth +
            inj->plan().retry_timeout + std::min(backoff, rp.backoff_max);
  const std::size_t bit = static_cast<std::size_t>(corrupt_bit);
  env.payload[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  PAPAR_CHECK_MSG(crc32c(env.payload.data(), env.payload.size()) == crc,
                  "retransmitted payload still fails its CRC32C check");
  inj->note_corruption_repair(env.source, rank_, stage_retries_used_);
  if (shared_->m_retransmits != nullptr) shared_->m_retransmits->add(1);
  if (obs::Recorder* rec = shared_->recorder) {
    rec->add_counter("fault.corruption_repairs", 1);
  }
}

void Comm::deliver(int dest, int tag, const void* data, std::size_t n) {
  std::vector<unsigned char> payload(static_cast<const unsigned char*>(data),
                                     static_cast<const unsigned char*>(data) + n);
  deliver(dest, tag, std::move(payload));
}

void Comm::deliver(int dest, int tag, std::vector<unsigned char> payload) {
  PAPAR_CHECK_MSG(dest >= 0 && dest < size(), "send destination out of range");
  fault_comm_event();
  if (is_replay_) {
    // A send the original execution already delivered before the crash:
    // the destination holds (or has consumed) the payload, so the replayed
    // copy is swallowed. No fault-decision draw either — the link RNG
    // streams must stay aligned with the pre-crash timeline.
    const auto sup = suppress_.find({dest, tag});
    if (sup != suppress_.end() && sup->second > 0) {
      if (--sup->second == 0) suppress_.erase(sup);
      return;
    }
  }
  if (shared_->local_recovery()) ++sent_counts_[{dest, tag}];
  const std::size_t n = payload.size();
  const bool remote = dest != rank_;
  const double send_begin = vtime_;  // before any fault-layer retry charges
  std::uint16_t trace_retransmits = 0;
  bool trace_duplicated = false;
  bool fault_corrupt = false;
  std::uint64_t fault_corrupt_bit = 0;
  detail::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.sent = send_begin;
  if (remote) {
    double extra_delay = 0.0;
    if (FaultInjector* inj = shared_->faults) {
      const FaultInjector::Decision d = inj->next_decision(rank_, dest);
      trace_retransmits = static_cast<std::uint16_t>(d.drops);
      trace_duplicated = d.duplicate;
      fault_corrupt = d.corrupt;
      fault_corrupt_bit = d.corrupt_bit;
      if (d.drops > 0 && shared_->m_retransmits != nullptr) {
        shared_->m_retransmits->add(static_cast<std::uint64_t>(d.drops));
      }
      obs::Recorder* rec = shared_->recorder;
      if (d.drops > 0) {
        // Every lost transmission costs the sender a full serialization,
        // the retry timeout, and an exponentially growing backoff before
        // the redundant copy goes back on the wire.
        const double begin = vtime_;
        const FaultPlan& plan = inj->plan();
        double backoff = plan.backoff_base;
        for (int i = 0; i < d.drops; ++i) {
          vtime_ += static_cast<double>(n) / shared_->network.bandwidth +
                    plan.retry_timeout + backoff;
          backoff = std::min(backoff * 2.0, plan.backoff_max);
        }
        if (rec != nullptr) {
          rec->add_counter("fault.drops", static_cast<std::uint64_t>(d.drops));
          rec->add_counter("fault.retries", static_cast<std::uint64_t>(d.drops));
          obs::SpanEvent ev;
          ev.name = "net.retry";
          ev.category = "fault";
          ev.tid = rank_;
          ev.begin = begin;
          ev.end = vtime_;
          rec->record_span(std::move(ev));
        }
      }
      if (d.duplicate) {
        // The wire carried the payload twice; the receiving NIC drops the
        // spare by sequence number, so only the sender pays.
        vtime_ += static_cast<double>(n) / shared_->network.bandwidth;
        if (rec != nullptr) rec->add_counter("fault.duplicates", 1);
      }
      if (d.extra_delay > 0.0) {
        extra_delay = d.extra_delay;
        if (rec != nullptr) rec->add_counter("fault.delays", 1);
      }
    }
    // LogGP-style: the sender's NIC serializes the payload (occupying the
    // sender for bytes/bandwidth), then the wire adds its latency. The
    // receiving NIC charges its own bytes/bandwidth at recv time. The
    // virtual serialization charge is identical for the copying and the
    // ownership-transfer handoff — only real memcpy CPU differs.
    vtime_ += static_cast<double>(n) / shared_->network.bandwidth;
    msg.arrival = vtime_ + shared_->network.latency + extra_delay;
  } else {
    msg.arrival = vtime_ + shared_->network.local_cost(n);
  }
  msg.payload = std::move(payload);
  if (shared_->faults != nullptr) {
    // End-to-end integrity: stamp the CRC32C of the pristine payload, then
    // let a scheduled `corrupt=p` fault flip one wire bit. The receiver
    // verifies and repairs (modeled retransmission) or throws DataError —
    // a flipped bit can never be consumed silently.
    msg.crc = crc32c(msg.payload.data(), msg.payload.size());
    if (fault_corrupt && !msg.payload.empty()) {
      const std::uint64_t bit = fault_corrupt_bit %
                                (static_cast<std::uint64_t>(msg.payload.size()) * 8u);
      msg.payload[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<unsigned char>(1u << (bit % 8));
      msg.corrupted = true;
      msg.corrupt_bit = bit;
      if (obs::Recorder* rec = shared_->recorder) rec->add_counter("fault.corruptions", 1);
    }
  }
  if (remote) {
    shared_->remote_messages.fetch_add(1, std::memory_order_relaxed);
    shared_->remote_bytes.fetch_add(n, std::memory_order_relaxed);
    if (obs::Recorder* rec = shared_->recorder) {
      rec->add_counter(detail::Shared::traffic_counter(tag), n);
      rec->add_counter("mpsim.remote_messages", 1);
      rec->add_counter("mpsim.remote_bytes", n);
    }
  }
  obs::TraceRecorder* tracer = shared_->tracer;
  if (tracer != nullptr) {
    msg.trace_id = tracer->next_msg_id();
    msg.sender_stage = trace_stage_;
  }
  const std::uint64_t trace_id = msg.trace_id;
  auto& mb = shared_->mailboxes[static_cast<std::size_t>(dest)];
  std::size_t queue_depth = 0;
  bool wake_receiver = false;
  {
    std::unique_lock<std::mutex> lock(mb.mutex);
    if (remote && shared_->mailbox_cap > 0) {
      // Credit-based flow control: block (never drop) while the destination
      // mailbox is over budget. An empty mailbox always admits one message,
      // whatever its size, so a single payload larger than the cap cannot
      // wedge the fabric. The wait is wall-clock only — virtual clocks are
      // a property of the simulated fabric, and flow-control stalls on the
      // simulator host are not simulated network time.
      auto* s = shared_;
      const std::size_t cap = s->mailbox_cap;
      auto& st = s->status[static_cast<std::size_t>(rank_)];
      bool stalled = false;
      while (mb.queued_bytes > 0 && mb.queued_bytes + n > cap) {
        if (mb.credit_grants > 0) {
          --mb.credit_grants;
          break;
        }
        if (s->abort_deadlock.load(std::memory_order_acquire)) {
          st.state.store(detail::kRunning, std::memory_order_release);
          throw DeadlockError(s->abort_reason_copy());
        }
        if (detail::terminated_state(
                s->status[static_cast<std::size_t>(dest)].state.load(
                    std::memory_order_acquire))) {
          // The destination will never drain its mailbox; blocking here
          // would hang forever, so surface the failure to the sender.
          st.state.store(detail::kRunning, std::memory_order_release);
          lock.unlock();
          on_peer_failure(dest, "is sending to");
        }
        if (!stalled) {
          stalled = true;
          if (s->budget != nullptr) s->budget->note_backpressure(rank_);
        }
        st.blocked_source.store(dest, std::memory_order_relaxed);
        st.blocked_tag.store(tag, std::memory_order_relaxed);
        st.blocked_bytes.store(n, std::memory_order_relaxed);
        st.state.store(detail::kBlockedSend, std::memory_order_release);
        // Register while still holding mb.mutex (same critical section as
        // the failed credit check), then park with no locks held.
        auto& waiters = mb.send_waiters;
        if (std::find(waiters.begin(), waiters.end(), rank_) == waiters.end()) {
          waiters.push_back(rank_);
        }
        lock.unlock();
        s->fibers->park(rank_);
        lock.lock();
      }
      st.state.store(detail::kRunning, std::memory_order_release);
    }
    mb.queue.push_back(std::move(msg));
    mb.queued_bytes += n;
    // Accounted before the lock drops: once queued, the receiver may pop
    // the message and subtract its bytes at any moment.
    if (shared_->budget != nullptr) shared_->budget->add_mailbox(dest, n);
    if (shared_->metrics != nullptr) queue_depth = mb.queue.size();
    if (mb.recv_waiting) {
      mb.recv_waiting = false;
      wake_receiver = true;
    }
  }
  shared_->progress.fetch_add(1, std::memory_order_release);
  if (wake_receiver) shared_->fibers->wake(dest);
  if (shared_->metrics != nullptr) {
    shared_->m_payload->observe(static_cast<double>(n));
    shared_->m_queue->observe(static_cast<double>(queue_depth));
  }
  if (obs::TelemetrySampler* smp = shared_->sampler) {
    if (smp->due(rank_, vtime_, obs::RankActivity::kRunning)) {
      shared_->telemetry_sample_self(rank_, vtime_, detail::kRunning);
      smp->maybe_flush_stream();
    }
  }
  if (tracer != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kSend;
    ev.stage = trace_stage_;
    ev.attempt = attempt_;
    ev.begin = send_begin;
    ev.end = vtime_;
    ev.peer = dest;
    ev.tag = tag;
    ev.bytes = n;
    ev.msg_id = trace_id;
    ev.retransmits = trace_retransmits;
    ev.duplicated = trace_duplicated;
    tracer->record(rank_, ev);
  }
}

void Comm::send(int dest, int tag, const void* data, std::size_t n) {
  PAPAR_CHECK_MSG(tag >= 0, "user tags must be nonnegative");
  charge_compute();
  deliver(dest, tag, data, n);
}

void Comm::send(int dest, int tag, std::vector<unsigned char>&& bytes) {
  PAPAR_CHECK_MSG(tag >= 0, "user tags must be nonnegative");
  charge_compute();
  deliver(dest, tag, std::move(bytes));
}

Request Comm::isend(int dest, int tag, const void* data, std::size_t n) {
  // Buffered eager protocol: the payload is copied out immediately, so the
  // request is born complete (matching how MR-MPI uses Isend for shuffles).
  send(dest, tag, data, n);
  return Request();
}

Request Comm::isend(int dest, int tag, std::vector<unsigned char>&& bytes) {
  send(dest, tag, std::move(bytes));
  return Request();
}

Request Comm::irecv(int source, int tag) { return Request(this, source, tag); }

namespace {
bool matches(const detail::Message& m, int source, int tag) {
  return (source == kAnySource || m.source == source) && m.tag == tag;
}

std::string timeout_what(int source, int tag, int rank, double timeout_seconds) {
  return "recv(source=" +
         (source == kAnySource ? std::string("any") : std::to_string(source)) +
         ", tag=" + std::to_string(tag) + ") on rank " + std::to_string(rank) +
         " expired after " + std::to_string(timeout_seconds) +
         "s of virtual time";
}
}  // namespace

Envelope Comm::recv(int source, int tag) { return recv_impl(source, tag, -1.0); }

Envelope Comm::recv(int source, int tag, double timeout_seconds) {
  PAPAR_CHECK_MSG(timeout_seconds >= 0.0, "recv timeout must be nonnegative");
  return recv_impl(source, tag, timeout_seconds);
}

Envelope Comm::recv_impl(int source, int tag, double timeout_seconds) {
  charge_compute();
  fault_comm_event();
  if (is_replay_) {
    Envelope env;
    if (replay_serve(source, tag, nullptr, env)) return env;
  }
  const double recv_begin = vtime_;
  auto* s = shared_;
  auto& st = s->status[static_cast<std::size_t>(rank_)];
  st.blocked_source.store(source, std::memory_order_relaxed);
  st.blocked_tag.store(tag, std::memory_order_relaxed);
  // Deadlines are virtual: the wait expires when no matching message can
  // arrive by `recv_begin + timeout` on the simulated clock — never because
  // the simulator host was slow or the rank sat parked behind other fibers.
  const bool has_deadline = timeout_seconds >= 0.0;
  const double deadline_v = recv_begin + timeout_seconds;
  st.timeout_fired.store(false, std::memory_order_relaxed);
  auto& mb = s->mailboxes[static_cast<std::size_t>(rank_)];
  std::unique_lock<std::mutex> lock(mb.mutex);
  for (;;) {
    for (auto it = mb.queue.begin(); it != mb.queue.end(); ++it) {
      if (matches(*it, source, tag)) {
        if (has_deadline && it->arrival > deadline_v) {
          // The matching message exists but virtually arrives after the
          // deadline: the wait expires first. The message stays queued for
          // a later (or retried) receive.
          st.state.store(detail::kRunning, std::memory_order_release);
          st.blocked_deadline.store(-1.0, std::memory_order_relaxed);
          st.timeout_fired.store(false, std::memory_order_relaxed);
          vtime_ = std::max(vtime_, deadline_v);
          throw TimeoutError(timeout_what(source, tag, rank_, timeout_seconds));
        }
        st.state.store(detail::kRunning, std::memory_order_release);
        st.blocked_deadline.store(-1.0, std::memory_order_relaxed);
        st.timeout_fired.store(false, std::memory_order_relaxed);
        s->progress.fetch_add(1, std::memory_order_release);
        Envelope env;
        env.source = it->source;
        env.tag = it->tag;
        env.payload = std::move(it->payload);
        const double arrival = it->arrival;
        const std::uint64_t trace_id = it->trace_id;
        const std::uint32_t sender_stage = it->sender_stage;
        const double sent = it->sent;
        const std::uint32_t msg_crc = it->crc;
        const bool msg_corrupted = it->corrupted;
        const std::uint64_t msg_bit = it->corrupt_bit;
        // The payload is usable once it has arrived and the receiving NIC
        // has clocked it in.
        vtime_ = std::max(vtime_, arrival);
        if (env.source != rank_) {
          vtime_ += static_cast<double>(env.payload.size()) / shared_->network.bandwidth;
        }
        const std::size_t freed = env.payload.size();
        mb.queue.erase(it);
        mb.queued_bytes -= freed > mb.queued_bytes ? mb.queued_bytes : freed;
        if (s->budget != nullptr) s->budget->sub_mailbox(rank_, freed);
        check_integrity(env, msg_crc, msg_corrupted, msg_bit);
        if (s->local_recovery()) {
          s->retain_consumed(mb, rank_, env.source, env.tag, env.payload);
        }
        if (s->mailbox_cap > 0) {
          // Returning credits may unblock senders waiting on this mailbox.
          for (const int w : mb.send_waiters) s->fibers->wake(w);
          mb.send_waiters.clear();
        }
        if (obs::TraceRecorder* tracer = s->tracer) {
          obs::TraceEvent ev;
          ev.kind = obs::TraceEventKind::kRecv;
          ev.stage = trace_stage_;
          ev.attempt = attempt_;
          ev.begin = recv_begin;
          ev.end = vtime_;
          ev.peer = env.source;
          ev.tag = env.tag;
          ev.bytes = env.payload.size();
          ev.msg_id = trace_id;
          ev.sender_stage = sender_stage;
          ev.blocked = std::max(0.0, arrival - recv_begin);
          tracer->record(rank_, ev);
        }
        if (s->m_latency != nullptr) {
          s->m_latency->observe(std::max(0.0, vtime_ - sent));
        }
        if (obs::TelemetrySampler* smp = s->sampler) {
          if (smp->due(rank_, vtime_, obs::RankActivity::kRunning)) {
            // Caller holds mb.mutex; pass the mailbox fields directly so
            // record() only ever takes its leaf ring mutex.
            s->telemetry_record(rank_, vtime_, detail::kRunning,
                                mb.queued_bytes, mb.queue.size(),
                                mb.credit_grants);
          }
        }
        return env;
      }
    }
    if (s->abort_deadlock.load(std::memory_order_acquire)) {
      st.state.store(detail::kRunning, std::memory_order_release);
      st.blocked_deadline.store(-1.0, std::memory_order_relaxed);
      st.timeout_fired.store(false, std::memory_order_relaxed);
      throw DeadlockError(s->abort_reason_copy());
    }
    if (const int dead = s->awaited_terminated(rank_, source); dead >= 0) {
      st.state.store(detail::kRunning, std::memory_order_release);
      st.blocked_deadline.store(-1.0, std::memory_order_relaxed);
      st.timeout_fired.store(false, std::memory_order_relaxed);
      on_peer_failure(dead, "is receiving from");
    }
    if (has_deadline && st.timeout_fired.load(std::memory_order_acquire)) {
      // The deadlock scan found the system quiescent with this deadline
      // still unmet: no message can arrive by deadline_v anymore. The
      // expired wait is modeled time — the rank sat on the deadline.
      st.state.store(detail::kRunning, std::memory_order_release);
      st.blocked_deadline.store(-1.0, std::memory_order_relaxed);
      st.timeout_fired.store(false, std::memory_order_relaxed);
      vtime_ = std::max(vtime_, deadline_v);
      throw TimeoutError(timeout_what(source, tag, rank_, timeout_seconds));
    }
    // Publish the deadline before the blocked state so the scan can never
    // observe a deadline-less blocked-with-deadline rank.
    if (has_deadline) {
      st.blocked_deadline.store(deadline_v, std::memory_order_relaxed);
    }
    st.state.store(detail::kBlockedRecv, std::memory_order_release);
    if (obs::TelemetrySampler* smp = s->sampler) {
      if (smp->due(rank_, vtime_, obs::RankActivity::kBlockedRecv)) {
        s->telemetry_record(rank_, vtime_, detail::kBlockedRecv,
                            mb.queued_bytes, mb.queue.size(),
                            mb.credit_grants);
      }
    }
    // Register while still holding mb.mutex (same critical section as the
    // failed match scan), then park with no locks held.
    mb.recv_waiting = true;
    lock.unlock();
    s->fibers->park(rank_);
    lock.lock();
    mb.recv_waiting = false;
  }
}

bool Comm::try_recv_tagged(int tag, const std::vector<char>& skip_sources,
                           Envelope& out) {
  charge_compute();
  if (is_replay_ && replay_serve(kAnySource, tag, &skip_sources, out)) return true;
  auto* s = shared_;
  const double recv_begin = vtime_;
  auto& mb = s->mailboxes[static_cast<std::size_t>(rank_)];
  std::lock_guard<std::mutex> lock(mb.mutex);
  for (auto it = mb.queue.begin(); it != mb.queue.end(); ++it) {
    if (it->tag != tag) continue;
    if (it->source >= 0 &&
        static_cast<std::size_t>(it->source) < skip_sources.size() &&
        skip_sources[static_cast<std::size_t>(it->source)] != 0) {
      continue;
    }
    s->progress.fetch_add(1, std::memory_order_release);
    out.source = it->source;
    out.tag = it->tag;
    out.payload = std::move(it->payload);
    const double arrival = it->arrival;
    const std::uint64_t trace_id = it->trace_id;
    const std::uint32_t sender_stage = it->sender_stage;
    const double sent = it->sent;
    const std::uint32_t msg_crc = it->crc;
    const bool msg_corrupted = it->corrupted;
    const std::uint64_t msg_bit = it->corrupt_bit;
    vtime_ = std::max(vtime_, arrival);
    if (out.source != rank_) {
      vtime_ += static_cast<double>(out.payload.size()) / s->network.bandwidth;
    }
    const std::size_t freed = out.payload.size();
    mb.queue.erase(it);
    mb.queued_bytes -= freed > mb.queued_bytes ? mb.queued_bytes : freed;
    if (s->budget != nullptr) s->budget->sub_mailbox(rank_, freed);
    check_integrity(out, msg_crc, msg_corrupted, msg_bit);
    if (s->local_recovery()) {
      s->retain_consumed(mb, rank_, out.source, out.tag, out.payload);
    }
    if (s->mailbox_cap > 0) {
      for (const int w : mb.send_waiters) s->fibers->wake(w);
      mb.send_waiters.clear();
    }
    if (obs::TraceRecorder* tracer = s->tracer) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceEventKind::kRecv;
      ev.stage = trace_stage_;
      ev.attempt = attempt_;
      ev.begin = recv_begin;
      ev.end = vtime_;
      ev.peer = out.source;
      ev.tag = out.tag;
      ev.bytes = out.payload.size();
      ev.msg_id = trace_id;
      ev.sender_stage = sender_stage;
      ev.blocked = std::max(0.0, arrival - recv_begin);
      tracer->record(rank_, ev);
    }
    if (s->m_latency != nullptr) {
      s->m_latency->observe(std::max(0.0, vtime_ - sent));
    }
    return true;
  }
  return false;
}

void Comm::shuffle_send(int dest, std::vector<unsigned char>&& bytes) {
  charge_compute();
  deliver(dest, detail::kAlltoallTag, std::move(bytes));
}

Envelope Comm::shuffle_recv(int source) {
  return recv_impl(source, detail::kAlltoallTag, -1.0);
}

bool Comm::try_shuffle_recv(const std::vector<char>& done_sources, Envelope& out) {
  return try_recv_tagged(detail::kAlltoallTag, done_sources, out);
}

MemoryBudget* Comm::memory_budget() const { return shared_->budget; }

bool Comm::probe(int source, int tag) {
  charge_compute();
  if (is_replay_) {
    for (const auto& [key, limit] : replay_limit_) {
      if (key.second != tag) continue;
      if (source != kAnySource && key.first != source) continue;
      const auto cur = replay_cursor_.find(key);
      if (cur == replay_cursor_.end() || cur->second < limit) return true;
    }
  }
  auto& mb = shared_->mailboxes[static_cast<std::size_t>(rank_)];
  std::lock_guard<std::mutex> lock(mb.mutex);
  for (const auto& m : mb.queue) {
    if (matches(m, source, tag)) return true;
  }
  return false;
}

void Comm::barrier() {
  charge_compute();
  fault_comm_event();
  if (is_replay_ && barrier_replay_cursor_ < barrier_replay_limit_) {
    // This barrier already resolved in the pre-crash timeline; peers have
    // long moved past it. Fast-forward to the recorded resolution instead
    // of touching the shared barrier state (which is generations ahead).
    vtime_ = std::max(vtime_, barrier_times_[barrier_replay_cursor_++]);
    last_cpu_ = thread_cpu_seconds();
    return;
  }
  const double barrier_begin = vtime_;  // this rank's arrival at the barrier
  auto* s = shared_;
  auto& st = s->status[static_cast<std::size_t>(rank_)];
  std::unique_lock<std::mutex> lock(s->barrier_mutex);
  s->barrier_pending_max = std::max(s->barrier_pending_max, vtime_);
  const std::uint64_t my_generation = s->barrier_generation;
  if (++s->barrier_count == s->size) {
    s->barrier_resolved_time = s->barrier_pending_max + s->tree_latency();
    s->barrier_count = 0;
    s->barrier_pending_max = 0.0;
    ++s->barrier_generation;
    s->progress.fetch_add(1, std::memory_order_release);
    for (const int w : s->barrier_waiters) s->fibers->wake(w);
    s->barrier_waiters.clear();
  } else {
    for (;;) {
      if (s->barrier_generation != my_generation) break;
      if (s->abort_deadlock.load(std::memory_order_acquire)) {
        --s->barrier_count;
        st.state.store(detail::kRunning, std::memory_order_release);
        throw DeadlockError(s->abort_reason_copy());
      }
      if (const int dead = s->first_terminated(); dead >= 0) {
        // A terminated rank can never arrive; withdraw our contribution so
        // the count stays consistent and report the failure.
        --s->barrier_count;
        st.state.store(detail::kRunning, std::memory_order_release);
        on_peer_failure(dead, "is in a barrier with");
      }
      st.blocked_generation.store(my_generation, std::memory_order_relaxed);
      st.state.store(detail::kBlockedBarrier, std::memory_order_release);
      // Register under barrier_mutex (same critical section as the
      // generation check), then park with no locks held.
      auto& waiters = s->barrier_waiters;
      if (std::find(waiters.begin(), waiters.end(), rank_) == waiters.end()) {
        waiters.push_back(rank_);
      }
      lock.unlock();
      s->fibers->park(rank_);
      lock.lock();
    }
    st.state.store(detail::kRunning, std::memory_order_release);
  }
  vtime_ = std::max(vtime_, s->barrier_resolved_time);
  if (s->local_recovery()) barrier_times_.push_back(s->barrier_resolved_time);
  // The wait itself burned negligible CPU; resynchronize the CPU mark so
  // scheduler noise during the wait is not charged as compute.
  last_cpu_ = thread_cpu_seconds();
  if (obs::TraceRecorder* tracer = s->tracer) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kBarrier;
    ev.stage = trace_stage_;
    ev.attempt = attempt_;
    ev.begin = barrier_begin;
    ev.end = vtime_;
    ev.barrier_gen = my_generation;
    tracer->record(rank_, ev);
  }
}

void Comm::set_trace_stage(std::string_view name) {
  obs::TraceRecorder* tracer = shared_->tracer;
  obs::TelemetrySampler* smp = shared_->sampler;
  if (tracer == nullptr && smp == nullptr) return;
  charge_compute();
  if (smp != nullptr) {
    // Stage transitions are rare and always worth a sample — they are the
    // edges papar_top's per-rank stage column renders.
    smp->set_stage(rank_, smp->stage_id(name));
    shared_->telemetry_sample_self(rank_, vtime_, detail::kRunning);
  }
  if (tracer == nullptr) return;
  trace_stage_ = tracer->stage_id(name);
  obs::TraceEvent ev;
  ev.kind = obs::TraceEventKind::kStageMark;
  ev.stage = trace_stage_;
  ev.attempt = attempt_;
  ev.begin = vtime_;
  ev.end = vtime_;
  tracer->record(rank_, ev);
}

void Comm::note_sort_progress(std::uint64_t records) {
  obs::TelemetrySampler* smp = shared_->sampler;
  if (smp == nullptr) return;
  smp->add_sort_records(rank_, records);
  charge_compute();
  if (smp->due(rank_, vtime_, obs::RankActivity::kRunning)) {
    shared_->telemetry_sample_self(rank_, vtime_, detail::kRunning);
    smp->maybe_flush_stream();
  }
}

std::vector<unsigned char> Comm::bcast(int root, std::vector<unsigned char> bytes) {
  charge_compute();
  const int p = size();
  if (p == 1) return bytes;
  const int relative = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      int src = rank_ - mask;
      if (src < 0) src += p;
      bytes = recv(src, detail::kBcastTag).payload;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      int dst = rank_ + mask;
      if (dst >= p) dst -= p;
      deliver(dst, detail::kBcastTag, bytes.data(), bytes.size());
    }
    mask >>= 1;
  }
  return bytes;
}

std::vector<std::vector<unsigned char>> Comm::gather(
    int root, const std::vector<unsigned char>& bytes) {
  charge_compute();
  std::vector<std::vector<unsigned char>> out;
  if (rank_ != root) {
    deliver(root, detail::kGatherTag, bytes.data(), bytes.size());
    return out;
  }
  out.resize(static_cast<std::size_t>(size()));
  out[static_cast<std::size_t>(rank_)] = bytes;
  for (int r = 0; r < size(); ++r) {
    if (r == root) continue;
    out[static_cast<std::size_t>(r)] = recv(r, detail::kGatherTag).payload;
  }
  return out;
}

std::vector<std::vector<unsigned char>> Comm::allgather(
    const std::vector<unsigned char>& bytes) {
  // Gather at rank 0, then broadcast the concatenation down the tree.
  auto gathered = gather(0, bytes);
  std::vector<unsigned char> packed;
  if (rank_ == 0) {
    ByteWriter w;
    w.put<std::uint32_t>(static_cast<std::uint32_t>(gathered.size()));
    for (const auto& g : gathered) {
      w.put<std::uint64_t>(g.size());
      w.put_bytes(g.data(), g.size());
    }
    packed = w.take();
  }
  packed = bcast(0, std::move(packed));
  ByteReader r(packed);
  const auto count = r.get<std::uint32_t>();
  std::vector<std::vector<unsigned char>> out(count);
  for (auto& part : out) {
    const auto len = r.get<std::uint64_t>();
    auto view = r.get_bytes(len);
    part.assign(view.begin(), view.end());
  }
  return out;
}

std::vector<char> Comm::exchange_has_data(const std::vector<char>& sending) {
  charge_compute();
  const int p = size();
  PAPAR_CHECK_MSG(static_cast<int>(sending.size()) == p,
                  "has-data exchange requires one flag per rank");
  // Bruck all-to-all of one bit per (source, destination) pair. Slot i
  // starts as this rank's bit for rank + i; in the round of distance d
  // every slot with bit d set moves d ranks on, so after all rounds slot i
  // holds the bit rank - i sent to this rank.
  std::vector<char> slot(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    slot[static_cast<std::size_t>(i)] =
        sending[static_cast<std::size_t>((rank_ + i) % p)] != 0 ? 1 : 0;
  }
  for (int d = 1; d < p; d <<= 1) {
    std::vector<unsigned char> packed;
    std::size_t bit = 0;
    for (int i = d; i < p; ++i) {
      if ((i & d) == 0) continue;
      if (bit % 8 == 0) packed.push_back(0);
      if (slot[static_cast<std::size_t>(i)] != 0) {
        packed.back() |= static_cast<unsigned char>(1u << (bit % 8));
      }
      ++bit;
    }
    const std::size_t nbytes = packed.size();
    deliver((rank_ + d) % p, detail::kHasDataTag, std::move(packed));
    const auto in = recv((rank_ - d + p) % p, detail::kHasDataTag).payload;
    PAPAR_CHECK_MSG(in.size() == nbytes, "has-data exchange length mismatch");
    bit = 0;
    for (int i = d; i < p; ++i) {
      if ((i & d) == 0) continue;
      slot[static_cast<std::size_t>(i)] = static_cast<char>((in[bit / 8] >> (bit % 8)) & 1u);
      ++bit;
    }
  }
  std::vector<char> from(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    from[static_cast<std::size_t>((rank_ - i + p) % p)] = slot[static_cast<std::size_t>(i)];
  }
  return from;
}

std::vector<std::vector<unsigned char>> Comm::alltoallv(
    std::vector<std::vector<unsigned char>> send_bufs) {
  charge_compute();
  const int p = size();
  PAPAR_CHECK_MSG(static_cast<int>(send_bufs.size()) == p,
                  "alltoallv requires one buffer per rank");
  // One has-data exchange tells every rank which sources will send to it;
  // then only non-empty legs are posted, and silent sources are done up
  // front. Sends are staggered so every rank
  // does not hammer rank 0 first, and each buffer is handed off by move:
  // the shuffle's bytes are never copied between the sender and the
  // receiver's mailbox. If an announced source dies before sending its
  // buffer, the matching recv throws PeerFailureError — a partial delivery
  // is never mistaken for an empty buffer.
  std::vector<char> sending(static_cast<std::size_t>(p));
  for (std::size_t d = 0; d < sending.size(); ++d) sending[d] = !send_bufs[d].empty();
  std::vector<char> done = exchange_has_data(sending);
  for (auto& flag : done) flag = !flag;
  std::vector<std::vector<unsigned char>> out(static_cast<std::size_t>(p));
  const bool credits = shared_->mailbox_cap > 0;
  for (int step = 0; step < p; ++step) {
    const int dest = (rank_ + step) % p;
    auto& buf = send_bufs[static_cast<std::size_t>(dest)];
    if (buf.empty()) continue;
    deliver(dest, detail::kAlltoallTag, std::move(buf));
    if (credits) {
      // Under credit-based flow control, drain opportunistically between
      // sends so this rank's mailbox returns credits while it is still
      // posting — without this, every rank posts all its sends before its
      // first recv and tight budgets stall on emergency credits. Per-source
      // FIFO plus the done mask keeps this byte-identical to the drain loop.
      Envelope env;
      while (try_recv_tagged(detail::kAlltoallTag, done, env)) {
        done[static_cast<std::size_t>(env.source)] = 1;
        out[static_cast<std::size_t>(env.source)] = std::move(env.payload);
      }
    }
  }
  for (int step = 0; step < p; ++step) {
    const int src = (rank_ - step + p) % p;
    if (done[static_cast<std::size_t>(src)] != 0) continue;
    out[static_cast<std::size_t>(src)] = recv(src, detail::kAlltoallTag).payload;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Runtime

Runtime::Runtime(int nranks, NetworkModel network, SchedulerOptions sched)
    : nranks_(nranks), sched_(sched) {
  PAPAR_CHECK_MSG(nranks >= 1, "runtime needs at least one rank");
  shared_ = std::make_unique<detail::Shared>(nranks, network);
}

Runtime::~Runtime() = default;

const NetworkModel& Runtime::network() const { return shared_->network; }

void Runtime::set_recorder(obs::Recorder* recorder) { shared_->recorder = recorder; }

obs::Recorder* Runtime::recorder() const { return shared_->recorder; }

void Runtime::set_fault_injector(FaultInjector* injector) {
  if (injector != nullptr) injector->bind(nranks_);
  shared_->faults = injector;
}

FaultInjector* Runtime::fault_injector() const { return shared_->faults; }

void Runtime::set_recovery(RecoveryOptions options) {
  const RetryPolicy& retry = options.retry;
  for (const auto& [name, seconds] : {std::pair{"backoff_base", retry.backoff_base},
                                      std::pair{"backoff_max", retry.backoff_max}}) {
    if (!std::isfinite(seconds) || seconds < 0.0) {
      throw ConfigError(std::string("recovery ") + name +
                        ": must be a finite, nonnegative number of seconds");
    }
  }
  if (retry.max_attempts < 0) {
    throw ConfigError("recovery max_attempts: must be >= 0");
  }
  shared_->recovery = std::move(options);
}

const RecoveryOptions& Runtime::recovery() const { return shared_->recovery; }

void Runtime::set_tracer(obs::TraceRecorder* tracer) {
  if (tracer != nullptr) tracer->bind(nranks_);
  shared_->tracer = tracer;
}

obs::TraceRecorder* Runtime::tracer() const { return shared_->tracer; }

void Runtime::set_memory_budget(MemoryBudget* budget) {
  if (budget != nullptr) {
    if (budget->nranks() != nranks_) budget->bind(nranks_);
    shared_->budget = budget;
    shared_->mailbox_cap = budget->config().mailbox_limit;
  } else {
    shared_->budget = nullptr;
    shared_->mailbox_cap = 0;
  }
}

MemoryBudget* Runtime::memory_budget() const { return shared_->budget; }

void Runtime::set_metrics(obs::MetricsRegistry* metrics) {
  shared_->metrics = metrics;
  if (metrics != nullptr) {
    shared_->m_latency = metrics->histogram("mpsim_message_latency_seconds");
    shared_->m_payload = metrics->histogram("mpsim_payload_bytes");
    shared_->m_queue = metrics->histogram("mpsim_mailbox_depth");
    shared_->m_retransmits = metrics->counter("mpsim_retransmits");
  } else {
    shared_->m_latency = nullptr;
    shared_->m_payload = nullptr;
    shared_->m_queue = nullptr;
    shared_->m_retransmits = nullptr;
  }
}

obs::MetricsRegistry* Runtime::metrics() const { return shared_->metrics; }

void Runtime::set_sampler(obs::TelemetrySampler* sampler) {
  if (sampler != nullptr) sampler->bind(nranks_);
  shared_->sampler = sampler;
}

obs::TelemetrySampler* Runtime::sampler() const { return shared_->sampler; }

RunStats Runtime::run(const std::function<void(Comm&)>& fn) {
  shared_->reset_for_run();
  if (shared_->tracer != nullptr) shared_->tracer->begin_run();
  FaultInjector* inj = shared_->faults;
  const int max_recoveries = inj != nullptr ? inj->plan().max_recoveries : 0;
  // Injector counters accumulate across runs; snapshot so the stats below
  // report this run's localized-recovery work only.
  const FaultCounts counts_base = inj != nullptr ? inj->counts() : FaultCounts{};

  int attempt = 0;
  double attempt_base = 0.0;  // virtual clock every rank restarts from
  std::vector<Comm> comms;
  for (;;) {
    shared_->attempt = attempt;
    comms.clear();
    comms.reserve(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
      Comm comm(shared_.get(), r);
      comm.attempt_ = attempt;
      comm.vtime_ = attempt_base;
      comm.fault_slow_ = inj != nullptr ? inj->compute_scale(r) : 1.0;
      comm.compute_scale_ = shared_->network.compute_scale * comm.fault_slow_;
      comms.push_back(comm);
    }

    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks_));
    const auto rank_body = [&](int r) {
      Comm& comm = comms[static_cast<std::size_t>(r)];
      for (;;) {
        try {
          fn(comm);
          comm.charge_compute();
          if (obs::TraceRecorder* tracer = shared_->tracer) {
            obs::TraceEvent ev;
            ev.kind = obs::TraceEventKind::kRankDone;
            ev.stage = comm.trace_stage_;
            ev.attempt = comm.attempt_;
            ev.begin = comm.vtime_;
            ev.end = comm.vtime_;
            tracer->record(r, ev);
          }
          if (shared_->sampler != nullptr) {
            shared_->telemetry_sample_self(r, comm.vtime_, detail::kDone);
          }
          shared_->declare_terminated(r, detail::kDone, comm.vtime_);
        } catch (const RankCrashedError&) {
          // Localized recovery: a revivable crash never left this rank —
          // peers saw nothing (fault_comm_event skipped the kFailed
          // declaration) — so repair it in place by replaying the body
          // alone against the retention logs (DESIGN.md §16).
          if (shared_->local_revivable(r, comm.replays_done_)) {
            comm.arm_replay();
            continue;
          }
          errors[static_cast<std::size_t>(r)] = std::current_exception();
          if (shared_->sampler != nullptr) {
            shared_->telemetry_sample_self(r, comm.vtime_, detail::kFailed);
          }
          shared_->declare_terminated(r, detail::kFailed, comm.vtime_);
        } catch (...) {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
          if (shared_->sampler != nullptr) {
            shared_->telemetry_sample_self(r, comm.vtime_, detail::kFailed);
          }
          // Crash paths already declared; anything else terminates here so
          // peers blocked on this rank unwind instead of hanging.
          shared_->declare_terminated(r, detail::kFailed, comm.vtime_);
        }
        return;
      }
    };
    // Fresh scheduler per attempt: recovery restarts every rank on a
    // clean fiber with an empty run queue.
    detail::FiberScheduler fibers(nranks_, sched_);
    shared_->fibers = &fibers;
    const std::function<void(int)> body = rank_body;
    const std::function<void(int)> on_resume = [&](int r) {
      // Slice boundary: re-base the rank's thread-CPU mark on the worker
      // hosting this slice, so CPU burnt by other ranks sharing the
      // worker (or by this rank on a previous worker) is never charged
      // here. This is the clock-slicing rule of DESIGN.md §13.
      comms[static_cast<std::size_t>(r)].last_cpu_ = thread_cpu_seconds();
    };
    const std::function<void()> on_idle = [&] { shared_->idle_poll(); };
    try {
      fibers.run(body, on_resume, on_idle);
    } catch (...) {
      shared_->fibers = nullptr;
      throw;
    }
    shared_->fibers = nullptr;

    // Classify the attempt's errors. Fault-path unwinds (crash, the peer
    // failures and deadlocks it cascades into) are recoverable; anything
    // else is a real error and is rethrown as-is.
    std::exception_ptr real_error, crash_error, fault_error;
    bool crashed = false;
    for (const auto& e : errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const RankCrashedError&) {
        crashed = true;
        if (!crash_error) crash_error = e;
      } catch (const PeerFailureError&) {
        if (!fault_error) fault_error = e;
      } catch (const DeadlockError&) {
        if (!fault_error) fault_error = e;
      } catch (...) {
        if (!real_error) real_error = e;
      }
    }
    if (real_error) {
      if (shared_->sampler != nullptr) shared_->sampler->flush_stream(true);
      std::rethrow_exception(real_error);
    }
    if (!crash_error && !fault_error) break;  // attempt succeeded
    if (crashed && inj != nullptr && attempt < max_recoveries) {
      ++attempt;
      inj->note_recovery(attempt);
      if (obs::Recorder* rec = shared_->recorder) rec->add_counter("fault.recoveries", 1);
      // Survivors restart from the point the recovery decision was made:
      // the latest clock any rank reached (detection charges included).
      for (const Comm& c : comms) attempt_base = std::max(attempt_base, c.vtime_);
      shared_->reset_for_attempt();
      continue;
    }
    if (shared_->sampler != nullptr) shared_->sampler->flush_stream(true);
    std::rethrow_exception(crash_error ? crash_error : fault_error);
  }
  if (shared_->sampler != nullptr) shared_->sampler->flush_stream(true);

  RunStats stats;
  stats.recoveries = attempt;
  stats.rank_time.reserve(comms.size());
  for (auto& c : comms) {
    stats.rank_time.push_back(c.vtime_);
    stats.makespan = std::max(stats.makespan, c.vtime_);
  }
  if (obs::Recorder* rec = shared_->recorder) {
    for (auto& c : comms) {
      obs::SpanEvent ev;
      ev.name = "rank";
      ev.category = "mpsim";
      ev.tid = c.rank_;
      ev.begin = attempt_base;
      ev.end = c.vtime_;
      rec->record_span(std::move(ev));
    }
  }
  stats.remote_messages = shared_->remote_messages.load();
  stats.remote_bytes = shared_->remote_bytes.load();
  if (inj != nullptr) {
    const FaultCounts now = inj->counts();
    stats.rank_replays = now.rank_replays - counts_base.rank_replays;
    stats.refetched_segments = now.refetches - counts_base.refetches;
    stats.refetched_bytes = now.refetch_bytes - counts_base.refetch_bytes;
  }
  return stats;
}

}  // namespace papar::mp
