// papar_chaos — chaos/soak harness for the resource-governance layer.
//
// Composes the deterministic fault injector (DESIGN.md §10) with memory
// budgets (DESIGN.md §12) and skewed inputs over the paper's two case-study
// workloads, and asserts the robustness contract on every cell of the
// matrix:
//
//   fault plan × memory budget × skew seed × workload
//     -> either the run completes and its partitions are byte-identical to
//        the fault-free, unbudgeted baseline,
//     -> or it fails with a *typed* papar error (BudgetExceededError for
//        budgets that genuinely cannot fit, DataError/RuntimeApiError for
//        unrecoverable fault schedules).
//
// Anything else — a digest mismatch, an untyped exception, an OOM kill, a
// hang — fails the harness. Budgets are derived from a measured
// high-water probe of each workload (generous = 2x peak, tight = peak/4,
// tiny = peak/16), so the matrix stays meaningful as the workloads evolve.
// The harness also checks that its private spill directory is empty after
// every cell: spill files must never outlive the operation that wrote
// them, even on the error paths.
//
// A second matrix exercises localized crash recovery (DESIGN.md §16): a
// fail-stop crash placed proportionally at every stage of both workflows,
// crossed with {1 worker FIFO, 4 workers seeded} fiber schedules x {local,
// stage} recovery, must finish byte-identical — and `local` must do it by
// replaying only the crashed rank (rank replays observed, zero full-stage
// recoveries).
// Two more cells per workload force the degradation ladder (retention
// eviction under a starved cap falls back to full-stage replay) and soak
// the end-to-end integrity checking (corrupt=0.01 bit-flips, every one
// detected and repaired).
//
// Usage: papar_chaos [--quick] [--nodes N] [--seeds N] [--verbose]
//
//   --quick    small inputs and one seed per workload (the soak-smoke
//              ctest cell); without it the full matrix runs at example
//              scale with three seeds.
//   --verbose  print every cell, not just failures and the summary.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "blast/generator.hpp"
#include "blast/partitioner.hpp"
#include "core/engine.hpp"
#include "graph/generator.hpp"
#include "graph/papar_hybrid.hpp"
#include "mpsim/fault.hpp"
#include "util/error.hpp"
#include "util/membudget.hpp"
#include "util/parse.hpp"

namespace {

using namespace papar;

struct ChaosOptions {
  bool quick = false;
  bool verbose = false;
  int nodes = 4;
  int seeds = 3;
};

/// FNV-1a over the partition assignment; the "byte-identical" check is one
/// u64 per run.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void mix_value(const T& v) {
    mix(&v, sizeof(v));
  }
};

/// One workload run: digest of the output plus the run's memory and
/// fault/recovery tallies.
struct RunOutcome {
  std::uint64_t digest = 0;
  obs::MemoryStats memory;
  obs::FaultStats faults;
};

/// `nranks` is the simulated rank count; the partition count stays tied to
/// opt.nodes so digests are comparable across rank counts (the fiber soak
/// below runs the same cells at hundreds of ranks).
using Workload = std::function<RunOutcome(std::uint64_t seed, int nranks,
                                          core::EngineOptions options,
                                          mp::FaultInjector* faults)>;

Workload make_hybrid_workload(const ChaosOptions& opt) {
  const graph::VertexId vertices = opt.quick ? 2000 : 20000;
  const std::size_t edges = opt.quick ? 20000 : 200000;
  const int nodes = opt.nodes;
  return [=](std::uint64_t seed, int nranks, core::EngineOptions options,
             mp::FaultInjector* faults) {
    graph::ZipfGraphOptions gopt;
    gopt.num_vertices = vertices;
    gopt.num_edges = edges;
    gopt.zipf_s = 1.25;
    gopt.seed = seed;
    const graph::Graph g = graph::generate_zipf(gopt);
    const auto result = graph::papar_hybrid_cut(
        g, nranks, static_cast<std::size_t>(nodes), /*threshold=*/64,
        std::move(options), mp::NetworkModel::rdma(), faults);
    RunOutcome out;
    Digest d;
    for (const std::uint32_t p : result.partitioning.edge_partition) d.mix_value(p);
    out.digest = d.h;
    out.memory = result.report.memory;
    out.faults = result.report.faults;
    return out;
  };
}

Workload make_blast_workload(const ChaosOptions& opt) {
  const std::size_t sequences = opt.quick ? 4000 : 20000;
  const int nodes = opt.nodes;
  return [=](std::uint64_t seed, int nranks, core::EngineOptions options,
             mp::FaultInjector* faults) {
    blast::GeneratorOptions gopt = blast::env_nr_like();
    gopt.sequence_count = sequences;
    gopt.seed = seed;
    const blast::Database db = blast::generate_database(gopt);
    const auto result = blast::partition_with_papar(
        db, nranks, static_cast<std::size_t>(nodes) * 2, blast::Policy::kCyclic,
        std::move(options), mp::NetworkModel::rdma(), faults);
    RunOutcome out;
    Digest d;
    for (const auto& part : result.partitions.partitions) {
      for (const auto& entry : part) {
        d.mix_value(entry.seq_start);
        d.mix_value(entry.seq_size);
        d.mix_value(entry.desc_start);
        d.mix_value(entry.desc_size);
      }
    }
    out.digest = d.h;
    out.memory = result.report.memory;
    out.faults = result.report.faults;
    return out;
  };
}

struct Tally {
  int completed = 0;
  int typed_budget = 0;   // BudgetExceededError (budget genuinely too small)
  int typed_other = 0;    // other papar::Error (unrecoverable fault schedule)
  int failed = 0;         // digest mismatch / untyped exception / leaked files
  std::uint64_t spill_bytes = 0;
  std::uint64_t backpressure_stalls = 0;
  // Localized-recovery matrix activity (all must end up nonzero).
  std::uint64_t rank_replays = 0;
  std::uint64_t segments_refetched = 0;
  std::uint64_t retention_evictions = 0;
  std::uint64_t corruptions = 0;
};

/// A budget tier of the matrix, derived from the workload's measured peak.
struct BudgetTier {
  const char* name;
  std::size_t bytes;  // 0 = ungoverned
};

bool spill_dir_clean(const std::filesystem::path& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return true;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    (void)entry;
    return false;
  }
  return !ec;
}

int run_chaos(int argc, char** argv) {
  ChaosOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError("missing value after " + flag);
      return argv[++i];
    };
    if (flag == "--quick") {
      opt.quick = true;
    } else if (flag == "--verbose") {
      opt.verbose = true;
    } else if (flag == "--nodes") {
      opt.nodes = parse_number<int>(next(), "--nodes");
    } else if (flag == "--seeds") {
      opt.seeds = parse_number<int>(next(), "--seeds");
    } else if (flag == "--help" || flag == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--nodes N] [--seeds N] [--verbose]\n",
                   argv[0]);
      return 0;
    } else {
      throw ConfigError("unknown flag `" + flag + "`");
    }
  }
  if (opt.nodes < 2) throw ConfigError("--nodes must be >= 2");
  if (opt.seeds < 1) throw ConfigError("--seeds must be >= 1");
  if (opt.quick) opt.seeds = 1;

  const std::vector<std::pair<const char*, Workload>> workloads = {
      {"hybrid", make_hybrid_workload(opt)},
      {"blast", make_blast_workload(opt)},
  };
  // Fault plans stress distinct recovery paths: lossy fabric (retransmit),
  // reordering/duplication (dedup), and mid-run crashes (checkpoint
  // recovery) — alone and combined with drops.
  const std::vector<std::pair<const char*, const char*>> plans = {
      {"none", ""},
      {"drop", "drop=0.05"},
      {"dup+delay", "dup=0.02,delay=0.05"},
      {"crash", "crash=1@40"},
      {"crash+drop", "drop=0.03,crash=1@60"},
  };

  const std::filesystem::path spill_root =
      std::filesystem::temp_directory_path() /
      ("papar-chaos-" + std::to_string(static_cast<long>(::getpid())));

  Tally tally;
  for (const auto& [wl_name, workload] : workloads) {
    for (int s = 0; s < opt.seeds; ++s) {
      const std::uint64_t seed = 1 + static_cast<std::uint64_t>(s) * 7919;

      // Baseline digest (no faults, no budget) and high-water probe (a
      // generous budget that neither spills nor throws, but measures the
      // peak so the tight tiers mean the same thing on every workload).
      const RunOutcome baseline = workload(seed, opt.nodes, {}, nullptr);
      core::EngineOptions probe_options;
      probe_options.mem_budget = std::size_t{1} << 30;
      probe_options.spill_dir = (spill_root / "probe").string();
      const RunOutcome probe = workload(seed, opt.nodes, probe_options, nullptr);
      if (probe.digest != baseline.digest) {
        std::fprintf(stderr, "FAIL %s seed=%llu: probe digest mismatch\n",
                     wl_name, static_cast<unsigned long long>(seed));
        ++tally.failed;
        continue;
      }
      const std::size_t peak = probe.memory.high_water_bytes;
      const std::vector<BudgetTier> tiers = {
          {"off", 0},
          {"generous", peak * 2},
          {"tight", peak / 4},
          {"tiny", peak / 16},
      };

      for (const auto& [plan_name, plan_spec] : plans) {
        for (const auto& tier : tiers) {
          core::EngineOptions options;
          options.mem_budget = tier.bytes;
          const std::filesystem::path cell_dir =
              spill_root / (std::string(wl_name) + "-" + plan_name + "-" + tier.name);
          if (tier.bytes > 0) options.spill_dir = cell_dir.string();

          std::optional<mp::FaultInjector> injector;
          if (*plan_spec != '\0') {
            mp::FaultPlan plan = mp::FaultPlan::parse_arg(plan_spec);
            plan.seed = seed;
            injector.emplace(plan);
          }

          const char* status = nullptr;
          std::string detail;
          try {
            const RunOutcome run =
                workload(seed, opt.nodes, options, injector ? &*injector : nullptr);
            tally.spill_bytes += run.memory.spill_bytes;
            tally.backpressure_stalls += run.memory.backpressure_stalls;
            if (run.digest == baseline.digest) {
              status = "ok";
              ++tally.completed;
            } else {
              status = "FAIL(digest)";
              ++tally.failed;
            }
          } catch (const BudgetExceededError& e) {
            status = "typed(budget)";
            detail = e.what();
            ++tally.typed_budget;
          } catch (const papar::Error& e) {
            status = "typed";
            detail = e.what();
            ++tally.typed_other;
          } catch (const std::exception& e) {
            status = "FAIL(untyped)";
            detail = e.what();
            ++tally.failed;
          }
          // Spill files must not outlive the run, success or failure.
          if (!spill_dir_clean(cell_dir)) {
            status = "FAIL(leaked spill files)";
            ++tally.failed;
          }
          const bool failure = std::strncmp(status, "FAIL", 4) == 0;
          if (opt.verbose || failure) {
            std::fprintf(stderr, "%-24s %s seed=%llu faults=%-10s budget=%-8s (%zu B)%s%s\n",
                         status, wl_name, static_cast<unsigned long long>(seed),
                         plan_name, tier.name, tier.bytes,
                         detail.empty() ? "" : " — ", detail.c_str());
          }
        }
      }
    }
  }

  // Fiber-scheduler soak: the same workloads multiplexed over 4 workers at
  // hundreds of ranks, with a lossy-fabric-plus-crash plan, must still be
  // byte-identical to the few-rank baseline. This is the scale
  // regime where the wall-clock watchdogs the virtual-deadline conversion
  // replaced would have fired spuriously (256 ranks time-sharing 4 workers
  // make real elapsed time meaningless as a progress signal).
  const int soak_ranks = opt.quick ? 64 : 256;
  for (const auto& [wl_name, workload] : workloads) {
    const std::uint64_t seed = 1;
    const RunOutcome baseline = workload(seed, opt.nodes, {}, nullptr);
    core::EngineOptions options;
    options.scheduler.workers = 4;
    options.scheduler.seed = seed;
    mp::FaultPlan plan = mp::FaultPlan::parse_arg("drop=0.03,crash=1@60");
    plan.seed = seed;
    mp::FaultInjector injector(plan);
    const char* status = nullptr;
    std::string detail;
    try {
      const RunOutcome run = workload(seed, soak_ranks, options, &injector);
      if (run.digest == baseline.digest) {
        status = "ok";
        ++tally.completed;
      } else {
        status = "FAIL(digest)";
        ++tally.failed;
      }
    } catch (const papar::Error& e) {
      status = "FAIL(error)";
      detail = e.what();
      ++tally.failed;
    } catch (const std::exception& e) {
      status = "FAIL(untyped)";
      detail = e.what();
      ++tally.failed;
    }
    const bool failure = std::strncmp(status, "FAIL", 4) == 0;
    if (opt.verbose || failure) {
      std::fprintf(stderr, "%-24s %s fiber-soak ranks=%d workers=4 faults=crash+drop%s%s\n",
                   status, wl_name, soak_ranks,
                   detail.empty() ? "" : " — ", detail.c_str());
    }
  }

  // -- Localized-recovery matrix (DESIGN.md §16) ------------------------------
  //
  // Crash points are placed proportionally over the crash rank's measured
  // communication-event count, so they land in every stage of the workflow
  // (input distribution, map/shuffle, sort/group, output collection) no
  // matter how the workloads evolve. Every cell must finish byte-identical
  // to its fault-free baseline; `recovery=local` must additionally repair
  // the crash with single-rank replays only (zero full-stage recoveries).
  struct RecoveryCell {
    const char* sched;
    int workers;
    bool seeded;  // seeded-random run queue instead of FIFO
  };
  const std::vector<RecoveryCell> recovery_cells = {
      {"fibers/1w", 1, false},
      {"fibers/4w", 4, true},
  };
  const std::vector<double> crash_points =
      opt.quick ? std::vector<double>{0.1, 0.5, 0.9}
                : std::vector<double>{0.05, 0.3, 0.55, 0.8, 0.95};
  const int crash_rank = 1;
  for (const auto& [wl_name, workload] : workloads) {
    const std::uint64_t seed = 1;
    for (const auto& cell : recovery_cells) {
      const auto cell_options = [&]() {
        core::EngineOptions o;
        o.scheduler.workers = cell.workers;
        if (cell.seeded) o.scheduler.seed = seed;
        return o;
      };
      const RunOutcome baseline = workload(seed, opt.nodes, cell_options(), nullptr);
      // Benign injector (no faults drawn) to count the crash rank's events.
      mp::FaultPlan probe_plan = mp::FaultPlan::parse("seed=1");
      mp::FaultInjector probe_inj(probe_plan);
      const RunOutcome probe = workload(seed, opt.nodes, cell_options(), &probe_inj);
      const std::uint64_t total_events = probe_inj.event_count(crash_rank);
      if (probe.digest != baseline.digest || total_events == 0) {
        std::fprintf(stderr, "FAIL %s recovery probe (%s): %s\n", wl_name, cell.sched,
                     total_events == 0 ? "no events on crash rank"
                                       : "probe digest mismatch");
        ++tally.failed;
        continue;
      }
      for (const char* mode_name : {"local", "stage"}) {
        for (const double frac : crash_points) {
          const std::uint64_t at = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(static_cast<double>(total_events) * frac));
          mp::FaultPlan plan = mp::FaultPlan::parse(
              "crash=" + std::to_string(crash_rank) + "@" + std::to_string(at));
          plan.seed = seed;
          mp::FaultInjector injector(plan);
          core::EngineOptions options = cell_options();
          options.recovery.mode = mp::parse_recovery_mode(mode_name);

          const char* status = nullptr;
          std::string detail;
          try {
            const RunOutcome run =
                workload(seed, opt.nodes, options, &injector);
            tally.rank_replays += run.faults.rank_replays;
            tally.segments_refetched += run.faults.segments_refetched;
            if (run.digest != baseline.digest) {
              status = "FAIL(digest)";
              ++tally.failed;
            } else if (options.recovery.mode == mp::RecoveryMode::kLocal &&
                       (run.faults.rank_replays == 0 || run.faults.recoveries != 0)) {
              status = "FAIL(not localized)";
              detail = std::to_string(run.faults.rank_replays) + " replays, " +
                       std::to_string(run.faults.recoveries) + " stage recoveries";
              ++tally.failed;
            } else {
              status = "ok";
              ++tally.completed;
            }
          } catch (const papar::Error& e) {
            status = "FAIL(error)";
            detail = e.what();
            ++tally.failed;
          } catch (const std::exception& e) {
            status = "FAIL(untyped)";
            detail = e.what();
            ++tally.failed;
          }
          const bool failure = std::strncmp(status, "FAIL", 4) == 0;
          if (opt.verbose || failure) {
            std::fprintf(stderr,
                         "%-24s %s recovery=%-6s crash=%d@%llu (%.0f%%) %s%s%s\n",
                         status, wl_name, mode_name, crash_rank,
                         static_cast<unsigned long long>(at), frac * 100.0,
                         cell.sched, detail.empty() ? "" : " — ",
                         detail.c_str());
          }
        }
      }
    }

    // Degradation ladder: a 1-byte retention cap with the spool pointed at
    // an unwritable path evicts the window at the first consumed segment of
    // every stage. A crash then finds retention gone (or loses the race and
    // arms a replay that runs dry mid-flight) and must fall back to the
    // full-stage ladder rung — still byte-identical. Whether a given crash
    // point lands before or after the stage's first consumption depends on
    // the schedule, so the degrade evidence (evictions + stage recoveries)
    // is asserted over the whole sweep, and every run must keep the digest.
    {
      const RunOutcome baseline = workload(seed, opt.nodes, {}, nullptr);
      mp::FaultPlan probe_plan = mp::FaultPlan::parse("seed=1");
      mp::FaultInjector probe_inj(probe_plan);
      (void)workload(seed, opt.nodes, {}, &probe_inj);
      const std::uint64_t total_events = probe_inj.event_count(crash_rank);
      std::uint64_t evictions = 0;
      std::uint64_t degrades = 0;
      const char* status = "ok";
      std::string detail;
      for (const double frac : {0.3, 0.5, 0.7}) {
        const std::uint64_t at = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(total_events) * frac));
        mp::FaultPlan plan = mp::FaultPlan::parse(
            "crash=" + std::to_string(crash_rank) + "@" + std::to_string(at));
        plan.seed = seed;
        mp::FaultInjector injector(plan);
        core::EngineOptions options;
        options.recovery.mode = mp::RecoveryMode::kLocal;
        options.recovery.retention_limit = 1;
        options.recovery.retention_spill_dir = "/dev/null/papar-retention";
        try {
          const RunOutcome run = workload(seed, opt.nodes, options, &injector);
          evictions += run.faults.retention_evictions;
          degrades += run.faults.recoveries;
          if (run.digest != baseline.digest) {
            status = "FAIL(digest)";
            detail = "crash at " + std::to_string(at);
          }
        } catch (const papar::Error& e) {
          status = "FAIL(error)";
          detail = e.what();
        } catch (const std::exception& e) {
          status = "FAIL(untyped)";
          detail = e.what();
        }
      }
      tally.retention_evictions += evictions;
      if (std::strncmp(status, "FAIL", 4) == 0) {
        ++tally.failed;
      } else if (evictions == 0 || degrades == 0) {
        status = "FAIL(no degrade)";
        detail = std::to_string(evictions) + " evictions, " +
                 std::to_string(degrades) + " stage recoveries";
        ++tally.failed;
      } else {
        ++tally.completed;
      }
      const bool failure = std::strncmp(status, "FAIL", 4) == 0;
      if (opt.verbose || failure) {
        std::fprintf(stderr, "%-24s %s recovery=local starved retention%s%s\n",
                     status, wl_name, detail.empty() ? "" : " — ",
                     detail.c_str());
      }
    }

    // Integrity soak: corrupt=0.01 flips one payload bit in ~1% of
    // deliveries. Every flip must be caught by the transport CRC32C and
    // repaired (counted in faults.corruptions); an undetected corruption
    // would surface as a digest mismatch and fail the harness. Sixteen
    // ranks give the 1% draw a few hundred deliveries to land in (the
    // partition count stays tied to opt.nodes, so the digest is comparable
    // to the few-rank baseline).
    {
      const int soak_nranks = 16;
      const RunOutcome baseline = workload(seed, opt.nodes, {}, nullptr);
      mp::FaultPlan plan = mp::FaultPlan::parse("corrupt=0.01");
      plan.seed = seed;
      mp::FaultInjector injector(plan);

      const char* status = nullptr;
      std::string detail;
      try {
        const RunOutcome run = workload(seed, soak_nranks, {}, &injector);
        tally.corruptions += run.faults.corruptions;
        if (run.digest != baseline.digest) {
          status = "FAIL(digest)";
          ++tally.failed;
        } else if (run.faults.corruptions == 0) {
          status = "FAIL(no corruptions drawn)";
          ++tally.failed;
        } else {
          status = "ok";
          ++tally.completed;
        }
      } catch (const papar::Error& e) {
        status = "FAIL(error)";
        detail = e.what();
        ++tally.failed;
      } catch (const std::exception& e) {
        status = "FAIL(untyped)";
        detail = e.what();
        ++tally.failed;
      }
      const bool failure = std::strncmp(status, "FAIL", 4) == 0;
      if (opt.verbose || failure) {
        std::fprintf(stderr, "%-24s %s corrupt=0.01 soak%s%s\n", status,
                     wl_name, detail.empty() ? "" : " — ", detail.c_str());
      }
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(spill_root, ec);

  std::fprintf(stderr,
               "papar_chaos: %d completed byte-identical, %d typed budget "
               "failures, %d typed fault failures, %d hard failures; "
               "%llu B spilled, %llu backpressure stalls; "
               "%llu rank replays, %llu segments re-fetched, "
               "%llu retention evictions, %llu corruptions repaired\n",
               tally.completed, tally.typed_budget, tally.typed_other,
               tally.failed, static_cast<unsigned long long>(tally.spill_bytes),
               static_cast<unsigned long long>(tally.backpressure_stalls),
               static_cast<unsigned long long>(tally.rank_replays),
               static_cast<unsigned long long>(tally.segments_refetched),
               static_cast<unsigned long long>(tally.retention_evictions),
               static_cast<unsigned long long>(tally.corruptions));
  // The probe's high-water mark moves a little with scheduling, so whether
  // a tight tier spills or throws varies run to run — but one of the two
  // must happen, or the tiers stopped exercising the budget entirely.
  if (tally.spill_bytes == 0 && tally.typed_budget == 0) {
    std::fprintf(stderr, "papar_chaos: FAIL — no cell engaged the spill or "
                         "budget-failure path; the tight tiers are not "
                         "exercising the budget\n");
    return 1;
  }
  if (tally.rank_replays == 0 || tally.segments_refetched == 0) {
    std::fprintf(stderr, "papar_chaos: FAIL — the recovery matrix never "
                         "engaged single-rank replay\n");
    return 1;
  }
  if (tally.completed == 0) {
    std::fprintf(stderr, "papar_chaos: FAIL — no cell completed\n");
    return 1;
  }
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_chaos(argc, argv);
  } catch (const papar::Error& e) {
    std::fprintf(stderr, "papar_chaos: %s\n", e.what());
    return 1;
  }
}
