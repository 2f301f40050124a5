// papar — the command-line driver of the framework.
//
// Takes the two configuration files the paper defines as the user
// interface, binds launch-time arguments, runs the workflow on a simulated
// cluster, and writes one output file per partition in the input's own
// format (binary with the 32-byte header position preserved, or delimited
// text).
//
// Usage (one command line, wrapped here):
//
//   papar --input-config configs/blast_db.xml
//         --workflow configs/blast_partition.xml
//         --arg input_path=db.index --arg output_path=out/part
//         --arg num_partitions=32
//         --file db.index=./my_database.index
//         --nodes 16 [--workers 4]
//         [--compress] [--naive-splitters] [--stats]
//         [--trace trace.json] [--metrics out.prom]
//         [--telemetry live.jsonl] [--flight-rec out/flight]
//         [--faults "drop=0.05,crash=1@40" | --faults faults.conf]
//         [--fault-seed 7] [--ckpt-dir out/ckpt]
//         [--recovery stage|local] [--retry-max N] [--retry-backoff S]
//         [--mem-budget 64m] [--spill-dir out/spill]
//
// Every --arg name=value binds a workflow argument; every --file key=path
// loads a file for an input whose resolved path equals `key`. Partition p
// is written to <output_path>.<p>.
//
// All progress and analysis output goes to stderr; stdout carries nothing,
// so `papar ... | tool` never sees log noise, and the --trace/--metrics
// artifacts land in their own files.
//
// --stats prints the per-operator stage table (virtual seconds, shuffle
// traffic, records, reducer skew) plus the causal analyses (critical path,
// per-stage load balance) to stderr. --trace writes a Chrome trace_event
// file loadable in chrome://tracing or Perfetto — messages render as flow
// arrows between rank tracks — with the full event graph, stage report, and
// metrics summary embedded under the "papar" key for `papar_trace`.
// --metrics writes the counter/histogram registry (message latency, payload
// size, mailbox depth, retransmits, plus run counters) in Prometheus text
// exposition format.
//
// Simulated nodes run as rank fibers over a pool of --workers OS threads
// (default: one per hardware thread, at most one per rank). The worker
// count changes timing only: partitions are byte-identical under every
// count. --scheduler exists for old command lines and accepts only
// `fibers`. Local sorts dispatch on size: key columns of at least 8192
// records take the LSD radix path, smaller ones the network-leaf
// mergesort; the papar_sort_* series in --metrics report the decisions
// taken. The shuffle always ships the framed page bytes as they are
// (papar_mr_shuffle_* series).
//
// --faults enables deterministic fault injection (see DESIGN.md §10): the
// value is either an inline spec like "drop=0.05,dup=0.01,crash=1@40" or a
// path to a file holding the same keys one per line. --fault-seed overrides
// the spec's seed so one spec can be replayed under many seeds. With faults
// on, the engine checkpoints inter-job state at every stage boundary and
// recovers crashed stages automatically; --ckpt-dir additionally spills
// each checkpoint blob to disk.
//
// --recovery picks the crash-recovery strategy (DESIGN.md §16): `stage`
// (the default) re-executes the interrupted stage on every rank; `local`
// repairs a crash by replaying only the crashed rank against retained
// shuffle segments, degrading back to full-stage recovery when retention
// was evicted or --retry-max single-rank replays are exhausted.
// --retry-backoff sets the base virtual-time backoff (seconds) charged
// before each replay / corruption retransmission.
//
// --telemetry streams one dashboard frame per line (JSONL) to the given
// file while the run executes; `papar_top <file>` tails it live or replays
// it afterwards. --flight-rec names a directory: on a typed failure
// (deadlock, budget breach, peer failure, timeout) the engine dumps the
// last N telemetry samples per rank plus the error into
// <dir>/flight.json, which `papar_top` replays offline.
//
// --mem-budget caps each simulated rank's tracked working memory (sizes
// accept k/m/g suffixes). Past the 80% soft watermark the shuffle and sort
// phases spill to disk (--spill-dir, default under the system temp dir) and
// mailboxes run under credit-based flow control; runs that truly cannot fit
// fail with a typed BudgetExceededError, never an OOM kill or a hang. The
// papar_mem_* series in --metrics reports spill volume, watermark
// crossings, and backpressure stalls.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "mpsim/fault.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "xml/xml.hpp"

namespace {

using namespace papar;

struct CliOptions {
  std::string input_config;
  std::vector<std::string> extra_input_configs;
  std::string workflow;
  std::map<std::string, std::string> args;
  std::map<std::string, std::string> files;  // resolved path -> disk path
  int nodes = 4;
  core::EngineOptions engine;
  bool stats = false;
  std::string trace_path;
  std::string metrics_path;
  std::string faults;  // inline spec or file path; empty = faults off
  std::optional<std::uint64_t> fault_seed;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --input-config <xml> [--input-config <xml>...]\n"
               "          --workflow <xml>\n"
               "          --arg name=value [...] --file key=path [...]\n"
               "          [--nodes N | --ranks N] [--workers N]\n"
               "          [--scheduler fibers]\n"
               "          [--compress] [--naive-splitters] [--stats]\n"
               "          [--trace <file>] [--metrics <file>]\n"
               "          [--telemetry <file>] [--flight-rec <dir>]\n"
               "          [--faults <spec|file>] [--fault-seed N]\n"
               "          [--ckpt-dir <dir>]\n"
               "          [--recovery stage|local] [--retry-max N]\n"
               "          [--retry-backoff <seconds>]\n"
               "          [--mem-budget <size>] [--spill-dir <dir>]\n",
               argv0);
}

std::pair<std::string, std::string> split_kv(const std::string& s, const char* what) {
  const auto eq = s.find('=');
  if (eq == std::string::npos) {
    throw ConfigError(std::string(what) + " expects name=value, got `" + s + "`");
  }
  return {s.substr(0, eq), s.substr(eq + 1)};
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError("missing value after " + flag);
      return argv[++i];
    };
    if (flag == "--input-config") {
      if (opt.input_config.empty()) opt.input_config = next();
      else opt.extra_input_configs.push_back(next());
    } else if (flag == "--workflow") {
      opt.workflow = next();
    } else if (flag == "--arg") {
      const auto [k, v] = split_kv(next(), "--arg");
      opt.args[k] = v;
    } else if (flag == "--file") {
      const auto [k, v] = split_kv(next(), "--file");
      opt.files[k] = v;
    } else if (flag == "--nodes" || flag == "--ranks") {
      // --ranks is an alias: rank fibers make the simulated node count
      // independent of host threads.
      opt.nodes = parse_number<int>(next(), flag.c_str());
    } else if (flag == "--scheduler") {
      opt.engine.scheduler.mode = mp::parse_scheduler_mode(next());
    } else if (flag == "--workers") {
      opt.engine.scheduler.workers = parse_number<int>(next(), "--workers");
    } else if (flag == "--faults") {
      opt.faults = next();
    } else if (flag == "--fault-seed") {
      opt.fault_seed = parse_number<std::uint64_t>(next(), "--fault-seed");
    } else if (flag == "--ckpt-dir") {
      opt.engine.checkpoint_dir = next();
    } else if (flag == "--recovery") {
      opt.engine.recovery.mode = mp::parse_recovery_mode(next());
    } else if (flag == "--retry-max") {
      opt.engine.recovery.retry.max_attempts =
          parse_number<int>(next(), "--retry-max");
    } else if (flag == "--retry-backoff") {
      opt.engine.recovery.retry.backoff_base =
          parse_number<double>(next(), "--retry-backoff");
    } else if (flag == "--mem-budget") {
      opt.engine.mem_budget = parse_byte_size(next(), "--mem-budget");
    } else if (flag == "--spill-dir") {
      opt.engine.spill_dir = next();
    } else if (flag == "--compress") {
      opt.engine.compress_packed = true;
    } else if (flag == "--naive-splitters") {
      opt.engine.splitter = mr::SplitterMethod::kNaive;
    } else if (flag == "--stats") {
      opt.stats = true;
    } else if (flag == "--trace") {
      opt.trace_path = next();
    } else if (flag == "--metrics") {
      opt.metrics_path = next();
    } else if (flag == "--telemetry") {
      opt.engine.telemetry_stream = next();
      opt.engine.telemetry = true;
    } else if (flag == "--flight-rec") {
      opt.engine.flight_rec_dir = next();
      opt.engine.telemetry = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      throw ConfigError("unknown flag `" + flag + "`");
    }
  }
  if (opt.input_config.empty() || opt.workflow.empty()) {
    usage(argv[0]);
    throw ConfigError("--input-config and --workflow are required");
  }
  if (opt.nodes < 1) throw ConfigError("--nodes must be >= 1");
  return opt;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DataError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Writes partition `p` in the output format implied by the spec used for
/// the workflow's output argument (binary keeps the header gap; text joins
/// records with their schema delimiters).
void write_partition(const std::string& path, const schema::Schema& out_schema,
                     const std::vector<std::string>& records,
                     const std::map<std::string, schema::InputSpec>& specs) {
  // Find a spec whose schema matches the output schema to learn the kind
  // and header position; default to binary with no header.
  schema::InputKind kind = out_schema.fixed_width() ? schema::InputKind::kBinary
                                                    : schema::InputKind::kText;
  std::size_t start = 0;
  for (const auto& [id, spec] : specs) {
    if (spec.schema == out_schema) {
      kind = spec.kind;
      start = spec.start_position;
      break;
    }
  }
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw DataError("cannot open output file " + path);
  if (kind == schema::InputKind::kBinary) {
    const std::string header(start, '\0');
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    for (const auto& wire : records) {
      out.write(wire.data(), static_cast<std::streamsize>(wire.size()));
    }
  } else {
    for (const auto& wire : records) {
      const auto rec = schema::Record::decode(out_schema, wire);
      const std::string line = schema::format_text_record(out_schema, rec);
      out.write(line.data(), static_cast<std::streamsize>(line.size()));
    }
  }
  if (!out) throw DataError("write failed: " + path);
}

int run(int argc, char** argv) {
  const CliOptions opt = parse_cli(argc, argv);

  // Load configurations.
  std::map<std::string, schema::InputSpec> specs;
  auto add_spec = [&](const std::string& path) {
    auto spec = schema::load_input_spec(path);
    specs[spec.id] = std::move(spec);
  };
  add_spec(opt.input_config);
  for (const auto& path : opt.extra_input_configs) add_spec(path);
  auto wf = core::load_workflow(opt.workflow);
  std::fprintf(stderr, "papar: workflow `%s` (%zu operators), %d simulated nodes\n",
               wf.name.c_str(), wf.operators.size(), opt.nodes);

  core::WorkflowEngine engine(std::move(wf), specs, opt.args, opt.engine);

  // Load input files from disk.
  std::map<std::string, std::string> contents;
  for (const auto& [key, path] : opt.files) {
    contents[key] = slurp(path);
    std::fprintf(stderr, "papar: loaded %s (%zu bytes) as `%s`\n", path.c_str(),
                 contents[key].size(), key.c_str());
  }

  mp::Runtime runtime(opt.nodes, mp::NetworkModel::rdma(), opt.engine.scheduler);
  obs::Recorder recorder;
  obs::TraceRecorder tracer;
  obs::MetricsRegistry metrics;
  // Any observability request wants the full causal picture: the event
  // graph feeds --stats' analyses and the --trace artifact; the registry
  // feeds --metrics and the trace's embedded summary.
  const bool observing = !opt.trace_path.empty() || !opt.metrics_path.empty() || opt.stats;
  if (observing) {
    runtime.set_recorder(&recorder);
    runtime.set_tracer(&tracer);
    runtime.set_metrics(&metrics);
  }
  std::optional<mp::FaultInjector> injector;
  if (!opt.faults.empty()) {
    mp::FaultPlan plan = mp::FaultPlan::parse_arg(opt.faults);
    if (opt.fault_seed) plan.seed = *opt.fault_seed;
    injector.emplace(plan);
    runtime.set_fault_injector(&*injector);
    std::fprintf(stderr, "papar: fault injection on (%s)\n", plan.to_string().c_str());
  }
  const auto result = engine.run(runtime, contents);
  runtime.set_recorder(nullptr);
  runtime.set_tracer(nullptr);
  runtime.set_metrics(nullptr);
  runtime.set_fault_injector(nullptr);
  // Fold the run's span-recorder counters (traffic per collective kind,
  // fault/checkpoint tallies) into the registry so one artifact carries
  // everything.
  if (observing) {
    for (const auto& [name, value] : recorder.counters()) metrics.inc(name, value);
  }

  // Write partitions next to the resolved output path.
  const std::string out_base = engine.resolve("$output_path");
  for (std::size_t p = 0; p < result.partitions.size(); ++p) {
    const std::string path = out_base + "." + std::to_string(p);
    write_partition(path, result.schema, result.partitions[p], specs);
  }
  std::fprintf(stderr, "papar: wrote %zu partitions (%zu records) to %s.*\n",
               result.partitions.size(), result.total_records(), out_base.c_str());
  if (opt.stats) {
    std::fprintf(stderr,
                 "papar: simulated partitioning time %.4f s (output excluded), "
                 "shuffle %.2f MB in %llu messages\n",
                 result.stats.makespan,
                 static_cast<double>(result.stats.remote_bytes) / 1e6,
                 static_cast<unsigned long long>(result.stats.remote_messages));
    result.report.print(stderr);
    const obs::TraceData graph = tracer.snapshot();
    const obs::CriticalPath path = obs::critical_path(graph);
    obs::print_critical_path(stderr, path, graph);
    obs::print_skew_table(stderr, graph);
  }
  if (injector) {
    const mp::FaultCounts fc = injector->counts();
    std::fprintf(stderr,
                 "papar: faults injected: %llu drops, %llu dups, %llu delays, "
                 "%llu corruptions, %llu crashes; %llu retries, "
                 "%llu detections, %d recoveries\n",
                 static_cast<unsigned long long>(fc.drops),
                 static_cast<unsigned long long>(fc.duplicates),
                 static_cast<unsigned long long>(fc.delays),
                 static_cast<unsigned long long>(fc.corruptions),
                 static_cast<unsigned long long>(fc.crashes),
                 static_cast<unsigned long long>(fc.retries),
                 static_cast<unsigned long long>(fc.detections),
                 result.stats.recoveries);
    if (fc.rank_replays || fc.refetches || fc.retention_evictions) {
      std::fprintf(
          stderr,
          "papar: localized recovery: %llu rank replays, %llu segments "
          "re-fetched (%llu bytes), %llu retention evictions\n",
          static_cast<unsigned long long>(fc.rank_replays),
          static_cast<unsigned long long>(fc.refetches),
          static_cast<unsigned long long>(fc.refetch_bytes),
          static_cast<unsigned long long>(fc.retention_evictions));
    }
  }
  if (!opt.trace_path.empty()) {
    const obs::TraceData graph = tracer.snapshot();
    obs::write_chrome_trace(opt.trace_path, graph, &recorder, &result.report, &metrics);
    std::fprintf(stderr, "papar: wrote %zu trace events + %zu spans to %s\n",
                 graph.event_count(), recorder.span_count(), opt.trace_path.c_str());
  }
  if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path, std::ios::binary | std::ios::trunc);
    if (!out) throw DataError("cannot open metrics file " + opt.metrics_path);
    const std::string body = metrics.to_prometheus();
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!out) throw DataError("metrics write failed: " + opt.metrics_path);
    std::fprintf(stderr, "papar: wrote metrics to %s\n", opt.metrics_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const papar::Error& e) {
    std::fprintf(stderr, "papar: %s\n", e.what());
    return 1;
  }
}
