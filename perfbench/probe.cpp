// perfbench_probe — the in-process half of the papar benchmark; run.py
// calls it (see README.md in this directory).
//
//   perfbench_probe env
//       Build stamp as JSON: build type, compiler, SIMD level, sanitizer.
//   perfbench_probe gen --workload W --seed N --dir D --root R --workers K
//       Generates the workload's input file into D from the seed, computes
//       the independent reference partitioning (blast::partition_reference
//       or graph::powerlyra_partition) into D/reference.txt, and prints a
//       JSON description of the input plus the `papar` argument list.
//   perfbench_probe check --workload W --dir D
//       Compares the partition files `papar` wrote under D/out against
//       D/reference.txt. Exit 0 on a match; exit 1 naming the first
//       differing partition otherwise.
//   perfbench_probe run --workload W --dir D --root R --workers K
//       Times set-up kSetupReps times, then one untraced WorkflowEngine::run on the
//       generated input, checked against the reference. run.py calls it
//       between `papar` runs, so both sample the same stretch of time.
//   perfbench_probe trace --workload W --dir D --root R --workers K --out FILE --run-id ID
//       One traced run (checked) plus direct calls into schema and sortlib.
//       Prints the per-layer figures and writes the benchmark-side spans,
//       the returned StageReport, the critical path and the recorder's
//       counters into FILE.
//
// Every command prints exactly one JSON object on stdout. K is the number of
// OS worker threads the fiber scheduler multiplexes the virtual ranks over
// (`papar --scheduler fibers --workers K`).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blast/db.hpp"
#include "blast/generator.hpp"
#include "blast/partitioner.hpp"
#include "core/engine.hpp"
#include "core/workflow.hpp"
#include "graph/generator.hpp"
#include "graph/graph.hpp"
#include "graph/powerlyra.hpp"
#include "mpsim/runtime.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "schema/input_config.hpp"
#include "schema/input_format.hpp"
#include "sortlib/simd.hpp"
#include "sortlib/sort.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace papar;
using Clock = std::chrono::steady_clock;

// -- Workloads ----------------------------------------------------------------

enum class Kind { kBlast, kHybrid };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t records;  // index entries or edges
  int ranks;
  std::size_t partitions;
  graph::VertexId vertices = 0;  // hybrid only
  double zipf_s = 0.0;           // hybrid only
  std::uint32_t threshold = 0;   // hybrid only
};

// The four fixed workloads. The hybrid graphs keep 10 edges per vertex and
// a Zipf in-degree exponent of 0.7, which puts roughly 12-15% of the edges
// on vertices at or above the threshold, so both split branches carry data.
constexpr Workload kWorkloads[] = {
    {"blast-cyclic", Kind::kBlast, 2'000'000, 16, 32},
    {"hybrid-cut", Kind::kHybrid, 2'000'000, 16, 16, 200'000, 0.7, 200},
    {"hybrid-cut-wide", Kind::kHybrid, 200'000, 1024, 16, 20'000, 0.7, 200},
    {"blast-cyclic-wide", Kind::kBlast, 200'000, 64, 32},
};

// Set-ups timed per probe `run`; setup_s is the median over all of them.
constexpr int kSetupReps = 100;

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw ConfigError("unknown workload `" + name + "`");
}

std::string input_key(const Workload& w) {
  return w.kind == Kind::kBlast ? "db.index" : "edges.txt";
}

std::string input_config(const Workload& w) {
  return w.kind == Kind::kBlast ? "configs/blast_db.xml" : "configs/graph_edge.xml";
}

std::string workflow_config(const Workload& w) {
  return w.kind == Kind::kBlast ? "configs/blast_partition.xml" : "configs/hybrid_cut.xml";
}

std::map<std::string, std::string> workflow_args(const Workload& w,
                                                 const std::string& out_base) {
  std::map<std::string, std::string> args{
      {"output_path", out_base},
      {"num_partitions", std::to_string(w.partitions)},
  };
  if (w.kind == Kind::kBlast) {
    args["input_path"] = input_key(w);
  } else {
    args["input_file"] = input_key(w);
    args["threshold"] = std::to_string(w.threshold);
  }
  return args;
}

core::EngineOptions engine_options(int workers) {
  core::EngineOptions opt;
  opt.scheduler.mode = mp::SchedulerMode::kFibers;
  opt.scheduler.workers = workers;
  return opt;
}

// -- Small helpers ------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DataError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw DataError("cannot write " + path);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// JSON output is built as obs::json::Value and printed with obs::json::dump.
using obs::json::Value;

Value number(double v) {
  Value out;
  out.kind = Value::Kind::kNumber;
  out.number = v;
  return out;
}

Value text(std::string v) {
  Value out;
  out.kind = Value::Kind::kString;
  out.string = std::move(v);
  return out;
}

Value flag(bool v) {
  Value out;
  out.kind = Value::Kind::kBool;
  out.boolean = v;
  return out;
}

Value numbers(const std::vector<double>& v) {
  Value out;
  out.kind = Value::Kind::kArray;
  for (const double x : v) out.array.push_back(number(x));
  return out;
}

using Fields = std::initializer_list<std::pair<std::string, Value>>;

/// Appends `fields`, in order, to the object `obj`.
void add(Value& obj, Fields fields) { obj.object.insert(obj.object.end(), fields); }

Value object(Fields fields = {}) {
  Value out;
  out.kind = Value::Kind::kObject;
  add(out, fields);
  return out;
}

void print(const Value& v) { std::printf("%s\n", obs::json::dump(v).c_str()); }

// -- Partition digests --------------------------------------------------------
//
// A partition is summarized as (record count, digest). BLAST partitions are
// compared byte for byte in order (the digest is FNV-1a over the whole file
// image). Hybrid-cut partitions are compared as edge multisets — the
// reference is an edge -> partition assignment with no order — so their
// digest is the wrapping sum of key_hash(line) over the partition's lines.

struct PartDigest {
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
  friend bool operator==(const PartDigest&, const PartDigest&) = default;
};

/// FNV-1a of a BLAST partition file holding `records`: the zero header,
/// then the records.
std::uint64_t blast_image_digest(std::string_view records) {
  std::string image(blast::kHeaderSize, '\0');
  image.append(records);
  return fnv1a(image);
}

PartDigest blast_file_digest(std::string_view image) {
  if (image.size() < blast::kHeaderSize ||
      (image.size() - blast::kHeaderSize) % sizeof(blast::IndexEntry) != 0) {
    return {~0ULL, 0};
  }
  return {(image.size() - blast::kHeaderSize) / sizeof(blast::IndexEntry), fnv1a(image)};
}

PartDigest edge_file_digest(std::string_view text) {
  PartDigest d;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    end = end == std::string_view::npos ? text.size() : end + 1;
    d.digest += key_hash(text.substr(pos, end - pos));
    ++d.count;
    pos = end;
  }
  return d;
}

/// Digests of an in-process PartitionResult, in the same terms as the
/// files `papar` writes (binary: zero header + wire records; text: one
/// formatted line per record).
std::vector<PartDigest> result_digests(const Workload& w, const core::PartitionResult& r) {
  std::vector<PartDigest> out;
  for (const auto& part : r.partitions) {
    if (w.kind == Kind::kBlast) {
      std::string records;
      for (const auto& wire : part) records += wire;
      out.push_back({part.size(), blast_image_digest(records)});
    } else {
      PartDigest d;
      for (const auto& wire : part) {
        const auto rec = schema::Record::decode(r.schema, wire);
        d.digest += key_hash(schema::format_text_record(r.schema, rec));
        ++d.count;
      }
      out.push_back(d);
    }
  }
  return out;
}

std::vector<PartDigest> load_reference(const std::string& dir) {
  std::ifstream in(dir + "/reference.txt");
  if (!in) throw DataError("missing " + dir + "/reference.txt (run gen first)");
  std::vector<PartDigest> ref;
  std::string count, digest;
  while (in >> count >> digest) {
    ref.push_back({std::stoull(count), std::stoull(digest, nullptr, 16)});
  }
  return ref;
}

/// Empty when `got` matches `ref`; otherwise a description of the first
/// differing partition.
std::string compare(const std::vector<PartDigest>& ref, const std::vector<PartDigest>& got) {
  for (std::size_t p = 0; p < std::max(ref.size(), got.size()); ++p) {
    const PartDigest want = p < ref.size() ? ref[p] : PartDigest{};
    const PartDigest have = p < got.size() ? got[p] : PartDigest{};
    if (p >= ref.size() || p >= got.size() || !(want == have)) {
      std::ostringstream msg;
      msg << "partition " << p << " differs: reference "
          << (p < ref.size() ? std::to_string(want.count) + " records, digest " + hex64(want.digest)
                             : std::string("absent"))
          << "; got "
          << (p < got.size() ? std::to_string(have.count) + " records, digest " + hex64(have.digest)
                             : std::string("absent"));
      return msg.str();
    }
  }
  return {};
}

// -- Commands -----------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw ConfigError("missing --" + key);
    return it->second;
  }
};

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

Value env_json() {
  return object({
      {"build_type", text(PERFBENCH_BUILD_TYPE)},
      {"compiler", text(__VERSION__)},
      {"simd", text(sortlib::simd::level_name(sortlib::simd::active_level()))},
      {"sanitizer", flag(sanitized_build())},
  });
}

int cmd_gen(const Args& a) {
  const Workload& w = find_workload(a.get("workload"));
  const std::uint64_t seed = std::stoull(a.get("seed"));
  const std::string dir = a.get("dir");
  const std::string root = a.get("root");
  const std::string workers = a.get("workers");
  std::filesystem::create_directories(dir);

  std::string input;
  std::vector<PartDigest> ref(w.partitions);
  Value meta = object();
  if (w.kind == Kind::kBlast) {
    blast::GeneratorOptions opt = blast::env_nr_like();
    opt.sequence_count = w.records;
    opt.seed = seed;
    const blast::Database db = blast::generate_database(opt);
    input = blast::index_file_image(db);
    const auto parts =
        blast::partition_reference(db.index, w.partitions, blast::Policy::kCyclic);
    for (std::size_t p = 0; p < w.partitions; ++p) {
      const auto& entries = parts.partitions[p];
      ref[p] = {entries.size(),
                blast_image_digest(std::string_view(reinterpret_cast<const char*>(entries.data()),
                                                    entries.size() * sizeof(blast::IndexEntry)))};
    }
  } else {
    graph::ZipfGraphOptions opt;
    opt.num_vertices = w.vertices;
    opt.num_edges = w.records;
    opt.zipf_s = w.zipf_s;
    opt.seed = seed;
    const graph::Graph g = graph::generate_zipf(opt);
    input = graph::to_edge_list_text(g);
    ThreadPool pool(1);
    const auto parts = graph::powerlyra_partition(g, w.partitions, w.threshold, pool);
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      const std::string line =
          std::to_string(g.edges[i].src) + "\t" + std::to_string(g.edges[i].dst) + "\n";
      PartDigest& d = ref[parts.edge_partition[i]];
      d.digest += key_hash(line);
      ++d.count;
    }
    const auto indeg = g.in_degrees();
    std::uint64_t high_edges = 0, high_vertices = 0;
    for (const auto d : indeg) {
      if (d >= w.threshold) {
        high_edges += d;
        ++high_vertices;
      }
    }
    add(meta, {
        {"high_degree_edge_share", number(static_cast<double>(high_edges) /
                                          static_cast<double>(g.num_edges()))},
        {"high_degree_vertices", number(static_cast<double>(high_vertices))},
        {"vertices", number(w.vertices)},
    });
  }

  const std::string input_path = dir + "/" + input_key(w);
  spit(input_path, input);
  std::ostringstream ref_text;
  for (const auto& d : ref) ref_text << d.count << ' ' << hex64(d.digest) << '\n';
  spit(dir + "/reference.txt", ref_text.str());

  // The `papar` command line for this workload, minus the binary.
  Value argv;
  argv.kind = Value::Kind::kArray;
  auto push = [&argv](const std::string& s) { argv.array.push_back(text(s)); };
  push("--input-config");
  push(root + "/" + input_config(w));
  push("--workflow");
  push(root + "/" + workflow_config(w));
  for (const auto& [k, v] : workflow_args(w, dir + "/out/part")) {
    push("--arg");
    push(k + "=" + v);
  }
  push("--file");
  push(input_key(w) + "=" + input_path);
  push("--nodes");
  push(std::to_string(w.ranks));
  push("--scheduler");
  push("fibers");
  push("--workers");
  push(workers);

  add(meta, {
      {"workload", text(w.name)},
      {"seed", number(static_cast<double>(seed))},
      {"input_file", text(input_path)},
      {"input_bytes", number(static_cast<double>(input.size()))},
      {"records", number(static_cast<double>(w.records))},
      {"input_digest", text(hex64(fnv1a(input)))},
      {"ranks", number(w.ranks)},
      {"partitions", number(static_cast<double>(w.partitions))},
      {"papar_args", std::move(argv)},
  });
  print(meta);
  return 0;
}

int cmd_check(const Args& a) {
  const Workload& w = find_workload(a.get("workload"));
  const std::string dir = a.get("dir");
  const auto ref = load_reference(dir);
  std::vector<PartDigest> got;
  const std::string base = dir + "/out/part.";
  for (std::size_t p = 0; std::filesystem::exists(base + std::to_string(p)); ++p) {
    const std::string bytes = slurp(base + std::to_string(p));
    got.push_back(w.kind == Kind::kBlast ? blast_file_digest(bytes) : edge_file_digest(bytes));
  }
  const std::string diff = compare(ref, got);
  print(object({{"ok", flag(diff.empty())}, {"detail", text(diff)}}));
  return diff.empty() ? 0 : 1;
}

/// One set-up of the workload: the two configs, the engine and the runtime.
struct Setup {
  std::unique_ptr<core::WorkflowEngine> engine;
  std::unique_ptr<mp::Runtime> runtime;
  double config_s = 0.0;   // load_input_spec + load_workflow + engine ctor
  double runtime_s = 0.0;  // mp::Runtime ctor
};

/// Sets the workload up once. With a recorder, the phases are recorded as
/// nested benchmark-side spans whose category is the run id.
Setup set_up(const Workload& w, const std::string& root, const std::string& dir, int workers,
             obs::Recorder* spans = nullptr, const std::string& run_id = {}) {
  Setup s;
  obs::Span span_setup(spans, "setup", run_id);
  obs::Span span_config(spans, "setup.config_parse", run_id);
  const auto t0 = Clock::now();
  auto spec = schema::load_input_spec(root + "/" + input_config(w));
  auto wf = core::load_workflow(root + "/" + workflow_config(w));
  std::map<std::string, schema::InputSpec> specs;
  specs[spec.id] = std::move(spec);
  s.engine = std::make_unique<core::WorkflowEngine>(std::move(wf), std::move(specs),
                                                    workflow_args(w, dir + "/out/part"),
                                                    engine_options(workers));
  s.config_s = seconds_since(t0);
  span_config.end();
  obs::Span span_runtime(spans, "setup.runtime_ctor", run_id);
  const auto t1 = Clock::now();
  s.runtime = std::make_unique<mp::Runtime>(w.ranks, mp::NetworkModel::rdma(),
                                            engine_options(workers).scheduler);
  s.runtime_s = seconds_since(t1);
  return s;
}

double counter_or_zero(const std::map<std::string, std::uint64_t>& counters,
                       const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// Median single-thread time of sortlib's public sort over one rank's share
/// of the workload's sort key: BLAST sorts (seq_size, index) as u64 (the
/// radix-eligible projection), hybrid-cut sorts the vertex_b strings with
/// a comparator.
double rank_sort_seconds(const Workload& w, const std::string& input, int reps) {
  const std::size_t n = w.records / static_cast<std::size_t>(w.ranks);
  ThreadPool pool(1);
  std::vector<double> times;
  if (w.kind == Kind::kBlast) {
    const auto index = blast::parse_index_image(input);
    std::vector<std::uint64_t> keys(n);
    for (int r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(index[i].seq_size))
                   << 32) |
                  i;
      }
      const auto t0 = Clock::now();
      sortlib::parallel_sort(std::span<std::uint64_t>(keys), std::less<>{}, pool);
      times.push_back(seconds_since(t0));
    }
  } else {
    std::vector<std::string> base;
    base.reserve(n);
    std::size_t pos = 0;
    while (base.size() < n && pos < input.size()) {
      const std::size_t tab = input.find('\t', pos);
      const std::size_t nl = input.find('\n', tab);
      base.push_back(input.substr(tab + 1, nl - tab - 1));
      pos = nl + 1;
    }
    for (int r = 0; r < reps; ++r) {
      auto keys = base;
      const auto t0 = Clock::now();
      sortlib::parallel_sort(std::span<std::string>(keys), std::less<>{}, pool);
      times.push_back(seconds_since(t0));
    }
  }
  return median(times);
}

int cmd_run(const Args& a) {
  const Workload& w = find_workload(a.get("workload"));
  const std::string dir = a.get("dir");
  const std::string root = a.get("root");
  const int workers = std::stoi(a.get("workers"));
  const auto ref = load_reference(dir);
  const std::map<std::string, std::string> files{
      {input_key(w), slurp(dir + "/" + input_key(w))}};

  std::vector<double> setup_s, config_s, runtime_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const Setup s = set_up(w, root, dir, workers);
    setup_s.push_back(s.config_s + s.runtime_s);
    config_s.push_back(s.config_s);
    runtime_s.push_back(s.runtime_s);
  }

  Setup s = set_up(w, root, dir, workers);
  const auto t0 = Clock::now();
  const auto result = s.engine->run(*s.runtime, files);
  const double run_wall = seconds_since(t0);
  const std::string diff = compare(ref, result_digests(w, result));

  Value jobs = object();
  for (const auto& st : result.report.stages) {
    jobs.object.emplace_back(
        st.id, object({{"s", number(st.seconds)}, {"skew", number(st.reducer_skew)}}));
  }
  print(object({
      {"setup_s", numbers(setup_s)},
      {"setup.config_s", numbers(config_s)},
      {"setup.runtime_s", numbers(runtime_s)},
      {"run_wall_s", number(run_wall)},
      {"makespan_s", number(result.stats.makespan)},
      {"jobs", std::move(jobs)},
      {"ok", flag(diff.empty())},
      {"detail", text(diff)},
  }));
  return 0;
}

int cmd_trace(const Args& a) {
  const Workload& w = find_workload(a.get("workload"));
  const std::string dir = a.get("dir");
  const std::string root = a.get("root");
  const int workers = std::stoi(a.get("workers"));
  const std::string run_id = a.get("run-id");
  const auto ref = load_reference(dir);
  const std::string input = slurp(dir + "/" + input_key(w));
  const std::map<std::string, std::string> files{{input_key(w), input}};

  // Benchmark-side spans, kept apart from the program's own recorder.
  obs::Recorder spans;
  obs::Span span_run(&spans, "benchmark.traced_run", run_id);
  Setup s = set_up(w, root, dir, workers, &spans, run_id);
  obs::Recorder recorder;
  obs::TraceRecorder tracer;
  obs::MetricsRegistry metrics;
  s.runtime->set_recorder(&recorder);
  s.runtime->set_tracer(&tracer);
  s.runtime->set_metrics(&metrics);
  obs::Span span_engine(&spans, "core.engine.run", run_id);
  const auto t0 = Clock::now();
  const auto traced = s.engine->run(*s.runtime, files);
  const double traced_wall = seconds_since(t0);
  span_engine.end();
  s.runtime->set_recorder(nullptr);
  s.runtime->set_tracer(nullptr);
  s.runtime->set_metrics(nullptr);
  const std::string diff = compare(ref, result_digests(w, traced));

  const obs::TraceData graph = tracer.snapshot();
  const obs::CriticalPath path = obs::critical_path(graph);
  const auto counters = recorder.counters();
  auto path_kind = [&path](const char* kind) {
    const auto it = path.by_kind.find(kind);
    return it == path.by_kind.end() ? 0.0 : it->second;
  };
  const double cp_total = path.total > 0.0 ? path.total : 1.0;
  const auto out_it = path.by_stage.find("output");
  const double output_s = out_it == path.by_stage.end() ? 0.0 : out_it->second;
  double blocked = 0.0;
  for (const auto& row : obs::skew_table(graph)) {
    for (const auto& rank : row.per_rank) blocked += rank.blocked;
  }
  blocked /= static_cast<double>(w.ranks);

  // Direct layer calls on the same bytes.
  obs::Span span_schema(&spans, "schema.read_all", run_id);
  std::vector<double> read_s;
  for (int i = 0; i < 3; ++i) {
    const auto spec = schema::load_input_spec(root + "/" + input_config(w));
    const auto t1 = Clock::now();
    const auto fmt = schema::open_input_from_memory(spec, input);
    const auto records = schema::read_all(*fmt);
    read_s.push_back(seconds_since(t1));
    if (records.size() != w.records) {
      throw DataError("schema read " + std::to_string(records.size()) + " records, expected " +
                      std::to_string(w.records));
    }
  }
  span_schema.end();
  obs::Span span_sort(&spans, "sortlib.rank_sort", run_id);
  const double rank_sort_s = rank_sort_seconds(w, input, 3);
  span_sort.end();
  span_run.end();

  Value out = object({
      {"schema.read_s", number(median(read_s))},
      {"schema.mrec_per_s", number(static_cast<double>(w.records) / median(read_s) / 1e6)},
  });
  for (const char* id : {"sort", "group", "split", "distr"}) {
    const std::string key = std::string("job.") + id;
    const auto st = std::find_if(traced.report.stages.begin(), traced.report.stages.end(),
                                 [id](const obs::StageRecord& r) { return r.id == id; });
    const bool has = st != traced.report.stages.end();
    add(out, {
        {key + ".shuffle_mb",
         number(has ? static_cast<double>(st->shuffle_bytes) / 1e6 : 0.0)},
        {key + ".msgs", number(has ? static_cast<double>(st->shuffle_messages) : 0.0)},
    });
  }
  const double in_bytes = static_cast<double>(input.size());
  add(out, {
      {"core.output_s", number(output_s)},
      {"core.output_share", number(output_s / cp_total)},
      {"traced_run_wall_s", number(traced_wall)},
      {"mr.wire_mb", number(counter_or_zero(counters, "mr.shuffle.wire_bytes") / 1e6)},
      {"mr.bytes_per_input_byte",
       number(static_cast<double>(traced.stats.remote_bytes) / in_bytes)},
      {"mr.sorted_per_input", number(counter_or_zero(counters, "sort.records") /
                                     static_cast<double>(w.records))},
      {"sortlib.rank_sort_s", number(rank_sort_s)},
      {"sortlib.radix_calls", number(static_cast<double>(traced.report.sort.radix_sorts))},
      {"sortlib.merge_calls", number(static_cast<double>(traced.report.sort.merge_sorts))},
      {"sortlib.radix_passes",
       number(static_cast<double>(traced.report.sort.radix_passes))},
      {"mpsim.messages", number(static_cast<double>(traced.stats.remote_messages))},
      {"mpsim.remote_mb", number(static_cast<double>(traced.stats.remote_bytes) / 1e6)},
      {"mpsim.cp.compute_share", number(path_kind("compute") / cp_total)},
      {"mpsim.cp.comm_share", number(path_kind("comm") / cp_total)},
      {"mpsim.cp.barrier_share", number(path_kind("barrier") / cp_total)},
      {"mpsim.cp.total_s", number(path.total)},
      {"mpsim.blocked_s", number(blocked)},
      {"ok", flag(diff.empty())},
      {"detail", text(diff)},
  });

  Value by_stage = object(), by_kind = object();
  for (const auto& [k, v] : path.by_stage) by_stage.object.emplace_back(k, number(v));
  for (const auto& [k, v] : path.by_kind) by_kind.object.emplace_back(k, number(v));
  const Value artifact = object({
      {"run_id", text(run_id)},
      {"workload", text(w.name)},
      {"spans", obs::json::parse(spans.to_json()).at("spans")},
      {"stage_report", obs::json::parse(traced.report.to_json())},
      {"critical_path", object({
                            {"total_s", number(path.total)},
                            {"by_stage", std::move(by_stage)},
                            {"by_kind", std::move(by_kind)},
                        })},
      {"counters", obs::json::parse(recorder.to_json()).at("counters")},
  });
  spit(a.get("out"), obs::json::dump(artifact) + "\n");
  print(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw ConfigError("usage: perfbench_probe env|gen|check|run|trace [--key value]...");
    const std::string cmd = argv[1];
    Args a;
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) throw ConfigError(std::string("bad flag ") + argv[i]);
      a.kv[argv[i] + 2] = argv[i + 1];
    }
    if (cmd == "env") {
      print(env_json());
      return 0;
    }
    if (cmd == "gen") return cmd_gen(a);
    if (cmd == "check") return cmd_check(a);
    if (cmd == "run") return cmd_run(a);
    if (cmd == "trace") return cmd_trace(a);
    throw ConfigError("unknown command `" + cmd + "`");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 2;
  }
}
