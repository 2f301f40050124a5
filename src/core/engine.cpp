#include "core/engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>

#include "mapreduce/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sortlib/simd.hpp"
#include "util/log.hpp"
#include "util/membudget.hpp"
#include "util/parse.hpp"

namespace papar::core {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

enum class StepKind { kSort, kGroup, kSplit, kDistribute, kCustom };

StepKind classify(std::string_view op_name) {
  const std::string n = lower(op_name);
  if (n == "sort") return StepKind::kSort;
  if (n == "group") return StepKind::kGroup;
  if (n == "split") return StepKind::kSplit;
  if (n == "distribute") return StepKind::kDistribute;
  return StepKind::kCustom;
}

/// One operator, fully resolved and bound to backend arguments.
struct PlannedStep {
  StepKind kind = StepKind::kCustom;
  const OperatorDecl* decl = nullptr;
  std::string input_path;  // exact path, or prefix for distribute
  std::vector<std::string> output_paths;
  SortArgs sort;
  GroupArgs group;
  SplitArgs split;
  DistributeArgs dist;
  std::map<std::string, std::string> custom_params;
};

// Checkpoint wire format: one rank's inter-job `datasets` map at a stage
// boundary — path, format, group key, schema, and raw page bytes per entry.
// std::map iteration gives a deterministic entry order, so a deterministic
// replay rewrites byte-identical blobs.
std::vector<unsigned char> encode_datasets(const std::map<std::string, Dataset>& datasets) {
  ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(datasets.size()));
  for (const auto& [path, ds] : datasets) {
    w.put_string(path);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(ds.format));
    w.put<std::uint8_t>(ds.group_key_field ? 1 : 0);
    w.put<std::uint64_t>(ds.group_key_field ? *ds.group_key_field : 0);
    const auto& fields = ds.schema.fields();
    w.put<std::uint32_t>(static_cast<std::uint32_t>(fields.size()));
    for (const auto& f : fields) {
      w.put_string(f.name);
      w.put<std::uint8_t>(static_cast<std::uint8_t>(f.type));
      w.put_string(f.delimiter);
    }
    w.put<std::uint64_t>(ds.page.byte_size());
    w.put_bytes(ds.page.bytes().data(), ds.page.byte_size());
  }
  return w.take();
}

std::map<std::string, Dataset> decode_datasets(const std::vector<unsigned char>& bytes) {
  ByteReader r(bytes);
  std::map<std::string, Dataset> datasets;
  const auto count = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string path = r.get_string();
    Dataset ds;
    ds.format = static_cast<DataFormat>(r.get<std::uint8_t>());
    const bool has_group_key = r.get<std::uint8_t>() != 0;
    const auto group_key = r.get<std::uint64_t>();
    if (has_group_key) ds.group_key_field = static_cast<std::size_t>(group_key);
    const auto nfields = r.get<std::uint32_t>();
    for (std::uint32_t f = 0; f < nfields; ++f) {
      std::string name = r.get_string();
      const auto type = static_cast<schema::FieldType>(r.get<std::uint8_t>());
      std::string delimiter = r.get_string();
      ds.schema.add_field(std::move(name), type, std::move(delimiter));
    }
    const auto page_len = r.get<std::uint64_t>();
    const auto view = r.get_bytes(static_cast<std::size_t>(page_len));
    ds.page.adopt_bytes(std::vector<unsigned char>(view.begin(), view.end()));
    datasets.emplace(std::move(path), std::move(ds));
  }
  PAPAR_CHECK_MSG(r.done(), "trailing bytes in dataset checkpoint");
  return datasets;
}

}  // namespace

// -- PartitionResult ---------------------------------------------------------

std::size_t PartitionResult::total_records() const {
  std::size_t n = 0;
  for (const auto& p : partitions) n += p.size();
  return n;
}

std::vector<std::vector<schema::Record>> PartitionResult::decode() const {
  std::vector<std::vector<schema::Record>> out;
  out.reserve(partitions.size());
  for (const auto& part : partitions) {
    std::vector<schema::Record> recs;
    recs.reserve(part.size());
    for (const auto& wire : part) {
      recs.push_back(schema::Record::decode(schema, wire));
    }
    out.push_back(std::move(recs));
  }
  return out;
}

// -- WorkflowEngine ------------------------------------------------------------

WorkflowEngine::WorkflowEngine(WorkflowConfig config,
                               std::map<std::string, schema::InputSpec> input_specs,
                               std::map<std::string, std::string> args,
                               EngineOptions options, const OperatorRegistry* registry)
    : config_(std::move(config)),
      input_specs_(std::move(input_specs)),
      args_(std::move(args)),
      options_(options),
      registry_(registry) {
  PAPAR_CHECK_MSG(registry_ != nullptr, "engine needs an operator registry");
}

std::string WorkflowEngine::resolve_ref(const std::string& ref) const {
  // ref has no leading '$'.
  const auto dot = ref.find('.');
  if (dot == std::string::npos) {
    // Launch argument, then workflow argument default.
    if (const auto it = args_.find(ref); it != args_.end()) return it->second;
    if (const auto* arg = config_.argument(ref); arg != nullptr && !arg->value.empty()) {
      return resolve(arg->value);
    }
    throw ConfigError("unbound workflow argument `$" + ref + "`");
  }
  // "$op.param" or "$op.$attr".
  const std::string op_id = ref.substr(0, dot);
  std::string pname = ref.substr(dot + 1);
  if (!pname.empty() && pname[0] == '$') {
    // Attribute reference: resolves to the bare attribute name.
    return pname.substr(1);
  }
  const OperatorDecl* op = config_.operator_by_id(op_id);
  if (op == nullptr) {
    throw ConfigError("reference to unknown operator `$" + ref + "`");
  }
  const ParamDecl* param = op->param(pname);
  if (param == nullptr && (pname == "outputPath" || pname == "ouputPath")) {
    param = op->output_path_param();
  }
  if (param == nullptr) {
    throw ConfigError("operator `" + op_id + "` has no parameter `" + pname + "`");
  }
  return resolve(param->value);
}

std::string WorkflowEngine::resolve(const std::string& value) const {
  // Substitute every $reference embedded in the string. References are
  // $name, $op.param, or $op.$attr — maximal runs of [A-Za-z0-9_.$] after a
  // leading '$'.
  std::string out;
  std::size_t i = 0;
  while (i < value.size()) {
    if (value[i] != '$') {
      out += value[i++];
      continue;
    }
    std::size_t j = i + 1;
    while (j < value.size() &&
           (std::isalnum(static_cast<unsigned char>(value[j])) || value[j] == '_' ||
            value[j] == '.' ||
            (value[j] == '$' && j > i + 1))) {
      ++j;
    }
    // Trim a trailing '.' (punctuation, not part of the reference).
    std::size_t end = j;
    while (end > i + 1 && value[end - 1] == '.') --end;
    if (end == i + 1) throw ConfigError("dangling `$` in `" + value + "`");
    out += resolve_ref(value.substr(i + 1, end - i - 1));
    i = end;
  }
  return out;
}

PartitionResult WorkflowEngine::run(
    mp::Runtime& runtime, const std::map<std::string, std::string>& input_files) {
  const int nranks = runtime.size();

  // ---- Plan: resolve every operator ---------------------------------------
  std::vector<PlannedStep> steps;
  steps.reserve(config_.operators.size());

  auto required_param = [this](const OperatorDecl& decl,
                               std::string_view name) -> std::string {
    const ParamDecl* p = decl.param(name);
    if (p == nullptr) {
      throw ConfigError("operator `" + decl.id + "` is missing parameter `" +
                        std::string(name) + "`");
    }
    return resolve(p->value);
  };

  for (const auto& decl : config_.operators) {
    PlannedStep step;
    step.decl = &decl;
    step.kind = classify(decl.op);
    if (step.kind == StepKind::kCustom && !registry_->contains(decl.op)) {
      throw ConfigError("unknown operator `" + decl.op + "`");
    }
    step.input_path = required_param(decl, "inputPath");
    if (decl.num_reducers > 0 && decl.num_reducers != nranks) {
      log::info("operator `", decl.id, "`: num_reducers=", decl.num_reducers,
                " noted; this backend launches one reducer per rank (", nranks, ")");
    }

    switch (step.kind) {
      case StepKind::kSort: {
        const ParamDecl* out = decl.output_path_param();
        if (out == nullptr) throw ConfigError("sort `" + decl.id + "` lacks outputPath");
        step.output_paths.push_back(resolve(out->value));
        step.sort.key = required_param(decl, "key");
        step.sort.splitter = options_.splitter;
        if (const auto* flag = decl.param("flag")) {
          step.sort.ascending = resolve(flag->value) != "1";
        } else if (const auto* asc = decl.param("ascending")) {
          step.sort.ascending = resolve(asc->value) != "false";
        }
        break;
      }
      case StepKind::kGroup: {
        const ParamDecl* out = decl.output_path_param();
        if (out == nullptr) throw ConfigError("group `" + decl.id + "` lacks outputPath");
        step.output_paths.push_back(resolve(out->value));
        step.group.key = required_param(decl, "key");
        step.group.output_format =
            out->format == "pack" ? DataFormat::kPacked : DataFormat::kOrig;
        step.group.compress = options_.compress_packed;
        if (!decl.addons.empty()) {
          const AddOnDecl& a = decl.addons.front();
          AddOnSpec spec;
          spec.kind = parse_addon_kind(a.op);
          spec.value_field = a.value.empty() ? a.key : a.value;
          spec.attr_name = a.attr;
          step.group.addon = spec;
        }
        break;
      }
      case StepKind::kSplit: {
        const ParamDecl* outs = decl.param("outputPathList");
        if (outs == nullptr) {
          throw ConfigError("split `" + decl.id + "` lacks outputPathList");
        }
        for (const auto& path : split_list(resolve(outs->value))) {
          step.output_paths.push_back(path);
        }
        step.split.key = required_param(decl, "key");
        for (const auto& term : split_policy_terms(required_param(decl, "policy"))) {
          step.split.conditions.push_back(parse_split_condition(term));
        }
        if (step.split.conditions.size() != step.output_paths.size()) {
          throw ConfigError("split `" + decl.id +
                            "`: outputs and policy terms disagree in count");
        }
        if (!outs->format.empty()) {
          for (const auto& f : split_list(outs->format)) {
            if (f == "unpack") {
              step.split.output_formats.push_back(DataFormat::kOrig);
            } else if (f == "pack") {
              step.split.output_formats.push_back(DataFormat::kPacked);
            } else if (f == "orig") {
              step.split.output_formats.push_back(std::nullopt);
            } else {
              throw ConfigError("unknown split output format `" + f + "`");
            }
          }
          if (step.split.output_formats.size() != step.output_paths.size()) {
            throw ConfigError("split `" + decl.id +
                              "`: outputs and formats disagree in count");
          }
        }
        break;
      }
      case StepKind::kDistribute: {
        const ParamDecl* out = decl.output_path_param();
        if (out == nullptr) {
          throw ConfigError("distribute `" + decl.id + "` lacks outputPath");
        }
        step.output_paths.push_back(resolve(out->value));
        const ParamDecl* policy = decl.param("distrPolicy");
        if (policy == nullptr) policy = decl.param("policy");
        if (policy == nullptr) {
          throw ConfigError("distribute `" + decl.id + "` lacks a policy");
        }
        step.dist.policy = parse_distr_policy(resolve(policy->value));
        step.dist.num_partitions = parse_number<std::size_t>(
            required_param(decl, "numPartitions"), "distribute numPartitions");
        PAPAR_CHECK_MSG(step.dist.num_partitions >= 1, "numPartitions must be >= 1");
        // Output schema: the format declared on the workflow argument the
        // outputPath came from ("the output has the same format of input").
        if (!out->value.empty() && out->value[0] == '$' &&
            out->value.find('.') == std::string::npos) {
          if (const auto* arg = config_.argument(out->value.substr(1));
              arg != nullptr && !arg->format.empty()) {
            const auto it = input_specs_.find(arg->format);
            if (it == input_specs_.end()) {
              throw ConfigError("workflow argument `" + arg->name +
                                "` references unknown format `" + arg->format + "`");
            }
            step.dist.output_schema = it->second.schema;
          }
        }
        break;
      }
      case StepKind::kCustom: {
        const ParamDecl* out = decl.output_path_param();
        if (out == nullptr) {
          throw ConfigError("operator `" + decl.id + "` lacks outputPath");
        }
        step.output_paths.push_back(resolve(out->value));
        for (const auto& p : decl.params) {
          step.custom_params[p.name] = resolve(p.value);
        }
        break;
      }
    }
    steps.push_back(std::move(step));
  }

  for (std::size_t s = 0; s + 1 < steps.size(); ++s) {
    if (steps[s].kind == StepKind::kDistribute) {
      throw ConfigError("distribute must be the final operator of a workflow");
    }
  }

  // ---- Bind file inputs -----------------------------------------------------
  // A step input that names a file (rather than an upstream dataset) is
  // matched to its InputSpec through the workflow argument that carries the
  // value, then opened once and split across ranks.
  std::map<std::string, std::unique_ptr<schema::InputFormat>> file_inputs;
  std::map<std::string, std::vector<schema::FileSplit>> file_splits;
  for (const auto& decl : config_.operators) {
    const ParamDecl* in = decl.param("inputPath");
    if (in == nullptr || in->value.empty() || in->value[0] != '$') continue;
    if (in->value.find('.') != std::string::npos) continue;  // upstream dataset
    const auto* arg = config_.argument(in->value.substr(1));
    if (arg == nullptr || arg->format.empty()) continue;
    const std::string path = resolve(in->value);
    if (file_inputs.count(path)) continue;
    const auto spec_it = input_specs_.find(arg->format);
    if (spec_it == input_specs_.end()) {
      throw ConfigError("workflow argument `" + arg->name +
                        "` references unknown format `" + arg->format + "`");
    }
    const auto file_it = input_files.find(path);
    if (file_it == input_files.end()) {
      throw ConfigError("no input content provided for `" + path + "`");
    }
    auto input = schema::open_input_from_memory(spec_it->second, file_it->second);
    file_splits[path] = input->splits(nranks);
    file_inputs[path] = std::move(input);
  }

  // Custom operators: one instance per rank, created up front.
  std::map<std::string, std::vector<std::unique_ptr<CustomOperator>>> custom_ops;
  for (const auto& step : steps) {
    if (step.kind != StepKind::kCustom) continue;
    auto& instances = custom_ops[step.decl->id];
    instances.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      instances.push_back(registry_->create(*step.decl, step.custom_params));
    }
  }

  // ---- Execute ---------------------------------------------------------------
  PartitionResult result;
  bool have_result_schema = false;
  // Partitioning time/traffic are snapshotted at the end of the job
  // sequence, before the output write (the paper's measurements exclude
  // I/O time).
  std::vector<double> job_times(static_cast<std::size_t>(nranks), 0.0);

  // Per-stage observability. Boundary i is the job barrier opening step i
  // (boundary nsteps closes the last step); rank 0 snapshots the shared
  // traffic counters and the barrier-resolved clock inside a two-barrier
  // sandwich, so no rank can be mid-send during the read. Consecutive
  // boundary deltas therefore attribute every fabric byte of the run to
  // exactly one stage.
  const std::size_t nsteps = steps.size();
  std::vector<double> boundary_time(nsteps + 1, 0.0);
  std::vector<std::uint64_t> boundary_bytes(nsteps + 1, 0);
  std::vector<std::uint64_t> boundary_messages(nsteps + 1, 0);
  std::vector<std::uint64_t> stage_in(nsteps, 0);
  std::vector<std::uint64_t> stage_out(nsteps, 0);
  std::vector<double> stage_skew(nsteps, 0.0);

  // With a fault injector attached, every rank checkpoints its inter-job
  // datasets at each stage boundary so a crash recovery resumes from the
  // last completed boundary instead of re-running the whole workflow.
  std::unique_ptr<mr::CheckpointStore> ckpt;
  if (runtime.fault_injector() != nullptr) {
    ckpt = std::make_unique<mr::CheckpointStore>(nranks, options_.checkpoint_dir);
    // Recovery only restores the latest complete stage; older blobs are
    // released as the job advances so long workflows stay bounded.
    if (options_.ckpt_keep_last > 0) ckpt->set_keep_last(options_.ckpt_keep_last);
  }

  // Memory governance: a non-zero budget attaches a MemoryBudget for the
  // duration of this run — credit-capped mailboxes, soft-watermark spill in
  // the MapReduce phases, and typed BudgetExceededError past the hard limit.
  std::unique_ptr<MemoryBudget> budget;
  if (options_.mem_budget > 0) {
    MemoryBudgetConfig bcfg;
    bcfg.hard_limit = options_.mem_budget;
    bcfg.soft_limit = options_.mem_budget / 5 * 4;
    bcfg.mailbox_limit = options_.mem_budget / 4;
    bcfg.spill_dir =
        !options_.spill_dir.empty()
            ? options_.spill_dir
            : (std::filesystem::temp_directory_path() /
               ("papar-spill-" + std::to_string(::getpid())))
                  .string();
    budget = std::make_unique<MemoryBudget>(std::move(bcfg));
    if (obs::MetricsRegistry* metrics = runtime.metrics()) {
      budget->set_counter_hook([metrics](const char* name, std::uint64_t delta) {
        metrics->inc(name, delta);
      });
    }
  }
  struct BudgetGuard {
    mp::Runtime* rt = nullptr;
    ~BudgetGuard() {
      if (rt != nullptr) rt->set_memory_budget(nullptr);
    }
  } budget_guard;
  if (budget) {
    runtime.set_memory_budget(budget.get());
    budget_guard.rt = &runtime;
  }

  // Continuous telemetry: any telemetry knob attaches a sampler for the
  // run (the flight recorder needs the rings even without a live stream).
  std::unique_ptr<obs::TelemetrySampler> sampler;
  struct SamplerGuard {
    mp::Runtime* rt = nullptr;
    ~SamplerGuard() {
      if (rt != nullptr) rt->set_sampler(nullptr);
    }
  } sampler_guard;
  if (options_.telemetry || !options_.telemetry_stream.empty() ||
      !options_.flight_rec_dir.empty()) {
    obs::TelemetryOptions topt;
    topt.interval = options_.telemetry_interval;
    topt.stream_path = options_.telemetry_stream;
    sampler = std::make_unique<obs::TelemetrySampler>(topt);
    runtime.set_sampler(sampler.get());
    sampler_guard.rt = &runtime;
  }

  // Crash-recovery strategy for the run (DESIGN.md §16). The retention
  // spool shares the run's spill directory; the guard restores the
  // runtime's previous options so a reused runtime is unaffected.
  struct RecoveryGuard {
    mp::Runtime* rt = nullptr;
    mp::RecoveryOptions prev;
    ~RecoveryGuard() {
      if (rt != nullptr) rt->set_recovery(std::move(prev));
    }
  } recovery_guard;
  {
    recovery_guard.prev = runtime.recovery();
    recovery_guard.rt = &runtime;
    mp::RecoveryOptions ropts = options_.recovery;
    if (ropts.retention_spill_dir.empty()) {
      ropts.retention_spill_dir =
          !options_.spill_dir.empty()
              ? options_.spill_dir
              : (std::filesystem::temp_directory_path() /
                 ("papar-retention-" + std::to_string(::getpid())))
                    .string();
    }
    runtime.set_recovery(std::move(ropts));
  }

  auto body = [&](mp::Comm& comm) {
    // Stage labels feed both the causal tracer and the memory budget's
    // rank -> stage high-water breakdown (and BudgetExceededError's text).
    auto enter_stage = [&](const std::string& name) {
      comm.set_trace_stage(name);
      if (auto* b = comm.memory_budget()) b->set_stage(comm.rank(), name);
    };
    enter_stage("setup");
    std::map<std::string, Dataset> datasets;

    auto job_boundary = [&](std::size_t idx) {
      comm.barrier();
      // A replaying rank's barriers fast-forward through here without
      // synchronizing; re-reading the (now advanced) shared counters would
      // misattribute traffic, so rank 0 keeps its original snapshots. The
      // exception: rank 0 crashed inside this very boundary before taking
      // the snapshot (it is still unwritten), in which case the replay's
      // live pass through it is the only chance to take one.
      if (comm.rank() == 0 && (!comm.is_replay() || boundary_time[idx] == 0.0)) {
        boundary_bytes[idx] = comm.remote_bytes_so_far();
        boundary_messages[idx] = comm.remote_messages_so_far();
        boundary_time[idx] = comm.vtime();
        // The fabric is quiescent inside the boundary sandwich and every
        // dropped transmission has been retried to success, so the stage's
        // per-message fault events are acknowledged: fold them into
        // per-link aggregates to keep the trace table bounded.
        if (auto* inj = runtime.fault_injector()) inj->prune_acknowledged();
      }
      comm.barrier();
    };

    // Gathers per-rank entry counts at rank 0, which folds them into the
    // stage tallies. Runs before the closing boundary so its own traffic
    // stays inside the stage it measures.
    auto close_stage = [&](std::size_t s, std::uint64_t in_count, std::uint64_t out_count) {
      ByteWriter w;
      w.put<std::uint64_t>(in_count);
      w.put<std::uint64_t>(out_count);
      auto all = comm.gather(0, w.take());
      if (comm.rank() == 0) {
        std::uint64_t total_in = 0;
        std::uint64_t total_out = 0;
        std::uint64_t max_out = 0;
        for (const auto& part : all) {
          ByteReader r(part);
          const auto in_r = r.get<std::uint64_t>();
          const auto out_r = r.get<std::uint64_t>();
          total_in += in_r;
          total_out += out_r;
          max_out = std::max(max_out, out_r);
        }
        stage_in[s] = total_in;
        stage_out[s] = total_out;
        const double mean = static_cast<double>(total_out) / static_cast<double>(nranks);
        stage_skew[s] = mean > 0.0 ? static_cast<double>(max_out) / mean : 0.0;
      }
    };

    auto take_dataset = [&](const std::string& path) -> Dataset {
      if (auto it = datasets.find(path); it != datasets.end()) {
        Dataset ds = std::move(it->second);
        datasets.erase(it);
        return ds;
      }
      const auto fit = file_inputs.find(path);
      if (fit == file_inputs.end()) {
        throw ConfigError("operator input `" + path +
                          "` is neither an upstream output nor a bound file");
      }
      Dataset ds;
      ds.schema = fit->second->schema();
      fit->second->for_each_wire(
          file_splits.at(path)[static_cast<std::size_t>(comm.rank())],
          [&ds](std::string_view wire) { ds.page.add("", wire); });
      return ds;
    };

    std::optional<DistributedDataset> final_dist;
    std::string final_path;

    // On a recovery attempt, resume from the newest stage every rank
    // checkpointed. The store is quiescent here: this attempt's saves all
    // sit behind the opening job barrier, so every rank reads the same
    // store state and resolves the same stage. A crash with no complete
    // stage (e.g. during the first boundary) re-runs from the top.
    //
    // A single-rank replay (comm.is_replay()) instead restores this rank's
    // OWN newest slice — it may legitimately be one stage ahead of
    // latest_complete when the crash hit before the stage's barrier
    // resolved everywhere — and re-enters the loop at that stage with its
    // retention window intact, replaying alone while live peers keep going.
    std::size_t start_step = 0;
    if (ckpt && comm.is_replay() && nsteps > 0) {
      if (auto stage = ckpt->latest_for_rank(comm.rank(), nsteps - 1)) {
        auto blob = ckpt->load(*stage, comm.rank());
        PAPAR_CHECK_MSG(blob.has_value(), "rank checkpoint slice lost its blob");
        datasets = decode_datasets(*blob);
        start_step = static_cast<std::size_t>(*stage);
        if (auto* rec = comm.recorder()) rec->add_counter("ckpt.restores");
      }
    } else if (ckpt && comm.attempt() > 0 && nsteps > 0) {
      if (auto stage = ckpt->latest_complete(nsteps - 1)) {
        auto blob = ckpt->load(*stage, comm.rank());
        PAPAR_CHECK_MSG(blob.has_value(), "complete checkpoint stage lost a rank blob");
        datasets = decode_datasets(*blob);
        start_step = static_cast<std::size_t>(*stage);
        if (auto* rec = comm.recorder()) rec->add_counter("ckpt.restores");
      }
    }

    for (std::size_t s = start_step; s < steps.size(); ++s) {
      const auto& step = steps[s];
      // Stage boundary = retention-epoch boundary: acknowledged shuffle
      // segments from the previous stage are released. A replaying rank
      // re-entering at its window-start stage keeps the window (the replay
      // still serves from it); every later boundary closes it normally.
      comm.retention_epoch(s == start_step);
      if (ckpt) {
        // Saved before the boundary barrier: saves are purely local, and
        // scheduled crashes only fire at communication events, so a crash
        // can never interrupt a save — any rank inside stage s's body made
        // it past boundary s, which means every rank saved stage s first.
        // (A deterministic replay rewrites identical bytes.)
        ckpt->save(s, comm.rank(), encode_datasets(datasets));
        if (auto* rec = comm.recorder()) rec->add_counter("ckpt.saves");
      }
      job_boundary(s);
      enter_stage("job:" + step.decl->id);
      const double stage_open = comm.vtime();
      std::uint64_t in_count = 0;
      std::uint64_t out_count = 0;
      switch (step.kind) {
        case StepKind::kSort: {
          Dataset ds = take_dataset(step.input_path);
          in_count = ds.local_record_count();
          sort_op(comm, ds, step.sort);
          out_count = ds.local_record_count();
          datasets[step.output_paths[0]] = std::move(ds);
          break;
        }
        case StepKind::kGroup: {
          Dataset ds = take_dataset(step.input_path);
          in_count = ds.local_record_count();
          group_op(comm, ds, step.group);
          out_count = ds.local_record_count();
          datasets[step.output_paths[0]] = std::move(ds);
          break;
        }
        case StepKind::kSplit: {
          Dataset ds = take_dataset(step.input_path);
          in_count = ds.local_record_count();
          auto outs = split_op(comm, std::move(ds), step.split);
          for (std::size_t i = 0; i < outs.size(); ++i) {
            out_count += outs[i].local_record_count();
            datasets[step.output_paths[i]] = std::move(outs[i]);
          }
          break;
        }
        case StepKind::kDistribute: {
          // Prefix matching: "/tmp/split/" picks up both split outputs.
          std::vector<std::string> matched;
          for (const auto& [path, ds] : datasets) {
            if (path.rfind(step.input_path, 0) == 0) matched.push_back(path);
          }
          std::sort(matched.begin(), matched.end());
          std::vector<Dataset> owned;
          owned.reserve(matched.size());
          for (const auto& path : matched) owned.push_back(take_dataset(path));
          if (owned.empty()) owned.push_back(take_dataset(step.input_path));
          std::vector<Dataset*> inputs;
          inputs.reserve(owned.size());
          for (auto& ds : owned) {
            in_count += ds.local_record_count();
            inputs.push_back(&ds);
          }
          final_dist = distribute_op(comm, inputs, step.dist);
          out_count = final_dist->page.count();
          final_path = step.output_paths[0];
          break;
        }
        case StepKind::kCustom: {
          Dataset ds = take_dataset(step.input_path);
          in_count = ds.local_record_count();
          custom_ops.at(step.decl->id)[static_cast<std::size_t>(comm.rank())]->execute(
              comm, ds);
          out_count = ds.local_record_count();
          datasets[step.output_paths[0]] = std::move(ds);
          break;
        }
      }
      close_stage(s, in_count, out_count);
      comm.record_span("job:" + step.decl->id, "engine", stage_open);
    }

    // Snapshot per-rank completion time BEFORE the closing boundary (no
    // rank can have started the untimed output write yet), then let the
    // boundary read the final traffic counters — after its first barrier
    // every job send, including the stage-accounting gathers, is
    // counted, so stage deltas sum exactly to the run totals.
    job_times[static_cast<std::size_t>(comm.rank())] = comm.vtime();
    job_boundary(nsteps);
    enter_stage("output");

    std::vector<std::vector<std::string>> partitions;
    schema::Schema out_schema;
    if (final_dist) {
      partitions = materialize_partitions(comm, *final_dist);
      out_schema = final_dist->schema;
    } else {
      // No distribute: the last operator's output becomes one partition,
      // records in rank order, gathered at rank 0 (the only reader).
      const auto& last = steps.back();
      Dataset ds = take_dataset(last.output_paths[0]);
      if (ds.format == DataFormat::kPacked) unpack_op(ds);
      ByteWriter w;
      ds.page.for_each(
          [&w](std::string_view, std::string_view value) { w.put_string(std::string(value)); });
      auto all = comm.gather(0, w.take());
      partitions.resize(1);
      for (const auto& part : all) {
        ByteReader r(part);
        while (!r.done()) partitions[0].push_back(r.get_string());
      }
      out_schema = ds.schema;
    }

    if (comm.rank() == 0) {
      result.partitions = std::move(partitions);
      result.schema = std::move(out_schema);
      have_result_schema = true;
    }
  };

  // Flight recorder: a typed failure dumps the telemetry rings plus the
  // error text into a post-mortem bundle before the error continues up.
  // Only the typed "the cluster is stuck / out of budget / lost a peer /
  // crashed beyond recovery / data integrity lost" errors bundle —
  // programming errors propagate untouched.
  const auto flight_dump = [&](const char* kind, const std::exception& e) {
    if (options_.flight_rec_dir.empty()) return;
    const std::string path = obs::write_flight_bundle(
        options_.flight_rec_dir, kind, e.what(), sampler.get());
    if (!path.empty()) log::info("flight recorder: wrote ", path);
  };
  try {
    result.stats = runtime.run(body);
  } catch (const mp::DeadlockError& e) {
    flight_dump("DeadlockError", e);
    throw;
  } catch (const mp::TimeoutError& e) {
    flight_dump("TimeoutError", e);
    throw;
  } catch (const mp::PeerFailureError& e) {
    flight_dump("PeerFailureError", e);
    throw;
  } catch (const mp::RankCrashedError& e) {
    flight_dump("RankCrashedError", e);
    throw;
  } catch (const BudgetExceededError& e) {
    flight_dump("BudgetExceededError", e);
    throw;
  } catch (const DataError& e) {
    flight_dump("DataError", e);
    throw;
  }
  // Clean exit: checkpoint files have served their purpose. (A thrown run
  // never reaches this, leaving them on disk for post-mortem inspection.)
  if (ckpt) ckpt->remove_spill_files();
  // Replace the run totals with the pre-output-write snapshot.
  result.stats.rank_time = job_times;
  result.stats.makespan = *std::max_element(job_times.begin(), job_times.end());
  result.stats.remote_bytes = boundary_bytes[nsteps];
  result.stats.remote_messages = boundary_messages[nsteps];
  PAPAR_CHECK_MSG(have_result_schema, "workflow produced no result");

  result.report.makespan = result.stats.makespan;
  result.report.remote_bytes = result.stats.remote_bytes;
  result.report.remote_messages = result.stats.remote_messages;
  if (const auto* inj = runtime.fault_injector()) {
    const mp::FaultCounts fc = inj->counts();
    result.report.faults.drops = fc.drops;
    result.report.faults.duplicates = fc.duplicates;
    result.report.faults.delays = fc.delays;
    result.report.faults.crashes = fc.crashes;
    result.report.faults.retries = fc.retries;
    result.report.faults.detections = fc.detections;
    result.report.faults.recoveries = fc.recoveries;
    result.report.faults.corruptions = fc.corruptions;
    result.report.faults.rank_replays = fc.rank_replays;
    result.report.faults.segments_refetched = fc.refetches;
    result.report.faults.bytes_refetched = fc.refetch_bytes;
    result.report.faults.retention_evictions = fc.retention_evictions;
    if (ckpt) {
      result.report.faults.checkpoint_saves = ckpt->saves();
      result.report.faults.checkpoint_restores = ckpt->restores();
    }
    if (obs::MetricsRegistry* metrics = runtime.metrics()) {
      // papar_recovery_* counters: the localized-recovery ladder's work,
      // alongside the fault counters the injector already exports.
      metrics->inc("recovery.rank_replays", fc.rank_replays);
      metrics->inc("recovery.segments_refetched", fc.refetches);
      metrics->inc("recovery.bytes_refetched", fc.refetch_bytes);
      metrics->inc("recovery.retention_evictions", fc.retention_evictions);
      metrics->inc("recovery.corruptions", fc.corruptions);
    }
  }
  if (budget) {
    result.report.memory.budget_bytes = budget->config().hard_limit;
    result.report.memory.high_water_bytes = budget->high_water();
    result.report.memory.spill_bytes = budget->spill_bytes();
    result.report.memory.spill_runs = budget->spill_runs();
    result.report.memory.soft_crossings = budget->soft_crossings();
    result.report.memory.backpressure_stalls = budget->backpressure_stalls();
    result.report.memory.emergency_credits = budget->emergency_credits();
    if (obs::MetricsRegistry* metrics = runtime.metrics()) {
      // Event counters streamed in live through the budget hook; the peak
      // is only known now.
      metrics->inc("mem.high_water_bytes", budget->high_water());
    }
  }
  if (const obs::Recorder* rec = runtime.recorder()) {
    // Sort-engine breakdown (satellite of the sort-engine work): which
    // engine ran, how many radix passes executed vs. were skipped by the
    // all-equal-byte shortcut, and the SIMD level the run dispatched to.
    result.report.sort.records = rec->counter("sort.records");
    result.report.sort.merge_sorts = rec->counter("sort.engine_merge");
    result.report.sort.radix_sorts = rec->counter("sort.engine_radix");
    result.report.sort.radix_passes = rec->counter("sort.radix_passes");
    result.report.sort.radix_passes_skipped =
        rec->counter("sort.radix_passes_skipped");
    if (result.report.sort.any()) {
      result.report.sort.simd_level =
          sortlib::simd::level_name(sortlib::simd::active_level());
    }
  }
  if (sampler) {
    if (obs::MetricsRegistry* metrics = runtime.metrics()) {
      sampler->export_gauges(*metrics);
    }
  }
  result.report.stages.reserve(nsteps);
  for (std::size_t s = 0; s < nsteps; ++s) {
    obs::StageRecord rec;
    rec.id = steps[s].decl->id;
    rec.op = steps[s].decl->op;
    rec.seconds = boundary_time[s + 1] - boundary_time[s];
    rec.shuffle_bytes = boundary_bytes[s + 1] - boundary_bytes[s];
    rec.shuffle_messages = boundary_messages[s + 1] - boundary_messages[s];
    rec.records_in = stage_in[s];
    rec.records_out = stage_out[s];
    rec.reducer_skew = stage_skew[s];
    result.report.stages.push_back(std::move(rec));
  }
  return result;
}

}  // namespace papar::core
