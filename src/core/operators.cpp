#include "core/operators.hpp"

#include <algorithm>
#include <cstring>

#include "util/hash.hpp"
#include "util/log.hpp"

namespace papar::core {

namespace {

/// First record of an entry as a wire view (reconstructed into `scratch`
/// only for compressed packed entries).
std::string_view first_record_of_entry(const Dataset& ds, std::string_view value,
                                       std::string& scratch) {
  if (ds.format == DataFormat::kOrig) return value;
  return group_head(ds.schema, ds.group_key_field.value_or(0), value, scratch);
}

std::int64_t read_int_field(const schema::Schema& schema, std::string_view wire,
                            std::size_t field) {
  const auto [off, len] = field_range(schema, wire, field);
  switch (schema.field(field).type) {
    case schema::FieldType::kInt32: {
      std::int32_t v;
      std::memcpy(&v, wire.data() + off, sizeof(v));
      return v;
    }
    case schema::FieldType::kInt64: {
      std::int64_t v;
      std::memcpy(&v, wire.data() + off, sizeof(v));
      return v;
    }
    default:
      throw DataError("field `" + schema.field(field).name + "` is not an integer");
  }
}

double read_double_field(const schema::Schema& schema, std::string_view wire,
                         std::size_t field) {
  if (schema.field(field).type == schema::FieldType::kFloat64) {
    const auto [off, len] = field_range(schema, wire, field);
    double v;
    std::memcpy(&v, wire.data() + off, sizeof(v));
    return v;
  }
  return static_cast<double>(read_int_field(schema, wire, field));
}

/// For each field of `out`, the index of the same-named field of `in`
/// (types must match, or the projection is a ConfigError). Resolved once per
/// distribute input, before the record loop.
std::vector<std::size_t> projection_map(const schema::Schema& in, const schema::Schema& out) {
  std::vector<std::size_t> map;
  map.reserve(out.field_count());
  for (std::size_t i = 0; i < out.field_count(); ++i) {
    const auto& target = out.field(i);
    const std::size_t src = in.required_index(target.name);
    if (in.field(src).type != target.type) {
      throw ConfigError("field `" + target.name + "` changes type across schemas");
    }
    map.push_back(src);
  }
  return map;
}

/// Projects a wire record of `in` through `map` (see projection_map),
/// appending into `projected` (cleared first). Used by the final distribute
/// to drop add-on attributes without per-record allocation; `ranges` is
/// caller-owned scratch hoisted out of the record loop.
void project_record_into(const schema::Schema& in, const std::vector<std::size_t>& map,
                         std::string_view wire, std::string& projected,
                         std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  field_ranges_into(in, wire, ranges);
  projected.clear();
  for (const std::size_t src : map) {
    const auto [off, len] = ranges.at(src);
    projected.append(wire.substr(off, len));
  }
}

}  // namespace

// -- Shared helpers -----------------------------------------------------------

std::uint64_t project_entry_field(const Dataset& ds, std::string_view value,
                                  std::size_t field, std::string& scratch) {
  if (ds.format == DataFormat::kOrig) {
    return schema::project_field(ds.schema, value, field);
  }
  // Packed entries: plain groups start their first record at a fixed
  // offset; compressed groups need reconstruction unless the field *is*
  // the shared key.
  ByteReader r(value.data(), value.size());
  const auto fmt = r.get<unsigned char>();
  (void)r.get<std::uint32_t>();  // count
  if (fmt == 0) {
    return schema::project_field(ds.schema, value.substr(r.position()), field);
  }
  const std::size_t key_field = ds.group_key_field.value_or(0);
  if (field == key_field) {
    const auto klen = r.get<std::uint32_t>();
    const auto key_bytes = r.get_bytes(klen);
    switch (ds.schema.field(field).type) {
      case schema::FieldType::kInt32: {
        std::int32_t v;
        PAPAR_CHECK(key_bytes.size() == sizeof(v));
        std::memcpy(&v, key_bytes.data(), sizeof(v));
        return schema::project_i64(v);
      }
      case schema::FieldType::kInt64: {
        std::int64_t v;
        PAPAR_CHECK(key_bytes.size() == sizeof(v));
        std::memcpy(&v, key_bytes.data(), sizeof(v));
        return schema::project_i64(v);
      }
      case schema::FieldType::kFloat64: {
        double v;
        PAPAR_CHECK(key_bytes.size() == sizeof(v));
        std::memcpy(&v, key_bytes.data(), sizeof(v));
        return schema::project_f64(v);
      }
      case schema::FieldType::kString:
        return schema::project_string(key_bytes.substr(sizeof(std::uint32_t)));
    }
  }
  const auto head = first_record_of_entry(ds, value, scratch);
  return schema::project_field(ds.schema, head, field);
}

std::uint64_t project_entry_field(const Dataset& ds, std::string_view value,
                                  std::size_t field) {
  std::string scratch;
  return project_entry_field(ds, value, field, scratch);
}

std::int64_t entry_field_int(const Dataset& ds, std::string_view value,
                             std::size_t field, std::string& scratch) {
  const auto head = first_record_of_entry(ds, value, scratch);
  return read_int_field(ds.schema, head, field);
}

std::int64_t entry_field_int(const Dataset& ds, std::string_view value,
                             std::size_t field) {
  std::string scratch;
  return entry_field_int(ds, value, field, scratch);
}

// -- Add-ons ------------------------------------------------------------------

AddOnKind parse_addon_kind(std::string_view name) {
  if (name == "count") return AddOnKind::kCount;
  if (name == "max") return AddOnKind::kMax;
  if (name == "min") return AddOnKind::kMin;
  if (name == "mean") return AddOnKind::kMean;
  if (name == "sum") return AddOnKind::kSum;
  throw ConfigError("unknown add-on operator `" + std::string(name) + "`");
}

std::string_view addon_kind_name(AddOnKind kind) {
  switch (kind) {
    case AddOnKind::kCount: return "count";
    case AddOnKind::kMax: return "max";
    case AddOnKind::kMin: return "min";
    case AddOnKind::kMean: return "mean";
    case AddOnKind::kSum: return "sum";
  }
  throw InternalError("corrupt AddOnKind");
}

schema::FieldType addon_result_type(const AddOnSpec& spec, const schema::Schema& in) {
  if (spec.kind == AddOnKind::kCount) return schema::FieldType::kInt64;
  if (spec.kind == AddOnKind::kMean) return schema::FieldType::kFloat64;
  const auto src = in.field(in.required_index(spec.value_field)).type;
  return src == schema::FieldType::kFloat64 ? schema::FieldType::kFloat64
                                            : schema::FieldType::kInt64;
}

// -- Sort -----------------------------------------------------------------------

void sort_op(mp::Comm& comm, Dataset& ds, const SortArgs& args) {
  const std::size_t field = ds.schema.required_index(args.key);
  mr::MapReduce mr(comm);
  mr.mutable_local() = std::move(ds.page);
  // Copy the metadata sample_sort needs; `ds` itself must not be captured
  // mutable (the page has been moved out).
  const Dataset meta{ds.schema, ds.format, ds.group_key_field, {}};
  std::string head_scratch;
  mr.sample_sort_u64(
      [&meta, field, &head_scratch](std::string_view, std::string_view value) {
        return project_entry_field(meta, value, field, head_scratch);
      },
      args.ascending, args.splitter, /*oversample=*/32, /*tie_break_bytes=*/true);
  ds.page = std::move(mr.mutable_local());
}

// -- Group ----------------------------------------------------------------------

void group_op(mp::Comm& comm, Dataset& ds, const GroupArgs& args) {
  if (ds.format == DataFormat::kPacked) {
    // Grouping regroups records; flatten first.
    unpack_op(ds);
  }
  const std::size_t key_field = ds.schema.required_index(args.key);

  // Resulting schema: add-on appends its attribute after existing fields.
  schema::Schema out_schema = ds.schema;
  std::optional<schema::FieldType> attr_type;
  std::optional<std::size_t> value_field;
  if (args.addon) {
    attr_type = addon_result_type(*args.addon, ds.schema);
    if (args.addon->kind != AddOnKind::kCount) {
      value_field = ds.schema.required_index(args.addon->value_field);
    }
    out_schema.add_field(args.addon->attr_name, *attr_type,
                         ds.schema.fields().back().delimiter.empty() ? "" : "\n");
  }

  mr::MapReduce mr(comm);
  mr.mutable_local() = std::move(ds.page);

  // Re-key by the raw bytes of the group field, then co-locate equal keys.
  const schema::Schema in_schema = ds.schema;
  mr.map_kv([&in_schema, key_field](std::string_view, std::string_view value,
                                    mr::KvEmitter& emit) {
    const auto [off, len] = field_range(in_schema, value, key_field);
    emit.emit(value.substr(off, len), value);
  });
  mr.aggregate();

  const bool packed_out = args.output_format == DataFormat::kPacked;
  const AddOnSpec addon = args.addon.value_or(AddOnSpec{});
  const bool has_addon = args.addon.has_value();
  const bool compress = args.compress;
  std::string rec;  // unpacked-output scratch, reused across groups
  mr.reduce([&](std::string_view key, std::span<const std::string_view> values,
                mr::KvEmitter& emit) {
    // Apply the add-on over the group.
    std::int64_t acc_i = 0;
    double acc_d = 0.0;
    if (has_addon) {
      switch (addon.kind) {
        case AddOnKind::kCount:
          acc_i = static_cast<std::int64_t>(values.size());
          break;
        case AddOnKind::kSum:
        case AddOnKind::kMax:
        case AddOnKind::kMin: {
          if (*attr_type == schema::FieldType::kInt64) {
            bool first = true;
            for (auto v : values) {
              const std::int64_t x = read_int_field(in_schema, v, *value_field);
              if (addon.kind == AddOnKind::kSum) {
                acc_i += x;
              } else if (first) {
                acc_i = x;
              } else if (addon.kind == AddOnKind::kMax) {
                acc_i = std::max(acc_i, x);
              } else {
                acc_i = std::min(acc_i, x);
              }
              first = false;
            }
          } else {
            bool first = true;
            for (auto v : values) {
              const double x = read_double_field(in_schema, v, *value_field);
              if (addon.kind == AddOnKind::kSum) {
                acc_d += x;
              } else if (first) {
                acc_d = x;
              } else if (addon.kind == AddOnKind::kMax) {
                acc_d = std::max(acc_d, x);
              } else {
                acc_d = std::min(acc_d, x);
              }
              first = false;
            }
          }
          break;
        }
        case AddOnKind::kMean: {
          for (auto v : values) acc_d += read_double_field(in_schema, v, *value_field);
          acc_d /= static_cast<double>(values.size());
          break;
        }
      }
    }

    // The attribute bytes appended to every record (last field, so existing
    // field offsets are untouched).
    std::string_view attr;
    if (has_addon) {
      attr = *attr_type == schema::FieldType::kInt64
                 ? std::string_view(reinterpret_cast<const char*>(&acc_i), sizeof(acc_i))
                 : std::string_view(reinterpret_cast<const char*>(&acc_d), sizeof(acc_d));
    }

    if (packed_out) {
      GroupEncoder enc(in_schema, key_field, compress);
      for (auto v : values) enc.add(v, attr);
      emit.emit(key, enc.take());
    } else {
      for (auto v : values) {
        rec.assign(v);
        rec.append(attr);
        emit.emit(key, rec);
      }
    }
  });
  // reduce() emits the groups in ascending key-byte order, which is the
  // deterministic local order downstream operators rely on.

  ds.page = std::move(mr.mutable_local());
  ds.schema = std::move(out_schema);
  ds.format = args.output_format;
  ds.group_key_field = key_field;
}

// -- Split ----------------------------------------------------------------------

bool SplitCondition::matches(std::int64_t x) const {
  switch (op) {
    case Op::kGe: return x >= threshold;
    case Op::kGt: return x > threshold;
    case Op::kLe: return x <= threshold;
    case Op::kLt: return x < threshold;
    case Op::kEq: return x == threshold;
    case Op::kNe: return x != threshold;
  }
  throw InternalError("corrupt SplitCondition::Op");
}

SplitCondition parse_split_condition(std::string_view text) {
  // Syntax: "{>=, 200}" with optional whitespace.
  auto strip = [](std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
    return s;
  };
  std::string_view s = strip(text);
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') {
    throw ConfigError("bad split condition `" + std::string(text) + "`");
  }
  s = strip(s.substr(1, s.size() - 2));
  const auto comma = s.find(',');
  if (comma == std::string_view::npos) {
    throw ConfigError("split condition lacks a threshold: `" + std::string(text) + "`");
  }
  const std::string_view op_text = strip(s.substr(0, comma));
  const std::string_view value_text = strip(s.substr(comma + 1));
  SplitCondition cond;
  if (op_text == ">=") cond.op = SplitCondition::Op::kGe;
  else if (op_text == ">") cond.op = SplitCondition::Op::kGt;
  else if (op_text == "<=") cond.op = SplitCondition::Op::kLe;
  else if (op_text == "<") cond.op = SplitCondition::Op::kLt;
  else if (op_text == "==") cond.op = SplitCondition::Op::kEq;
  else if (op_text == "!=") cond.op = SplitCondition::Op::kNe;
  else throw ConfigError("unknown split operator `" + std::string(op_text) + "`");
  try {
    cond.threshold = std::stoll(std::string(value_text));
  } catch (const std::exception&) {
    throw ConfigError("bad split threshold `" + std::string(value_text) + "`");
  }
  return cond;
}

std::vector<Dataset> split_op(mp::Comm& comm, Dataset&& ds, const SplitArgs& args) {
  (void)comm;  // split is local; the signature stays collective for symmetry
  PAPAR_CHECK_MSG(!args.conditions.empty(), "split needs at least one condition");
  PAPAR_CHECK_MSG(args.output_formats.empty() ||
                      args.output_formats.size() == args.conditions.size(),
                  "split output format list length mismatch");
  const std::size_t field = ds.schema.required_index(args.key);

  std::vector<Dataset> outs(args.conditions.size());
  for (auto& out : outs) {
    out.schema = ds.schema;
    out.format = ds.format;
    out.group_key_field = ds.group_key_field;
  }
  std::string head_scratch;
  ds.page.for_each([&](std::string_view key, std::string_view value) {
    const std::int64_t x = entry_field_int(ds, value, field, head_scratch);
    for (std::size_t i = 0; i < args.conditions.size(); ++i) {
      if (args.conditions[i].matches(x)) {
        outs[i].page.add(key, value);
        return;
      }
    }
    throw DataError("split: entry with key value " + std::to_string(x) +
                    " matches no condition");
  });
  ds.page.clear();

  // Apply per-output format conversions.
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (args.output_formats.empty() || !args.output_formats[i]) continue;
    const DataFormat want = *args.output_formats[i];
    if (want == outs[i].format) continue;
    if (want == DataFormat::kOrig) {
      unpack_op(outs[i]);
    } else {
      PAPAR_CHECK_MSG(outs[i].group_key_field.has_value(),
                      "cannot pack a split output without a group key");
      pack_op(outs[i], *outs[i].group_key_field, false);
    }
  }
  return outs;
}

// -- Distribute -------------------------------------------------------------------

DistributedDataset distribute_op(mp::Comm& comm, std::vector<Dataset*> inputs,
                                 const DistributeArgs& args) {
  PAPAR_CHECK_MSG(!inputs.empty(), "distribute needs at least one input");
  const int p = comm.size();

  schema::Schema out_schema =
      args.output_schema ? *args.output_schema : inputs[0]->schema;

  // Output order stamps. Index-based policies (cyclic/block) stamp each
  // record with its global index so partitions preserve the upstream global
  // order (muBLASTP's sorted-then-round-robin layout). The hash-based
  // graphVertexCut policy has no meaningful upstream order — its input
  // arrives hash-sharded — so stamps are content hashes, which makes the
  // final partitions byte-identical regardless of how many ranks ran the
  // workflow.
  const bool content_stamps = args.policy == DistrPolicyKind::kGraphVertexCut;

  mr::KvBuffer final_page;
  std::uint64_t stamp_base = 0;
  for (std::size_t d = 0; d < inputs.size(); ++d) {
    Dataset& ds = *inputs[d];
    // Resolve the projection onto the output schema up front, on every rank
    // (with records or not), so a type-changing projection fails everywhere
    // before any communication.
    const bool needs_projection = !(ds.schema == out_schema);
    const std::vector<std::size_t> field_map =
        needs_projection ? projection_map(ds.schema, out_schema) : std::vector<std::size_t>{};

    // Global entry/record offsets for this rank. The paper applies the
    // permutation matrix to the (logically global) data vector; the offsets
    // let each mapper evaluate its rows locally. Rank 0 gathers the counts
    // and broadcasts one table of 2p+2 words: the p+1 entry prefix sums,
    // then the p+1 record prefix sums (each ending in its total).
    ByteWriter w;
    w.put<std::uint64_t>(ds.page.count());
    w.put<std::uint64_t>(ds.local_record_count());
    const auto counts = comm.gather(0, w.take());
    const auto np = static_cast<std::size_t>(p);
    std::vector<std::uint64_t> prefix(2 * np + 2, 0);
    std::vector<unsigned char> table;
    if (comm.rank() == 0) {
      for (std::size_t r = 0; r < np; ++r) {
        ByteReader br(counts[r]);
        prefix[r + 1] = prefix[r] + br.get<std::uint64_t>();
        prefix[np + 2 + r] = prefix[np + 1 + r] + br.get<std::uint64_t>();
      }
      table.resize(prefix.size() * sizeof(std::uint64_t));
      std::memcpy(table.data(), prefix.data(), table.size());
    }
    table = comm.bcast(0, std::move(table));
    PAPAR_CHECK_MSG(table.size() == prefix.size() * sizeof(std::uint64_t),
                    "distribute offset table has the wrong size");
    std::memcpy(prefix.data(), table.data(), table.size());
    const auto me = static_cast<std::size_t>(comm.rank());
    const std::uint64_t entry_offset = prefix[me];
    const std::uint64_t entry_total = prefix[np];
    const std::uint64_t record_offset = prefix[np + 1 + me];
    const std::uint64_t record_total = prefix[2 * np + 1];

    // Place entries and ship them through the shuffle *as-is*: packed
    // groups stay packed (and, when enabled, CSC-compressed — §III-D's
    // communication optimization applies here), and are unpacked by the
    // receiving reducer, matching the paper's Fig. 11 step 5.
    mr::MapReduce mr(comm);
    std::uint64_t entry_idx = entry_offset;
    std::uint64_t record_idx = record_offset;
    PlacementContext ctx;  // hoisted so ctx.scratch capacity is reused
    ctx.num_partitions = args.num_partitions;
    ctx.global_total = entry_total;
    ctx.dataset = &ds;
    ds.page.for_each([&](std::string_view, std::string_view value) {
      ctx.global_index = entry_idx;
      ctx.value = value;
      const std::size_t partition = place_entry(args.policy, ctx);
      char keybuf[sizeof(std::uint32_t) + sizeof(std::uint64_t)];
      const auto part32 = static_cast<std::uint32_t>(partition);
      const std::uint64_t stamp = stamp_base + record_idx;
      std::memcpy(keybuf, &part32, sizeof(part32));
      std::memcpy(keybuf + sizeof(part32), &stamp, sizeof(stamp));
      mr.mutable_local().add(std::string_view(keybuf, sizeof(keybuf)), value);
      record_idx +=
          ds.format == DataFormat::kPacked ? group_size(value) : 1;
      ++entry_idx;
    });
    ds.page.clear();
    stamp_base += record_total;

    // Reducer r owns partitions congruent to r modulo the rank count.
    mr.aggregate([p](std::string_view key, std::string_view) {
      std::uint32_t partition;
      std::memcpy(&partition, key.data(), sizeof(partition));
      return static_cast<int>(partition % static_cast<std::uint32_t>(p));
    });

    // Receiver side: unpack, project onto the output schema (dropping
    // add-on attributes so output format equals input format), and stamp
    // individual records.
    std::string projected;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    mr.mutable_local().for_each([&](std::string_view key, std::string_view value) {
      std::uint32_t partition;
      std::uint64_t stamp;
      std::memcpy(&partition, key.data(), sizeof(partition));
      std::memcpy(&stamp, key.data() + sizeof(partition), sizeof(stamp));
      std::uint64_t member = 0;
      auto emit_record = [&](std::string_view rec) {
        std::string_view out_rec = rec;
        if (needs_projection) {
          project_record_into(ds.schema, field_map, rec, projected, ranges);
          out_rec = projected;
        }
        const std::uint64_t st = content_stamps ? key_hash(out_rec) : stamp + member;
        char keybuf[sizeof(std::uint32_t) + sizeof(std::uint64_t)];
        std::memcpy(keybuf, &partition, sizeof(partition));
        std::memcpy(keybuf + sizeof(partition), &st, sizeof(st));
        final_page.add(std::string_view(keybuf, sizeof(keybuf)), out_rec);
        ++member;
      };
      if (ds.format == DataFormat::kPacked) {
        for_each_group_record(ds.schema, ds.group_key_field.value_or(0), value,
                              emit_record);
      } else {
        emit_record(value);
      }
    });
  }

  // Deterministic final order: by (partition, stamp, record bytes).
  mr::MapReduce sorter(comm);
  sorter.mutable_local() = std::move(final_page);
  sorter.sort_by_key(mr::KeyColumn::partition_stamp());

  DistributedDataset out;
  out.schema = std::move(out_schema);
  out.num_partitions = args.num_partitions;
  out.page = std::move(sorter.mutable_local());
  return out;
}

std::vector<std::vector<std::string>> materialize_partitions(
    mp::Comm& comm, const DistributedDataset& dist) {
  // Serialize this rank's partition contents and gather at rank 0 — the
  // equivalent of the reducers writing their partitions out. Ranks other
  // than 0 return an empty vector.
  ByteWriter w(dist.page.byte_size());
  dist.page.for_each([&](std::string_view key, std::string_view value) {
    std::uint32_t partition;
    std::memcpy(&partition, key.data(), sizeof(partition));
    w.put(partition);
    w.put_string(value);
  });
  auto all = comm.gather(0, w.take());
  if (comm.rank() != 0) return {};

  std::vector<std::vector<std::string>> partitions(dist.num_partitions);
  for (const auto& part : all) {
    ByteReader r(part);
    while (!r.done()) {
      const auto partition = r.get<std::uint32_t>();
      PAPAR_CHECK_MSG(partition < dist.num_partitions, "partition id out of range");
      partitions[partition].push_back(r.get_string());
    }
  }
  return partitions;
}

// -- Format operators --------------------------------------------------------------

void pack_op(Dataset& ds, std::size_t key_field, bool compress) {
  if (ds.format == DataFormat::kPacked) return;
  PAPAR_CHECK_MSG(key_field < ds.schema.field_count(), "bad pack key field");
  mr::KvBuffer fresh;
  std::vector<std::string> group;
  std::string group_key;
  auto flush = [&]() {
    if (group.empty()) return;
    std::vector<std::string_view> views(group.begin(), group.end());
    fresh.add(group_key, encode_group(ds.schema, key_field,
                                      std::span<const std::string_view>(views), compress));
    group.clear();
  };
  ds.page.for_each([&](std::string_view, std::string_view value) {
    const auto ranges = field_ranges(ds.schema, value);
    const auto [off, len] = ranges.at(key_field);
    const std::string key(value.substr(off, len));
    if (group.empty() || key != group_key) {
      flush();
      group_key = key;
    }
    group.emplace_back(value);
  });
  flush();
  ds.page = std::move(fresh);
  ds.format = DataFormat::kPacked;
  ds.group_key_field = key_field;
}

void unpack_op(Dataset& ds) {
  if (ds.format == DataFormat::kOrig) return;
  const std::size_t key_field = ds.group_key_field.value_or(0);
  mr::KvBuffer fresh;
  ds.page.for_each([&](std::string_view key, std::string_view value) {
    for_each_group_record(ds.schema, key_field, value,
                          [&](std::string_view rec) { fresh.add(key, rec); });
  });
  ds.page = std::move(fresh);
  ds.format = DataFormat::kOrig;
}

}  // namespace papar::core
