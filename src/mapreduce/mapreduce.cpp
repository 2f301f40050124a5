#include "mapreduce/mapreduce.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "mapreduce/spill.hpp"
#include "sortlib/radix.hpp"
#include "sortlib/sort.hpp"
#include "util/hash.hpp"
#include "util/membudget.hpp"

namespace papar::mr {

namespace {

std::uint32_t read_seg_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void write_seg_u32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

/// True when the budget is configured for disk spill (soft watermark and a
/// spill directory): the signal to route sort/rewrite phases through the
/// bounded-memory paths.
bool spill_ready(const MemoryBudget* budget) {
  return budget != nullptr && budget->config().soft_limit > 0 &&
         !budget->config().spill_dir.empty();
}

SpillConfig make_spill_config(MemoryBudget* budget, int rank) {
  SpillConfig cfg;
  cfg.budget = budget;
  cfg.rank = rank;
  cfg.dir = budget->config().spill_dir;
  // Small floor so tiny budgets stay feasible: the external sort's scratch
  // charge is min(run_bytes, page size), and a run must fit under the hard
  // limit for the sort to start at all.
  cfg.run_bytes =
      std::max<std::size_t>(16u * 1024, budget->config().soft_limit / 4);
  return cfg;
}

/// Records one virtual-time span per rank for a MapReduce phase. Costs one
/// vtime() read at each end when a recorder is attached, nothing otherwise.
class PhaseSpan {
 public:
  PhaseSpan(mp::Comm* comm, const char* name) : comm_(comm), name_(name) {
    if (comm_->recorder() != nullptr) {
      active_ = true;
      begin_ = comm_->vtime();
    }
  }
  ~PhaseSpan() {
    if (active_) comm_->record_span(name_, "mr", begin_);
  }

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  mp::Comm* comm_;
  const char* name_;
  bool active_ = false;
  double begin_ = 0.0;
};

}  // namespace

void MapReduce::map(int nmap, const MapTaskFn& fn) {
  PhaseSpan span(comm_, "mr.map");
  KvEmitter emitter(page_);
  for (int itask = comm_->rank(); itask < nmap; itask += comm_->size()) {
    fn(itask, emitter);
  }
}

void MapReduce::map_kv(const MapKvFn& fn) {
  PhaseSpan span(comm_, "mr.map_kv");
  if (spill_ready(budget_)) {
    // Bounded rewrite: emissions spool to disk past the soft watermark and
    // the source page is freed before the output materializes, so the peak
    // is max(input, output) + one spool buffer instead of input + output.
    RewriteSpool spool(make_spill_config(budget_, comm_->rank()));
    KvEmitter emitter(spool.buffer());
    page_.for_each([&](std::string_view k, std::string_view v) {
      fn(k, v, emitter);
      spool.maybe_flush();
    });
    { auto old = page_.take_bytes(); }
    spool.finish(page_);
    return;
  }
  KvBuffer fresh;
  KvEmitter emitter(fresh);
  page_.for_each([&](std::string_view k, std::string_view v) { fn(k, v, emitter); });
  page_ = std::move(fresh);
}

void MapReduce::shuffle_by(const std::function<int(const KvPair&)>& route) {
  PhaseSpan span(comm_, "mr.shuffle");
  const int p = comm_->size();
  const std::uint64_t routed = page_.count();

  // Sizing pass: run the routing function exactly once per record (it may
  // be stateful — sample_sort's tie spreader is), cache the destination,
  // and accumulate exact per-destination byte counts.
  route_cache_.clear();
  route_cache_.reserve(routed);
  std::vector<std::size_t> dest_bytes(static_cast<std::size_t>(p), 0);
  page_.for_each_record(
      [&](std::span<const unsigned char> framed, std::string_view k, std::string_view v) {
        const int dest = route(KvPair{k, v});
        PAPAR_CHECK_MSG(dest >= 0 && dest < p, "partitioner returned an invalid rank");
        route_cache_.push_back(dest);
        dest_bytes[static_cast<std::size_t>(dest)] += framed.size();
      });

  std::size_t total_bytes = 0;
  for (std::size_t b : dest_bytes) total_bytes += b;
  if (obs::Recorder* rec = comm_->recorder()) {
    rec->add_counter("mr.shuffle.records", routed);
    rec->add_counter("mr.shuffle.bytes", total_bytes);
    // Fabric payload: the framed pages travel as they are on both paths.
    rec->add_counter("mr.shuffle.wire_bytes", total_bytes);
  }

  // Credit-governed runtimes take the segmented path: many bounded
  // segments per destination instead of one page-sized buffer per rank,
  // so neither the send side nor any mailbox ever holds the whole stage.
  if (budget_ != nullptr && budget_->config().mailbox_limit > 0) {
    shuffle_segmented(dest_bytes);
    return;
  }

  // Fill pass. The destination pages come from the arena — storage
  // recycled from the previous shuffle's received buffers — so
  // steady-state aggregate() loops allocate nothing per call.
  // With a (non-credit) budget attached, the arena counts as tracked
  // working memory: a stage that cannot fit fails typed, not OOM.
  BudgetScope arena_scope(budget_, comm_->rank(), total_bytes);
  arena_.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& buf = arena_[static_cast<std::size_t>(r)];
    buf.clear();
    buf.reserve(dest_bytes[static_cast<std::size_t>(r)]);
  }
  std::size_t i = 0;
  page_.for_each_record(
      [&](std::span<const unsigned char> framed, std::string_view, std::string_view) {
        auto& buf = arena_[static_cast<std::size_t>(route_cache_[i++])];
        buf.insert(buf.end(), framed.begin(), framed.end());
      });
  page_.clear();

  // Ownership-transfer shuffle: the arena pages move into the destination
  // mailboxes uncopied; the buffers received back become the next
  // shuffle's arena storage.
  auto received = comm_->alltoallv(std::move(arena_));
  for (const auto& part : received) page_.append_page(part.data(), part.size());
  arena_ = std::move(received);
  for (auto& buf : arena_) buf.clear();
}

void MapReduce::shuffle_segmented(const std::vector<std::size_t>& dest_bytes) {
  const int p = comm_->size();
  const int self = comm_->rank();
  constexpr std::size_t kSegHeader = 2 * sizeof(std::uint32_t);

  // Segment payload target: small enough that p in-flight segments stay
  // well under the soft watermark and two fit in a mailbox, large enough
  // to amortize per-message latency.
  const std::size_t soft = budget_->config().soft_limit;
  const std::size_t cap = budget_->config().mailbox_limit;
  std::size_t chunk =
      std::max<std::size_t>(soft / (4 * static_cast<std::size_t>(p)), 4096);
  chunk = std::min(chunk, std::max<std::size_t>(cap / 2, 256));
  // No segment needs to be larger than the biggest destination's data: a
  // generous budget must not inflate the staging buffers (or the measured
  // high water) past what the exchange actually moves.
  std::size_t max_dest = 0;
  for (const std::size_t b : dest_bytes) max_dest = std::max(max_dest, b);
  chunk = std::min(chunk, std::max<std::size_t>(max_dest, 256));

  // Sizing pass: per-destination segment totals under the greedy cut. The
  // final (possibly frame-less) segment every destination with records
  // receives carries the count, so receivers learn when a source is done;
  // the has-data exchange tells them which sources send nothing at all.
  std::vector<char> sending(static_cast<std::size_t>(p));
  for (std::size_t d = 0; d < sending.size(); ++d) sending[d] = dest_bytes[d] > 0;
  const std::vector<char> sources = comm_->exchange_has_data(sending);
  std::vector<std::uint32_t> total(static_cast<std::size_t>(p), 1);
  {
    std::vector<std::size_t> fill(static_cast<std::size_t>(p), 0);
    std::size_t i = 0;
    page_.for_each_record(
        [&](std::span<const unsigned char> framed, std::string_view, std::string_view) {
          const auto d = static_cast<std::size_t>(route_cache_[i++]);
          if (fill[d] > 0 && fill[d] + framed.size() > chunk) {
            ++total[d];
            fill[d] = 0;
          }
          fill[d] += framed.size();
        });
  }

  // Receiver state: segments from one source arrive in sequence order
  // (per-source FIFO), and the done mask stops consumption at the
  // announced count so a fast peer's *next* collective cannot be stolen.
  std::vector<std::uint32_t> expect(static_cast<std::size_t>(p), 0);  // 0 = unknown
  std::vector<std::uint32_t> got(static_cast<std::size_t>(p), 0);
  std::vector<char> done(static_cast<std::size_t>(p), 0);
  int open = 0;
  for (std::size_t src = 0; src < done.size(); ++src) {
    done[src] = !sources[src];
    open += sources[src];
  }
  std::vector<std::vector<std::vector<unsigned char>>> store(
      static_cast<std::size_t>(p));
  auto note_segment = [&](mp::Envelope& env) {
    const auto src = static_cast<std::size_t>(env.source);
    PAPAR_CHECK_MSG(env.payload.size() >= kSegHeader, "shuffle segment too short");
    const std::uint32_t seq = read_seg_u32(env.payload.data());
    const std::uint32_t announced = read_seg_u32(env.payload.data() + 4);
    PAPAR_CHECK_MSG(seq == got[src], "shuffle segments out of order");
    if (expect[src] == 0) {
      expect[src] = announced;
    } else {
      PAPAR_CHECK_MSG(expect[src] == announced,
                      "shuffle segment count changed mid-stream");
    }
    env.payload.erase(env.payload.begin(),
                      env.payload.begin() + static_cast<std::ptrdiff_t>(kSegHeader));
    store[src].push_back(std::move(env.payload));
    if (++got[src] == expect[src]) {
      done[src] = 1;
      --open;
    }
  };

  // Fill-and-stream pass. The p open segment buffers (≤ p * chunk bytes,
  // about a quarter of the soft watermark) are this path's tracked
  // transient; received segments replace the source page byte-for-byte.
  std::vector<std::vector<unsigned char>> seg(static_cast<std::size_t>(p));
  std::vector<std::uint32_t> seq_no(static_cast<std::size_t>(p), 0);
  auto start_segment = [&](std::size_t d) {
    auto& b = seg[d];
    b.clear();
    b.resize(kSegHeader);
    write_seg_u32(b.data(), seq_no[d]);
    write_seg_u32(b.data() + 4, total[d]);
  };
  // Tracked charge for the open buffers: each destination stages at most
  // min(chunk, its data) + header, so the charge follows the data, not the
  // worst-case p * chunk.
  const std::size_t staged = [&] {
    std::size_t sum = 0;
    for (const std::size_t b : dest_bytes) sum += std::min(chunk, b) + kSegHeader;
    return sum;
  }();
  BudgetScope scratch(budget_, self, staged);
  for (std::size_t d = 0; d < static_cast<std::size_t>(p); ++d) start_segment(d);
  mp::Envelope env;
  auto flush_segment = [&](std::size_t d) {
    comm_->shuffle_send(static_cast<int>(d), std::move(seg[d]));
    ++seq_no[d];
    start_segment(d);
    // Drain whatever already arrived: returning credits here is what
    // keeps the whole exchange flowing without watchdog stalls.
    while (open > 0 && comm_->try_shuffle_recv(done, env)) note_segment(env);
  };
  std::size_t i = 0;
  page_.for_each_record(
      [&](std::span<const unsigned char> framed, std::string_view, std::string_view) {
        const auto d = static_cast<std::size_t>(route_cache_[i++]);
        auto& b = seg[d];
        if (b.size() > kSegHeader && b.size() - kSegHeader + framed.size() > chunk) {
          flush_segment(d);
        }
        b.insert(b.end(), framed.begin(), framed.end());
      });
  // Free the source page before the final sends: the peak is then open
  // segments + received store, never + the outgoing page as well.
  { auto old = page_.take_bytes(); }
  for (std::size_t d = 0; d < static_cast<std::size_t>(p); ++d) {
    if (sending[d] == 0) continue;
    comm_->shuffle_send(static_cast<int>(d), std::move(seg[d]));
    while (open > 0 && comm_->try_shuffle_recv(done, env)) note_segment(env);
  }
  seg.clear();
  seg.shrink_to_fit();

  // Drain stragglers, blocking per still-open source (FIFO makes a
  // source-targeted blocking receive safe).
  while (open > 0) {
    if (comm_->try_shuffle_recv(done, env)) {
      note_segment(env);
      continue;
    }
    std::size_t src = 0;
    while (done[src] != 0) ++src;
    env = comm_->shuffle_recv(static_cast<int>(src));
    note_segment(env);
  }

  // Rebuild in (source rank asc, sequence asc) order — byte-identical to
  // the monolithic alltoallv result — freeing each segment as it lands.
  for (auto& source_segs : store) {
    for (auto& part : source_segs) {
      page_.append_page(part.data(), part.size());
      part = std::vector<unsigned char>();
    }
    source_segs.clear();
  }
}

void MapReduce::aggregate() {
  const int p = comm_->size();
  shuffle_by([p](const KvPair& kv) {
    return static_cast<int>(key_hash(kv.key) % static_cast<std::uint64_t>(p));
  });
}

void MapReduce::aggregate(const PartitionFn& part) {
  shuffle_by([&part](const KvPair& kv) { return part(kv.key, kv.value); });
}

void MapReduce::reduce(const ReduceFn& fn) {
  PhaseSpan span(comm_, "mr.reduce");
  // Record offsets in key order, values in page order within each group.
  // Untracked working memory, like the offset sort it replaced: reduce has
  // no external fallback, and its output spools to disk past the watermark.
  const auto offs = order_by_key(KeyColumn::key_bytes());

  const bool spooled = spill_ready(budget_);
  RewriteSpool spool(spooled ? make_spill_config(budget_, comm_->rank())
                             : SpillConfig{});
  KvBuffer fresh;
  KvEmitter emitter(spooled ? spool.buffer() : fresh);
  std::vector<std::string_view> values;
  std::size_t i = 0;
  while (i < offs.size()) {
    const auto head = page_.at(offs[i]);
    values.clear();
    values.push_back(head.value);
    std::size_t j = i + 1;
    while (j < offs.size()) {
      const auto kv = page_.at(offs[j]);
      if (kv.key != head.key) break;
      values.push_back(kv.value);
      ++j;
    }
    fn(head.key, std::span<const std::string_view>(values.data(), values.size()), emitter);
    if (spooled) spool.maybe_flush();
    i = j;
  }
  if (spooled) {
    { auto old = page_.take_bytes(); }
    spool.finish(page_);
  } else {
    page_ = std::move(fresh);
  }
}

// -- Key-column sort ------------------------------------------------------------

namespace {

/// The first `n` (<= 8) bytes at `p` as a big-endian u64, zero-padded, so
/// the integer order of the result is the lexicographic order of the bytes.
std::uint64_t load_be(const char* p, std::size_t n) {
  unsigned char buf[8] = {};
  if (n > 0) std::memcpy(buf, p, n);
  std::uint64_t v = 0;
  for (unsigned char b : buf) v = (v << 8) | b;
  return v;
}

template <typename T>
T load_le(const char* p) {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// One record of the key column: its key words and a reference packing the
/// record's page offset with the extractor's "words encode the whole key"
/// bit (the low bit, so comparing refs compares offsets).
template <int W>
struct KeyEntry {
  std::uint64_t w[W];
  std::uint64_t ref;

  std::size_t offset() const { return static_cast<std::size_t>(ref >> 1); }
  bool exact() const { return (ref & 1) != 0; }
};

template <int W>
bool words_equal(const KeyEntry<W>& a, const KeyEntry<W>& b) {
  for (int i = 0; i < W; ++i) {
    if (a.w[i] != b.w[i]) return false;
  }
  return true;
}

/// The tie-break over records with equal words.
bool tie_less(KeyColumn::TieBreak tie, const KvPair& a, const KvPair& b) {
  switch (tie) {
    case KeyColumn::TieBreak::kStable:
      return false;
    case KeyColumn::TieBreak::kKeyBytes:
      return a.key < b.key;
    case KeyColumn::TieBreak::kRecordBytes:
      if (a.key != b.key) return a.key < b.key;
      return a.value < b.value;
  }
  return false;
}

/// Whether a key column over `n` records takes the radix path.
bool use_radix(std::size_t n) { return n >= sortlib::kRadixAutoCutoff; }

/// Peak bytes of a key column over `n` records: the entries, plus the
/// scratch buffer on the radix path.
std::size_t key_column_bytes(const KeyColumn& col, std::size_t n) {
  const std::size_t entry_bytes = (static_cast<std::size_t>(col.words) + 1) * 8;
  return (use_radix(n) ? 2 : 1) * n * entry_bytes;
}

/// Sorts the page's key column and returns record offsets in column order:
/// extract, radix- or comparison-sort the words (both stable), tie-break
/// each run of equal words on record bytes, and drop the column.
template <int W>
std::vector<std::size_t> sort_key_column(const KvBuffer& page, const KeyColumn& col,
                                         bool radix, sortlib::RadixStats& stats) {
  using Entry = KeyEntry<W>;
  std::vector<Entry> entries;
  entries.reserve(page.count());
  std::size_t off = 0;
  while (off < page.byte_size()) {
    std::size_t next = 0;
    Entry e{};
    const bool exact = col.extract(page.at(off, &next), e.w);
    e.ref = (static_cast<std::uint64_t>(off) << 1) | (exact ? 1u : 0u);
    entries.push_back(e);
    off = next;
  }

  if (radix) {
    // LSD over the words: least significant word first, each pass stable.
    std::vector<Entry> scratch(entries.size());
    for (int i = W - 1; i >= 0; --i) {
      sortlib::RadixStats word;
      sortlib::lsd_radix_sort_seq(std::span<Entry>(entries), std::span<Entry>(scratch),
                                  [i](const Entry& e) { return e.w[i]; }, &word);
      stats.passes += word.passes;
      stats.skipped_passes += word.skipped_passes;
    }
  } else {
    // Offsets are unique, so ordering by them last makes std::sort stable.
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      for (int i = 0; i < W; ++i) {
        if (a.w[i] != b.w[i]) return a.w[i] < b.w[i];
      }
      return a.ref < b.ref;
    });
  }

  if (col.tie_break != KeyColumn::TieBreak::kStable) {
    std::size_t i = 0;
    while (i < entries.size()) {
      std::size_t j = i + 1;
      bool exact = entries[i].exact();
      while (j < entries.size() && words_equal(entries[j], entries[i])) {
        exact = exact && entries[j].exact();
        ++j;
      }
      // Equal whole keys leave a key-bytes tie-break nothing to decide.
      const bool decided = exact && col.tie_break == KeyColumn::TieBreak::kKeyBytes;
      if (j - i > 1 && !decided) {
        std::stable_sort(entries.begin() + static_cast<std::ptrdiff_t>(i),
                         entries.begin() + static_cast<std::ptrdiff_t>(j),
                         [&](const Entry& a, const Entry& b) {
                           return tie_less(col.tie_break, page.at(a.offset()),
                                           page.at(b.offset()));
                         });
      }
      i = j;
    }
  }

  std::vector<std::size_t> order(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) order[i] = entries[i].offset();
  return order;
}

}  // namespace

KeyColumn KeyColumn::key_bytes() {
  KeyColumn col;
  col.words = 2;
  col.tie_break = TieBreak::kKeyBytes;
  col.extract = [](const KvPair& kv, std::uint64_t* w) {
    const std::string_view k = kv.key;
    w[0] = load_be(k.data(), std::min<std::size_t>(k.size(), 8));
    const std::size_t tail = k.size() > 8 ? std::min<std::size_t>(k.size() - 8, 7) : 0;
    w[1] = (tail > 0 ? load_be(k.data() + 8, tail) : 0) | std::min<std::size_t>(k.size(), 16);
    return k.size() <= 15;
  };
  return col;
}

KeyColumn KeyColumn::u64_key() {
  KeyColumn col;
  col.extract = [](const KvPair& kv, std::uint64_t* w) {
    PAPAR_CHECK_MSG(kv.key.size() == sizeof(std::uint64_t), "u64 key column needs 8-byte keys");
    w[0] = load_le<std::uint64_t>(kv.key.data());
    return true;
  };
  return col;
}

KeyColumn KeyColumn::partition_stamp() {
  KeyColumn col;
  col.words = 2;
  // The words encode the whole key, so this orders equal (partition, stamp)
  // pairs by value bytes.
  col.tie_break = TieBreak::kRecordBytes;
  col.extract = [](const KvPair& kv, std::uint64_t* w) {
    PAPAR_CHECK_MSG(kv.key.size() == sizeof(std::uint32_t) + sizeof(std::uint64_t),
                    "partition-stamp column needs 12-byte keys");
    w[0] = load_le<std::uint32_t>(kv.key.data());
    w[1] = load_le<std::uint64_t>(kv.key.data() + sizeof(std::uint32_t));
    return true;
  };
  return col;
}

KeyColumn KeyColumn::projection(std::function<std::uint64_t(const KvPair&)> proj,
                                bool tie_break_bytes) {
  KeyColumn col;
  col.tie_break = tie_break_bytes ? TieBreak::kRecordBytes : TieBreak::kStable;
  col.extract = [proj = std::move(proj)](const KvPair& kv, std::uint64_t* w) {
    w[0] = proj(kv);
    return false;
  };
  return col;
}

bool KeyColumn::less(const KvPair& a, const KvPair& b) const {
  std::uint64_t wa[2] = {};
  std::uint64_t wb[2] = {};
  extract(a, wa);
  extract(b, wb);
  for (int i = 0; i < words; ++i) {
    if (wa[i] != wb[i]) return wa[i] < wb[i];
  }
  return tie_less(tie_break, a, b);
}

std::vector<std::size_t> MapReduce::order_by_key(const KeyColumn& col) {
  PAPAR_CHECK_MSG(col.words == 1 || col.words == 2, "a key column has one or two words");
  const std::size_t n = page_.count();
  const bool radix = use_radix(n);
  sortlib::RadixStats rstats;
  auto order = col.words == 2 ? sort_key_column<2>(page_, col, radix, rstats)
                              : sort_key_column<1>(page_, col, radix, rstats);
  if (obs::Recorder* rec = comm_->recorder()) {
    rec->add_counter("sort.records", n);
    rec->add_counter(radix ? "sort.engine_radix" : "sort.engine_merge", 1);
    if (radix) {
      rec->add_counter("sort.radix_passes", rstats.passes);
      rec->add_counter("sort.radix_passes_skipped", rstats.skipped_passes);
    }
  }
  comm_->note_sort_progress(n);
  return order;
}

void MapReduce::sort_by_key(const KeyColumn& col) {
  // The in-memory path holds the key column, then a full second copy of the
  // page for reorder(); when the larger of the two would push the rank past
  // its soft watermark, sort externally instead: sorted runs spill to disk
  // and a streaming merge rebuilds the page, byte-identical to the in-memory
  // result.
  const std::size_t column_bytes = key_column_bytes(col, page_.count());
  if (spill_ready(budget_) &&
      budget_->should_spill(comm_->rank(), std::max(column_bytes, page_.byte_size()))) {
    if (obs::Recorder* rec = comm_->recorder()) {
      rec->add_counter("sort.records", page_.count());
      rec->add_counter("sort.engine_merge", 1);
    }
    comm_->note_sort_progress(page_.count());
    external_stable_sort(
        page_, [&col](const KvPair& a, const KvPair& b) { return col.less(a, b); },
        make_spill_config(budget_, comm_->rank()));
    return;
  }
  std::vector<std::size_t> order;
  {
    BudgetScope column(budget_, comm_->rank(), column_bytes);
    order = order_by_key(col);
  }
  BudgetScope copy(budget_, comm_->rank(), page_.byte_size());
  page_.reorder(order);
}

namespace {

/// A sample record or splitter of sample_sort_u64: the directed projection
/// plus views of the record's key and value bytes (empty unless composite),
/// so duplicate projections still split by byte order. Views point into the
/// buffer the sample arrived in.
struct RecordView {
  std::uint64_t proj = 0;
  std::string_view key;
  std::string_view value;
};

/// The composite order: projection, then key bytes, then value bytes.
bool view_less(const RecordView& a, const RecordView& b) {
  if (a.proj != b.proj) return a.proj < b.proj;
  if (a.key != b.key) return a.key < b.key;
  return a.value < b.value;
}

/// Appends one sample record to `w`; the layout read_views decodes.
void put_view(ByteWriter& w, const RecordView& v, bool composite) {
  w.put<std::uint64_t>(v.proj);
  if (!composite) return;
  w.put<std::uint64_t>(v.key.size());
  w.put_bytes(v.key.data(), v.key.size());
  w.put<std::uint64_t>(v.value.size());
  w.put_bytes(v.value.data(), v.value.size());
}

/// Appends a view of every record put_view wrote to `bytes`.
void read_views(const std::vector<unsigned char>& bytes, bool composite,
                std::vector<RecordView>& out) {
  ByteReader r(bytes);
  while (!r.done()) {
    RecordView v;
    v.proj = r.get<std::uint64_t>();
    if (composite) {
      v.key = r.get_bytes(r.get<std::uint64_t>());
      v.value = r.get_bytes(r.get<std::uint64_t>());
    }
    out.push_back(v);
  }
}

}  // namespace

void MapReduce::sample_sort_u64(const KeyProjection& proj, bool ascending,
                                SplitterMethod method, int oversample,
                                bool tie_break_bytes) {
  PhaseSpan phase(comm_, "mr.sample_sort");
  const int p = comm_->size();
  // Work with a monotone transform so the routing logic is ascending-only.
  auto directed = [&proj, ascending](const KvPair& kv) {
    const std::uint64_t x = proj(kv.key, kv.value);
    return ascending ? x : ~x;
  };

  // Degenerate-key handling: with heavy key duplication the sorted sample is
  // a run of equal values, so adjacent splitters coincide and a plain
  // upper_bound routes every duplicate to the highest rank of the run — in
  // the all-equal extreme, the whole dataset lands on rank p-1 and p-1 ranks
  // receive nothing. Two complementary fixes below:
  //   * tie_break_bytes + kSampled uses composite splitters (projection, key
  //     bytes, value bytes): duplicate projections still split by bytes, and
  //     only fully identical records — interchangeable under the promised
  //     total order — remain tied.
  //   * records that compare equal to a run of coinciding splitters are
  //     spread round-robin across the run's ranks instead of all landing on
  //     the last one. Global sortedness is preserved because every boundary
  //     in the run equals the record.
  // The naive splitter with tie_break_bytes keeps the deterministic
  // upper_bound: interpolated boundaries cannot see byte order, and the mode
  // exists as the ablation's imbalanced baseline.
  if (p > 1) {
    // Splitters and routed records compare in the composite order; without
    // composite splitters their key and value views stay empty, so only the
    // projection decides.
    const bool composite = method == SplitterMethod::kSampled && tie_break_bytes;
    std::vector<RecordView> splitters;      // p-1 boundaries
    std::vector<unsigned char> boundaries;  // backs the splitters' views
    if (method == SplitterMethod::kSampled) {
      PhaseSpan span(comm_, "mr.sample_sort.splitters");
      // Evenly spaced local sample of up to oversample*p records, sorted
      // locally and gathered at rank 0. The root only merges the p sorted
      // runs and broadcasts the p-1 boundaries it picks, so the cost is
      // O(p) per rank, not O(p^2).
      const auto offs = page_.offsets();
      const std::size_t want =
          std::min<std::size_t>(offs.size(), static_cast<std::size_t>(oversample) *
                                                 static_cast<std::size_t>(p));
      std::vector<RecordView> local;
      local.reserve(want);
      for (std::size_t i = 0; i < want; ++i) {
        const auto kv = page_.at(offs[i * offs.size() / want]);
        local.push_back(composite ? RecordView{directed(kv), kv.key, kv.value}
                                  : RecordView{directed(kv), {}, {}});
      }
      std::sort(local.begin(), local.end(), view_less);
      ByteWriter w;
      for (const auto& v : local) put_view(w, v, composite);
      const auto parts = comm_->gather(0, w.take());
      if (comm_->rank() == 0) {
        // Pairwise merge of the sorted runs, log2(p) rounds. Views equal
        // under view_less carry identical bytes, so the picked boundaries
        // match a full sort of the sample bit for bit.
        std::vector<RecordView> sample;
        std::vector<std::size_t> run_end{0};
        for (const auto& part : parts) {
          read_views(part, composite, sample);
          run_end.push_back(sample.size());
        }
        const std::size_t runs = parts.size();
        for (std::size_t width = 1; width < runs; width *= 2) {
          for (std::size_t lo = 0; lo + width < runs; lo += 2 * width) {
            const std::size_t hi = std::min(lo + 2 * width, runs);
            std::inplace_merge(sample.begin() + static_cast<std::ptrdiff_t>(run_end[lo]),
                               sample.begin() + static_cast<std::ptrdiff_t>(run_end[lo + width]),
                               sample.begin() + static_cast<std::ptrdiff_t>(run_end[hi]),
                               view_less);
          }
        }
        ByteWriter bw;
        for (int i = 1; i < p; ++i) {
          // With no records anywhere the boundary value is never consulted.
          put_view(bw,
                   sample.empty() ? RecordView{std::numeric_limits<std::uint64_t>::max(), {}, {}}
                                  : sample[static_cast<std::size_t>(i) * sample.size() /
                                           static_cast<std::size_t>(p)],
                   composite);
        }
        boundaries = bw.take();
      }
      boundaries = comm_->bcast(0, std::move(boundaries));
      read_views(boundaries, composite, splitters);
      PAPAR_CHECK_MSG(splitters.size() == static_cast<std::size_t>(p - 1),
                      "sample-sort needs p-1 splitters");
    } else {
      // Naive: interpolate between the global extremes, found by one
      // min-reduction over {min, ~max}.
      std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t hi = 0;
      page_.for_each([&](std::string_view k, std::string_view v) {
        const std::uint64_t x = directed(KvPair{k, v});
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      });
      const auto ext = comm_->allreduce(
          std::vector<std::uint64_t>{lo, ~hi},
          [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
      lo = ext[0];
      hi = ~ext[1];
      if (lo > hi) {  // no records anywhere
        lo = 0;
        hi = 0;
      }
      const double span = static_cast<double>(hi - lo);
      for (int i = 1; i < p; ++i) {
        splitters.push_back(RecordView{lo + static_cast<std::uint64_t>(span * i / p), {}, {}});
      }
    }

    // Splitters must be non-decreasing or routing would break sortedness.
    for (std::size_t i = 1; i < splitters.size(); ++i) {
      PAPAR_CHECK_MSG(!view_less(splitters[i], splitters[i - 1]),
                      "sample-sort splitters must be non-decreasing");
    }

    // Records equal to coinciding splitters may go to any rank of the run;
    // spread them unless byte order must stay deterministic (naive +
    // tie_break_bytes, see above).
    const bool spread_ties = composite || !tie_break_bytes;
    std::size_t spread = 0;
    shuffle_by([&](const KvPair& kv) {
      const RecordView r = composite ? RecordView{directed(kv), kv.key, kv.value}
                                     : RecordView{directed(kv), {}, {}};
      const auto lo_idx = static_cast<std::size_t>(
          std::lower_bound(splitters.begin(), splitters.end(), r, view_less) -
          splitters.begin());
      const auto hi_idx = static_cast<std::size_t>(
          std::upper_bound(splitters.begin(), splitters.end(), r, view_less) -
          splitters.begin());
      if (lo_idx == hi_idx || !spread_ties) return static_cast<int>(hi_idx);
      return static_cast<int>(lo_idx + spread++ % (hi_idx - lo_idx + 1));
    });
  }

  // Final stable local sort by the directed projection (full-byte
  // tie-break makes the order total when requested).
  sort_by_key(KeyColumn::projection(directed, tie_break_bytes));
}

void MapReduce::gather(int root) {
  auto page = page_.take_bytes();
  page_.clear();
  auto parts = comm_->gather(root, page);
  if (comm_->rank() == root) {
    for (const auto& part : parts) page_.append_page(part.data(), part.size());
  }
}

std::uint64_t MapReduce::global_count() {
  return comm_->allreduce_sum<std::uint64_t>(page_.count());
}

std::vector<std::uint64_t> MapReduce::rank_counts() {
  ByteWriter w;
  w.put<std::uint64_t>(page_.count());
  auto all = comm_->allgather(w.take());
  std::vector<std::uint64_t> counts;
  counts.reserve(all.size());
  for (const auto& part : all) {
    ByteReader r(part);
    counts.push_back(r.get<std::uint64_t>());
  }
  return counts;
}

void MapReduce::checkpoint(CheckpointStore& store, std::uint64_t stage) const {
  store.save(stage, comm_->rank(), page_.bytes());
}

bool MapReduce::restore(CheckpointStore& store, std::uint64_t stage) {
  auto bytes = store.load(stage, comm_->rank());
  if (!bytes) return false;
  page_.adopt_bytes(std::move(*bytes));
  return true;
}

}  // namespace papar::mr
