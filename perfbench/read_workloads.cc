// order_read and traj_remote_read: load a generated table through INSERT
// STREAM batches, then drive a seeded JustQL query mix from closed-loop
// clients and check every answer against brute force.
//
//  order_read        Order points (Z2 + Z2T), in process, table >= 4x the
//                    engine's total block cache, so block reads hit the
//                    modelled disk.
//  traj_remote_read  Traj trajectories (XZ2 + XZ2T, GPS lists through the
//                    gzip-role codec) on in-process RegionServers reached
//                    over loopback; table <= 1/2 of the block cache, so it
//                    is cache-resident after warm-up.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <tuple>

#include "bench.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "core/table.h"
#include "kvstore/sstable.h"
#include "layers.h"
#include "net/region_server.h"
#include "workload/generators.h"

namespace justbench {

namespace {

using just::Rng;
using just::Status;
namespace core = just::core;
namespace exec = just::exec;
namespace geo = just::geo;

constexpr const char* kUser = "bench";
constexpr int kClients = 2;
/// An untraced run's timed phase: this many query slices, each followed
/// by an ingest slice. A set-up load is too short (0.2 s for traj) to time
/// steadily on a shared host, so the ingest samples come from streaming
/// the rows into a second table, spread over the whole run.
constexpr int kIngestSlices = 10;

/// Everything about one read workload that does not change between the
/// set-up repetitions of a run.
struct ReadSpec {
  TableSpec table;
  std::string table_def;  ///< what follows CREATE TABLE <name> in JustQL
  std::vector<exec::Row> rows;
  std::vector<Record> records;
  std::map<std::string, size_t> index;  ///< fid -> records position
  uint64_t raw_bytes = 0;
  size_t batch_rows = 256;
  int remote_servers = 0;  ///< > 0: RegionServers over loopback
  int num_servers = 4;     ///< in-process engine
  int num_shards = 8;
  just::kv::StoreOptions store;
  std::vector<Query> pool;
  std::vector<std::string> pool_sql;
  /// Whole-table reads run before the warm-up slice of the pool, so a
  /// cache-resident workload starts timing with every block cached.
  std::vector<std::string> warm_sql;
  int kind_weights[kNumKinds] = {40, 20, 20, 20};
  /// fid -> the stored cell of its compressed column (empty when the
  /// table compresses nothing).
  std::map<std::string, std::string> cells;
  double compress_ratio = 0;

  /// The table the ingest slices stream into, defined like the main one.
  std::string ingest_table() const { return table.name + "_ingest"; }
};

/// A loaded engine ready for queries.
struct Loaded {
  std::string dir;
  std::vector<std::unique_ptr<just::net::RegionServer>> servers;
  std::unique_ptr<core::JustEngine> engine;
  std::unique_ptr<just::sql::JustQL> ql;
  std::shared_ptr<FenceProbe> fence;
  std::unique_ptr<just::sql::Statement> fence_stmt;
  std::shared_ptr<FenceProbe> ingest_fence;
  std::unique_ptr<just::sql::Statement> ingest_fence_stmt;

  ~Loaded() {
    ql.reset();
    engine.reset();
    servers.clear();  // ~RegionServer stops and joins its threads
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

struct SetupResult {
  double seconds = 0;
  size_t batches = 0;
  bool fence_ok = true;
  std::string fence_why;
  uint64_t disk_bytes = 0;
};

/// Opens an engine (and its servers), creates the table and the ingest
/// table, loads the table through INSERT STREAM batches with the geofence
/// CQ standing, finalizes, builds the secondary index and warms up. Timed
/// as one set-up.
Status Setup(const ReadSpec& spec, const std::string& dir, Loaded* out,
             SetupResult* result) {
  const int64_t start = NowNs();
  out->dir = dir;
  core::EngineOptions options;
  options.data_dir = dir + "/engine";
  std::filesystem::create_directories(options.data_dir);
  options.num_servers = spec.num_servers;
  options.num_shards = spec.num_shards;
  options.store = spec.store;
  options.slow_query_log_to_stderr = false;
  for (int i = 0; i < spec.remote_servers; ++i) {
    just::net::RegionServerOptions sopts;
    sopts.store = spec.store;
    sopts.store.dir = dir + "/server" + std::to_string(i);
    JUST_ASSIGN_OR_RETURN(auto server, just::net::RegionServer::Start(sopts));
    options.server_addrs.push_back("127.0.0.1:" +
                                   std::to_string(server->port()));
    out->servers.push_back(std::move(server));
  }
  JUST_ASSIGN_OR_RETURN(out->engine, core::JustEngine::Open(options));
  out->ql = std::make_unique<just::sql::JustQL>(out->engine.get());
  const std::string ingest_table = spec.ingest_table();
  for (const std::string& name : {spec.table.name, ingest_table}) {
    JUST_RETURN_NOT_OK(
        out->ql->Execute(kUser, "CREATE TABLE " + name + " " + spec.table_def)
            .status());
  }
  out->fence = std::make_shared<FenceProbe>();
  JUST_RETURN_NOT_OK(RegisterFence(out->engine.get(), kUser, spec.table.name,
                                   spec.table.geom, out->fence,
                                   &out->fence_stmt));
  // The ingest table carries what the main table does: the secondary index
  // and a geofence CQ.
  JUST_RETURN_NOT_OK(out->ql
                         ->Execute(kUser, "CREATE INDEX idx_ingest_attr ON " +
                                              ingest_table + " (" +
                                              spec.table.attr + ")")
                         .status());
  out->ingest_fence = std::make_shared<FenceProbe>();
  JUST_RETURN_NOT_OK(RegisterFence(out->engine.get(), kUser, ingest_table,
                                   spec.table.geom, out->ingest_fence,
                                   &out->ingest_fence_stmt));

  // Load: closed loop of INSERT STREAM batches.
  for (size_t first = 0; first < spec.rows.size(); first += spec.batch_rows) {
    size_t last = std::min(spec.rows.size(), first + spec.batch_rows);
    std::vector<exec::Row> batch(spec.rows.begin() + first,
                                 spec.rows.begin() + last);
    JUST_RETURN_NOT_OK(
        out->engine->InsertStream(kUser, spec.table.name, batch));
    ++result->batches;
  }
  JUST_RETURN_NOT_OK(out->engine->Finalize());
  JUST_RETURN_NOT_OK(
      out->ql
          ->Execute(kUser, "CREATE INDEX idx_attr ON " + spec.table.name +
                               " (" + spec.table.attr + ")")
          .status());

  // Warm-up: whole-table reads (if any) and a slice of the pool, so lazy
  // first-query costs and cold caches stay out of the latency samples.
  std::vector<std::string> warm = spec.warm_sql;
  for (size_t i = 0; i < spec.pool.size() && i < 64; ++i) {
    warm.push_back(spec.pool_sql[(i * 97) % spec.pool.size()]);
  }
  for (const std::string& sql : warm) {
    QueryAnswer a =
        RunSelect(out->ql.get(), out->engine.get(), kUser, sql, false);
    if (!a.ok) return Status::Internal("warm-up query failed: " + a.error);
  }
  result->seconds = static_cast<double>(NowNs() - start) / 1e9;

  // Outside the timed set-up: the fence oracle (the notification latency
  // samples come from the ingest slices).
  std::lock_guard<std::mutex> lock(out->fence->mu);
  std::vector<double> unused_ms;
  result->fence_ok = CheckFence(
      *out->fence, spec.records, spec.index, 0, spec.records.size(),
      [](size_t) { return int64_t{-1}; }, &unused_ms, &result->fence_why);
  result->disk_bytes = out->engine->GetStorageStats().disk_bytes;
  return Status::OK();
}

/// Where the ingest slices of a run have got to, and what they streamed.
struct IngestCursor {
  size_t next = 0;  ///< the next row of the table to stream
  uint64_t rows = 0;
  double seconds = 0;  ///< summed over the timed batches
};

/// One ingest slice: streams the table's rows into the ingest table in
/// closed-loop INSERT STREAM batches for `seconds`, going on from where the
/// last slice stopped and cycling through the rows; a row streamed again
/// lands on the keys it already has, so the ingest table never grows past
/// one copy. Its geofence notifications are checked for each stretch of
/// rows streamed, outside the timed batches.
void IngestSlice(const ReadSpec& spec, Loaded* loaded, double seconds,
                 IngestCursor* cursor, LatencyBooks* latency,
                 Outcome* outcome) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const size_t n = spec.rows.size();
  size_t first = cursor->next;  // start of the unchecked stretch
  std::vector<int64_t> issued;  // due time of each batch of the stretch
  auto check = [&] {
    FenceProbe& fence = *loaded->ingest_fence;
    std::lock_guard<std::mutex> lock(fence.mu);
    std::string why;
    const size_t stop = cursor->next == 0 ? n : cursor->next;
    auto due_ns = [&](size_t row) {
      return issued[(row - first) / spec.batch_rows];
    };
    if (!CheckFence(fence, spec.records, spec.index, first, stop, due_ns,
                    &latency->notify_ms, &why)) {
      ++outcome->failed;
      if (outcome->failures.size() < 5) outcome->failures.push_back(why);
    }
    fence.hits.clear();
    issued.clear();
    first = cursor->next;
  };
  do {
    const size_t last = std::min(n, cursor->next + spec.batch_rows);
    std::vector<exec::Row> batch(spec.rows.begin() + cursor->next,
                                 spec.rows.begin() + last);
    const int64_t t0 = NowNs();
    issued.push_back(t0);
    Status st =
        loaded->engine->InsertStream(kUser, spec.ingest_table(), batch);
    const int64_t t1 = NowNs();
    ++outcome->attempted;
    if (st.ok()) {
      latency->ingest_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      cursor->rows += batch.size();
      cursor->seconds += static_cast<double>(t1 - t0) / 1e9;
    } else {
      ++outcome->failed;
      if (outcome->failures.size() < 5) {
        outcome->failures.push_back("ingest: " + st.ToString());
      }
    }
    cursor->next = last == n ? 0 : last;
    if (cursor->next == 0) check();
  } while (NowNs() < end);
  if (!issued.empty()) check();
}

struct Answer {
  uint32_t pool_idx = 0;
  bool ok = false;
  std::vector<uint32_t> rows;
  bool operator<(const Answer& o) const {
    return std::tie(pool_idx, ok, rows) < std::tie(o.pool_idx, o.ok, o.rows);
  }
};

struct ClientAnswers {
  std::vector<Answer> answers;
  std::vector<std::string> errors;
  LatencyBooks latency;
};

/// Closed-loop clients for `seconds`, appending to `books`; returns the
/// queries completed and adds the time taken to `elapsed`. `slice` numbers
/// the calls of a run, so each draws its own queries. With `trace` set,
/// each client alternates between the traced and the plain JustQL path.
uint64_t RunClients(const ReadSpec& spec, Loaded* loaded, uint64_t seed,
                    int slice, double seconds, bool trace,
                    std::vector<ClientAnswers>* books, double* elapsed) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> done{0};
  std::vector<std::thread> threads;
  books->resize(kClients);
  int total_weight = 0;
  for (int w : spec.kind_weights) total_weight += w;
  // Pool positions grouped by kind, so the mix is set by kind weights.
  std::vector<uint32_t> by_kind[kNumKinds];
  for (uint32_t i = 0; i < spec.pool.size(); ++i) {
    by_kind[static_cast<int>(spec.pool[i].kind)].push_back(i);
  }
  const int64_t start = NowNs();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 7919 + static_cast<uint64_t>(c) * 104729 +
              static_cast<uint64_t>(slice) * 15485863);
      ClientAnswers& book = (*books)[c];
      uint64_t query_id = (static_cast<uint64_t>(c) << 32) +
                          (static_cast<uint64_t>(slice) << 24) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        int pick = static_cast<int>(rng.Uniform(
            static_cast<uint64_t>(total_weight)));
        int kind = 0;
        while (pick >= spec.kind_weights[kind]) pick -= spec.kind_weights[kind++];
        const auto& choices = by_kind[kind];
        uint32_t idx = choices[rng.Uniform(choices.size())];
        const bool traced = trace && query_id % 2 == 0;
        SetSpanQuery(query_id++);
        const int64_t t0 = NowNs();
        QueryAnswer a = RunSelect(loaded->ql.get(), loaded->engine.get(),
                                  kUser, spec.pool_sql[idx], traced);
        const double ms = static_cast<double>(NowNs() - t0) / 1e6;
        if (!a.ok) {
          book.errors.push_back(spec.pool_sql[idx] + ": " + a.error);
        } else {
          book.latency.AddQuery(static_cast<Kind>(kind), ms, traced);
        }
        book.answers.push_back(Answer{idx, a.ok, ToRows(a.fids, spec.index)});
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  *elapsed += static_cast<double>(NowNs() - start) / 1e9;
  return done.load();
}

/// Query pool: centers drawn from the data itself (a random record's
/// location, or a trajectory's first fix, and its time), so windows land
/// where rows are.
void BuildPool(ReadSpec* spec, uint64_t seed, int per_kind,
               double attr_box_km, int num_attrs, int k_step) {
  Rng rng(seed * 31 + 5);
  for (int k = 0; k < kNumKinds; ++k) {
    for (int i = 0; i < per_kind; ++i) {
      const Record& r = spec->records[rng.Uniform(spec->records.size())];
      geo::Point c = r.point;
      c.lng += (rng.NextDouble() - 0.5) * 0.01;
      c.lat += (rng.NextDouble() - 0.5) * 0.01;
      Query q;
      q.kind = static_cast<Kind>(k);
      switch (q.kind) {
        case Kind::kStRange: {
          // Fig 12: 3 km x 1 day around the record's time (whole seconds,
          // as JustQL timestamps are written).
          q.box = geo::SquareWindowKm(c, 3.0);
          TimestampMs t = (r.time - just::kMillisPerDay / 2) / 1000 * 1000;
          q.t_min = t;
          q.t_max = t + just::kMillisPerDay;
          break;
        }
        case Kind::kSpatialRange:
          // Fig 11: 1-5 km windows.
          q.box = geo::SquareWindowKm(c, 1.0 + static_cast<double>(rng.Uniform(5)));
          break;
        case Kind::kKnn:
          // Fig 13: k in five steps.
          q.center = c;
          q.k = k_step * (1 + static_cast<int>(rng.Uniform(5)));
          break;
        case Kind::kAttrBox:
          q.box = geo::SquareWindowKm(c, attr_box_km);
          q.attr = Key("c", rng.Uniform(num_attrs));
          break;
      }
      spec->pool.push_back(q);
      spec->pool_sql.push_back(QuerySql(q, spec->table));
    }
  }
}

void AddRecordIndex(ReadSpec* spec) {
  for (size_t i = 0; i < spec->records.size(); ++i) {
    spec->index[spec->records[i].fid] = i;
  }
}

ReadSpec MakeOrderSpec(const Args& args) {
  ReadSpec spec;
  spec.table = {"orders", "fid", "geom", "time", "courier"};
  spec.table_def =
      "(fid string:primary key, courier string, time date, "
      "geom point:srid=4326)";
  const int couriers = 500;
  just::workload::OrderOptions opts;
  opts.num_orders = args.tiny ? 4000 : 160000;
  opts.seed = args.seed;
  auto orders = just::workload::GenerateOrders(opts);
  Rng rng(args.seed * 13 + 1);
  for (const auto& o : orders) {
    Record r;
    r.fid = o.fid;
    r.attr = Key("c", rng.Uniform(couriers));
    r.time = o.time;
    r.point = o.point;
    spec.rows.push_back({exec::Value::String(r.fid),
                         exec::Value::String(r.attr),
                         exec::Value::Timestamp(r.time),
                         exec::Value::GeometryVal(
                             geo::Geometry::MakePoint(r.point))});
    spec.raw_bytes += r.fid.size() + r.attr.size() + 8 + 16;
    spec.records.push_back(std::move(r));
  }
  AddRecordIndex(&spec);
  spec.batch_rows = 64;
  spec.num_servers = 4;
  spec.num_shards = 8;
  // Memtables hold the whole load, and later a copy of the ingest table,
  // so INSERT STREAM latency is the write path itself rather than flush
  // stalls; Finalize flushes and compacts the load.
  spec.store.memtable_bytes = 32 << 20;
  // Small block cache: the table is many times larger, so most block reads
  // miss and pay the modelled disk.
  spec.store.block_cache_bytes = args.tiny ? 16 << 10 : 256 << 10;
  BuildPool(&spec, args.seed, args.tiny ? 16 : 256, 8.0, couriers, 10);
  return spec;
}

ReadSpec MakeTrajSpec(const Args& args) {
  ReadSpec spec;
  spec.table = {"traj", "tid", "item", "start_time", "oid"};
  spec.table_def = "AS trajectory";
  const int couriers = 60;
  just::workload::TrajOptions opts;
  opts.num_trajectories = args.tiny ? 400 : 2400;
  opts.points_per_traj = args.tiny ? 30 : 120;
  opts.num_days = 2;
  // kNN expands quadtree cells until k trajectories are found; the smoke
  // scale keeps the data as dense by drawing from fewer depots.
  if (args.tiny) opts.num_depots = 6;
  opts.seed = args.seed;
  auto trajs = just::workload::GenerateTrajectories(opts);
  Rng rng(args.seed * 17 + 3);
  const just::compress::Codec* codec = just::compress::Lz77Codec();
  uint64_t cell_raw = 0;
  uint64_t cell_encoded = 0;
  for (const auto& t : trajs) {
    Record r;
    r.fid = t.oid();
    r.attr = Key("c", rng.Uniform(couriers));
    r.time = t.start_time();
    r.is_point = false;
    // The table stores GPS lists delta-encoded, which quantizes
    // coordinates; the oracle sees the trajectory as stored.
    auto stored = just::traj::Trajectory::DeserializeDelta(t.oid(),
                                                           t.SerializeDelta());
    r.bounds = stored.ok() ? stored->Bounds() : t.Bounds();
    r.point = t.points().front().position;
    spec.rows.push_back(
        {exec::Value::String(r.fid), exec::Value::String(r.attr),
         exec::Value::Timestamp(t.start_time()),
         exec::Value::Timestamp(t.end_time()),
         exec::Value::TrajectoryVal(
             std::make_shared<const just::traj::Trajectory>(t))});
    spec.raw_bytes += r.fid.size() + r.attr.size() + 16 + t.size() * 24;
    // The GPS cell as the table stores it: format tag, oid, delta-encoded
    // points, framed by the gzip-role codec.
    std::string raw(1, 'D');
    just::PutLengthPrefixed(&raw, t.oid());
    just::PutLengthPrefixed(&raw, t.SerializeDelta());
    std::string cell = just::compress::EncodeCell(*codec, raw);
    cell_raw += raw.size();
    cell_encoded += cell.size();
    spec.cells[r.fid] = std::move(cell);
    spec.records.push_back(std::move(r));
  }
  spec.compress_ratio = cell_raw > 0 ? static_cast<double>(cell_encoded) /
                                           static_cast<double>(cell_raw)
                                     : 0;
  AddRecordIndex(&spec);
  spec.batch_rows = 4;
  spec.remote_servers = 2;
  spec.num_shards = 4;
  // Memtables hold a whole copy of each table, so neither a set-up load
  // nor the ingest slices flush.
  spec.store.memtable_bytes = 16 << 20;
  // Large block cache: the whole table fits in half of it.
  spec.store.block_cache_bytes = 32 << 20;
  BuildPool(&spec, args.seed, args.tiny ? 16 : 256, 12.0, couriers, 5);
  // Cache warm-up: every key space the mix reads (XZ2, XZ2T and the
  // secondary index), whole.
  Query all;
  all.box = opts.area;
  all.box.lng_min -= 1;
  all.box.lat_min -= 1;
  all.box.lng_max += 1;
  all.box.lat_max += 1;
  all.kind = Kind::kSpatialRange;
  spec.warm_sql.push_back(QuerySql(all, spec.table));
  all.kind = Kind::kStRange;
  all.t_min = just::ParseTimestamp(opts.start_date).value() - just::kMillisPerDay;
  all.t_max = all.t_min + (opts.num_days + 2) * just::kMillisPerDay;
  spec.warm_sql.push_back(QuerySql(all, spec.table));
  all.kind = Kind::kAttrBox;
  for (int c = 0; c < couriers; ++c) {
    all.attr = Key("c", c);
    spec.warm_sql.push_back(QuerySql(all, spec.table));
  }
  return spec;
}

Outcome RunRead(const ReadSpec& spec, const Args& args, Report* report) {
  Outcome outcome;
  just::kv::SetSimulatedReadBandwidthMBps(kDiskMBps);
  const int setups = args.trace || args.tiny ? 1 : 3;
  const std::string base = args.out_dir + "/data-" + std::to_string(::getpid());

  std::vector<double> setup_s;
  LatencyBooks latency;
  std::unique_ptr<Loaded> loaded;
  SetupResult last;
  for (int rep = 0; rep < setups; ++rep) {
    // The previous repetition's engine and files go first, and its heap
    // back to the system, so peak RSS is that of one set-up plus the run.
    loaded.reset();
    ::malloc_trim(0);
    loaded = std::make_unique<Loaded>();
    SetupResult result;
    Status st =
        Setup(spec, base + "/" + std::to_string(rep), loaded.get(), &result);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      outcome.attempted = 1;
      outcome.failed = 1;
      outcome.failures.push_back("setup: " + st.ToString());
      return outcome;
    }
    setup_s.push_back(result.seconds);
    outcome.attempted += result.batches;
    if (!result.fence_ok) {
      ++outcome.failed;
      outcome.failures.push_back(result.fence_why);
    }
    last = result;
  }

  // Timed phase. Query slices alternate with ingest slices, so that both
  // sample the whole run; traced runs keep the queries in one slice and
  // stream after the layer probe, so that the registry deltas and the
  // probe see queries only.
  std::vector<ClientAnswers> books;
  LayerInputs layers;
  IngestCursor ingest;
  const double ingest_seconds = args.tiny ? 0.5 : 5.0;
  const int slices = args.trace ? 1 : kIngestSlices;
  if (args.trace) {
    SpanLog::Get().set_enabled(true);
    layers.window.Start();
  }
  uint64_t queries = 0;
  double query_seconds = 0;
  for (int slice = 0; slice < slices; ++slice) {
    queries += RunClients(spec, loaded.get(), args.seed, slice,
                          static_cast<double>(args.seconds) / slices,
                          args.trace, &books, &query_seconds);
    if (!args.trace) {
      IngestSlice(spec, loaded.get(), ingest_seconds / slices, &ingest,
                  &latency, &outcome);
    }
  }
  const double qps = static_cast<double>(queries) / query_seconds;
  if (args.trace) layers.window.Stop();
  // Peak memory of set-up plus the timed run, before the oracle's work.
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  for (const ClientAnswers& book : books) latency.Merge(book.latency);

  // Oracle, outside the timed interval. Identical answers to one pool query
  // are checked once.
  std::map<Answer, bool> checked;
  uint64_t kind_rows[kNumKinds] = {0, 0, 0, 0};
  uint64_t kind_answers[kNumKinds] = {0, 0, 0, 0};
  for (const ClientAnswers& book : books) {
    for (const std::string& e : book.errors) {
      if (outcome.failures.size() < 5) outcome.failures.push_back(e);
    }
    for (const auto& answer : book.answers) {
      ++outcome.attempted;
      const int kind = static_cast<int>(spec.pool[answer.pool_idx].kind);
      kind_rows[kind] += answer.rows.size();
      ++kind_answers[kind];
      auto it = checked.find(answer);
      if (it == checked.end()) {
        std::string why;
        bool ok = answer.ok &&
                  CheckAnswer(spec.pool[answer.pool_idx], spec.records,
                              spec.records.size(), spec.records.size(),
                              answer.rows, &why);
        if (!ok && outcome.failures.size() < 5 && !why.empty()) {
          outcome.failures.push_back(spec.pool_sql[answer.pool_idx] + ": " +
                                     why);
        }
        it = checked.emplace(answer, ok).first;
      }
      if (!it->second) ++outcome.failed;
    }
  }

  if (args.trace) {
    ProbeLayers(loaded->engine.get(), loaded->ql.get(), kUser, spec.table,
                spec.pool, spec.pool_sql, spec.cells, &layers);
    SpanLog::Get().set_enabled(false);
    layers.spans = SpanLog::Get().Snapshot();
    layers.queries = latency.all_ms.size();
    layers.overhead_pct = TracingOverheadPct(latency);
    layers.compress_ratio = spec.compress_ratio;
    ReportLayers(layers, report);
  }

  if (args.trace) {
    IngestSlice(spec, loaded.get(), ingest_seconds, &ingest, &latency,
                &outcome);
  }

  // End-to-end metrics.
  report->Metric("setup_s", Median(setup_s), "s",
                 static_cast<int64_t>(setup_s.size()));
  report->Metric("query_qps", qps, "queries/s",
                 static_cast<int64_t>(latency.all_ms.size()));
  report->Metric("ingest_rows_per_s",
                 static_cast<double>(ingest.rows) / ingest.seconds, "rows/s",
                 static_cast<int64_t>(latency.ingest_ms.size()));
  ReportLatencies(latency, report);
  report->Metric("storage_bytes_per_raw_byte",
                 static_cast<double>(last.disk_bytes) /
                     static_cast<double>(spec.raw_bytes),
                 "ratio");

  // Run record: what was measured, at what size.
  const uint64_t cache_bytes =
      spec.store.block_cache_bytes *
      static_cast<uint64_t>(spec.remote_servers > 0 ? spec.remote_servers
                                                    : spec.num_servers);
  for (int k = 0; k < kNumKinds; ++k) {
    report->Number(std::string("rows_per_query_") + KindName(static_cast<Kind>(k)),
                 kind_answers[k] > 0 ? static_cast<double>(kind_rows[k]) /
                                           static_cast<double>(kind_answers[k])
                                     : 0);
  }
  report->Number("clients", kClients);
  report->Number("setups", static_cast<double>(setups));
  report->Number("dataset_rows", static_cast<double>(spec.rows.size()));
  report->Number("raw_bytes", static_cast<double>(spec.raw_bytes));
  report->Number("on_disk_bytes", static_cast<double>(last.disk_bytes));
  report->Number("block_cache_bytes", static_cast<double>(cache_bytes));
  report->Number("table_to_cache_ratio", static_cast<double>(last.disk_bytes) /
                                           static_cast<double>(cache_bytes));
  report->Number("ingest_batch_rows", static_cast<double>(spec.batch_rows));
  report->Number("query_pool", static_cast<double>(spec.pool.size()));
  report->Number("region_servers",
               static_cast<double>(spec.remote_servers > 0 ? spec.remote_servers
                                                           : spec.num_servers));
  report->Text("transport", spec.remote_servers > 0 ? "loopback-tcp" : "in-process");
  report->Text("ingest_mode",
               "closed-loop INSERT STREAM of the table's rows into " +
                   spec.ingest_table() + ", in slices between query slices");
  report->Number("ingest_phase_s", ingest_seconds);
  report->Number("ingest_slices", static_cast<double>(slices));
  loaded.reset();
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  return outcome;
}

}  // namespace

Outcome RunOrderRead(const Args& args, Report* report) {
  return RunRead(MakeOrderSpec(args), args, report);
}

Outcome RunTrajRemoteRead(const Args& args, Report* report) {
  return RunRead(MakeTrajSpec(args), args, report);
}

}  // namespace justbench
