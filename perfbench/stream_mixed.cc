// stream_mixed: an open-loop writer sends INSERT STREAM batches of
// order-like rows at a fixed offered rate into a table that carries a
// geofence alert CQ, a sliding-window count CQ and a secondary index,
// while one closed-loop reader queries the freshest rows.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "kvstore/sstable.h"
#include "layers.h"
#include "workload/generators.h"

namespace justbench {

namespace {

using just::Rng;
using just::Status;
namespace core = just::core;
namespace exec = just::exec;
namespace geo = just::geo;

constexpr const char* kUser = "bench";
constexpr int kDistricts = 50;
/// Event time advances 1 ms per streamed row; the reader's ST range covers
/// the most recent kRecentRows rows' worth of event time.
constexpr int64_t kRecentRows = 4000;

struct StreamSpec {
  TableSpec table{"vehicles", "fid", "geom", "time", "district"};
  size_t batch_rows = 20;
  int64_t interval_us = 5000;  ///< offered rate = batch_rows / interval
  size_t warm_batches = 50;
  /// rows[0, preload) are yesterday's rows, bulk-loaded during set-up; the
  /// stream writes rows[preload, ...) in batches.
  size_t preload = 30000;
  std::vector<exec::Row> rows;
  std::vector<Record> records;
  std::map<std::string, size_t> index;
  std::vector<uint64_t> row_bytes;  ///< raw bytes per row
  just::kv::StoreOptions store;
  int num_servers = 2;
  int num_shards = 2;
  int kind_weights[kNumKinds] = {55, 15, 15, 15};

  double offered_rows_per_s() const {
    return static_cast<double>(batch_rows) * 1e6 /
           static_cast<double>(interval_us);
  }
};

StreamSpec MakeSpec(const Args& args) {
  StreamSpec spec;
  if (args.tiny) {
    spec.warm_batches = 5;
    spec.preload = 1000;
  }
  // Enough rows for warm-up plus the timed phase at the offered rate, with
  // headroom; the writer never runs out.
  const double seconds = static_cast<double>(args.seconds) + 2.0;
  const size_t total =
      spec.preload + spec.warm_batches * spec.batch_rows +
      static_cast<size_t>(seconds * spec.offered_rows_per_s() * 1.2);
  just::workload::OrderOptions opts;
  opts.num_orders = static_cast<int>(total);
  opts.seed = args.seed + 1000;
  auto points = just::workload::GenerateOrders(opts);
  Rng rng(args.seed * 19 + 7);
  const TimestampMs t0 = just::ParseTimestamp("2018-10-01 08:00:00").value();
  for (size_t i = 0; i < points.size(); ++i) {
    Record r;
    r.fid = Key("s", i);
    r.attr = Key("c", rng.Uniform(kDistricts));
    r.time = i < spec.preload
                 ? t0 - just::kMillisPerDay + static_cast<int64_t>(i) * 1000
                 : t0 + static_cast<int64_t>(i - spec.preload);
    r.point = points[i].point;
    const double speed = rng.Uniform(0.0, 120.0);
    spec.rows.push_back(
        {exec::Value::String(r.fid), exec::Value::String(r.attr),
         exec::Value::Double(speed), exec::Value::Timestamp(r.time),
         exec::Value::GeometryVal(geo::Geometry::MakePoint(r.point))});
    spec.row_bytes.push_back(r.fid.size() + r.attr.size() + 8 + 8 + 16);
    spec.index[r.fid] = i;
    spec.records.push_back(std::move(r));
  }
  // Small memtables, levels and files, so a run spans many flush and
  // compaction cycles (~40 flushes and ~12 compactions in 20 s) rather than
  // a few large compactions whose timing decides the tail.
  spec.store.memtable_bytes = 1 << 20;
  spec.store.level_base_bytes = 4 << 20;
  spec.store.target_file_size = 1 << 20;
  spec.store.block_cache_bytes = 8 << 20;
  return spec;
}

struct Engine {
  std::string dir;
  std::unique_ptr<core::JustEngine> engine;
  std::unique_ptr<just::sql::JustQL> ql;
  std::shared_ptr<FenceProbe> fence;
  std::unique_ptr<just::sql::Statement> fence_stmt;

  ~Engine() {
    ql.reset();
    engine.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// The writer's shared progress, in row positions: rows [0, committed) are
/// durable and visible; rows [committed, started) may be.
struct Progress {
  std::atomic<size_t> committed{0};
  std::atomic<size_t> started{0};
};

struct StreamAnswer {
  Query q;
  size_t lo = 0;
  size_t hi = 0;
  bool ok = false;
  std::string error;
  std::vector<uint32_t> rows;
};

/// What the timed phase leaves behind for the oracle and the report.
struct PhaseResult {
  std::vector<double> late_ms;    ///< generator lateness per batch
  std::vector<int64_t> due_ns;    ///< due time per batch of the phase
  size_t first_batch = 0;
  uint64_t rows = 0;
  uint64_t raw_bytes = 0;
  double seconds = 0;
  std::vector<StreamAnswer> answers;
  LatencyBooks latency;
  uint64_t write_errors = 0;
  std::vector<std::string> failures;
};

/// First row position of stream batch `batch`.
size_t BatchStart(const StreamSpec& spec, size_t batch) {
  return spec.preload + batch * spec.batch_rows;
}

Status InsertBatch(const StreamSpec& spec, Engine* e, size_t batch) {
  const size_t first = BatchStart(spec, batch);
  std::vector<exec::Row> rows(spec.rows.begin() + first,
                              spec.rows.begin() + first + spec.batch_rows);
  ScopedSpan span("core.insert_stream");
  return e->engine->InsertStream(kUser, spec.table.name, rows);
}

Query MakeQuery(const StreamSpec& spec, Rng* rng, size_t visible) {
  int total = 0;
  for (int w : spec.kind_weights) total += w;
  int pick = static_cast<int>(rng->Uniform(static_cast<uint64_t>(total)));
  int kind = 0;
  while (pick >= spec.kind_weights[kind]) pick -= spec.kind_weights[kind++];
  // Centered on a recent row, so windows land where fresh rows are.
  const size_t span =
      std::min<size_t>(visible - spec.preload, kRecentRows);
  const Record& r = spec.records[visible - 1 - rng->Uniform(span)];
  Query q;
  q.kind = static_cast<Kind>(kind);
  switch (q.kind) {
    case Kind::kStRange: {
      // Fig 12's ST range over the most recent stream window (whole
      // seconds, as JustQL timestamps are written).
      q.box = geo::SquareWindowKm(r.point, 3.0);
      const TimestampMs newest = spec.records[visible - 1].time;
      q.t_max = newest / 1000 * 1000;
      q.t_min = q.t_max - kRecentRows;
      break;
    }
    case Kind::kSpatialRange:
      q.box = geo::SquareWindowKm(r.point, 1.0 + static_cast<double>(rng->Uniform(5)));
      break;
    case Kind::kKnn:
      q.center = r.point;
      q.k = 10 * (1 + static_cast<int>(rng->Uniform(5)));
      break;
    case Kind::kAttrBox:
      q.box = geo::SquareWindowKm(r.point, 8.0);
      q.attr = Key("c", rng->Uniform(kDistricts));
      break;
  }
  return q;
}

/// The timed phase: the open-loop writer and the closed-loop reader run
/// side by side for `seconds`. With `trace` set the reader alternates
/// between the traced and the plain JustQL path.
PhaseResult RunPhase(const StreamSpec& spec, Engine* e, Progress* progress,
                     size_t first_batch, double seconds, uint64_t seed,
                     bool trace) {
  PhaseResult out;
  out.first_batch = first_batch;
  std::atomic<bool> stop{false};
  const int64_t start = NowNs() + 1000000;  // first batch due in 1 ms
  const size_t max_batches =
      (spec.rows.size() - spec.preload) / spec.batch_rows;
  std::vector<double> ingest_ms;

  std::thread writer([&] {
    for (size_t b = first_batch;; ++b) {
      const int64_t due =
          start + static_cast<int64_t>(b - first_batch) * spec.interval_us * 1000;
      if (static_cast<double>(due - start) / 1e9 >= seconds || b >= max_batches) {
        break;
      }
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      out.late_ms.push_back(static_cast<double>(now - due) / 1e6);
      out.due_ns.push_back(due);
      progress->started.store(BatchStart(spec, b + 1));
      SetSpanQuery((1ull << 40) + b);
      Status st = InsertBatch(spec, e, b);
      if (!st.ok()) {
        ++out.write_errors;
        if (out.failures.size() < 5) out.failures.push_back(st.ToString());
        break;  // later rows' times assume every earlier batch committed
      }
      ingest_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
      progress->committed.store(BatchStart(spec, b + 1));
      out.rows += spec.batch_rows;
      for (size_t i = BatchStart(spec, b); i < BatchStart(spec, b + 1); ++i) {
        out.raw_bytes += spec.row_bytes[i];
      }
    }
    stop.store(true);
  });

  std::thread reader([&] {
    Rng rng(seed * 7919 + 3);
    uint64_t query_id = 1;
    while (!stop.load()) {
      const size_t lo = progress->committed.load();
      Query q = MakeQuery(spec, &rng, lo);
      const std::string sql = QuerySql(q, spec.table);
      const bool traced = trace && query_id % 2 == 0;
      SetSpanQuery(query_id++);
      const int64_t t0 = NowNs();
      QueryAnswer a =
          RunSelect(e->ql.get(), e->engine.get(), kUser, sql, traced);
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      StreamAnswer answer;
      answer.q = q;
      answer.lo = lo;
      answer.hi = progress->started.load();
      answer.ok = a.ok;
      answer.error = a.error;
      answer.rows = ToRows(a.fids, spec.index);
      if (a.ok) out.latency.AddQuery(q.kind, ms, traced);
      out.answers.push_back(std::move(answer));
    }
  });
  writer.join();
  reader.join();
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  out.latency.ingest_ms = std::move(ingest_ms);
  return out;
}

/// Opens the engine, creates the table, bulk-loads yesterday's rows,
/// builds the secondary index, registers both CQs, and warms up with a few
/// streamed batches and reads. Timed as set-up.
Status Setup(const StreamSpec& spec, const std::string& dir, Engine* e,
             Progress* progress, double* seconds) {
  const int64_t start = NowNs();
  e->dir = dir;
  std::filesystem::create_directories(dir);
  core::EngineOptions options;
  options.data_dir = dir;
  options.num_servers = spec.num_servers;
  options.num_shards = spec.num_shards;
  options.store = spec.store;
  options.slow_query_log_to_stderr = false;
  JUST_ASSIGN_OR_RETURN(e->engine, core::JustEngine::Open(options));
  e->ql = std::make_unique<just::sql::JustQL>(e->engine.get());
  JUST_RETURN_NOT_OK(
      e->ql
          ->Execute(kUser,
                    "CREATE TABLE vehicles (fid string:primary key, "
                    "district string, speed double, time date, "
                    "geom point:srid=4326)")
          .status());
  for (size_t first = 0; first < spec.preload; first += 2048) {
    const size_t last = std::min(spec.preload, first + 2048);
    std::vector<exec::Row> chunk(spec.rows.begin() + first,
                                 spec.rows.begin() + last);
    JUST_RETURN_NOT_OK(e->engine->InsertBatch(kUser, spec.table.name, chunk));
  }
  JUST_RETURN_NOT_OK(e->engine->Finalize());
  progress->started.store(spec.preload);
  progress->committed.store(spec.preload);
  for (const char* sql :
       {"CREATE INDEX idx_district ON vehicles (district)",
        "CREATE CONTINUOUS QUERY heat ON vehicles GROUP BY district "
        "WINDOW 10 seconds"}) {
    JUST_RETURN_NOT_OK(e->ql->Execute(kUser, sql).status());
  }
  e->fence = std::make_shared<FenceProbe>();
  JUST_RETURN_NOT_OK(RegisterFence(e->engine.get(), kUser, spec.table.name,
                                   spec.table.geom, e->fence,
                                   &e->fence_stmt));
  Rng rng(99);
  for (size_t b = 0; b < spec.warm_batches; ++b) {
    progress->started.store(BatchStart(spec, b + 1));
    JUST_RETURN_NOT_OK(InsertBatch(spec, e, b));
    progress->committed.store(BatchStart(spec, b + 1));
    Query q = MakeQuery(spec, &rng, progress->committed.load());
    QueryAnswer a = RunSelect(e->ql.get(), e->engine.get(), kUser,
                              QuerySql(q, spec.table), false);
    if (!a.ok) return Status::Internal("warm-up query failed: " + a.error);
  }
  *seconds = static_cast<double>(NowNs() - start) / 1e9;
  return Status::OK();
}

void CheckPhase(const StreamSpec& spec, const PhaseResult& phase,
                Outcome* outcome) {
  outcome->attempted += phase.latency.ingest_ms.size() + phase.write_errors;
  outcome->failed += phase.write_errors;
  for (const std::string& f : phase.failures) outcome->failures.push_back(f);
  for (const StreamAnswer& a : phase.answers) {
    ++outcome->attempted;
    std::string why = a.error;
    if (!a.ok ||
        !CheckAnswer(a.q, spec.records, a.lo, a.hi, a.rows, &why)) {
      ++outcome->failed;
      if (outcome->failures.size() < 5) {
        outcome->failures.push_back(QuerySql(a.q, spec.table) + ": " + why);
      }
    }
  }
}

}  // namespace

Outcome RunStreamMixed(const Args& args, Report* report) {
  Outcome outcome;
  just::kv::SetSimulatedReadBandwidthMBps(kDiskMBps);
  const StreamSpec spec = MakeSpec(args);
  const int setups = args.trace || args.tiny ? 1 : 5;
  const std::string base = args.out_dir + "/data-" + std::to_string(::getpid());

  std::vector<double> setup_s;
  std::unique_ptr<Engine> e;
  std::unique_ptr<Progress> progress;
  for (int rep = 0; rep < setups; ++rep) {
    e.reset();  // as in the read workloads: one set-up's heap at a time
    ::malloc_trim(0);
    e = std::make_unique<Engine>();
    progress = std::make_unique<Progress>();
    double seconds = 0;
    Status st = Setup(spec, base + "/" + std::to_string(rep), e.get(),
                      progress.get(), &seconds);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      outcome.attempted = 1;
      outcome.failed = 1;
      return outcome;
    }
    setup_s.push_back(seconds);
  }

  LayerInputs layers;
  if (args.trace) {
    SpanLog::Get().set_enabled(true);
    layers.window.Start();
  }
  PhaseResult phase = RunPhase(spec, e.get(), progress.get(),
                               spec.warm_batches, args.seconds, args.seed,
                               args.trace);
  if (args.trace) layers.window.Stop();
  // Peak memory of set-up plus the timed run, before the oracle's work and
  // the final compaction for the storage figure.
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  const size_t streamed = progress->committed.load();

  // Oracle, outside the timed interval.
  CheckPhase(spec, phase, &outcome);
  uint64_t kind_rows[kNumKinds] = {0, 0, 0, 0};
  uint64_t kind_answers[kNumKinds] = {0, 0, 0, 0};
  for (const StreamAnswer& a : phase.answers) {
    kind_rows[static_cast<int>(a.q.kind)] += a.rows.size();
    ++kind_answers[static_cast<int>(a.q.kind)];
  }
  std::string why;
  ++outcome.attempted;
  // Notification latency counts for the timed phase's batches only.
  auto due_ns = [&](size_t row) -> int64_t {
    if (row < BatchStart(spec, phase.first_batch)) return -1;
    const size_t batch = (row - spec.preload) / spec.batch_rows;
    return batch - phase.first_batch < phase.due_ns.size()
               ? phase.due_ns[batch - phase.first_batch]
               : -1;
  };
  {
    std::lock_guard<std::mutex> lock(e->fence->mu);
    if (!CheckFence(*e->fence, spec.records, spec.index, spec.preload,
                    streamed, due_ns, &phase.latency.notify_ms, &why)) {
      ++outcome.failed;
      outcome.failures.push_back(why);
    }
  }

  if (args.trace) {
    // Sampled layer probe over the final table with the run's own queries.
    std::vector<Query> queries;
    std::vector<std::string> sqls;
    for (const StreamAnswer& a : phase.answers) {
      queries.push_back(a.q);
      sqls.push_back(QuerySql(a.q, spec.table));
    }
    ProbeLayers(e->engine.get(), e->ql.get(), kUser, spec.table, queries,
                sqls, {}, &layers);
    SpanLog::Get().set_enabled(false);
    layers.spans = SpanLog::Get().Snapshot();
    layers.queries = phase.latency.all_ms.size();
    layers.overhead_pct = TracingOverheadPct(phase.latency);
    layers.ingested_rows = phase.rows;
    layers.ingested_raw_bytes = phase.raw_bytes;
    layers.generator_late_ms = phase.late_ms;
    ReportLayers(layers, report);
  }

  // Storage after the run, flushed and compacted (outside timing).
  uint64_t raw_bytes = 0;
  for (size_t i = 0; i < streamed; ++i) raw_bytes += spec.row_bytes[i];
  uint64_t disk_bytes = 0;
  if (e->engine->Finalize().ok()) {
    disk_bytes = e->engine->GetStorageStats().disk_bytes;
  }

  report->Metric("setup_s", Median(setup_s), "s",
                 static_cast<int64_t>(setup_s.size()));
  report->Metric("query_qps",
                 static_cast<double>(phase.latency.all_ms.size()) /
                     phase.seconds,
                 "queries/s",
                 static_cast<int64_t>(phase.latency.all_ms.size()));
  report->Metric("ingest_rows_per_s",
                 static_cast<double>(phase.rows) / phase.seconds, "rows/s",
                 static_cast<int64_t>(phase.latency.ingest_ms.size()));
  ReportLatencies(phase.latency, report);
  report->Metric("storage_bytes_per_raw_byte",
                 raw_bytes > 0 ? static_cast<double>(disk_bytes) /
                                     static_cast<double>(raw_bytes)
                               : 0,
                 "ratio");
  Summary lateness = Summarize(phase.late_ms, 99);
  report->Metric("generator_late_ms_p99", lateness.tail, "ms",
                 static_cast<int64_t>(lateness.n), lateness.tail_pct);

  for (int k = 0; k < kNumKinds; ++k) {
    report->Number(std::string("rows_per_query_") + KindName(static_cast<Kind>(k)),
                 kind_answers[k] > 0 ? static_cast<double>(kind_rows[k]) /
                                           static_cast<double>(kind_answers[k])
                                     : 0);
  }
  report->Text("clients", std::string("1 open-loop writer + 1 closed-loop reader"));
  report->Number("setups", static_cast<double>(setups));
  report->Number("offered_rows_per_s", spec.offered_rows_per_s());
  report->Number("ingest_batch_rows", static_cast<double>(spec.batch_rows));
  report->Number("dataset_rows", static_cast<double>(streamed));
  report->Number("preload_rows", static_cast<double>(spec.preload));
  report->Number("raw_bytes", static_cast<double>(raw_bytes));
  report->Number("on_disk_bytes", static_cast<double>(disk_bytes));
  report->Number("block_cache_bytes",
               static_cast<double>(spec.store.block_cache_bytes *
                                   static_cast<size_t>(spec.num_servers)));
  report->Number("memtable_bytes", static_cast<double>(spec.store.memtable_bytes));
  report->Number("region_servers", static_cast<double>(spec.num_servers));
  report->Text("transport", "in-process");
  e.reset();
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  return outcome;
}

}  // namespace justbench
