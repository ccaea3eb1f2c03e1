// Latency helper, span log, registry deltas, JustQL query path and the run
// report shared by every workload.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/optimizer.h"
#include "sql/parser.h"

namespace justbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------- latency

namespace {

/// Nearest-rank percentile of a sorted sample.
double PercentileSorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, 50);
}

Summary Summarize(std::vector<double> samples, double max_pct) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 50);
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (pct > max_pct) continue;
    double rank = std::ceil(pct / 100.0 * static_cast<double>(s.n));
    if (static_cast<double>(s.n) - rank >= 10 || pct == 50.0) {
      s.tail = PercentileSorted(samples, pct);
      s.tail_pct = pct;
      break;
    }
  }
  return s;
}

void LatencyBooks::AddQuery(Kind kind, double ms, bool traced) {
  kind_ms[static_cast<int>(kind)].push_back(ms);
  all_ms.push_back(ms);
  (traced ? traced_ms : untraced_ms).push_back(ms);
}

void LatencyBooks::Merge(const LatencyBooks& other) {
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (int k = 0; k < kNumKinds; ++k) append(&kind_ms[k], other.kind_ms[k]);
  append(&all_ms, other.all_ms);
  append(&traced_ms, other.traced_ms);
  append(&untraced_ms, other.untraced_ms);
  append(&ingest_ms, other.ingest_ms);
  append(&notify_ms, other.notify_ms);
}

void ReportLatencies(const LatencyBooks& books, Report* report) {
  auto p50 = [report](const std::string& name, const Summary& s) {
    report->Metric(name, s.p50, "ms", static_cast<int64_t>(s.n), 50);
  };
  auto tail = [report](const std::string& name, const Summary& s) {
    report->Metric(name, s.tail, "ms", static_cast<int64_t>(s.n), s.tail_pct);
  };
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string kind = KindName(static_cast<Kind>(k));
    Summary s = Summarize(books.kind_ms[k]);
    p50(kind + "_p50_ms", s);
    tail(kind + "_tail_ms", s);
  }
  p50("query_p50_ms", Summarize(books.all_ms));
  tail("query_p99_ms", Summarize(books.all_ms, 99));
  tail("query_tail_ms", Summarize(books.all_ms));
  tail("query_p90_ms", Summarize(books.all_ms, 90));
  p50("ingest_p50_ms", Summarize(books.ingest_ms));
  tail("ingest_p90_ms", Summarize(books.ingest_ms, 90));
  tail("ingest_p99_ms", Summarize(books.ingest_ms, 99));
  p50("notify_p50_ms", Summarize(books.notify_ms));
  tail("notify_p90_ms", Summarize(books.notify_ms, 90));
  tail("notify_p99_ms", Summarize(books.notify_ms, 99));
}

double TracingOverheadPct(const LatencyBooks& books) {
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  };
  const double traced = mean(books.traced_ms);
  const double untraced = mean(books.untraced_ms);
  return traced > 0 ? 100.0 * (1.0 - untraced / traced) : 0;
}

// ------------------------------------------------------------------ spans

namespace {
thread_local uint64_t t_parent = 0;
thread_local uint64_t t_query = 0;
}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return out.good();
}

void SetSpanQuery(uint64_t query) { t_query = query; }

ScopedSpan::ScopedSpan(const char* name) {
  SpanLog& log = SpanLog::Get();
  if (!log.enabled()) return;
  active_ = true;
  span_.id = log.NextId();
  span_.parent = t_parent;
  span_.query = t_query;
  span_.name = name;
  saved_parent_ = t_parent;
  t_parent = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_parent = saved_parent_;
  SpanLog::Get().Add(span_);
}

// --------------------------------------------------------------- registry

double HistogramDelta::Quantile(double q) const {
  if (count == 0) return 0;
  double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (static_cast<double>(seen + buckets[i]) >= target) {
      double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      double hi = static_cast<double>(just::obs::Histogram::BucketUpperBound(i));
      double frac = (target - static_cast<double>(seen)) /
                    static_cast<double>(buckets[i]);
      return lo + frac * (hi - lo);
    }
    seen += buckets[i];
  }
  return 0;
}

RegistryWindow::Raw RegistryWindow::Capture() {
  auto& registry = just::obs::Registry::Global();
  just::obs::RegistrySnapshot snap = registry.GetSnapshot();
  Raw raw;
  raw.counters = snap.counters;
  for (const auto& [name, unused] : snap.histograms) {
    just::obs::Histogram* h = registry.GetHistogram(name);
    raw.hist_buckets[name] = h->CumulativeBuckets();
    raw.hist_sum[name] = h->Sum();
  }
  return raw;
}

void RegistryWindow::Start() { start_ = Capture(); }
void RegistryWindow::Stop() { stop_ = Capture(); }

uint64_t RegistryWindow::Counter(const std::string& name) const {
  auto get = [&name](const Raw& raw) -> uint64_t {
    auto it = raw.counters.find(name);
    return it == raw.counters.end() ? 0 : it->second;
  };
  uint64_t a = get(start_);
  uint64_t b = get(stop_);
  return b > a ? b - a : 0;
}

HistogramDelta RegistryWindow::Histogram(const std::string& base) const {
  HistogramDelta delta;
  delta.buckets.assign(just::obs::Histogram::kBuckets, 0);
  for (const auto& [name, after] : stop_.hist_buckets) {
    if (name != base && name.rfind(base + "{", 0) != 0) continue;
    auto it = start_.hist_buckets.find(name);
    uint64_t prev_cum = 0;
    uint64_t prev_cum_before = 0;
    for (size_t i = 0; i < after.size(); ++i) {
      uint64_t before = it == start_.hist_buckets.end() ? 0 : it->second[i];
      uint64_t in_after = after[i] - prev_cum;
      uint64_t in_before = before - prev_cum_before;
      prev_cum = after[i];
      prev_cum_before = before;
      delta.buckets[i] += in_after > in_before ? in_after - in_before : 0;
    }
    uint64_t sum_before = 0;
    auto sit = start_.hist_sum.find(name);
    if (sit != start_.hist_sum.end()) sum_before = sit->second;
    delta.sum += stop_.hist_sum.at(name) - sum_before;
  }
  for (uint64_t c : delta.buckets) delta.count += c;
  return delta;
}

// ---------------------------------------------------------------- queries

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kStRange:
      return "st_range";
    case Kind::kSpatialRange:
      return "spatial_range";
    case Kind::kKnn:
      return "knn";
    case Kind::kAttrBox:
      return "attr_box";
  }
  return "?";
}

namespace {
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MbrSql(const just::geo::Mbr& box) {
  return "st_makeMBR(" + Num(box.lng_min) + ", " + Num(box.lat_min) + ", " +
         Num(box.lng_max) + ", " + Num(box.lat_max) + ")";
}
}  // namespace

std::string Key(const char* prefix, uint64_t n) {
  std::string key = prefix;
  key += std::to_string(n);
  return key;
}

std::string QuerySql(const Query& q, const TableSpec& table) {
  const std::string& geom = table.geom;
  const std::string& time = table.time;
  const std::string& attr_col = table.attr;
  std::string sql =
      "SELECT " + table.fid + " FROM " + table.name + " WHERE ";
  switch (q.kind) {
    case Kind::kStRange:
      return sql + geom + " WITHIN " + MbrSql(q.box) + " AND " + time +
             " BETWEEN '" + just::FormatTimestamp(q.t_min) + "' AND '" +
             just::FormatTimestamp(q.t_max) + "'";
    case Kind::kSpatialRange:
      return sql + geom + " WITHIN " + MbrSql(q.box);
    case Kind::kKnn:
      return sql + geom + " IN st_KNN(st_makePoint(" + Num(q.center.lng) +
             ", " + Num(q.center.lat) + "), " + std::to_string(q.k) + ")";
    case Kind::kAttrBox:
      return sql + attr_col + " = '" + q.attr + "' AND " + geom + " WITHIN " +
             MbrSql(q.box);
  }
  return sql;
}

QueryAnswer RunSelect(just::sql::JustQL* ql, just::core::JustEngine* engine,
                      const std::string& user, const std::string& sql,
                      bool traced) {
  QueryAnswer answer;
  just::exec::DataFrame frame;
  if (!traced) {
    auto result = ql->Execute(user, sql);
    if (!result.ok()) {
      answer.error = result.status().ToString();
      return answer;
    }
    frame = std::move(result->frame);
  } else {
    ScopedSpan root("sql.query");
    just::Result<just::sql::Statement> stmt =
        just::Status::Internal("unparsed");
    {
      ScopedSpan span("sql.parse");
      stmt = just::sql::ParseStatement(sql);
    }
    if (!stmt.ok() || stmt->kind != just::sql::Statement::Kind::kSelect) {
      answer.error = stmt.ok() ? "not a SELECT" : stmt.status().ToString();
      return answer;
    }
    just::Result<std::unique_ptr<just::sql::PlanNode>> plan =
        just::Status::Internal("unplanned");
    {
      ScopedSpan span("sql.analyze");
      just::sql::Analyzer analyzer(engine, user);
      plan = analyzer.Analyze(*stmt->select);
    }
    if (plan.ok()) {
      ScopedSpan span("sql.optimize");
      plan = just::sql::Optimize(std::move(plan).value());
    }
    if (!plan.ok()) {
      answer.error = plan.status().ToString();
      return answer;
    }
    just::Result<just::exec::DataFrame> result =
        just::Status::Internal("unexecuted");
    {
      ScopedSpan span("sql.execute");
      int64_t start = NowNs();
      just::sql::Executor executor(engine, user);
      result = executor.Execute(**plan);
      answer.execute_us = static_cast<double>(NowNs() - start) / 1e3;
    }
    if (!result.ok()) {
      answer.error = result.status().ToString();
      return answer;
    }
    frame = std::move(result).value();
  }
  answer.ok = true;
  answer.fids.reserve(frame.num_rows());
  for (const auto& row : frame.rows()) {
    answer.fids.push_back(row.empty() ? std::string() : row[0].ToString());
  }
  return answer;
}

// ----------------------------------------------------------------- oracle

// The oracle's geometry is written out here rather than taken from the
// engine's geo module, so a fault there cannot hide in both.

namespace {

/// A point inside the box (edges included), or a trajectory whose MBR
/// meets it.
bool InBox(const Record& r, const just::geo::Mbr& box) {
  if (r.is_point) {
    return r.point.lng >= box.lng_min && r.point.lng <= box.lng_max &&
           r.point.lat >= box.lat_min && r.point.lat <= box.lat_max;
  }
  // A trajectory qualifies when its MBR meets the box.
  return r.bounds.lng_min <= box.lng_max && r.bounds.lng_max >= box.lng_min &&
         r.bounds.lat_min <= box.lat_max && r.bounds.lat_max >= box.lat_min;
}

/// The distance kNN ranks by: planar degrees to a point, or to the MBR of
/// a trajectory.
double KnnDistance(const Record& r, const just::geo::Point& q) {
  double dx = 0;
  double dy = 0;
  if (r.is_point) {
    dx = r.point.lng - q.lng;
    dy = r.point.lat - q.lat;
  } else {
    dx = std::max({r.bounds.lng_min - q.lng, 0.0, q.lng - r.bounds.lng_max});
    dy = std::max({r.bounds.lat_min - q.lat, 0.0, q.lat - r.bounds.lat_max});
  }
  return std::sqrt(dx * dx + dy * dy);
}

bool Matches(const Query& q, const Record& r) {
  switch (q.kind) {
    case Kind::kStRange:
      return InBox(r, q.box) && r.time >= q.t_min && r.time <= q.t_max;
    case Kind::kSpatialRange:
      return InBox(r, q.box);
    case Kind::kAttrBox:
      return r.attr == q.attr && InBox(r, q.box);
    case Kind::kKnn:
      return true;
  }
  return false;
}
}  // namespace

std::vector<uint32_t> ToRows(const std::vector<std::string>& fids,
                             const std::map<std::string, size_t>& index) {
  std::vector<uint32_t> rows;
  rows.reserve(fids.size());
  for (const std::string& fid : fids) {
    auto it = index.find(fid);
    rows.push_back(it == index.end() ? kUnknownRow
                                     : static_cast<uint32_t>(it->second));
  }
  return rows;
}

bool CheckAnswer(const Query& q, const std::vector<Record>& records,
                 size_t lo, size_t hi, const std::vector<uint32_t>& rows,
                 std::string* why) {
  // Every returned row must be one that may be visible, exactly once.
  const std::vector<uint32_t>& got = rows;
  for (uint32_t i : got) {
    if (i == kUnknownRow || i >= hi) {
      *why = i == kUnknownRow ? "fid of no generated row"
                              : "unwritten fid " + records[i].fid;
      return false;
    }
  }
  std::vector<uint32_t> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    *why = "duplicate fid in answer";
    return false;
  }
  if (q.kind != Kind::kKnn) {
    for (uint32_t i : got) {
      if (!Matches(q, records[i])) {
        const Record& r = records[i];
        char detail[256];
        std::snprintf(detail, sizeof(detail),
                      " (time %lld, at %.9f,%.9f, bounds %.9f,%.9f..%.9f,%.9f)",
                      static_cast<long long>(r.time), r.point.lng, r.point.lat,
                      r.bounds.lng_min, r.bounds.lat_min, r.bounds.lng_max,
                      r.bounds.lat_max);
        *why = "fid " + r.fid + " does not match the predicate" + detail;
        return false;
      }
    }
    for (size_t i = 0; i < lo; ++i) {
      if (!Matches(q, records[i])) continue;
      if (!std::binary_search(sorted.begin(), sorted.end(),
                              static_cast<uint32_t>(i))) {
        *why = "missing fid " + records[i].fid;
        return false;
      }
    }
    return true;
  }
  // kNN: k rows (or every visible row), none nearer left out.
  const size_t k = static_cast<size_t>(q.k);
  if (got.size() < std::min(k, lo) || got.size() > std::min(k, hi)) {
    *why = "kNN returned " + std::to_string(got.size()) + " rows for k=" +
           std::to_string(k);
    return false;
  }
  double farthest = 0;
  for (uint32_t i : got) {
    farthest = std::max(farthest, KnnDistance(records[i], q.center));
  }
  const double eps = 1e-12;
  for (size_t i = 0; i < lo; ++i) {
    if (KnnDistance(records[i], q.center) < farthest - eps &&
        !std::binary_search(sorted.begin(), sorted.end(),
                            static_cast<uint32_t>(i))) {
      *why = "kNN skipped nearer fid " + records[i].fid;
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ geofence CQ

namespace {

/// Geofence of every workload's alert continuous query.
just::geo::Mbr FenceBox() {
  return just::geo::Mbr::Of(116.30, 39.85, 116.50, 39.95);
}

}  // namespace

just::Status RegisterFence(just::core::JustEngine* engine,
                           const std::string& user, const std::string& table,
                           const std::string& geom_col,
                           std::shared_ptr<FenceProbe> probe,
                           std::unique_ptr<just::sql::Statement>* keep_alive) {
  // The alert is registered through the hub (not CREATE CONTINUOUS QUERY
  // text) so the callback can timestamp each notification; the predicate
  // is still JustQL text, parsed and compiled the way the SQL path does.
  just::geo::Mbr f = FenceBox();
  JUST_ASSIGN_OR_RETURN(
      auto stmt, just::sql::ParseStatement(
                     "SELECT * FROM " + table + " WHERE " + geom_col +
                     " WITHIN " + MbrSql(f)));
  *keep_alive = std::make_unique<just::sql::Statement>(std::move(stmt));
  JUST_ASSIGN_OR_RETURN(auto meta, engine->DescribeTable(user, table));
  just::stream::ContinuousQuerySpec spec;
  spec.name = "fence_" + table;
  spec.user = user;
  spec.table = table;
  spec.predicate_sql = (*keep_alive)->select->where->ToString();
  spec.on_notify = [probe](const just::stream::Notification& n) {
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(probe->mu);
    probe->hits.emplace_back(n.fid, now);
  };
  std::string cache_tag = std::to_string(meta.table_id) + ":" +
                          std::to_string(meta.generation);
  int time_col = meta.time_column.empty()
                     ? -1
                     : meta.ColumnIndex(meta.time_column);
  return engine->stream_hub()->Register(
      std::move(spec), meta.MakeSchema(), (*keep_alive)->select->where.get(),
      cache_tag, meta.ColumnIndex(meta.fid_column), time_col);
}

bool CheckFence(const FenceProbe& probe, const std::vector<Record>& records,
                const std::map<std::string, size_t>& index, size_t first,
                size_t end, const std::function<int64_t(size_t)>& due_ns,
                std::vector<double>* notify_ms, std::string* why) {
  std::vector<size_t> got;
  for (const auto& [fid, ns] : probe.hits) {
    auto it = index.find(fid);
    if (it == index.end()) {
      *why = "fence notified unknown fid " + fid;
      return false;
    }
    got.push_back(it->second);
    const int64_t due = due_ns(it->second);
    if (due >= 0) notify_ms->push_back(static_cast<double>(ns - due) / 1e6);
  }
  std::sort(got.begin(), got.end());
  std::vector<size_t> want;
  for (size_t i = first; i < end; ++i) {
    if (InBox(records[i], FenceBox())) want.push_back(i);
  }
  if (got != want) {
    *why = "fence notified " + std::to_string(got.size()) + " rows, " +
           std::to_string(want.size()) + " streamed rows lie inside it";
    return false;
  }
  return true;
}

// ----------------------------------------------------------------- report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples, double pct) {
  metrics_[name] = Entry{value, unit, samples, pct};
}

void Report::Number(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  info_.emplace_back(key, buf);
}

void Report::Text(const std::string& key, const std::string& text) {
  info_.emplace_back(key, "\"" + text + "\"");
}

void Report::Json(const std::string& key, const std::string& json) {
  info_.emplace_back(key, json);
}

namespace {
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}
}  // namespace

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  std::string record = "{\"run_record\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    record += (first ? "\"" : ", \"") + key + "\": " + value;
    first = false;
  }
  record += "}, \"all_metrics\": {";
  first = true;
  for (const auto& [name, e] : metrics_) {
    record += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
              JsonNumber(e.value) + ", \"unit\": \"" + e.unit + "\"";
    if (e.samples >= 0) record += ", \"samples\": " + std::to_string(e.samples);
    if (e.pct > 0) record += ", \"percentile\": " + JsonNumber(e.pct);
    record += "}";
    first = false;
  }
  record += "}}";
  std::printf("%s\n", record.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  first = true;
  for (const auto& [name, e] : metrics_) {
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            JsonNumber(e.value) + ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace justbench
