// Shared pieces of the JustQL benchmark: arguments, the latency helper, the
// in-memory span log, registry deltas, the brute-force oracle and the run
// report. Each workload lives in its own source file and drives the engine
// only through its public JustEngine / JustQL API.
#ifndef JUSTBENCH_BENCH_H_
#define JUSTBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/time_util.h"
#include "core/engine.h"
#include "geo/point.h"
#include "obs/metrics.h"
#include "sql/justql.h"

namespace justbench {

using just::TimestampMs;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool tiny = false;           ///< smoke-test scale
  std::string out_dir = ".bench_run";
  std::string git_sha = "unknown";
};

/// Modelled disk bandwidth for every workload (the figure benches' disk).
constexpr double kDiskMBps = 300.0;

int64_t NowNs();
double PeakRssMb();

// ---------------------------------------------------------------- latency

/// A timing summary: the median plus the highest of the standard
/// percentiles, up to `max_pct`, that still has at least ten samples
/// beyond it.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  ///< which percentile `tail` is (0 when n == 0)
};
Summary Summarize(std::vector<double> samples, double max_pct = 99.9);
double Median(std::vector<double> samples);

// ------------------------------------------------------------------ spans

/// One timed call into a layer's public function, recorded by the traced
/// run from the benchmark's own code.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t query = 0;   ///< query (or ingest batch) id shared by its spans
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Process-wide span buffer. Recording is off unless enabled; spans are
/// kept in memory and written as JSON lines when the run ends.
class SpanLog {
 public:
  static SpanLog& Get();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Span& span);
  std::vector<Span> Snapshot() const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Sets the query id that spans opened on this thread carry.
void SetSpanQuery(uint64_t query);

/// RAII span around one call; parents nest per thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
  uint64_t saved_parent_ = 0;
};

// --------------------------------------------------------------- registry

/// Quantile and sum of a histogram's growth between two moments, from the
/// registry's power-of-two buckets.
struct HistogramDelta {
  std::vector<uint64_t> buckets;  ///< per-bucket (non-cumulative) counts
  uint64_t count = 0;
  uint64_t sum = 0;
  double Quantile(double q) const;
};

/// Counter and histogram deltas of obs::Registry::Global() over a window.
class RegistryWindow {
 public:
  void Start();
  void Stop();
  uint64_t Counter(const std::string& name) const;
  /// Merges every histogram whose name is `base` or `base{labels}`.
  HistogramDelta Histogram(const std::string& base) const;

 private:
  struct Raw {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, std::vector<uint64_t>> hist_buckets;
    std::map<std::string, uint64_t> hist_sum;
  };
  static Raw Capture();
  Raw start_;
  Raw stop_;
};

// ----------------------------------------------------------------- oracle

/// One generated record as the oracle sees it.
struct Record {
  std::string fid;
  std::string attr;      ///< the secondary-indexed attribute
  TimestampMs time = 0;  ///< the table's time column
  bool is_point = true;
  just::geo::Point point;     ///< points
  just::geo::Mbr bounds;      ///< trajectories: their MBR
};

enum class Kind { kStRange = 0, kSpatialRange, kKnn, kAttrBox };
constexpr int kNumKinds = 4;
const char* KindName(Kind kind);

struct Query {
  Kind kind = Kind::kStRange;
  just::geo::Mbr box;
  TimestampMs t_min = 0;
  TimestampMs t_max = 0;
  just::geo::Point center;
  int k = 0;
  std::string attr;
};

/// A benchmark table's name and the columns its queries use.
struct TableSpec {
  std::string name;
  std::string fid;
  std::string geom;
  std::string time;
  std::string attr;  ///< carries the CREATE INDEX secondary index
};

/// A generated key: `prefix` followed by `n` in decimal ("c17").
std::string Key(const char* prefix, uint64_t n);

/// JustQL text for a query. Coordinates print with round-trip precision so
/// the engine and the oracle see the same doubles.
std::string QuerySql(const Query& q, const TableSpec& table);

/// Row position of each returned fid in `index`, kUnknownRow for fids no
/// generated record has. Answers are kept in this form until checked.
constexpr uint32_t kUnknownRow = UINT32_MAX;
std::vector<uint32_t> ToRows(const std::vector<std::string>& fids,
                             const std::map<std::string, size_t>& index);

/// Checks a query answer (the rows returned, by position) by brute force
/// over `records`. For tables that grow during the run, records[0, lo) are
/// rows surely visible when the query started and records[lo, hi) rows that
/// may or may not be: a range answer must hold all of the first group and
/// nothing outside both; a kNN answer must hold k rows from both groups and
/// no visible row nearer than its farthest. Static tables pass lo == hi.
bool CheckAnswer(const Query& q, const std::vector<Record>& records,
                 size_t lo, size_t hi, const std::vector<uint32_t>& rows,
                 std::string* why);

// ----------------------------------------------------------------- report

/// Collects the run's metrics; prints the self-describing run record and
/// the final one-line result.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = -1, double pct = 0);
  /// Run-record fields: a number, a string, or ready-made JSON.
  void Number(const std::string& key, double value);
  void Text(const std::string& key, const std::string& text);
  void Json(const std::string& key, const std::string& json);
  /// Prints the run record (every metric with unit and sample count, plus
  /// the record fields) as one JSON line, then the result line:
  /// correct/attempted/failed and every metric's value and unit.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
    int64_t samples = -1;
    double pct = 0;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

// ------------------------------------------------------------ run context

/// What every workload returns to main().
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
};

/// One SELECT's outcome: the first column of every returned row.
struct QueryAnswer {
  bool ok = false;
  std::string error;
  std::vector<std::string> fids;
  double execute_us = 0;  ///< traced runs: the Executor::Execute call
};

/// Runs one SELECT. Untraced: sql::JustQL::Execute. Traced: the same
/// statement through ParseStatement, Analyzer::Analyze, Optimize and
/// Executor::Execute, one span around each.
QueryAnswer RunSelect(just::sql::JustQL* ql, just::core::JustEngine* engine,
                      const std::string& user, const std::string& sql,
                      bool traced);

/// Latency samples of a run, in ms.
struct LatencyBooks {
  std::vector<double> kind_ms[kNumKinds];  ///< successful queries by kind
  std::vector<double> all_ms;              ///< the whole query mix
  /// Traced runs alternate each client's queries between the traced and
  /// the plain path; these split all_ms by path.
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> ingest_ms;  ///< per INSERT STREAM batch, from due time
  std::vector<double> notify_ms;  ///< due time -> geofence CQ callback
  void AddQuery(Kind kind, double ms, bool traced);
  void Merge(const LatencyBooks& other);
};

/// Reports every latency in `books`: <kind>_p50_ms and <kind>_tail_ms per
/// query kind; query_p50/p90/p99_ms and query_tail_ms over the mix;
/// ingest_p50/p90/p99_ms; notify_p50/p90/p99_ms. A *_pNN_ms metric is that
/// percentile when at least ten samples lie beyond it, else the highest
/// percentile below it that has ten; *_tail_ms is the highest percentile
/// with ten beyond. The record names the percentile and the sample count.
void ReportLatencies(const LatencyBooks& books, Report* report);

/// How much slower the traced path ran than the plain one, interleaved in
/// the same run: 100 * (1 - untraced mean latency / traced mean latency),
/// i.e. the closed-loop query rate lost to tracing.
double TracingOverheadPct(const LatencyBooks& books);

/// What the geofence CQ's callback saw.
struct FenceProbe {
  std::mutex mu;
  std::vector<std::pair<std::string, int64_t>> hits;  ///< fid, NowNs()
};

/// Registers the geofence alert CQ on `table` through the engine's stream
/// hub with a callback that records each notification in `probe`.
/// `keep_alive` receives the parsed predicate, which the hub borrows.
just::Status RegisterFence(just::core::JustEngine* engine,
                           const std::string& user, const std::string& table,
                           const std::string& geom_col,
                           std::shared_ptr<FenceProbe> probe,
                           std::unique_ptr<just::sql::Statement>* keep_alive);

/// The fence oracle: `probe` holds exactly one notification for each row of
/// records[first, end) inside the geofence and none for any other row. Each
/// notification's latency from `due_ns(row)` (its batch's due time; a
/// negative value skips the sample) goes to `notify_ms`.
bool CheckFence(const FenceProbe& probe, const std::vector<Record>& records,
                const std::map<std::string, size_t>& index, size_t first,
                size_t end, const std::function<int64_t(size_t)>& due_ns,
                std::vector<double>* notify_ms, std::string* why);

Outcome RunOrderRead(const Args& args, Report* report);
Outcome RunTrajRemoteRead(const Args& args, Report* report);
Outcome RunStreamMixed(const Args& args, Report* report);

}  // namespace justbench

#endif  // JUSTBENCH_BENCH_H_
