// Per-layer metrics of a traced run: span durations recorded by the
// benchmark around each layer's public calls, plus registry deltas over
// the traced window.
#include <algorithm>

#include "compress/codec.h"
#include "core/table.h"

#include "bench.h"
#include "layers.h"

namespace justbench {

namespace {

std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.us());
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ReportLayers(const LayerInputs& in, Report* report) {
  const RegistryWindow& w = in.window;
  const std::vector<Span>& spans = in.spans;
  const double queries = static_cast<double>(in.queries);

  // sql: one span per public call on the traced JustQL path.
  for (const char* layer : {"parse", "analyze", "optimize", "execute"}) {
    std::string span = std::string("sql.") + layer;
    auto d = Durations(spans, span);
    report->Metric(span + "_us", Median(d), "us",
                   static_cast<int64_t>(d.size()));
  }
  report->Metric("sql.exec_self_us", Median(in.exec_self_us), "us",
                 static_cast<int64_t>(in.exec_self_us.size()));
  report->Metric("exec.rows_per_batch",
                 Ratio(static_cast<double>(w.Counter("just_sql_batch_rows_total")),
                       static_cast<double>(w.Counter("just_sql_batches_total"))),
                 "rows");
  const double hits =
      static_cast<double>(w.Counter("just_sql_plan_cache_hits_total"));
  const double misses =
      static_cast<double>(w.Counter("just_sql_plan_cache_misses_total"));
  report->Metric("sql.plan_cache_hit_ratio", Ratio(hits, hits + misses),
                 "ratio");

  // core: direct engine calls on the same seeded queries.
  for (int k = 0; k < kNumKinds; ++k) {
    std::string kind = KindName(static_cast<Kind>(k));
    auto d = Durations(spans, "core.query." + kind);
    report->Metric("core.query_us." + kind, Median(d), "us",
                   static_cast<int64_t>(d.size()));
  }
  report->Metric("core.scanned_per_result",
                 Ratio(static_cast<double>(in.core_rows_scanned),
                       static_cast<double>(in.core_rows_matched)),
                 "ratio");
  report->Metric("core.bytes_scanned_per_query",
                 Ratio(static_cast<double>(in.core_bytes_scanned),
                       static_cast<double>(in.core_calls)),
                 "B");

  // curve: range generation of the index the engine picks.
  auto ranges = Durations(spans, "curve.range_gen");
  report->Metric("curve.range_gen_us", Median(ranges), "us",
                 static_cast<int64_t>(ranges.size()));
  report->Metric("curve.ranges_per_query",
                 Ratio(static_cast<double>(in.ranges_total),
                       static_cast<double>(ranges.size())),
                 "count");

  // cluster.
  HistogramDelta scan = w.Histogram("just_cluster_parallel_scan_us");
  report->Metric("cluster.parallel_scan_us_p50", scan.Quantile(0.5), "us",
                 static_cast<int64_t>(scan.count));
  report->Metric("cluster.parallel_scan_us_p99", scan.Quantile(0.99), "us",
                 static_cast<int64_t>(scan.count));
  report->Metric("cluster.retries",
                 static_cast<double>(w.Counter("just_cluster_retries_total")),
                 "count");

  // net.
  report->Metric(
      "net.rpcs_per_query",
      Ratio(static_cast<double>(w.Counter("just_net_client_rpcs_total")),
            queries),
      "count");
  HistogramDelta rpc = w.Histogram("just_net_client_rpc_us");
  report->Metric("net.client_rpc_us_p50", rpc.Quantile(0.5), "us",
                 static_cast<int64_t>(rpc.count));
  HistogramDelta served = w.Histogram("just_net_server_request_us");
  report->Metric("net.server_request_us_p50", served.Quantile(0.5), "us",
                 static_cast<int64_t>(served.count));
  report->Metric(
      "net.rpc_errors",
      static_cast<double>(w.Counter("just_net_client_rpc_errors_total") +
                          w.Counter("just_net_server_shed_total")),
      "count");

  // kvstore, read side. Disk wait is the modelled bandwidth's charge for
  // the bytes read from SSTables.
  const double bytes_read =
      static_cast<double>(w.Counter("just_kv_bytes_read_total"));
  report->Metric("kvstore.bytes_read_per_query", Ratio(bytes_read, queries),
                 "B");
  report->Metric(
      "kvstore.read_ops_per_query",
      Ratio(static_cast<double>(w.Counter("just_kv_read_ops_total")), queries),
      "count");
  const double cache_hits =
      static_cast<double>(w.Counter("just_kv_block_cache_hits_total"));
  const double cache_misses =
      static_cast<double>(w.Counter("just_kv_block_cache_misses_total"));
  report->Metric("kvstore.block_cache_hit_ratio",
                 Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  report->Metric("kvstore.disk_wait_ms_per_query",
                 Ratio(bytes_read, queries) / (kDiskMBps * 1e6) * 1e3, "ms");

  // kvstore, write side.
  HistogramDelta group = w.Histogram("just_kv_group_commit_batch_ops");
  report->Metric("kvstore.group_commit_ops", group.Quantile(0.5), "ops",
                 static_cast<int64_t>(group.count));
  report->Metric("kvstore.write_stall_ms",
                 static_cast<double>(w.Histogram("just_kv_write_stall_us").sum) /
                     1e3,
                 "ms");
  report->Metric("kvstore.flushes",
                 static_cast<double>(w.Counter("just_kv_flushes_total")),
                 "count");
  report->Metric("kvstore.compactions",
                 static_cast<double>(w.Counter("just_kv_compactions_total")),
                 "count");
  report->Metric(
      "kvstore.compaction_ms",
      static_cast<double>(w.Histogram("just_kv_compaction_us").sum) / 1e3,
      "ms");
  report->Metric(
      "kvstore.write_amp",
      Ratio(static_cast<double>(
                w.Counter("just_kv_flush_output_bytes_total") +
                w.Counter("just_kv_compaction_output_bytes_total")),
            static_cast<double>(in.ingested_raw_bytes)),
      "ratio");
  auto inserts = Durations(spans, "core.insert_stream");
  report->Metric("core.insert_stream_us", Median(inserts), "us",
                 static_cast<int64_t>(inserts.size()));
  report->Metric(
      "core.idx_entries_per_row",
      Ratio(static_cast<double>(w.Counter("just_idx_entries_written_total")),
            static_cast<double>(in.ingested_rows)),
      "count");

  // compress.
  report->Metric("compress.ratio", in.compress_ratio, "ratio");
  report->Metric("compress.decode_us_per_query",
                 Ratio(in.decode_us_total, static_cast<double>(in.decode_queries)),
                 "us");

  // stream.
  HistogramDelta cq = w.Histogram("just_cq_eval_us");
  report->Metric("stream.cq_eval_us_p99", cq.Quantile(0.99), "us",
                 static_cast<int64_t>(cq.count));
  report->Metric(
      "stream.cq_rows_per_batch",
      Ratio(static_cast<double>(w.Counter("just_cq_eval_rows_total")),
            static_cast<double>(cq.count)),
      "rows");

  // The benchmark itself.
  Summary late = Summarize(in.generator_late_ms, 99);
  report->Metric("load.generator_late_ms_p99", late.tail, "ms",
                 static_cast<int64_t>(late.n), late.tail_pct);
  report->Metric("trace.unattributed_pct",
                 100.0 * Ratio(in.unattributed_us, in.execute_us), "%");
  report->Metric("trace.overhead_pct", in.overhead_pct, "%");
}

void ProbeLayers(just::core::JustEngine* engine, just::sql::JustQL* ql,
                 const std::string& user, const TableSpec& table_spec,
                 const std::vector<Query>& queries,
                 const std::vector<std::string>& sqls,
                 const std::map<std::string, std::string>& cells,
                 LayerInputs* in) {
  namespace core = just::core;
  auto table = engine->GetTable(user, table_spec.name);
  if (!table.ok()) return;
  int per_kind[kNumKinds] = {0, 0, 0, 0};
  uint64_t query_id = 1u << 30;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (per_kind[static_cast<int>(q.kind)]++ >= 48) continue;
    SetSpanQuery(++query_id);
    RegistryWindow w;
    w.Start();
    QueryAnswer a = RunSelect(ql, engine, user,
                              sqls[i], true);
    w.Stop();
    if (!a.ok) continue;
    const double scan_us =
        static_cast<double>(w.Histogram("just_cluster_parallel_scan_us").sum);

    core::QueryStats stats;
    const int64_t t0 = NowNs();
    {
      // Span names must outlive the log.
      static const std::string names[kNumKinds] = {
          "core.query.st_range", "core.query.spatial_range",
          "core.query.knn", "core.query.attr_box"};
      ScopedSpan s(names[static_cast<int>(q.kind)].c_str());
      switch (q.kind) {
        case Kind::kStRange:
          (void)engine->StRangeQueryBatch(user, table_spec.name, q.box,
                                          q.t_min, q.t_max, &stats);
          break;
        case Kind::kSpatialRange:
          (void)engine->SpatialRangeQueryBatch(user, table_spec.name, q.box,
                                               &stats);
          break;
        case Kind::kKnn:
          (void)engine->KnnQuery(user, table_spec.name, q.center, q.k,
                                 &stats);
          break;
        case Kind::kAttrBox: {
          core::AttrBound bound;
          bound.present = true;
          bound.value = just::exec::Value::String(q.attr);
          (void)engine->SecondaryIndexQueryBatch(
              user, table_spec.name, table_spec.attr, bound, bound, &q.box,
              false, 0, 0, &stats);
          break;
        }
      }
    }
    const double core_us = static_cast<double>(NowNs() - t0) / 1e3;
    ++in->core_calls;
    in->core_rows_scanned += stats.rows_scanned;
    in->core_rows_matched += stats.rows_matched;
    in->core_bytes_scanned += stats.bytes_scanned;
    in->exec_self_us.push_back(a.execute_us - core_us);

    double range_us = 0;
    if (q.kind == Kind::kStRange || q.kind == Kind::kSpatialRange) {
      auto strategy = (*table)->PickIndex(q.kind == Kind::kStRange);
      if (strategy.ok()) {
        const int64_t r0 = NowNs();
        ScopedSpan s("curve.range_gen");
        auto ranges = (*strategy)->QueryRanges(q.box, q.t_min, q.t_max);
        range_us = static_cast<double>(NowNs() - r0) / 1e3;
        in->ranges_total += ranges.size();
      }
    }
    in->execute_us += a.execute_us;
    in->unattributed_us +=
        std::max(0.0, a.execute_us - std::min(a.execute_us, scan_us + range_us));

    ++in->decode_queries;
    if (!cells.empty()) {
      const int64_t d0 = NowNs();
      ScopedSpan s("compress.decode");
      for (const std::string& fid : a.fids) {
        auto it = cells.find(fid);
        if (it != cells.end()) {
          (void)just::compress::DecodeCell(it->second);
        }
      }
      in->decode_us_total += static_cast<double>(NowNs() - d0) / 1e3;
    }
  }
}

}  // namespace justbench
