// Inputs of the per-layer report of a traced run.
#ifndef JUSTBENCH_LAYERS_H_
#define JUSTBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace justbench {

struct LayerInputs {
  std::vector<Span> spans;
  RegistryWindow window;  ///< the timed window of the traced run
  uint64_t queries = 0;   ///< SELECTs completed in that window

  // Post-run single-threaded pass over sampled queries.
  std::vector<double> exec_self_us;  ///< sql.execute minus core call, paired
  uint64_t core_calls = 0;
  uint64_t core_rows_scanned = 0;
  uint64_t core_rows_matched = 0;
  uint64_t core_bytes_scanned = 0;
  uint64_t ranges_total = 0;
  double execute_us = 0;       ///< sum of sql.execute in that pass
  double unattributed_us = 0;  ///< part of it no child layer covers
  double decode_us_total = 0;
  uint64_t decode_queries = 0;

  double compress_ratio = 0;  ///< encoded / raw bytes of compressed cells
  uint64_t ingested_rows = 0;       ///< rows written in the traced window
  uint64_t ingested_raw_bytes = 0;  ///< their raw bytes
  std::vector<double> generator_late_ms;
  double overhead_pct = 0;  ///< TracingOverheadPct of the timed queries
};

void ReportLayers(const LayerInputs& in, Report* report);

/// Single-threaded pass over sampled queries (up to 48 of each kind): the
/// JustQL path split into its layer calls, then the same query through
/// the JustEngine call underneath it, curve range generation of the index
/// the engine picks, and compress::DecodeCell over the returned rows'
/// stored cells (`cells`, fid -> cell; empty when nothing is compressed).
/// Each call gets a span; the results accumulate into `in`.
void ProbeLayers(just::core::JustEngine* engine, just::sql::JustQL* ql,
                 const std::string& user, const TableSpec& table,
                 const std::vector<Query>& queries,
                 const std::vector<std::string>& sqls,
                 const std::map<std::string, std::string>& cells,
                 LayerInputs* in);

}  // namespace justbench

#endif  // JUSTBENCH_LAYERS_H_
