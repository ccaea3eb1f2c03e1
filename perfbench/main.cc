// justbench: the repository benchmark. One command per workload:
//
//   justbench --workload <order_read|traj_remote_read|stream_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//             [--out-dir <dir>] [--git-sha <sha>]
//
// Prints a run record (every metric with unit and sample count, plus the
// build, host and dataset description) and, as the last line, the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// every metric measured; perfbench/run.py keeps the ones BENCHMARK.json
// names. Exits non-zero when any operation failed or any answer was wrong.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef JUSTBENCH_BUILD_TYPE
#define JUSTBENCH_BUILD_TYPE "unknown"
#endif

namespace justbench {

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "justbench: %s\nusage: justbench --workload "
               "<order_read|traj_remote_read|stream_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>] "
               "[--git-sha <sha>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  Outcome (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "order_read") {
    run = RunOrderRead;
  } else if (args.workload == "traj_remote_read") {
    run = RunTrajRemoteRead;
  } else if (args.workload == "stream_mixed") {
    run = RunStreamMixed;
  } else {
    return Usage("unknown workload");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  Report report;
  Outcome outcome = run(args, &report);
  const uint64_t attempted = std::max<uint64_t>(outcome.attempted, 1);
  report.Metric("failed_ops_ratio",
                static_cast<double>(outcome.failed) /
                    static_cast<double>(attempted),
                "ratio", static_cast<int64_t>(attempted));

  report.Text("workload", args.workload);
  report.Number("seed", static_cast<double>(args.seed));
  report.Number("seconds", static_cast<double>(args.seconds));
  report.Number("trace", args.trace ? 1.0 : 0.0);
  report.Text("scale", args.tiny ? "tiny" : "full");
  report.Text("build_type", JUSTBENCH_BUILD_TYPE);
  report.Text("git_sha", args.git_sha);
  report.Number("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Number("modelled_disk_mbps", kDiskMBps);
  std::string failures = "[";
  for (size_t i = 0; i < outcome.failures.size(); ++i) {
    std::string f;
    for (char c : outcome.failures[i]) {
      if (c == '"' || c == '\\') f += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) f += c;
    }
    failures += (i ? ", \"" : "\"") + f + "\"";
  }
  report.Json("failures", failures + "]");

  if (args.trace) {
    std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                       std::to_string(args.seed) + ".jsonl";
    SpanLog::Get().WriteJsonLines(path);
    report.Text("spans_file", path);
  }

  const bool correct = outcome.failed == 0;
  report.Print(correct, attempted, outcome.failed);
  if (!correct) {
    for (const std::string& f : outcome.failures) {
      std::fprintf(stderr, "failure: %s\n", f.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace justbench

int main(int argc, char** argv) { return justbench::Main(argc, argv); }
