// fsx_perfbench: runs one workload for a fixed time and prints, as its
// last stdout line, {"correct", "attempted", "failed", "metrics"}.
//
//   fsx_perfbench --workload <release-update|tree-mirror|daemon-fanout>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>] [--trace-out <file.json>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around the benchmark's calls into each layer, reports the per-layer
// metrics and writes the spans as Chrome trace-event JSON.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fsx_perfbench --workload "
               "<release-update|tree-mirror|daemon-fanout> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  opt.work_dir = ".bench_work";
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !(opt.seconds > 0)) {
    return Usage();
  }
  perfbench::RunResult (*run)(const perfbench::RunOptions&,
                              perfbench::Tracer&) = nullptr;
  if (opt.workload == "release-update") {
    run = perfbench::RunReleaseUpdate;
  } else if (opt.workload == "tree-mirror") {
    run = perfbench::RunTreeMirror;
  } else if (opt.workload == "daemon-fanout") {
    run = perfbench::RunDaemonFanout;
  } else {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  perfbench::Tracer tracer(opt.trace);
  perfbench::RunResult result = run(opt, tracer);
  if (result.attempted == 0) {
    std::fprintf(stderr, "no operation attempted\n");
    return 1;
  }

  std::map<std::string, const perfbench::Metric*> by_name;
  for (const perfbench::Metric& m : result.metrics) {
    by_name[m.name] = &m;
  }
  const auto& names = opt.trace ? perfbench::PerLayerMetrics()
                                : perfbench::EndToEndMetrics();
  if (by_name.size() != result.metrics.size()) {
    std::fprintf(stderr, "duplicate metric name\n");
    return 1;
  }
  size_t known = 0;
  std::string json = "{";
  for (const perfbench::MetricName& m : names) {
    auto it = by_name.find(m.name);
    double v = 0;  // a layer the workload leaves idle
    if (it != by_name.end()) {
      ++known;
      v = it->second->value;
      if (it->second->unit != m.unit) {
        std::fprintf(stderr, "metric %s: unit %s, expected %s\n", m.name,
                     it->second->unit.c_str(), m.unit);
        return 1;
      }
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name);
      return 1;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", m.name, v, m.unit);
    json += buf;
  }
  json += "}";
  if (known != result.metrics.size()) {
    std::fprintf(stderr, "workload reported a metric outside the list\n");
    return 1;
  }

  if (opt.trace) {
    if (trace_out.empty()) {
      trace_out = opt.work_dir + "/trace-" + opt.workload + ".json";
    }
    if (!tracer.WriteChromeJson(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", tracer.size(),
                 trace_out.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), json.c_str());
  return 0;
}
