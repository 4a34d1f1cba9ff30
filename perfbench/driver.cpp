// perfbench_driver: runs one workload of the end-to-end benchmark and
// prints one JSON object with its metrics and sample summaries. run.py
// builds this program, names the metrics' units and writes the run record.
//
//   perfbench_driver --workload mc3-dna|partitioned-gpu|serve-churn
//                    --seed N --seconds S --trace 0|1 --out-dir DIR
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "obs/export.h"

namespace perfbench {

namespace {

/// Linear interpolation between the order statistics of `sorted`.
double sortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return sortedQuantile(values, q);
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.median = sortedQuantile(sorted, 0.5);
  s.q1 = sortedQuantile(sorted, 0.25);
  s.q3 = sortedQuantile(sorted, 0.75);
  s.p90 = sortedQuantile(sorted, 0.9);
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  return s;
}

double roundRate(const std::vector<double>& perRound) {
  return quantile(perRound, kRoundQuartile);
}

double windowLatency(const std::vector<double>& samples) {
  const std::size_t size = std::min(kLatencyWindow, samples.size());
  std::vector<double> medians;
  for (std::size_t begin = 0; size > 0 && begin + size <= samples.size(); begin += size) {
    medians.push_back(quantile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(begin),
                            samples.begin() + static_cast<std::ptrdiff_t>(begin + size)),
        0.5));
  }
  return quantile(medians, 1.0 - kRoundQuartile);
}

namespace {

/// Value of a "Key:   <number> ..." line of /proc/self/status.
long statusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len && line[len] == ':') {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

double peakRssMiB() { return static_cast<double>(statusField("VmHWM")) / 1024.0; }
int threadCount() { return static_cast<int>(statusField("Threads")); }

ProcessSnapshot ProcessSnapshot::take() {
  ProcessSnapshot s;
  bglGetProcessStatistics(&s.stats);
  return s;
}

LayerDelta LayerDelta::between(const ProcessSnapshot& a, const ProcessSnapshot& b) {
  const BglStatistics& x = a.stats.totals;
  const BglStatistics& y = b.stats.totals;
  LayerDelta d;
  d.partialsOps = static_cast<double>(y.partialsOperations - x.partialsOperations);
  d.matrices = static_cast<double>(y.transitionMatrices - x.transitionMatrices);
  d.launches = static_cast<double>(y.kernelLaunches - x.kernelLaunches);
  d.bytes = static_cast<double>((y.bytesCopiedIn - x.bytesCopiedIn) +
                                (y.bytesCopiedOut - x.bytesCopiedOut));
  d.partialsSeconds = y.updatePartialsSeconds - x.updatePartialsSeconds;
  d.matricesSeconds = y.updateTransitionMatricesSeconds - x.updateTransitionMatricesSeconds;
  d.rootSeconds = y.rootLogLikelihoodsSeconds - x.rootLogLikelihoodsSeconds;
  d.edgeSeconds = y.edgeLogLikelihoodsSeconds - x.edgeLogLikelihoodsSeconds;
  return d;
}

SpanTiming::SpanTiming(const std::string& path) {
  // The service appends; start each run's file afresh. The period only
  // matters for the file's line count: one line when the service stops is
  // enough, span timing is what this is for.
  std::remove(path.c_str());
  bglSetMetricsFile(path.c_str(), 3600 * 1000);
}

SpanTiming::~SpanTiming() { bglSetMetricsFile(nullptr, 0); }

void Result::fail(const std::string& message) {
  correct = false;
  if (errors.size() < 20) errors.push_back(message);
}

void Result::sample(const std::string& name, const std::vector<double>& values) {
  summaries[name] = summarize(values);
}

void Result::idle(const std::vector<std::string>& names) {
  for (const std::string& name : names) metrics[name] = 0.0;
}

std::string Result::toJson() const {
  std::ostringstream os;
  bgl::obs::JsonWriter w(os);
  // JSON has no form for inf or NaN: such a value is left out, and run.py
  // refuses a result that lacks a metric.
  const auto number = [&](const std::string& key, double v) {
    if (std::isfinite(v)) w.field(key, v);
  };
  w.beginObject();
  w.field("correct", correct).field("attempted", attempted).field("failed", failed);
  w.key("errors").beginArray();
  for (const std::string& e : errors) w.value(e);
  w.endArray();
  w.key("metrics").beginObject();
  for (const auto& [name, value] : metrics) number(name, value);
  w.endObject();
  w.key("samples").beginObject();
  for (const auto& [name, s] : summaries) {
    w.key(name).beginObject();
    w.field("n", static_cast<std::uint64_t>(s.n));
    number("median", s.median);
    number("q1", s.q1);
    number("q3", s.q3);
    number("p90", s.p90);
    number("mean", s.mean);
    w.endObject();
  }
  w.endObject();
  w.key("info").beginObject();
  for (const auto& [key, value] : info) w.field(key, value);
  w.endObject();
  w.field("trace_file", traceFile);
  number("trace_window_evals", traceWindowEvals);
  number("trace_window_partials_flops", traceWindowPartialsFlops);
  w.endObject();
  return os.str();
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mc3-dna|partitioned-gpu|serve-churn "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      config.outDir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || config.workload.empty() || config.outDir.empty() ||
      !(config.seconds > 0.0)) {
    return usage(argv[0]);
  }

  perfbench::Result result;
  try {
    if (config.workload == "mc3-dna") {
      result = perfbench::runMc3Dna(config);
    } else if (config.workload == "partitioned-gpu") {
      result = perfbench::runPartitionedGpu(config);
    } else if (config.workload == "serve-churn") {
      result = perfbench::runServeChurn(config);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }
  result.sampleThreads();
  result.metrics["proc.threads_peak"] = result.threadsPeak;
  result.metrics["peak_rss_mb"] = perfbench::peakRssMiB();
  result.metrics["hal.pending_depth_max"] =
      static_cast<double>(perfbench::ProcessSnapshot::take().stats.pendingDepthMax);
  std::cout << result.toJson() << std::endl;
  return 0;
}
