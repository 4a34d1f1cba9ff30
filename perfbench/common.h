// Shared plumbing of the end-to-end benchmark driver: the run
// configuration, sample statistics, /proc readers, process-statistics
// deltas and the JSON result the driver prints for run.py.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/bgl.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir;  ///< scratch directory for trace/metrics files
};

/// Set-ups spread over an untraced run; their median is setup_s.
inline constexpr int kSetups = 61;

/// Median and quartiles (linear interpolation between order statistics)
/// plus an upper percentile, of a sample set.
struct Summary {
  std::size_t n = 0;
  double median = 0.0, q1 = 0.0, q3 = 0.0, p90 = 0.0, mean = 0.0;
};
double quantile(std::vector<double> values, double q);
Summary summarize(const std::vector<double>& values);

// Statistics for a shared host. Its speed drifts over minutes: spells of
// other tenants' load slow some rounds, and calm spells speed others up by a
// third or more, so neither the fastest rounds nor the median over rounds
// repeat between runs. The throughput and latency reported are those of the
// slower rounds and windows: the lower quartile of per-round throughput,
// and the upper quartile of the medians of consecutive windows of calls. A
// change that slows the code slows every round and still shows; the plain
// medians are kept in the run record.
inline constexpr double kRoundQuartile = 0.25;
inline constexpr std::size_t kLatencyWindow = 100;

/// Lower quartile of per-round throughputs.
double roundRate(const std::vector<double>& perRound);

/// Upper quartile of the medians of consecutive windows of kLatencyWindow
/// call times (fewer samples than one window form one window).
double windowLatency(const std::vector<double>& samples);

/// Set-ups spread evenly over a measured phase, so set-up time is sampled
/// under the same host conditions as the rounds between them.
class SetupSchedule {
 public:
  SetupSchedule(int count, double seconds) : count_(count), seconds_(seconds) {}
  /// True when the next set-up is due `elapsed` seconds into the phase.
  bool due(double elapsed) const {
    const int done = static_cast<int>(times.size());
    return done < count_ && elapsed >= seconds_ * done / count_;
  }
  std::vector<double> times;

 private:
  int count_;
  double seconds_;
};

/// Peak resident set (VmHWM) in MiB and the current thread count, read
/// from /proc/self/status.
double peakRssMiB();
int threadCount();

/// Process-wide library counters and API-category seconds at one moment.
struct ProcessSnapshot {
  BglProcessStatistics stats{};
  static ProcessSnapshot take();
};

/// Counter and API-category-second deltas between two snapshots.
struct LayerDelta {
  double partialsOps = 0, matrices = 0, launches = 0, bytes = 0;
  double partialsSeconds = 0, matricesSeconds = 0, rootSeconds = 0,
         edgeSeconds = 0;
  static LayerDelta between(const ProcessSnapshot& a, const ProcessSnapshot& b);
  double apiSeconds() const {
    return partialsSeconds + matricesSeconds + rootSeconds + edgeSeconds;
  }
};

/// What one driver invocation reports. `metrics` are final values keyed by
/// the names in BENCHMARK.json; `summaries` carry the sample statistics
/// behind the sampled ones for the run record.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  std::map<std::string, Summary> summaries;
  std::map<std::string, std::string> info;
  int threadsPeak = 0;  ///< sampled after each set-up and round
  /// Chrome trace of the traced window (partitioned-gpu), read by run.py.
  std::string traceFile;
  double traceWindowEvals = 0;
  double traceWindowPartialsFlops = 0;

  void fail(const std::string& message);
  void sampleThreads() { threadsPeak = std::max(threadsPeak, threadCount()); }
  void sample(const std::string& name, const std::vector<double>& values);
  /// Reports 0 for the per-layer metrics of layers the workload leaves idle.
  void idle(const std::vector<std::string>& names);
  std::string toJson() const;
};

/// Per-layer metrics of the two layers that only one workload drives.
inline const std::vector<std::string> kMc3Layer = {"mc3.generations_per_s",
                                                   "mc3.self_ms_per_gen"};
inline const std::vector<std::string> kServeLayer = {
    "serve.requests_per_s", "serve.open_ms",   "serve.add_ms",
    "serve.full_ms",        "serve.close_ms",  "serve.recycle_ratio",
    "serve.instances_created", "serve.reinit_grows"};

/// Turns the library's span timing on for every live and future instance
/// by starting the live-metrics service with a period longer than any run,
/// and stops the service on destruction.
class SpanTiming {
 public:
  explicit SpanTiming(const std::string& path);
  ~SpanTiming();
  SpanTiming(const SpanTiming&) = delete;
  SpanTiming& operator=(const SpanTiming&) = delete;
};

Result runMc3Dna(const RunConfig& config);
Result runPartitionedGpu(const RunConfig& config);
Result runServeChurn(const RunConfig& config);

}  // namespace perfbench
