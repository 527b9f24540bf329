// Shared measurement plumbing for nees_perfbench: command-line arguments,
// process counters (CPU, peak RSS, operator-new calls), latency samples,
// the in-memory span log of traced runs, and the result line.
//
// Everything here measures the program from outside: it times and counts
// calls into the library's public API and reads the counters the library
// already exposes. Nothing is compiled into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (DAQ drop files, span dumps).
  std::string workdir = ".bench_build/run";
};

/// Monotonic wall time in seconds / microseconds.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NowMicros() { return NowSeconds() * 1e6; }

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();
/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Global operator-new calls since process start. Counting is switched on
/// only in traced runs, so untraced runs pay one predictable branch.
std::uint64_t AllocCount();
void EnableAllocCounting();

/// Nearest-rank percentile of `values` (copied, then partially sorted).
double Percentile(std::vector<double> values, double pct);
double Median(const std::vector<double>& values);

/// A metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// One timed round: an experiment, a wave or a seed block.
struct RoundSample {
  double ops = 0.0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double tail_us = 0.0;  // the round's tail latency (0 when not per round)
};

/// What the timed rounds measured. The end-to-end metrics derive from it
/// identically for every workload.
struct Measurement {
  std::vector<RoundSample> rounds;
  std::vector<double> latencies_us;  // one sample per op (farm: per wave)
  /// Tail percentile: of each round's latencies when rounds report tails,
  /// else of all latency samples. Fixed per workload, see README.
  double tail_pct = 99.0;
  std::vector<double> setup_seconds;  // one sample per set-up repetition

  /// Adds a round; its tail is taken over `round_latencies` when given.
  void AddRound(double ops, double wall, double cpu,
                const std::vector<double>* round_latencies = nullptr);
  double ops() const;
  double wall_seconds() const;
  double cpu_seconds() const;
};

/// ops_per_s and cpu_per_op_us are medians over rounds; latency_p50_us is
/// the median op; latency_tail_us the median of the round tails (or the
/// tail percentile of all samples); peak_rss_mb; setup_s the median set-up.
MetricMap EndToEnd(const Measurement& m);

/// CPU and wall time over a region.
class RegionTimer {
 public:
  RegionTimer() : wall0_(NowSeconds()), cpu0_(ProcessCpuSeconds()) {}
  double wall() const { return NowSeconds() - wall0_; }
  double cpu() const { return ProcessCpuSeconds() - cpu0_; }

 private:
  double wall0_;
  double cpu0_;
};

/// Spans recorded by the benchmark's own code around calls into the
/// library (traced runs only). Kept in memory, written out at the end.
/// Aggregates cover every span; only the first `kMaxStored` are stored.
class SpanLog {
 public:
  struct Span {
    std::uint32_t name;  // index into names_
    double start_us;
    double end_us;
  };
  static constexpr std::size_t kMaxStored = 200'000;

  void Record(const std::string& name, double start_us, double end_us);
  /// Durations of every span of one name (not capped).
  const std::vector<double>& Durations(const std::string& name) const;
  std::size_t stored() const { return spans_.size(); }
  std::uint64_t total() const { return total_; }
  /// One JSON object per line: name, start_us, end_us.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::uint32_t NameIndex(const std::string& name);

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_index_;
  std::map<std::string, std::vector<double>> durations_;
  std::vector<Span> spans_;
  std::uint64_t total_ = 0;
};

/// Everything a workload hands back to main().
struct WorkloadResult {
  bool correct = false;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Measurement measurement;
  /// Traced runs only: the per-layer ledger of this workload.
  MetricMap layers;
};

/// Per-layer metric names the traced run prints, with units; a workload
/// that does not exercise a layer reports it as 0 (README, "Ledger").
const std::vector<std::pair<std::string, std::string>>& LayerCatalog();

/// Builds the result line: {"correct","attempted","failed","metrics"}.
std::string ResultJson(const WorkloadResult& result, const MetricMap& metrics);

}  // namespace perfbench
