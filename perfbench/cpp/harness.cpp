#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_allocs{0};
bool g_count_allocs = false;  // set once, before any worker thread starts

}  // namespace
}  // namespace perfbench

// Replacing the global allocation functions in the benchmark binary counts
// every heap allocation the statically linked library makes.
void* operator new(std::size_t size) {
  if (perfbench::g_count_allocs) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t AllocCount() {
  return g_allocs.load(std::memory_order_relaxed);
}
void EnableAllocCounting() { g_count_allocs = true; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest value with at least pct% of samples <= it.
  const double rank = pct / 100.0 * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  index = std::clamp<std::size_t>(index, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

void Measurement::AddRound(double ops, double wall, double cpu,
                           const std::vector<double>* round_latencies) {
  RoundSample round{ops, wall, cpu, 0.0};
  if (round_latencies != nullptr) {
    round.tail_us = Percentile(*round_latencies, tail_pct);
  }
  rounds.push_back(round);
}

double Measurement::ops() const {
  double total = 0.0;
  for (const RoundSample& r : rounds) total += r.ops;
  return total;
}

double Measurement::wall_seconds() const {
  double total = 0.0;
  for (const RoundSample& r : rounds) total += r.wall_seconds;
  return total;
}

double Measurement::cpu_seconds() const {
  double total = 0.0;
  for (const RoundSample& r : rounds) total += r.cpu_seconds;
  return total;
}

MetricMap EndToEnd(const Measurement& m) {
  std::vector<double> rate, cpu, tails;
  for (const RoundSample& r : m.rounds) {
    if (r.ops <= 0.0) continue;
    rate.push_back(r.ops / r.wall_seconds);
    cpu.push_back(r.cpu_seconds * 1e6 / r.ops);
    if (r.tail_us > 0.0) tails.push_back(r.tail_us);
  }
  MetricMap out;
  out["ops_per_s"] = {Median(rate), "1/s"};
  out["latency_p50_us"] = {Median(m.latencies_us), "us"};
  out["latency_tail_us"] = {tails.empty() ? Percentile(m.latencies_us, m.tail_pct)
                                          : Median(tails),
                            "us"};
  out["cpu_per_op_us"] = {Median(cpu), "us"};
  out["peak_rss_mb"] = {PeakRssMb(), "MB"};
  out["setup_s"] = {Median(m.setup_seconds), "s"};
  return out;
}

std::uint32_t SpanLog::NameIndex(const std::string& name) {
  auto [it, inserted] = name_index_.emplace(
      name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

void SpanLog::Record(const std::string& name, double start_us, double end_us) {
  ++total_;
  durations_[name].push_back(end_us - start_us);
  if (spans_.size() < kMaxStored) {
    spans_.push_back({NameIndex(name), start_us, end_us});
  }
}

const std::vector<double>& SpanLog::Durations(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = durations_.find(name);
  return it == durations_.end() ? kEmpty : it->second;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 names_[s.name].c_str(), s.start_us, s.end_us);
  }
  return std::fclose(f) == 0;
}

const std::vector<std::pair<std::string, std::string>>& LayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"net.msgs_per_op", "count"},
      {"net.wire_bytes_per_op", "B"},
      {"net.codec_ns_per_frame", "ns"},
      {"net.rpc_rtt_us", "us"},
      {"net.endpoints_interned", "count"},
      {"util.allocs_per_op", "count"},
      {"util.frames_minted_per_op", "count"},
      {"ntcp.txn_us", "us"},
      {"ntcp.txns_per_op", "count"},
      {"ntcp.duplicates_per_op", "count"},
      {"psd.propose_phase_us", "us"},
      {"psd.execute_phase_us", "us"},
      {"psd.step_self_us", "us"},
      {"plugins.execute_us", "us"},
      {"plugins.backend_handoff_us", "us"},
      {"testbed.settle_us", "us"},
      {"structural.integrate_us_per_step", "us"},
      {"daq.flush_ingest_ms", "ms"},
      {"nsds.frames_per_op", "count"},
      {"wal.append_sync_us", "us"},
      {"fuzz.events_per_op", "count"},
      {"fuzz.ns_per_event", "ns"},
      {"check.oracle_us_per_op", "us"},
      {"obs.trace_overhead_pct", "%"},
      {"farm.wave_ms", "ms"},
      {"farm.exp_per_s_1w", "1/s"},
      {"farm.cpu_per_exp_4w_over_1w", "ratio"},
      {"grid.peak_services", "count"},
  };
  return kCatalog;
}

std::string ResultJson(const WorkloadResult& result, const MetricMap& metrics) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, metric] : metrics) {
    // JSON has no NaN or infinity; a non-finite metric prints as 0.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
