// farm-100: waves of 100 kinetic Mini-MOST tenants on one long-lived
// ExperimentFarm host with 4 workers; a wave is admit -> RunAll -> reap.
// One operation is one completed experiment, and its latency is its
// wave's makespan, so the latency samples are the waves.
//
// Tenant namespaces never repeat and the process-wide EndpointTable never
// frees a name, so memory grows with every wave: peak_rss_mb and
// net.endpoints_interned compare across commits only because the wave
// count is fixed (RoundsFor).
#include <memory>
#include <string>

#include "checks.h"
#include "farm/farm.h"
#include "most/mini_most.h"
#include "net/network.h"
#include "obs/trace.h"
#include "util/frame_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace nees;

constexpr std::size_t kTenants = 100;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kMiniSteps = 80;
constexpr double kWavesPerSecond = 5.0;  // ~0.2 s per wave on the reference host

struct Host {
  net::Network network{net::DeliveryMode::kImmediate};
  std::unique_ptr<farm::ExperimentFarm> farm;
};

std::unique_ptr<Host> StartHost(std::size_t workers, obs::Tracer* tracer) {
  auto host = std::make_unique<Host>();
  farm::FarmOptions options;
  options.workers = workers;
  options.mini_steps = kMiniSteps;
  options.tracer = tracer;
  host->farm = std::make_unique<farm::ExperimentFarm>(
      &host->network, host->network.clock(), options);
  if (!host->farm->Start().ok()) return nullptr;
  return host;
}

struct Wave {
  double wall = 0.0;      // admit -> RunAll -> reap
  double run_all = 0.0;   // RunAll alone
  double cpu = 0.0;
  std::string failure;
  farm::FarmReport report;
};

Wave RunWave(Host& host, const std::vector<std::uint64_t>& seeds) {
  Wave wave;
  const RegionTimer timer;
  for (std::uint64_t seed : seeds) {
    (void)host.farm->Admit({farm::SessionKind::kMiniMost, 0, seed});
  }
  const double t0 = NowSeconds();
  auto report = host.farm->RunAll();
  wave.run_all = NowSeconds() - t0;
  wave.wall = timer.wall();
  wave.cpu = timer.cpu();
  if (report.ok()) {
    wave.report = std::move(*report);
  } else {
    wave.failure = "RunAll: " + report.status().ToString();
  }
  return wave;
}

/// Every session completed with its standalone digest, and the host's
/// fabric is back at its baseline.
std::string CheckWaveAgainst(const Wave& wave,
                             const std::vector<std::uint64_t>& standalone,
                             const farm::ExperimentFarm& farm) {
  if (!wave.failure.empty()) return wave.failure;
  WaveOutcome outcome;
  outcome.admitted = wave.report.admitted;
  outcome.completed = wave.report.completed;
  for (const farm::SessionResult& s : wave.report.sessions) {
    outcome.digests.push_back(s.history_digest);
  }
  outcome.services_after_reap = wave.report.services_after_reap;
  outcome.registrations_after_reap = wave.report.registrations_after_reap;
  return CheckWave(outcome, standalone, farm.baseline_services(),
                   farm.baseline_registrations());
}

/// Standalone, empty-namespace Mini-MOST runs of the same seeds, in this
/// process: the reference every tenant's digest must equal.
std::vector<std::uint64_t> StandaloneDigests(
    const std::vector<std::uint64_t>& seeds, std::string* error) {
  std::vector<std::uint64_t> digests;
  for (std::uint64_t seed : seeds) {
    net::Network network(net::DeliveryMode::kImmediate);
    most::MiniMostOptions options;
    options.steps = kMiniSteps;
    options.seed = seed;
    options.real_hardware = false;
    most::MiniMostExperiment experiment(&network, network.clock(), options);
    auto report = experiment.Run("standalone");
    if (!report.ok() || !report->completed) {
      *error = "standalone Mini-MOST run failed";
      return {};
    }
    digests.push_back(HistoryDigest(report->history.dt_seconds,
                                    report->history.displacement));
  }
  return digests;
}

}  // namespace

WorkloadResult RunFarm100(const Args& args, SpanLog& spans) {
  WorkloadResult out;
  Measurement& m = out.measurement;

  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kTenants; ++i) {
    seeds.push_back(DeriveSeed(args.seed, 100 + i) | 1);  // 0 = farm default
  }
  const std::size_t waves = RoundsFor(args, kWavesPerSecond);

  // Digests of every wave, checked against the standalone runs at the end
  // (outside the timed region).
  std::vector<Wave> measured;
  auto fail = [&](const std::string& why) {
    out.check_failures.push_back(why);
    out.failed += kTenants;
  };

  // --- set-up: host + one warm-up wave, repeated -------------------------
  std::unique_ptr<Host> host;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    host.reset();
    const double t0 = NowSeconds();
    host = StartHost(kWorkers, nullptr);
    if (host == nullptr) {
      out.check_failures.push_back("farm host failed to start");
      return out;
    }
    measured.push_back(RunWave(*host, seeds));
    m.setup_seconds.push_back(NowSeconds() - t0);
  }

  // --- timed waves on the one long-lived host -----------------------------
  const std::size_t untraced_waves = UntracedRounds(args, waves);
  const net::LinkMetrics net0 = host->network.TotalMetrics();
  const std::uint64_t frames0 = util::FramePool::Instance().stats().minted;
  const std::uint64_t allocs0 = AllocCount();
  std::vector<double> run_all_ms;
  for (std::size_t w = 0; w < untraced_waves; ++w) {
    Wave wave = RunWave(*host, seeds);
    out.attempted += kTenants;
    m.AddRound(static_cast<double>(wave.report.completed), wave.wall, wave.cpu);
    m.latencies_us.push_back(wave.wall * 1e6);
    run_all_ms.push_back(wave.run_all * 1e3);
    measured.push_back(std::move(wave));
  }
  // p86.67 at 75 waves.
  m.tail_pct = TailPercentile(m.latencies_us.size());
  const net::LinkMetrics net1 = host->network.TotalMetrics();
  const std::uint64_t frames1 = util::FramePool::Instance().stats().minted;
  const std::uint64_t allocs1 = AllocCount();

  if (args.trace) {
    const double ops = std::max(m.ops(), 1.0);
    MetricMap& l = out.layers;
    l["net.msgs_per_op"].value = static_cast<double>(net1.delivered - net0.delivered) / ops;
    l["net.wire_bytes_per_op"].value =
        static_cast<double>(net1.bytes_delivered - net0.bytes_delivered) / ops;
    l["util.frames_minted_per_op"].value = static_cast<double>(frames1 - frames0) / ops;
    l["util.allocs_per_op"].value = static_cast<double>(allocs1 - allocs0) / ops;
    l["farm.wave_ms"].value = Median(run_all_ms);
    l["grid.peak_services"].value =
        static_cast<double>(measured.back().report.peak_services);
    l["net.endpoints_interned"].value =
        static_cast<double>(measured.back().report.endpoints_interned);
    const double untraced_ops_per_s = ops / m.wall_seconds();
    const double cpu_per_exp_4w = m.cpu_seconds() / ops;

    // One worker: the base of the scaling ratios.
    auto single = StartHost(1, nullptr);
    double wall_1w = 0.0, cpu_1w = 0.0, exps_1w = 0.0;
    for (int w = 0; single != nullptr && w < 3; ++w) {
      Wave wave = RunWave(*single, seeds);
      out.attempted += kTenants;
      wall_1w += wave.wall;
      cpu_1w += wave.cpu;
      exps_1w += static_cast<double>(wave.report.completed);
      measured.push_back(std::move(wave));
    }
    single.reset();
    l["farm.exp_per_s_1w"].value = wall_1w > 0.0 ? exps_1w / wall_1w : 0.0;
    l["farm.cpu_per_exp_4w_over_1w"].value =
        cpu_1w > 0.0 ? cpu_per_exp_4w / (cpu_1w / exps_1w) : 0.0;

    // Traced phase: the host's obs::Tracer on the shared network, and a
    // benchmark span per wave.
    util::SystemClock& clock = util::SystemClock::Instance();
    obs::Tracer tracer(&clock);
    auto traced = StartHost(kWorkers, &tracer);
    double traced_wall = 0.0, traced_exps = 0.0;
    for (std::size_t w = 0; traced != nullptr && w < waves - untraced_waves; ++w) {
      const double t0 = NowMicros();
      Wave wave = RunWave(*traced, seeds);
      spans.Record("farm.wave", t0, NowMicros());
      out.attempted += kTenants;
      traced_wall += wave.wall;
      traced_exps += static_cast<double>(wave.report.completed);
      measured.push_back(std::move(wave));
      tracer.Clear();
    }
    traced.reset();
    l["obs.trace_overhead_pct"].value =
        OverheadPct(untraced_ops_per_s, traced_wall > 0.0 ? traced_exps / traced_wall : 0.0);
  }

  // --- checks: every wave against the standalone digests -----------------
  std::string error;
  const std::vector<std::uint64_t> standalone = StandaloneDigests(seeds, &error);
  if (standalone.empty()) {
    out.check_failures.push_back(error);
    return out;
  }
  for (std::size_t w = 0; w < measured.size(); ++w) {
    const std::string failure =
        CheckWaveAgainst(measured[w], standalone, *host->farm);
    if (!failure.empty()) {
      const bool set_up = w < static_cast<std::size_t>(kSetupRepetitions);
      if (set_up) {
        out.check_failures.push_back("warm-up wave: " + failure);
      } else {
        fail("wave " + std::to_string(w) + ": " + failure);
      }
    }
  }
  out.correct = out.check_failures.empty();
  return out;
}

}  // namespace perfbench
