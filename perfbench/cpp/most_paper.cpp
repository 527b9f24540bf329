// most-paper: the July 2003 hybrid MOST assembly (UIUC Shore-Western rig,
// NCSA and CU MPlugins with threaded polling backends; DAQ, NSDS and the
// repository on), run back to back through MostExperiment::Run. One
// operation is one PSD step; its latency is the interval between
// consecutive displacement frames at a benchmark-owned NSDS viewer.
//
// The timed experiments run back to back on one deployment for 35
// experiments (5 s), then on a fresh one, as a host redeployed between
// sessions would run them. One MostExperiment slows and grows with every
// back-to-back Run() (CHANGES.md, FOUND): over 35 runs the process grows to
// 135 MB (28 MB when rebuilt every 5 runs) and the DAQ flush step, which is
// the tail, from ~2.2 to ~3 ms. The round count is fixed by --seconds, so
// ops_per_s, latency_tail_us and peak_rss_mb carry that growth at equal
// work, and a fix for it (or a worse leak) moves them. All 105 experiments
// of a 15 s run on one deployment carried it further (383 MB), but the
// flush step's growth rate differs by up to 40% between runs on a shared
// host: the tail's spread over ten runs was 22% and 28% in two sets that
// way, and 20% in one set at 35 experiments per deployment.
//
// The workload pins its threads to one CPU. A step is a chain of
// synchronous hand-offs (coordinator -> NTCP server -> MPlugin -> polling
// backend thread and back), so one CPU loses no parallelism: 11.2k steps/s
// pinned and free on a quiet host. Free, each hand-off wakes a thread on
// whichever CPU the scheduler picks, and when other tenants of the shared
// host kept those CPUs busy the same run read 3.8k steps/s, with 37% spread
// over ten runs.
#include <sched.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "checks.h"
#include "most/most.h"
#include "net/network.h"
#include "nsds/nsds.h"
#include "obs/trace.h"
#include "util/frame_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace nees;

namespace {

/// Hybrid drift may differ from the all-numerical solve by rig error:
/// 0.46-0.97% of peak measured over seeds 0-90, so 2% leaves room for noise.
constexpr double kRigErrorFraction = 0.02;
constexpr double kExperimentsPerSecond = 7.0;  // ~10k steps/s, 1,499 steps each
constexpr std::size_t kExperimentsPerDeployment = 35;
/// The UIUC site policy rejects any proposal above 0.15 m (most.cpp), as the
/// real rig's would. The 3 m/s^2 synthetic record drives the SDOF drift past
/// that on a few seeds (seed 25: 0.1502 m at step 461), so a record whose
/// SDOF drift would pass 80% of the limit is scaled down to it.
constexpr double kDriftCapM = 0.8 * 0.15;

MostSdof SdofOf(const most::MostOptions& options) {
  MostSdof sdof;
  sdof.mass = options.story_mass_kg;
  sdof.stiffness = most::ComputeStiffnessBreakdown(options).total();
  sdof.damping = 2.0 * options.damping_ratio *
                 std::sqrt(sdof.stiffness / sdof.mass) * sdof.mass;
  sdof.dt = options.dt_seconds;
  structural::SyntheticQuakeParams quake;
  quake.dt_seconds = options.dt_seconds;
  quake.steps = options.steps;
  quake.peak_accel = options.peak_accel;
  quake.seed = options.seed;
  sdof.accel = structural::SynthesizeQuake(quake).accel;
  return sdof;
}

most::MostOptions PaperOptions(std::uint64_t seed) {
  most::MostOptions options;  // 1,500 steps, hybrid, DAQ + NSDS + repository
  options.seed = DeriveSeed(seed, 2);
  // The record is scaled to its peak, so the (linear) drift scales with it.
  const MostSdof sdof = SdofOf(options);
  const double peak = PeakAbs(SdofCentralDifference(
      sdof.mass, sdof.damping, sdof.stiffness, sdof.dt, sdof.accel));
  if (peak > kDriftCapM) options.peak_accel *= kDriftCapM / peak;
  return options;
}

// Members are destroyed bottom-up: the viewer (whose callback fills the
// vectors) and the experiment go before what they use.
struct Deployment {
  net::Network network{net::DeliveryMode::kImmediate};
  std::vector<ViewerFrame> frames;  // this experiment's displacement frames
  std::vector<double> arrivals_us;  // wall time each frame arrived
  std::unique_ptr<most::MostExperiment> experiment;
  std::unique_ptr<nsds::NsdsSubscriber> viewer;
};

std::unique_ptr<Deployment> Deploy(const Args& args, int index,
                                   obs::Tracer* tracer, std::string* error) {
  auto d = std::make_unique<Deployment>();
  most::MostOptions options = PaperOptions(args.seed);
  options.daq_drop_dir = args.workdir + "/most-drop-" + std::to_string(index);
  options.tracer = tracer;
  d->experiment = std::make_unique<most::MostExperiment>(
      &d->network, &util::SystemClock::Instance(), options);
  util::Status status = d->experiment->Start();
  if (status.ok()) {
    d->viewer = std::make_unique<nsds::NsdsSubscriber>(&d->network,
                                                       "viewer.perfbench");
    Deployment* raw = d.get();
    d->viewer->SetFrameCallback([raw](const nsds::DataFrame& frame) {
      const double now = NowMicros();
      for (const nsds::DataSample& sample : frame.samples) {
        raw->frames.push_back({sample.time_micros, sample.value});
        raw->arrivals_us.push_back(now);
      }
    });
    status = d->viewer->SubscribeTo(d->experiment->streaming()->endpoint(),
                                    "most.displacement");
  }
  if (!status.ok()) {
    *error = "most-paper deployment failed: " + status.ToString();
    return nullptr;
  }
  return d;
}

struct Experiment {
  std::uint64_t steps = 0;
  double wall = 0.0;
  double cpu = 0.0;
  std::string failure;
  psd::RunReport report;
  double rig_error = 0.0;  // max |hybrid - SDOF| / SDOF peak
  // Counter deltas over this experiment.
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::uint64_t txns = 0;        // proposals + executions, all sites
  std::uint64_t duplicates = 0;  // duplicate proposals + executes
};

Experiment RunExperiment(Deployment& d, std::size_t index,
                         const std::vector<double>& reference,
                         std::vector<double>* latencies) {
  static const char* kSites[] = {most::MostExperiment::kNtcpUiuc,
                                 most::MostExperiment::kNtcpNcsa,
                                 most::MostExperiment::kNtcpCu};
  Experiment e;
  std::vector<ntcp::NtcpServerStats> before;
  for (const char* site : kSites) before.push_back(d.experiment->ServerStats(site));
  const net::LinkMetrics net0 = d.network.TotalMetrics();
  d.frames.clear();
  d.arrivals_us.clear();

  const RegionTimer timer;
  const double t0 = NowMicros();
  auto report = d.experiment->Run(psd::FaultPolicy::kFaultTolerant,
                                  "most-" + std::to_string(index));
  e.wall = timer.wall();
  e.cpu = timer.cpu();
  const net::LinkMetrics net1 = d.network.TotalMetrics();
  e.delivered = net1.delivered - net0.delivered;
  e.bytes = net1.bytes_delivered - net0.bytes_delivered;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const ntcp::NtcpServerStats after = d.experiment->ServerStats(kSites[i]);
    e.txns += after.proposals + after.executions - before[i].proposals -
              before[i].executions;
    e.duplicates += after.duplicate_proposals + after.duplicate_executes -
                    before[i].duplicate_proposals - before[i].duplicate_executes;
  }
  if (!report.ok()) {
    e.failure = report.status().ToString();
    return e;
  }
  e.report = std::move(*report);
  e.steps = e.report.steps_completed;
  if (!e.report.completed || e.steps != e.report.total_steps) {
    e.failure = "experiment stopped at step " + std::to_string(e.steps) +
                ": " + e.report.failure.ToString();
    return e;
  }
  if (latencies != nullptr) {
    double previous = t0;
    for (double arrival : d.arrivals_us) {
      latencies->push_back(arrival - previous);
      previous = arrival;
    }
  }

  std::vector<double> history;
  for (const auto& step : e.report.history.displacement) history.push_back(step[0]);
  // Frame k carries the displacement commanded at step k.
  const std::vector<double> commanded(history.begin(), history.end() - 1);
  e.failure = CheckViewerFrames(d.frames, commanded, d.experiment->options().dt_seconds);
  if (e.failure.empty()) {
    e.failure = CheckWithinRigError(history, reference, kRigErrorFraction);
    e.rig_error = MaxAbsDiff(history, reference) / PeakAbs(reference);
  }
  for (std::size_t i = 0; i < before.size() && e.failure.empty(); ++i) {
    const ntcp::NtcpServerStats after = d.experiment->ServerStats(kSites[i]);
    if (after.duplicate_executes != before[i].duplicate_executes ||
        after.executions - before[i].executions != e.steps) {
      e.failure = std::string(kSites[i]) +
                  " executed a step twice or missed one";
    }
  }
  return e;
}

}  // namespace

MostSdof MostPaperSdof(std::uint64_t seed) {
  return SdofOf(PaperOptions(seed));
}

WorkloadResult RunMostPaper(const Args& args, SpanLog& spans) {
  WorkloadResult out;
  // Pin this thread to the CPU it runs on; the backend threads every
  // deployment starts inherit the mask.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int cpu = sched_getcpu();
  CPU_SET(cpu < 0 ? 0 : cpu, &cpus);
  if (sched_setaffinity(0, sizeof cpus, &cpus) != 0) {
    std::perror("most-paper: sched_setaffinity");
  }
  Measurement& m = out.measurement;
  m.tail_pct = 99.3;  // 1,499 steps per experiment: 10 beyond p99.3
  const MostSdof sdof = MostPaperSdof(args.seed);
  const std::vector<double> reference = SdofCentralDifference(
      sdof.mass, sdof.damping, sdof.stiffness, sdof.dt, sdof.accel);
  const std::uint64_t steps_per_experiment =
      sdof.accel.empty() ? 0 : sdof.accel.size() - 1;
  auto fail = [&](const std::string& why) {
    out.check_failures.push_back(why);
    out.failed += steps_per_experiment;
  };

  // --- set-up: deployment + viewer + one warm-up experiment, repeated ----
  std::unique_ptr<Deployment> d;
  std::size_t index = 0;
  int deployments = 0;
  std::string error;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    d.reset();
    const double t0 = NowSeconds();
    d = Deploy(args, deployments++, nullptr, &error);
    if (d == nullptr) {
      out.check_failures.push_back(error);
      return out;
    }
    if (d->experiment->motion().accel != sdof.accel) {
      out.check_failures.push_back("experiment ground motion differs from "
                                   "the SDOF reference inputs");
      return out;
    }
    const Experiment warm = RunExperiment(*d, index++, reference, nullptr);
    m.setup_seconds.push_back(NowSeconds() - t0);
    if (!warm.failure.empty()) {
      out.check_failures.push_back("warm-up: " + warm.failure);
      return out;
    }
  }

  // --- timed experiments -------------------------------------------------
  std::vector<double> round_latencies;
  const std::size_t rounds = RoundsFor(args, kExperimentsPerSecond);
  std::uint64_t frames_minted = 0, allocs = 0;
  std::uint64_t delivered = 0, bytes = 0, txns = 0, duplicates = 0;
  std::vector<double> propose_us, execute_us, self_us;
  std::uint64_t viewer_frames = 0;
  double worst_rig_error = 0.0;
  for (std::size_t k = 0; k < UntracedRounds(args, rounds); ++k) {
    round_latencies.clear();
    if (k > 0 && k % kExperimentsPerDeployment == 0) {
      d.reset();
      d = Deploy(args, deployments++, nullptr, &error);
      if (d == nullptr) {
        out.check_failures.push_back(error);
        return out;
      }
    }
    const std::uint64_t frames0 = util::FramePool::Instance().stats().minted;
    const std::uint64_t allocs0 = AllocCount();
    Experiment e = RunExperiment(*d, index++, reference, &round_latencies);
    frames_minted += util::FramePool::Instance().stats().minted - frames0;
    allocs += AllocCount() - allocs0;
    delivered += e.delivered;
    bytes += e.bytes;
    txns += e.txns;
    duplicates += e.duplicates;
    out.attempted += steps_per_experiment;
    if (!e.failure.empty()) fail(e.failure);
    m.latencies_us.insert(m.latencies_us.end(), round_latencies.begin(),
                          round_latencies.end());
    m.AddRound(static_cast<double>(e.steps), e.wall, e.cpu, &round_latencies);
    viewer_frames += d->frames.size();
    worst_rig_error = std::max(worst_rig_error, e.rig_error);
    if (e.steps > 0) {
      propose_us.push_back(e.report.propose_phase_micros.Percentile(50));
      execute_us.push_back(e.report.execute_phase_micros.Percentile(50));
      self_us.push_back(1e6 * e.report.wall_seconds / static_cast<double>(e.steps) -
                        e.report.propose_phase_micros.mean() -
                        e.report.execute_phase_micros.mean());
    }
  }

  std::printf("most-paper: PGA %.3f m/s^2, SDOF peak drift %.4f m, hybrid "
              "drift within %.2f%% of it (allowed %.0f%%)\n",
              PaperOptions(args.seed).peak_accel, PeakAbs(reference),
              100.0 * worst_rig_error, 100.0 * kRigErrorFraction);

  if (args.trace) {
    const double ops = std::max(m.ops(), 1.0);
    MetricMap& l = out.layers;
    l["net.msgs_per_op"].value = static_cast<double>(delivered) / ops;
    l["net.wire_bytes_per_op"].value = static_cast<double>(bytes) / ops;
    l["util.frames_minted_per_op"].value = static_cast<double>(frames_minted) / ops;
    l["util.allocs_per_op"].value = static_cast<double>(allocs) / ops;
    l["ntcp.txns_per_op"].value = static_cast<double>(txns) / ops;
    l["ntcp.duplicates_per_op"].value = static_cast<double>(duplicates) / ops;
    l["nsds.frames_per_op"].value = static_cast<double>(viewer_frames) / ops;
    l["psd.propose_phase_us"].value = Median(propose_us);
    l["psd.execute_phase_us"].value = Median(execute_us);
    l["psd.step_self_us"].value = Median(self_us);
    const double untraced_ops_per_s = ops / m.wall_seconds();

    // Traced phase: one deployment built with MostOptions::tracer, so the
    // network, NTCP, plugins, DAQ and NSDS record their existing spans.
    util::SystemClock& clock = util::SystemClock::Instance();
    obs::Tracer tracer(&clock);
    std::vector<double> handoff_us, settle_us, flush_extra_ms;
    std::uint64_t traced_steps = 0;
    double traced_wall = 0.0;
    d.reset();
    d = Deploy(args, deployments++, &tracer, &error);
    if (d == nullptr) {
      out.check_failures.push_back(error);
      return out;
    }
    for (std::size_t k = UntracedRounds(args, rounds); k < rounds; ++k) {
      const double t0 = NowMicros();
      Experiment e = RunExperiment(*d, index++, reference, nullptr);
      spans.Record("most.Run", t0, NowMicros());
      out.attempted += steps_per_experiment;
      if (!e.failure.empty()) fail(e.failure);
      traced_steps += e.steps;
      traced_wall += e.wall;

      // Read the library's spans of this experiment, then drop them.
      std::map<std::uint64_t, double> enqueued;  // parent -> queue start
      std::map<std::uint64_t, double> step_us;   // psd.step id -> duration
      std::vector<std::uint64_t> flush_steps;
      for (const obs::SpanRecord& s : tracer.Snapshot()) {
        if (s.name == "mplugin.queue") {
          enqueued[s.parent_id] = static_cast<double>(s.start_micros);
        } else if (s.name == "backend.compute" && enqueued.count(s.parent_id)) {
          handoff_us.push_back(static_cast<double>(s.end_micros) -
                               enqueued[s.parent_id]);
        } else if (s.name == "actuator.move") {
          settle_us.push_back(static_cast<double>(s.DurationMicros()));
        } else if (s.name == "psd.step") {
          step_us[s.id] = static_cast<double>(s.DurationMicros());
        } else if (s.name == "daq.flush") {
          flush_steps.push_back(s.parent_id);
        }
      }
      std::vector<double> plain, flushed;
      for (const auto& [id, us] : step_us) plain.push_back(us);
      for (std::uint64_t id : flush_steps) {
        if (step_us.count(id)) flushed.push_back(step_us[id]);
      }
      if (!flushed.empty()) {
        flush_extra_ms.push_back((Median(flushed) - Median(plain)) / 1e3);
      }
      tracer.Clear();
    }
    d.reset();  // before the tracer it records into
    l["plugins.backend_handoff_us"].value = Median(handoff_us);
    l["testbed.settle_us"].value = Median(settle_us);
    l["daq.flush_ingest_ms"].value = Median(flush_extra_ms);
    l["obs.trace_overhead_pct"].value = OverheadPct(
        untraced_ops_per_s, static_cast<double>(traced_steps) / traced_wall);
  }
  out.correct = out.check_failures.empty();
  return out;
}

}  // namespace perfbench
