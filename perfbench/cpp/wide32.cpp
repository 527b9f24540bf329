// wide-32: 32 elastic SimulationPlugin sites behind NTCP servers, the async
// engine, kImmediate delivery, one thread. The benchmark drives the steps:
// one operation is one SimulationCoordinator::ExecuteStep() call.
//
// A round is one 1,500-step experiment (a fresh coordinator and run id on
// the same 32 servers). Between rounds every server garbage-collects its
// finished transactions, as a long-lived site must, outside the timed
// region; without it 50k steps would keep 1.6M transaction records alive.
#include <memory>
#include <string>
#include <utility>

#include "checks.h"
#include "net/network.h"
#include "ntcp/server.h"
#include "obs/trace.h"
#include "plugins/simulation_plugin.h"
#include "psd/coordinator.h"
#include "structural/groundmotion.h"
#include "structural/substructure.h"
#include "util/frame_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace nees;

constexpr std::size_t kSites = 32;
constexpr std::size_t kRoundSteps = 1500;
constexpr double kMass = 5e4;
constexpr double kDamping = 1e4;
constexpr double kSiteStiffness = 1e6;
constexpr double kDt = 0.02;
constexpr double kRoundsPerSecond = 3.0;  // 4,900 steps/s + GC between rounds

/// ControlPlugin decorator: forwards to the site's SimulationPlugin and, in
/// the traced phase, records the time of Validate and Execute.
class TimedPlugin final : public ntcp::ControlPlugin {
 public:
  explicit TimedPlugin(std::unique_ptr<ntcp::ControlPlugin> inner)
      : inner_(std::move(inner)) {}

  void set_tracer(obs::Tracer* tracer) override { inner_->set_tracer(tracer); }
  util::Status Validate(const ntcp::Proposal& proposal) override {
    if (spans_ == nullptr) return inner_->Validate(proposal);
    const double t0 = NowMicros();
    util::Status status = inner_->Validate(proposal);
    spans_->Record("plugin.validate", t0, NowMicros());
    return status;
  }
  util::Result<ntcp::TransactionResult> Execute(
      const ntcp::Proposal& proposal) override {
    if (spans_ == nullptr) return inner_->Execute(proposal);
    const double t0 = NowMicros();
    auto result = inner_->Execute(proposal);
    spans_->Record("plugin.execute", t0, NowMicros());
    return result;
  }
  void OnCancel(const ntcp::Proposal& proposal) override {
    inner_->OnCancel(proposal);
  }
  std::string_view kind() const override { return inner_->kind(); }

  void record_into(SpanLog* spans) { spans_ = spans; }

 private:
  std::unique_ptr<ntcp::ControlPlugin> inner_;
  SpanLog* spans_ = nullptr;
};

struct Deployment {
  net::Network network{net::DeliveryMode::kImmediate};
  std::vector<std::unique_ptr<ntcp::NtcpServer>> servers;
  std::vector<TimedPlugin*> plugins;  // owned by their servers
  std::unique_ptr<net::RpcClient> rpc;
  psd::CoordinatorConfig config;
};

std::unique_ptr<Deployment> Deploy(const structural::GroundMotion& motion) {
  auto d = std::make_unique<Deployment>();
  d->config.mass = structural::Matrix::Identity(1) * kMass;
  d->config.damping = structural::Matrix::Identity(1) * kDamping;
  d->config.iota = {1.0};
  d->config.motion = motion;
  d->config.step_engine = psd::StepEngine::kAsync;
  for (std::size_t i = 0; i < kSites; ++i) {
    auto simulation = std::make_unique<plugins::SimulationPlugin>();
    structural::Matrix k(1, 1);
    k(0, 0) = kSiteStiffness;
    simulation->AddControlPoint(
        "cp", std::make_unique<structural::ElasticSubstructure>(k));
    auto timed = std::make_unique<TimedPlugin>(std::move(simulation));
    d->plugins.push_back(timed.get());
    const std::string index = std::to_string(i);
    const std::string endpoint = "wide32.site" + index;
    auto server = std::make_unique<ntcp::NtcpServer>(&d->network, endpoint,
                                                     std::move(timed));
    if (!server->Start().ok()) return nullptr;
    d->servers.push_back(std::move(server));
    d->config.sites.push_back({"S" + index, endpoint, "cp", {0}});
  }
  d->rpc = std::make_unique<net::RpcClient>(&d->network, "wide32.coordinator");
  return d;
}

/// Σ proposals + executions and Σ duplicate proposals + executes.
std::pair<std::uint64_t, std::uint64_t> TransactionCounts(const Deployment& d) {
  std::uint64_t txns = 0, duplicates = 0;
  for (const auto& server : d.servers) {
    const ntcp::NtcpServerStats s = server->stats();
    txns += s.proposals + s.executions;
    duplicates += s.duplicate_proposals + s.duplicate_executes;
  }
  return {txns, duplicates};
}

/// Per-round bookkeeping and checks.
struct Round {
  std::uint64_t steps = 0;
  double wall = 0.0;
  double cpu = 0.0;
  std::string failure;  // first check that failed, empty if none
  psd::RunReport report;  // filled when the round ran through Run()
};

/// Runs one round: through SimulationCoordinator::Run() when the phase
/// times of its RunReport are wanted, else step by step, timing each
/// ExecuteStep into `latencies` and/or `spans` when given.
Round RunRound(Deployment& d, std::size_t index, bool use_run_report,
               const std::vector<double>& reference,
               std::vector<double>* latencies, SpanLog* spans,
               obs::Tracer* tracer) {
  Round round;
  std::vector<ntcp::NtcpServerStats> before;
  for (auto& server : d.servers) before.push_back(server->stats());
  psd::CoordinatorConfig config = d.config;
  config.run_id = "wide32-r" + std::to_string(index);
  config.tracer = tracer;
  psd::SimulationCoordinator coordinator(config, d.rpc.get());

  const RegionTimer timer;
  if (use_run_report) {
    round.report = coordinator.Run();
    round.steps = round.report.steps_completed;
    if (!round.report.completed) round.failure = round.report.failure.ToString();
  } else {
    for (;;) {
      const double t0 = NowMicros();
      auto advanced = coordinator.ExecuteStep();
      const double t1 = NowMicros();
      if (!advanced.ok()) {
        round.failure = advanced.status().ToString();
        break;
      }
      if (!*advanced) break;
      ++round.steps;
      if (latencies != nullptr) latencies->push_back(t1 - t0);
      if (spans != nullptr) spans->Record("psd.ExecuteStep", t0, t1);
    }
  }
  round.wall = timer.wall();
  round.cpu = timer.cpu();

  if (!round.failure.empty()) return round;
  std::vector<double> history;
  for (const auto& step : coordinator.history().displacement) {
    history.push_back(step[0]);
  }
  round.failure = CheckMatchesRecurrence(history, reference);
  for (std::size_t i = 0; i < d.servers.size() && round.failure.empty(); ++i) {
    const ntcp::NtcpServerStats after = d.servers[i]->stats();
    if (after.executions - before[i].executions != round.steps ||
        after.proposals - before[i].proposals != round.steps ||
        after.duplicate_executes != before[i].duplicate_executes ||
        after.duplicate_proposals != before[i].duplicate_proposals) {
      round.failure = "site " + std::to_string(i) +
                      " did not execute exactly one transaction per step";
    }
  }
  if (round.failure.empty() && coordinator.threads_spawned() != 0) {
    round.failure = "the async engine spawned threads";
  }
  for (auto& server : d.servers) server->GarbageCollect(0);
  return round;
}

}  // namespace

WorkloadResult RunWide32(const Args& args, SpanLog& spans) {
  WorkloadResult out;
  Measurement& m = out.measurement;
  m.tail_pct = 99.3;  // 1,500 steps per round: 10 beyond p99.3

  structural::SyntheticQuakeParams quake;
  quake.dt_seconds = kDt;
  quake.steps = kRoundSteps + 1;  // N samples drive N-1 steps
  quake.seed = DeriveSeed(args.seed, 1);
  const structural::GroundMotion motion = structural::SynthesizeQuake(quake);
  const std::vector<double> reference = SdofCentralDifference(
      kMass, kDamping, kSiteStiffness * kSites, kDt, motion.accel);

  // A round whose steps or checks fail counts all its steps as failed.
  auto fail = [&out](const std::string& why) {
    out.check_failures.push_back(why);
    out.failed += kRoundSteps;
  };

  // --- set-up: deployment + one warm-up round, repeated -----------------
  std::unique_ptr<Deployment> d;
  std::size_t round_index = 0;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    d.reset();
    const double t0 = NowSeconds();
    d = Deploy(motion);
    if (d == nullptr) {
      out.check_failures.push_back("wide-32 deployment failed to start");
      return out;
    }
    const Round warm = RunRound(*d, round_index++, false, reference,
                                nullptr, nullptr, nullptr);
    m.setup_seconds.push_back(NowSeconds() - t0);
    if (!warm.failure.empty()) {
      out.check_failures.push_back("warm-up: " + warm.failure);
      return out;
    }
  }

  // --- timed rounds ------------------------------------------------------
  std::vector<double> round_latencies;
  const std::size_t rounds = RoundsFor(args, kRoundsPerSecond);
  const net::LinkMetrics net0 = d->network.TotalMetrics();
  const std::uint64_t frames0 = util::FramePool::Instance().stats().minted;
  const auto [txns0, duplicates0] = TransactionCounts(*d);
  std::vector<std::uint64_t> allocs_per_round;
  std::vector<double> propose_us, execute_us, self_us;
  std::uint64_t untraced_steps = 0;
  double untraced_wall = 0.0;
  for (std::size_t k = 0; k < UntracedRounds(args, rounds); ++k) {
    const std::uint64_t allocs0 = AllocCount();
    round_latencies.clear();
    Round r = RunRound(*d, round_index++, args.trace, reference,
                       &round_latencies, nullptr, nullptr);
    allocs_per_round.push_back(AllocCount() - allocs0);
    out.attempted += kRoundSteps;
    if (!r.failure.empty()) fail(r.failure);
    m.latencies_us.insert(m.latencies_us.end(), round_latencies.begin(),
                          round_latencies.end());
    m.AddRound(static_cast<double>(r.steps), r.wall, r.cpu,
               round_latencies.empty() ? nullptr : &round_latencies);
    untraced_steps += r.steps;
    untraced_wall += r.wall;
    if (args.trace && r.steps > 0) {
      const double mean_step = 1e6 * r.wall / static_cast<double>(r.steps);
      propose_us.push_back(r.report.propose_phase_micros.Percentile(50));
      execute_us.push_back(r.report.execute_phase_micros.Percentile(50));
      self_us.push_back(mean_step - r.report.propose_phase_micros.mean() -
                        r.report.execute_phase_micros.mean());
    }
  }
  const net::LinkMetrics net1 = d->network.TotalMetrics();
  const std::uint64_t frames1 = util::FramePool::Instance().stats().minted;
  const auto [txns1, duplicates1] = TransactionCounts(*d);

  if (args.trace) {
    // Traced half, in alternating rounds: Run() with only the coordinator's
    // obs::Tracer set, the same path as the untraced half, so the overhead
    // is the tracer's alone; and a pass with the plugin decorator's spans
    // and a benchmark span per ExecuteStep, which feeds no overhead figure.
    util::SystemClock& clock = util::SystemClock::Instance();
    obs::Tracer tracer(&clock);
    std::uint64_t traced_steps = 0;
    double traced_wall = 0.0;
    const std::size_t untraced = UntracedRounds(args, rounds);
    for (std::size_t k = untraced; k < rounds; ++k) {
      const bool tracer_pass = (k - untraced) % 2 == 0;
      for (TimedPlugin* plugin : d->plugins) {
        plugin->record_into(tracer_pass ? nullptr : &spans);
      }
      Round r = tracer_pass
                    ? RunRound(*d, round_index++, true, reference, nullptr,
                               nullptr, &tracer)
                    : RunRound(*d, round_index++, false, reference, nullptr,
                               &spans, nullptr);
      out.attempted += kRoundSteps;
      if (!r.failure.empty()) fail(r.failure);
      if (tracer_pass) {
        traced_steps += r.steps;
        traced_wall += r.wall;
      }
      tracer.Clear();
    }
    for (TimedPlugin* plugin : d->plugins) plugin->record_into(nullptr);

    const double ops = static_cast<double>(std::max<std::uint64_t>(untraced_steps, 1));
    MetricMap& l = out.layers;
    l["net.msgs_per_op"].value = static_cast<double>(net1.delivered - net0.delivered) / ops;
    l["net.wire_bytes_per_op"].value =
        static_cast<double>(net1.bytes_delivered - net0.bytes_delivered) / ops;
    l["util.frames_minted_per_op"].value = static_cast<double>(frames1 - frames0) / ops;
    std::uint64_t allocs = 0;
    for (std::uint64_t a : allocs_per_round) allocs += a;
    l["util.allocs_per_op"].value = static_cast<double>(allocs) / ops;
    l["ntcp.txns_per_op"].value = static_cast<double>(txns1 - txns0) / ops;
    l["ntcp.duplicates_per_op"].value =
        static_cast<double>(duplicates1 - duplicates0) / ops;
    l["psd.propose_phase_us"].value = Median(propose_us);
    l["psd.execute_phase_us"].value = Median(execute_us);
    l["psd.step_self_us"].value = Median(self_us);
    l["plugins.execute_us"].value = Median(spans.Durations("plugin.validate")) +
                                    Median(spans.Durations("plugin.execute"));
    l["obs.trace_overhead_pct"].value = OverheadPct(
        static_cast<double>(untraced_steps) / untraced_wall,
        static_cast<double>(traced_steps) / traced_wall);
    bool same = true;
    for (std::uint64_t a : allocs_per_round) same = same && a == allocs_per_round.front();
    std::printf("wide-32 allocations per round: %llu over %zu rounds (%s)\n",
                static_cast<unsigned long long>(allocs_per_round.front()),
                allocs_per_round.size(),
                same ? "identical every round" : "NOT identical");
  }
  out.correct = out.check_failures.empty();
  return out;
}

}  // namespace perfbench
