// Integration tests for the full MOST assembly: dry run vs hybrid run,
// simulation/physical agreement (the NTCP transparency claim), the §3.4
// fault narrative in miniature, and the end-to-end data path (DAQ ->
// repository, NSDS streaming, OGSI inspection).
#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "grid/container.h"
#include "most/mini_most.h"
#include "most/most.h"
#include "net/rpc.h"
#include "ntcp/client.h"
#include "testbed/shorewestern.h"
#include "nsds/nsds.h"
#include "util/clock.h"

namespace nees::most {
namespace {

MostOptions SmallOptions(std::size_t steps, bool hybrid) {
  MostOptions options;
  options.steps = steps;
  options.hybrid = hybrid;
  options.daq_flush_every_steps = 50;
  return options;
}

TEST(MostModelTest, StiffnessBreakdownMatchesFem) {
  const MostOptions options;
  const StiffnessBreakdown breakdown = ComputeStiffnessBreakdown(options);
  EXPECT_GT(breakdown.left_n_per_m, 0.0);
  // Pin-top column is 4x softer than the rigid-top column (3EI vs 12EI).
  EXPECT_NEAR(breakdown.right_n_per_m / breakdown.left_n_per_m, 4.0, 1e-9);
  EXPECT_NEAR(breakdown.middle_n_per_m, breakdown.right_n_per_m, 1e-9);

  // Cross-check the single-column terms against the FEM frame module.
  structural::FrameModel column;
  const auto base = column.AddNode(0, 0);
  const auto top = column.AddNode(0, options.column_height_m);
  column.FixAll(base);
  column.Fix(top, structural::Dof::kRz);
  column.Fix(top, structural::Dof::kUy);
  column.AddElement(base, top, options.column_section);
  const auto dof = column.DofIndex(top, structural::Dof::kUx);
  ASSERT_TRUE(dof.has_value());
  EXPECT_NEAR(column.AssembleStiffness()(*dof, *dof),
              breakdown.right_n_per_m, 1.0);
}

TEST(MostModelTest, FrameIsWellPosedAndPeriodRealistic) {
  const MostOptions options;
  structural::FrameModel frame = BuildMostFrame(options);
  EXPECT_EQ(frame.FreeDofCount(), 9u);
  const auto k = frame.AssembleStiffness();
  EXPECT_TRUE(structural::CholeskyFactor(k).ok());

  // The reduced 1-DOF period should be sub-second (a stiff steel story).
  const StiffnessBreakdown breakdown = ComputeStiffnessBreakdown(options);
  const double omega = std::sqrt(breakdown.total() / options.story_mass_kg);
  const double period = 2.0 * M_PI / omega;
  EXPECT_GT(period, 0.2);
  EXPECT_LT(period, 1.5);
  // Central difference is stable at the MOST dt.
  EXPECT_LT(options.dt_seconds, 2.0 / omega);
}

class MostRunTest : public ::testing::Test {
 protected:
  util::SimClock clock_{1'000'000};
};

TEST_F(MostRunTest, DryRunCompletesAllSteps) {
  net::Network network;
  network.SetClock(&clock_);
  MostExperiment experiment(&network, &clock_, SmallOptions(150, false));
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "dry");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed) << report->failure.ToString();
  EXPECT_EQ(report->steps_completed, 149u);
  // Every site executed every step exactly once.
  for (const char* endpoint : {MostExperiment::kNtcpUiuc,
                               MostExperiment::kNtcpNcsa,
                               MostExperiment::kNtcpCu}) {
    EXPECT_EQ(experiment.ServerStats(endpoint).executions, 149u) << endpoint;
  }
}

TEST_F(MostRunTest, DryRunMatchesNewmarkReference) {
  net::Network network;
  network.SetClock(&clock_);
  MostExperiment experiment(&network, &clock_, SmallOptions(200, false));
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "dry");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);

  auto reference = experiment.ReferenceSolution();
  ASSERT_TRUE(reference.ok());
  const double peak_ref = reference->PeakDisplacement(0);
  ASSERT_GT(peak_ref, 1e-4);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < report->history.displacement.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(report->history.displacement[i][0] -
                                  reference->displacement[i][0]));
  }
  // Explicit vs implicit integration: small but nonzero divergence.
  EXPECT_LT(max_diff, 0.05 * peak_ref);
}

TEST_F(MostRunTest, HybridRunAgreesWithDryRun) {
  // The paper's development methodology (§3): verify with all-simulation,
  // then swap in physical substructures — transparently to the coordinator.
  net::Network network_dry;
  network_dry.SetClock(&clock_);
  MostExperiment dry(&network_dry, &clock_, SmallOptions(150, false));
  auto dry_report = dry.Run(psd::FaultPolicy::kFaultTolerant, "dry");
  ASSERT_TRUE(dry_report.ok());
  ASSERT_TRUE(dry_report->completed);

  net::Network network_hybrid;
  network_hybrid.SetClock(&clock_);
  MostExperiment hybrid(&network_hybrid, &clock_, SmallOptions(150, true));
  auto hybrid_report = hybrid.Run(psd::FaultPolicy::kFaultTolerant, "pub");
  ASSERT_TRUE(hybrid_report.ok());
  ASSERT_TRUE(hybrid_report->completed) << hybrid_report->failure.ToString();

  const double peak = dry_report->history.PeakDisplacement(0);
  ASSERT_GT(peak, 1e-4);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < dry_report->history.displacement.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(dry_report->history.displacement[i][0] -
                                  hybrid_report->history.displacement[i][0]));
  }
  // Rig imperfections (settling, sensor noise) bound the divergence.
  EXPECT_LT(max_diff, 0.10 * peak);
}

TEST_F(MostRunTest, AsyncEngineBitIdenticalToSequential) {
  // E5/E6 determinism gate: in kImmediate delivery the completion-driven
  // engine resolves each site's call inline in issue order, so the hybrid
  // displacement record must match the sequential baseline bit for bit —
  // including across a recovered transient fault. The async engine runs
  // twice, unbatched and with per-site RPC batching, so the batch envelope
  // is held to the same bit-for-bit standard.
  struct EngineCase {
    psd::StepEngine engine;
    bool batch;
  };
  const EngineCase cases[] = {
      {psd::StepEngine::kSequential, false},
      {psd::StepEngine::kAsync, false},
      {psd::StepEngine::kAsync, true},
  };
  structural::TimeHistory histories[3];
  std::size_t engine_index = 0;
  for (const EngineCase& c : cases) {
    const psd::StepEngine engine = c.engine;
    util::SimClock clock{1'000'000};  // identical start time per run
    net::Network network;
    network.SetClock(&clock);
    MostOptions options = SmallOptions(120, true);
    options.step_engine = engine;
    MostExperiment experiment(&network, &clock, options);
    ASSERT_TRUE(experiment.Start().ok());
    net::RpcClient rpc(&network, "det.coordinator");
    auto config = experiment.MakeCoordinatorConfig(
        psd::FaultPolicy::kFaultTolerant, "det");
    config.retry.initial_backoff_micros = 1'000;
    config.batch_site_rpcs = c.batch;
    psd::SimulationCoordinator coordinator(config, &rpc, &clock);
    MostFaultSchedule faults(&network, "det.coordinator",
                             MostExperiment::kNtcpCu);
    faults.AddTransientBurst(60, 1);
    coordinator.SetStepObserver(
        [&](std::size_t step, const structural::Vector&,
            const std::vector<ntcp::TransactionResult>&) {
          faults.OnStep(step);
        });
    const psd::RunReport report = coordinator.Run();
    ASSERT_TRUE(report.completed) << report.failure.ToString();
    EXPECT_GE(report.transient_faults_recovered, 1u);
    if (engine == psd::StepEngine::kAsync) {
      EXPECT_EQ(report.threads_spawned, 0u);
    }
    histories[engine_index++] = report.history;
  }
  for (std::size_t variant = 1; variant < 3; ++variant) {
    ASSERT_EQ(histories[0].displacement.size(),
              histories[variant].displacement.size());
    for (std::size_t i = 0; i < histories[0].displacement.size(); ++i) {
      ASSERT_EQ(histories[0].displacement[i][0],
                histories[variant].displacement[i][0])
          << (variant == 1 ? "unbatched" : "batched")
          << " async diverged at step " << i;
    }
  }
}

TEST_F(MostRunTest, FaultNarrativeNaiveDiesFaultTolerantFinishes) {
  // Miniature §3.4: transient losses early (ridden out by RPC retries in
  // both configs... but the naive coordinator has no retries at all, so
  // the FIRST loss kills it), plus a fatal-sized burst near the end that
  // kills anything without step-level re-proposal.
  // Naive: one lost message at step 100 terminates the run at 100/119.
  {
    net::Network network;
    network.SetClock(&clock_);
    MostExperiment experiment(&network, &clock_, SmallOptions(120, false));
    ASSERT_TRUE(experiment.Start().ok());
    net::RpcClient rpc(&network, "naive.coordinator");
    psd::SimulationCoordinator coordinator(
        experiment.MakeCoordinatorConfig(psd::FaultPolicy::kNaive, "naive"),
        &rpc, &clock_);
    MostFaultSchedule faults(&network, "naive.coordinator",
                             MostExperiment::kNtcpCu);
    faults.AddTransientBurst(100, 1);
    coordinator.SetStepObserver(
        [&](std::size_t step, const structural::Vector&,
            const std::vector<ntcp::TransactionResult>&) {
          faults.OnStep(step);
        });
    const psd::RunReport report = coordinator.Run();
    EXPECT_FALSE(report.completed);
    EXPECT_EQ(report.steps_completed, 100u);
  }

  // Fault tolerant: the same burst plus two more elsewhere; completes.
  {
    net::Network network;
    network.SetClock(&clock_);
    MostExperiment experiment(&network, &clock_, SmallOptions(120, false));
    ASSERT_TRUE(experiment.Start().ok());
    net::RpcClient rpc(&network, "ft.coordinator");
    auto config = experiment.MakeCoordinatorConfig(
        psd::FaultPolicy::kFaultTolerant, "ft");
    config.retry.initial_backoff_micros = 1000;
    psd::SimulationCoordinator coordinator(config, &rpc, &clock_);
    MostFaultSchedule faults(&network, "ft.coordinator",
                             MostExperiment::kNtcpCu);
    faults.AddTransientBurst(30, 1);
    faults.AddTransientBurst(70, 2);
    faults.AddTransientBurst(100, 1);
    coordinator.SetStepObserver(
        [&](std::size_t step, const structural::Vector&,
            const std::vector<ntcp::TransactionResult>&) {
          faults.OnStep(step);
        });
    const psd::RunReport report = coordinator.Run();
    EXPECT_TRUE(report.completed) << report.failure.ToString();
    EXPECT_GE(report.transient_faults_recovered, 3u);
  }
}

TEST_F(MostRunTest, DataPathArchivesAndStreams) {
  net::Network network;
  network.SetClock(&clock_);
  MostOptions options = SmallOptions(120, false);
  MostExperiment experiment(&network, &clock_, options);
  ASSERT_TRUE(experiment.Start().ok());

  // A remote viewer subscribes to the structural response stream.
  nsds::NsdsSubscriber viewer(&network, "chef.viewer");
  ASSERT_TRUE(viewer.SubscribeTo(MostExperiment::kNsds, "most.").ok());

  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "data");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);

  // Streaming: the viewer saw displacement and per-site force channels.
  const auto latest = viewer.Latest();
  EXPECT_TRUE(latest.contains("most.displacement"));
  EXPECT_TRUE(latest.contains("most.force.UIUC"));
  EXPECT_TRUE(latest.contains("most.force.CU"));
  EXPECT_GT(viewer.stats().frames_received, 100u);

  // Repository: DAQ drops were ingested with metadata.
  auto files = experiment.repository()->nfms().List("most/daq/");
  ASSERT_GE(files.size(), 2u);
  auto content = experiment.repository()->Fetch(files[0].logical_name);
  ASSERT_TRUE(content.ok());
  EXPECT_FALSE(content->empty());
  auto metadata =
      experiment.repository()->nmds().Get("file:" + files[0].logical_name);
  ASSERT_TRUE(metadata.ok());
  EXPECT_EQ(metadata->type, "daq-data");

  // Registry: all three NTCP servers are discoverable.
  EXPECT_EQ(experiment.registry()->Query("ntcp").size(), 3u);
}

TEST_F(MostRunTest, TransactionsInspectableViaOgsi) {
  net::Network network;
  network.SetClock(&clock_);
  MostExperiment experiment(&network, &clock_, SmallOptions(30, false));
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "insp");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);

  grid::ContainerClient observer(&network, "remote.observer");
  auto sdes =
      observer.FindServiceData("container.nees", MostExperiment::kNtcpUiuc,
                               "txn.");
  ASSERT_TRUE(sdes.ok());
  EXPECT_EQ(sdes->size(), 29u);  // one transaction per step
  for (const auto& [key, value] : *sdes) {
    EXPECT_EQ(value.Get("state"), "completed") << key;
  }
  auto last = observer.FindServiceData("container.nees",
                                       MostExperiment::kNtcpUiuc,
                                       "lastChanged");
  ASSERT_TRUE(last.ok());
  ASSERT_EQ(last->size(), 1u);
}

/// Every transaction id `endpoint` holds, each checked to belong to
/// `run_id` and to have completed.
std::size_t CompletedTransactionsOfRun(net::RpcClient* rpc,
                                       const std::string& endpoint,
                                       const std::string& run_id) {
  ntcp::NtcpClient client(rpc, endpoint);
  auto ids = client.ListTransactions();
  EXPECT_TRUE(ids.ok()) << endpoint;
  if (!ids.ok()) return 0;
  for (const std::string& id : *ids) {
    EXPECT_TRUE(id.starts_with(run_id + "-s")) << endpoint << ": " << id;
    auto record = client.GetTransaction(id);
    EXPECT_TRUE(record.ok()) << id;
    if (record.ok()) {
      EXPECT_EQ(record->state, ntcp::TransactionState::kCompleted) << id;
    }
  }
  return ids->size();
}

TEST_F(MostRunTest, BackToBackRunsKeepOnlyTheLatestRun) {
  // One long-lived deployment, as the rehearsals and the July 2003 run
  // shared their servers: each Run() starts by retiring the earlier runs'
  // finished transactions, and the harvester leaves nothing behind in the
  // drop directory, while the repository keeps every run's files.
  net::Network network;
  network.SetClock(&clock_);
  MostExperiment experiment(&network, &clock_, SmallOptions(120, false));
  net::RpcClient inspector(&network, "remote.inspector");
  std::size_t archived = 0;
  for (int run = 0; run < 4; ++run) {
    const std::string run_id = "rehearsal-" + std::to_string(run);
    auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, run_id);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->completed);
    for (const char* site : {MostExperiment::kNtcpUiuc,
                             MostExperiment::kNtcpNcsa,
                             MostExperiment::kNtcpCu}) {
      EXPECT_EQ(CompletedTransactionsOfRun(&inspector, site, run_id),
                report->steps_completed)
          << site << " after " << run_id;
    }
    const std::filesystem::path& drop = experiment.options().daq_drop_dir;
    ASSERT_TRUE(std::filesystem::exists(drop));
    EXPECT_TRUE(std::filesystem::is_empty(drop)) << "after " << run_id;
    const std::size_t files =
        experiment.repository()->nfms().List("most/daq/").size();
    EXPECT_GT(files, archived) << "after " << run_id;
    archived = files;
  }
}

TEST(MiniMostTest, BackToBackRunsKeepOnlyTheLatestRun) {
  util::SimClock clock(1'000'000);
  net::Network network;
  network.SetClock(&clock);
  MiniMostOptions options;
  options.steps = 50;
  options.real_hardware = false;
  MiniMostExperiment experiment(&network, &clock, options);
  net::RpcClient inspector(&network, "remote.inspector");
  for (int run = 0; run < 3; ++run) {
    const std::string run_id = "mini-" + std::to_string(run);
    auto report = experiment.Run(run_id);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->completed) << report->failure.ToString();
    for (const std::string site : {"ntcp.minimost", "ntcp.minimost.sim"}) {
      EXPECT_EQ(CompletedTransactionsOfRun(&inspector, site, run_id),
                report->steps_completed)
          << site << " after " << run_id;
    }
  }
}

TEST_F(MostRunTest, OperatorSplittingModeTracksCentralDifference) {
  // MOST's dt is comfortably inside the CD stability limit, so both
  // integrators should produce closely matching responses.
  net::Network cd_network;
  cd_network.SetClock(&clock_);
  MostExperiment cd(&cd_network, &clock_, SmallOptions(200, false));
  auto cd_report = cd.Run(psd::FaultPolicy::kFaultTolerant, "cd");
  ASSERT_TRUE(cd_report.ok());
  ASSERT_TRUE(cd_report->completed);

  net::Network os_network;
  os_network.SetClock(&clock_);
  MostOptions os_options = SmallOptions(200, false);
  os_options.integrator = psd::PsdIntegrator::kOperatorSplitting;
  MostExperiment os(&os_network, &clock_, os_options);
  auto os_report = os.Run(psd::FaultPolicy::kFaultTolerant, "os");
  ASSERT_TRUE(os_report.ok());
  ASSERT_TRUE(os_report->completed) << os_report->failure.ToString();

  const double peak = cd_report->history.PeakDisplacement(0);
  ASSERT_GT(peak, 1e-4);
  EXPECT_NEAR(os_report->history.PeakDisplacement(0), peak, 0.05 * peak);
}

TEST_F(MostRunTest, SafetyInterlockMidRunStopsTheExperiment) {
  // Failure injection at the rig: the UIUC column's force limit is set so
  // low that strong motion trips the interlock mid-run. The coordinator
  // must stop with kSafetyInterlock (never retried — retrying into a
  // tripped rig would be exactly wrong) and no site may keep executing.
  net::Network network;
  network.SetClock(&clock_);
  MostOptions options = SmallOptions(200, true);
  MostExperiment experiment(&network, &clock_, options);
  ASSERT_TRUE(experiment.Start().ok());

  net::RpcClient rpc(&network, "interlock.coordinator");
  psd::SimulationCoordinator coordinator(
      experiment.MakeCoordinatorConfig(psd::FaultPolicy::kFaultTolerant,
                                       "interlock"),
      &rpc, &clock_);

  // Trip the interlock from "the control room" partway through.
  bool tripped = false;
  coordinator.SetStepObserver(
      [&](std::size_t step, const structural::Vector&,
          const std::vector<ntcp::TransactionResult>&) {
        if (step == 60 && !tripped) {
          tripped = true;
          // The Shore-Western operator hits the emergency stop.
          net::RpcClient operator_rpc(&network, "uiuc.operator");
          testbed::ShoreWesternClient panel(&operator_rpc,
                                            MostExperiment::kShoreWestern);
          ASSERT_TRUE(panel.EStop().ok());
        }
      });
  const psd::RunReport report = coordinator.Run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.failure.code(), util::ErrorCode::kSafetyInterlock);
  EXPECT_EQ(report.steps_completed, 61u);
  // The other sites stopped with it: executions equal completed steps + the
  // one aborted step at most.
  EXPECT_LE(experiment.ServerStats(MostExperiment::kNtcpCu).executions, 62u);
}

TEST_F(MostRunTest, RunsOverScheduledNetworkWithRealLatency) {
  // The same stack over the threaded, real-latency network: proves nothing
  // depends on the deterministic immediate mode.
  net::Network network(net::DeliveryMode::kScheduled);
  net::LinkModel wan;
  wan.latency_micros = 200;  // 0.2 ms each way
  network.SetDefaultLink(wan);
  MostOptions options = SmallOptions(60, false);
  options.with_repository = false;  // keep the threaded run lean
  options.daq_flush_every_steps = 0;
  MostExperiment experiment(&network, &util::SystemClock::Instance(),
                            options);
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "sched");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed) << report->failure.ToString();
  EXPECT_EQ(report->steps_completed, 59u);
  // The async engine overlaps the three sites, so a step pays ~2 RTTs
  // (propose + execute), not 6: real WAN latency, but no serialization.
  EXPECT_GT(report->wall_seconds, 59 * 2 * 0.0004);
  EXPECT_EQ(report->threads_spawned, 0u);
}

// --- Mini-MOST (§3.5) ---------------------------------------------------------

TEST(MiniMostTest, BeamStiffnessMatchesBeamTheory) {
  MiniMostOptions options;
  // 3EI/L^3 with I = b h^3 / 12.
  const double inertia = 0.10 * std::pow(0.006, 3) / 12.0;
  EXPECT_NEAR(MiniMostBeamStiffness(options),
              3.0 * 200e9 * inertia / 1.0, 1e-6);
}

TEST(MiniMostTest, HardwareModeCompletesAndUsesTheStepper) {
  net::Network network;
  MiniMostOptions options;
  options.steps = 200;
  MiniMostExperiment experiment(&network, &util::SystemClock::Instance(),
                                options);
  auto report = experiment.Run("hw");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed) << report->failure.ToString();
  EXPECT_EQ(report->steps_completed, 199u);
  EXPECT_GT(experiment.stepper_steps(), 0);
  EXPECT_EQ(experiment.ServerStats().executions, 199u);
}

TEST(MiniMostTest, KineticSimulatorTracksHardwareWithinTolerance) {
  MiniMostOptions options;
  options.steps = 200;

  net::Network hw_network;
  MiniMostExperiment hardware(&hw_network, &util::SystemClock::Instance(),
                              options);
  auto hw_report = hardware.Run("hw");
  ASSERT_TRUE(hw_report.ok());
  ASSERT_TRUE(hw_report->completed);

  net::Network sim_network;
  options.real_hardware = false;
  MiniMostExperiment simulator(&sim_network, &util::SystemClock::Instance(),
                               options);
  auto sim_report = simulator.Run("sim");
  ASSERT_TRUE(sim_report.ok());
  ASSERT_TRUE(sim_report->completed);
  EXPECT_EQ(simulator.stepper_steps(), 0);  // no hardware touched

  const double peak = hw_report->history.PeakDisplacement(0);
  ASSERT_GT(peak, 1e-5);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < hw_report->history.displacement.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(hw_report->history.displacement[i][0] -
                                  sim_report->history.displacement[i][0]));
  }
  // "Applicable for testing": close enough to debug against.
  EXPECT_LT(max_diff, 0.35 * peak);
}

TEST(MiniMostTest, TravelLimitRejectsExcessiveShaking) {
  net::Network network;
  MiniMostOptions options;
  options.steps = 300;
  options.peak_accel = 200.0;  // absurd tabletop shaking
  MiniMostExperiment experiment(&network, &util::SystemClock::Instance(),
                                options);
  auto report = experiment.Run("over");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->completed);
  // The LabVIEW plugin's travel limit rejects the command at propose time.
  EXPECT_EQ(report->failure.code(), util::ErrorCode::kPolicyViolation);
}

TEST_F(MostRunTest, HystereticColumnsDissipateEnergy) {
  net::Network network;
  network.SetClock(&clock_);
  MostOptions options = SmallOptions(150, true);
  options.hysteretic_columns = true;
  options.peak_accel = 6.0;  // drive the columns past yield
  MostExperiment experiment(&network, &clock_, options);
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "hyst");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed) << report->failure.ToString();

  // Peak response should be bounded and the record should complete — the
  // hysteretic system absorbs the stronger shaking.
  EXPECT_LT(report->history.PeakDisplacement(0), 0.15);
  EXPECT_GT(report->history.PeakDisplacement(0), 1e-4);
}

}  // namespace
}  // namespace nees::most
