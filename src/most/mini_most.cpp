#include "most/mini_most.h"

#include <cmath>

#include "plugins/labview_plugin.h"
#include "plugins/simulation_plugin.h"

namespace nees::most {

double MiniMostBeamStiffness(const MiniMostOptions& options) {
  const double inertia = options.beam_width_m *
                         std::pow(options.beam_thickness_m, 3) / 12.0;
  return 3.0 * options.youngs_modulus * inertia /
         std::pow(options.beam_length_m, 3);
}

MiniMostExperiment::MiniMostExperiment(net::Network* network,
                                       util::Clock* clock,
                                       MiniMostOptions options)
    : network_(network), clock_(clock), options_(options) {
  structural::SyntheticQuakeParams quake;
  quake.dt_seconds = options_.dt_seconds;
  quake.steps = options_.steps;
  quake.peak_accel = options_.peak_accel;
  quake.seed = options_.seed;
  motion_ = structural::SynthesizeQuake(quake);
}

MiniMostExperiment::~MiniMostExperiment() { Stop(); }

util::Status MiniMostExperiment::Start() {
  if (started_) return util::OkStatus();
  // A farm host installs one shared tracer on the network; only stomp it
  // when this experiment was handed its own.
  if (options_.tracer != nullptr) network_->set_tracer(options_.tracer);
  const double beam_stiffness = MiniMostBeamStiffness(options_);

  std::unique_ptr<ntcp::ControlPlugin> beam_plugin;
  if (options_.real_hardware) {
    testbed::PhysicalSpecimen::Config rig;
    rig.name = "mini-most-beam";
    rig.limits.max_displacement_m = 0.03;
    rig.limits.max_force_n = 500.0;
    rig.sensor_seed = options_.seed;
    rig.strain_per_newton = 1e-6;
    auto stepper = std::make_unique<testbed::StepperMotor>(
        testbed::StepperMotor::Params{});
    stepper_ = stepper.get();
    structural::BoucWenSubstructure::Params model;
    model.elastic_stiffness = beam_stiffness;
    model.yield_displacement = 0.05;  // the tabletop beam stays elastic
    model.alpha = 0.1;
    auto specimen = std::make_unique<testbed::PhysicalSpecimen>(
        rig, std::move(stepper),
        std::make_unique<structural::BoucWenSubstructure>(model));

    plugins::LabViewPlugin::Config config;
    config.control_point = "beam-tip";
    config.max_abs_displacement_m = 0.025;
    beam_plugin = std::make_unique<plugins::LabViewPlugin>(
        config, std::move(specimen));
  } else {
    // "first-order kinetic simulator ... applicable for testing when the
    // actual hardware is not available".
    structural::FirstOrderKineticSubstructure::Params kinetic;
    kinetic.stiffness = beam_stiffness;
    // Must settle well within one PSD step: a lagging restoring force acts
    // as negative damping in the central-difference loop.
    kinetic.time_constant = options_.dt_seconds / 4.0;
    kinetic.dt = options_.dt_seconds;
    auto simulation = std::make_unique<plugins::SimulationPlugin>();
    simulation->AddControlPoint(
        "beam-tip",
        std::make_unique<structural::FirstOrderKineticSubstructure>(kinetic));
    beam_plugin = std::move(simulation);
  }
  ntcp_ = std::make_unique<ntcp::NtcpServer>(network_, Qualified(kNtcp),
                                             std::move(beam_plugin), clock_);
  NEES_RETURN_IF_ERROR(ntcp_->Start());
  ntcp_->set_tracer(options_.tracer);

  // Numerical rest-of-frame substructure (the simulation coordinator and
  // this model share the single Mini-MOST PC).
  auto numeric = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix k(1, 1);
  k(0, 0) = options_.numeric_stiffness_fraction * beam_stiffness;
  numeric->AddControlPoint(
      "frame", std::make_unique<structural::ElasticSubstructure>(k));
  auto sim_server = std::make_unique<ntcp::NtcpServer>(
      network_, Qualified(std::string(kNtcp) + ".sim"), std::move(numeric),
      clock_);
  NEES_RETURN_IF_ERROR(sim_server->Start());
  sim_server->set_tracer(options_.tracer);
  sim_server_ = std::move(sim_server);

  // Shared-fabric hosting: publish the transaction SDEs into the farm
  // container and advertise both endpoints under their namespaced names.
  if (options_.shared_container != nullptr) {
    NEES_RETURN_IF_ERROR(ntcp_->PublishTo(*options_.shared_container));
    NEES_RETURN_IF_ERROR(sim_server_->PublishTo(*options_.shared_container));
  }
  if (options_.shared_registry != nullptr) {
    options_.shared_registry->Register(
        {Qualified(kNtcp), ntcp_->endpoint(), "ntcp", "MiniMOST", 0},
        options_.registry_lease_micros);
    options_.shared_registry->Register(
        {Qualified(std::string(kNtcp) + ".sim"), sim_server_->endpoint(),
         "ntcp", "MiniMOST", 0},
        options_.registry_lease_micros);
  }

  coordinator_rpc_ = std::make_unique<net::RpcClient>(
      network_, Qualified("minimost.coordinator"));
  started_ = true;
  return util::OkStatus();
}

void MiniMostExperiment::Stop() {
  if (!started_) return;
  if (!options_.experiment_ns.empty()) {
    if (options_.shared_container != nullptr) {
      (void)options_.shared_container->DestroyTenant(options_.experiment_ns);
    }
    if (options_.shared_registry != nullptr) {
      (void)options_.shared_registry->UnregisterTenant(options_.experiment_ns);
    }
  }
  if (ntcp_) ntcp_->Stop();
  if (sim_server_) sim_server_->Stop();
  started_ = false;
}

psd::CoordinatorConfig MiniMostExperiment::MakeCoordinatorConfig(
    const std::string& run_id) const {
  const double k_total = MiniMostBeamStiffness(options_) *
                         (1.0 + options_.numeric_stiffness_fraction);
  psd::CoordinatorConfig config;
  config.run_id = run_id;
  config.mass =
      structural::Matrix::Identity(1) * options_.effective_mass_kg;
  const double omega = std::sqrt(k_total / options_.effective_mass_kg);
  config.damping = structural::Matrix::Identity(1) *
                   (2.0 * options_.damping_ratio * omega *
                    options_.effective_mass_kg);
  config.iota = {1.0};
  config.motion = motion_;
  config.sites = {
      {"beam", ResolveEndpoint(kNtcp), "beam-tip", {0}},
      {"frame", ResolveEndpoint(std::string(kNtcp) + ".sim"), "frame", {0}},
  };
  config.tracer = options_.tracer;
  return config;
}

std::string MiniMostExperiment::ResolveEndpoint(std::string_view base) const {
  const std::string qualified = Qualified(base);
  if (options_.shared_registry != nullptr) {
    if (auto entry = options_.shared_registry->LookupEntry(qualified)) {
      return entry->endpoint;
    }
  }
  return qualified;
}

util::Result<psd::RunReport> MiniMostExperiment::Run(
    const std::string& run_id) {
  NEES_RETURN_IF_ERROR(Start());
  // Run boundary, as in MostExperiment::Run (DESIGN.md decision 18).
  ntcp_->RetireTerminal();
  sim_server_->RetireTerminal();
  psd::SimulationCoordinator coordinator(MakeCoordinatorConfig(run_id),
                                         coordinator_rpc_.get(), clock_);
  return coordinator.Run();
}

ntcp::NtcpServerStats MiniMostExperiment::ServerStats() const {
  return ntcp_ ? ntcp_->stats() : ntcp::NtcpServerStats{};
}

std::int64_t MiniMostExperiment::stepper_steps() const {
  return stepper_ ? stepper_->total_steps_taken() : 0;
}

}  // namespace nees::most
