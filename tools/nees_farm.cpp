// nees_farm: run a multi-tenant experiment farm on one shared grid host.
//
//   nees_farm [--tenants N] [--mix MIX] [--workers W] [--steps S]
//             [--swarm P] [--swarm-shards K] [--lease-ms L] [-v]
//
//   --tenants N       concurrent experiment sessions to admit (default 20)
//   --mix MIX         template mix: mini | most | centrifuge | mixed
//                     (default mini; mixed = 8:1:1 mini/most/centrifuge)
//   --workers W       worker threads driving the sessions (default 8)
//   --steps S         PSD steps per session (piles for centrifuge; 0 = farm
//                     defaults)
//   --swarm P         after the farm wave, fan P scripted CHEF participants
//                     over the shared NSDS stream (default 0 = skip)
//   --swarm-shards K  swarm shard threads (default 8)
//   --lease-ms L      registry lease per tenant registration (default 0 =
//                     no expiry)
//   -v                per-session results
//
// All tenants share one network, one OGSI container, one registry, one
// NSDS server, and one CHEF server; every tenant's endpoints are
// namespaced ("t0042/ntcp.uiuc"). Lockdep builds (any non-Release
// configuration) end with the per-class lock contention table. The exit
// code is 0 when every admitted session completes (and the swarm, if any,
// reports no failures).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "farm/farm.h"
#include "net/endpoint.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/mutex.h"

using namespace nees;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tenants N] [--mix mini|most|centrifuge|mixed]\n"
               "          [--workers W] [--steps S] [--swarm P]\n"
               "          [--swarm-shards K] [--lease-ms L] [-v]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t tenants = 20;
  std::string mix = "mini";
  std::size_t workers = 8;
  std::size_t steps = 0;
  int swarm = 0;
  std::size_t swarm_shards = 8;
  std::int64_t lease_ms = 0;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--tenants") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      tenants = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--mix") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      mix = v;
    } else if (std::strcmp(arg, "--workers") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      workers = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--steps") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      steps = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--swarm") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      swarm = std::atoi(v);
    } else if (std::strcmp(arg, "--swarm-shards") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      swarm_shards = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--lease-ms") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      lease_ms = std::strtoll(v, nullptr, 10);
    } else if (std::strcmp(arg, "-v") == 0) {
      verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (mix != "mini" && mix != "most" && mix != "centrifuge" &&
      mix != "mixed") {
    return Usage(argv[0]);
  }

  net::Network network(net::DeliveryMode::kImmediate);
  util::Clock* clock = network.clock();

  farm::FarmOptions options;
  options.workers = workers;
  options.registry_lease_micros = lease_ms * 1000;
  farm::ExperimentFarm farm(&network, clock, options);
  if (util::Status started = farm.Start(); !started.ok()) {
    std::fprintf(stderr, "farm start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  for (std::size_t i = 0; i < tenants; ++i) {
    farm::SessionSpec spec;
    spec.steps = steps;
    if (mix == "mini") {
      spec.kind = farm::SessionKind::kMiniMost;
    } else if (mix == "most") {
      spec.kind = farm::SessionKind::kMost;
    } else if (mix == "centrifuge") {
      spec.kind = farm::SessionKind::kCentrifuge;
    } else {
      spec.kind = i % 10 == 8   ? farm::SessionKind::kMost
                  : i % 10 == 9 ? farm::SessionKind::kCentrifuge
                                : farm::SessionKind::kMiniMost;
    }
    (void)farm.Admit(spec);
  }

  const util::Result<farm::FarmReport> run = farm.RunAll();
  if (!run.ok()) {
    std::fprintf(stderr, "farm run failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const farm::FarmReport& report = *run;
  std::printf(
      "farm: %zu admitted, %zu completed, %zu failed in %.2fs "
      "(%.1f experiments/s)\n",
      report.admitted, report.completed, report.failed, report.wall_seconds,
      report.experiments_per_sec);
  std::printf(
      "fabric: %zu services / %zu registrations at peak, %zu / %zu after "
      "reap, %zu endpoint names interned\n",
      report.peak_services, report.peak_registrations,
      report.services_after_reap, report.registrations_after_reap,
      report.endpoints_interned);
  if (verbose) {
    for (const farm::SessionResult& session : report.sessions) {
      std::printf("  %s %-10s %s steps=%zu digest=%016llx %s\n",
                  session.tenant.c_str(),
                  std::string(farm::SessionKindName(session.kind)).c_str(),
                  session.ok ? "ok " : "FAIL", session.steps_completed,
                  static_cast<unsigned long long>(session.history_digest),
                  session.error.c_str());
    }
  }

  obs::MetricsRegistry metrics;
  net::EndpointTable::Instance().PublishGauges(metrics);

  bool ok = report.failed == 0;
  if (swarm > 0) {
    farm::SwarmOptions swarm_options;
    swarm_options.participants = swarm;
    swarm_options.shards = swarm_shards;
    const chef::SwarmReport swarm_report = farm::RunScaledSwarm(
        &network, farm::ExperimentFarm::kChef, swarm_options);
    std::printf("swarm: %d participants, %d chat posts, %d viewer reads, "
                "%d failures\n",
                swarm_report.participants, swarm_report.chat_posts,
                swarm_report.viewer_reads, swarm_report.failures);
    ok = ok && swarm_report.failures == 0;
  }
  if (util::lockdep::kEnabled) {
    std::printf("\n");
    util::lockdep::DumpContention(std::cout);
  }
  return ok ? 0 : 1;
}
