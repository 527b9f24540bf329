// E15 — multi-tenant farm throughput. One process hosts the shared grid
// fabric (network, OGSI container, registry, NSDS, CHEF) and runs waves of
// namespaced experiment sessions over it:
//
//   * tenancy sweep — 1 / 10 / 50 / 100 concurrent kinetic-sim Mini-MOST
//     tenants, experiments/sec per level (admit -> place -> run -> reap,
//     the reap verified back to the host baseline each wave);
//   * worker scaling — the 100-tenant wave on 1 / 2 / 4 workers, each on
//     one long-lived host (a warm-up wave, then the median of
//     kScalingWaves waves): the shared fabric should let more workers
//     finish a wave sooner, never later;
//   * mixed wave — the nees_farm "mixed" template mix (mini-dominated with
//     full MOST and centrifuge tenants riding along);
//   * participant fan-out — a 10,000-scripted-participant CHEF swarm over
//     one shared NSDS-fed viewer store, participants/sec.
//
// Emits BENCH_farm.json. `--quick [baseline.json]` re-measures the
// 100-tenant level (best of two) and fails if it lands > 20% below the
// committed experiments_per_sec_100 (the E13/E14 quick-gate pattern).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "farm/farm.h"
#include "net/endpoint.h"
#include "net/network.h"
#include "util/clock.h"
#include "util/strings.h"

using namespace nees;

namespace {

struct LevelResult {
  std::size_t tenants = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double wall_seconds = 0.0;
  double experiments_per_sec = 0.0;
  std::size_t peak_services = 0;
  std::size_t peak_registrations = 0;
  std::size_t services_after_reap = 0;
  std::size_t endpoints_interned = 0;
};

constexpr std::size_t kSessionSteps = 80;
constexpr std::size_t kWorkers = 8;
constexpr int kScalingWaves = 7;

LevelResult RunMiniWave(std::size_t tenants) {
  net::Network network(net::DeliveryMode::kImmediate);
  farm::FarmOptions options;
  options.workers = kWorkers;
  options.mini_steps = kSessionSteps;
  farm::ExperimentFarm farm(&network, network.clock(), options);
  LevelResult level;
  level.tenants = tenants;
  for (std::size_t i = 0; i < tenants; ++i) {
    (void)farm.Admit({farm::SessionKind::kMiniMost, 0, 0});
  }
  const util::Result<farm::FarmReport> run = farm.RunAll();
  if (!run.ok()) {
    level.failed = tenants;
    return level;
  }
  level.completed = run->completed;
  level.failed = run->failed;
  level.wall_seconds = run->wall_seconds;
  level.experiments_per_sec = run->experiments_per_sec;
  level.peak_services = run->peak_services;
  level.peak_registrations = run->peak_registrations;
  level.services_after_reap = run->services_after_reap;
  level.endpoints_interned = run->endpoints_interned;
  return level;
}

/// Median experiments/sec of kScalingWaves `tenants`-tenant waves on one
/// long-lived host with `workers` workers, after one warm-up wave. Sets
/// *ok to false if any session fails.
double MedianWaveRate(std::size_t tenants, std::size_t workers, bool* ok) {
  net::Network network(net::DeliveryMode::kImmediate);
  farm::FarmOptions options;
  options.workers = workers;
  options.mini_steps = kSessionSteps;
  farm::ExperimentFarm farm(&network, network.clock(), options);
  std::vector<double> rates;
  for (int wave = 0; wave <= kScalingWaves; ++wave) {
    for (std::size_t i = 0; i < tenants; ++i) {
      (void)farm.Admit({farm::SessionKind::kMiniMost, 0, 0});
    }
    const util::Result<farm::FarmReport> run = farm.RunAll();
    if (!run.ok() || run->failed != 0) {
      *ok = false;
      return 0.0;
    }
    if (wave > 0) rates.push_back(run->experiments_per_sec);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

int RunQuickGate(const char* baseline_path) {
  constexpr std::size_t kGateTenants = 100;
  // Best of two: one short wave can read low on a loaded box, which would
  // spuriously trip the 20% floor.
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const LevelResult sample = RunMiniWave(kGateTenants);
    if (sample.failed != 0) {
      std::fprintf(stderr, "quick gate: %zu failed sessions in the sample\n",
                   sample.failed);
      return 1;
    }
    best = std::max(best, sample.experiments_per_sec);
  }
  std::FILE* f = std::fopen(baseline_path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "quick gate: cannot open baseline %s\n",
                 baseline_path);
    return 1;
  }
  double baseline = 0.0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const char* key = std::strstr(line, "\"experiments_per_sec_100\": ");
    if (key != nullptr &&
        std::sscanf(key, "\"experiments_per_sec_100\": %lf", &baseline) == 1) {
      break;
    }
  }
  std::fclose(f);
  if (baseline <= 0.0) {
    std::fprintf(stderr, "quick gate: no experiments_per_sec_100 baseline "
                 "in %s\n", baseline_path);
    return 1;
  }
  const double floor = 0.8 * baseline;
  std::printf(
      "quick gate: 100-tenant wave %.0f experiments/sec "
      "(baseline %.0f, floor %.0f)\n",
      best, baseline, floor);
  if (best < floor) {
    std::fprintf(stderr, "FAIL: farm experiments/sec regressed > 20%% below "
                 "the committed baseline\n");
    return 1;
  }
  std::printf("quick gate OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--quick") == 0) {
    return RunQuickGate(argc > 2 ? argv[2] : "BENCH_farm.json");
  }

  // --- tenancy sweep ---------------------------------------------------------
  const std::vector<std::size_t> levels = {1, 10, 50, 100};
  std::vector<LevelResult> results;
  bool ok = true;
  std::printf("E15: multi-tenant farm, %zu-step kinetic Mini-MOST sessions, "
              "%zu workers\n", kSessionSteps, kWorkers);
  for (const std::size_t tenants : levels) {
    const LevelResult level = RunMiniWave(tenants);
    ok = ok && level.failed == 0;
    std::printf(
        "     %4zu tenants: %zu completed, %zu failed, %.3fs wall -> "
        "%7.1f experiments/sec (%zu services / %zu registrations at peak, "
        "%zu after reap)\n",
        level.tenants, level.completed, level.failed, level.wall_seconds,
        level.experiments_per_sec, level.peak_services,
        level.peak_registrations, level.services_after_reap);
    results.push_back(level);
  }

  // --- worker scaling --------------------------------------------------------
  constexpr std::size_t kScalingTenants = 100;
  const std::vector<std::size_t> worker_counts = {1, 2, 4};
  std::vector<double> scaling;
  std::printf("     %zu tenants by worker count (median of %d waves on a "
              "warm host):\n", kScalingTenants, kScalingWaves);
  for (const std::size_t workers : worker_counts) {
    scaling.push_back(MedianWaveRate(kScalingTenants, workers, &ok));
    std::printf("     %4zu workers: %7.1f experiments/sec\n", workers,
                scaling.back());
  }

  // --- mixed wave ------------------------------------------------------------
  LevelResult mixed;
  {
    net::Network network(net::DeliveryMode::kImmediate);
    farm::FarmOptions options;
    options.workers = kWorkers;
    options.mini_steps = kSessionSteps;
    options.most_steps = 200;
    farm::ExperimentFarm farm(&network, network.clock(), options);
    constexpr std::size_t kMixedTenants = 50;
    for (std::size_t i = 0; i < kMixedTenants; ++i) {
      farm::SessionSpec spec;
      spec.kind = i % 10 == 8   ? farm::SessionKind::kMost
                  : i % 10 == 9 ? farm::SessionKind::kCentrifuge
                                : farm::SessionKind::kMiniMost;
      (void)farm.Admit(spec);
    }
    const util::Result<farm::FarmReport> run = farm.RunAll();
    if (run.ok()) {
      mixed.tenants = run->admitted;
      mixed.completed = run->completed;
      mixed.failed = run->failed;
      mixed.wall_seconds = run->wall_seconds;
      mixed.experiments_per_sec = run->experiments_per_sec;
      mixed.peak_services = run->peak_services;
    } else {
      mixed.tenants = kMixedTenants;
      mixed.failed = kMixedTenants;
    }
    ok = ok && mixed.failed == 0;
    std::printf(
        "     mixed %zu (8:1:1 mini/most/centrifuge): %zu completed, "
        "%zu failed, %.3fs -> %.1f experiments/sec\n",
        mixed.tenants, mixed.completed, mixed.failed, mixed.wall_seconds,
        mixed.experiments_per_sec);
  }

  // --- participant fan-out ---------------------------------------------------
  constexpr int kSwarmParticipants = 10000;
  chef::SwarmReport swarm;
  double swarm_seconds = 0.0;
  {
    net::Network network(net::DeliveryMode::kImmediate);
    farm::FarmOptions options;
    options.workers = kWorkers;
    options.mini_steps = kSessionSteps;
    farm::ExperimentFarm farm(&network, network.clock(), options);
    // A small tenant wave first so the shared viewer store has live
    // channels for the swarm to read.
    for (std::size_t i = 0; i < 4; ++i) {
      (void)farm.Admit({farm::SessionKind::kMiniMost, 0, 0});
    }
    const util::Result<farm::FarmReport> seeded = farm.RunAll();
    ok = ok && seeded.ok() && seeded->failed == 0;

    farm::SwarmOptions swarm_options;
    swarm_options.participants = kSwarmParticipants;
    swarm_options.shards = kWorkers;
    const util::Stopwatch watch;
    swarm = farm::RunScaledSwarm(&network, farm::ExperimentFarm::kChef,
                                 swarm_options);
    swarm_seconds = watch.ElapsedSeconds();
    ok = ok && swarm.failures == 0;
  }
  const double participants_per_sec =
      swarm_seconds > 0.0
          ? static_cast<double>(swarm.participants) / swarm_seconds
          : 0.0;
  std::printf(
      "     swarm: %d participants over the shared stream in %.3fs -> "
      "%.0f participants/sec (%d chat posts, %d viewer reads, "
      "%d failures)\n",
      swarm.participants, swarm_seconds, participants_per_sec,
      swarm.chat_posts, swarm.viewer_reads, swarm.failures);

  // --- JSON ------------------------------------------------------------------
  std::string json = "{\n  \"experiment\": \"E15\",\n  \"levels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LevelResult& level = results[i];
    json += util::Format(
        "    {\"tenants\": %zu, \"completed\": %zu, \"failed\": %zu, "
        "\"wall_seconds\": %.4f, \"experiments_per_sec\": %.1f, "
        "\"peak_services\": %zu, \"peak_registrations\": %zu, "
        "\"services_after_reap\": %zu, \"endpoints_interned\": %zu}%s\n",
        level.tenants, level.completed, level.failed, level.wall_seconds,
        level.experiments_per_sec, level.peak_services,
        level.peak_registrations, level.services_after_reap,
        level.endpoints_interned, i + 1 == results.size() ? "" : ",");
  }
  json += "  ],\n";
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    json += util::Format("  \"experiments_per_sec_100_%zuw\": %.1f,\n",
                         worker_counts[i], scaling[i]);
  }
  json += util::Format(
      "  \"experiments_per_sec_100\": %.1f,\n"
      "  \"mixed_tenants\": %zu,\n  \"mixed_completed\": %zu,\n"
      "  \"mixed_experiments_per_sec\": %.1f,\n"
      "  \"swarm_participants\": %d,\n  \"swarm_wall_seconds\": %.4f,\n"
      "  \"swarm_participants_per_sec\": %.1f,\n"
      "  \"swarm_chat_posts\": %d,\n  \"swarm_viewer_reads\": %d,\n"
      "  \"swarm_failures\": %d\n}\n",
      results.empty() ? 0.0 : results.back().experiments_per_sec,
      mixed.tenants, mixed.completed, mixed.experiments_per_sec,
      swarm.participants, swarm_seconds, participants_per_sec,
      swarm.chat_posts, swarm.viewer_reads, swarm.failures);

  std::FILE* f = std::fopen("BENCH_farm.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_farm.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_farm.json (%zu tenancy levels + worker scaling + "
              "mixed + swarm)\n",
              results.size());

  std::printf(
      "shape: one container table, one registry, one stream server carry "
      "every tenant;\nnamespaced endpoints keep the per-experiment name "
      "universes disjoint, so tenancy\nscales until the worker pool — not "
      "the fabric — saturates.\n");
  return ok ? 0 : 1;
}
