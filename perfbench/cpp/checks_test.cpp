// Test of the benchmark's correctness checks: each check must accept a
// correct result and reject a perturbed one. Run after building:
//
//   .bench_build/perfbench/checks_test
//
// Exits 0 when every case behaves, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "farm/farm.h"
#include "most/mini_most.h"
#include "net/network.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}
void ExpectPass(const std::string& verdict, const std::string& what) {
  Expect(verdict.empty(), what + (verdict.empty() ? "" : ": " + verdict));
}
void ExpectReject(const std::string& verdict, const std::string& what) {
  Expect(!verdict.empty(), what + " is rejected");
}

std::vector<double> Quake(std::size_t n) {
  std::vector<double> accel(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 0.02 * static_cast<double>(i);
    accel[i] = 3.0 * std::sin(7.0 * t) * std::exp(-0.3 * t);
  }
  return accel;
}

void TestRecurrence() {
  // A constant ground acceleration settles at the static drift -m a / k.
  const std::vector<double> constant(4000, 1.0);
  const std::vector<double> d =
      SdofCentralDifference(5e4, 4e5, 32e6, 0.02, constant);
  Expect(std::fabs(d.back() + 5e4 / 32e6) < 1e-9,
         "SDOF recurrence settles at the static drift");

  const std::vector<double> reference =
      SdofCentralDifference(5e4, 1e4, 32e6, 0.02, Quake(1501));
  ExpectPass(CheckMatchesRecurrence(reference, reference),
             "wide-32 check accepts the recurrence itself");
  std::vector<double> bumped = reference;
  bumped[700] += 1e-6 * PeakAbs(reference);
  ExpectReject(CheckMatchesRecurrence(bumped, reference),
               "wide-32 history off by 1e-6 of peak at one step");
  std::vector<double> short_history(reference.begin(), reference.end() - 1);
  ExpectReject(CheckMatchesRecurrence(short_history, reference),
               "wide-32 history one step short");
  std::vector<double> nan_history = reference;
  nan_history[3] = std::nan("");
  ExpectReject(CheckMatchesRecurrence(nan_history, reference),
               "wide-32 history with a NaN");

  std::vector<double> rig = reference;
  for (double& x : rig) x *= 1.006;  // the 0.6% rig error measured today
  ExpectPass(CheckWithinRigError(rig, reference, 0.02),
             "most-paper check accepts 0.6% rig error");
  for (double& x : rig) x *= 1.05;
  ExpectReject(CheckWithinRigError(rig, reference, 0.02),
               "most-paper drift 5% off the SDOF solve");
}

void TestViewer() {
  const std::vector<double> history = {0.0, 0.001, 0.003, -0.002};
  std::vector<ViewerFrame> frames;
  for (std::size_t k = 0; k < history.size(); ++k) {
    frames.push_back({static_cast<std::int64_t>(k * 20'000), history[k]});
  }
  ExpectPass(CheckViewerFrames(frames, history, 0.02),
             "viewer check accepts every step in order");
  std::vector<ViewerFrame> missing = frames;
  missing.erase(missing.begin() + 2);
  ExpectReject(CheckViewerFrames(missing, history, 0.02),
               "viewer missing one frame");
  std::vector<ViewerFrame> swapped = frames;
  std::swap(swapped[1], swapped[2]);
  ExpectReject(CheckViewerFrames(swapped, history, 0.02),
               "viewer frames out of order");
  std::vector<ViewerFrame> altered = frames;
  altered[3].value = std::nextafter(altered[3].value, 1.0);
  ExpectReject(CheckViewerFrames(altered, history, 0.02),
               "viewer frame one ulp off the history");
}

void TestFarm() {
  // The digest written here from its definition equals the farm's own
  // digest of the same Mini-MOST seed.
  constexpr std::uint64_t kSeed = 12345;
  std::uint64_t standalone = 0;
  {
    nees::net::Network network(nees::net::DeliveryMode::kImmediate);
    nees::most::MiniMostOptions options;
    options.steps = 80;
    options.seed = kSeed;
    options.real_hardware = false;
    nees::most::MiniMostExperiment experiment(&network, network.clock(), options);
    auto report = experiment.Run("standalone");
    Expect(report.ok() && report->completed, "standalone Mini-MOST completes");
    if (report.ok()) {
      standalone = HistoryDigest(report->history.dt_seconds,
                                 report->history.displacement);
    }
  }
  nees::net::Network network(nees::net::DeliveryMode::kImmediate);
  nees::farm::FarmOptions options;
  options.workers = 1;
  options.mini_steps = 80;
  nees::farm::ExperimentFarm farm(&network, network.clock(), options);
  (void)farm.Admit({nees::farm::SessionKind::kMiniMost, 0, kSeed});
  auto report = farm.RunAll();
  Expect(report.ok() && report->sessions.size() == 1 &&
             report->sessions[0].history_digest == standalone,
         "benchmark digest equals the farm's digest of the same seed");

  WaveOutcome wave;
  wave.admitted = wave.completed = 2;
  wave.digests = {11, 22};
  wave.services_after_reap = 1;
  wave.registrations_after_reap = 2;
  ExpectPass(CheckWave(wave, {11, 22}, 1, 2), "farm check accepts a clean wave");
  WaveOutcome bad = wave;
  bad.digests[1] = 23;
  ExpectReject(CheckWave(bad, {11, 22}, 1, 2), "farm tenant with another digest");
  bad = wave;
  bad.completed = 1;
  ExpectReject(CheckWave(bad, {11, 22}, 1, 2), "farm wave with a failed session");
  bad = wave;
  bad.services_after_reap = 2;
  ExpectReject(CheckWave(bad, {11, 22}, 1, 2), "farm fabric above baseline after reap");
  bad = wave;
  bad.registrations_after_reap = 3;
  ExpectReject(CheckWave(bad, {11, 22}, 1, 2), "farm registry above baseline after reap");
}

void TestTemplateMix() {
  const std::map<int, std::size_t> weights = {{0, 935}, {1, 20}, {2, 1}, {3, 44}};
  ExpectPass(CheckTemplateMix(weights, weights), "fuzz mix check accepts the campaign weights");
  std::map<int, std::size_t> tally = weights;
  --tally[0];
  ++tally[1];
  ExpectReject(CheckTemplateMix(tally, weights), "fuzz block with a standard seed too many");
  tally = weights;
  tally.erase(2);
  ExpectReject(CheckTemplateMix(tally, weights), "fuzz block missing its full-MOST seed");
}

}  // namespace

int main() {
  TestRecurrence();
  TestViewer();
  TestFarm();
  TestTemplateMix();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
