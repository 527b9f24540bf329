// The four workloads of nees_perfbench. Each sets up its deployment
// several times (set-up time is the median), measures whole rounds of
// operations for the requested time, checks the program's outputs, and in
// a traced run fills its part of the per-layer ledger. README.md gives the
// make-up of each workload's inputs and why it was chosen.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 5;

/// Independent input streams from one --seed (splitmix64 of seed ^ lane).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t lane);

WorkloadResult RunWide32(const Args& args, SpanLog& spans);
WorkloadResult RunMostPaper(const Args& args, SpanLog& spans);
WorkloadResult RunFarm100(const Args& args, SpanLog& spans);
WorkloadResult RunFuzzCampaign(const Args& args, SpanLog& spans);

/// The most-paper experiment collapsed to its lateral story DOF: story
/// mass, damping 2*zeta*omega*m, total stiffness of the three
/// substructures, and the experiment's ground motion.
struct MostSdof {
  double mass = 0.0;
  double damping = 0.0;
  double stiffness = 0.0;
  double dt = 0.0;
  std::vector<double> accel;
};
MostSdof MostPaperSdof(std::uint64_t seed);

/// Rounds per run. The count is fixed by --seconds through a round rate
/// measured on the reference host (README), never by the clock: every run
/// of one --seconds does the same work, so counts, failure shares and peak
/// RSS (which grows with work on most-paper and farm-100) compare exactly.
inline std::size_t RoundsFor(const Args& args, double rounds_per_second) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(rounds_per_second * args.seconds)));
}
/// A traced run measures its first half of the rounds untraced (counts and
/// the overhead baseline) and the rest with every trace hook on.
inline std::size_t UntracedRounds(const Args& args, std::size_t rounds) {
  return args.trace ? rounds / 2 : rounds;
}

/// The highest percentile with at least 10 of `samples` beyond it, or the
/// median below 40 samples, where no percentile would be a tail.
inline double TailPercentile(std::size_t samples) {
  return samples < 40 ? 50.0
                      : 100.0 * (1.0 - 10.0 / static_cast<double>(samples));
}

/// Ratio a/b - 1 in percent (0 when b is 0).
inline double OverheadPct(double untraced_ops_per_s, double traced_ops_per_s) {
  return traced_ops_per_s > 0.0
             ? 100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0)
             : 0.0;
}

}  // namespace perfbench
