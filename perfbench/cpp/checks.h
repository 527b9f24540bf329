// Correctness checks of nees_perfbench, computed apart from the program:
// each takes plain data the workload read back from the library and
// returns an empty string when it holds, or what went wrong. The
// references (SDOF recurrences, digests) are written here from their
// definitions, not taken from src/. checks_test feeds each check a
// perturbed result and requires it to fail.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Single-degree-of-freedom central-difference recurrence of the
/// pseudo-dynamic method: d_0 = d_{-1} = 0 and, for n >= 0,
///   (m/dt^2 + c/2dt) d_{n+1} = -m a_n - k d_n + (2m/dt^2) d_n
///                              - (m/dt^2 - c/2dt) d_{n-1}.
/// Returns d_0 .. d_{N-1} for N ground-acceleration samples.
std::vector<double> SdofCentralDifference(double mass, double damping,
                                          double stiffness, double dt,
                                          const std::vector<double>& accel);

/// Largest |a_i - b_i| over the common prefix; +inf if sizes differ.
double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b);
double PeakAbs(const std::vector<double>& v);

/// wide-32: the coordinator's history equals the SDOF recurrence to
/// round-off (relative to the peak drift).
std::string CheckMatchesRecurrence(const std::vector<double>& history,
                                   const std::vector<double>& reference,
                                   double relative_tolerance = 1e-9);

/// most-paper: the hybrid story drift stays within rig error of the
/// all-numerical SDOF solve (fraction of the reference peak).
std::string CheckWithinRigError(const std::vector<double>& hybrid,
                                const std::vector<double>& reference,
                                double peak_fraction);

/// One displacement frame as the remote viewer received it.
struct ViewerFrame {
  std::int64_t time_micros = 0;
  double value = 0.0;
};

/// The viewer saw every step once, in order, with the history's value.
std::string CheckViewerFrames(const std::vector<ViewerFrame>& frames,
                              const std::vector<double>& history,
                              double dt_seconds);

/// FNV-1a over (dt, step count, every displacement double): the farm's
/// session digest, from its definition.
std::uint64_t HistoryDigest(double dt_seconds,
                            const std::vector<std::vector<double>>& history);

/// farm-100: every session completed with the standalone digest of its
/// seed, and the shared fabric returned to its baseline.
struct WaveOutcome {
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::vector<std::uint64_t> digests;  // per session, admission order
  std::size_t services_after_reap = 0;
  std::size_t registrations_after_reap = 0;
};
std::string CheckWave(const WaveOutcome& wave,
                      const std::vector<std::uint64_t>& standalone_digests,
                      std::size_t baseline_services,
                      std::size_t baseline_registrations);

/// fuzz-campaign: TemplateForSeed tallied over a block equals the
/// campaign's per-mille template weights. It guards the benchmark's block
/// selection only: the program sets a scenario's template from its input.
std::string CheckTemplateMix(const std::map<int, std::size_t>& tally,
                             const std::map<int, std::size_t>& weights);

}  // namespace perfbench
