#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {
namespace {

std::string Fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, format, a, b, c);
  return buffer;
}

}  // namespace

std::vector<double> SdofCentralDifference(double mass, double damping,
                                          double stiffness, double dt,
                                          const std::vector<double>& accel) {
  std::vector<double> d;
  if (accel.empty()) return d;
  d.reserve(accel.size());
  const double m_dt2 = mass / (dt * dt);
  const double c_2dt = damping / (2.0 * dt);
  double d_prev = 0.0;
  double d_now = 0.0;
  d.push_back(d_now);
  for (std::size_t n = 0; n + 1 < accel.size(); ++n) {
    const double rhs = -mass * accel[n] - stiffness * d_now +
                       2.0 * m_dt2 * d_now - (m_dt2 - c_2dt) * d_prev;
    const double d_next = rhs / (m_dt2 + c_2dt);
    d_prev = d_now;
    d_now = d_next;
    d.push_back(d_now);
  }
  return d;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = std::fabs(a[i] - b[i]);
    if (std::isnan(diff)) return diff;  // a NaN anywhere fails the check
    worst = std::max(worst, diff);
  }
  return worst;
}

double PeakAbs(const std::vector<double>& v) {
  double peak = 0.0;
  for (double x : v) peak = std::max(peak, std::fabs(x));
  return peak;
}

std::string CheckMatchesRecurrence(const std::vector<double>& history,
                                   const std::vector<double>& reference,
                                   double relative_tolerance) {
  if (history.size() != reference.size()) {
    return Fmt("history has %.0f steps, recurrence %.0f",
               static_cast<double>(history.size()),
               static_cast<double>(reference.size()));
  }
  const double peak = PeakAbs(reference);
  const double diff = MaxAbsDiff(history, reference);
  if (peak <= 0.0 || !(diff <= relative_tolerance * peak)) {
    return Fmt("history differs from the SDOF recurrence by %.3g m "
               "(peak %.3g m, tolerance %.1g of peak)",
               diff, peak, relative_tolerance);
  }
  return "";
}

std::string CheckWithinRigError(const std::vector<double>& hybrid,
                                const std::vector<double>& reference,
                                double peak_fraction) {
  if (hybrid.size() != reference.size()) {
    return Fmt("hybrid history has %.0f steps, SDOF solve %.0f",
               static_cast<double>(hybrid.size()),
               static_cast<double>(reference.size()));
  }
  const double peak = PeakAbs(reference);
  const double diff = MaxAbsDiff(hybrid, reference);
  if (peak <= 0.0 || !(diff <= peak_fraction * peak)) {
    return Fmt("hybrid drift differs from the SDOF solve by %.3g m, "
               "%.2f%% of peak (allowed %.2f%%)",
               diff, 100.0 * diff / peak, 100.0 * peak_fraction);
  }
  return "";
}

std::string CheckViewerFrames(const std::vector<ViewerFrame>& frames,
                              const std::vector<double>& history,
                              double dt_seconds) {
  if (frames.size() != history.size()) {
    return Fmt("viewer received %.0f displacement frames for %.0f steps",
               static_cast<double>(frames.size()),
               static_cast<double>(history.size()));
  }
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const auto expected_time = static_cast<std::int64_t>(
        static_cast<double>(k) * dt_seconds * 1e6);
    if (frames[k].time_micros != expected_time) {
      return Fmt("viewer frame %.0f carries step time %.0f us, expected "
                 "%.0f (out of order or missing)",
                 static_cast<double>(k),
                 static_cast<double>(frames[k].time_micros),
                 static_cast<double>(expected_time));
    }
    if (std::memcmp(&frames[k].value, &history[k], sizeof(double)) != 0) {
      return Fmt("viewer frame %.0f shows %.17g m, history has %.17g m",
                 static_cast<double>(k), frames[k].value, history[k]);
    }
  }
  return "";
}

std::uint64_t HistoryDigest(double dt_seconds,
                            const std::vector<std::vector<double>>& history) {
  constexpr std::uint64_t kOffset = 14695981039346656037ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = kOffset;
  auto mix = [&h](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xff;
      h *= kPrime;
    }
  };
  auto mix_double = [&mix](double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    mix(bits);
  };
  mix_double(dt_seconds);
  mix(history.size());
  for (const std::vector<double>& step : history) {
    for (double v : step) mix_double(v);
  }
  return h;
}

std::string CheckWave(const WaveOutcome& wave,
                      const std::vector<std::uint64_t>& standalone_digests,
                      std::size_t baseline_services,
                      std::size_t baseline_registrations) {
  if (wave.completed != wave.admitted ||
      wave.digests.size() != standalone_digests.size()) {
    return Fmt("%.0f of %.0f sessions completed (%.0f expected)",
               static_cast<double>(wave.completed),
               static_cast<double>(wave.admitted),
               static_cast<double>(standalone_digests.size()));
  }
  for (std::size_t i = 0; i < wave.digests.size(); ++i) {
    if (wave.digests[i] != standalone_digests[i]) {
      return Fmt("tenant %.0f history digest differs from its standalone "
                 "run", static_cast<double>(i));
    }
  }
  if (wave.services_after_reap != baseline_services ||
      wave.registrations_after_reap != baseline_registrations) {
    return Fmt("after reap: %.0f services, %.0f registrations "
               "(baseline %.0f services)",
               static_cast<double>(wave.services_after_reap),
               static_cast<double>(wave.registrations_after_reap),
               static_cast<double>(baseline_services)) +
           Fmt(", baseline %.0f registrations",
               static_cast<double>(baseline_registrations));
  }
  return "";
}

std::string CheckTemplateMix(const std::map<int, std::size_t>& tally,
                             const std::map<int, std::size_t>& weights) {
  if (tally != weights) {
    std::string out = "block's TemplateForSeed tally differs from the campaign weights:";
    for (const auto& [shape, weight] : weights) {
      auto it = tally.find(shape);
      out += Fmt(" [template %.0f: %.0f seeds, weight %.0f]",
                 static_cast<double>(shape),
                 static_cast<double>(it == tally.end() ? 0 : it->second),
                 static_cast<double>(weight));
    }
    return out;
  }
  return "";
}

}  // namespace perfbench
