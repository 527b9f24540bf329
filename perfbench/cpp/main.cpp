// nees_perfbench: the repository's end-to-end benchmark.
//
//   nees_perfbench --workload <most-paper|wide-32|farm-100|fuzz-campaign>
//                  --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with the benchmark's spans (and the library's own tracer options) on,
// prints the per-layer ledger, writes the spans to DIR, and reports the
// per-layer metrics. The last stdout line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "layers.h"
#include "net/endpoint.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t lane) {
  std::uint64_t z = seed ^ (lane * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload most-paper|wide-32|farm-100|fuzz-campaign"
               " --seed N --seconds S --trace 0|1 [--workdir DIR]\n",
               argv0);
  return 2;
}

/// Workload-independent layer microbenchmarks, then the ledger print.
void FinishLedger(const Args& args, WorkloadResult& result, SpanLog& spans) {
  MetricMap& l = result.layers;
  l["net.codec_ns_per_frame"].value = CodecNsPerFrame(spans);
  l["net.rpc_rtt_us"].value = RpcRoundTripUs(spans);
  l["ntcp.txn_us"].value = NtcpTransactionUs(spans);
  l["wal.append_sync_us"].value = WalAppendSyncUs(spans);
  if (l.count("net.endpoints_interned") == 0) {
    l["net.endpoints_interned"].value =
        static_cast<double>(nees::net::EndpointTable::Instance().size());
  }
  // The structural layer on the paper's SDOF (the most-paper inputs).
  const MostSdof sdof = MostPaperSdof(args.seed);
  l["structural.integrate_us_per_step"].value = IntegrateUsPerStep(
      sdof.mass, sdof.damping, sdof.stiffness, sdof.dt, sdof.accel, spans);

  std::printf("\nper-layer ledger (%s, seed %llu)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  for (const auto& [name, unit] : LayerCatalog()) {
    auto it = l.find(name);
    if (it == l.end()) {
      l[name] = {0.0, unit};
      std::printf("  %-34s %14s %s\n", name.c_str(), "-", unit.c_str());
    } else {
      it->second.unit = unit;
      std::printf("  %-34s %14.4f %s\n", name.c_str(), it->second.value,
                  unit.c_str());
    }
  }
  const std::string path = args.workdir + "/spans-" + args.workload + ".jsonl";
  if (spans.WriteJsonLines(path)) {
    std::printf("spans: %llu recorded, %zu written to %s\n",
                static_cast<unsigned long long>(spans.total()),
                spans.stored(), path.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || (argc - 1) % 2 != 0 || !(args.seconds > 0.0)) {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  if (args.trace) EnableAllocCounting();

  SpanLog spans;
  WorkloadResult result;
  if (args.workload == "wide-32") {
    result = RunWide32(args, spans);
  } else if (args.workload == "most-paper") {
    result = RunMostPaper(args, spans);
  } else if (args.workload == "farm-100") {
    result = RunFarm100(args, spans);
  } else if (args.workload == "fuzz-campaign") {
    result = RunFuzzCampaign(args, spans);
  } else {
    return Usage(argv[0]);
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "%s: no operation was attempted\n",
                 args.workload.c_str());
    return 1;
  }

  MetricMap metrics;
  if (args.trace) {
    FinishLedger(args, result, spans);
    metrics = result.layers;
  } else {
    metrics = EndToEnd(result.measurement);
    const Measurement& m = result.measurement;
    std::printf("%s: %.0f ops in %zu rounds, %.2f s timed, %zu latency "
                "samples, tail = p%g\nops/s per round:",
                args.workload.c_str(), m.ops(), m.rounds.size(),
                m.wall_seconds(), m.latencies_us.size(), m.tail_pct);
    for (const RoundSample& r : m.rounds) {
      std::printf(" %.0f", r.ops / r.wall_seconds);
    }
    std::printf("\ntail us per round:");
    for (const RoundSample& r : m.rounds) {
      if (r.tail_us > 0.0) std::printf(" %.0f", r.tail_us);
    }
    std::printf("\nset-up seconds:");
    for (double s : m.setup_seconds) std::printf(" %.4f", s);
    std::printf("\n");
  }
  std::printf("%s\n", ResultJson(result, metrics).c_str());
  std::fflush(stdout);
  return 0;
}
