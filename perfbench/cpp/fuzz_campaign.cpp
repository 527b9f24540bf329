// fuzz-campaign: fixed blocks of seeds in the campaign mix, run in-process
// on one thread with the configuration of `nees_fuzz --campaign`: exports
// off, RunFuzzCaseChecked on every 8th seed, RunFuzzCase otherwise. One
// operation is one seed; a round is one block of 1,000 seeds, and round r
// runs its own block (from --seed and r), so a run's median averages over
// several blocks.
//
// A block holds exactly the campaign's per-mille template weights (935
// mini, 20 standard, 44 centrifuge, 1 full-MOST): consecutive seeds from a
// derived start are taken in order until each template's quota is full.
// The full-MOST seed costs as much as the other 999 together, so its shape
// is pinned too: the first unchecked (seed % 8 != 0) full-MOST seed with 3
// sites, the middle of the template's 2-4. A plain run of 1,000 consecutive
// seeds carries a Poisson number of full-MOST seeds, each 2 s (3 sites) to
// 7 s (4 sites, checked), and that alone moved seeds/s by tens of percent
// between --seed values.
//
// The standard seeds are fixed: block r takes the first 20 standard seeds
// from 1 + DeriveSeed(0, 2000 + r) on, whatever --seed is. The run's tail
// (its 11th-slowest seed) is the 8th-slowest of its 60 standard seeds, and
// their cost spans 40x (3-32 sites, 8-24 steps, either engine, lossy links,
// checked or not): with seed-derived standard seeds the tail read 39-72 ms
// between --seed 1-5, and still 39-62 ms with one seed from each of 20
// (sites, steps) bins. The other 980 seeds of a block follow --seed.
#include <map>
#include <string>

#include "checks.h"
#include "most/fuzz.h"
#include "util/frame_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace nees;

constexpr double kBlocksPerSecond = 1.0 / 4.7;  // a block takes ~4.7 s
constexpr std::size_t kFullMostSites = 3;

const std::map<int, std::size_t>& Quotas() {
  static const std::map<int, std::size_t> kQuotas = {
      {static_cast<int>(most::FuzzTemplate::kMini), 935},
      {static_cast<int>(most::FuzzTemplate::kStandard), 20},
      {static_cast<int>(most::FuzzTemplate::kCentrifuge), 44},
      {static_cast<int>(most::FuzzTemplate::kFullMost), 1},
  };
  return kQuotas;
}

/// Appends consecutive seeds from `first` on while their template's quota
/// is open: `standard` selects the standard template alone, or every other.
void TakeSeeds(std::uint64_t first, bool standard, std::vector<std::uint64_t>* block) {
  std::map<int, std::size_t> taken;
  std::size_t needed = 0;
  for (const auto& [shape, quota] : Quotas()) {
    if ((shape == static_cast<int>(most::FuzzTemplate::kStandard)) == standard) {
      needed += quota;
    }
  }
  for (std::uint64_t s = first; needed > 0; ++s) {
    const most::FuzzTemplate t = most::TemplateForSeed(s);
    if ((t == most::FuzzTemplate::kStandard) != standard) continue;
    if (t == most::FuzzTemplate::kFullMost &&
        (s % 8 == 0 || most::GenerateScenario(s, t).sites != kFullMostSites)) {
      continue;
    }
    const int shape = static_cast<int>(t);
    if (taken[shape] < Quotas().at(shape)) {
      ++taken[shape];
      block->push_back(s);
      --needed;
    }
  }
}

std::vector<std::uint64_t> SelectBlock(std::uint64_t seed, std::size_t round) {
  std::vector<std::uint64_t> others, standard;
  TakeSeeds(1 + DeriveSeed(seed, 1000 + round) % 1'000'000'000ULL, false, &others);
  TakeSeeds(1 + DeriveSeed(0, 2000 + round) % 1'000'000'000ULL, true, &standard);
  // One standard seed ahead of every 49 others, as a campaign spreads them.
  const std::size_t every = others.size() / standard.size();
  std::vector<std::uint64_t> block;
  for (std::size_t i = 0; i < others.size(); ++i) {
    if (i % every == 0 && i / every < standard.size()) {
      block.push_back(standard[i / every]);
    }
    block.push_back(others[i]);
  }
  return block;
}

struct SeedRun {
  double micros = 0.0;
  std::uint64_t events = 0;  // both runs of a checked seed
  net::LinkMetrics net;
  std::string failure;
};

SeedRun RunSeed(std::uint64_t seed, const most::FuzzRunOptions& options) {
  SeedRun run;
  const double t0 = NowMicros();
  const most::FuzzTemplate shape = most::TemplateForSeed(seed);
  const most::FuzzScenario scenario = most::GenerateScenario(seed, shape);
  const bool checked = seed % 8 == 0;
  const most::FuzzOutcome outcome =
      checked ? most::RunFuzzCaseChecked(scenario, most::kAllFaults, options)
              : most::RunFuzzCase(scenario, most::kAllFaults, options);
  run.micros = NowMicros() - t0;
  run.events = (checked ? 2 : 1) * outcome.events_processed;
  run.net = outcome.net_totals;
  if (!outcome.ok() || !outcome.run_completed) {
    run.failure = "seed " + std::to_string(seed) + ": " +
                  (outcome.failures.empty() ? std::string("did not complete")
                                            : outcome.failures.front());
  }
  return run;
}

}  // namespace

WorkloadResult RunFuzzCampaign(const Args& args, SpanLog& spans) {
  WorkloadResult out;
  Measurement& m = out.measurement;
  most::FuzzRunOptions options;
  options.export_artifacts = false;

  // --- set-up: block selection + warm-up on the block's first seeds ------
  std::vector<std::uint64_t> block;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double t0 = NowSeconds();
    block = SelectBlock(args.seed, 0);
    for (std::size_t i = 0; i < 64; ++i) {
      const SeedRun warm = RunSeed(block[i], options);
      if (!warm.failure.empty()) {
        out.check_failures.push_back("warm-up: " + warm.failure);
        return out;
      }
    }
    m.setup_seconds.push_back(NowSeconds() - t0);
  }

  // --- timed rounds, one block each --------------------------------------
  const std::size_t rounds = RoundsFor(args, kBlocksPerSecond);
  std::uint64_t events = 0, delivered = 0, bytes = 0;
  std::vector<std::uint64_t> allocs_per_round;
  const std::uint64_t frames0 = util::FramePool::Instance().stats().minted;
  std::size_t current = 0;  // the block held in `block`
  auto run_round = [&](std::size_t round, bool traced) {
    if (round != current) block = SelectBlock(args.seed, current = round);
    std::map<int, std::size_t> tally;
    for (std::uint64_t s : block) ++tally[static_cast<int>(most::TemplateForSeed(s))];
    const std::uint64_t allocs0 = AllocCount();
    const RegionTimer timer;
    for (std::uint64_t seed : block) {
      const SeedRun run = RunSeed(seed, options);
      ++out.attempted;
      if (!run.failure.empty()) {
        ++out.failed;
        out.check_failures.push_back(run.failure);
      }
      if (traced) {
        spans.Record("fuzz.seed", NowMicros() - run.micros, NowMicros());
        continue;
      }
      m.latencies_us.push_back(run.micros);
      events += run.events;
      delivered += run.net.delivered;
      bytes += run.net.bytes_delivered;
    }
    if (!traced) {
      m.AddRound(static_cast<double>(block.size()), timer.wall(), timer.cpu());
      allocs_per_round.push_back(AllocCount() - allocs0);
    }
    const std::string mix = CheckTemplateMix(tally, Quotas());
    if (!mix.empty()) out.check_failures.push_back(mix);
    return timer.wall();
  };
  for (std::size_t k = 0; k < UntracedRounds(args, rounds); ++k) run_round(k, false);
  // The tail is taken over all of the run's seeds (p99.67 at 3,000), not
  // per block: its 10 slowest are the blocks' full-MOST seeds and the
  // slowest standard seeds, and one block's 20 standard seeds are too few
  // to steady it.
  m.tail_pct = TailPercentile(m.latencies_us.size());
  const std::uint64_t frames1 = util::FramePool::Instance().stats().minted;

  if (args.trace) {
    const double ops = m.ops();
    MetricMap& l = out.layers;
    l["net.msgs_per_op"].value = static_cast<double>(delivered) / ops;
    l["net.wire_bytes_per_op"].value = static_cast<double>(bytes) / ops;
    l["util.frames_minted_per_op"].value = static_cast<double>(frames1 - frames0) / ops;
    std::uint64_t allocs = 0;
    std::printf("fuzz-campaign allocations per block:");
    for (std::uint64_t a : allocs_per_round) {
      allocs += a;
      std::printf(" %llu", static_cast<unsigned long long>(a));
    }
    std::printf("\n");
    l["util.allocs_per_op"].value = static_cast<double>(allocs) / ops;
    l["fuzz.events_per_op"].value = static_cast<double>(events) / ops;
    l["fuzz.ns_per_event"].value = m.wall_seconds() * 1e9 / static_cast<double>(events);

    // Oracle cost: each of the last block's first 200 seeds (its full-MOST
    // seed left out, so one seed does not dominate) run plainly with oracles
    // 2-3 on and off back to back, in alternating order, so a slow stretch
    // of the host falls on both halves of a pair.
    double difference = 0.0;
    std::size_t pairs = 0;
    for (std::uint64_t s : block) {
      if (pairs == 200) break;
      if (most::TemplateForSeed(s) == most::FuzzTemplate::kFullMost) continue;
      const most::FuzzScenario scenario =
          most::GenerateScenario(s, most::TemplateForSeed(s));
      for (bool oracles : {pairs % 2 == 0, pairs % 2 != 0}) {
        most::FuzzRunOptions o = options;
        o.run_oracles = oracles;
        const double t0 = NowMicros();
        (void)most::RunFuzzCase(scenario, most::kAllFaults, o);
        difference += (oracles ? 1.0 : -1.0) * (NowMicros() - t0);
      }
      ++pairs;
    }
    l["check.oracle_us_per_op"].value = difference / static_cast<double>(pairs);

    // Traced phase: the untraced phase's blocks again, with a benchmark
    // span around every seed.
    const std::size_t untraced = UntracedRounds(args, rounds);
    double traced_wall = 0.0;
    std::uint64_t traced_seeds = 0;
    for (std::size_t k = untraced; k < rounds; ++k) {
      traced_wall += run_round(k % untraced, true);
      traced_seeds += block.size();
    }
    l["obs.trace_overhead_pct"].value = OverheadPct(
        ops / m.wall_seconds(), static_cast<double>(traced_seeds) / traced_wall);
  }
  out.correct = out.check_failures.empty();
  return out;
}

}  // namespace perfbench
