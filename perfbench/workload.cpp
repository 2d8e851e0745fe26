#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace hs = hetsched;
using hs::analyzer::StrategyKind;
using hs::apps::PaperApp;

namespace {

constexpr PaperApp kApps[] = {
    PaperApp::kMatrixMul, PaperApp::kBlackScholes, PaperApp::kNbody,
    PaperApp::kHotSpot,   PaperApp::kStreamSeq,    PaperApp::kStreamLoop,
};
constexpr StrategyKind kPaperStrategies[] = {
    StrategyKind::kSPSingle, StrategyKind::kSPUnified, StrategyKind::kSPVaried,
    StrategyKind::kDPPerf,   StrategyKind::kDPDep,     StrategyKind::kOnlyCpu,
    StrategyKind::kOnlyGpu,
};
constexpr const char* kFaultPlans[] = {"storm", "gpu-failure",
                                       "link-degrade"};
constexpr const char* kServedApps[] = {
    "matrixmul",    "blackscholes",   "nbody",         "hotspot",
    "stream-seq",   "stream-loop",    "spectral-dag",  "tree-reduction",
    "triangular-mv", "unstable-loop",
};

/// serve_zipf chunk counts (0 = the strategy default). Three variants per
/// (op, app, platform, sync) keep first-touch computes arriving through
/// the whole nominal phase instead of only its first seconds.
constexpr int kServedTaskCounts[] = {0, 24, 48};

/// sweep_mixed shape: blocks per pass, (sync, task count) combinations per
/// (app, platform) pair, and the faulted share of cells.
constexpr int kMixedBlocks = 8;
constexpr int kTaskCountMin = 12;
constexpr int kTaskCountMax = 48;
constexpr int kCombos = 2 * (kTaskCountMax - kTaskCountMin + 1);
constexpr double kFaultedCellShare = 0.15;

/// sweep_finegrain shape: every pass runs each (app, platform) cell once
/// at each of four chunk counts spanning 384-1536, heaviest app first.
constexpr PaperApp kFinegrainApps[] = {
    PaperApp::kStreamLoop, PaperApp::kStreamSeq,    PaperApp::kNbody,
    PaperApp::kHotSpot,    PaperApp::kBlackScholes, PaperApp::kMatrixMul,
};
constexpr int kChunksMin = 384;
constexpr int kChunksMax = 1536;
constexpr int kChunkBands = 4;

std::string synth_platform(std::uint64_t seed, std::uint64_t block) {
  Rng rng = stream_rng(seed, 5000 + block);
  return "synth-" + std::to_string(1 + rng.below(1'000'000));
}

bool multi_kernel(PaperApp app) {
  return app == PaperApp::kStreamSeq || app == PaperApp::kStreamLoop;
}

void prefill_half(SweepPass& pass, Rng& rng) {
  std::vector<std::size_t> order(pass.scenarios.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  pass.prefilled.assign(pass.scenarios.size(), 0);
  for (std::size_t i = 0; i < order.size() / 2; ++i)
    pass.prefilled[order[i]] = 1;
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

double Rng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  Rng mixer(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return Rng(mixer.next());
}

SweepPass mixed_pass(std::uint64_t seed, int pass) {
  static const std::vector<std::string> kFixedPlatforms = {
      "reference", "small-gpu", "dual-gpu", "big-little", "quad"};
  SweepPass out;
  Rng rng = stream_rng(seed, 1000 + static_cast<std::uint64_t>(pass));
  std::vector<hs::sweep::Scenario> cells;
  for (int b = 0; b < kMixedBlocks; ++b) {
    const auto block = static_cast<std::uint64_t>(pass * kMixedBlocks + b);
    std::vector<std::string> platforms = kFixedPlatforms;
    platforms.push_back(synth_platform(seed, block));
    for (std::size_t a = 0; a < std::size(kApps); ++a) {
      for (std::size_t p = 0; p < platforms.size(); ++p) {
        // Each (app, platform slot) walks its own seeded permutation of
        // (sync, task count) combinations, so cells stay distinct across
        // blocks and passes of one run.
        std::vector<int> combos(kCombos);
        for (int c = 0; c < kCombos; ++c) combos[c] = c;
        Rng perm = stream_rng(seed, 2000 + a * 16 + p);
        perm.shuffle(combos);
        const int combo = combos[block % kCombos];
        hs::sweep::Scenario cell;
        cell.app = kApps[a];
        cell.platform = platforms[p];
        cell.sync = combo % 2 == 1;
        cell.task_count = kTaskCountMin + combo / 2;
        cells.push_back(cell);
      }
    }
  }
  // A fixed share of the cells also runs under a fault plan (plans dealt
  // round robin), so every pass shares the same number of baseline twins.
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const auto faulted = static_cast<std::size_t>(
      std::lround(kFaultedCellShare * static_cast<double>(cells.size())));
  std::vector<std::string> plans(cells.size());
  std::vector<std::uint64_t> fault_seeds(cells.size(), 0);
  for (std::size_t i = 0; i < faulted; ++i) {
    plans[order[i]] = kFaultPlans[i % std::size(kFaultPlans)];
    if (plans[order[i]] == "storm") fault_seeds[order[i]] = 1 + rng.below(1000);
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    hs::sweep::Scenario cell = cells[c];
    for (StrategyKind kind : kPaperStrategies) {
      cell.strategy = kind;
      out.scenarios.push_back(cell);
    }
    if (plans[c].empty()) continue;
    cell.fault_plan = plans[c];
    cell.fault_seed = fault_seeds[c];
    for (StrategyKind kind : kPaperStrategies) {
      cell.strategy = kind;
      out.scenarios.push_back(cell);
    }
  }
  prefill_half(out, rng);
  return out;
}

SweepPass finegrain_pass(std::uint64_t seed, int pass) {
  static const std::vector<std::string> kPlatforms = {"reference", "quad"};
  constexpr int kBandStep = (kChunksMax - kChunksMin) / (kChunkBands - 1);
  SweepPass out;
  Rng rng = stream_rng(seed, 3000 + static_cast<std::uint64_t>(pass));
  for (PaperApp app : kFinegrainApps) {
    for (const std::string& platform : kPlatforms) {
      for (int band = 0; band < kChunkBands; ++band) {
        hs::sweep::Scenario cell;
        cell.app = app;
        cell.platform = platform;
        // Fixed per band (768 and 1536 chunks synchronize): a seeded choice
        // decided whether a pass held the heaviest cell, which alone moved
        // the workload's p99 by half.
        cell.sync = band % 2 == 1;
        // Four fixed chunk counts spanning the range, jittered by less than
        // 16 so cells differ while the cost of each band stays alike.
        const int jitter = static_cast<int>(rng.below(16));
        cell.task_count = kChunksMin + band * kBandStep +
                          (band + 1 == kChunkBands ? -jitter : jitter);
        std::vector<StrategyKind> kinds = {StrategyKind::kDPDep,
                                           StrategyKind::kDPPerf};
        if (multi_kernel(app)) {
          kinds.push_back(StrategyKind::kSPUnified);
          kinds.push_back(StrategyKind::kSPVaried);
        }
        for (StrategyKind kind : kinds) {
          cell.strategy = kind;
          out.scenarios.push_back(cell);
        }
      }
    }
  }
  out.prefilled.assign(out.scenarios.size(), 0);
  return out;
}

std::string pass_text(const SweepPass& pass) {
  std::ostringstream os;
  for (std::size_t i = 0; i < pass.scenarios.size(); ++i)
    os << pass.scenarios[i].to_json().dump() << ' '
       << static_cast<int>(pass.prefilled[i]) << '\n';
  return os.str();
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  cumulative_.reserve(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min<std::size_t>(it - cumulative_.begin(),
                               cumulative_.size() - 1);
}

double ZipfSampler::probability(std::size_t rank) const {
  return cumulative_[rank] - (rank == 0 ? 0.0 : cumulative_[rank - 1]);
}

std::vector<hs::serve::QueryRequest> serve_keys(std::uint64_t seed) {
  // Shipped presets only: a seeded synthetic platform here would make the
  // served population, and so its accuracy metrics, differ by seed.
  static const std::vector<std::string> platforms = {
      "reference", "small-gpu", "dual-gpu", "cpu-gpu-phi", "big-little",
      "quad"};
  // Popularity is dealt in rounds: each round of 30 ranks holds every
  // (op, app) pair once, at one chunk count (rounds cycle through them),
  // so every seed puts the same mass on every op, app and chunk count. The
  // seed orders the apps within a round and the (platform, sync) variants
  // across rounds.
  const char* const ops[] = {"match", "explain", "analyze"};
  constexpr std::size_t kAppCount = std::size(kServedApps);
  constexpr std::size_t kTaskVariants = std::size(kServedTaskCounts);
  std::vector<std::vector<hs::serve::QueryRequest>> variants(
      std::size(ops) * kAppCount * kTaskVariants);
  for (std::size_t o = 0; o < std::size(ops); ++o) {
    for (std::size_t a = 0; a < kAppCount; ++a) {
      for (std::size_t t = 0; t < kTaskVariants; ++t) {
        auto& list = variants[(o * kAppCount + a) * kTaskVariants + t];
        for (const std::string& platform : platforms) {
          for (bool sync : {false, true}) {
            hs::serve::QueryRequest request;
            request.op = ops[o];
            request.app = kServedApps[a];
            request.platform = platform;
            request.sync = sync;
            request.tasks = kServedTaskCounts[t];
            list.push_back(request);
          }
        }
        Rng rng = stream_rng(seed, 200 + (o * kAppCount + a) * 4 + t);
        rng.shuffle(list);
      }
    }
  }
  std::vector<hs::serve::QueryRequest> keys;
  const std::size_t rounds = variants.front().size() * kTaskVariants;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<std::size_t> apps(kAppCount);
    for (std::size_t a = 0; a < kAppCount; ++a) apps[a] = a;
    Rng rng = stream_rng(seed, 400 + round);
    rng.shuffle(apps);
    const std::size_t t = round % kTaskVariants;
    for (std::size_t a : apps) {
      for (std::size_t o = 0; o < std::size(ops); ++o)
        keys.push_back(variants[(o * kAppCount + a) * kTaskVariants + t]
                               [round / kTaskVariants]);
    }
  }
  return keys;
}

std::vector<double> poisson_arrivals(Rng& rng, double rate, double seconds) {
  std::vector<double> at;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.unit()) / rate;
    if (t >= seconds) break;
    at.push_back(t);
  }
  return at;
}

FramePhase frame_phase(std::uint64_t seed, int phase, double rate,
                       double seconds, std::size_t key_count,
                       double zipf_exponent) {
  FramePhase out;
  out.rate = rate;
  out.seconds = seconds;
  Rng rng = stream_rng(seed, 100 + static_cast<std::uint64_t>(phase));
  out.at = poisson_arrivals(rng, rate, seconds);
  const ZipfSampler zipf(key_count, zipf_exponent);
  out.keys.reserve(out.at.size());
  for (std::size_t i = 0; i < out.at.size(); ++i)
    out.keys.push_back(static_cast<std::uint32_t>(zipf.sample(rng)));
  return out;
}

std::string phase_frames(const FramePhase& phase,
                         const std::vector<hs::serve::QueryRequest>& keys) {
  std::string frames;
  for (std::uint32_t key : phase.keys) {
    frames += keys[key].to_json().dump();
    frames += '\n';
  }
  return frames;
}

}  // namespace perfbench
