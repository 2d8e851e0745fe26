#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "sweep/scenario.hpp"

/// Seeded workload generators of the repository benchmark.
///
/// Every input the program under test sees — sweep scenario populations,
/// serve request keys, the frame stream and its send schedule — is a pure
/// function of the workload seed. The generator is the benchmark's own
/// SplitMix64, so a change to the program's RNG never changes a workload.
namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();
  /// Uniform in [0, n); n must be positive.
  std::uint64_t below(std::uint64_t n);
  /// Uniform in [0, 1).
  double unit();

  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of the run seeded by `seed`.
Rng stream_rng(std::uint64_t seed, std::uint64_t stream);

/// One timed sweep pass: distinct scenarios plus the seeded half that the
/// set-up writes into the pass's store before the timed window.
struct SweepPass {
  std::vector<hetsched::sweep::Scenario> scenarios;
  std::vector<std::uint8_t> prefilled;
};

/// sweep_mixed: blocks of (app x platform) cells, all seven paper
/// strategies per cell, with a seeded minority of faulted cells.
SweepPass mixed_pass(std::uint64_t seed, int pass);

/// sweep_finegrain: DP-Dep / DP-Perf (every app) and SP-Unified / SP-Varied
/// (multi-kernel apps) at 384-1536 chunks on reference and quad.
SweepPass finegrain_pass(std::uint64_t seed, int pass);

/// Canonical text of a pass (scenario JSON lines + prefill flags), for
/// determinism checks.
std::string pass_text(const SweepPass& pass);

/// Bounded Zipf(s) sampler over ranks [0, n).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);
  std::size_t sample(Rng& rng) const;
  double probability(std::size_t rank) const;

 private:
  std::vector<double> cumulative_;
};

/// serve_zipf key population in popularity-rank order: match / explain /
/// analyze x the ten served apps x six platforms x sync x three chunk
/// counts, paper sizes.
std::vector<hetsched::serve::QueryRequest> serve_keys(std::uint64_t seed);

/// Seeded Poisson arrivals at `rate` per second over [0, seconds).
std::vector<double> poisson_arrivals(Rng& rng, double rate, double seconds);

/// One open-loop phase of serve_zipf: per request, its key rank and its
/// scheduled send offset from the phase start, in seconds.
struct FramePhase {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<std::uint32_t> keys;
  std::vector<double> at;
};

/// Phase `phase` of the frame stream seeded by `seed` (stream id 100+phase
/// of the run): Poisson arrivals at `rate` with Zipf keys.
FramePhase frame_phase(std::uint64_t seed, int phase, double rate,
                       double seconds, std::size_t key_count,
                       double zipf_exponent);

/// The frames of a phase, newline-terminated, in send order.
std::string phase_frames(const FramePhase& phase,
                         const std::vector<hetsched::serve::QueryRequest>&
                             keys);

}  // namespace perfbench
