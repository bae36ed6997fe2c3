// Deterministic random-number streams.
//
// Every stochastic component (mobility of node i, MAC jitter, query
// think-times, Zipf placement, ...) draws from its own named stream whose
// seed is derived from (master seed, stream name) via splitmix64. Adding a
// new consumer therefore never perturbs the draws of existing ones — runs
// stay comparable across code versions, the property ns-2 users get from
// separate RNG substreams.
//
// All distributions are implemented in-house (Lemire bounded integers,
// inverse-CDF uniform/exponential, Box-Muller normal). The standard
// library's std::*_distribution adapters are deliberately not used: the
// standard pins the mt19937_64 engine bit-for-bit but leaves distribution
// algorithms implementation-defined, so libstdc++ and libc++ produce
// different draws from the same engine state. With in-house distributions
// the entire simulation — and therefore every cached experiment result —
// is reproducible across toolchains. See docs/determinism.md.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace p2p::sim {

/// splitmix64 step — good avalanche, used only for seed derivation.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a string, for stream-name hashing.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One independent random stream (mt19937_64 under the hood; the engine
/// itself is fully specified by the standard and thus portable).
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed) {}

  /// Raw 64 uniformly random bits.
  std::uint64_t next_u64() { return engine_(); }

  /// Uniform double in [0, 1), 53-bit resolution.
  double uniform01() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Pre: lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Pre: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (> 0), via inverse CDF.
  double exponential(double mean);

  /// Normal(mean, stddev), via Box-Muller (spare draw cached).
  double normal(double mean, double stddev);

  /// Bernoulli trial.
  bool chance(double p) { return uniform01() < p; }

  /// Fisher–Yates shuffle.
  template <typename Vec>
  void shuffle(Vec& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::mt19937_64 engine_;
  double normal_spare_ = 0.0;
  bool has_normal_spare_ = false;
};

/// Derives named streams from a single master seed.
class RngManager {
 public:
  explicit RngManager(std::uint64_t master_seed) : master_seed_(master_seed) {}

  /// Stream for a named component. Same (seed, name) -> same stream.
  RngStream stream(std::string_view name) const {
    return RngStream(splitmix64(master_seed_ ^ fnv1a(name)));
  }

  /// Stream for a named, indexed component (e.g. per-node mobility).
  RngStream stream(std::string_view name, std::uint64_t index) const {
    return RngStream(splitmix64(splitmix64(master_seed_ ^ fnv1a(name)) + index));
  }

 private:
  std::uint64_t master_seed_;
};

}  // namespace p2p::sim
