// Simplified MAC/PHY timing model.
//
// The figures the paper reports are application-layer message counts and
// hop distances, not latencies, so a PHY-accurate 802.11 CSMA/CA model
// would only add noise. We keep the properties that do matter:
//   * transmissions take airtime (size / bandwidth) and a node's own
//     transmissions serialize (half-duplex radio),
//   * broadcasts reach every in-range neighbor after a small random
//     jitter, which de-synchronizes rebroadcast storms exactly as the
//     random defer in 802.11 DCF does,
//   * an optional i.i.d. loss probability models a lossy channel.
#pragma once

#include <cstddef>

namespace p2p::net {

/// MAC+PHY header bytes every frame puts on the air.
inline constexpr std::size_t kFrameOverheadBytes = 34;
/// Flat propagation delay added to every frame's arrival.
inline constexpr double kPropagationDelayS = 1e-5;

struct MacParams {
  double bandwidth_bps = 2e6;      // 2 Mb/s, 802.11 (1999) broadcast rate
  double jitter_max_s = 0.01;      // uniform rebroadcast defer
  double loss_probability = 0.0;   // i.i.d. per-receiver frame loss

  /// Radio gray zone (paper §8 "effects of wireless coverage"): within
  /// the last `gray_zone_fraction` of the range, delivery probability
  /// falls linearly from 1 to 0 — the shadowing-induced soft cell edge a
  /// unit disk hides. 0 disables (hard disk, the default). Control-plane
  /// decisions (in_range, link-break detection) keep the hard radius;
  /// only actual frame delivery is probabilistic, so protocols experience
  /// flaky edge links exactly as they would under fading.
  double gray_zone_fraction = 0.0;
};

/// Delivery probability at `dist` for range `range` under the gray-zone
/// model; 1 below the zone, linear to 0 at the full range.
inline double gray_zone_delivery_probability(const MacParams& mac,
                                             double dist,
                                             double range) noexcept {
  if (mac.gray_zone_fraction <= 0.0) return dist <= range ? 1.0 : 0.0;
  const double inner = range * (1.0 - mac.gray_zone_fraction);
  if (dist <= inner) return 1.0;
  if (dist >= range) return 0.0;
  return (range - dist) / (range - inner);
}

/// Airtime of one frame.
inline double tx_duration(const MacParams& mac, std::size_t payload_bytes) noexcept {
  const double bits = 8.0 * static_cast<double>(payload_bytes + kFrameOverheadBytes);
  return bits / mac.bandwidth_bps;
}

/// Minimum latency between any transmission decision and its earliest
/// possible arrival: the airtime of an empty payload (headers still go on
/// the air) plus propagation. Jitter and half-duplex serialization only
/// delay further. This is the conservative-parallel lookahead (see
/// sim/sharded.hpp): an event at time t can influence another node no
/// earlier than t + min_frame_latency.
inline double min_frame_latency(const MacParams& mac) noexcept {
  return tx_duration(mac, 0) + kPropagationDelayS;
}

}  // namespace p2p::net
