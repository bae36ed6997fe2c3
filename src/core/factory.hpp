// Construction of servents by algorithm kind.
#pragma once

#include <memory>

#include "core/basic.hpp"
#include "core/hybrid.hpp"
#include "core/random_alg.hpp"
#include "core/regular.hpp"

namespace p2p::core {

/// Create a servent running the given algorithm. `qualifier` is only used
/// by Hybrid (capability ranking); other algorithms ignore it.
std::unique_ptr<Servent> make_servent(AlgorithmKind kind,
                                      const ServentContext& ctx,
                                      const P2pParams& params,
                                      sim::RngStream rng,
                                      std::uint32_t qualifier = 0);

}  // namespace p2p::core
