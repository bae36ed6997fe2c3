#include "core/factory.hpp"

namespace p2p::core {

std::unique_ptr<Servent> make_servent(AlgorithmKind kind,
                                      const ServentContext& ctx,
                                      const P2pParams& params,
                                      sim::RngStream rng,
                                      std::uint32_t qualifier) {
  switch (kind) {
    case AlgorithmKind::kBasic:
      return std::make_unique<BasicServent>(ctx, params, std::move(rng));
    case AlgorithmKind::kRegular:
      return std::make_unique<RegularServent>(ctx, params, std::move(rng));
    case AlgorithmKind::kRandom:
      return std::make_unique<RandomServent>(ctx, params, std::move(rng));
    case AlgorithmKind::kHybrid:
      return std::make_unique<HybridServent>(ctx, params, std::move(rng),
                                             qualifier);
  }
  return nullptr;
}

}  // namespace p2p::core
