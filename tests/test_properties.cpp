// Property-based sweeps (parameterized gtest): invariants that must hold
// for every seed / algorithm combination.
#include <gtest/gtest.h>

#include <tuple>

#include "core/hybrid.hpp"
#include "scenario/run.hpp"

namespace {

using namespace p2p;
using core::AlgorithmKind;
using scenario::Parameters;
using scenario::SimulationRun;

// ------------------------------------------------------------------
// Full-run invariants over (algorithm x seed).

using AlgoSeed = std::tuple<AlgorithmKind, std::uint64_t>;

class RunProperty : public ::testing::TestWithParam<AlgoSeed> {};

TEST_P(RunProperty, InvariantsHoldUnderChurnAndMobility) {
  const auto [kind, seed] = GetParam();
  Parameters params;
  params.num_nodes = 30;
  params.duration_s = 600.0;
  params.algorithm = kind;
  params.seed = seed;
  params.max_speed = 2.0;  // faster than the paper: more link churn
  SimulationRun run(params);
  const auto result = run.run();

  // 1. Capacity: nobody exceeds MAXNCONN overlay links (Hybrid masters may
  //    additionally hold up to MAXNSLAVES slave links).
  for (std::size_t i = 0; i < run.member_count(); ++i) {
    const auto& conns = run.servent(i).connections();
    const std::size_t cap =
        kind == AlgorithmKind::kHybrid
            ? static_cast<std::size_t>(params.p2p.maxnconn +
                                       params.p2p.maxnslaves)
            : static_cast<std::size_t>(params.p2p.maxnconn);
    EXPECT_LE(conns.size(), cap) << "member " << i;
  }

  // 2. Message conservation: frames delivered never exceed transmitted
  //    times the possible receiver count.
  EXPECT_LE(result.frames_delivered,
            result.frames_transmitted * params.num_nodes);

  // 3. Per-file accounting is internally consistent.
  for (const auto& f : result.per_file) {
    EXPECT_LE(f.answered, f.requests);
    EXPECT_GE(f.answers_total, f.answered);
    EXPECT_LE(f.physical_samples, f.answered);
    EXPECT_LE(f.p2p_samples, f.answered);
  }

  // 4. Overlay graph is restricted to members and has no self-loops: by
  //    construction of overlay_graph, order == member count.
  EXPECT_EQ(result.overlay_final.vertices, run.member_count());

  // 5. Energy strictly positive and finite.
  EXPECT_GT(result.energy_consumed_j, 0.0);
  EXPECT_TRUE(std::isfinite(result.energy_consumed_j));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RunProperty,
    ::testing::Combine(::testing::Values(AlgorithmKind::kBasic,
                                         AlgorithmKind::kRegular,
                                         AlgorithmKind::kRandom,
                                         AlgorithmKind::kHybrid),
                       ::testing::Values(1, 2, 3)),
    [](const auto& param_info) {
      return std::string(core::algorithm_name(std::get<0>(param_info.param))) +
             "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// ------------------------------------------------------------------
// Determinism across the whole stack, per algorithm.

class DeterminismProperty : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(DeterminismProperty, IdenticalSeedsProduceIdenticalWorlds) {
  Parameters params;
  params.num_nodes = 25;
  params.duration_s = 400.0;
  params.algorithm = GetParam();
  params.seed = 99;

  const auto a = SimulationRun(params).run();
  const auto b = SimulationRun(params).run();
  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.masters, b.masters);
  EXPECT_EQ(a.slaves, b.slaves);
  ASSERT_EQ(a.per_file.size(), b.per_file.size());
  for (std::size_t k = 0; k < a.per_file.size(); ++k) {
    EXPECT_EQ(a.per_file[k].requests, b.per_file[k].requests);
    EXPECT_EQ(a.per_file[k].answers_total, b.per_file[k].answers_total);
  }
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].received, b.counters[i].received);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DeterminismProperty,
                         ::testing::Values(AlgorithmKind::kBasic,
                                           AlgorithmKind::kRegular,
                                           AlgorithmKind::kRandom,
                                           AlgorithmKind::kHybrid),
                         [](const auto& param_info) {
                           return core::algorithm_name(param_info.param);
                         });

// ------------------------------------------------------------------
// Lossy-channel robustness: the protocols must degrade, not wedge.

class LossProperty : public ::testing::TestWithParam<double> {};

TEST_P(LossProperty, SurvivesFrameLoss) {
  Parameters params;
  params.num_nodes = 30;
  params.duration_s = 600.0;
  params.algorithm = AlgorithmKind::kRegular;
  params.mac.loss_probability = GetParam();
  SimulationRun run(params);
  const auto result = run.run();
  // Invariants hold even with heavy loss.
  for (std::size_t i = 0; i < run.member_count(); ++i) {
    EXPECT_LE(run.servent(i).connections().size(),
              static_cast<std::size_t>(params.p2p.maxnconn));
  }
  if (GetParam() > 0.0) {
    EXPECT_GT(result.frames_lost, 0U);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossProperty,
                         ::testing::Values(0.0, 0.05, 0.25, 0.6));

// ------------------------------------------------------------------
// Hybrid role-consistency sweep.

class HybridProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridProperty, SlaveMasterRelationsAreConsistent) {
  Parameters params;
  params.num_nodes = 30;
  params.duration_s = 700.0;
  params.algorithm = AlgorithmKind::kHybrid;
  params.seed = GetParam();
  SimulationRun run(params);
  run.run();
  for (std::size_t i = 0; i < run.member_count(); ++i) {
    const auto& hybrid =
        static_cast<const core::HybridServent&>(run.servent(i));
    if (hybrid.state() != core::HybridState::kSlave) continue;
    // A slave has exactly one link, of slave kind.
    const auto& conns = hybrid.connections();
    ASSERT_EQ(conns.size(), 1U) << "slave " << i;
    EXPECT_EQ(conns.count(core::ConnKind::kSlave), 1U);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridProperty,
                         ::testing::Values(1, 5, 9, 13));

}  // namespace
