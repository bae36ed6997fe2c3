// Scenario layer: parameter overrides, run construction, result
// extraction, determinism, and the experiment cache round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "scenario/cache.hpp"
#include "scenario/experiment.hpp"
#include "scenario/run.hpp"
#include "util/config.hpp"

namespace {

using namespace p2p;
using scenario::Parameters;
using scenario::SimulationRun;

const Parameters kDefaults;

Parameters tiny_scenario(core::AlgorithmKind kind, std::uint64_t seed = 1) {
  Parameters params;
  params.num_nodes = 20;
  params.duration_s = 300.0;
  params.algorithm = kind;
  params.seed = seed;
  params.overlay_sample_interval_s = 100.0;
  return params;
}

TEST(Parameters, DefaultsMatchPaperTable2) {
  const Parameters params;
  EXPECT_EQ(params.num_nodes, 50U);
  EXPECT_DOUBLE_EQ(params.p2p_fraction, 0.75);
  EXPECT_DOUBLE_EQ(params.radio_range, 10.0);
  EXPECT_DOUBLE_EQ(params.area_width, 100.0);
  EXPECT_DOUBLE_EQ(params.duration_s, 3600.0);
  EXPECT_EQ(params.num_files, 20U);
  EXPECT_DOUBLE_EQ(params.max_frequency, 0.40);
  EXPECT_DOUBLE_EQ(params.max_speed, 1.0);
  EXPECT_DOUBLE_EQ(params.max_pause, 100.0);
}

TEST(Parameters, NumMembersRounds) {
  Parameters params;
  params.num_nodes = 50;
  EXPECT_EQ(params.num_members(), 38U);  // round(37.5)
  params.num_nodes = 150;
  EXPECT_EQ(params.num_members(), 113U);  // round(112.5)
  params.p2p_fraction = 1.0;
  EXPECT_EQ(params.num_members(), 150U);
}

TEST(Parameters, ApplyOverrides) {
  Parameters params;
  util::Config config;
  config.set("num_nodes", "150");
  config.set("algorithm", "hybrid");
  config.set("maxnconn", "5");
  config.set("timer_initial", "12.5");
  config.set("mobile", "false");
  EXPECT_EQ(params.apply(config), "");
  EXPECT_EQ(params.num_nodes, 150U);
  EXPECT_EQ(params.algorithm, core::AlgorithmKind::kHybrid);
  EXPECT_EQ(params.p2p.maxnconn, 5);
  EXPECT_DOUBLE_EQ(params.p2p.timer_initial, 12.5);
  EXPECT_FALSE(params.mobile);
}

TEST(Parameters, ApplyRejectsBadValues) {
  Parameters params;
  util::Config config;
  config.set("algorithm", "bittorrent");
  EXPECT_NE(params.apply(config), "");

  util::Config config2;
  config2.set("num_nodes", "0");
  EXPECT_NE(Parameters{}.apply(config2), "");

  util::Config config3;
  config3.set("p2p_fraction", "1.5");
  EXPECT_NE(Parameters{}.apply(config3), "");
}

TEST(Parameters, ApplyRejectsUnknownKeys) {
  // Daemon hardening: a typo'd key used to silently keep the default —
  // the worst failure mode for network-supplied configs. It must be a
  // named error now, and the message must point at the offending key.
  util::Config config;
  config.set("num_nodez", "150");
  const std::string err = Parameters{}.apply(config);
  ASSERT_NE(err, "");
  EXPECT_NE(err.find("num_nodez"), std::string::npos) << err;
}

TEST(Parameters, ApplyRejectsUnparsableValues) {
  // Same rationale: "fifty" used to parse as "keep the default". Every
  // typed getter must report the key and the rejected text.
  const auto expect_rejects = [](const char* key, const char* value) {
    util::Config config;
    config.set(key, value);
    const std::string err = Parameters{}.apply(config);
    ASSERT_NE(err, "") << key << "=" << value << " was accepted";
    EXPECT_NE(err.find(key), std::string::npos) << err;
    EXPECT_NE(err.find(value), std::string::npos) << err;
  };
  expect_rejects("num_nodes", "fifty");
  expect_rejects("duration_s", "1h");
  expect_rejects("seed", "-3");
  expect_rejects("mobile", "maybe");
  expect_rejects("maxnconn", "3.5");
  // Each integer is checked against its own field's range: num_files is
  // 32-bit, and 2^32 + 1 used to wrap to 1.
  expect_rejects("num_files", "4294967297");
  expect_rejects("maxnconn", "2147483648");
  // The seed is a uint64_t: one past its top and any negative are refused.
  expect_rejects("seed", "18446744073709551616");
  expect_rejects("seed", "-1");
}

TEST(Parameters, ApplyRejectsNonFiniteNumbers) {
  // strtod reads nan and +-inf, and NaN passes every range check, so
  // radio_range=nan used to abort the run and duration_s=inf to spin
  // forever. Every numeric row refuses all three, naming key and value;
  // battery_j=inf is the one exception (its default, an unlimited budget).
  std::vector<std::pair<std::string, bool>> numeric_keys;  // name, takes_inf
  scenario::for_each_field(kDefaults, [&](scenario::ParamKey key,
                                             const auto& field) {
    using T = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
      numeric_keys.emplace_back(key.name, key.takes_inf);
    }
  });
  ASSERT_GE(numeric_keys.size(), 50U);
  for (const auto& [key, takes_inf] : numeric_keys) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      util::Config config;
      config.set(key, value);
      const std::string err = Parameters{}.apply(config);
      if (takes_inf && std::string(value) == "inf") {
        EXPECT_EQ(err, "") << key << "=" << value;
        continue;
      }
      ASSERT_NE(err, "") << key << "=" << value << " was accepted";
      EXPECT_NE(err.find(key), std::string::npos) << err;
      EXPECT_NE(err.find(value), std::string::npos) << err;
    }
  }

  util::Config unlimited;
  unlimited.set("num_nodes", "10");
  unlimited.set("duration_s", "20");
  unlimited.set("battery_j", "inf");
  Parameters params;
  ASSERT_EQ(params.apply(unlimited), "");
  EXPECT_EQ(params.energy.battery_j, std::numeric_limits<double>::infinity());
  const auto result = SimulationRun(params).run();
  EXPECT_GT(result.frames_transmitted, 0U);
}

TEST(Parameters, EnumValuesMatchIgnoringCase) {
  const auto algorithm_of = [](const char* text) {
    util::Config config;
    config.set("algorithm", text);
    Parameters params;
    const std::string err = params.apply(config);
    return err.empty() ? std::optional(params.algorithm) : std::nullopt;
  };
  EXPECT_EQ(algorithm_of("basic"), core::AlgorithmKind::kBasic);
  EXPECT_EQ(algorithm_of("Regular"), core::AlgorithmKind::kRegular);
  EXPECT_EQ(algorithm_of("RANDOM"), core::AlgorithmKind::kRandom);
  EXPECT_EQ(algorithm_of("hybrid"), core::AlgorithmKind::kHybrid);
  EXPECT_FALSE(algorithm_of("gnutella"));
  EXPECT_FALSE(algorithm_of(""));

  util::Config bad;
  bad.set("qualifier_dist", "gaussian");
  EXPECT_EQ(Parameters{}.apply(bad), "unknown qualifier_dist: gaussian");
}

TEST(Parameters, ApplyRejectsOutOfRangeValues) {
  const auto expect_rejects = [](const char* key, const char* value) {
    util::Config config;
    config.set(key, value);
    EXPECT_NE(Parameters{}.apply(config), "")
        << key << "=" << value << " was accepted";
  };
  expect_rejects("area_width", "0");
  expect_rejects("radio_range", "-5");
  expect_rejects("duration_s", "0");
  expect_rejects("max_frequency", "0");
  expect_rejects("mac_loss_probability", "1.01");
  expect_rejects("mac_bandwidth_bps", "0");
  expect_rejects("battery_j", "-1");
  expect_rejects("loss_burst_loss", "2");
  expect_rejects("num_files", "0");
  expect_rejects("sim_threads", "0");
  expect_rejects("churn_rate", "-0.5");
  // min_speed > max_speed (default max_speed = 1.0).
  expect_rejects("min_speed", "5");

  // The overlay integers. maxnhops=-2 used to die with SIGFPE in
  // ProgressiveSearch::advance and nhops_basic=0 to abort in
  // FloodService::flood; maxnconn=-1, query_ttl=-5 and nhops_initial=0
  // were silently accepted. Each error names its key.
  const auto expect_named = [](const char* key, const char* value) {
    util::Config config;
    config.set(key, value);
    const std::string err = Parameters{}.apply(config);
    ASSERT_NE(err, "") << key << "=" << value << " was accepted";
    EXPECT_NE(err.find(key), std::string::npos) << err;
  };
  expect_named("maxnconn", "0");
  expect_named("maxnconn", "-1");
  expect_named("maxnhops", "-2");
  expect_named("maxnhops", "0");
  expect_named("maxnhops", "129");
  expect_named("nhops_initial", "0");
  expect_named("nhops_initial", "7");  // > maxnhops (6 by default)
  expect_named("nhops_basic", "0");
  expect_named("nhops_basic", "257");
  expect_named("query_ttl", "0");
  expect_named("query_ttl", "-5");
  expect_named("query_ttl", "256");
  expect_named("maxnslaves", "-1");
  // maxdist=-1 silently disabled maintenance (handle_pong reads a negative
  // limit as no bound), 0 closed every maintained link on its first pong,
  // and random links double it as an int.
  expect_named("maxdist", "-1");
  expect_named("maxdist", "0");
  expect_named("maxdist", "1073741824");  // INT_MAX / 2 + 1

  // Fault plans whose expected size passes Parameters::kMaxFaultEvents:
  // FaultPlan::compile died with bad_alloc on both.
  const auto expect_plan_named = [](const char* key, const char* ini) {
    util::Config config;
    std::string error;
    ASSERT_TRUE(config.parse_ini(ini, &error)) << error;
    const std::string err = Parameters{}.apply(config);
    ASSERT_NE(err, "") << ini << " was accepted";
    EXPECT_NE(err.find(key), std::string::npos) << err;
  };
  expect_plan_named("link_blackout_rate",
                    "num_nodes=10\nduration_s=20\nlink_blackout_rate=1e300\n");
  expect_plan_named("mean_uptime",
                    "num_nodes=10\nduration_s=20\nchurn_rate=1\n"
                    "mean_uptime=1e-300\nmean_downtime=1e-300\n");
  expect_plan_named("loss_burst_rate",
                    "loss_burst_rate=1e12\nloss_burst_duration=1e-9\n");
  // 1e7 blackouts over the default 3600 s: at the ceiling, accepted.
  util::Config at_ceiling;
  at_ceiling.set("link_blackout_rate", "1e7");
  EXPECT_EQ(Parameters{}.apply(at_ceiling), "");
  at_ceiling.set("link_blackout_rate", "1.1e7");
  EXPECT_NE(Parameters{}.apply(at_ceiling), "");

  // The bounds themselves are valid.
  util::Config edges;
  edges.set("maxnconn", "1");
  edges.set("maxnhops", "128");
  edges.set("nhops_initial", "128");
  edges.set("nhops_basic", "256");
  edges.set("query_ttl", "255");
  edges.set("maxnslaves", "0");
  edges.set("maxdist", "1");
  EXPECT_EQ(Parameters{}.apply(edges), "");
  edges.set("maxdist", "1073741823");  // INT_MAX / 2
  EXPECT_EQ(Parameters{}.apply(edges), "");
}

TEST(Parameters, ApplyRejectsRemovedQueueBackendGate) {
  // The event queue has one backend and no selection knob: the old gate
  // is an unknown key like any other, not a silently ignored setting.
  util::Config config;
  config.set("ladder_queue_min_nodes", "0");
  EXPECT_EQ(Parameters{}.apply(config), "unknown key: ladder_queue_min_nodes");
}

TEST(Parameters, ApplyReportsFirstProblemAndAppliesNothingAfter) {
  // A config with both a bad value and a later unknown key reports the
  // parse problem (getters run first), not a misleading unknown-key
  // message for something it never got to.
  util::Config config;
  config.set("num_nodes", "abc");
  config.set("zzz_unknown", "1");
  const std::string err = Parameters{}.apply(config);
  ASSERT_NE(err, "");
  EXPECT_NE(err.find("num_nodes"), std::string::npos) << err;
}

TEST(Parameters, CrashRunAtRequiresSequentialExecution) {
  util::Config config;
  config.set("crash_run_at", "10");
  config.set("sim_shards", "4");
  EXPECT_NE(Parameters{}.apply(config), "");

  util::Config sequential;
  sequential.set("crash_run_at", "10");
  Parameters params;
  EXPECT_EQ(params.apply(sequential), "");
  EXPECT_TRUE(params.fault.crash_run_enabled());
}

// The invariant checker only sweeps, on the global simulator, so sharded
// execution accepts it — including the implicit shards that
// sim_threads > 1 selects.
TEST(Parameters, InvariantCheckAcceptsShardedExecution) {
  util::Config sharded;
  sharded.set("invariant_check_interval", "5");
  sharded.set("sim_shards", "4");
  Parameters params;
  EXPECT_EQ(params.apply(sharded), "");
  EXPECT_DOUBLE_EQ(params.invariant_check_interval_s, 5.0);
  EXPECT_EQ(params.effective_sim_shards(), 4U);

  util::Config threaded;
  threaded.set("invariant_check_interval", "5");
  threaded.set("sim_threads", "2");
  Parameters implicit;
  EXPECT_EQ(implicit.apply(threaded), "");
  EXPECT_GT(implicit.effective_sim_shards(), 1U);
}

TEST(Parameters, SummaryMentionsKeyFacts) {
  const Parameters params;
  const std::string s = params.summary();
  EXPECT_NE(s.find("50 nodes"), std::string::npos);
  EXPECT_NE(s.find("Regular"), std::string::npos);
}

TEST(SimulationRun, BuildCreatesMembersAndPlacement) {
  const Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  SimulationRun run(params);
  run.build();
  EXPECT_EQ(run.member_count(), params.num_members());
  EXPECT_EQ(run.placement().num_members(), params.num_members());
  EXPECT_EQ(run.placement().num_files(), params.num_files);
  for (std::size_t i = 0; i < run.member_count(); ++i) {
    EXPECT_EQ(run.servent(i).algorithm(), core::AlgorithmKind::kRegular);
    EXPECT_LT(run.member_node(i), params.num_nodes);
  }
}

TEST(SimulationRun, ProducesPlausibleResults) {
  const Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  SimulationRun run(params);
  const auto result = run.run();
  EXPECT_EQ(result.num_nodes, 20U);
  EXPECT_EQ(result.num_members, 15U);
  EXPECT_EQ(result.counters.size(), 15U);
  EXPECT_EQ(result.per_file.size(), 20U);
  EXPECT_GT(result.frames_transmitted, 0U);
  EXPECT_GT(result.energy_consumed_j, 0.0);
  EXPECT_GT(result.events_processed, 0U);
  EXPECT_FALSE(result.overlay_samples.empty());
  // Extract helpers match counters.
  const auto connect = result.connect_received_per_member();
  ASSERT_EQ(connect.size(), 15U);
  for (std::size_t i = 0; i < connect.size(); ++i) {
    EXPECT_DOUBLE_EQ(connect[i],
                     static_cast<double>(result.counters[i].connect_received()));
  }
}

TEST(SimulationRun, DeterministicForSameSeed) {
  const Parameters params = tiny_scenario(core::AlgorithmKind::kRandom, 7);
  const auto a = SimulationRun(params).run();
  const auto b = SimulationRun(params).run();
  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].received, b.counters[i].received);
    EXPECT_EQ(a.counters[i].sent, b.counters[i].sent);
  }
}

TEST(SimulationRun, DifferentSeedsDiffer) {
  const auto a =
      SimulationRun(tiny_scenario(core::AlgorithmKind::kRegular, 1)).run();
  const auto b =
      SimulationRun(tiny_scenario(core::AlgorithmKind::kRegular, 2)).run();
  EXPECT_NE(a.frames_transmitted, b.frames_transmitted);
}

TEST(SimulationRun, HybridCensusCountsRoles) {
  const auto result =
      SimulationRun(tiny_scenario(core::AlgorithmKind::kHybrid)).run();
  EXPECT_GT(result.masters + result.slaves, 0U);
  EXPECT_LE(result.masters + result.slaves, result.num_members);
}

TEST(SimulationRun, RunsOverDsdv) {
  Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  params.routing_protocol = scenario::RoutingProtocol::kDsdv;
  params.dsdv.periodic_update_interval = 5.0;
  SimulationRun run(params);
  const auto result = run.run();
  // The overlay still forms and queries still flow over proactive routing.
  EXPECT_GT(result.frames_transmitted, 0U);
  EXPECT_GT(result.routing_control_messages, 0U);
  std::uint64_t queries = 0;
  for (const auto& f : result.per_file) queries += f.requests;
  EXPECT_GT(queries, 0U);
}

TEST(SimulationRun, RunsUnderEveryMobilityModel) {
  // Pinned counters: a change to any model's trajectory, or to how the
  // network samples it, moves at least one of them.
  struct Expected {
    scenario::MobilityKind kind;
    std::uint64_t events, transmitted, delivered;
  };
  for (const Expected& e : {
           Expected{scenario::MobilityKind::kRandomWaypoint, 1664, 1160, 1637},
           Expected{scenario::MobilityKind::kRandomDirection, 703, 418, 236},
           Expected{scenario::MobilityKind::kGaussMarkov, 2034, 1422, 1422},
       }) {
    Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
    params.mobility_kind = e.kind;
    const auto result = SimulationRun(params).run();
    SCOPED_TRACE(testing::Message()
                 << "mobility kind " << static_cast<int>(e.kind));
    EXPECT_EQ(result.events_processed, e.events);
    EXPECT_EQ(result.frames_transmitted, e.transmitted);
    EXPECT_EQ(result.frames_delivered, e.delivered);
  }
}

TEST(SimulationRun, ChurnKillsAndRevivesNodes) {
  Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  params.fault.churn_rate_per_hour = 30.0;  // ~2.5 deaths/node over 300 s
  params.fault.mean_downtime_s = 20.0;
  const auto result = SimulationRun(params).run();
  EXPECT_GT(result.churn_deaths, 0U);
  // The network survives: frames still flow and invariants held (no
  // assertion fired during the run).
  EXPECT_GT(result.frames_transmitted, 0U);
}

TEST(Parameters, MobilityAndRoutingOverrides) {
  Parameters params;
  util::Config config;
  config.set("mobility", "gauss_markov");
  config.set("routing_protocol", "dsdv");
  EXPECT_EQ(params.apply(config), "");
  EXPECT_EQ(params.mobility_kind, scenario::MobilityKind::kGaussMarkov);
  EXPECT_EQ(params.routing_protocol, scenario::RoutingProtocol::kDsdv);

  // The legacy churn aliases are gone; churn is set through churn_rate /
  // mean_downtime like every other fault knob.
  util::Config legacy;
  legacy.set("churn_death_rate_per_hour", "5");
  EXPECT_EQ(Parameters{}.apply(legacy),
            "unknown key: churn_death_rate_per_hour");

  util::Config bad;
  bad.set("mobility", "teleport");
  EXPECT_NE(Parameters{}.apply(bad), "");
  util::Config bad2;
  bad2.set("routing_protocol", "olsr");
  EXPECT_NE(Parameters{}.apply(bad2), "");
}

TEST(Cache, KeyChangesWithNewKnobs) {
  Parameters a = tiny_scenario(core::AlgorithmKind::kRegular);
  Parameters b = a;
  b.routing_protocol = scenario::RoutingProtocol::kDsdv;
  EXPECT_NE(scenario::cache_key(a, 3), scenario::cache_key(b, 3));
  Parameters c = a;
  c.mobility_kind = scenario::MobilityKind::kGaussMarkov;
  EXPECT_NE(scenario::cache_key(a, 3), scenario::cache_key(c, 3));
  Parameters d = a;
  d.fault.churn_rate_per_hour = 1.0;
  EXPECT_NE(scenario::cache_key(a, 3), scenario::cache_key(d, 3));
}

TEST(Experiment, AggregatesAcrossSeeds) {
  Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  const auto result = scenario::run_experiment(params, 3, /*threads=*/2);
  EXPECT_EQ(result.runs, 3U);
  EXPECT_EQ(result.connect_curve.runs(), 3U);
  EXPECT_EQ(result.connect_curve.points(), params.num_members());
  EXPECT_EQ(result.ranks.size(), 20U);
  EXPECT_EQ(result.frames_transmitted.count(), 3U);
  EXPECT_GT(result.frames_transmitted.mean(), 0.0);
}

TEST(Experiment, ParallelMatchesSequential) {
  Parameters params = tiny_scenario(core::AlgorithmKind::kBasic);
  const auto seq = scenario::run_experiment(params, 3, 1);
  const auto par = scenario::run_experiment(params, 3, 3);
  EXPECT_EQ(seq.runs, par.runs);
  // Aggregation happens in seed order regardless of thread count, so
  // results are bit-identical — exact ==, not DOUBLE_EQ. The exhaustive
  // all-fields version of this check lives in test_determinism.cpp.
  ASSERT_EQ(seq.connect_curve.points(), par.connect_curve.points());
  for (std::size_t i = 0; i < seq.connect_curve.points(); ++i) {
    EXPECT_EQ(seq.connect_curve.mean_at(i), par.connect_curve.mean_at(i));
    EXPECT_EQ(seq.connect_curve.ci95_at(i), par.connect_curve.ci95_at(i));
  }
  EXPECT_EQ(seq.frames_transmitted.mean(), par.frames_transmitted.mean());
  EXPECT_EQ(seq.frames_transmitted.variance(),
            par.frames_transmitted.variance());
}

TEST(Cache, RoundTripsExperimentResults) {
  const std::string dir = ::testing::TempDir() + "/p2p_cache_test";
  std::filesystem::remove_all(dir);  // stale entries from earlier test runs
  ::setenv("P2P_BENCH_CACHE", dir.c_str(), 1);
  Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  params.duration_s = 120.0;

  scenario::ExperimentResult miss;
  EXPECT_FALSE(scenario::load_cached(params, 2, &miss));

  const auto computed = scenario::run_experiment_cached(params, 2);
  scenario::ExperimentResult loaded;
  ASSERT_TRUE(scenario::load_cached(params, 2, &loaded));
  EXPECT_EQ(loaded.runs, computed.runs);
  ASSERT_EQ(loaded.connect_curve.points(), computed.connect_curve.points());
  for (std::size_t i = 0; i < loaded.connect_curve.points(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.connect_curve.mean_at(i),
                     computed.connect_curve.mean_at(i));
  }
  EXPECT_NEAR(loaded.ranks[0].answers_per_request.mean(),
              computed.ranks[0].answers_per_request.mean(), 1e-9);
  EXPECT_NEAR(loaded.frames_transmitted.ci95_halfwidth(),
              computed.frames_transmitted.ci95_halfwidth(), 1e-6);
  ::unsetenv("P2P_BENCH_CACHE");
}

TEST(Cache, KeyChangesWithParameters) {
  Parameters a = tiny_scenario(core::AlgorithmKind::kRegular);
  Parameters b = a;
  b.p2p.timer_initial += 1.0;
  EXPECT_NE(scenario::cache_key(a, 5), scenario::cache_key(b, 5));
  EXPECT_NE(scenario::cache_key(a, 5), scenario::cache_key(a, 6));
  EXPECT_EQ(scenario::cache_key(a, 5), scenario::cache_key(a, 5));
}

// ---- the parameter table: one list of keys for apply and the cache key --

// Draws every row of the table at random within the ranges apply accepts
// (probabilities, fractions and speeds all fit in (0, 1]; the hop counts
// and the query TTL are folded into their bounds after the draw, and the
// duration is shortened until the expected fault plan fits its ceiling).
Parameters random_parameters(std::mt19937_64& rng) {
  Parameters p;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  scenario::for_each_field(p, [&](scenario::ParamKey key, auto& field) {
    using T = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>) {
      field = rng() % 2 == 0;
    } else if constexpr (std::is_same_v<T, double>) {
      if (key.takes_inf && rng() % 4 == 0) {
        field = std::numeric_limits<double>::infinity();
      } else {
        // Full-precision values across magnitudes, plus exact 1.0.
        const double u = 1.0 - unit(rng);  // (0, 1]
        field = rng() % 8 == 0 ? 1.0 : u * std::pow(10.0, -double(rng() % 7));
      }
    } else if constexpr (std::is_enum_v<T>) {
      field = static_cast<T>(rng() % scenario::value_names(field).size());
    } else {
      field = static_cast<T>(1 + rng() % (std::uint64_t{1} << (rng() % 20)));
    }
  });
  if (p.min_speed > p.max_speed) std::swap(p.min_speed, p.max_speed);
  if (p.effective_sim_shards() > 1) p.fault.crash_run_at_s = -1.0;
  // Fold the bounded overlay integers (all drawn >= 1) into their ranges.
  p.p2p.maxnhops = 1 + (p.p2p.maxnhops - 1) % 128;
  p.p2p.nhops_initial = 1 + (p.p2p.nhops_initial - 1) % p.p2p.maxnhops;
  p.p2p.nhops_basic = 1 + (p.p2p.nhops_basic - 1) % 256;
  p.p2p.query_ttl = 1 + (p.p2p.query_ttl - 1) % 255;
  // maxdist is drawn in [1, 2^19], inside its range. Halve the duration
  // until the expected fault plan fits under the ceiling (tiny mean up and
  // down times can ask for ~1e12 churn events); every other row keeps its
  // drawn value.
  while (p.fault.expected_events(static_cast<double>(p.num_nodes),
                                 p.duration_s)
             .total() > Parameters::kMaxFaultEvents) {
    p.duration_s /= 2.0;
  }
  return p;
}

// The canonical text without its tag line and its num_seeds line: one
// key=value line per row.
std::string canonical_body(const Parameters& p) {
  std::string text = scenario::canonical_parameters(p, 1);
  text.erase(0, text.find('\n') + 1);
  text.erase(text.rfind("num_seeds="));
  return text;
}

// Every row's value but the execution-only sim_threads, as doubles (the
// drawn integers are small enough to convert exactly).
std::vector<double> row_values(const Parameters& p) {
  std::vector<double> values;
  scenario::for_each_field(p, [&](scenario::ParamKey key, const auto& field) {
    using T = std::remove_cvref_t<decltype(field)>;
    if (std::string_view(key.name) == "sim_threads") return;
    if constexpr (std::is_enum_v<T>) {
      values.push_back(static_cast<double>(static_cast<int>(field)));
    } else {
      values.push_back(static_cast<double>(field));
    }
  });
  return values;
}

std::size_t table_rows() {
  std::size_t rows = 0;
  scenario::for_each_field(kDefaults,
                           [&](scenario::ParamKey, const auto&) { ++rows; });
  return rows;
}

TEST(ParameterTable, CanonicalTextRoundTripsThroughApply) {
  const std::size_t rows = table_rows();
  std::mt19937_64 rng(20030422);
  for (int draw = 0; draw < 300; ++draw) {
    const Parameters p = random_parameters(rng);
    const std::string body = canonical_body(p);
    util::Config config;
    std::string error;
    ASSERT_TRUE(config.parse_ini(body, &error)) << error << "\n" << body;
    EXPECT_EQ(config.size(), rows) << body;
    Parameters q;
    ASSERT_EQ(q.apply(config), "") << body;
    EXPECT_EQ(row_values(q), row_values(p)) << body;
    const std::size_t seeds = 1 + static_cast<std::size_t>(rng() % 40);
    ASSERT_EQ(scenario::canonical_parameters(q, seeds),
              scenario::canonical_parameters(p, seeds));
  }
}

TEST(ParameterTable, SeedRoundTripsAcrossItsWholeRange) {
  // Integers are parsed into the field's own type, so seeds above
  // LLONG_MAX (half the seed space) are valid too.
  util::Config config;
  config.set("seed", "18446744073709551615");
  Parameters params;
  ASSERT_EQ(params.apply(config), "");
  EXPECT_EQ(params.seed, std::numeric_limits<std::uint64_t>::max());

  util::Config round_trip;
  std::string error;
  ASSERT_TRUE(round_trip.parse_ini(canonical_body(params), &error)) << error;
  Parameters again;
  ASSERT_EQ(again.apply(round_trip), "");
  EXPECT_EQ(again.seed, params.seed);
  EXPECT_EQ(scenario::cache_key(again, 1), scenario::cache_key(params, 1));
}

TEST(ParameterTable, EveryRowChangesTheCacheKey) {
  std::mt19937_64 rng(7);
  for (int draw = 0; draw < 40; ++draw) {
    const Parameters base = random_parameters(rng);
    const std::string base_key = scenario::cache_key(base, 3);
    for (std::size_t row = 0; row < table_rows(); ++row) {
      Parameters changed = base;
      std::size_t i = 0;
      std::string name;
      scenario::for_each_field(changed, [&](scenario::ParamKey key,
                                            auto& field) {
        if (i++ != row) return;
        name = key.name;
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          field = !field;
        } else if constexpr (std::is_same_v<T, double>) {
          // One ulp: the key must tell apart any two distinct values.
          constexpr double kInf = std::numeric_limits<double>::infinity();
          field = std::isfinite(field) ? std::nextafter(field, kInf)
                                       : std::numeric_limits<double>::max();
        } else if constexpr (std::is_enum_v<T>) {
          const auto n = scenario::value_names(field).size();
          field = static_cast<T>((static_cast<std::size_t>(field) + 1) % n);
        } else {
          field = static_cast<T>(field + 1);
        }
      });
      if (name == "sim_threads") {
        // Pure execution: any thread count gives bit-identical results.
        EXPECT_EQ(scenario::cache_key(changed, 3), base_key);
      } else {
        EXPECT_NE(scenario::cache_key(changed, 3), base_key) << name;
      }
    }
  }
}

// docs/parameters.md is the table's documentation: its key tables must
// name exactly the table's rows.
TEST(ParameterTable, MatchesDocumentedKeys) {
  std::ifstream doc(P2P_PARAMETERS_DOC);
  ASSERT_TRUE(doc) << P2P_PARAMETERS_DOC;
  std::set<std::string> documented;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::string first_cell = line.substr(1, line.find('|', 1) - 1);
    std::istringstream cell(first_cell);
    std::string token;
    while (std::getline(cell, token, '`')) {
      if (!std::getline(cell, token, '`')) break;
      if (token.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_") ==
          std::string::npos) {
        documented.insert(token);
      }
    }
  }
  std::set<std::string> table;
  scenario::for_each_field(kDefaults, [&](scenario::ParamKey key,
                                             const auto&) {
    EXPECT_TRUE(table.insert(key.name).second) << "duplicate row " << key.name;
  });
  EXPECT_EQ(table, documented);
  EXPECT_EQ(table.size(), 59U);
}

// ---- the seed line: one record, one key sequence ------------------------

// The keys of one JSON object line, in order (seed lines hold no nested
// objects and no strings with quotes).
std::vector<std::string> line_keys(const std::string& line) {
  std::vector<std::string> keys;
  for (std::size_t at = 0; (at = line.find("\":", at)) != std::string::npos;
       ++at) {
    const std::size_t open = line.rfind('"', at - 1);
    keys.push_back(line.substr(open + 1, at - open - 1));
  }
  return keys;
}

// The value written after `"key":`, up to the next ',' or '}'.
std::string line_value(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return {};
  const std::size_t begin = at + key.size() + 3;
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

TEST(Telemetry, SeedLineWritesEveryCounter) {
  // A new RunCounters field must get a wire key below and in the writer.
  static_assert(sizeof(scenario::RunCounters) == 21 * sizeof(std::uint64_t));
  scenario::SeedTelemetry t;
  t.seed_index = 3;
  t.seed = 77;
  t.wall_seconds = 0.5;
  t.events_per_sec = 123.25;
  t.events_processed = 101;
  t.frames_transmitted = 102;
  t.frames_delivered = 103;
  t.frames_lost = 104;
  t.peak_queue_depth = 105;
  t.queue_pushes = 106;
  t.queue_pops = 107;
  t.queue_tombstones_purged = 108;
  t.queue_compactions = 109;
  t.queue_ladder_spills = 110;
  t.queue_ladder_rebuckets = 111;
  t.queue_peak_raw = 112;
  t.payload_acquires = 113;
  t.payload_slab_allocs = 114;
  t.payload_peak_live = 115;
  t.net_memory_bytes = 116;
  t.routing_memory_bytes = 117;
  t.servent_memory_bytes = 118;
  t.churn_deaths = 119;
  t.invariant_violations = 120;
  t.overlay_disrupted_s = 121.5;
  const std::pair<std::string, std::string> expected[] = {
      {"type", "\"seed\""},
      {"index", "3"},
      {"seed", "77"},
      {"wall_s", "0.500000"},
      {"events", "101"},
      {"events_per_sec", "123.250000"},
      {"frames_tx", "102"},
      {"frames_rx", "103"},
      {"frames_lost", "104"},
      {"peak_queue_depth", "105"},
      {"queue_pushes", "106"},
      {"queue_pops", "107"},
      {"queue_tombstones_purged", "108"},
      {"queue_compactions", "109"},
      {"queue_ladder_spills", "110"},
      {"queue_ladder_rebuckets", "111"},
      {"queue_peak_raw", "112"},
      {"payload_acquires", "113"},
      {"payload_slab_allocs", "114"},
      {"payload_peak_live", "115"},
      {"net_memory_bytes", "116"},
      {"routing_memory_bytes", "117"},
      {"servent_memory_bytes", "118"},
      {"churn_deaths", "119"},
      {"invariant_violations", "120"},
      {"overlay_disrupted_s", "121.500000"},
  };
  const std::string line = scenario::seed_line_json(t);
  std::vector<std::string> keys;
  for (const auto& [key, value] : expected) {
    keys.push_back(key);
    EXPECT_EQ(line_value(line, key), value) << key << " in " << line;
  }
  EXPECT_EQ(line_keys(line), keys) << line;  // each key once, in order

  // Without timing, the same line minus wall_s and events_per_sec.
  std::erase(keys, "wall_s");
  std::erase(keys, "events_per_sec");
  EXPECT_EQ(line_keys(scenario::seed_line_json(t, false)), keys);

  // A fault-free run and a faulted one write the same key sequence.
  Parameters quiet = tiny_scenario(core::AlgorithmKind::kRegular);
  Parameters faulted = quiet;
  faulted.fault.churn_rate_per_hour = 60.0;
  faulted.invariant_check_interval_s = 30.0;
  scenario::SeedTelemetry quiet_t, faulted_t;
  scenario::run_single_seed(quiet, &quiet_t);
  scenario::run_single_seed(faulted, &faulted_t);
  EXPECT_EQ(quiet_t.churn_deaths, 0U);
  EXPECT_GT(faulted_t.churn_deaths, 0U);
  for (const bool timing : {true, false}) {
    const std::string quiet_line = scenario::seed_line_json(quiet_t, timing);
    const std::string faulted_line =
        scenario::seed_line_json(faulted_t, timing);
    EXPECT_EQ(line_keys(quiet_line), line_keys(faulted_line))
        << quiet_line << "\n" << faulted_line;
  }
}

// docs/determinism.md documents the seed line: its "JSONL run telemetry"
// table must list exactly the keys seed_line_json writes, in order.
TEST(Telemetry, MatchesDocumentedSeedLineKeys) {
  std::ifstream doc(P2P_DETERMINISM_DOC);
  ASSERT_TRUE(doc) << P2P_DETERMINISM_DOC;
  std::vector<std::string> documented;
  bool in_section = false;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## JSONL run telemetry";
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    std::istringstream cell(line.substr(1, line.find('|', 1) - 1));
    std::string token;
    while (std::getline(cell, token, '`') && std::getline(cell, token, '`')) {
      documented.push_back(token);
    }
  }
  EXPECT_EQ(documented, line_keys(scenario::seed_line_json({})));
}

TEST(Experiment, BenchSeedCountReadsEnvironment) {
  ::setenv("P2P_BENCH_SEEDS", "7", 1);
  EXPECT_EQ(scenario::bench_seed_count(), 7U);
  ::setenv("P2P_BENCH_SEEDS", "garbage", 1);
  EXPECT_EQ(scenario::bench_seed_count(), scenario::kPaperSeeds);
  ::unsetenv("P2P_BENCH_SEEDS");
  EXPECT_EQ(scenario::bench_seed_count(), scenario::kPaperSeeds);
}

}  // namespace
