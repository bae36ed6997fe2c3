// Quickstart: simulate a small P2P-over-MANET deployment with each of the
// four (re)configuration algorithms and print a comparison summary.
//
//   $ ./quickstart [key=value ...]
//
// e.g. ./quickstart num_nodes=100 duration_s=600 algorithm=random
//
// When an explicit `algorithm=` override is given only that algorithm
// runs; otherwise all four are compared.
#include <iostream>

#include "core/factory.hpp"
#include "scenario/run.hpp"
#include "stats/table.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace p2p;

  util::Config config;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    if (!config.parse_override(argv[i], &error)) {
      std::cerr << "bad argument '" << argv[i] << "': " << error << "\n";
      return 1;
    }
  }

  scenario::Parameters base;
  base.num_nodes = 50;
  base.duration_s = 900.0;  // keep the quickstart quick
  if (const std::string error = base.apply(config); !error.empty()) {
    std::cerr << "bad parameter: " << error << "\n";
    return 1;
  }

  std::vector<core::AlgorithmKind> algorithms;
  if (config.get_string("algorithm")) {
    algorithms.push_back(base.algorithm);
  } else {
    algorithms = {core::AlgorithmKind::kBasic, core::AlgorithmKind::kRegular,
                  core::AlgorithmKind::kRandom, core::AlgorithmKind::kHybrid};
  }

  std::cout << "p2pmanet quickstart — " << base.num_nodes << " nodes, "
            << base.num_members() << " p2p members, " << base.duration_s
            << " s simulated\n\n";

  stats::Table table({"algorithm", "conns/node", "connect rx/node",
                      "ping rx/node", "query rx/node", "answers/req",
                      "overlay CC", "overlay L", "frames tx"});

  for (const auto kind : algorithms) {
    scenario::Parameters params = base;
    params.algorithm = kind;
    scenario::SimulationRun run(params);
    const scenario::RunResult result = run.run();

    double conns = 0.0;
    for (std::size_t i = 0; i < run.member_count(); ++i) {
      conns += static_cast<double>(run.servent(i).connections().size());
    }
    conns /= static_cast<double>(run.member_count());

    double connect_rx = 0.0, ping_rx = 0.0, query_rx = 0.0;
    for (const auto& c : result.counters) {
      connect_rx += static_cast<double>(c.connect_received());
      ping_rx += static_cast<double>(c.ping_received());
      query_rx += static_cast<double>(c.query_received());
    }
    const auto members = static_cast<double>(result.num_members);
    connect_rx /= members;
    ping_rx /= members;
    query_rx /= members;

    double answers = 0.0;
    std::uint64_t requests = 0;
    for (const auto& f : result.per_file) {
      answers += static_cast<double>(f.answers_total);
      requests += f.requests;
    }
    const double answers_per_req =
        requests == 0 ? 0.0 : answers / static_cast<double>(requests);

    std::vector<std::string> row;
    row.push_back(core::algorithm_name(kind));
    const auto fmt = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", v);
      return std::string(buf);
    };
    row.push_back(fmt(conns));
    row.push_back(fmt(connect_rx));
    row.push_back(fmt(ping_rx));
    row.push_back(fmt(query_rx));
    row.push_back(fmt(answers_per_req));
    row.push_back(fmt(result.overlay_final.clustering));
    row.push_back(fmt(result.overlay_final.path_length));
    row.push_back(std::to_string(result.frames_transmitted));
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::cout << "\n'connect/ping/query rx' are messages received per p2p "
               "member —\nthe quantities Figures 7-12 of the paper plot.\n";
  return 0;
}
