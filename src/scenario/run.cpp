#include "scenario/run.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "content/zipf.hpp"
#include "core/factory.hpp"
#include "routing/aodv.hpp"
#include "routing/dsdv.hpp"
#include "routing/dsr.hpp"
#include "core/hybrid.hpp"
#include "mobility/gauss_markov.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/random_waypoint.hpp"
#include "sim/sharded.hpp"
#include "util/assert.hpp"

namespace p2p::scenario {

SimulationRun::SimulationRun(const Parameters& params)
    : params_(params), rngs_(params.seed) {}

SimulationRun::~SimulationRun() = default;

void SimulationRun::build() {
  P2P_ASSERT_MSG(!built_, "build() called twice");
  built_ = true;

  num_shards_ = params_.effective_sim_shards();
  if (num_shards_ > 1) {
    shard_sims_.reserve(num_shards_);
    for (std::size_t s = 0; s < num_shards_; ++s) {
      shard_sims_.push_back(std::make_unique<sim::Simulator>());
    }
  }

  net::NetworkParams net_params;
  net_params.region = {params_.area_width, params_.area_height};
  net_params.range = params_.radio_range;
  net_params.mac = params_.mac;
  net_params.max_speed_hint = params_.mobile ? params_.max_speed : 0.01;
  network_ = std::make_unique<net::Network>(sim_, net_params,
                                            rngs_.stream("mac"));

  mobility::RandomWaypointParams rwp;  // random direction takes them too
  rwp.region = net_params.region;
  rwp.max_speed = params_.max_speed;
  rwp.min_speed = params_.min_speed;
  rwp.max_pause = params_.max_pause;
  // Physical nodes first (mobility stream draws and add_node order exactly
  // as before the loop was split — add_node pushes no events).
  for (std::size_t i = 0; i < params_.num_nodes; ++i) {
    std::unique_ptr<mobility::MobilityModel> model;
    if (params_.mobile &&
        params_.mobility_kind == MobilityKind::kRandomWaypoint) {
      model = std::make_unique<mobility::RandomWaypoint>(
          rwp, rngs_.stream("mobility", i));
    } else if (params_.mobile &&
               params_.mobility_kind == MobilityKind::kRandomDirection) {
      model = std::make_unique<mobility::RandomDirection>(
          rwp, rngs_.stream("mobility", i));
    } else if (params_.mobile &&
               params_.mobility_kind == MobilityKind::kGaussMarkov) {
      mobility::GaussMarkovParams gmp;
      gmp.region = net_params.region;
      gmp.mean_speed = 0.7 * params_.max_speed;
      model = std::make_unique<mobility::GaussMarkov>(
          gmp, rngs_.stream("mobility", i));
    } else {
      auto rng = rngs_.stream("mobility", i);
      model = std::make_unique<mobility::StaticModel>(geo::Vec2{
          rng.uniform(0.0, params_.area_width),
          rng.uniform(0.0, params_.area_height)});
    }
    network_->add_node(std::move(model), params_.energy);
  }

  // Shard assignment: 2-D tiling of the region by t=0 positions. A node's
  // home shard is FIXED for the whole run — correctness never depends on
  // the tiling (cross-shard frames go through the barrier merge), only the
  // cross-shard traffic ratio does, and under the paper's mobility bounds
  // nodes drift slowly enough that the t=0 tiling keeps most frames
  // in-lane for the full hour.
  if (num_shards_ > 1) {
    std::size_t lo = 1;  // largest divisor <= sqrt(num_shards_)
    for (std::size_t d = 1; d * d <= num_shards_; ++d) {
      if (num_shards_ % d == 0) lo = d;
    }
    const std::size_t hi = num_shards_ / lo;
    const std::size_t cols = params_.area_width >= params_.area_height ? hi : lo;
    const std::size_t rows = num_shards_ / cols;
    const double tile_w = params_.area_width / static_cast<double>(cols);
    const double tile_h = params_.area_height / static_cast<double>(rows);
    home_shard_.resize(params_.num_nodes);
    for (net::NodeId i = 0; i < params_.num_nodes; ++i) {
      const geo::Vec2 pos = network_->position_of(i);
      auto tx = static_cast<std::size_t>(pos.x / tile_w);
      auto ty = static_cast<std::size_t>(pos.y / tile_h);
      if (tx >= cols) tx = cols - 1;
      if (ty >= rows) ty = rows - 1;
      home_shard_[i] = static_cast<std::uint32_t>(ty * cols + tx);
    }
    std::vector<sim::Simulator*> raw_sims;
    std::vector<sim::RngStream> mac_rngs;
    raw_sims.reserve(num_shards_);
    mac_rngs.reserve(num_shards_);
    for (std::size_t s = 0; s < num_shards_; ++s) {
      raw_sims.push_back(shard_sims_[s].get());
      mac_rngs.push_back(rngs_.stream("mac", s));
    }
    network_->enable_sharding(std::move(raw_sims), home_shard_,
                              std::move(mac_rngs));
  }

  // Routing stack, each agent on its node's home Simulator.
  for (std::size_t i = 0; i < params_.num_nodes; ++i) {
    const auto id = static_cast<net::NodeId>(i);
    sim::Simulator& node_sim = sim_for(id);
    if (params_.routing_protocol == RoutingProtocol::kDsdv) {
      // Each agent attaches itself to the network as a LinkListener.
      auto agent = std::make_unique<routing::DsdvAgent>(node_sim, *network_,
                                                        id, params_.dsdv);
      routing_.push_back(std::move(agent));
    } else if (params_.routing_protocol == RoutingProtocol::kDsr) {
      routing_.push_back(std::make_unique<routing::DsrAgent>(
          node_sim, *network_, id, params_.dsr));
    } else {
      routing_.push_back(std::make_unique<routing::AodvAgent>(
          node_sim, *network_, id, params_.aodv));
    }
    flood_.push_back(std::make_unique<routing::FloodService>(
        node_sim, *network_, id, routing_.back().get()));
  }

  // Pick the P2P members: a seeded random subset of 75% of the nodes.
  std::vector<net::NodeId> ids(params_.num_nodes);
  std::iota(ids.begin(), ids.end(), 0U);
  {
    auto rng = rngs_.stream("members");
    rng.shuffle(ids);
  }
  const std::size_t m = params_.num_members();
  members_.assign(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(m));
  std::sort(members_.begin(), members_.end());
  // Inverse map, built once: overlay_graph() runs on every monitor tick
  // and sample, so a per-call O(num_nodes) rebuild would reintroduce a
  // whole-population scan on the fault-monitor path.
  node_to_member_.assign(params_.num_nodes, net::kInvalidNode);
  for (std::size_t idx = 0; idx < members_.size(); ++idx) {
    node_to_member_[members_[idx]] = static_cast<std::uint32_t>(idx);
  }

  // Content placement over members.
  const content::ZipfLaw law(params_.num_files, params_.max_frequency);
  placement_ = std::make_unique<content::Placement>(
      law, static_cast<std::uint32_t>(m), rngs_.stream("placement"));
  per_file_.assign(params_.num_files, FileRankStats{});
  if (num_shards_ > 1) {
    per_file_lanes_.assign(num_shards_,
                           std::vector<FileRankStats>(params_.num_files));
  }

  // Qualifiers (Hybrid): a capability ranking over the members.
  std::vector<std::uint32_t> qualifiers(m);
  std::iota(qualifiers.begin(), qualifiers.end(), 1U);
  {
    auto rng = rngs_.stream("qualifier");
    rng.shuffle(qualifiers);
    if (params_.qualifier_dist == QualifierDist::kTwoClass) {
      // 20% strong devices keep high ranks; the rest get rank 0 buckets
      // (ties broken by node id inside the algorithm).
      for (std::size_t i = 0; i < m; ++i) {
        const bool strong = qualifiers[i] > static_cast<std::uint32_t>(0.8 * static_cast<double>(m));
        qualifiers[i] = strong ? qualifiers[i] : 0;
      }
    }
  }

  // Servents.
  for (std::size_t idx = 0; idx < m; ++idx) {
    const net::NodeId id = members_[idx];
    core::ServentContext ctx;
    ctx.sim = &sim_for(id);
    ctx.net = network_.get();
    ctx.routing = routing_[id].get();
    ctx.flood = flood_[id].get();
    ctx.self = id;
    auto servent =
        core::make_servent(params_.algorithm, ctx, params_.p2p,
                           rngs_.stream("servent", idx), qualifiers[idx]);
    servent->set_placement(placement_.get(),
                           static_cast<std::uint32_t>(idx));
    servent->set_query_recorder(this);
    servents_.push_back(std::move(servent));
  }

  // Joins staggered within [0, join_stagger_s); each join runs on the
  // member's home Simulator so its whole protocol cascade stays in-lane.
  auto join_rng = rngs_.stream("join");
  for (std::size_t idx = 0; idx < servents_.size(); ++idx) {
    const double offset = params_.join_stagger_s > 0.0
                              ? join_rng.uniform(0.0, params_.join_stagger_s)
                              : 0.0;
    core::Servent* raw = servents_[idx].get();
    sim_for(members_[idx]).at(offset, [raw] { raw->start(); });
  }

  // Periodic overlay sampling via a self-rescheduling functor.
  if (params_.overlay_sample_interval_s > 0.0) {
    struct Sampler {
      SimulationRun* run;
      double interval;
      void operator()() const {
        run->sample_overlay();
        run->sim_.after(interval, *this);
      }
    };
    sim_.after(params_.overlay_sample_interval_s,
               Sampler{this, params_.overlay_sample_interval_s});
  }

  // Node -> servent map for the fault seams (nullptr for non-members).
  servent_of_node_.assign(params_.num_nodes, nullptr);
  for (std::size_t idx = 0; idx < m; ++idx) {
    servent_of_node_[members_[idx]] = servents_[idx].get();
  }
  crashed_member_.assign(params_.num_nodes, 0);

  // Invariant checker (off by default; observational only). Its sweeps
  // run on the global simulator, so sharded runs sweep a quiesced world.
  if (params_.invariant_check_interval_s > 0.0) {
    checker_ = std::make_unique<fault::InvariantChecker>(*network_);
    for (auto& servent : servents_) checker_->add_servent(servent.get());
    for (auto& agent : routing_) {
      if (auto* aodv = dynamic_cast<routing::AodvAgent*>(agent.get())) {
        checker_->add_aodv(aodv);
      }
    }
    for (auto& flood : flood_) checker_->add_flood(flood.get());
    struct Sweeper {
      SimulationRun* run;
      double interval;
      void operator()() const {
        run->checker_->sweep(run->sim_.now());
        run->sim_.after(interval, *this);
      }
    };
    sim_.after(params_.invariant_check_interval_s,
               Sweeper{this, params_.invariant_check_interval_s});
  }

  // Fault injection: churn, link blackouts, loss bursts.
  if (params_.fault.enabled()) {
    fault::FaultPlan plan = fault::FaultPlan::compile(
        params_.fault, params_.num_nodes, params_.duration_s, rngs_);
    fault::FaultHooks hooks;
    hooks.on_crash = [this](net::NodeId id) { crash_node(id); };
    hooks.on_recover = [this](net::NodeId id) { recover_node(id); };
    hooks.on_boundary = [this](sim::SimTime now) {
      if (checker_) checker_->sweep(now);
    };
    injector_ = std::make_unique<fault::FaultInjector>(
        sim_, *network_, std::move(plan), std::move(hooks));
    injector_->arm();
    if (params_.fault_monitor_interval_s > 0.0) {
      struct Monitor {
        SimulationRun* run;
        double interval;
        void operator()() const {
          run->fault_monitor_tick();
          run->sim_.after(interval, *this);
        }
      };
      sim_.after(params_.fault_monitor_interval_s,
                 Monitor{this, params_.fault_monitor_interval_s});
    }
  }

  // Injected worker crash: abort the repetition itself at a fixed sim
  // time. Sequential execution only — the exception must unwind on the
  // thread that called run() (Parameters::apply rejects it when sharded).
  if (params_.fault.crash_run_enabled()) {
    P2P_ASSERT_MSG(num_shards_ == 1,
                   "fault crash_run_at requires sequential execution");
    sim_.after(params_.fault.crash_run_at_s, [] {
      throw std::runtime_error(
          "injected worker crash (fault crash_run_at)");
    });
  }
}

void SimulationRun::crash_node(net::NodeId id) {
  P2P_ASSERT(id < params_.num_nodes);
  network_->set_failed(id, true);
  // Volatile state dies with the node; monotonic ids survive inside each
  // component (see FloodService::on_crash / RoutingService::reset).
  flood_[id]->on_crash();
  routing_[id]->reset();
  if (core::Servent* s = servent_of_node_[id]; s != nullptr && s->started()) {
    s->crash();
    crashed_member_[id] = 1;
  }
  if (checker_) checker_->note_node_down(id, sim_.now());
}

void SimulationRun::recover_node(net::NodeId id) {
  P2P_ASSERT(id < params_.num_nodes);
  network_->set_failed(id, false);
  if (checker_) checker_->note_node_up(id, sim_.now());
  // Only servents crash_node() stopped are restarted here — a servent whose
  // join event has not fired yet starts through that event instead.
  if (crashed_member_[id] != 0) {
    crashed_member_[id] = 0;
    servent_of_node_[id]->rejoin();
  }
}

void SimulationRun::fault_monitor_tick() {
  // Overlay connectivity restricted to live, running members: fragmented
  // means some live member cannot reach some other live member over the
  // reference graph. Dead members are excluded — losing them is not a
  // failure the overlay can repair.
  std::vector<std::uint32_t> live;  // member indices
  for (std::size_t idx = 0; idx < members_.size(); ++idx) {
    if (network_->alive(members_[idx]) && servents_[idx]->started()) {
      live.push_back(static_cast<std::uint32_t>(idx));
    }
  }
  bool fragmented = false;
  if (live.size() > 1) {
    const graph::Graph g = overlay_graph();
    // BFS from the first live member over live members only.
    std::vector<char> seen(members_.size(), 0);
    std::vector<char> is_live(members_.size(), 0);
    for (const auto idx : live) is_live[idx] = 1;
    std::vector<std::uint32_t> queue{live.front()};
    seen[live.front()] = 1;
    std::size_t reached = 1;
    while (!queue.empty()) {
      const std::uint32_t v = queue.back();
      queue.pop_back();
      for (const auto w : g.neighbors(v)) {
        if (is_live[w] == 0 || seen[w] != 0) continue;
        seen[w] = 1;
        ++reached;
        queue.push_back(w);
      }
    }
    fragmented = reached < live.size();
  }
  const sim::SimTime now = sim_.now();
  if (fragmented && !overlay_fragmented_) {
    overlay_fragmented_ = true;
    fragmented_since_ = now;
  } else if (!fragmented && overlay_fragmented_) {
    overlay_fragmented_ = false;
    repair_time_total_ += now - fragmented_since_;
    ++overlay_repairs_;
  }
}

graph::Graph SimulationRun::overlay_graph() const {
  // Vertices are member indices; an edge exists wherever at least one
  // endpoint holds a reference to the other. node_to_member_ is the
  // inverse map precomputed by build().
  graph::Graph g(members_.size());
  for (std::size_t idx = 0; idx < servents_.size(); ++idx) {
    for (const net::NodeId peer : servents_[idx]->connections().peers()) {
      if (peer < node_to_member_.size() &&
          node_to_member_[peer] != net::kInvalidNode) {
        g.add_edge(static_cast<graph::Vertex>(idx), node_to_member_[peer]);
      }
    }
  }
  return g;
}

void SimulationRun::sample_overlay() {
  overlay_samples_.push_back(graph::analyze(overlay_graph()));
}

void SimulationRun::on_request_complete(core::FileId file, int answers,
                                        int min_physical_hops,
                                        int min_p2p_hops) {
  P2P_ASSERT(file >= 1 && file <= per_file_.size());
  // Inside a shard window this runs concurrently with other lanes:
  // accumulate into the calling lane's private copy (merged at collect).
  const std::size_t shard = network_->current_shard();
  FileRankStats& stats = shard == net::Network::kNoShard
                             ? per_file_[file - 1]
                             : per_file_lanes_[shard][file - 1];
  ++stats.requests;
  if (answers > 0) {
    ++stats.answered;
    stats.answers_total += static_cast<std::uint64_t>(answers);
    if (min_physical_hops >= 0) {
      stats.sum_min_physical += min_physical_hops;
      ++stats.physical_samples;
    }
    if (min_p2p_hops >= 0) {
      stats.sum_min_p2p += min_p2p_hops;
      ++stats.p2p_samples;
    }
  }
}

core::Servent& SimulationRun::servent(std::size_t member_index) {
  P2P_ASSERT(member_index < servents_.size());
  return *servents_[member_index];
}

net::NodeId SimulationRun::member_node(std::size_t member_index) const {
  P2P_ASSERT(member_index < members_.size());
  return members_[member_index];
}

RunResult SimulationRun::run() {
  if (!built_) build();
  if (num_shards_ > 1) {
    std::vector<sim::Simulator*> shards;
    shards.reserve(shard_sims_.size());
    for (const auto& s : shard_sims_) shards.push_back(s.get());
    sim::ShardedExecutor executor(std::move(shards), &sim_,
                                  net::min_frame_latency(params_.mac),
                                  params_.sim_threads);
    sim::ShardedExecutor::Callbacks cb;
    cb.before_window = [this](sim::SimTime start, sim::SimTime end) {
      network_->begin_window(start, end);
    };
    cb.after_window = [this](sim::SimTime end) { network_->end_window(end); };
    cb.enter_shard = [this](std::size_t s) { network_->enter_shard(s); };
    cb.exit_shard = [this] { network_->exit_shard(); };
    executor.run(params_.duration_s, cb);
  } else {
    sim_.run_until(params_.duration_s);
  }
  return collect();
}

RunResult SimulationRun::collect() {
  RunResult result;
  result.num_nodes = params_.num_nodes;
  result.num_members = members_.size();
  result.counters.reserve(servents_.size());
  for (const auto& servent : servents_) {
    result.counters.push_back(servent->counters());
    result.connections_established += servent->connections_established();
    result.connections_closed += servent->connections_closed();
  }
  // Fold per-lane request stats into the sequential accumulator (pure
  // sums, so the merge is exact and order-free).
  for (const auto& lane : per_file_lanes_) {
    for (std::size_t f = 0; f < lane.size(); ++f) {
      FileRankStats& dst = per_file_[f];
      const FileRankStats& src = lane[f];
      dst.requests += src.requests;
      dst.answered += src.answered;
      dst.answers_total += src.answers_total;
      dst.sum_min_physical += src.sum_min_physical;
      dst.physical_samples += src.physical_samples;
      dst.sum_min_p2p += src.sum_min_p2p;
      dst.p2p_samples += src.p2p_samples;
    }
  }
  per_file_lanes_.clear();
  result.per_file = per_file_;

  result.frames_transmitted = network_->frames_transmitted();
  result.frames_delivered = network_->frames_delivered();
  result.frames_lost = network_->frames_lost();
  for (std::size_t i = 0; i < params_.num_nodes; ++i) {
    result.energy_consumed_j +=
        network_->energy(static_cast<net::NodeId>(i)).consumed_j();
    const auto telemetry = routing_[i]->telemetry();
    result.routing_control_messages += telemetry.control_messages_sent;
    result.data_delivered += telemetry.data_delivered;
    result.data_dropped += telemetry.data_dropped;
  }
  // Sharded runs sum over the global queue plus every shard queue: event
  // counts are additive, and the summed per-queue high-water marks bound
  // (and in practice track) total resident events.
  result.events_processed = sim_.events_processed();
  result.peak_queue_depth = sim_.peak_events_pending();
  const auto add_queue_stats = [&result](const sim::Simulator& s) {
    const sim::EventQueue::Stats& q = s.queue_stats();
    result.queue_pushes += s.events_scheduled();
    result.queue_pops += q.pops;
    result.queue_tombstones_purged += q.tombstones_purged;
    result.queue_compactions += q.compactions;
    result.queue_ladder_spills += q.ladder_spills;
    result.queue_ladder_rebuckets += q.ladder_rebuckets;
    result.queue_peak_raw += s.peak_raw_events_pending();
  };
  add_queue_stats(sim_);
  for (const auto& shard : shard_sims_) {
    result.events_processed += shard->events_processed();
    result.peak_queue_depth += shard->peak_events_pending();
    add_queue_stats(*shard);
  }

  result.net_memory_bytes = network_->memory_bytes();
  for (const auto& agent : routing_) {
    result.routing_memory_bytes += agent->memory_bytes();
  }
  for (const auto& servent : servents_) {
    result.servent_memory_bytes += servent->memory_bytes();
  }

  const net::PayloadPools::Stats pool_stats = network_->pool_stats();
  result.payload_acquires = pool_stats.acquires;
  result.payload_slab_allocs = pool_stats.slab_allocs;
  result.payload_peak_live = pool_stats.peak_live;

  if (injector_) {
    const fault::FaultStats& fstats = injector_->stats();
    result.churn_deaths = fstats.crashes;
    result.churn_recoveries = fstats.recoveries;
    result.link_blackouts = fstats.blackouts;
    result.loss_bursts = fstats.bursts;
    // A disruption still open at the end counts as disrupted time (but not
    // as a completed repair).
    double disrupted = repair_time_total_;
    if (overlay_fragmented_) disrupted += sim_.now() - fragmented_since_;
    result.overlay_disrupted_s = disrupted;
    result.overlay_repairs = overlay_repairs_;
    result.mean_repair_time_s =
        overlay_repairs_ == 0
            ? 0.0
            : repair_time_total_ / static_cast<double>(overlay_repairs_);
    for (std::size_t idx = 0; idx < servents_.size(); ++idx) {
      const net::NodeId id = members_[idx];
      if (network_->alive(id) && servents_[idx]->started() &&
          servents_[idx]->connections().size() == 0) {
        ++result.orphaned_servents;
      }
    }
  }
  if (checker_) {
    result.invariant_violations = checker_->violations_total();
    // Diagnostic escape hatch: dump recorded violations to stderr so a
    // failing zero-violation assertion can be triaged without a debugger.
    if (result.invariant_violations > 0 &&
        std::getenv("P2P_DUMP_VIOLATIONS") != nullptr) {
      for (const fault::Violation& v : checker_->violations()) {
        std::fprintf(stderr, "violation t=%.3f node=%u %s: %s\n", v.time,
                     v.node, fault::invariant_kind_name(v.kind),
                     v.detail.c_str());
      }
    }
  }

  result.overlay_samples = overlay_samples_;
  result.overlay_final = graph::analyze(overlay_graph());
  result.physical_final = graph::analyze(graph::Graph(
      network_->adjacency_snapshot()));

  if (params_.algorithm == core::AlgorithmKind::kHybrid) {
    for (const auto& servent : servents_) {
      const auto& hybrid = static_cast<const core::HybridServent&>(*servent);
      if (hybrid.state() == core::HybridState::kMaster) ++result.masters;
      if (hybrid.state() == core::HybridState::kSlave) ++result.slaves;
    }
  }
  return result;
}

std::vector<double> RunResult::connect_received_per_member() const {
  std::vector<double> out;
  out.reserve(counters.size());
  for (const auto& c : counters) {
    out.push_back(static_cast<double>(c.connect_received()));
  }
  return out;
}

std::vector<double> RunResult::ping_received_per_member() const {
  std::vector<double> out;
  out.reserve(counters.size());
  for (const auto& c : counters) {
    out.push_back(static_cast<double>(c.ping_received()));
  }
  return out;
}

std::vector<double> RunResult::query_received_per_member() const {
  std::vector<double> out;
  out.reserve(counters.size());
  for (const auto& c : counters) {
    out.push_back(static_cast<double>(c.query_received()));
  }
  return out;
}

}  // namespace p2p::scenario
