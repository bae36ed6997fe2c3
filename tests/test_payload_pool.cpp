// Payload pool unit and lifetime tests (see DESIGN.md "Overlay payload
// ownership"). The unit tests pin the Ref/Pool contract — non-atomic
// refcounts, slot recycling to the default-constructed state, rc-neutral
// copies, pools that outlive their owning registry, and the pool-made copy
// the shard barrier moves a frame across lanes with. The scenario test at
// the bottom is the lifetime stress: a churning overlay floods queries
// while origins crash and rejoin, so pooled slots are recycled and refilled
// under in-flight traffic; run under the asan preset this proves slot reuse
// never touches a payload something still references.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "net/payload.hpp"
#include "routing/dsdv.hpp"
#include "routing/dsr.hpp"
#include "routing/messages.hpp"
#include "scenario/parameters.hpp"
#include "scenario/run.hpp"

namespace {

using namespace p2p;

struct Blob : net::RefCountBase {
  int value = 0;
  std::vector<int> data;
};

// A payload holding a Ref to another payload (the flood path keeps the
// original query inside forwarded wrappers like this).
struct Wrapper : net::RefCountBase {
  net::Ref<const Blob> inner;
};

TEST(PayloadPool, MakeGivesExclusiveDefaultConstructedPayload) {
  net::PayloadPools pools;
  net::Ref<Blob> ref = pools.make<Blob>();
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.use_count(), 1U);
  EXPECT_EQ(ref->value, 0);
  EXPECT_TRUE(ref->data.empty());
  const net::PayloadPools::Stats stats = pools.stats();
  EXPECT_EQ(stats.acquires, 1U);
  EXPECT_EQ(stats.peak_live, 1U);
}

TEST(PayloadPool, CopiesShareTheObjectAndCountNonAtomically) {
  net::PayloadPools pools;
  net::Ref<Blob> a = pools.make<Blob>();
  a.edit()->value = 42;
  net::Ref<Blob> b = a;
  net::Ref<const Blob> c = b;  // converting copy
  EXPECT_EQ(a.use_count(), 3U);
  EXPECT_EQ(c->value, 42);
  EXPECT_EQ(a.get(), c.get());
  b.reset();
  EXPECT_EQ(a.use_count(), 2U);
}

TEST(PayloadPool, LastDropRecyclesTheSlotBackToDefaultState) {
  net::PayloadPools pools;
  net::Ref<Blob> a = pools.make<Blob>();
  a.edit()->value = 7;
  a.edit()->data = {1, 2, 3};
  const Blob* slot = a.get();
  a.reset();
  // LIFO freelist: the next acquisition reuses the same slot, reset to
  // the default-constructed state — no stale fields leak through.
  net::Ref<Blob> b = pools.make<Blob>();
  EXPECT_EQ(b.get(), slot);
  EXPECT_EQ(b->value, 0);
  EXPECT_TRUE(b->data.empty());
  EXPECT_EQ(b.use_count(), 1U);
  EXPECT_EQ(pools.stats().peak_live, 1U);
}

TEST(PayloadPool, SlabGrowsOnlyOnFreelistMiss) {
  net::PayloadPools pools;
  std::vector<net::Ref<Blob>> live;
  for (int i = 0; i < 100; ++i) live.push_back(pools.make<Blob>());
  const net::PayloadPools::Stats grown = pools.stats();
  EXPECT_EQ(grown.acquires, 100U);
  EXPECT_EQ(grown.slab_allocs, 100U);  // every first-touch is a miss
  EXPECT_EQ(grown.peak_live, 100U);
  live.clear();
  for (int i = 0; i < 100; ++i) live.push_back(pools.make<Blob>());
  const net::PayloadPools::Stats steady = pools.stats();
  EXPECT_EQ(steady.acquires, 200U);
  EXPECT_EQ(steady.slab_allocs, 100U);  // steady state: all freelist hits
  EXPECT_EQ(steady.peak_live, 100U);
}

TEST(PayloadPool, MakeFromFillsASlotWithoutClobberingOwnership) {
  net::PayloadPools pools;
  Blob plain;
  plain.value = 9;
  plain.data = {4, 5};
  net::Ref<Blob> ref = pools.make_from(plain);
  EXPECT_EQ(ref->value, 9);
  EXPECT_EQ(ref->data, (std::vector<int>{4, 5}));
  EXPECT_EQ(ref.use_count(), 1U);  // assignment did not copy the count
  ref.reset();
  EXPECT_EQ(pools.stats().acquires, 1U);
}

TEST(PayloadPool, RecycleDropsNestedRefsPromptly) {
  net::PayloadPools pools;
  net::Ref<const Blob> inner = pools.make<Blob>();
  net::Ref<Wrapper> outer = pools.make<Wrapper>();
  outer.edit()->inner = inner;
  EXPECT_EQ(inner.use_count(), 2U);
  outer.reset();  // recycling assigns Wrapper{} — the nested Ref releases
  EXPECT_EQ(inner.use_count(), 1U);
}

TEST(PayloadPool, PoolOutlivesItsOwningRegistry) {
  // The Network (and its PayloadPools) is destroyed before the Simulator,
  // while queued frames may still hold Refs. The pool must stay alive
  // until the last payload releases. asan turns a violation into a
  // use-after-free here.
  auto pools = std::make_unique<net::PayloadPools>();
  net::Ref<Blob> survivor = pools->make<Blob>();
  survivor.edit()->value = 11;
  net::Ref<Blob> copy = survivor;
  pools.reset();  // registry gone; payload + pool must survive
  EXPECT_EQ(survivor->value, 11);
  survivor.reset();
  EXPECT_EQ(copy->value, 11);
  copy.reset();  // last drop frees the orphaned pool itself
}

// ------------------------------------------------- cross-shard copy

using FrameTypes =
    std::tuple<routing::Rreq, routing::Rrep, routing::Rerr, routing::DataMsg,
               routing::FloodMsg, routing::DsdvUpdate, routing::DsrRreq,
               routing::DsrRrep, routing::DsrRerr, routing::DsrData>;
using AppTypes =
    std::tuple<core::ConnectProbe, core::ConnectOffer, core::ConnectRequest,
               core::ConnectAck, core::Ping, core::Pong, core::Query,
               core::QueryHit, core::Capture, core::SlaveRequest,
               core::SlaveAccept, core::SlaveConfirm, core::SlaveReject,
               core::Bye>;

template <typename... Ts, typename Fn>
void for_each_type(std::tuple<Ts...>*, Fn&& fn) {
  (fn(std::type_identity<Ts>{}), ...);
}

// Copies `src` into fresh pools, as the barrier does for a destination
// lane (through the bare FramePayload), and checks the copy: a distinct
// object of the same kind, made with `objects` pool acquisitions.
net::FramePayloadPtr copy_fresh(const net::FramePayload& src,
                                std::uint64_t objects) {
  net::PayloadPools pools;
  net::FramePayloadPtr copy = pools.copy_of(src);
  EXPECT_TRUE(copy);
  if (!copy) return copy;
  EXPECT_EQ(copy->kind, src.kind);
  EXPECT_NE(copy.get(), &src);
  EXPECT_EQ(pools.stats().acquires, objects);
  return copy;
}

// Only AODV frames cross shards in the scenario tests, so the other
// payload types are pinned here: every routing::FrameKind, bare, and every
// core::MsgType inside each frame kind that carries an app (DataMsg,
// FloodMsg, DsrData), whose app must be copied into a distinct object too.
TEST(PayloadPool, CrossShardCloneCoversEveryPayloadKind) {
  net::PayloadPools source;
  std::set<net::PayloadKind> frame_kinds;
  std::set<net::PayloadKind> app_kinds;
  std::size_t app_frames = 0;
  for_each_type(static_cast<FrameTypes*>(nullptr), [&](auto frame_tag) {
    using F = typename decltype(frame_tag)::type;
    const net::Ref<F> bare = source.make<F>();
    if (const auto copy = copy_fresh(*bare, 1)) {
      frame_kinds.insert(copy->kind);
    }
    if constexpr (requires(const F& f) { f.app; }) {
      ++app_frames;
      for_each_type(static_cast<AppTypes*>(nullptr), [&](auto app_tag) {
        using A = typename decltype(app_tag)::type;
        const net::Ref<F> src = source.make<F>();
        src.edit()->app = source.make<A>();
        const net::FramePayloadPtr copy = copy_fresh(*src, 2);
        ASSERT_TRUE(copy);
        const auto& copied = static_cast<const F&>(*copy);
        ASSERT_TRUE(copied.app);
        EXPECT_EQ(copied.app->kind, src->app->kind);
        EXPECT_NE(copied.app.get(), src->app.get());
        EXPECT_EQ(src->app.use_count(), 1U);  // the copy holds no share
        app_kinds.insert(copied.app->kind);
      });
    }
  });
  EXPECT_EQ(frame_kinds.size(), std::tuple_size_v<FrameTypes>);
  EXPECT_EQ(app_frames, 3U);
  EXPECT_EQ(app_kinds.size(), core::kNumMsgTypes);
  // 10 bare frames, then 3 app-carrying kinds x 14 app kinds x 2 objects;
  // copying never acquires from the source pools.
  EXPECT_EQ(source.stats().acquires,
            std::tuple_size_v<FrameTypes> + 3 * 2 * core::kNumMsgTypes);
}

// A copy carries its source's fields, the nested app's fields included:
// one distinguishing value per type, set before the copy and read after.
TEST(PayloadPool, CrossShardCopyKeepsTheContent) {
  net::PayloadPools source;
  net::PayloadPools dst;
  std::vector<net::FramePayloadPtr> copies;
  const auto copy = [&](const net::FramePayload& src)
      -> const net::FramePayload& {
    copies.push_back(dst.copy_of(src));
    return *copies.back();
  };

  const net::Ref<routing::Rreq> rreq = source.make<routing::Rreq>();
  rreq.edit()->dst = 17;
  EXPECT_EQ(static_cast<const routing::Rreq&>(copy(*rreq)).dst, 17U);

  const net::Ref<routing::Rerr> rerr = source.make<routing::Rerr>();
  rerr.edit()->unreachable = {{3, 9}, {5, 2}};
  EXPECT_EQ(static_cast<const routing::Rerr&>(copy(*rerr)).unreachable,
            rerr->unreachable);

  const net::Ref<routing::DsdvUpdate> update =
      source.make<routing::DsdvUpdate>();
  update.edit()->entries = {{4, 2, 6}, {8, routing::kDsdvInfinity, 7}};
  const auto& update_copy =
      static_cast<const routing::DsdvUpdate&>(copy(*update));
  ASSERT_EQ(update_copy.entries.size(), 2U);
  EXPECT_EQ(update_copy.entries[1].dst, 8U);
  EXPECT_EQ(update_copy.entries[1].metric, routing::kDsdvInfinity);
  EXPECT_EQ(update_copy.entries[1].seq, 7U);

  const net::Ref<routing::DsrData> data = source.make<routing::DsrData>();
  data.edit()->route = {1, 2, 3};
  EXPECT_EQ(static_cast<const routing::DsrData&>(copy(*data)).route,
            data->route);

  const net::Ref<core::Query> query = source.make<core::Query>();
  query.edit()->ttl = 5;
  const net::Ref<routing::FloodMsg> flood = source.make<routing::FloodMsg>();
  flood.edit()->app = query;
  const auto& flood_copy =
      static_cast<const routing::FloodMsg&>(copy(*flood));
  ASSERT_TRUE(flood_copy.app);
  EXPECT_NE(flood_copy.app.get(), query.get());
  EXPECT_EQ(static_cast<const core::Query&>(*flood_copy.app).ttl, 5);
  EXPECT_EQ(query.use_count(), 2U);  // the source frame and this test

  EXPECT_EQ(dst.stats().acquires, 6U);  // five frames and the one query
}

// ------------------------------------------------- lifetime under churn

// Flood traffic in flight while origins crash and rejoin: crashes tear
// down servent state (dropping Refs mid-flood), rebirth re-acquires
// recycled slots, and forwarded queries alias the original payload across
// many nodes. Two same-seed runs must agree bit-for-bit — including the
// pool counters — and the asan preset verifies no recycled slot is ever
// read through a stale reference.
TEST(PayloadPool, SlotReuseUnderChurnIsCleanAndDeterministic) {
  scenario::Parameters params;
  params.num_nodes = 30;
  params.duration_s = 400.0;
  params.seed = 7;
  params.algorithm = core::AlgorithmKind::kHybrid;
  params.fault.churn_rate_per_hour = 40.0;
  params.fault.mean_downtime_s = 30.0;
  params.invariant_check_interval_s = 20.0;

  scenario::SimulationRun first(params);
  const scenario::RunResult a = first.run();
  EXPECT_EQ(a.invariant_violations, 0U);
  EXPECT_GT(a.churn_deaths, 0U);  // the stress actually exercised churn
  EXPECT_GT(a.payload_acquires, 0U);
  EXPECT_GT(a.payload_peak_live, 0U);
  EXPECT_LE(a.payload_slab_allocs, a.payload_acquires);

  scenario::SimulationRun second(params);
  const scenario::RunResult b = second.run();
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.payload_acquires, b.payload_acquires);
  EXPECT_EQ(a.payload_slab_allocs, b.payload_slab_allocs);
  EXPECT_EQ(a.payload_peak_live, b.payload_peak_live);
}

}  // namespace
