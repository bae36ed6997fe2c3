// Payload pool unit and lifetime tests (see DESIGN.md "Overlay payload
// ownership"). The unit tests pin the Ref/Pool contract — non-atomic
// refcounts, slot recycling to the default-constructed state, rc-neutral
// copies, pools that outlive their owning registry. The scenario test at
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
#include "scenario/payload_clone.hpp"
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

TEST(PayloadPool, HeapFallbackWorksWithoutAnyPool) {
  net::Ref<Blob> ref = net::make_payload<Blob>();
  ref.edit()->value = 3;
  net::Ref<const Blob> shared = ref;
  EXPECT_EQ(ref.use_count(), 2U);
  ref.reset();
  EXPECT_EQ(shared->value, 3);
}

// ------------------------------------------------- cross-shard clone

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

// Clones `src` into fresh pools, as the barrier does for a destination
// lane, and checks the copy: a distinct object of the same kind, made with
// `objects` pool acquisitions.
net::FramePayloadPtr clone_fresh(const net::FramePayload& src,
                                 std::uint64_t objects) {
  net::PayloadPools pools;
  net::FramePayloadPtr clone = scenario::clone_frame_payload(src, pools);
  EXPECT_TRUE(clone);
  if (!clone) return clone;
  EXPECT_EQ(clone->kind, src.kind);
  EXPECT_NE(clone.get(), &src);
  EXPECT_EQ(pools.stats().acquires, objects);
  return clone;
}

// Only AODV frames cross shards in the scenario tests, so the cloner's
// other cases are pinned here: every routing::FrameKind, bare, and every
// core::MsgType inside each frame kind that carries an app (DataMsg,
// FloodMsg, DsrData), whose app must be cloned into a distinct object too.
TEST(PayloadPool, CrossShardCloneCoversEveryPayloadKind) {
  std::set<net::PayloadKind> frame_kinds;
  std::set<net::PayloadKind> app_kinds;
  std::size_t app_frames = 0;
  for_each_type(static_cast<FrameTypes*>(nullptr), [&](auto frame_tag) {
    using F = typename decltype(frame_tag)::type;
    const net::Ref<F> bare = net::make_payload<F>();
    if (const auto clone = clone_fresh(*bare, 1)) {
      frame_kinds.insert(clone->kind);
    }
    if constexpr (requires(const F& f) { f.app; }) {
      ++app_frames;
      for_each_type(static_cast<AppTypes*>(nullptr), [&](auto app_tag) {
        using A = typename decltype(app_tag)::type;
        const net::Ref<F> src = net::make_payload<F>();
        src.edit()->app = net::make_payload<const A>();
        const net::FramePayloadPtr clone = clone_fresh(*src, 2);
        ASSERT_TRUE(clone);
        const auto& copy = static_cast<const F&>(*clone);
        ASSERT_TRUE(copy.app);
        EXPECT_EQ(copy.app->kind, src->app->kind);
        EXPECT_NE(copy.app.get(), src->app.get());
        app_kinds.insert(copy.app->kind);
      });
    }
  });
  EXPECT_EQ(frame_kinds.size(), std::tuple_size_v<FrameTypes>);
  EXPECT_EQ(app_frames, 3U);
  EXPECT_EQ(app_kinds.size(), core::kNumMsgTypes);
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
