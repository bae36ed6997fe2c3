// RoutingTable freshness edge cases (RFC 3561 §6.2, §6.11).
//
// These tests pin the exact sequence-number/hop-count replacement rules
// and the lifecycle corners (expiry invalidates but keeps the sequence
// number, precursors survive updates, slots reset across clear()) so any
// representation change underneath the hashed table is verified against
// the same observable semantics. RoutingTableReference drives the table
// and a small ordered reference model through one scripted history and
// asserts every observable output matches, ascending orders included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "routing/routing_table.hpp"

namespace {

using p2p::net::NodeId;
using p2p::routing::Route;
using p2p::routing::RoutingTable;

// ------------------------------------------------------- §6.2 freshness --

TEST(RoutingTableFreshness, EqualSeqFewerHopsReplaces) {
  RoutingTable table;
  table.update(7, /*next_hop=*/3, /*hops=*/4, /*seq=*/10, true, 100.0);
  // Same sequence number: strictly fewer hops wins, ties and worse lose.
  EXPECT_TRUE(table.is_better(7, 10, true, 3, 0.0));
  EXPECT_FALSE(table.is_better(7, 10, true, 4, 0.0));
  EXPECT_FALSE(table.is_better(7, 10, true, 5, 0.0));
}

TEST(RoutingTableFreshness, SequenceComparisonIsSigned32) {
  RoutingTable table;
  // Near the wrap point: 0x7fffffff + 1 is "newer" under signed rollover
  // arithmetic even though it is numerically smaller modulo 2^32.
  table.update(7, 3, 2, 0x7fffffffU, true, 100.0);
  EXPECT_TRUE(table.is_better(7, 0x80000000U, true, 9, 0.0));
  table.update(7, 3, 2, 0xffffffffU, true, 100.0);
  EXPECT_TRUE(table.is_better(7, 0U, true, 9, 0.0));   // wraps to newer
  EXPECT_FALSE(table.is_better(7, 0xfffffff0U, true, 1, 0.0));
}

TEST(RoutingTableFreshness, InvalidSeqOnOfferLosesToValidRoute) {
  RoutingTable table;
  table.update(7, 3, 2, 10, /*seq_valid=*/true, 100.0);
  // An offer with no sequence information never displaces a valid,
  // sequence-numbered route — even with fewer hops.
  EXPECT_FALSE(table.is_better(7, 0, /*seq_valid=*/false, 1, 0.0));
}

TEST(RoutingTableFreshness, InvalidSeqOnOwnRouteAlwaysLoses) {
  RoutingTable table;
  // Our route has no sequence info (hello-derived): any offer wins.
  table.update(7, 3, 1, 0, /*seq_valid=*/false, 100.0);
  EXPECT_TRUE(table.is_better(7, 0, false, 9, 0.0));
  EXPECT_TRUE(table.is_better(7, 1, true, 9, 0.0));
}

TEST(RoutingTableFreshness, InvalidOrExpiredRouteIsAlwaysReplaceable) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  EXPECT_FALSE(table.is_better(7, 9, true, 1, 50.0));  // valid: older seq loses
  EXPECT_TRUE(table.is_better(7, 9, true, 9, 100.0));  // expired: anything wins
  table.invalidate(7);
  EXPECT_TRUE(table.is_better(7, 1, true, 9, 0.0));    // invalid: anything wins
}

// --------------------------------------------------------- expiry corner --

TEST(RoutingTableExpiry, ExpiryInvalidatesButKeepsSeq) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  // find_active at/past the expiry invalidates as a side effect …
  EXPECT_EQ(table.find_active(7, 100.0), nullptr);
  const Route* r = table.find(7);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->valid);
  // … but the sequence number survives for future freshness comparisons
  // (it was NOT bumped — that only happens on invalidate()).
  EXPECT_EQ(r->dst_seq, 10U);
  EXPECT_TRUE(r->seq_valid);
  EXPECT_FALSE(table.is_better(7, 9, true, 1, 100.0) == false);  // replaceable
}

TEST(RoutingTableExpiry, InvalidateBumpsSeqOnceAndOnlyWhileValid) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  EXPECT_TRUE(table.invalidate(7));
  EXPECT_EQ(table.find(7)->dst_seq, 11U);  // §6.11 increment
  EXPECT_TRUE(table.invalidate(7));        // already invalid: entry exists …
  EXPECT_EQ(table.find(7)->dst_seq, 11U);  // … but no double bump
}

TEST(RoutingTableExpiry, UpdateOnlyExtendsLifetime) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  // A re-install with a shorter lifetime must not shorten the route's life
  // (update() keeps the max expiry).
  table.update(7, 4, 1, 11, true, 50.0);
  EXPECT_NE(table.find_active(7, 99.0), nullptr);
  EXPECT_EQ(table.find_active(7, 99.0)->next_hop, 4U);
}

// ------------------------------------------------------------ precursors --

TEST(RoutingTablePrecursors, SurviveUpdate) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  table.add_precursor(7, 5);
  table.add_precursor(7, 6);
  // A fresher install to the same destination keeps the precursor list:
  // the downstream nodes still route through us.
  table.update(7, 4, 1, 11, true, 200.0);
  const Route* r = table.find(7);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->precursors.size(), 2U);
  EXPECT_EQ(r->precursors.count(5), 1U);
  EXPECT_EQ(r->precursors.count(6), 1U);
}

TEST(RoutingTablePrecursors, AddToUnknownDestinationIsNoOp) {
  RoutingTable table;
  table.add_precursor(42, 5);
  EXPECT_EQ(table.find(42), nullptr);
  EXPECT_EQ(table.size(), 0U);
}

// ------------------------------------------------------- slot lifecycle --

TEST(RoutingTableLifecycle, ClearResetsSlotStateForReuse) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  table.add_precursor(7, 5);
  table.clear();
  EXPECT_EQ(table.size(), 0U);
  EXPECT_EQ(table.find(7), nullptr);
  // Re-installing the same destination after a crash wipe must start from
  // a pristine slot: no leftover precursors, and a lifetime shorter than
  // the pre-crash one must stick (no stale max-expiry carryover).
  Route& r = table.update(7, 4, 1, 2, true, 30.0);
  EXPECT_TRUE(r.precursors.empty());
  EXPECT_EQ(r.expires, 30.0);
  EXPECT_EQ(table.find_active(7, 50.0), nullptr);  // 30 s lifetime, not 100
}

TEST(RoutingTableLifecycle, SizeCountsEntriesNotValidity) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  table.update(9, 3, 1, 1, true, 100.0);
  EXPECT_EQ(table.size(), 2U);
  table.invalidate(7);
  EXPECT_EQ(table.size(), 2U);  // invalid entries are still entries
}

TEST(RoutingTableLifecycle, AllViewSeesEveryEntry) {
  RoutingTable table;
  table.update(2, 3, 2, 10, true, 100.0);
  table.update(40, 3, 1, 1, true, 100.0);
  table.invalidate(40);
  std::size_t seen = 0;
  bool saw_invalid = false;
  for (const auto& [dst, route] : table.all()) {
    ++seen;
    if (dst == 40) saw_invalid = !route.valid;
  }
  EXPECT_EQ(seen, 2U);
  EXPECT_EQ(table.all().size(), 2U);
  EXPECT_TRUE(saw_invalid);
}

// ------------------------------------------------------ destinations_via --

TEST(RoutingTableVia, ClearsTheBufferAndSkipsInactive) {
  RoutingTable table;
  table.update(7, 3, 2, 1, true, 100.0);
  table.update(8, 3, 3, 1, true, 100.0);
  table.update(9, 4, 1, 1, true, 100.0);
  table.update(10, 3, 2, 1, true, 100.0);
  table.invalidate(10);                    // invalid: not "via" anymore
  table.update(11, 3, 2, 1, true, 20.0);   // expires before the query time

  std::vector<NodeId> buf{99, 99};         // stale contents must be cleared
  table.destinations_via(3, 50.0, &buf);
  EXPECT_EQ(buf, (std::vector<NodeId>{7, 8}));

  table.destinations_via(5, 50.0, &buf);
  EXPECT_TRUE(buf.empty());
}

// ------------------------------------------------------ reference model --

// The table's contract restated over a std::map, whose ascending key order
// is the ordering contract for destinations_via and all().
struct OrderedModel {
  std::map<NodeId, Route> routes;

  bool is_better(NodeId dst, std::uint32_t seq, bool seq_valid,
                 std::uint8_t hops, double now) const {
    const auto it = routes.find(dst);
    if (it == routes.end()) return true;
    const Route& r = it->second;
    if (!r.valid || r.expires <= now || !r.seq_valid) return true;
    if (!seq_valid) return false;
    const auto newer = static_cast<std::int32_t>(seq - r.dst_seq);
    return newer > 0 || (newer == 0 && hops < r.hop_count);
  }
  void update(NodeId dst, NodeId via, std::uint8_t hops, std::uint32_t seq,
              double expires) {
    Route& r = routes[dst];  // pristine on first touch and after clear()
    r.next_hop = via;
    r.hop_count = hops;
    r.dst_seq = seq;
    r.seq_valid = true;
    r.valid = true;
    r.expires = std::max(r.expires, expires);
  }
  void refresh(NodeId dst, double expires) {
    const auto it = routes.find(dst);
    if (it != routes.end() && it->second.valid) {
      it->second.expires = std::max(it->second.expires, expires);
    }
  }
  bool invalidate(NodeId dst) {
    const auto it = routes.find(dst);
    if (it == routes.end()) return false;
    if (it->second.valid) {
      it->second.valid = false;
      ++it->second.dst_seq;
      it->second.seq_valid = true;
    }
    return true;
  }
  void add_precursor(NodeId dst, NodeId pre) {
    const auto it = routes.find(dst);
    if (it != routes.end()) it->second.precursors.insert(pre);
  }
  bool find_active(NodeId dst, double now) {
    const auto it = routes.find(dst);
    if (it == routes.end() || !it->second.valid) return false;
    if (it->second.expires <= now) {
      it->second.valid = false;  // lazy expiry keeps the sequence number
      return false;
    }
    return true;
  }
  std::vector<NodeId> destinations_via(NodeId via, double now) const {
    std::vector<NodeId> out;
    for (const auto& [dst, r] : routes) {
      if (r.valid && r.expires > now && r.next_hop == via) out.push_back(dst);
    }
    return out;
  }
  std::vector<NodeId> keys() const {
    std::vector<NodeId> out;
    for (const auto& [dst, r] : routes) out.push_back(dst);
    return out;
  }
};

// Every observable output of the table must match the model: find, size,
// destinations_via order, and all() order. One scripted pseudo-random
// history (updates, refreshes, invalidations, expiries, a mid-run clear)
// drives both, comparing after every step.
TEST(RoutingTableReference, MatchesOrderedModel) {
  RoutingTable table;
  OrderedModel model;

  const auto expect_same = [&](double now) {
    ASSERT_EQ(table.size(), model.routes.size());
    for (NodeId dst = 0; dst < 64; ++dst) {
      const Route* a = table.find(dst);
      const auto it = model.routes.find(dst);
      ASSERT_EQ(a == nullptr, it == model.routes.end()) << "dst " << dst;
      if (a == nullptr) continue;
      const Route& b = it->second;
      EXPECT_EQ(a->next_hop, b.next_hop);
      EXPECT_EQ(a->hop_count, b.hop_count);
      EXPECT_EQ(a->dst_seq, b.dst_seq);
      EXPECT_EQ(a->seq_valid, b.seq_valid);
      EXPECT_EQ(a->valid, b.valid);
      EXPECT_EQ(a->expires, b.expires);
      EXPECT_EQ(a->precursors, b.precursors);
    }
    std::vector<NodeId> via_buf;
    for (NodeId via = 0; via < 8; ++via) {
      table.destinations_via(via, now, &via_buf);
      ASSERT_EQ(via_buf, model.destinations_via(via, now))
          << "via " << via << " at " << now;
    }
    std::vector<NodeId> order;
    for (const auto& [dst, route] : table.all()) order.push_back(dst);
    ASSERT_EQ(order, model.keys()) << "all() order at " << now;
  };

  std::uint64_t x = 12345;  // deterministic LCG-driven op script
  const auto next = [&x](std::uint64_t mod) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint64_t>((x >> 33) % mod);
  };
  for (int step = 0; step < 800; ++step) {
    const double now = static_cast<double>(step);
    const auto dst = static_cast<NodeId>(next(64));
    switch (next(6)) {
      case 0:
      case 1: {
        const auto via = static_cast<NodeId>(next(8));
        const auto hops = static_cast<std::uint8_t>(1 + next(4));
        const auto seq = static_cast<std::uint32_t>(next(32));
        const double expires = now + static_cast<double>(1 + next(40));
        const bool better = table.is_better(dst, seq, true, hops, now);
        ASSERT_EQ(better, model.is_better(dst, seq, true, hops, now));
        if (better) {
          table.update(dst, via, hops, seq, true, expires);
          model.update(dst, via, hops, seq, expires);
        }
        break;
      }
      case 2:
        table.refresh(dst, now + 30.0);
        model.refresh(dst, now + 30.0);
        break;
      case 3:
        ASSERT_EQ(table.invalidate(dst), model.invalidate(dst));
        break;
      case 4: {
        const auto pre = static_cast<NodeId>(next(8));
        table.add_precursor(dst, pre);
        model.add_precursor(dst, pre);
        break;
      }
      case 5:
        // find_active has the lazy-expiry side effect; exercise it.
        ASSERT_EQ(table.find_active(dst, now) != nullptr,
                  model.find_active(dst, now));
        break;
    }
    if (step == 400) {  // crash/rebirth mid-history
      table.clear();
      model.routes.clear();
    }
    expect_same(now);
  }
  EXPECT_GT(table.size(), 0U);  // the script actually exercised the table
}

// Memory is O(routes learned), independent of how large the ids are: the
// mega-scale property that lets one representation serve every population.
TEST(RoutingTableReference, MemoryIndependentOfIdMagnitude) {
  RoutingTable low;
  RoutingTable high;
  for (NodeId i = 0; i < 8; ++i) {
    low.update(i * 7, 1, 1, 1, true, 100.0);
    high.update(999'000 + i * 7, 1, 1, 1, true, 100.0);
  }
  EXPECT_EQ(low.memory_bytes(), high.memory_bytes());
}

}  // namespace
