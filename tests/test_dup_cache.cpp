// DupCache: first-sighting semantics and TTL expiry, and a long seeded
// script against an ordered reference model of the TTL rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "net/dup_cache.hpp"

namespace {

using p2p::net::DupCache;

TEST(DupCache, FirstInsertIsFresh) {
  DupCache cache(10.0);
  EXPECT_TRUE(cache.insert(1, 100, 0.0));
  EXPECT_TRUE(cache.contains(1, 100, 0.0));
}

TEST(DupCache, SecondInsertIsDuplicate) {
  DupCache cache(10.0);
  EXPECT_TRUE(cache.insert(1, 100, 0.0));
  EXPECT_FALSE(cache.insert(1, 100, 1.0));
  EXPECT_FALSE(cache.insert(1, 100, 9.9));
}

TEST(DupCache, DistinguishesOriginsAndIds) {
  DupCache cache(10.0);
  EXPECT_TRUE(cache.insert(1, 100, 0.0));
  EXPECT_TRUE(cache.insert(2, 100, 0.0));
  EXPECT_TRUE(cache.insert(1, 101, 0.0));
  EXPECT_FALSE(cache.insert(2, 100, 0.0));
}

TEST(DupCache, ExpiryAllowsReinsert) {
  DupCache cache(10.0);
  EXPECT_TRUE(cache.insert(1, 100, 0.0));
  EXPECT_FALSE(cache.insert(1, 100, 9.99));
  EXPECT_TRUE(cache.insert(1, 100, 10.0));  // ttl elapsed
}

TEST(DupCache, ExpiryIsPerEntry) {
  DupCache cache(10.0);
  cache.insert(1, 1, 0.0);
  cache.insert(1, 2, 5.0);
  EXPECT_TRUE(cache.insert(1, 1, 10.0));   // first expired
  EXPECT_FALSE(cache.insert(1, 2, 10.0));  // second still fresh
  EXPECT_TRUE(cache.insert(1, 2, 15.0));
}

TEST(DupCache, SizeReflectsLiveEntries) {
  DupCache cache(10.0);
  cache.insert(1, 1, 0.0);
  cache.insert(1, 2, 0.0);
  EXPECT_EQ(cache.size(), 2U);
  cache.insert(1, 3, 20.0);  // expires the first two
  EXPECT_EQ(cache.size(), 1U);
}

TEST(DupCache, ContainsDoesNotInsert) {
  DupCache cache(10.0);
  EXPECT_FALSE(cache.contains(5, 5, 0.0));
  EXPECT_TRUE(cache.insert(5, 5, 0.0));
}

// Regression: contains() used to ignore the TTL entirely — an entry past
// its TTL (but not yet lazily evicted by an insert) was still reported as
// seen, suppressing legitimate ID reuse.
TEST(DupCache, ContainsRespectsTtlWithoutEviction) {
  DupCache cache(10.0);
  cache.insert(1, 100, 0.0);
  EXPECT_TRUE(cache.contains(1, 100, 5.0));
  EXPECT_TRUE(cache.contains(1, 100, 9.99));
  // No insert has run since, so the entry is physically still present —
  // but it must read as expired.
  EXPECT_FALSE(cache.contains(1, 100, 10.0));
  EXPECT_FALSE(cache.contains(1, 100, 1000.0));
  // And the ID is reusable.
  EXPECT_TRUE(cache.insert(1, 100, 10.0));
  EXPECT_TRUE(cache.contains(1, 100, 10.0));
}

/// The cache's contract, spelled out on a std::map: a sighting is fresh
/// unless the same pair was recorded less than one TTL ago; a duplicate
/// keeps the first time; expired entries leave only at the epoch purge,
/// which the first insert at or past the deadline runs and which re-arms
/// the deadline a full TTL out.
class TtlModel {
 public:
  explicit TtlModel(double ttl) : ttl_(ttl) {}

  bool insert(std::uint32_t origin, std::uint64_t id, double now) {
    if (now >= purge_due_) {
      std::erase_if(seen_, [&](const auto& kv) {
        return !(kv.second + ttl_ > now);
      });
      purge_due_ = now + ttl_;
    }
    const auto [it, inserted] = seen_.try_emplace({origin, id}, now);
    if (!inserted && it->second + ttl_ > now) return false;
    it->second = now;
    if (purge_due_ == kNever) purge_due_ = now + ttl_;
    return true;
  }
  bool contains(std::uint32_t origin, std::uint64_t id, double now) const {
    const auto it = seen_.find({origin, id});
    return it != seen_.end() && it->second + ttl_ > now;
  }
  std::size_t size() const { return seen_.size(); }
  void clear() {
    seen_.clear();
    purge_due_ = kNever;
  }

 private:
  static constexpr double kNever = 1e300;
  double ttl_;
  double purge_due_ = kNever;
  std::map<std::pair<std::uint32_t, std::uint64_t>, double> seen_;
};

TEST(DupCacheReference, MatchesTtlModel) {
  // 24k seeded inserts and lookups over 300 origins x 40 ids. Time moves
  // in 0-5 ms steps and covers about six 10 s purge epochs: the table
  // grows from 16 slots to thousands, purges in place many times and is
  // cleared halfway. Every verdict and the resident size are compared
  // after every operation.
  constexpr double kTtl = 10.0;
  DupCache cache(kTtl);
  TtlModel model(kTtl);
  std::uint64_t rng = 0xA4093822299F31D0ULL;  // fixed seed: deterministic
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  std::uint64_t ms = 0;
  std::size_t peak = 0;
  std::size_t purges = 0;
  for (int op = 0; op < 24000; ++op) {
    if (op == 12000) {
      cache.clear();
      model.clear();
    }
    ms += next() % 6;
    const double now = static_cast<double>(ms) * 1e-3;
    const std::uint32_t origin = next() % 300;
    const std::uint64_t id = next() % 40;
    const std::size_t before = model.size();
    if (next() % 4 == 0) {
      ASSERT_EQ(cache.contains(origin, id, now),
                model.contains(origin, id, now))
          << "op " << op;
    } else {
      ASSERT_EQ(cache.insert(origin, id, now), model.insert(origin, id, now))
          << "op " << op;
    }
    ASSERT_EQ(cache.size(), model.size()) << "op " << op;
    if (model.size() < before) ++purges;
    peak = std::max(peak, cache.size());
    if (op % 512 == 0) {
      std::string why;
      ASSERT_TRUE(cache.validate(now, &why)) << "op " << op << ": " << why;
    }
  }
  EXPECT_GE(purges, 4U);  // several epoch purges shrank the table
  EXPECT_GE(peak, 2000U);  // and it grew through many doublings
}

}  // namespace
