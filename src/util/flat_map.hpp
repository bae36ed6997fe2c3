// Open-addressed hash map for dense-id keyed per-node state.
//
// The mega-scale rule is that every per-node structure must be O(touched),
// not O(n): a routing table holds Route entries for the destinations a
// node actually learned, a blackout ledger holds the links actually
// suppressed, a duplicate cache holds the floods actually heard — never an
// array indexed by the whole population. This map is the one open-addressed
// table in the tree: linear probing over a power-of-two slot array,
// Fibonacci hashing, backward-shift deletion (no tombstones), and no
// per-entry heap nodes. Keys and values live in parallel arrays so a
// probe walks a dense key array (16 NodeId keys per cache line) and only
// touches the value array on a hit — lookups stay cheap even when T is a
// fat struct like a routing Route.
//
// Determinism: slot layout is a pure function of the insert/erase history
// (no pointer hashing, no randomized seeds), so iteration order — and
// anything derived from it — is bit-identical across runs and platforms.
// Callers that need a canonical order (e.g. ascending destinations for
// RERR emission) sort the extracted keys; iteration here is for sweeps
// whose output order is normalized by the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace p2p::util {

/// `EmptyKey` is a reserved key value that must never be inserted (for
/// NodeId keys use kInvalidNode, for packed pair keys use ~0).
template <typename Key, typename T, Key EmptyKey>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Value for `key`, or nullptr.
  T* find(Key key) noexcept {
    if (keys_.empty()) return nullptr;
    const std::size_t i = probe(key);
    return keys_[i] == key ? &values_[i] : nullptr;
  }
  const T* find(Key key) const noexcept {
    if (keys_.empty()) return nullptr;
    const std::size_t i = probe(key);
    return keys_[i] == key ? &values_[i] : nullptr;
  }

  /// Value for `key`, default-constructing it on first touch. Sets
  /// `*inserted` (if non-null) to whether this was a first touch.
  T& get_or_insert(Key key, bool* inserted = nullptr) {
    P2P_ASSERT(key != EmptyKey);
    if (keys_.empty()) grow();
    std::size_t i = probe(key);
    if (keys_[i] == key) {
      if (inserted != nullptr) *inserted = false;
      return values_[i];
    }
    // Grow at 5/8 load, and only on a real insert, so a hit never moves
    // the table (held value pointers stay valid): linear probing degrades
    // sharply past ~2/3 (a miss at 7/8 load walks ~30 slots on average);
    // the extra slots are cheap because keys and values are split and
    // only keys are probed.
    if ((size_ + 1) * 8 > keys_.size() * 5) {
      grow();
      i = probe(key);
    }
    keys_[i] = key;
    values_[i] = T{};
    ++size_;
    if (inserted != nullptr) *inserted = true;
    return values_[i];
  }

  /// Remove `key` if present (backward-shift: later probes stay reachable
  /// without tombstones). Returns whether it was present.
  bool erase(Key key) noexcept {
    if (keys_.empty()) return false;
    const std::size_t i = probe(key);
    if (keys_[i] != key) return false;
    erase_slot(i);
    return true;
  }

  /// Remove every entry for which pred(Key, const T&) holds, in one
  /// in-place pass over the slots. After an erase the backward shift may
  /// have moved an unvisited entry into the slot, so the same slot is
  /// examined again. An entry whose probe run wraps past the last slot can
  /// be shifted back behind the cursor and visited twice, so `pred` must
  /// be a pure function of the entry.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    for (std::size_t i = 0; i < keys_.size();) {
      if (keys_[i] != EmptyKey && pred(keys_[i], std::as_const(values_[i]))) {
        erase_slot(i);
      } else {
        ++i;
      }
    }
  }

  /// Drop every entry; slot storage (capacity) is retained.
  void clear() noexcept {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != EmptyKey) {
        keys_[i] = EmptyKey;
        values_[i] = T{};
      }
    }
    size_ = 0;
  }

  /// Visit every entry in slot order (deterministic, NOT sorted):
  /// fn(Key, T&) / fn(Key, const T&).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != EmptyKey) fn(keys_[i], values_[i]);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != EmptyKey) fn(keys_[i], values_[i]);
    }
  }

  /// Bytes resident in the slot arrays (memory accounting).
  std::size_t memory_bytes() const noexcept {
    return keys_.size() * sizeof(Key) + values_.size() * sizeof(T);
  }

  /// Layout check for invariant sweeps: the slot count is zero or a power
  /// of two, the occupancy equals size(), and every key is reachable from
  /// its home slot without crossing an empty slot (the linear-probing
  /// invariant; a key past a gap is invisible to find()). Fills `why` (if
  /// non-null) on failure.
  bool validate(std::string* why = nullptr) const {
    const auto fail = [&](const std::string& reason) {
      if (why != nullptr) *why = reason;
      return false;
    };
    if ((keys_.size() & (keys_.size() - 1)) != 0) {
      return fail("capacity not a power of two");
    }
    const std::size_t mask = keys_.size() - 1;
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == EmptyKey) continue;
      ++occupied;
      for (std::size_t j = home(keys_[i], mask); j != i; j = (j + 1) & mask) {
        if (keys_[j] == EmptyKey) {
          return fail("entry unreachable from its home slot");
        }
      }
    }
    if (occupied != size_) {
      return fail("occupancy/size mismatch: " + std::to_string(occupied) +
                  " vs " + std::to_string(size_));
    }
    return true;
  }

 private:
  static std::size_t home(Key key, std::size_t mask) noexcept {
    // Fibonacci multiplicative hash; the high bits land on [0, mask].
    const std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> 32) & mask;
  }
  /// Slot containing `key`, or the empty slot where it would go.
  std::size_t probe(Key key) const noexcept {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = home(key, mask);
    while (keys_[i] != EmptyKey && keys_[i] != key) {
      i = (i + 1) & mask;
    }
    return i;
  }
  /// Empty slot `i` and backward-shift the rest of its probe run into
  /// the hole, so later keys stay reachable without tombstones.
  void erase_slot(std::size_t i) noexcept {
    const std::size_t mask = keys_.size() - 1;
    --size_;
    for (;;) {
      keys_[i] = EmptyKey;
      values_[i] = T{};
      std::size_t j = i;
      for (;;) {
        j = (j + 1) & mask;
        if (keys_[j] == EmptyKey) return;
        const std::size_t h = home(keys_[j], mask);
        // Move j back into the hole iff its probe path passes through i.
        if (((j - h) & mask) >= ((j - i) & mask)) {
          keys_[i] = keys_[j];
          values_[i] = std::move(values_[j]);
          i = j;
          break;
        }
      }
    }
  }
  void grow() {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<T> old_values = std::move(values_);
    const std::size_t cap = old_keys.empty() ? 16 : old_keys.size() * 2;
    keys_.assign(cap, EmptyKey);
    values_.assign(cap, T{});
    const std::size_t mask = cap - 1;
    for (std::size_t s = 0; s < old_keys.size(); ++s) {
      if (old_keys[s] == EmptyKey) continue;
      std::size_t i = home(old_keys[s], mask);
      while (keys_[i] != EmptyKey) i = (i + 1) & mask;
      keys_[i] = old_keys[s];
      values_[i] = std::move(old_values[s]);
    }
  }

  // Parallel arrays, power-of-two size, linear probing.
  std::vector<Key> keys_;
  std::vector<T> values_;
  std::size_t size_ = 0;
};

}  // namespace p2p::util
