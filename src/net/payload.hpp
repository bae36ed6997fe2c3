// Intrusive, non-atomic refcounting and slab pools for message payloads.
//
// Every radio frame and P2P message used to be a `std::shared_ptr<const X>`
// — one heap allocation plus atomic refcount traffic per message, repeated
// by flood fan-out and AODV forwarding. Each experiment run is
// single-threaded and fully isolated (the determinism design: parallelism
// is across runs, never within one), so the refcount can be a plain
// integer, and payload storage can come from per-type freelists owned by
// the run's Network. Sending a message costs a freelist pop.
//
// Ownership rules (see DESIGN.md "Overlay payload ownership"):
//   * `Ref<T>` is the only handle. Copies share the object; the count is
//     not thread-safe — never move a Ref across threads.
//   * A payload is mutable (via `Ref::edit()`) only between acquisition
//     and first publication (send/broadcast/store); after that it is
//     immutable and may be held past handler return by anyone.
//   * Every payload comes from a pool (`PayloadPools::make`/`make_from`;
//     tests and benches without a Network use a local PayloadPools). When
//     the last Ref drops, the payload is reset to its default-constructed
//     state and its slot recycled.
//   * The pool that made a payload can copy it into another PayloadPools
//     (`PayloadPools::copy_of`), nested `app` payload included — the
//     sharded barrier's cross-lane copy, with no list of payload types.
//   * Pools outlive their payloads, not their owner: the owning
//     PayloadPools may be destroyed while frames queued in the simulator
//     still hold Refs (Network is destroyed before the Simulator in
//     SimulationRun). A holder count keeps each pool alive until its last
//     live payload releases.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace p2p::net {

class PayloadPools;
class PoolBase;
template <typename T>
class Ref;

/// Intrusive refcount base. Copying a payload copies its *data*, never its
/// identity: the copy ctor leaves the new object unowned (count 0, no
/// pool), and assignment leaves the target's ownership fields untouched —
/// so `*ref.edit() = other` fills a pooled slot without clobbering it.
class RefCountBase {
 public:
  RefCountBase() noexcept = default;
  RefCountBase(const RefCountBase&) noexcept {}
  RefCountBase& operator=(const RefCountBase&) noexcept { return *this; }
  virtual ~RefCountBase() = default;

 private:
  friend class PayloadPools;
  friend class PoolBase;
  template <typename T>
  friend class Ref;

  mutable std::uint32_t rc_count_ = 0;
  mutable PoolBase* rc_home_ = nullptr;  // the pool that made this payload
};

/// Type-erased pool: recycling target for released payloads, kept alive by
/// a holder count (1 for the owning PayloadPools + 1 per live payload).
class PoolBase {
 public:
  PoolBase(const PoolBase&) = delete;
  PoolBase& operator=(const PoolBase&) = delete;

  // ---- fixed-seed stats (aggregated by PayloadPools::stats) ----
  std::uint64_t acquires = 0;     // total payload acquisitions
  std::uint64_t slab_allocs = 0;  // freelist misses (fresh slab objects)
  std::size_t live = 0;
  std::size_t peak_live = 0;

 protected:
  PoolBase() noexcept = default;
  virtual ~PoolBase() = default;

  static void rc_init(const RefCountBase& obj, PoolBase* home) noexcept {
    obj.rc_count_ = 1;
    obj.rc_home_ = home;
  }

  void add_holder() noexcept { ++holders_; }
  void drop_holder() noexcept {
    if (--holders_ == 0) delete this;
  }

 private:
  template <typename T>
  friend class Ref;
  friend class PayloadPools;

  virtual void recycle(RefCountBase* obj) noexcept = 0;
  /// Copy of `obj` (one of this pool's payloads) acquired from `dst`,
  /// refcount 1, with any nested `app` payload copied into `dst` too.
  virtual RefCountBase* copy_into(const RefCountBase& obj,
                                  PayloadPools& dst) const = 0;
  /// Last Ref to a pooled payload dropped: reset the slot, then release
  /// the payload's hold on the pool.
  void release_payload(const RefCountBase& obj) noexcept {
    --live;
    recycle(const_cast<RefCountBase*>(&obj));
    drop_holder();
  }

  std::size_t holders_ = 1;  // the owning PayloadPools
};

/// Shared handle to an immutable payload (see ownership rules above).
/// Read access is const-only; `edit()` is the pre-publication escape hatch.
template <typename T>
class Ref {
 public:
  Ref() noexcept = default;
  Ref(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Take ownership of an object whose count is already 1 (pool
  /// acquisition paths only).
  static Ref adopt(T* obj) noexcept {
    Ref ref;
    ref.obj_ = obj;
    return ref;
  }

  Ref(const Ref& other) noexcept : obj_(other.obj_) { retain(); }
  Ref(Ref&& other) noexcept : obj_(other.obj_) { other.obj_ = nullptr; }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref(const Ref<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(other.obj_) {
    retain();
  }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref(Ref<U>&& other) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(other.obj_) {
    other.obj_ = nullptr;
  }

  Ref& operator=(const Ref& other) noexcept {
    Ref(other).swap(*this);
    return *this;
  }
  Ref& operator=(Ref&& other) noexcept {
    Ref(std::move(other)).swap(*this);
    return *this;
  }
  Ref& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~Ref() { release(); }

  const T* get() const noexcept { return obj_; }
  const T& operator*() const noexcept { return *obj_; }
  const T* operator->() const noexcept { return obj_; }
  explicit operator bool() const noexcept { return obj_ != nullptr; }

  /// Mutable access — legal only between acquisition and first
  /// publication (the payload is not yet shared).
  T* edit() const noexcept { return obj_; }

  void reset() noexcept {
    release();
    obj_ = nullptr;
  }
  void swap(Ref& other) noexcept { std::swap(obj_, other.obj_); }

  std::uint32_t use_count() const noexcept {
    return obj_ ? obj_->rc_count_ : 0;
  }

  friend bool operator==(const Ref& a, const Ref& b) noexcept {
    return a.obj_ == b.obj_;
  }
  friend bool operator!=(const Ref& a, const Ref& b) noexcept {
    return a.obj_ != b.obj_;
  }
  friend bool operator==(const Ref& a, std::nullptr_t) noexcept {
    return a.obj_ == nullptr;
  }
  friend bool operator!=(const Ref& a, std::nullptr_t) noexcept {
    return a.obj_ != nullptr;
  }

 private:
  template <typename U>
  friend class Ref;
  template <typename U>
  friend class Pool;

  void retain() noexcept {
    if (obj_ != nullptr) ++obj_->rc_count_;
  }
  void release() noexcept {
    if (obj_ != nullptr && --obj_->rc_count_ == 0) {
      obj_->rc_home_->release_payload(*obj_);
    }
  }
  /// Hand the reference to the caller as a raw pointer (count unchanged).
  T* detach() noexcept { return std::exchange(obj_, nullptr); }

  T* obj_ = nullptr;
};

/// Slab/freelist pool for one payload type. Objects are default-
/// constructed in chunks of 64; a released object is reset to `T{}` (which
/// also drops any nested Refs promptly) and pushed on the freelist.
template <typename T>
class Pool final : public PoolBase {
 public:
  Ref<T> acquire() {
    T* obj;
    if (!free_.empty()) {
      obj = free_.back();
      free_.pop_back();
    } else {
      if (next_in_chunk_ == kChunkSize) {
        chunks_.push_back(std::make_unique<T[]>(kChunkSize));
        next_in_chunk_ = 0;
      }
      obj = &chunks_.back()[next_in_chunk_++];
      ++slab_allocs;
    }
    rc_init(*obj, this);
    add_holder();
    ++acquires;
    if (++live > peak_live) peak_live = live;
    return Ref<T>::adopt(obj);
  }

 private:
  friend class PayloadPools;
  static constexpr std::size_t kChunkSize = 64;

  Pool() { chunks_.push_back(std::make_unique<T[]>(kChunkSize)); }

  void recycle(RefCountBase* obj) noexcept override {
    T* slot = static_cast<T*>(obj);
    *slot = T{};  // ownership fields survive (assignment is rc-neutral)
    free_.push_back(slot);
  }
  RefCountBase* copy_into(const RefCountBase& obj,
                          PayloadPools& dst) const override;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<T*> free_;
  std::size_t next_in_chunk_ = 0;
};

/// Per-run registry of typed pools, owned by the Network. Type lookup is a
/// vector index (assigned once per type, process-wide, atomically — the
/// only cross-thread state in this header).
class PayloadPools {
 public:
  PayloadPools() = default;
  PayloadPools(const PayloadPools&) = delete;
  PayloadPools& operator=(const PayloadPools&) = delete;
  ~PayloadPools() {
    for (PoolBase* pool : pools_) {
      if (pool != nullptr) pool->drop_holder();
    }
  }

  /// Freelist pop: a default-constructed T, refcount 1. Fill it through
  /// `ref.edit()` before publishing.
  template <typename T>
  Ref<T> make() {
    return pool<T>().acquire();
  }

  /// Pooled slot filled from an existing value (the flood/forward copy
  /// paths): one assignment, no allocation on the steady state.
  template <typename T>
  Ref<std::decay_t<T>> make_from(T&& value) {
    Ref<std::decay_t<T>> ref = pool<std::decay_t<T>>().acquire();
    *ref.edit() = std::forward<T>(value);
    return ref;
  }

  /// Copy of `src` in these pools, made by the pool that made `src` (so
  /// the static type may be a base such as FramePayload): one acquisition,
  /// plus one for a nested `app` payload.
  template <typename T>
  Ref<T> copy_of(const T& src) {
    return Ref<T>::adopt(
        static_cast<T*>(src.rc_home_->copy_into(src, *this)));
  }

  struct Stats {
    std::uint64_t acquires = 0;     // total payload acquisitions
    std::uint64_t slab_allocs = 0;  // allocations NOT avoided (misses)
    std::size_t peak_live = 0;      // max payloads live at once (any type)
  };
  /// Fixed-seed aggregate over every typed pool. Thread-count invariant:
  /// pools are per-run, never shared or thread-local.
  Stats stats() const noexcept {
    Stats total;
    for (const PoolBase* pool : pools_) {
      if (pool == nullptr) continue;
      total.acquires += pool->acquires;
      total.slab_allocs += pool->slab_allocs;
      total.peak_live += pool->peak_live;
    }
    return total;
  }

 private:
  template <typename T>
  Pool<T>& pool() {
    const std::size_t index = type_index<T>();
    if (index >= pools_.size()) pools_.resize(index + 1, nullptr);
    if (pools_[index] == nullptr) pools_[index] = new Pool<T>();
    return *static_cast<Pool<T>*>(pools_[index]);
  }

  template <typename T>
  static std::size_t type_index() {
    static const std::size_t index =
        next_type_index_.fetch_add(1, std::memory_order_relaxed);
    return index;
  }

  static inline std::atomic<std::size_t> next_type_index_{0};

  std::vector<PoolBase*> pools_;
};

template <typename T>
RefCountBase* Pool<T>::copy_into(const RefCountBase& obj,
                                 PayloadPools& dst) const {
  const T& src = static_cast<const T&>(obj);
  Ref<T> copy = dst.make_from(src);
  if constexpr (requires { src.app; }) {
    if (src.app) copy.edit()->app = dst.copy_of(*src.app);
  }
  return copy.detach();
}

}  // namespace p2p::net
