// Chase–Lev lock-free work-stealing deque (Chase & Lev, SPAA 2005), in the
// C11-memory-model formulation of Lê, Pop, Cohen & Zappa Nardelli (PPoPP
// 2013), with one deviation: the slot handoff between push() and steal()
// is an explicit release/acquire pair instead of relying solely on the
// paper's release fence, so ThreadSanitizer (which does not model
// standalone fences) sees the edge — see the comment in push().  This is
// the per-worker deque at the heart of the TBB-style runtime: the owner
// pushes and pops at the *bottom* with no synchronization in the common
// case; thieves steal from the *top* with a single CAS.
//
// Failed acquisitions are the common case of an idle steal-k-first worker,
// so both ends fail without a fence when they can:
//   * the owner remembers that its last pop() found the deque empty.  Only
//     the owner pushes and thieves only take, so it stays empty until the
//     owner's next push(), and pop() returns false at once until then;
//   * a thief first reads the victim's size hint (two relaxed loads) and
//     returns false on a victim that looks empty.  A stale "empty" is a
//     failed attempt, as a lost race already is; a victim that looks
//     non-empty goes through the full protocol.
//
// Semantics:
//   * exactly one owner thread may call push()/pop();
//   * any number of thief threads may call steal() concurrently;
//   * elements are trivially-copyable-sized payloads (we store pointers).
//
// The circular buffer grows geometrically and never shrinks; retired
// buffers are kept alive until the deque is destroyed, which makes buffer
// reclamation trivially safe against racing thieves (a standard technique —
// memory overhead is bounded by 2x the high-water mark).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace pjsched::runtime {

template <typename T>
class ChaseLevDeque {
  static_assert(sizeof(T) <= sizeof(void*) && std::is_trivially_copyable_v<T>,
                "ChaseLevDeque stores small trivially copyable payloads "
                "(use a pointer type)");

 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 64)
      : top_(1), bottom_(1) {  // start at 1 so top - 1 never underflows
    // order: relaxed — single-threaded construction; thieves first learn
    // of this deque through the pool's thread start, which synchronizes.
    buffer_.store(new Buffer(round_up_pow2(initial_capacity)),
                  std::memory_order_relaxed);
  }

  ~ChaseLevDeque() {
    // order: relaxed — destruction requires external quiescence anyway.
    delete buffer_.load(std::memory_order_relaxed);
    for (Buffer* b : retired_) delete b;
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only: push onto the bottom.  Returns true when this push took
  /// the deque from empty to non-empty, as of the owner's read of top_ (a
  /// thief that empties it concurrently may go unseen); the pool wakes a
  /// parked worker only on that transition.
  bool push(T item) {
    // order: relaxed — bottom_ and buffer_ are owner-written; the owner
    // reads its own writes.  top_ is acquire to observe thieves' steals
    // before judging fullness (PPoPP'13 fig. 1).
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(buf->capacity) - 1) {
      buf = grow(buf, t, b);
    }
    // The slot store is release (not relaxed as in the PPoPP'13 paper): it
    // pairs with the acquire slot load in steal() to carry the *pointee's*
    // initialization to the thief.  The paper gets that edge from the
    // release fence below, which is equally correct under C11 but
    // invisible to ThreadSanitizer (TSan does not model standalone
    // fences); the explicit pair keeps TSan exact at no cost on x86 and
    // one stlr on ARM.
    buf->put(b, item, std::memory_order_release);
    // Publish the element before publishing the new bottom.
    // order: relaxed store under the release fence — the fence (kept from
    // the paper) orders the slot write before the bottom_ publication.
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
    known_empty_ = false;
    return b == t;
  }

  /// Owner only: pop from the bottom.  Returns false when empty.
  bool pop(T& out) {
    if (known_empty_) return false;  // nothing pushed since pop() saw empty
    // order: relaxed owner reads/writes of bottom_/buffer_ — single
    // writer; the seq_cst fence below is the store-load barrier that
    // makes the bottom_ decrement visible to thieves before top_ is read
    // (the PPoPP'13 pop/steal mutual-exclusion argument).
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);  // order: as above
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // order: relaxed — ordered by the fence above, per the paper.
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      // Deque was empty; restore bottom.
      // order: relaxed — owner-only bookkeeping; nothing published.
      bottom_.store(b + 1, std::memory_order_relaxed);
      known_empty_ = true;
      return false;
    }
    out = buf->get(b);
    if (t == b) {
      // Last element: race against thieves via CAS on top.
      // order: seq_cst success — the CAS must totally order against the
      // thieves' top_ CAS; relaxed failure — losing means a thief took the
      // element, we only restore bottom_ (owner-only) and retreat.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        bottom_.store(b + 1, std::memory_order_relaxed);
        known_empty_ = true;
        return false;  // a thief won
      }
      // order: relaxed — owner-only bottom_ restore, as in the empty case.
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return true;
  }

  /// Thieves: steal from the top.  Returns false when empty, when the
  /// victim looks empty, or when losing a race (callers treat all three as
  /// a failed steal attempt).
  bool steal(T& out) {
    if (empty_hint()) return false;  // no fence or CAS on an empty victim
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    Buffer* buf = buffer_.load(std::memory_order_acquire);
    // Acquire pairs with the release slot store in push() (and the release
    // buffer_ publication in grow()) — see the comment in push().
    out = buf->get(t, std::memory_order_acquire);
    // order: seq_cst success — totally ordered against the owner's pop CAS
    // and other thieves; relaxed failure — a lost race returns false and
    // publishes nothing (the caller counts it as a failed attempt).
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return false;  // lost the race to another thief or the owner
    return true;
  }

  /// Approximate size; only a hint (races with concurrent operations).
  std::size_t size_hint() const {
    // order: relaxed — explicitly a racy diagnostic hint; any
    // interleaving of the two loads yields an acceptable answer.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  bool empty_hint() const { return size_hint() == 0; }

 private:
  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1), slots(new std::atomic<T>[cap]) {}
    ~Buffer() { delete[] slots; }

    // order: relaxed defaults — owner-side accesses (pop, grow) need no
    // slot ordering; push/steal pass the explicit release/acquire pair.
    // lint: allow(implicit-order): the order is explicit — forwarded
    // verbatim from the caller's `mo` argument.
    T get(std::int64_t i,
          std::memory_order mo = std::memory_order_relaxed) const {
      return slots[static_cast<std::size_t>(i) & mask].load(mo);
    }
    // order: relaxed default — same owner-side contract as get() above.
    // lint: allow(implicit-order): order forwarded from `mo`.
    void put(std::int64_t i, T v,
             std::memory_order mo = std::memory_order_relaxed) {
      slots[static_cast<std::size_t>(i) & mask].store(v, mo);
    }

    const std::size_t capacity;
    const std::size_t mask;
    std::atomic<T>* slots;
  };

  static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 8;
    while (p < v) p <<= 1;
    return p;
  }

  // Owner only; doubles the buffer, copying the live range [t, b).
  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Buffer(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    buffer_.store(bigger, std::memory_order_release);
    retired_.push_back(old);  // thieves may still be reading it
    return bigger;
  }

  alignas(64) std::atomic<std::int64_t> top_;
  alignas(64) std::atomic<std::int64_t> bottom_;
  // Owner only, on the line push() already writes: set when pop() finds the
  // deque empty, cleared by push().  A new deque is empty.
  bool known_empty_ = true;
  alignas(64) std::atomic<Buffer*> buffer_;
  std::vector<Buffer*> retired_;  // owner-only
};

}  // namespace pjsched::runtime
