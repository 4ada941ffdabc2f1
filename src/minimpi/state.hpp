// Process-wide shared state backing a minimpi world: one mailbox per rank,
// a slab-allocated envelope pool, context-id allocation for communicator
// splits, and the exposed-buffer registry used by one-sided windows.
//
// Internal to minimpi; user code interacts through Runtime/Comm/Window.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "minimpi/types.hpp"

namespace lossyfft::minimpi::detail {

/// One in-flight message. Two transport modes share the struct:
///
///  * eager      — `zptr == nullptr`; the payload was copied into `data`
///                 at send time and the receiver copies it out (two copies).
///                 The *receiver* returns the envelope to the pool.
///  * rendezvous — `zptr` points straight at the sender's buffer; the
///                 receiver copies from it directly (one copy) and then
///                 stores/notifies `done`, on which the sender is blocked.
///                 The *sender* returns the envelope to the pool, so `zptr`
///                 is never read after the sender resumes.
struct Envelope {
  int src = 0;
  int tag = 0;
  ContextId ctx = 0;
  int pool_shard = 0;                    // Owning EnvelopePool shard.
  std::size_t size = 0;                  // Payload bytes (both modes).
  std::vector<std::byte> data;           // Eager payload storage.
  const std::byte* zptr = nullptr;       // Rendezvous: sender's buffer.
  std::atomic<std::uint32_t> done{0};    // Rendezvous completion flag.
  Envelope* qnext = nullptr;             // Mailbox intrusive FIFO link.
};

/// Free-list over per-sender slabs of envelopes. Each world rank owns a
/// shard (its own slab + free list + mutex): a sender only ever acquires
/// from its shard, and releases go back to the envelope's owning shard, so
/// acquire/release from different senders never contend on one global
/// mutex and eager payload buffers stay local to the rank that fills them.
/// Slabs are deques so envelope addresses stay stable forever (a late
/// `done.notify_one()` may land on a recycled envelope; `atomic::wait`
/// re-checks the value, so a stable, still-live address is all that is
/// required). Eager `data` vectors keep their capacity across reuse, so
/// steady-state traffic allocates nothing.
class EnvelopePool {
 public:
  /// One shard per world rank. Every envelope reserves `eager_bytes` of
  /// payload storage (at most kDefaultRendezvousThreshold) when it is
  /// carved: the LIFO free list hands out envelopes in a
  /// scheduling-dependent order, and one that only ever carried a small
  /// message (a collective's word) must not grow when it later carries a
  /// larger eager one.
  EnvelopePool(int shards, std::size_t eager_bytes);

  /// Pop (or slab-extend) an envelope from `shard` (the sender's world
  /// rank), reset to eager defaults.
  Envelope* acquire(int shard, int src, int tag, ContextId ctx);
  /// Return `e` to the shard it was carved from (recorded in the
  /// envelope, so eager receivers and rendezvous senders both route it
  /// home without knowing the topology).
  void release(Envelope* e);

 private:
  struct Shard {
    std::mutex mu;
    std::deque<Envelope> slab;   // Stable addresses; never shrinks.
    std::vector<Envelope*> free;
  };
  /// Carve a fresh envelope in `s` (caller holds its mutex or owns it).
  Envelope& carve(Shard& s, int shard);

  std::deque<Shard> shards_;  // deque: Shard holds a mutex (immovable).
  std::size_t eager_reserve_ = 0;
};

/// Per-rank receive queue with MPI-style (source, tag, context) matching.
/// Matching is FIFO per (src, tag, ctx) triple: the first enqueued envelope
/// that satisfies the pattern wins, which preserves MPI's non-overtaking
/// guarantee for messages between a fixed pair of ranks. The queue is an
/// intrusive list threaded through the pool-owned envelopes (`qnext`), so
/// steady-state push/pop never allocates — a deque would buy a fresh node
/// every buffer's worth of traffic — and mid-queue unlinks are O(1) once
/// matched. Push/pop mutex ordering gives the happens-before edge that
/// makes the receiver's read of the sender's buffer (rendezvous) or of
/// `data` (eager) race-free.
class Mailbox {
 public:
  void push(Envelope* e);

  /// Block until an envelope matching (src|kAnySource, tag|kAnyTag, ctx)
  /// is available and return it.
  Envelope* pop_match(int src, int tag, ContextId ctx);

  /// Non-blocking variant; returns nullptr if nothing matches right now.
  Envelope* try_pop_match(int src, int tag, ContextId ctx);

 private:
  /// Unlink and return the first queued match, or nullptr. Caller holds mu_.
  Envelope* unlink_match(int src, int tag, ContextId ctx);

  std::mutex mu_;
  std::condition_variable cv_;
  Envelope* head_ = nullptr;
  Envelope* tail_ = nullptr;
};

/// Centralized sense-reversing barrier over the shared address space: one
/// atomic RMW per arriving rank plus a wait on the generation word, versus
/// the log2(p) rounds of zero-byte mailbox messages (each a mutex + condvar
/// hop) a dissemination barrier costs. One instance per communicator
/// context, so concurrent barriers on split communicators never interact.
struct BarrierState {
  std::atomic<std::uint32_t> arrived{0};
  std::atomic<std::uint32_t> generation{0};
};

/// A put parked by fault injection (FaultKind::kDelay): the full effect of
/// the original call — payload bytes and, for put_with_header, the notify
/// word — captured at put time and replayed only when the *target* rank
/// calls Window::flush_delayed. Nothing lands asynchronously, so a delayed
/// chunk is invisible to the target's header scan until the target itself
/// elects to wait — the deterministic model of a straggling arrival.
struct DelayedPut {
  int target = 0;  // Comm rank whose window region the put addresses.
  std::size_t slot_offset = 0;
  bool has_header = false;
  std::uint64_t header = 0;
  std::vector<std::byte> payload;
};

/// Window exposure record: where rank r's exposed span lives.
struct WindowExposure {
  std::vector<std::span<std::byte>> spans;  // Indexed by comm rank.
  /// Serializes concurrent accumulates (MPI guarantees element-wise
  /// atomicity for same-op accumulates; a window-wide lock is the simple
  /// conservative implementation).
  std::mutex accumulate_mu;
  /// Per-target passive-target locks (MPI_Win_lock, exclusive mode).
  std::deque<std::mutex> target_locks;
  /// Fault injection: puts parked by FaultKind::kDelay, drained by the
  /// target's Window::flush_delayed. Mutex-protected (any origin may park,
  /// any target may drain); empty — and never locked — in fault-free runs.
  std::mutex delayed_mu;
  std::vector<DelayedPut> delayed;
};

/// State shared by every rank thread of one Runtime.
class SharedState {
 public:
  explicit SharedState(int world_size, const MinimpiOptions& options = {});

  int world_size() const { return static_cast<int>(mailboxes_.size()); }
  const MinimpiOptions& options() const { return options_; }
  Mailbox& mailbox(int world_rank);
  EnvelopePool& pool() { return pool_; }

  /// Collectively consistent context-id allocation: every rank calling with
  /// the same (parent ctx, epoch, color) gets the same fresh id.
  ContextId alloc_context(ContextId parent, std::uint64_t epoch, int color);

  /// Barrier state for communicator context `ctx`, lazily created on first
  /// use. The returned address is stable for the state's lifetime, so
  /// callers may cache it.
  BarrierState& barrier_state(ContextId ctx);

  /// Window registry. Windows are created collectively; `register_window`
  /// is called once per rank and returns the shared exposure record once
  /// every participant has contributed (last caller completes it).
  /// `participants` lists world ranks in communicator order.
  WindowExposure* window_begin(ContextId ctx, std::uint64_t epoch,
                               const std::vector<int>& participants,
                               int comm_rank, std::span<std::byte> local);
  void window_end(ContextId ctx, std::uint64_t epoch);

  // --- Observability counters ----------------------------------------------
  // Monotonic world-wide tallies, used by tests to assert that a plan's
  // steady state performs no hidden setup traffic (window churn, offset
  // exchanges). Relaxed increments: readers synchronize externally
  // (barrier) before comparing deltas.
  std::uint64_t window_begin_count() const {
    return windows_created_.load(std::memory_order_relaxed);
  }
  std::uint64_t message_post_count() const {
    return messages_posted_.load(std::memory_order_relaxed);
  }
  void note_message_posted() {
    messages_posted_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t barrier_count() const {
    return barriers_passed_.load(std::memory_order_relaxed);
  }
  void note_barrier() {
    barriers_passed_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::vector<Mailbox> mailboxes_;
  MinimpiOptions options_;
  EnvelopePool pool_;

  std::mutex ctx_mu_;
  ContextId next_ctx_ = 1;
  std::map<std::tuple<ContextId, std::uint64_t, int>, ContextId> ctx_cache_;

  struct WindowSlot {
    WindowExposure exposure;
    int contributions = 0;
    int expected = 0;
    std::condition_variable cv;
  };
  std::mutex win_mu_;
  std::map<std::pair<ContextId, std::uint64_t>, WindowSlot> windows_;

  // Node-based map: BarrierState holds atomics, so addresses must be stable.
  std::mutex barrier_mu_;
  std::map<ContextId, BarrierState> barriers_;

  std::atomic<std::uint64_t> windows_created_{0};   // Per-rank window_begin calls.
  std::atomic<std::uint64_t> messages_posted_{0};   // Two-sided messages enqueued.
  std::atomic<std::uint64_t> barriers_passed_{0};   // Per-rank barrier entries.
};

}  // namespace lossyfft::minimpi::detail
