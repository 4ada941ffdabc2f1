#include "minimpi/state.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lossyfft::minimpi::detail {

EnvelopePool::EnvelopePool(int shards, std::size_t eager_bytes)
    : eager_reserve_(std::min(eager_bytes, kDefaultRendezvousThreshold)) {
  LFFT_REQUIRE(shards > 0, "envelope pool needs at least one shard");
  for (int i = 0; i < shards; ++i) shards_.emplace_back();
  // Seed every shard: fire-and-forget zero-byte traffic (barrier-free PSCW
  // handshakes) leaves a scheduling-dependent number of envelopes in
  // flight, and seeding keeps those bursts from growing the slab once a
  // plan's steady state begins. ~8 KiB per shard.
  constexpr int kSeedEnvelopes = 16;
  for (int i = 0; i < shards; ++i) {
    Shard& s = shards_[static_cast<std::size_t>(i)];
    s.free.reserve(kSeedEnvelopes * 2);
    for (int k = 0; k < kSeedEnvelopes; ++k) s.free.push_back(&carve(s, i));
  }
}

Envelope& EnvelopePool::carve(Shard& s, int shard) {
  Envelope& e = s.slab.emplace_back();
  e.pool_shard = shard;
  e.data.reserve(eager_reserve_);
  return e;
}

Envelope* EnvelopePool::acquire(int shard, int src, int tag, ContextId ctx) {
  LFFT_ASSERT(shard >= 0 && shard < static_cast<int>(shards_.size()));
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  Envelope* e = nullptr;
  {
    std::lock_guard lk(s.mu);
    if (s.free.empty()) {
      e = &carve(s, shard);
    } else {
      e = s.free.back();
      s.free.pop_back();
    }
  }
  e->src = src;
  e->tag = tag;
  e->ctx = ctx;
  e->size = 0;
  e->data.clear();  // Keeps capacity: steady state allocates nothing.
  e->zptr = nullptr;
  e->done.store(0, std::memory_order_relaxed);
  return e;
}

void EnvelopePool::release(Envelope* e) {
  Shard& s = shards_[static_cast<std::size_t>(e->pool_shard)];
  std::lock_guard lk(s.mu);
  s.free.push_back(e);
}

void Mailbox::push(Envelope* e) {
  {
    std::lock_guard lk(mu_);
    e->qnext = nullptr;
    if (tail_ == nullptr) {
      head_ = e;
    } else {
      tail_->qnext = e;
    }
    tail_ = e;
  }
  cv_.notify_all();
}

namespace {
bool matches(const Envelope& e, int src, int tag, ContextId ctx) {
  return e.ctx == ctx && (src == kAnySource || e.src == src) &&
         (tag == kAnyTag || e.tag == tag);
}
}  // namespace

Envelope* Mailbox::unlink_match(int src, int tag, ContextId ctx) {
  Envelope* prev = nullptr;
  for (Envelope* e = head_; e != nullptr; prev = e, e = e->qnext) {
    if (!matches(*e, src, tag, ctx)) continue;
    if (prev == nullptr) {
      head_ = e->qnext;
    } else {
      prev->qnext = e->qnext;
    }
    if (tail_ == e) tail_ = prev;
    e->qnext = nullptr;
    return e;
  }
  return nullptr;
}

Envelope* Mailbox::pop_match(int src, int tag, ContextId ctx) {
  std::unique_lock lk(mu_);
  for (;;) {
    if (Envelope* e = unlink_match(src, tag, ctx)) return e;
    cv_.wait(lk);
  }
}

Envelope* Mailbox::try_pop_match(int src, int tag, ContextId ctx) {
  std::lock_guard lk(mu_);
  return unlink_match(src, tag, ctx);
}

SharedState::SharedState(int world_size, const MinimpiOptions& options)
    : mailboxes_(world_size),
      options_(options),
      pool_(world_size, options.rendezvous_threshold) {
  LFFT_REQUIRE(world_size > 0, "world size must be positive");
}

Mailbox& SharedState::mailbox(int world_rank) {
  LFFT_ASSERT(world_rank >= 0 && world_rank < world_size());
  return mailboxes_[static_cast<std::size_t>(world_rank)];
}

ContextId SharedState::alloc_context(ContextId parent, std::uint64_t epoch,
                                     int color) {
  std::lock_guard lk(ctx_mu_);
  const auto key = std::make_tuple(parent, epoch, color);
  auto [it, inserted] = ctx_cache_.try_emplace(key, next_ctx_);
  if (inserted) ++next_ctx_;
  return it->second;
}

BarrierState& SharedState::barrier_state(ContextId ctx) {
  std::lock_guard lk(barrier_mu_);
  return barriers_[ctx];
}

WindowExposure* SharedState::window_begin(ContextId ctx, std::uint64_t epoch,
                                          const std::vector<int>& participants,
                                          int comm_rank,
                                          std::span<std::byte> local) {
  windows_created_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lk(win_mu_);
  const auto key = std::make_pair(ctx, epoch);
  WindowSlot& slot = windows_[key];
  if (slot.expected == 0) {
    slot.expected = static_cast<int>(participants.size());
    slot.exposure.spans.resize(participants.size());
    // deque: mutexes are neither movable nor copyable.
    for (std::size_t i = 0; i < participants.size(); ++i) {
      slot.exposure.target_locks.emplace_back();
    }
  }
  LFFT_ASSERT(comm_rank >= 0 &&
              comm_rank < static_cast<int>(slot.exposure.spans.size()));
  slot.exposure.spans[static_cast<std::size_t>(comm_rank)] = local;
  ++slot.contributions;
  if (slot.contributions == slot.expected) {
    slot.cv.notify_all();
  } else {
    slot.cv.wait(lk, [&] { return slot.contributions == slot.expected; });
  }
  return &slot.exposure;
}

void SharedState::window_end(ContextId ctx, std::uint64_t epoch) {
  std::lock_guard lk(win_mu_);
  const auto key = std::make_pair(ctx, epoch);
  auto it = windows_.find(key);
  if (it == windows_.end()) return;  // Already reclaimed by the last leaver.
  // Each leaver decrements; the last one erases the slot. Callers must have
  // synchronized (fence) before destroying the window, which Window does.
  if (--it->second.contributions == 0) windows_.erase(it);
}

}  // namespace lossyfft::minimpi::detail
