#include "serve/daemon.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <poll.h>
#include <sstream>

#include "common/error.hpp"

namespace lossyfft::serve {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Global fields are x-fastest over the full grid n; boxes address the
// same convention locally (box.hpp).
void gather_box(const std::complex<double>* global,
                const std::array<int, 3>& n, const Box3& b,
                std::complex<double>* local) {
  const std::size_t nx = static_cast<std::size_t>(n[0]);
  const std::size_t nxy = nx * static_cast<std::size_t>(n[1]);
  const std::size_t run = static_cast<std::size_t>(b.size[0]);
  for (int z = 0; z < b.size[2]; ++z) {
    for (int y = 0; y < b.size[1]; ++y) {
      const std::size_t src = static_cast<std::size_t>(b.lo[0]) +
                              nx * static_cast<std::size_t>(b.lo[1] + y) +
                              nxy * static_cast<std::size_t>(b.lo[2] + z);
      std::memcpy(local, global + src, run * sizeof(*local));
      local += run;
    }
  }
}

void scatter_box(const std::complex<double>* local, const Box3& b,
                 const std::array<int, 3>& n, std::complex<double>* global) {
  const std::size_t nx = static_cast<std::size_t>(n[0]);
  const std::size_t nxy = nx * static_cast<std::size_t>(n[1]);
  const std::size_t run = static_cast<std::size_t>(b.size[0]);
  for (int z = 0; z < b.size[2]; ++z) {
    for (int y = 0; y < b.size[1]; ++y) {
      const std::size_t dst = static_cast<std::size_t>(b.lo[0]) +
                              nx * static_cast<std::size_t>(b.lo[1] + y) +
                              nxy * static_cast<std::size_t>(b.lo[2] + z);
      std::memcpy(global + dst, local, run * sizeof(*local));
      local += run;
    }
  }
}

std::vector<std::byte> error_payload(const std::string& reason) {
  WireWriter w;
  w.str(reason);
  return w.payload();
}

}  // namespace

// Broadcast job log: every rank thread replays the same dispatch order.
// A nullptr entry is the shutdown sentinel. Retired slots are cleared so
// job payloads do not outlive their delivery.
class Daemon::CollectiveLog {
 public:
  explicit CollectiveLog(int ranks)
      : cursors_(static_cast<std::size_t>(ranks), 0) {}

  void push(std::shared_ptr<Job> job) {
    std::lock_guard<std::mutex> lock(mu_);
    if (job != nullptr) ++pushed_;
    log_.push_back(std::move(job));
    cv_.notify_all();
  }

  std::shared_ptr<Job> await(int rank) {
    std::unique_lock<std::mutex> lock(mu_);
    std::size_t& cur = cursors_[static_cast<std::size_t>(rank)];
    cv_.wait(lock, [&] { return cur < log_.size(); });
    return log_[cur++];
  }

  /// Rank 0 only, after the post-job barrier (every cursor is past the
  /// slot by then, so dropping the stored reference is safe).
  void retire() {
    std::lock_guard<std::mutex> lock(mu_);
    log_[next_retire_++].reset();
    ++retired_;
  }

  std::uint64_t outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pushed_ - retired_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Job>> log_;
  std::vector<std::size_t> cursors_;
  std::size_t next_retire_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t retired_ = 0;
};

Daemon::Daemon(DaemonOptions opt) : opt_(std::move(opt)), sched_(opt_.limits) {
  cache_ = std::make_unique<PlanCache>(opt_.ranks, opt_.cache_budget_bytes);
  log_ = std::make_unique<CollectiveLog>(opt_.ranks);
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  LFFT_REQUIRE(!opt_.socket_path.empty(), "daemon: socket path required");
  LFFT_REQUIRE(opt_.ranks >= 1, "daemon: need at least one rank");
  LFFT_REQUIRE(!started_.exchange(true), "daemon: already started");
  sockaddr_un addr{};
  LFFT_REQUIRE(opt_.socket_path.size() < sizeof(addr.sun_path),
               "daemon: socket path too long for AF_UNIX");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  LFFT_REQUIRE(listen_fd_ >= 0, "daemon: socket() failed");
  ::unlink(opt_.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, opt_.socket_path.c_str(),
              opt_.socket_path.size());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("daemon: cannot bind " + opt_.socket_path);
  }
  world_thread_ = std::thread([this] {
    minimpi::run_ranks(opt_.ranks,
                       [this](minimpi::Comm& comm) { rank_loop(comm); });
  });
  {
    std::unique_lock<std::mutex> lock(ready_mu_);
    ready_cv_.wait(lock, [&] { return world_ready_; });
  }
  writer_thread_ = std::thread([this] { writer_loop(); });
  listen_thread_ = std::thread([this] { listen_loop(); });
}

void Daemon::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  if (listen_thread_.joinable()) listen_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Kick every live connection; reader loops observe EOF and unwind
  // (closing their sessions, which cancels queued jobs).
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    readers.swap(readers_);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
  // Let the in-flight collective finish, then send the world home.
  while (log_->outstanding() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  log_->push(nullptr);
  if (world_thread_.joinable()) world_thread_.join();
  {
    std::lock_guard<std::mutex> lock(wq_mu_);
    wq_stop_ = true;
  }
  wq_cv_.notify_all();
  if (writer_thread_.joinable()) writer_thread_.join();
  ::unlink(opt_.socket_path.c_str());
}

DaemonCounters Daemon::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

std::uint64_t Daemon::world_window_begins() const {
  return world_state_ ? world_state_->window_begin_count() : 0;
}

void Daemon::rank_loop(minimpi::Comm& comm) {
  if (comm.rank() == 0) world_state_ = &comm.state();
  comm.barrier();  // world_state_ published before anyone reports ready.
  if (comm.rank() == 0) {
    std::lock_guard<std::mutex> lock(ready_mu_);
    world_ready_ = true;
    ready_cv_.notify_all();
  }
  for (;;) {
    std::shared_ptr<Job> job = log_->await(comm.rank());
    if (job == nullptr) break;
    execute_job(comm, *job);
    comm.barrier();  // All bricks scattered before rank 0 ships the field.
    if (comm.rank() == 0) {
      log_->retire();
      finish_job(job);
    }
  }
  cache_->clear(comm);
}

void Daemon::execute_job(minimpi::Comm& comm, Job& job) {
  const std::shared_ptr<Session>& s = job.session;
  // Cancellation and lease state must be decided once and broadcast: a
  // concurrent disconnect may flip them mid-job, and ranks reading at
  // different times would diverge on whether to run the collective.
  std::uint64_t verdict[2] = {0, 0};  // [run, lease address]
  if (comm.rank() == 0) {
    verdict[0] = s->closed.load() ? 0 : 1;
    verdict[1] = reinterpret_cast<std::uintptr_t>(s->lease.load());
  }
  comm.bcast(std::span<std::uint64_t>(verdict, 2), 0);
  if (verdict[0] == 0) {
    if (comm.rank() == 0) {
      job.state.store(static_cast<std::uint8_t>(JobState::kCancelled));
    }
    return;
  }
  if (comm.rank() == 0) {
    job.state.store(static_cast<std::uint8_t>(JobState::kRunning));
  }
  PlanCacheEntry* entry = reinterpret_cast<PlanCacheEntry*>(verdict[1]);
  if (entry == nullptr) {
    const SessionConfig cfg = s->cfg;
    const int gpn = opt_.gpus_per_node;
    entry = cache_->acquire(comm, s->sig, [&cfg, gpn](minimpi::Comm& c) {
      return std::make_unique<Fft3d<double>>(c, cfg.n,
                                             fft_options_for(cfg, gpn));
    });
    comm.barrier();
    if (comm.rank() == 0) {
      s->lease.store(entry);
      // A disconnect that raced past the verdict would miss this lease;
      // hand it back immediately so the entry stays evictable.
      if (s->closed.load()) release_lease(*s);
    }
  } else if (comm.rank() == 0) {
    cache_->touch(entry);
  }

  Fft3d<double>& fft = *entry->per_rank[static_cast<std::size_t>(comm.rank())];
  const osc::ExchangeStats before = fft.stats();
  const std::vector<double> lag_before = fft.source_lag_seconds();

  // Fft3d::backward runs the forward pipeline (inbox images in, outbox
  // images out), so every direction gathers over the inbox and scatters
  // over the outbox; a roundtrip feeds the forward result back in.
  std::vector<std::complex<double>> in_brick(fft.local_count());
  std::vector<std::complex<double>> out_brick(fft.output_count());
  gather_box(job.input.data(), fft.grid(), fft.inbox(), in_brick.data());
  if (job.dir != TransformDir::kBackward) {
    fft.forward(in_brick, out_brick);
    if (job.dir == TransformDir::kRoundtrip) in_brick.swap(out_brick);
  }
  if (job.dir != TransformDir::kForward) fft.backward(in_brick, out_brick);
  scatter_box(out_brick.data(), fft.outbox(), fft.grid(), job.output.data());

  // Per-tenant accounting: world-sum the per-rank wire/fault/skew deltas
  // of this job and attribute them to the session.
  const osc::ExchangeStats after = fft.stats();
  const std::vector<double> lag_after = fft.source_lag_seconds();
  const std::size_t p = static_cast<std::size_t>(comm.size());
  std::vector<double> agg(11 + p, 0.0);
  agg[0] = double(after.payload_bytes - before.payload_bytes);
  agg[1] = double(after.wire_bytes - before.wire_bytes);
  agg[2] = double(after.rounds - before.rounds);
  agg[3] = double(after.messages - before.messages);
  agg[4] = double(after.chunks_issued - before.chunks_issued);
  agg[5] = after.seconds - before.seconds;
  agg[6] = double(after.parity_bytes - before.parity_bytes);
  agg[7] = double(after.chunks_reconstructed - before.chunks_reconstructed);
  agg[8] = double(after.straggler_waits - before.straggler_waits);
  agg[9] = double(after.skew_epochs - before.skew_epochs);
  agg[10] = after.skew_seconds - before.skew_seconds;
  for (std::size_t r = 0; r < p && r < lag_after.size(); ++r) {
    agg[11 + r] = lag_after[r] - lag_before[r];
  }
  comm.allreduce(std::span<double>(agg), minimpi::ReduceOp::kSum);
  const double max_skew = comm.allreduce_one(
      after.max_skew_seconds - before.max_skew_seconds > 0.0
          ? after.max_skew_seconds
          : 0.0,
      minimpi::ReduceOp::kMax);
  if (comm.rank() == 0) {
    std::lock_guard<std::mutex> lock(s->stats_mu);
    TenantStats& t = s->stats;
    t.wire.payload_bytes += std::uint64_t(agg[0]);
    t.wire.wire_bytes += std::uint64_t(agg[1]);
    t.wire.rounds += std::uint64_t(agg[2]);
    t.wire.messages += std::uint64_t(agg[3]);
    t.wire.chunks_issued += std::uint64_t(agg[4]);
    t.wire.seconds += agg[5];
    t.wire.parity_bytes += std::uint64_t(agg[6]);
    t.wire.chunks_reconstructed += std::uint64_t(agg[7]);
    t.wire.straggler_waits += std::uint64_t(agg[8]);
    t.wire.skew_epochs += std::uint64_t(agg[9]);
    t.wire.skew_seconds += agg[10];
    if (max_skew > t.wire.max_skew_seconds) {
      t.wire.max_skew_seconds = max_skew;
    }
    if (t.source_lag.size() < p) t.source_lag.resize(p, 0.0);
    for (std::size_t r = 0; r < p; ++r) t.source_lag[r] += agg[11 + r];
    job.state.store(static_cast<std::uint8_t>(JobState::kDone));
  }
}

void Daemon::finish_job(const std::shared_ptr<Job>& job) {
  const std::shared_ptr<Session>& s = job->session;
  sched_.finish(s);
  const JobState state = static_cast<JobState>(job->state.load());
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    if (state == JobState::kDone) {
      ++counters_.jobs_completed;
    } else if (state == JobState::kCancelled) {
      ++counters_.jobs_cancelled;
    } else {
      ++counters_.jobs_failed;
    }
  }
  {
    std::lock_guard<std::mutex> lock(s->stats_mu);
    if (state == JobState::kDone) {
      ++s->stats.jobs_done;
    } else if (state == JobState::kCancelled) {
      ++s->stats.jobs_cancelled;
    } else {
      ++s->stats.jobs_failed;
    }
  }
  {
    std::lock_guard<std::mutex> lock(s->jobs_mu);
    s->jobs.erase(job->client_id);
  }
  job->input = std::vector<std::complex<double>>();  // Release the field.
  if (!s->closed.load()) {
    WireWriter w;
    w.u64(job->client_id);
    w.u8(state == JobState::kDone        ? 0
         : state == JobState::kCancelled ? 2
                                         : 1);
    w.str(job->error);
    if (state == JobState::kDone) {
      w.bytes(std::as_bytes(std::span<const std::complex<double>>(
          job->output.data(), job->output.size())));
    }
    queue_reply(s, MsgType::kTransformDone, w.payload());
  }
  job->output = std::vector<std::complex<double>>();
  pump();
}

void Daemon::pump() {
  std::lock_guard<std::mutex> lock(pump_mu_);
  if (stopping_.load()) return;
  if (log_->outstanding() > 0) return;  // Jobs serialize on the world.
  if (std::shared_ptr<Job> job = sched_.pick(now_seconds())) {
    log_->push(std::move(job));
  }
}

void Daemon::queue_reply(const std::shared_ptr<Session>& s, MsgType type,
                         std::vector<std::byte> payload) {
  {
    std::lock_guard<std::mutex> lock(wq_mu_);
    if (wq_stop_) return;
    wq_.push_back(Outgoing{s, type, std::move(payload)});
  }
  wq_cv_.notify_one();
}

void Daemon::writer_loop() {
  std::unique_lock<std::mutex> lock(wq_mu_);
  for (;;) {
    wq_cv_.wait(lock, [&] { return wq_stop_ || !wq_.empty(); });
    if (wq_.empty()) return;  // wq_stop_ with a drained queue.
    Outgoing out = std::move(wq_.front());
    wq_.pop_front();
    lock.unlock();
    {
      std::lock_guard<std::mutex> wl(out.session->write_mu);
      if (out.session->fd >= 0) {
        write_frame(out.session->fd, out.type, out.payload);
      }
    }
    lock.lock();
  }
}

void Daemon::listen_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    pump();  // Tick: rate-throttled queues advance even while idle.
    if (r <= 0) continue;
    const int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (cfd < 0) continue;
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load()) {
      ::close(cfd);
      break;
    }
    conn_fds_.insert(cfd);
    readers_.emplace_back([this, cfd] { serve_connection(cfd); });
  }
}

void Daemon::serve_connection(int fd) {
  std::shared_ptr<Session> session;
  Frame frame;
  bool keep = true;
  while (keep && !stopping_.load()) {
    const FrameRead r = read_frame(fd, frame, opt_.max_frame_bytes);
    if (r == FrameRead::kEof) break;
    if (r == FrameRead::kOversize) {
      // The remaining stream bytes are unframeable; reject and hang up —
      // this connection only.
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.frames_rejected;
      }
      send_error(session, fd, "frame exceeds the daemon's size limit");
      break;
    }
    try {
      keep = handle_frame(fd, session, frame);
    } catch (const Error& e) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.frames_rejected;
      }
      send_error(session, fd, e.what());
      keep = false;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.erase(fd);
  }
  if (session != nullptr) {
    close_session(session);
    std::lock_guard<std::mutex> wl(session->write_mu);
    session->fd = -1;
    ::close(fd);
  } else {
    ::close(fd);
  }
}

void Daemon::send_error(const std::shared_ptr<Session>& s, int fd,
                        const std::string& reason) {
  // With a session open the writer thread shares this fd; serialize.
  if (s != nullptr) {
    std::lock_guard<std::mutex> lock(s->write_mu);
    write_frame(fd, MsgType::kError, error_payload(reason));
  } else {
    write_frame(fd, MsgType::kError, error_payload(reason));
  }
}

bool Daemon::handle_frame(int fd, std::shared_ptr<Session>& session,
                          const Frame& frame) {
  WireReader r(frame.payload);
  switch (frame.type) {
    case MsgType::kOpenSession: {
      LFFT_REQUIRE(session == nullptr, "serve: session already open");
      const SessionConfig cfg = decode_config(r);
      const std::string deny = sched_.admit(cfg);
      if (!deny.empty()) {
        {
          std::lock_guard<std::mutex> lock(counters_mu_);
          ++counters_.sessions_rejected;
        }
        WireWriter w;
        w.u8(0);
        w.str(deny);
        write_frame(fd, MsgType::kOpenAck, w.payload());
        return true;  // The client may retry with a satisfiable ask.
      }
      auto s = std::make_shared<Session>();
      s->fd = fd;
      s->cfg = cfg;
      s->sig = signature_key(cfg, opt_.ranks);
      {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        s->id = next_session_++;
      }
      if (!sched_.add(s)) {
        {
          std::lock_guard<std::mutex> lock(counters_mu_);
          ++counters_.sessions_rejected;
        }
        WireWriter w;
        w.u8(0);
        w.str("daemon session table is full");
        write_frame(fd, MsgType::kOpenAck, w.payload());
        return true;
      }
      {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        sessions_[s->id] = s;
      }
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.sessions_opened;
      }
      session = std::move(s);
      WireWriter w;
      w.u8(1);
      w.u64(session->id);
      w.u32(static_cast<std::uint32_t>(opt_.ranks));
      std::lock_guard<std::mutex> wl(session->write_mu);
      write_frame(fd, MsgType::kOpenAck, w.payload());
      return true;
    }
    case MsgType::kSubmitTransform: {
      LFFT_REQUIRE(session != nullptr, "serve: no session open");
      const std::uint64_t client_id = r.u64();
      const std::uint8_t dir = r.u8();
      LFFT_REQUIRE(dir <= static_cast<std::uint8_t>(TransformDir::kRoundtrip),
                   "serve: unknown transform direction");
      const std::array<int, 3>& n = session->cfg.n;
      const std::size_t elems = std::size_t(n[0]) * n[1] * n[2];
      LFFT_REQUIRE(r.remaining() == elems * sizeof(std::complex<double>),
                   "serve: field size does not match the session grid");
      auto job = std::make_shared<Job>();
      job->id = next_job_.fetch_add(1);
      job->client_id = client_id;
      job->dir = static_cast<TransformDir>(dir);
      job->session = session;
      const std::span<const std::byte> field =
          r.raw(elems * sizeof(std::complex<double>));
      job->input.resize(elems);
      std::memcpy(job->input.data(), field.data(), field.size());
      job->output.assign(elems, std::complex<double>());
      std::string deny;
      WireWriter w;
      w.u64(client_id);
      if (sched_.enqueue(session, job, &deny)) {
        {
          std::lock_guard<std::mutex> lock(session->jobs_mu);
          session->jobs[client_id] = job;
        }
        w.u8(1);
      } else {
        w.u8(0);
        w.str(deny);
      }
      {
        std::lock_guard<std::mutex> wl(session->write_mu);
        write_frame(fd, MsgType::kSubmitAck, w.payload());
      }
      pump();
      return true;
    }
    case MsgType::kProgress: {
      LFFT_REQUIRE(session != nullptr, "serve: no session open");
      const std::uint64_t client_id = r.u64();
      std::uint8_t state = static_cast<std::uint8_t>(JobState::kUnknown);
      {
        std::lock_guard<std::mutex> lock(session->jobs_mu);
        if (const auto it = session->jobs.find(client_id);
            it != session->jobs.end()) {
          state = it->second->state.load();
        }
      }
      WireWriter w;
      w.u64(client_id);
      w.u8(state);
      std::lock_guard<std::mutex> wl(session->write_mu);
      write_frame(fd, MsgType::kProgressReply, w.payload());
      return true;
    }
    case MsgType::kStats: {
      LFFT_REQUIRE(session != nullptr, "serve: no session open");
      WireWriter w;
      w.str(stats_text(session));
      std::lock_guard<std::mutex> wl(session->write_mu);
      write_frame(fd, MsgType::kStatsReply, w.payload());
      return true;
    }
    case MsgType::kCloseSession: {
      if (session != nullptr) {
        close_session(session);
        std::lock_guard<std::mutex> wl(session->write_mu);
        write_frame(fd, MsgType::kCloseAck, {});
      } else {
        write_frame(fd, MsgType::kCloseAck, {});
      }
      return false;
    }
    default:
      throw Error("serve: unknown frame type " +
                  std::to_string(static_cast<std::uint32_t>(frame.type)));
  }
}

std::string Daemon::stats_text(const std::shared_ptr<Session>& s) {
  std::ostringstream os;
  os.precision(17);
  const CacheCounters cc = cache_->counters();
  const DaemonCounters dc = counters();
  os << "ranks " << opt_.ranks << '\n'
     << "sessions " << sched_.session_count() << '\n'
     << "sessions_opened " << dc.sessions_opened << '\n'
     << "sessions_rejected " << dc.sessions_rejected << '\n'
     << "jobs_completed " << dc.jobs_completed << '\n'
     << "jobs_failed " << dc.jobs_failed << '\n'
     << "jobs_cancelled " << dc.jobs_cancelled << '\n'
     << "frames_rejected " << dc.frames_rejected << '\n'
     << "cache_hits " << cc.hits << '\n'
     << "cache_misses " << cc.misses << '\n'
     << "cache_evictions " << cc.evictions << '\n'
     << "cache_entries " << cc.entries << '\n'
     << "cache_bytes " << cc.bytes << '\n'
     << "cache_budget_bytes " << cc.budget_bytes << '\n'
     << "cache_leases " << cc.leases << '\n';
  std::lock_guard<std::mutex> lock(s->stats_mu);
  const TenantStats& t = s->stats;
  os << "tenant_jobs_done " << t.jobs_done << '\n'
     << "tenant_jobs_failed " << t.jobs_failed << '\n'
     << "tenant_jobs_cancelled " << t.jobs_cancelled << '\n'
     << "tenant_payload_bytes " << t.wire.payload_bytes << '\n'
     << "tenant_wire_bytes " << t.wire.wire_bytes << '\n'
     << "tenant_messages " << t.wire.messages << '\n'
     << "tenant_chunks_issued " << t.wire.chunks_issued << '\n'
     << "tenant_parity_bytes " << t.wire.parity_bytes << '\n'
     << "tenant_chunks_reconstructed " << t.wire.chunks_reconstructed << '\n'
     << "tenant_straggler_waits " << t.wire.straggler_waits << '\n'
     << "tenant_skew_epochs " << t.wire.skew_epochs << '\n'
     << "tenant_skew_seconds " << t.wire.skew_seconds << '\n'
     << "tenant_max_skew_seconds " << t.wire.max_skew_seconds << '\n'
     << "tenant_exchange_seconds " << t.wire.seconds << '\n';
  for (std::size_t r = 0; r < t.source_lag.size(); ++r) {
    os << "tenant_source_lag " << r << ' ' << t.source_lag[r] << '\n';
  }
  return os.str();
}

void Daemon::close_session(const std::shared_ptr<Session>& s) {
  if (s->closed.exchange(true)) return;
  const std::vector<std::shared_ptr<Job>> dropped = sched_.drain(s);
  for (const std::shared_ptr<Job>& j : dropped) {
    j->state.store(static_cast<std::uint8_t>(JobState::kCancelled));
  }
  if (!dropped.empty()) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.jobs_cancelled += dropped.size();
  }
  sched_.remove(s->id);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(s->id);
  }
  release_lease(*s);
  {
    std::lock_guard<std::mutex> lock(s->jobs_mu);
    s->jobs.clear();
  }
}

void Daemon::release_lease(Session& s) {
  if (PlanCacheEntry* e = s.lease.exchange(nullptr)) cache_->release(e);
}

}  // namespace lossyfft::serve
