// serve layer 4: lossyfftd — the multi-tenant transform daemon.
//
// One Daemon owns one minimpi world (opt.ranks rank threads sharing the
// process's WorkerPool) and one Unix-socket listener. Clients open
// framed sessions (protocol.hpp), submit whole-field transform jobs, and
// read results, progress, and stats back; the daemon's Scheduler decides
// admission and dispatch order, and the cross-session PlanCache ensures
// concurrent tenants with the same exchange signature share one planned
// transform.
//
// Thread shape:
//   - world thread: minimpi::run_ranks hosting opt.ranks rank loops that
//     consume a collective job log (every rank executes every job — a
//     transform is a collective);
//   - listener thread: accepts connections and ticks the scheduler so
//     rate-throttled queues advance;
//   - one reader thread per connection: parses frames, answers control
//     messages inline, enqueues jobs;
//   - writer thread: delivers bulky TransformDone frames without blocking
//     rank 0 on a slow client socket.
//
// Results are byte-identical to library-direct execution with the same
// fft_options_for(config): serving changes where the transform runs, not
// what it computes (serve_test pins this down).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/runtime.hpp"
#include "serve/plan_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"

namespace lossyfft::serve {

struct DaemonOptions {
  std::string socket_path;  ///< Required; unlinked and re-bound on start.
  int ranks = 4;            ///< World size every session's transform uses.
  int gpus_per_node = 2;    ///< Locality parameter for planned exchanges.
  std::uint64_t cache_budget_bytes = 256ull << 20;
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  SchedulerLimits limits;
};

struct DaemonCounters {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t frames_rejected = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions opt);
  ~Daemon();  // Calls stop().

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind the socket, launch the world, start serving. Throws
  /// lossyfft::Error when the socket cannot be bound. Returns with the
  /// world up: a client connecting immediately after start() is served.
  void start();

  /// Graceful shutdown: stop accepting, kick every connection, let the
  /// in-flight job finish, tear the plan cache and world down. Idempotent.
  void stop();

  const std::string& socket_path() const { return opt_.socket_path; }
  int ranks() const { return opt_.ranks; }

  CacheCounters cache_counters() const { return cache_->counters(); }
  DaemonCounters counters() const;
  std::size_t session_count() const { return sched_.session_count(); }

  /// World-wide window registrations of the daemon's SharedState; a plan
  /// construction registers exactly ranks() windows, which is how
  /// serve_test asserts two same-signature sessions built ONE plan.
  std::uint64_t world_window_begins() const;

 private:
  class CollectiveLog;

  void rank_loop(minimpi::Comm& comm);
  void execute_job(minimpi::Comm& comm, Job& job);
  void finish_job(const std::shared_ptr<Job>& job);
  void listen_loop();
  void writer_loop();
  void serve_connection(int fd);
  /// True = keep the connection; throws lossyfft::Error on a malformed
  /// payload (caught by serve_connection).
  bool handle_frame(int fd, std::shared_ptr<Session>& s, const Frame& f);
  void send_error(const std::shared_ptr<Session>& s, int fd,
                  const std::string& reason);
  void close_session(const std::shared_ptr<Session>& s);
  void release_lease(Session& s);
  void pump();
  void queue_reply(const std::shared_ptr<Session>& s, MsgType type,
                   std::vector<std::byte> payload);
  std::string stats_text(const std::shared_ptr<Session>& s);

  DaemonOptions opt_;
  Scheduler sched_;
  std::unique_ptr<PlanCache> cache_;
  std::unique_ptr<CollectiveLog> log_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  std::thread world_thread_, listen_thread_, writer_thread_;

  // Connection registry: live reader threads and their fds (so stop()
  // can shut every socket down and join).
  std::mutex conns_mu_;
  std::vector<std::thread> readers_;
  std::set<int> conn_fds_;

  std::mutex sessions_mu_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_ = 1;
  std::atomic<std::uint64_t> next_job_{1};

  mutable std::mutex counters_mu_;
  DaemonCounters counters_;

  // Writer queue (rank 0 produces, writer thread drains).
  struct Outgoing {
    std::shared_ptr<Session> session;
    MsgType type;
    std::vector<std::byte> payload;
  };
  std::mutex wq_mu_;
  std::condition_variable wq_cv_;
  std::deque<Outgoing> wq_;
  bool wq_stop_ = false;

  // World readiness handshake + rank 0's SharedState for observability.
  std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  bool world_ready_ = false;
  minimpi::detail::SharedState* world_state_ = nullptr;

  std::mutex pump_mu_;  ///< Serializes dispatch decisions.
};

}  // namespace lossyfft::serve
