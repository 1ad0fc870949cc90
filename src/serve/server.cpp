#include "serve/server.hpp"

#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>

#include "common/error.hpp"
#include "serve/transport.hpp"
#include "sim/knobs.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace mlp::serve {

namespace {

/// A job still occupying an admission slot (the queue_limit population).
bool non_terminal(JobState state) {
  return state == JobState::kQueued || state == JobState::kRunning;
}

/// The snapshot verbs are version-gated: a request that does not declare
/// the current protocol version gets the typed version-mismatch rejection,
/// so an old client can never trip into semantics it predates.
void require_protocol_version(const trace::JsonValue& doc, const char* verb) {
  const trace::JsonValue* v = doc.find("protocol_version");
  MLP_SIM_CHECK(
      v != nullptr && v->type == trace::JsonValue::Type::kNumber &&
          v->is_integer && v->unsigned_integer == kProtocolVersion,
      kErrVersionMismatch,
      std::string(verb) + " requires \"protocol_version\":" +
          std::to_string(kProtocolVersion) +
          " (snapshot verbs joined the protocol in version 2)");
}

/// Shared parse of the snapshot/restore request body: the job spec plus the
/// checkpoint cycle, with the snapshot-specific validity checks.
JobSpec snapshot_verb_spec(const trace::JsonValue& doc, u64* cycle) {
  const trace::JsonValue* job = doc.find("job");
  MLP_SIM_CHECK(job != nullptr, kErrBadRequest,
                "request lacks a \"job\" object");
  JobSpec spec = job_from_json(*job);
  // A restored run's trace would silently lack every warmup event —
  // tracing and server-side snapshots don't compose.
  MLP_SIM_CHECK(!spec.job.options.trace.enabled(), kErrBadRequest,
                "snapshot/restore jobs cannot enable tracing");
  MLP_SIM_CHECK(doc.find("cycle") != nullptr, kErrBadRequest,
                "request lacks \"cycle\"");
  *cycle = doc.u64_at("cycle");
  MLP_SIM_CHECK(*cycle > 0, kErrBadRequest, "\"cycle\" must be positive");
  return spec;
}

/// Cache key of a captured blob: architecture, benchmark, every knob of
/// the knob table in lossless text, and the REQUESTED cycle (what the
/// client can reproduce; the quiesce-drained capture cycle travels in the
/// response instead). A restore under any other config misses.
std::string snapshot_cache_key(const sim::MatrixJob& job, u64 cycle) {
  return std::string(arch::arch_name(job.kind)) + "|" + job.bench + "|" +
         sim::knob_identity(job.options) + "|" + std::to_string(cycle);
}

/// Cap the job's wall-clock watchdog at the server's budget (0 = none): a
/// client cannot opt out of the operator's hang backstop.
void apply_job_budget(u64 budget_ms, sim::MatrixJob* job) {
  u64& wall = job->options.cfg.watchdog.wall_ms;
  if (budget_ms != 0 && (wall == 0 || wall > budget_ms)) wall = budget_ms;
}

/// This process's first job id: a random point below 2^52, so every id
/// stays exact in a double. Ids count up from it, so an id one daemon
/// process issued names no job of a later process at the same address: a
/// client that reconnects to a restarted daemon and repeats `result` for a
/// stale id reads no-such-job, never another job's result.
u64 first_job_id() {
  std::random_device entropy;
  const u64 bits = (u64{entropy()} << 32) ^ entropy();
  return (bits & ((u64{1} << 52) - 1)) + 1;
}

}  // namespace

Server::Server(const ServeConfig& cfg)
    : cfg_(cfg),
      cache_(cfg.cache_entries),
      snapshots_(cfg.snapshot_entries),
      next_id_(first_job_id()) {}

Server::~Server() { close_listeners(); }

void Server::close_listeners() {
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(cfg_.socket_path.c_str());
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
}

std::string Server::tcp_address() const {
  if (tcp_fd_ < 0) return "";
  Endpoint ep = parse_endpoint(cfg_.listen_address);
  ep.port = tcp_port_;
  return endpoint_name(ep);
}

void Server::listen() {
  MLP_SIM_CHECK(!cfg_.socket_path.empty() || !cfg_.listen_address.empty(),
                "serve", "no endpoint: need a socket path or a TCP address");
  if (!cfg_.socket_path.empty()) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = cfg_.socket_path;
    unix_fd_ = listen_endpoint(ep);
  }
  if (!cfg_.listen_address.empty()) {
    const Endpoint ep = parse_endpoint(cfg_.listen_address);
    MLP_SIM_CHECK(ep.kind == Endpoint::Kind::kTcp, "serve",
                  "--listen expects HOST:PORT, got: " + cfg_.listen_address);
    tcp_fd_ = listen_endpoint(ep, &tcp_port_);
  }
  pool_ = std::make_unique<sim::ThreadPool>(cfg_.threads);
}

void Server::run() {
  MLP_SIM_CHECK(unix_fd_ >= 0 || tcp_fd_ >= 0, "serve",
                "run() before listen()");
  while (!stop_.load()) {
    pollfd pfds[2];
    nfds_t nfds = 0;
    if (unix_fd_ >= 0) pfds[nfds++] = pollfd{unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) pfds[nfds++] = pollfd{tcp_fd_, POLLIN, 0};
    // 100 ms poll timeout: the upper bound on SIGTERM-to-drain latency
    // without needing a self-pipe in the signal handler.
    const int ready = ::poll(pfds, nfds, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      const int fd = ::accept(pfds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      if (pfds[i].fd == tcp_fd_) set_tcp_nodelay(fd);
      std::lock_guard<std::mutex> lock(threads_mutex_);
      open_fds_.push_back(fd);
      connection_threads_.emplace_back([this, fd] { serve_connection(fd); });
    }
  }

  // ---- drain ----
  // 1. Cut artificial holds short so queued jobs reach the workers, and
  //    take the pool out of jobs_' sight so late submits see shutting-down
  //    instead of racing the teardown.
  std::unique_ptr<sim::ThreadPool> pool;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, entry] : jobs_) {
      entry.wake = true;
      entry.cv.notify_all();
    }
    pool.swap(pool_);
  }
  // 2. Let every admitted job finish (ThreadPool's destructor runs the
  //    remaining queue; in-flight simulations stay under their per-job
  //    watchdog, so this cannot wedge). Clients blocked in result-wait are
  //    released by the jobs' completion notifications.
  pool.reset();
  // 3. Unblock idle connections parked in read_frame and join the handlers.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) t.join();
  close_listeners();
}

void Server::request_stop() { stop_.store(true); }

ServerStatus Server::status() const {
  ServerStatus out;
  out.queue_limit = cfg_.queue_limit;
  out.accepting = !stop_.load();
  out.cache = cache_.stats();
  out.snapshots = snapshots_.stats();
  std::lock_guard<std::mutex> lock(mutex_);
  out.threads = pool_ != nullptr ? pool_->size() : 0;
  out.queued = queued_;
  out.running = running_;
  out.done = done_;
  out.cancelled = cancelled_;
  return out;
}

void Server::serve_connection(int fd) {
  for (;;) {
    std::string request;
    try {
      std::optional<std::string> frame = read_frame(fd);
      if (!frame.has_value()) break;  // clean EOF
      request = std::move(*frame);
    } catch (const SimError&) {
      // Desynced framing: the byte stream is unrecoverable, drop the peer.
      break;
    }
    const std::string response = handle_request(request);
    if (!write_frame(fd, response)) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(threads_mutex_);
  open_fds_.erase(std::remove(open_fds_.begin(), open_fds_.end(), fd),
                  open_fds_.end());
}

std::string Server::handle_request(const std::string& payload) {
  try {
    const trace::JsonValue doc = trace::json_parse(payload);
    MLP_SIM_CHECK(doc.is_object(), kErrBadRequest,
                  "request is not a JSON object");
    const trace::JsonValue* type = doc.find("type");
    MLP_SIM_CHECK(
        type != nullptr && type->type == trace::JsonValue::Type::kString,
        kErrBadRequest, "request lacks a string \"type\"");
    if (type->string == "ping") return pong_response();
    if (type->string == "submit") return handle_submit(doc);
    if (type->string == "status") return handle_status(doc);
    if (type->string == "result") return handle_result(doc);
    if (type->string == "cancel") return handle_cancel(doc);
    if (type->string == "snapshot") return handle_snapshot(doc);
    if (type->string == "restore") return handle_restore(doc);
    if (type->string == "shutdown") {
      request_stop();
      return shutting_down_response();
    }
    return error_response(kErrBadRequest,
                          "unknown request type \"" + type->string + "\"");
  } catch (const SimError& e) {
    // Typed kinds (queue-full, no-such-job, ...) pass through; anything
    // else (json parse, config validation) is the client's bad request.
    static const char* const kTyped[] = {
        kErrQueueFull,  kErrBadRequest, kErrNoSuchJob,    kErrJobRunning,
        kErrJobPending, kErrJobDone,    kErrShuttingDown,
        kErrVersionMismatch, kErrNoSuchSnapshot,
    };
    for (const char* kind : kTyped) {
      if (e.kind() == kind) return error_response(e.kind(), e.what());
    }
    return error_response(kErrBadRequest, e.what());
  }
}

std::string Server::handle_submit(const trace::JsonValue& doc) {
  const trace::JsonValue* job = doc.find("job");
  MLP_SIM_CHECK(job != nullptr, kErrBadRequest,
                "submit lacks a \"job\" object");
  JobSpec spec = job_from_json(*job);

  u64 id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_.load() || pool_ == nullptr) {
      return error_response(kErrShuttingDown, "server is draining");
    }
    if (queued_ + running_ >= cfg_.queue_limit) {
      return error_response(
          kErrQueueFull, "admission queue full (" +
                             std::to_string(cfg_.queue_limit) +
                             " jobs queued or running); retry after a fetch");
    }
    id = next_id_++;
    JobEntry& entry = jobs_[id];
    entry.spec = std::move(spec);
    ++queued_;
    // Submit under the lock: drain swaps pool_ out under the same lock, so
    // an admitted job can never race the pool teardown.
    pool_->submit([this, id] { execute(id); });
  }
  return submitted_response(id);
}

std::string Server::handle_status(const trace::JsonValue& doc) {
  if (doc.find("id") == nullptr) return status_response(status());
  const u64 id = doc.u64_at("id");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  MLP_SIM_CHECK(it != jobs_.end(), kErrNoSuchJob,
                "no job " + std::to_string(id));
  return job_status_response(id, it->second.state);
}

std::string Server::handle_result(const trace::JsonValue& doc) {
  MLP_SIM_CHECK(doc.find("id") != nullptr, kErrBadRequest,
                "result lacks \"id\"");
  const u64 id = doc.u64_at("id");
  const trace::JsonValue* wait = doc.find("wait");
  const bool block = wait != nullptr && wait->boolean;
  const trace::JsonValue* wait_ms = doc.find("wait_ms");
  const u64 bound_ms =
      wait_ms != nullptr ? wait_ms->unsigned_integer : 0;

  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  MLP_SIM_CHECK(it != jobs_.end(), kErrNoSuchJob,
                "no job " + std::to_string(id));
  JobEntry& entry = it->second;
  if (block && bound_ms > 0) {
    // Bounded wait: park at most wait_ms, then answer with a typed
    // heartbeat if the job is still in flight. This is the client's
    // liveness probe — a heartbeat proves the node is responsive even when
    // the job itself is slow, so silence within the request deadline can
    // safely be read as node death.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(bound_ms);
    entry.cv.wait_until(lock, deadline,
                        [&entry] { return !non_terminal(entry.state); });
  } else if (block) {
    entry.cv.wait(lock, [&entry] { return !non_terminal(entry.state); });
  }
  if (entry.state == JobState::kQueued) {
    throw SimError(kErrJobPending, "job " + std::to_string(id) +
                                       " is still queued; poll or wait");
  } else if (entry.state == JobState::kRunning) {
    throw SimError(kErrJobRunning, "job " + std::to_string(id) +
                                       " is still running; poll or wait");
  }
  if (entry.state == JobState::kCancelled) {
    return result_response(id, entry.state, false, false, "", "");
  }
  return result_response(id, entry.state, entry.cache_hit,
                         entry.result.ok(), sim::sweep_csv_row(entry.result),
                         sim::stats_json_run(entry.result));
}

std::string Server::handle_cancel(const trace::JsonValue& doc) {
  MLP_SIM_CHECK(doc.find("id") != nullptr, kErrBadRequest,
                "cancel lacks \"id\"");
  const u64 id = doc.u64_at("id");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    MLP_SIM_CHECK(it != jobs_.end(), kErrNoSuchJob,
                  "no job " + std::to_string(id));
    JobEntry& entry = it->second;
    switch (entry.state) {
      case JobState::kRunning:
        throw SimError(kErrJobRunning,
                       "job " + std::to_string(id) +
                           " already started; simulations are not preempted");
      case JobState::kDone:
        throw SimError(kErrJobDone,
                       "job " + std::to_string(id) + " already finished");
      case JobState::kCancelled:
        break;  // idempotent
      case JobState::kQueued:
        entry.state = JobState::kCancelled;
        entry.wake = true;
        --queued_;
        ++cancelled_;
        break;
    }
    entry.cv.notify_all();
  }
  return job_status_response(id, JobState::kCancelled);
}

std::string Server::handle_snapshot(const trace::JsonValue& doc) {
  require_protocol_version(doc, "snapshot");
  u64 cycle = 0;
  JobSpec spec = snapshot_verb_spec(doc, &cycle);
  if (stop_.load()) {
    return error_response(kErrShuttingDown, "server is draining");
  }
  const std::string key = snapshot_cache_key(spec.job, cycle);
  apply_job_budget(cfg_.job_timeout_ms, &spec.job);

  // Synchronous on the connection thread: the run both produces its normal
  // result AND parks the quiesce-drained state in the snapshot cache.
  sim::SnapshotPlan plan;
  plan.capture = true;
  plan.checkpoint_at = cycle;
  const sim::MatrixResult result =
      sim::run_job(spec.job, &cache_, nullptr, &plan);
  u64 blob_bytes = 0;
  const bool captured = result.ok() && plan.captured_ok;
  if (captured) {
    blob_bytes = plan.captured.size();
    snapshots_.put(key, std::move(plan.captured), plan.captured_cycle);
  }
  return snapshot_response(key, captured ? plan.captured_cycle : 0,
                           blob_bytes, captured, result.ok(),
                           sim::sweep_csv_row(result),
                           sim::stats_json_run(result));
}

std::string Server::handle_restore(const trace::JsonValue& doc) {
  require_protocol_version(doc, "restore");
  u64 cycle = 0;
  JobSpec spec = snapshot_verb_spec(doc, &cycle);
  if (stop_.load()) {
    return error_response(kErrShuttingDown, "server is draining");
  }
  const std::string key = snapshot_cache_key(spec.job, cycle);
  const sim::SnapshotCache::EntryPtr entry = snapshots_.get(key);
  if (entry == nullptr) {
    throw SimError(kErrNoSuchSnapshot,
                   "no cached snapshot for \"" + key +
                       "\"; capture one with the snapshot verb first");
  }
  apply_job_budget(cfg_.job_timeout_ms, &spec.job);
  sim::SnapshotPlan plan;
  plan.restore_from = &entry->blob;
  const sim::MatrixResult result =
      sim::run_job(spec.job, &cache_, nullptr, &plan);
  return restored_response(key, entry->captured_cycle, result.ok(),
                           sim::sweep_csv_row(result),
                           sim::stats_json_run(result));
}

void Server::execute(u64 id) {
  sim::MatrixJob job;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    JobEntry& entry = it->second;
    if (entry.spec.hold_ms > 0) {
      // Artificial queue dwell: the job HOLDS ITS WORKER but stays in
      // kQueued (cancellable) until the hold elapses or drain/cancel wakes
      // it. Deliberate — tests pin a worker with a held job to exercise
      // queue-full backpressure and cancel deterministically.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(entry.spec.hold_ms);
      entry.cv.wait_until(lock, deadline,
                          [&entry] { return entry.wake; });
    }
    if (entry.state != JobState::kQueued) return;  // cancelled while held
    entry.state = JobState::kRunning;
    --queued_;
    ++running_;
    job = entry.spec.job;
  }
  apply_job_budget(cfg_.job_timeout_ms, &job);

  bool cache_hit = false;
  sim::MatrixResult result = sim::run_job(job, &cache_, &cache_hit);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      JobEntry& entry = it->second;
      entry.result = std::move(result);
      entry.cache_hit = cache_hit;
      entry.state = JobState::kDone;
      --running_;
      ++done_;
      entry.cv.notify_all();
    }
  }
}

}  // namespace mlp::serve
