#pragma once
// Wire protocol of the mlpserved simulation service: length-prefixed JSON
// over a Unix-domain stream socket. One frame = one u32 little-endian
// payload length followed by exactly that many bytes of UTF-8 JSON (always
// a single object). Requests carry a "type" discriminator; every response
// carries "ok" plus "type", and failures are TYPED — "error" is a stable
// machine-readable kind (queue-full, bad-request, no-such-job, ...) with a
// human "message" beside it, so clients can implement backpressure without
// string-matching prose. The JSON itself reuses the exact-u64 writer/parser
// from src/trace.
//
// Request vocabulary:
//   {"type":"ping"}                      -> pong (version + schema handshake)
//   {"type":"submit","job":{...}}        -> submitted {id} | error queue-full
//   {"type":"status"}                    -> server status incl. cache counters
//   {"type":"status","id":N}             -> job-status {state}
//   {"type":"result","id":N,"wait":b}    -> result {state,cache_hit,csv,stats}
//   {"type":"cancel","id":N}             -> cancelled | error job-running/...
//   {"type":"shutdown"}                  -> shutting-down (drain + exit)
//   {"type":"snapshot","protocol_version":2,"cycle":N,"job":{...}}
//                                        -> snapshot {key,cycle,...} — run the
//                                           job, capture at the first
//                                           quiescent cycle >= N, cache the
//                                           blob server-side
//   {"type":"restore","protocol_version":2,"cycle":N,"job":{...}}
//                                        -> restored {csv,stats} | error
//                                           no-such-snapshot
//
// The snapshot verbs joined in protocol version 2 and REQUIRE the client to
// declare it ("protocol_version":2 in the request): an old client replaying
// captured frames gets a typed version-mismatch, never a silent misparse.
// Snapshot blobs never cross the wire — they live in the daemon's LRU cache
// keyed (architecture, benchmark, every knob, requested cycle), so a restore
// under a different config is a typed no-such-snapshot.
//
// The result's "stats" member is the run's stats-JSON object shipped as an
// escaped string, byte-for-byte what a local sim::stats_json_run() emits, so
// client-side document reassembly is bit-identical to a local run.

#include <array>
#include <optional>
#include <string>

#include "sim/fork.hpp"
#include "sim/prepare.hpp"
#include "sim/runner.hpp"
#include "trace/json.hpp"

namespace mlp::serve {

/// Protocol revision; bumped on breaking wire changes. Reported by pong.
/// History: 1 initial vocabulary; 2 snapshot/restore verbs (which demand the
/// client declare this version) and zero-length frames became typed
/// bad-request rejections.
inline constexpr u32 kProtocolVersion = 2;

/// A frame larger than this is a protocol violation (a desynced or hostile
/// peer), not a legitimate request.
inline constexpr u32 kMaxFrameBytes = 64u << 20;

// Stable error kinds (the "error" member of a failed response).
inline constexpr char kErrQueueFull[] = "queue-full";
inline constexpr char kErrBadRequest[] = "bad-request";
inline constexpr char kErrNoSuchJob[] = "no-such-job";
inline constexpr char kErrJobRunning[] = "job-running";
inline constexpr char kErrJobPending[] = "job-pending";
inline constexpr char kErrJobDone[] = "job-done";
inline constexpr char kErrShuttingDown[] = "shutting-down";
/// A version-gated request (snapshot/restore) without the right
/// "protocol_version" declaration — the typed rejection old clients see.
inline constexpr char kErrVersionMismatch[] = "version-mismatch";
/// Restore for an (arch, bench, knobs, cycle) the daemon has not captured (or
/// has LRU-evicted).
inline constexpr char kErrNoSuchSnapshot[] = "no-such-snapshot";
/// CLIENT-side kind for a deadline expiring mid-exchange (connect handshake,
/// request write, response read). Never sent by the server: a peer that hit
/// this has an undecodable half-exchange on the wire and must drop the
/// connection.
inline constexpr char kErrTimeout[] = "timeout";

/// Lifecycle of a submitted job. Held (hold_ms) jobs count as queued — the
/// hold models queue dwell and stays cancellable.
enum class JobState : u8 { kQueued, kRunning, kDone, kCancelled };

const char* job_state_name(JobState state);

/// One submitted job plus its service-level options.
struct JobSpec {
  sim::MatrixJob job;
  /// Artificial queue dwell in milliseconds before execution starts; the
  /// job stays in kQueued (and cancellable) while held. Used by tests and
  /// load experiments to make admission behaviour deterministic; cut short
  /// by shutdown drain.
  u64 hold_ms = 0;
};

// ---- framing ----

/// The 4-byte little-endian length header that starts every frame.
std::array<char, 4> frame_header(u32 payload_bytes);

/// Write one frame; false on a broken/closed peer (EPIPE, short write).
/// Read one frame; std::nullopt on clean EOF before a length byte. Throws
/// SimError("protocol", ...) on oversized/truncated frames.
///
/// With a deadline, both poll the (blocking) fd before every read/write
/// with the time remaining, so the EINTR/EAGAIN retry loops stay correct,
/// and throw SimError("timeout", ...) when `timeout_ms` elapses before the
/// frame completes. The deadline covers the WHOLE frame, not each syscall —
/// a peer trickling one byte per poll cannot stretch it. `timeout_ms` <= 0
/// means no deadline: no poll, plain blocking read/send calls.
bool write_frame(int fd, const std::string& payload, i64 timeout_ms = 0);
std::optional<std::string> read_frame(int fd, i64 timeout_ms = 0);

// ---- job spec (de)serialization ----

/// The job object of a submit request: arch, bench, tag, every knob of the
/// knob table (sim/knobs.hpp) under its member name, and hold_ms. Omitted
/// members take the same defaults as the command-line tools.
std::string job_json(const JobSpec& spec);

/// Strict parse: unknown members, wrong types, out-of-range values or
/// unknown arch spellings throw SimError(kErrBadRequest, ...).
JobSpec job_from_json(const trace::JsonValue& doc);

/// A request's millisecond member ("hold_ms", "wait_ms"); 0 when absent.
/// Anything but an integer in [0, kMaxDurationMs] throws kErrBadRequest.
u64 member_ms(const trace::JsonValue& obj, const std::string& name);

// ---- request builders (client side) ----

std::string ping_request();
std::string submit_request(const JobSpec& spec);
std::string status_request();
std::string job_status_request(u64 id);
/// Bounded wait: "wait_ms" asks the server to park at most that long and
/// answer with a typed job-running/job-pending HEARTBEAT if the job is
/// still in flight — the client's liveness probe for long jobs (a silent
/// node within the request deadline = dead; a heartbeat = alive, keep
/// waiting). wait_ms 0 emits the classic unbounded-wait request.
std::string result_request(u64 id, bool wait, u64 wait_ms = 0);
std::string cancel_request(u64 id);
std::string shutdown_request();
/// Snapshot verbs (protocol version 2): capture the job's state at the
/// first quiescent cycle >= `cycle` into the daemon's snapshot cache /
/// finish the job from that cached snapshot. Both requests carry the
/// protocol_version declaration the server demands.
std::string snapshot_request(const JobSpec& spec, u64 cycle);
std::string restore_request(const JobSpec& spec, u64 cycle);

// ---- response builders (server side) ----

/// Server-level status snapshot shipped by the status response.
struct ServerStatus {
  u64 queued = 0;
  u64 running = 0;
  u64 done = 0;
  u64 cancelled = 0;
  u32 threads = 0;
  u64 queue_limit = 0;
  bool accepting = true;
  sim::PrepareCacheStats cache;
  /// Snapshot-blob cache counters (protocol v2 snapshot/restore verbs).
  sim::SnapshotCacheStats snapshots;
};

std::string pong_response();
std::string submitted_response(u64 id);
std::string status_response(const ServerStatus& status);
std::string job_status_response(u64 id, JobState state);
/// `run_ok` distinguishes a job that executed but FAILED (bad config,
/// watchdog trip, verification mismatch — a per-job error, not a protocol
/// error) from a verified run. `stats_run_json` is the sim::stats_json_run
/// object (may be empty for cancelled jobs); `csv` is the
/// sim::sweep_csv_row line.
std::string result_response(u64 id, JobState state, bool cache_hit,
                            bool run_ok, const std::string& csv,
                            const std::string& stats_run_json);
std::string shutting_down_response();
/// Snapshot capture outcome: `captured` false means the run completed
/// before any quiescent cycle >= the request's (graceful miss, nothing
/// cached). `csv`/`stats_run_json` report the capturing run itself, which
/// finishes normally either way.
std::string snapshot_response(const std::string& key, u64 captured_cycle,
                              u64 blob_bytes, bool captured, bool run_ok,
                              const std::string& csv,
                              const std::string& stats_run_json);
/// Restore-and-finish outcome; same result payload shape as
/// result_response so clients reuse the decoding path.
std::string restored_response(const std::string& key, u64 captured_cycle,
                              bool run_ok, const std::string& csv,
                              const std::string& stats_run_json);
std::string error_response(const std::string& kind,
                           const std::string& message);

// ---- response decoding (client side) ----

/// A parsed response envelope. For ok responses `doc` carries the full
/// object; for failures `error` is the typed kind.
struct Response {
  bool ok = false;
  std::string type;
  std::string error;    ///< typed kind; empty iff ok
  std::string message;  ///< human diagnostic; empty iff ok
  std::string raw;      ///< the response frame verbatim (for --raw output)
  trace::JsonValue doc;
};

/// Parse a response frame; throws SimError("protocol", ...) if the payload
/// is not a response-shaped object.
Response parse_response(const std::string& payload);

}  // namespace mlp::serve
