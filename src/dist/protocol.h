#pragma once

#include <cstdint>
#include <string>

#include "dist/frame.h"
#include "serve/job.h"

namespace repro {

/// Coordinator <-> worker message schemas, one struct per frame tag, each
/// with an encode_*/decode_* pair over the dumb frame codec (dist/frame.h).
/// Decoders throw FrameError on malformed payloads — by the time a payload
/// passes the frame checksum but fails to parse, the peer is speaking a
/// different dialect and the connection is dropped, not limped along.
///
/// Versioning: kProtocolVersion rides in Hello; a coordinator refuses a
/// worker with a different protocol version at handshake time (loudly, once)
/// instead of failing on a random message later. Unknown TAGS, by contrast,
/// are skipped silently — that is what lets a newer worker stream message
/// kinds an older coordinator does not know about.
inline constexpr std::uint32_t kProtocolVersion = 1;

enum DistFrameTag : std::uint32_t {
  kFrameHello = 1,      ///< worker -> coordinator, first frame after connect
  kFrameHelloAck = 2,   ///< coordinator -> worker, completes the handshake
  kFrameHeartbeat = 3,  ///< worker -> coordinator, liveness beacon
  kFrameAssign = 4,     ///< coordinator -> worker, one job attempt
  kFrameCheckpoint = 5, ///< worker -> coordinator, stage-boundary snapshot
  kFrameResult = 6,     ///< worker -> coordinator, attempt outcome
  kFrameShutdown = 7,   ///< coordinator -> worker, exit cleanly
};

struct HelloMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  /// Worker's pid: lets the coordinator pair a connection with the child it
  /// spawned (and SIGKILL it on a hang). In-process test workers report
  /// their own pid, which equals the coordinator's — that is the signal to
  /// never send signals.
  std::uint64_t pid = 0;
};

struct HelloAckMsg {
  std::uint32_t worker_id = 0;  ///< coordinator-assigned, unique per connect
};

struct HeartbeatMsg {
  std::uint64_t seq = 0;
};

struct AssignMsg {
  std::uint32_t job_index = 0;  ///< batch-local index, echoed in replies
  std::uint32_t attempt = 1;
  JobSpec spec;
  /// Serialized FlowSnapshot to resume from ("" = fresh run): the latest
  /// stage-boundary checkpoint the coordinator holds for this job, streamed
  /// back to whichever worker picks the job up next.
  std::string snapshot;
};

struct CheckpointMsg {
  std::uint32_t job_index = 0;
  std::uint8_t stage = 0;  ///< FlowStage of the completed boundary
  std::string snapshot;    ///< serialize_snapshot bytes
};

/// Everything the coordinator needs to finish a JobResult except the spec
/// (it keeps its own copy) and the scheduling fields it owns (state,
/// error_code, attempts, queue/run seconds).
struct ResultMsg {
  std::uint32_t job_index = 0;
  std::uint32_t attempt = 1;
  /// The worker's run_attempt classification (serve/job.h), so the
  /// coordinator settles a remote attempt exactly as FlowService settles a
  /// local one and the result log stays byte-identical.
  AttemptOutcome outcome = AttemptOutcome::kDone;
  std::string error;

  std::uint8_t completed_stage = 0;
  bool resumed = false;
  EngineSummary engine;
  bool has_metrics = false;
  CircuitMetrics metrics;

  std::string audit_level;
  std::int32_t audit_checks = 0;
  std::string audit_stage;
  std::int32_t audit_findings = 0;
  std::string audit_jsonl;

  double place_seconds = 0;
  double replicate_seconds = 0;
  double route_seconds = 0;
  std::uint64_t place_peak_rss_bytes = 0;
  std::uint64_t replicate_peak_rss_bytes = 0;
  std::uint64_t route_peak_rss_bytes = 0;
  std::uint64_t arena_bytes = 0;
};

std::string encode_hello(const HelloMsg& m);
HelloMsg decode_hello(const std::string& payload);

std::string encode_hello_ack(const HelloAckMsg& m);
HelloAckMsg decode_hello_ack(const std::string& payload);

std::string encode_heartbeat(const HeartbeatMsg& m);
HeartbeatMsg decode_heartbeat(const std::string& payload);

std::string encode_assign(const AssignMsg& m);
AssignMsg decode_assign(const std::string& payload);

std::string encode_checkpoint(const CheckpointMsg& m);
CheckpointMsg decode_checkpoint(const std::string& payload);

std::string encode_result(const ResultMsg& m);
ResultMsg decode_result(const std::string& payload);

/// Copies a ResultMsg's payload into a JobResult the way a local retry loop
/// would: audit_checks accumulates across attempts (matching the in-process
/// `out.audit_checks +=` on a shared result slot), the error string is only
/// overwritten when the attempt actually produced one, everything else is
/// last-writer-wins.
void apply_result_payload(const ResultMsg& m, JobResult& r);

/// Fills a ResultMsg from a completed/failed attempt's JobResult.
ResultMsg result_msg_from(const JobResult& r, std::uint32_t job_index,
                          std::uint32_t attempt, AttemptOutcome outcome,
                          const std::string& error);

}  // namespace repro
