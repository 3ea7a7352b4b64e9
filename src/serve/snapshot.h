#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "arch/fpga_grid.h"
#include "flow/experiment.h"
#include "netlist/netlist.h"
#include "place/placement.h"

namespace repro {

/// Pipeline progress marker stored in a snapshot: everything up to and
/// including the named stage has completed and its outputs are serialized.
enum class FlowStage : std::uint8_t {
  kInit = 0,        ///< job admitted; netlist not yet generated/placed
  kPlaced = 1,      ///< netlist generated and annealed onto its grid
  kReplicated = 2,  ///< replication engine finished (netlist/placement mutated)
  kRouted = 3,      ///< routed and measured; metrics are final
};

const char* flow_stage_name(FlowStage s);

/// Engine outcome summary carried across a checkpoint (the deterministic
/// subset of EngineResult; per-iteration history is not checkpointed).
struct EngineSummary {
  bool ran = false;  ///< false for variant "none" or local replication
  double initial_critical = 0;
  double final_critical = 0;
  double initial_wirelength = 0;
  double final_wirelength = 0;
  std::int64_t initial_blocks = 0;
  std::int64_t final_blocks = 0;
  int total_replicated = 0;
  int total_unified = 0;
  int iterations = 0;
  bool ran_out_of_slots = false;
  bool reached_lower_bound = false;
  double lower_bound = 0;
  /// EngineResult::region_truncations (max_region_points guard activations).
  std::uint64_t region_truncations = 0;
};

/// Deterministic binary snapshot of one flow job.
///
/// Contains everything needed to resume a place -> replicate -> route run at
/// a stage boundary in a fresh process and reproduce the straight-through
/// run's CircuitMetrics bit-for-bit: the exact netlist (including dead cells
/// and equivalence classes — ids must survive), the placement (including
/// occupant-list order, which RNG-driven consumers observe), the full
/// FlowConfig, the job-level RNG stream position, and per-stage progress.
///
/// File layout (little-endian):
///   "RPS1"  magic
///   u32     format version (kSnapshotVersion)
///   u64     payload size in bytes
///   u64     FNV-1a 64 checksum of the payload
///   payload (see snapshot.cpp; strings are u64 length + bytes, doubles are
///            IEEE-754 bit patterns, ids are raw i32 values)
///
/// Serialization is bit-deterministic: serializing a parsed snapshot
/// reproduces the input bytes exactly.
struct FlowSnapshot {
  std::string job_id;
  std::string circuit;
  std::string variant;
  FlowStage stage = FlowStage::kInit;
  FlowConfig cfg;
  std::array<std::uint64_t, 4> rng_state{};

  int grid_n = 0;
  int grid_io_rat = 2;
  /// Present from kPlaced on. grid must outlive pl.
  std::unique_ptr<Netlist> nl;
  std::unique_ptr<FpgaGrid> grid;
  std::unique_ptr<Placement> pl;

  /// Wall-clock of completed stages (informational; excluded from the
  /// deterministic results the service reports in stable mode).
  double place_seconds = 0;
  double replicate_seconds = 0;

  EngineSummary engine;
  bool has_metrics = false;
  CircuitMetrics metrics;

  /// Cumulative invariant-audit checks run by the completed stages. Restored
  /// on resume so the result line's deterministic `audit_checks` counter is
  /// byte-identical to an uninterrupted run even when stages are skipped
  /// (the defensive re-audit of a restored snapshot is deliberately NOT
  /// counted — its cost depends on where the interruption happened).
  std::int32_t audit_checks = 0;
};

/// Thrown on malformed, truncated, corrupted (checksum mismatch) or
/// version-incompatible snapshot bytes, and on file I/O failures.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Serializes header + payload into a byte buffer.
std::string serialize_snapshot(const FlowSnapshot& s);

// Wire-level blocks shared with the dist protocol (src/dist/protocol.cpp):
// the engine summary and metrics a worker streams back inside a Result
// message use the exact snapshot encoding, so the two formats cannot drift.
// The load functions throw WireError on truncation/non-finite values.
class ByteWriter;
class ByteReader;
void wire_save_engine(const EngineSummary& e, ByteWriter& w);
EngineSummary wire_load_engine(ByteReader& r);
void wire_save_metrics(const CircuitMetrics& m, ByteWriter& w);
CircuitMetrics wire_load_metrics(ByteReader& r);

/// Parses a buffer produced by serialize_snapshot. Throws SnapshotError.
FlowSnapshot parse_snapshot(std::string_view bytes);

/// Atomic file write (temp file + rename) / read. Throw SnapshotError.
void write_snapshot_file(const FlowSnapshot& s, const std::string& path);
FlowSnapshot read_snapshot_file(const std::string& path);

/// The byte-level halves of the two above, for callers that hold
/// serialized snapshots (checkpoints a dist worker streamed, resume bytes
/// handed to run_flow_attempt). write_file_atomic throws SnapshotError;
/// read_file returns false (and leaves `bytes` empty) when `path` is
/// missing or unreadable.
void write_file_atomic(const std::string& path, std::string_view bytes);
bool read_file(const std::string& path, std::string* bytes);

/// True when `id` is 1..128 characters of [A-Za-z0-9._-]: safe to use as a
/// file name under a checkpoint or sessions directory.
bool filename_safe(const std::string& id);

}  // namespace repro
