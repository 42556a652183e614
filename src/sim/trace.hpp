// Memory-reference trace capture and replay.
//
// The 1990s methodology companion to execution-driven simulation (compare
// the authors' own trace-driven TPC-C study, reference [5]): capture the
// reference stream of a workload once, then replay it against any machine
// configuration. Records are fixed-width binary; replay preserves
// per-processor ordering and the instruction gaps between references, so a
// replayed run reproduces the original run's miss counts exactly on an
// identical machine.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "perf/counters.hpp"
#include "sim/machine.hpp"

namespace dss::sim {

// In memory the record is naturally aligned; on disk it is a packed 25-byte
// little-endian layout (proc@0, kind@4, len@5, addr@9, instr_gap@17),
// encoded/decoded field-by-field in save()/load(). A #pragma pack struct
// written wholesale would give the same bytes but make every addr/instr_gap
// access through records() bind misaligned references — undefined behaviour
// that UBSan rejects.
struct TraceRecord {
  u32 proc;
  u8 kind;        ///< AccessKind
  u32 len;
  SimAddr addr;
  u64 instr_gap;  ///< instructions retired since the previous reference
};

/// Bytes one record occupies in a trace file (the packed layout above; the
/// in-memory struct is larger because of its padding).
inline constexpr std::size_t kTraceRecordBytes = 25;

/// Accumulates records in memory and writes them as a binary file.
class TraceWriter {
 public:
  void record(u32 proc, AccessKind kind, SimAddr addr, u32 len,
              u64 instr_gap);
  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  /// Write all records to `path`; returns false on I/O failure.
  [[nodiscard]] bool save(const std::string& path) const;

 private:
  std::vector<TraceRecord> records_;
};

/// Loads a trace file back into memory.
class TraceReader {
 public:
  /// Returns false on I/O or format failure.
  [[nodiscard]] bool load(const std::string& path);
  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }

 private:
  std::vector<TraceRecord> records_;
};

/// Replay a trace against a machine: issues each record at a clock advanced
/// by `base_cpi * instr_gap` between references. Returns per-processor
/// counters (indexed by processor id).
[[nodiscard]] std::vector<perf::Counters> replay(
    MachineSim& machine, const std::vector<TraceRecord>& records);

/// Convenience: attach a writer to a machine (via the trace hook), capturing
/// every reference issued until the returned guard is destroyed.
class TraceCapture {
 public:
  TraceCapture(MachineSim& machine, TraceWriter& writer);
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

 private:
  MachineSim& machine_;
};

}  // namespace dss::sim
