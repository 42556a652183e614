#include "sim/trace.hpp"

#include <cstring>
#include <stdexcept>

namespace dss::sim {

namespace {
constexpr char kMagic[8] = {'D', 'S', 'S', 'T', 'R', 'C', '0', '1'};

void encode(const TraceRecord& r, unsigned char* out) {
  std::memcpy(out + 0, &r.proc, sizeof r.proc);
  std::memcpy(out + 4, &r.kind, sizeof r.kind);
  std::memcpy(out + 5, &r.len, sizeof r.len);
  std::memcpy(out + 9, &r.addr, sizeof r.addr);
  std::memcpy(out + 17, &r.instr_gap, sizeof r.instr_gap);
}

void decode(const unsigned char* in, TraceRecord& r) {
  std::memcpy(&r.proc, in + 0, sizeof r.proc);
  std::memcpy(&r.kind, in + 4, sizeof r.kind);
  std::memcpy(&r.len, in + 5, sizeof r.len);
  std::memcpy(&r.addr, in + 9, sizeof r.addr);
  std::memcpy(&r.instr_gap, in + 17, sizeof r.instr_gap);
}
}  // namespace

void TraceWriter::record(u32 proc, AccessKind kind, SimAddr addr, u32 len,
                         u64 instr_gap) {
  records_.push_back(
      TraceRecord{proc, static_cast<u8>(kind), len, addr, instr_gap});
}

bool TraceWriter::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(kMagic, sizeof kMagic, 1, f) == 1;
  const u64 n = records_.size();
  ok = ok && std::fwrite(&n, sizeof n, 1, f) == 1;
  if (ok && n != 0) {
    std::vector<unsigned char> wire(n * kTraceRecordBytes);
    for (u64 i = 0; i < n; ++i) {
      encode(records_[i], wire.data() + i * kTraceRecordBytes);
    }
    ok = std::fwrite(wire.data(), kTraceRecordBytes, n, f) == n;
  }
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

bool TraceReader::load(const std::string& path) {
  records_.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[8];
  bool ok = std::fread(magic, sizeof magic, 1, f) == 1 &&
            std::memcmp(magic, kMagic, sizeof magic) == 0;
  u64 n = 0;
  ok = ok && std::fread(&n, sizeof n, 1, f) == 1;
  // The header count is untrusted: the file must hold exactly that many
  // records, checked before allocating anything for them.
  const long header_end = ok ? std::ftell(f) : -1;
  ok = ok && header_end >= 0 && std::fseek(f, 0, SEEK_END) == 0;
  const long file_end = ok ? std::ftell(f) : -1;
  ok = ok && file_end >= header_end &&
       static_cast<u64>(file_end - header_end) % kTraceRecordBytes == 0 &&
       n == static_cast<u64>(file_end - header_end) / kTraceRecordBytes &&
       std::fseek(f, header_end, SEEK_SET) == 0;
  if (ok && n != 0) {
    std::vector<unsigned char> wire(n * kTraceRecordBytes);
    ok = std::fread(wire.data(), kTraceRecordBytes, n, f) == n;
    records_.resize(n);
    for (u64 i = 0; ok && i < n; ++i) {
      TraceRecord& r = records_[i];
      decode(wire.data() + i * kTraceRecordBytes, r);
      // A zero length has no last byte (the machine's line loop would run
      // from the first line to address -1), nor has a reference that wraps
      // past the top of the address space (it would touch no line at all);
      // kinds stop at Atomic.
      ok = r.len != 0 && r.addr + (r.len - 1) >= r.addr &&
           r.kind <= static_cast<u8>(AccessKind::Atomic);
    }
  }
  std::fclose(f);
  if (!ok) records_.clear();
  return ok;
}

std::vector<perf::Counters> replay(MachineSim& machine,
                                   const std::vector<TraceRecord>& records) {
  const u32 nproc = machine.config().num_processors;
  std::vector<perf::Counters> counters(nproc);
  std::vector<u64> clock(nproc, 0);
  for (u32 p = 0; p < nproc; ++p) machine.attach_counters(p, &counters[p]);

  const double cpi = machine.config().base_cpi;
  for (const TraceRecord& r : records) {
    const u32 p = r.proc % nproc;
    clock[p] += static_cast<u64>(static_cast<double>(r.instr_gap) * cpi);
    counters[p].instructions += r.instr_gap;
    const u64 stall = machine.access(p, static_cast<AccessKind>(r.kind),
                                     r.addr, r.len, clock[p]);
    clock[p] += stall;
    counters[p].cycles = clock[p];
  }
  for (u32 p = 0; p < nproc; ++p) machine.attach_counters(p, nullptr);
  return counters;
}

TraceCapture::TraceCapture(MachineSim& machine, TraceWriter& writer)
    : machine_(machine), writer_(writer) {
  if (machine_.observer() != nullptr) {
    throw std::logic_error(
        "TraceCapture: the machine already has a protocol observer");
  }
  machine_.set_observer(this);
}

TraceCapture::~TraceCapture() { machine_.set_observer(nullptr); }

}  // namespace dss::sim
