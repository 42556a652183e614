// Trace capture/replay tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "sim/machine_configs.hpp"
#include "util/rng.hpp"

namespace dss::sim {
namespace {

MachineConfig cfg() {
  MachineConfig c = vclass().scaled(64);
  c.num_processors = 4;
  return c;
}

std::vector<TraceRecord> random_trace(u64 seed, int n) {
  Rng rng(seed);
  std::vector<TraceRecord> t;
  u64 gap = 0;
  for (int i = 0; i < n; ++i) {
    const u32 p = static_cast<u32>(rng.uniform(0, 3));
    const SimAddr a =
        kSharedBase + static_cast<u64>(rng.uniform(0, 1 << 16)) * 8;
    const u8 kind = static_cast<u8>(rng.uniform(0, 2));
    gap = static_cast<u64>(rng.uniform(10, 500));
    t.push_back(TraceRecord{p, kind, 8, a, gap});
  }
  return t;
}

TEST(Trace, SaveLoadRoundTrip) {
  TraceWriter w;
  for (const auto& r : random_trace(1, 500)) {
    w.record(r.proc, static_cast<AccessKind>(r.kind), r.addr, r.len,
             r.instr_gap);
  }
  const std::string path = ::testing::TempDir() + "/t.dsstrace";
  ASSERT_TRUE(w.save(path));
  // 8-byte magic, u64 record count, then the packed records.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<std::size_t>(std::ftell(f)),
            16 + 500 * kTraceRecordBytes);
  std::fclose(f);
  TraceReader rd;
  ASSERT_TRUE(rd.load(path));
  ASSERT_EQ(rd.records().size(), w.records().size());
  for (std::size_t i = 0; i < rd.records().size(); ++i) {
    EXPECT_EQ(rd.records()[i].addr, w.records()[i].addr);
    EXPECT_EQ(rd.records()[i].proc, w.records()[i].proc);
    EXPECT_EQ(rd.records()[i].instr_gap, w.records()[i].instr_gap);
  }
  std::remove(path.c_str());
}

/// A one-record trace file (41 bytes) with `len` bytes at `offset`
/// overwritten by `value`'s low bytes.
void write_patched_trace(const std::string& path, std::size_t offset,
                         u64 value, std::size_t len) {
  TraceWriter w;
  w.record(0, AccessKind::Read, kSharedBase, 8, 1);
  ASSERT_TRUE(w.save(path));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&value, len, 1, f), 1u);
  std::fclose(f);
}

TEST(Trace, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/bad.dsstrace";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a trace", f);
  std::fclose(f);
  TraceReader rd;
  EXPECT_FALSE(rd.load(path));
  EXPECT_TRUE(rd.records().empty());
  EXPECT_FALSE(rd.load(path + ".does.not.exist"));

  // The unpatched file loads; each hostile patch of it is refused with no
  // records left behind. Header: magic @0, count @8; the record at @16 has
  // kind @20, len @21 and addr @25.
  write_patched_trace(path, 20, 0, 1);
  ASSERT_TRUE(rd.load(path));
  ASSERT_EQ(rd.records().size(), 1u);
  struct Patch {
    const char* what;
    std::size_t offset;
    u64 value;
    std::size_t len;
  };
  for (const Patch& p : {
           // A count no 41-byte file can hold: refused before allocating.
           Patch{"count 2^60", 8, u64{1} << 60, 8},
           Patch{"count 2", 8, 2, 8},
           // The count must match the records exactly, not bound them.
           Patch{"count 0", 8, 0, 8},
           Patch{"kind 3", 20, 3, 1},
           Patch{"len 0", 21, 0, 4},
           Patch{"addr wraps", 25, ~u64{0} - 3, 8},
       }) {
    SCOPED_TRACE(p.what);
    write_patched_trace(path, p.offset, p.value, p.len);
    EXPECT_FALSE(rd.load(path));
    EXPECT_TRUE(rd.records().empty());
  }
  std::remove(path.c_str());
}

TEST(Trace, MutatedFilesLoadValidRecordsOrNone) {
  // A small captured trace, saved once and read back as bytes.
  MachineSim m(cfg());
  TraceWriter w;
  {
    TraceCapture guard(m, w);
    (void)replay(m, random_trace(3, 64));
  }
  const std::string path = ::testing::TempDir() + "/fuzz.dsstrace";
  ASSERT_TRUE(w.save(path));
  std::vector<unsigned char> original(16 + w.records().size() *
                                               kTraceRecordBytes);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fread(original.data(), original.size(), 1, f), 1u);
  std::fclose(f);

  // Header: magic @0, count @8; record i at 16 + 25i has kind @4, len @5
  // and addr @9 (trace.hpp).
  Rng rng(2024);
  const auto pick = [&](u64 n) {
    return static_cast<std::size_t>(rng.uniform(0, static_cast<i64>(n) - 1));
  };
  const auto field = [&](std::size_t at) {
    return 16 + pick(w.records().size()) * kTraceRecordBytes + at;
  };
  const u64 edge_values[] = {0, 1, 2, 63, 64, 65, 0x7fffffff, ~u64{0} - 3,
                             ~u64{0}, u64{1} << 60};
  TraceReader rd;
  for (int i = 0; i < 1'000; ++i) {
    std::vector<unsigned char> bytes = original;
    const auto put = [&](std::size_t at, u64 value, std::size_t len) {
      std::memcpy(bytes.data() + at, &value, len);
    };
    const u64 value = rng.uniform(0, 1) == 0
                          ? edge_values[pick(std::size(edge_values))]
                          : rng.next();
    switch (i % 6) {
      case 0:  // one to four bit flips anywhere
        for (std::size_t k = 0, n = 1 + pick(4); k < n; ++k) {
          bytes[pick(bytes.size())] ^=
              static_cast<unsigned char>(1u << pick(8));
        }
        break;
      case 1: bytes.resize(pick(bytes.size())); break;  // truncation
      case 2: put(8, value, 8); break;                   // header count
      case 3: put(field(5), value, 4); break;            // len
      case 4: put(field(4), value, 1); break;            // kind
      case 5: put(field(9), value, 8); break;            // addr
    }
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
      ASSERT_EQ(std::fwrite(bytes.data(), bytes.size(), 1, f), 1u);
    }
    std::fclose(f);

    SCOPED_TRACE("mutant " + std::to_string(i));
    if (!rd.load(path)) {
      EXPECT_TRUE(rd.records().empty());
      continue;
    }
    EXPECT_LE(16 + rd.records().size() * kTraceRecordBytes, bytes.size());
    for (const TraceRecord& r : rd.records()) {
      ASSERT_GT(r.len, 0u);
      ASSERT_LE(r.kind, static_cast<u8>(AccessKind::Atomic));
      ASSERT_GE(r.addr + (r.len - 1), r.addr) << "address wraps";
    }
  }
  std::remove(path.c_str());
}

TEST(Trace, ReplayIsDeterministic) {
  const auto trace = random_trace(7, 5'000);
  MachineSim m1(cfg()), m2(cfg());
  const auto c1 = replay(m1, trace);
  const auto c2 = replay(m2, trace);
  ASSERT_EQ(c1.size(), c2.size());
  for (std::size_t p = 0; p < c1.size(); ++p) {
    EXPECT_EQ(c1[p].l1d_misses, c2[p].l1d_misses);
    EXPECT_EQ(c1[p].dirty_misses, c2[p].dirty_misses);
    EXPECT_EQ(c1[p].cycles, c2[p].cycles);
  }
}

TEST(Trace, ReplayOnDifferentMachinesDiffers) {
  const auto trace = random_trace(9, 5'000);
  MachineSim hp(vclass().scaled(64));
  MachineSim sgi(origin2000().scaled(64));
  const auto ch = replay(hp, trace);
  const auto cs = replay(sgi, trace);
  u64 hp_miss = 0, sgi_miss = 0;
  for (const auto& c : ch) hp_miss += c.l1d_misses;
  for (const auto& c : cs) sgi_miss += c.l1d_misses;
  EXPECT_NE(hp_miss, sgi_miss)
      << "a 2 MB cache and a 512 B L1 cannot agree on this footprint";
}

TEST(Trace, CaptureHooksEveryReference) {
  MachineSim m(cfg());
  perf::Counters c;
  m.attach_counters(0, &c);
  TraceWriter w;
  {
    TraceCapture guard(m, w);
    (void)m.access(0, AccessKind::Read, kSharedBase, 8, 0);
    (void)m.access(0, AccessKind::Write, kSharedBase + 64, 8, 100);
  }
  // Hook removed by the guard: further accesses are not recorded.
  (void)m.access(0, AccessKind::Read, kSharedBase + 128, 8, 200);
  ASSERT_EQ(w.records().size(), 2u);
  EXPECT_EQ(w.records()[0].addr, kSharedBase);
  EXPECT_EQ(static_cast<AccessKind>(w.records()[1].kind), AccessKind::Write);
}

TEST(Trace, CaptureRefusesAMachineWithAnObserver) {
  // The machine has one observer slot: a capture must not silently detach
  // an observer already there (an invariant checker, say).
  MachineSim m(cfg());
  ProtocolObserver other;
  m.set_observer(&other);
  TraceWriter w;
  EXPECT_THROW({ TraceCapture guard(m, w); }, std::logic_error);
  EXPECT_EQ(m.observer(), &other);
  m.set_observer(nullptr);
}

TEST(Trace, CapturedWorkloadReplaysWithSameMissCount) {
  // Capture a deterministic storm, then replay it on a fresh identical
  // machine: aggregate miss counts must match exactly.
  MachineSim m(cfg());
  perf::Counters live[4];
  for (u32 p = 0; p < 4; ++p) m.attach_counters(p, &live[p]);
  TraceWriter w;
  Rng rng(11);
  {
    TraceCapture guard(m, w);
    u64 t = 0;
    for (int i = 0; i < 10'000; ++i) {
      const u32 p = static_cast<u32>(rng.uniform(0, 3));
      const SimAddr a =
          kSharedBase + static_cast<u64>(rng.uniform(0, 4096)) * 32;
      (void)m.access(p, rng.chance(0.3) ? AccessKind::Write : AccessKind::Read,
                     a, 8, t += 50);
    }
  }
  u64 live_misses = 0;
  for (const auto& c : live) live_misses += c.l1d_misses;

  MachineSim fresh(cfg());
  const auto replayed = replay(fresh, w.records());
  u64 replay_misses = 0;
  for (const auto& c : replayed) replay_misses += c.l1d_misses;
  EXPECT_EQ(replay_misses, live_misses);
}

}  // namespace
}  // namespace dss::sim
