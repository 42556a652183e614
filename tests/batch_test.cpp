// Tests for the batched, shard-parallel replay core (sim/batch.hpp):
// equivalence with the legacy serial replay, bit-identity across shard
// counts (serial and pooled), epoch-merge determinism against recorded
// epochs-on digests, unwinding after a failing shard, shard-geometry
// limits, and the synthetic reference-stream generators.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "perf/counters.hpp"
#include "sim/batch.hpp"
#include "sim/check/checked_replay.hpp"
#include "sim/machine.hpp"
#include "sim/machine_configs.hpp"
#include "sim/refstream.hpp"
#include "sim/trace.hpp"
#include "util/threadpool.hpp"

namespace dss::sim {
namespace {

void expect_counters_eq(const perf::Counters& a, const perf::Counters& b,
                        bool compare_stack, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.spin_cycles, b.spin_cycles);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.l1d_misses, b.l1d_misses);
  EXPECT_EQ(a.l2d_misses, b.l2d_misses);
  EXPECT_EQ(a.dirty_misses, b.dirty_misses);
  EXPECT_EQ(a.cache_interventions, b.cache_interventions);
  EXPECT_EQ(a.invalidations_recv, b.invalidations_recv);
  EXPECT_EQ(a.upgrades, b.upgrades);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.migratory_transfers, b.migratory_transfers);
  EXPECT_EQ(a.tlb_misses, b.tlb_misses);
  EXPECT_EQ(a.mem_requests, b.mem_requests);
  EXPECT_EQ(a.mem_latency_cycles, b.mem_latency_cycles);
  EXPECT_EQ(a.remote_accesses, b.remote_accesses);
  EXPECT_EQ(a.l1_miss_causes.by_cause, b.l1_miss_causes.by_cause);
  EXPECT_EQ(a.l2_miss_causes.by_cause, b.l2_miss_causes.by_cause);
  EXPECT_EQ(a.obj_misses, b.obj_misses);
  EXPECT_EQ(a.obj_comm_misses, b.obj_comm_misses);
  if (compare_stack) {
    EXPECT_EQ(a.stack.compute, b.stack.compute);
    EXPECT_EQ(a.stack.spin, b.stack.spin);
    EXPECT_EQ(a.stack.sched, b.stack.sched);
    EXPECT_EQ(a.stack.tlb, b.stack.tlb);
    EXPECT_EQ(a.stack.atomics, b.stack.atomics);
    EXPECT_EQ(a.stack.l2_hit, b.stack.l2_hit);
    EXPECT_EQ(a.stack.mem_local, b.stack.mem_local);
    EXPECT_EQ(a.stack.mem_remote_near, b.stack.mem_remote_near);
    EXPECT_EQ(a.stack.mem_remote_mid, b.stack.mem_remote_mid);
    EXPECT_EQ(a.stack.mem_remote_far, b.stack.mem_remote_far);
    EXPECT_EQ(a.stack.intervention, b.stack.intervention);
  }
}

void expect_all_eq(const std::vector<perf::Counters>& a,
                   const std::vector<perf::Counters>& b, bool compare_stack,
                   const std::string& where) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    expect_counters_eq(a[p], b[p], compare_stack,
                       where + " proc=" + std::to_string(p));
  }
}

std::vector<TraceRecord> stream(RefPattern pat, u32 nproc = 4,
                                u64 records = 40'000) {
  RefStreamConfig rc;
  rc.pattern = pat;
  rc.nproc = nproc;
  rc.records = records;
  rc.footprint_bytes = u64{256} << 10;
  return make_refstream(rc);
}

/// FNV-1a over every counter field the replay core writes, in a fixed
/// order: one u64 that changes if any counter, miss cause, object-class
/// tally or CPI-stack bucket moves.
u64 counters_digest(const perf::Counters& c) {
  u64 h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (u64 v : {c.cycles, c.instructions, c.spin_cycles, c.loads, c.stores,
                c.atomics, c.l1d_misses, c.l2d_misses, c.dirty_misses,
                c.cache_interventions, c.invalidations_recv, c.upgrades,
                c.writebacks, c.migratory_transfers, c.tlb_misses,
                c.mem_requests, c.mem_latency_cycles, c.remote_accesses}) {
    mix(v);
  }
  for (u64 v : c.l1_miss_causes.by_cause) mix(v);
  for (u64 v : c.l2_miss_causes.by_cause) mix(v);
  for (u64 v : c.obj_misses) mix(v);
  for (u64 v : c.obj_comm_misses) mix(v);
  const perf::CpiStack& k = c.stack;
  for (u64 v : {k.compute, k.spin, k.sched, k.tlb, k.atomics, k.l2_hit,
                k.mem_local, k.mem_remote_near, k.mem_remote_mid,
                k.mem_remote_far, k.intervention}) {
    mix(v);
  }
  return h;
}

constexpr RefPattern kAllPatterns[] = {
    RefPattern::kSeqScan, RefPattern::kHotProbe, RefPattern::kPointerChase,
    RefPattern::kPingPong, RefPattern::kMixed};

TEST(MaxShards, MatchesCacheGeometry) {
  // V-Class scaled/16: single-level 128 KB direct-mapped, 32 B lines ->
  // 4096 sets, no L1 constraint.
  EXPECT_EQ(max_shards(vclass().scaled(16)), 4096u);
  // Origin scaled/16: L1 2 KB/32 B 2-way (32 sets), L2 256 KB/128 B 2-way
  // (1024 sets). A coherence unit spans 4 L1 lines, so only l1_sets >> 2 = 8
  // distinct L1 set groups exist per unit stride — the limiting term.
  EXPECT_EQ(max_shards(origin2000().scaled(16)), 8u);
  // Full-size machines (V-Class 2 MB direct / 32 B; Origin L1 512 sets).
  EXPECT_EQ(max_shards(vclass()), 65536u);
  EXPECT_EQ(max_shards(origin2000()), 128u);
}

TEST(ReplayBatched, MatchesLegacyReplayVclass) {
  const MachineConfig cfg = vclass().scaled(16);
  for (RefPattern pat : kAllPatterns) {
    const auto recs = stream(pat);
    MachineSim legacy(cfg);
    const auto want = replay(legacy, recs);
    const auto got = replay_batched(cfg, recs);
    // Legacy replay leaves the CPI stack unpopulated; everything else must
    // match bit-for-bit.
    expect_all_eq(want, got, /*compare_stack=*/false,
                  std::string("vclass/") + ref_pattern_name(pat));
    // The batched path folds every stall into the stack, so I9 holds.
    for (const perf::Counters& c : got) {
      EXPECT_EQ(c.stack.total(), c.cycles);
    }
  }
}

TEST(ReplayBatched, MatchesLegacyReplayOrigin) {
  const MachineConfig cfg = origin2000().scaled(16);
  for (RefPattern pat : kAllPatterns) {
    const auto recs = stream(pat);
    MachineSim legacy(cfg);
    const auto want = replay(legacy, recs);
    const auto got = replay_batched(cfg, recs);
    expect_all_eq(want, got, /*compare_stack=*/false,
                  std::string("origin/") + ref_pattern_name(pat));
    for (const perf::Counters& c : got) {
      EXPECT_EQ(c.stack.total(), c.cycles);
    }
  }
}

TEST(ReplayBatched, BitIdenticalAcrossShardCounts) {
  for (const MachineConfig& cfg :
       {vclass().scaled(16), origin2000().scaled(16)}) {
    for (RefPattern pat : kAllPatterns) {
      const auto recs = stream(pat);
      const auto base = replay_batched(cfg, recs);
      for (u32 shards : {2u, 4u, 8u}) {
        ReplayOptions opts;
        opts.shards = shards;
        ReplayStats st;
        const auto got = replay_batched(cfg, recs, opts, &st);
        EXPECT_EQ(st.shards_used, shards);
        expect_all_eq(base, got, /*compare_stack=*/true,
                      cfg.name + "/" + ref_pattern_name(pat) + "/shards=" +
                          std::to_string(shards));
      }
    }
  }
}

TEST(ReplayBatched, BitIdenticalUnderThreadPool) {
  ThreadPool pool(4);
  const MachineConfig cfg = origin2000().scaled(16);
  const auto recs = stream(RefPattern::kMixed);
  const auto base = replay_batched(cfg, recs);
  ReplayOptions opts;
  opts.shards = 8;
  opts.pool = &pool;
  // Several runs: thread interleaving must never leak into the result.
  for (int rep = 0; rep < 3; ++rep) {
    const auto got = replay_batched(cfg, recs, opts, nullptr);
    expect_all_eq(base, got, /*compare_stack=*/true,
                  "pooled rep=" + std::to_string(rep));
  }
}

TEST(ReplayBatched, EpochMergeDeterministicAcrossShards) {
  ThreadPool pool(4);
  const MachineConfig cfg = origin2000().scaled(16);
  const auto recs = stream(RefPattern::kPingPong);
  ReplayOptions serial_opts;
  serial_opts.epoch_records = 5000;
  ReplayStats st1;
  const auto base = replay_batched(cfg, recs, serial_opts, &st1);
  EXPECT_EQ(st1.epochs, 8u);
  // With epochs on, the queueing model engages from epoch 2 onward, so the
  // totals must differ from the epoch-free run...
  const auto free_run = replay_batched(cfg, recs);
  u64 base_cycles = 0, free_cycles = 0;
  for (const auto& c : base) base_cycles += c.cycles;
  for (const auto& c : free_run) free_cycles += c.cycles;
  EXPECT_GT(base_cycles, free_cycles);
  // ...yet stay bit-identical at every shard count, pooled or not.
  for (u32 shards : {2u, 8u}) {
    ReplayOptions opts = serial_opts;
    opts.shards = shards;
    opts.pool = &pool;
    const auto got = replay_batched(cfg, recs, opts, nullptr);
    expect_all_eq(base, got, /*compare_stack=*/true,
                  "epoch shards=" + std::to_string(shards));
  }
}

TEST(ReplayBatched, ShardCountClampsToGeometry) {
  const MachineConfig cfg = origin2000().scaled(16);
  const auto recs = stream(RefPattern::kSeqScan, 4, 4000);
  ReplayOptions opts;
  opts.shards = 1u << 20;  // far above max_shards(cfg) == 16
  ReplayStats st;
  const auto got = replay_batched(cfg, recs, opts, &st);
  EXPECT_EQ(st.shards_used, max_shards(cfg));
  EXPECT_EQ(st.records, recs.size());
  EXPECT_GT(st.line_refs, 0u);
  expect_all_eq(replay_batched(cfg, recs), got, /*compare_stack=*/true,
                "clamped");
  // Non-power-of-two counts round down.
  opts.shards = 7;
  (void)replay_batched(cfg, recs, opts, &st);
  EXPECT_EQ(st.shards_used, 4u);
  // 0 behaves as 1.
  opts.shards = 0;
  (void)replay_batched(cfg, recs, opts, &st);
  EXPECT_EQ(st.shards_used, 1u);
}

TEST(ReplayBatched, ShardHooksSeeEveryShard) {
  const MachineConfig cfg = vclass().scaled(16);
  const auto recs = stream(RefPattern::kHotProbe, 4, 8000);
  ReplayOptions opts;
  opts.shards = 4;
  std::vector<u32> started, finished;
  opts.on_shard_start = [&](u32 s, MachineSim&) { started.push_back(s); };
  opts.on_shard_done = [&](u32 s, MachineSim&) { finished.push_back(s); };
  (void)replay_batched(cfg, recs, opts, nullptr);
  EXPECT_EQ(started, (std::vector<u32>{0, 1, 2, 3}));
  EXPECT_EQ(finished.size(), 4u);
}

TEST(ReplayBatched, OnEpochSeamFiresAtEveryBarrier) {
  ThreadPool pool(4);
  const MachineConfig cfg = vclass().scaled(16);
  const auto recs = stream(RefPattern::kHotProbe, 4, 8000);
  ReplayOptions opts;
  opts.shards = 4;
  opts.pool = &pool;
  opts.epoch_records = 1000;  // 8 epochs: each shard enters epochs 1..7
  // Each shard's hook runs on that shard's worker only, so per-shard logs
  // need no lock.
  std::vector<std::vector<u64>> seen(4);
  opts.on_epoch = [&](u32 shard, u64 e) { seen.at(shard).push_back(e); };
  (void)replay_batched(cfg, recs, opts, nullptr);
  for (u32 s = 0; s < 4; ++s) {
    EXPECT_EQ(seen[s], (std::vector<u64>{1, 2, 3, 4, 5, 6, 7})) << "shard " << s;
  }

  // No epoch boundaries when the epoch model is off.
  opts.epoch_records = 0;
  for (auto& v : seen) v.clear();
  (void)replay_batched(cfg, recs, opts, nullptr);
  for (const auto& v : seen) EXPECT_TRUE(v.empty());
}

TEST(ReplayBatched, FailingShardUnwindsEveryWorker) {
  // A hook that throws in one shard must stop the other workers (some of
  // them blocked waiting for a merge that shard will never seal) and reach
  // the caller as the same exception; the pool must stay usable. ctest's
  // TIMEOUT turns a deadlock here into a failure.
  struct ShardFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  ThreadPool pool(4);
  const MachineConfig cfg = origin2000().scaled(16);
  const auto recs = stream(RefPattern::kPingPong);
  ReplayOptions opts;
  opts.shards = 4;
  opts.pool = &pool;
  opts.epoch_records = 1024;
  opts.on_epoch = [](u32 shard, u64 epoch) {
    if (shard == 1 && epoch == 3) throw ShardFailure("shard 1, epoch 3");
  };
  try {
    (void)replay_batched(cfg, recs, opts, nullptr);
    ADD_FAILURE() << "replay_batched returned normally";
  } catch (const ShardFailure& e) {
    EXPECT_STREQ(e.what(), "shard 1, epoch 3");
  }
  opts.on_epoch = nullptr;
  ReplayOptions reference;
  reference.epoch_records = 1024;
  expect_all_eq(replay_batched(cfg, recs, reference, nullptr),
                replay_batched(cfg, recs, opts, nullptr),
                /*compare_stack=*/true, "after a failed replay");
}

TEST(ReplayBatched, EmptyStream) {
  const MachineConfig cfg = vclass().scaled(16);
  ReplayStats st;
  const auto got = replay_batched(cfg, {}, {}, &st);
  ASSERT_EQ(got.size(), cfg.num_processors);
  for (const auto& c : got) EXPECT_EQ(c.cycles, 0u);
  EXPECT_EQ(st.records, 0u);
  EXPECT_EQ(st.shards_used, 1u);
}

TEST(CheckedReplay, BitIdenticalToUncheckedAtEveryShardCount) {
  ThreadPool pool(4);
  // Coherence-heavy pattern on the two-level NUMA machine: the hardest case
  // for the per-shard checkers (interventions, invalidations, inclusion).
  const MachineConfig cfg = origin2000().scaled(16);
  const auto recs = stream(RefPattern::kPingPong, 4, 20'000);
  const auto plain = replay_batched(cfg, recs);
  for (u32 shards : {1u, 8u}) {
    ReplayOptions opts;
    opts.shards = shards;
    opts.pool = shards > 1 ? &pool : nullptr;
    const auto checked = check::checked_replay_batched(cfg, recs, opts);
    EXPECT_EQ(checked.violations, 0u);
    EXPECT_GT(checked.accesses_observed, 0u);
    EXPECT_GT(checked.full_sweeps_run, 0u);  // final sweep per shard
    expect_all_eq(plain, checked.counters, /*compare_stack=*/true,
                  "checked shards=" + std::to_string(shards));
  }
}

TEST(CheckedReplay, SweepsCoverEveryShardMachine) {
  const MachineConfig cfg = vclass().scaled(16);
  const auto recs = stream(RefPattern::kMixed, 4, 20'000);
  ReplayOptions opts;
  opts.shards = 4;
  check::CheckerOptions copts;
  copts.full_sweep_interval = 1024;
  const auto checked = check::checked_replay_batched(cfg, recs, opts, copts);
  EXPECT_EQ(checked.violations, 0u);
  // Interval sweeps plus the final per-shard sweep.
  EXPECT_GE(checked.full_sweeps_run, 4u);
  expect_all_eq(replay_batched(cfg, recs), checked.counters,
                /*compare_stack=*/true, "checked sweep interval");
}

TEST(CheckedReplay, FailingShardFreesEveryCheckerWithItsMachine) {
  // A shard that throws stops its siblings before they reach on_shard_done,
  // and the shard machines die inside replay_batched. No checker may
  // outlive its machine on that path: ASan reports a heap-use-after-free
  // when a checker detaches from a dead machine. The caller must see the
  // shard's own exception, and a checked replay afterwards still matches.
  struct ShardFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  ThreadPool pool(4);
  const MachineConfig cfg = origin2000().scaled(16);
  const auto recs = stream(RefPattern::kPingPong);
  ReplayOptions opts;
  opts.shards = 4;
  opts.pool = &pool;
  opts.epoch_records = 1024;
  opts.on_epoch = [](u32 shard, u64 epoch) {
    if (shard == 1 && epoch == 3) throw ShardFailure("shard 1, epoch 3");
  };
  try {
    (void)check::checked_replay_batched(cfg, recs, opts);
    ADD_FAILURE() << "checked_replay_batched returned normally";
  } catch (const ShardFailure& e) {
    EXPECT_STREQ(e.what(), "shard 1, epoch 3");
  }
  opts.on_epoch = nullptr;
  const auto checked = check::checked_replay_batched(cfg, recs, opts);
  EXPECT_EQ(checked.violations, 0u);
  ReplayOptions reference;
  reference.epoch_records = 1024;
  expect_all_eq(replay_batched(cfg, recs, reference, nullptr),
                checked.counters, /*compare_stack=*/true,
                "checked replay after a failed one");
}

void expect_compiled_eq(const CompiledTrace& a, const CompiledTrace& b,
                        const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(a.refs.size(), b.refs.size());
  for (std::size_t i = 0; i < a.refs.size(); ++i) {
    ASSERT_EQ(a.refs[i].addr, b.refs[i].addr) << "ref " << i;
    ASSERT_EQ(a.refs[i].proc, b.refs[i].proc) << "ref " << i;
    ASSERT_EQ(a.refs[i].len_kind, b.refs[i].len_kind) << "ref " << i;
  }
  EXPECT_EQ(a.epoch_ref_end, b.epoch_ref_end);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.unit_shift, b.unit_shift);
  EXPECT_EQ(a.serial_cum, b.serial_cum);
  EXPECT_EQ(a.instr_total, b.instr_total);
  EXPECT_EQ(a.gap_cycles_total, b.gap_cycles_total);
  EXPECT_EQ(a.tlb_stall_total, b.tlb_stall_total);
  EXPECT_EQ(a.tlb_miss_total, b.tlb_miss_total);
}

TEST(CompileTrace, ParallelBitIdenticalAcrossPoolSizes) {
  // At 300k records the chunk grain depends on the pool: the pool-free
  // compile cuts 8 chunks, 2 threads 16 and 4 threads 19, so both the
  // chunking and the concurrency differ from the reference.
  for (const MachineConfig& cfg :
       {vclass().scaled(16), origin2000().scaled(16)}) {
    for (RefPattern pat : {RefPattern::kMixed, RefPattern::kSeqScan}) {
      const auto recs = stream(pat, 4, 300'000);
      for (u64 epoch_records : {u64{0}, u64{5000}}) {
        const CompiledTrace serial = compile_trace(cfg, recs, epoch_records);
        for (u32 jobs : {2u, 4u}) {
          ThreadPool pool(jobs);
          const CompiledTrace par =
              compile_trace(cfg, recs, epoch_records, &pool);
          expect_compiled_eq(serial, par,
                             cfg.name + "/" + ref_pattern_name(pat) +
                                 "/epochs=" + std::to_string(epoch_records) +
                                 "/jobs=" + std::to_string(jobs));
        }
      }
    }
  }
}

TEST(CompileTrace, CacheHitMatchesParallelAndSerialCompiles) {
  const MachineConfig cfg = origin2000().scaled(16);
  const auto recs = stream(RefPattern::kMixed, 4, 40'000);
  ThreadPool pool(4);
  TraceCompileCache cache;
  // First get compiles (in parallel); the second is a hit and must return
  // the identical object; a pool-free compile must match both.
  const auto first = cache.get(cfg, recs, 5000, &pool);
  const auto again = cache.get(cfg, recs, 5000, nullptr);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.hits(), 1u);
  expect_compiled_eq(compile_trace(cfg, recs, 5000), *first, "cache vs serial");
}

TEST(ReplayBatched, PipelinedVsBarrierBitIdentical) {
  // Legacy sim::replay has no epochs, so the epochs-on results are pinned
  // by digests recorded from the retired barrier-epoch engine at shards=1.
  // The pipelined engine must reproduce them at every shard count and pool
  // size: shards=1 runs it with one worker, shards > 1 overlaps the merge.
  enum Machine : u8 { kVclass, kOrigin };
  struct Reference {
    Machine machine;
    RefPattern pat;
    u64 epoch_records;
    std::array<u64, 4> digest;  ///< processors 0..3 of stream(pat)
  };
  static constexpr Reference kReference[] = {
    {kVclass, RefPattern::kSeqScan, 1024,
     {0x2659a32136e35f6bULL, 0xf051ea48401ebfcfULL,
      0x1844ab3436f61be7ULL, 0x55bb885bd0d41294ULL}},
    {kVclass, RefPattern::kSeqScan, 5000,
     {0xd820f2c42b360f54ULL, 0x0b50662a0319fbcdULL,
      0xf2f1ffdce4036e2dULL, 0x1fe615eb8b962f86ULL}},
    {kVclass, RefPattern::kHotProbe, 1024,
     {0xd480c28cb36cb285ULL, 0x86a771611c8326e0ULL,
      0xd480c28cb36cb285ULL, 0x604b3655cb565c9dULL}},
    {kVclass, RefPattern::kHotProbe, 5000,
     {0xd480c28cb36cb285ULL, 0x86a771611c8326e0ULL,
      0xd480c28cb36cb285ULL, 0x9391dff898334cd8ULL}},
    {kVclass, RefPattern::kPointerChase, 1024,
     {0x805c86a55b19836bULL, 0xb0fc3af6a94be5edULL,
      0x066f1ee99e3c7c21ULL, 0x209787b43339842bULL}},
    {kVclass, RefPattern::kPointerChase, 5000,
     {0x7df8f1e47c33008fULL, 0xb8f63b1599bb717cULL,
      0x8fd7167b5077bffcULL, 0xb85184ac8954445eULL}},
    {kVclass, RefPattern::kPingPong, 1024,
     {0xd175463f5454edccULL, 0xc1b614c2043640f1ULL,
      0x73b9e771ac043588ULL, 0xa8dce801823beffeULL}},
    {kVclass, RefPattern::kPingPong, 5000,
     {0x114f084ed33ba2f2ULL, 0x70a3bd341c4501a3ULL,
      0x46f471571a1a40a5ULL, 0x13d9f5daee0daa1eULL}},
    {kVclass, RefPattern::kMixed, 1024,
     {0xc2b3e833314b9082ULL, 0x689d7104013439bcULL,
      0x66aa44709aa88e7dULL, 0xe95119eaf027a598ULL}},
    {kVclass, RefPattern::kMixed, 5000,
     {0x8b7aacf85f3d8615ULL, 0x58bafb080130ccc4ULL,
      0x3fd151f6f7d92268ULL, 0xbf2f68ff1a373fb3ULL}},
    {kOrigin, RefPattern::kSeqScan, 1024,
     {0x0b989574157e9befULL, 0x77c563ff2112a3abULL,
      0x46967d7eaf79fd94ULL, 0x5c19357abb108952ULL}},
    {kOrigin, RefPattern::kSeqScan, 5000,
     {0xad7876fef679abf7ULL, 0x1606fa13c9224268ULL,
      0x44143f46600ce457ULL, 0xb6fd1b306c9976dfULL}},
    {kOrigin, RefPattern::kHotProbe, 1024,
     {0x0ab01bb188e61c29ULL, 0x7f756529d55226e6ULL,
      0x0ab01bb188e61c29ULL, 0x7db891c582b310c3ULL}},
    {kOrigin, RefPattern::kHotProbe, 5000,
     {0x0ab01bb188e61c29ULL, 0x7f756529d55226e6ULL,
      0x0ab01bb188e61c29ULL, 0xc96996c3816bf649ULL}},
    {kOrigin, RefPattern::kPointerChase, 1024,
     {0x34797e2a76b6289dULL, 0xee6cb3bd3a8cbc9aULL,
      0xa1c29e6a713145a8ULL, 0x1ad99caa9dee2527ULL}},
    {kOrigin, RefPattern::kPointerChase, 5000,
     {0x005c294d49191cf3ULL, 0xb67f1d1641bdbe70ULL,
      0x446ec2301adf0fb9ULL, 0x2e4277b850c63b57ULL}},
    {kOrigin, RefPattern::kPingPong, 1024,
     {0x3868f8f8a1252833ULL, 0x089d9b4062190592ULL,
      0xcdb13876f627dc0dULL, 0x0c6c61fc4a64d3f0ULL}},
    {kOrigin, RefPattern::kPingPong, 5000,
     {0xa2594b353c118563ULL, 0xcde5f16b1d117461ULL,
      0x76f8520166f22a36ULL, 0xcc9147c39da955d3ULL}},
    {kOrigin, RefPattern::kMixed, 1024,
     {0xfa19af5a77dd37e1ULL, 0xdadf600fc0eab536ULL,
      0xf6ac946c0f1cd87bULL, 0x70719d9cd0be6b8eULL}},
    {kOrigin, RefPattern::kMixed, 5000,
     {0x4a44874c19eeca47ULL, 0x146bcce0d55d9d49ULL,
      0x12ee483693fcb745ULL, 0x2a1e315eb822fe27ULL}},
  };
  ThreadPool pool(4);
  const u64 idle = counters_digest(perf::Counters{});
  for (const Reference& ref : kReference) {
    const MachineConfig cfg = ref.machine == kOrigin ? origin2000().scaled(16)
                                                     : vclass().scaled(16);
    const auto recs = stream(ref.pat);
    for (u32 shards : {1u, 2u, 4u, 8u}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        ReplayOptions opts;
        opts.epoch_records = ref.epoch_records;
        opts.shards = shards;
        opts.pool = p;
        ReplayStats st;
        const auto got = replay_batched(cfg, recs, opts, &st);
        SCOPED_TRACE(cfg.name + "/" + ref_pattern_name(ref.pat) + "/epochs=" +
                     std::to_string(ref.epoch_records) +
                     "/shards=" + std::to_string(shards) +
                     (p != nullptr ? "/pooled" : "/serial"));
        EXPECT_EQ(st.shards_used, shards);
        ASSERT_EQ(got.size(), cfg.num_processors);
        for (std::size_t q = 0; q < got.size(); ++q) {
          EXPECT_EQ(counters_digest(got[q]), q < 4 ? ref.digest[q] : idle)
              << "proc " << q;
        }
      }
    }
  }
}

TEST(ReplayBatched, PipelinedManyEpochsManyShards) {
  // Deep pipeline: more epochs than shards, short epochs, repeated runs —
  // interleaving must never leak into the result.
  ThreadPool pool(4);
  const MachineConfig cfg = origin2000().scaled(16);
  const auto recs = stream(RefPattern::kPingPong, 4, 32'768);
  ReplayOptions one_worker;
  one_worker.epoch_records = 1024;  // 32 epochs
  const auto base = replay_batched(cfg, recs, one_worker, nullptr);
  ReplayOptions opts = one_worker;
  opts.shards = 8;
  opts.pool = &pool;
  for (int rep = 0; rep < 3; ++rep) {
    const auto got = replay_batched(cfg, recs, opts, nullptr);
    expect_all_eq(base, got, /*compare_stack=*/true,
                  "deep pipeline rep=" + std::to_string(rep));
  }
}

TEST(RefStream, DeterministicAndWellFormed) {
  RefStreamConfig rc;
  rc.pattern = RefPattern::kMixed;
  rc.records = 10'000;
  const auto a = make_refstream(rc);
  const auto b = make_refstream(rc);
  ASSERT_EQ(a.size(), rc.records);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr, b[i].addr);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].proc, b[i].proc);
    EXPECT_GT(a[i].len, 0u);
  }
  // Different seeds diverge.
  rc.seed = 43;
  const auto c = make_refstream(rc);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].addr != c[i].addr) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RefStream, PatternsExerciseDistinctBehaviour) {
  const MachineConfig cfg = origin2000().scaled(16);
  // hot_probe should hit nearly always; pointer_chase should miss heavily;
  // pingpong should generate coherence traffic.
  const auto hot = replay_batched(cfg, stream(RefPattern::kHotProbe));
  const auto chase = replay_batched(cfg, stream(RefPattern::kPointerChase));
  const auto ping = replay_batched(cfg, stream(RefPattern::kPingPong));
  u64 hot_misses = 0, chase_misses = 0, ping_inval = 0, ping_dirty = 0;
  for (const auto& c : hot) hot_misses += c.l1d_misses;
  for (const auto& c : chase) chase_misses += c.l1d_misses;
  for (const auto& c : ping) {
    ping_inval += c.invalidations_recv;
    ping_dirty += c.dirty_misses;
  }
  EXPECT_GT(chase_misses, 10 * hot_misses);
  EXPECT_GT(ping_inval, 0u);
  EXPECT_GT(ping_dirty, 0u);
}


}  // namespace
}  // namespace dss::sim
