// Common integer aliases used across the project, plus the shard-safety
// annotation macros checked by tools/dss_lint.
#pragma once

#include <cstdint>

// --- shard-safety annotations (DESIGN.md §11, tools/dss_lint) ---
//
// The shard-parallel replay core (sim/batch.hpp) runs one complete MachineSim
// per shard and merges results deterministically. That is only sound if every
// piece of mutable simulator state falls into one of three classes, declared
// at the definition site and verified statically by `dss_lint` (rules
// `shard-unsafe` and `annotation-coverage`):
//
//   DSS_SHARD_PARTITIONED  Mutable state wholly owned by one shard machine
//                          (cache ways, directory entries, residency
//                          histories, attached counters). Two shards never
//                          touch the same instance, so no synchronization and
//                          no merge step is needed; the final counter merge
//                          is a fixed-order integer sum.
//
//   DSS_EPOCH_MERGED       Mutable state that is cross-shard coupled but only
//                          through the epoch merge (the memory-controller
//                          rate estimate). Shards accumulate privately within
//                          an epoch; identical merged totals are installed
//                          into every shard before it uses them, so
//                          intra-epoch order and the shard count never
//                          matter.
//
//   DSS_REPLAY_SAFE        State that is immutable while a replay is in
//                          flight (geometry, latency tables, configuration,
//                          mode flags). Reads from any shard are safe; writes
//                          happen only between replays.
//
// The macros expand to nothing — they exist so the analyzer (and the reader)
// can see the contract in the declaration. Every data member of an annotated
// class must carry exactly one of them.
#define DSS_SHARD_PARTITIONED
#define DSS_EPOCH_MERGED
#define DSS_REPLAY_SAFE

// Software-prefetch hint used by the batched replay probe loops (a fixed
// lookahead over the BatchRef stream hides the way-word and directory-slot
// loads). Purely advisory: expands to nothing on toolchains without
// __builtin_prefetch, and never affects simulated state or results.
#if defined(__GNUC__) || defined(__clang__)
#define DSS_PREFETCH(p) __builtin_prefetch((p))
#else
#define DSS_PREFETCH(p) (static_cast<void>(p))
#endif

namespace dss {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

}  // namespace dss
