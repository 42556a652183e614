#include "core/metrics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <ostream>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

namespace dss::core {

void print_figure(std::ostream& os, const std::string& title,
                  const Table& table) {
  os << "== " << title << " ==\n";
  table.print(os);
  os << "# csv\n";
  table.print_csv(os);
  os << '\n';
}

namespace {

/// A field of BenchOptions a flag writes; its type is the flag's value kind.
using Field =
    std::variant<bool BenchOptions::*, u32 BenchOptions::*,
                 u64 BenchOptions::*, double BenchOptions::*,
                 std::string BenchOptions::*, std::vector<u32> BenchOptions::*>;

struct FlagSpec {
  std::string_view name;
  std::string_view value;  ///< the value's placeholder; empty for a switch
  Field field;
  u64 min;  ///< smallest accepted integer value
  std::string_view help;
};

/// The one flag table; entry i is the flag with bit 1 << i.
const FlagSpec kFlagTable[kNumFlags] = {
    {"--scale", "N", &BenchOptions::scale_denom, 1,
     "memory scale: 1/N of the paper's 200 MB database (default 16)"},
    {"--trials", "N", &BenchOptions::trials, 1,
     "trials per cell, each with its own start jitter (default 4)"},
    {"--seed", "N", &BenchOptions::seed, 0,
     "database and trial-jitter seed (default 42)"},
    {"--jobs", "N", &BenchOptions::jobs, 0,
     "worker threads, 0 = one per hardware thread (the default)"},
    {"--check", "", &BenchOptions::check, 0,
     "run every trial under the coherence-invariant checker"},
    {"--metrics", "PATH", &BenchOptions::metrics_path, 0,
     "write every cell as one JSON document (tools/dss_report)"},
    {"--sample-units", "N", &BenchOptions::sample_units, 0,
     "sampling: references per unit (0 = full detail, the default)"},
    {"--sample-detail", "K", &BenchOptions::sample_detail, 0,
     "sampling: every K-th unit is a measured window (K >= 2)"},
    {"--sample-warmup", "W", &BenchOptions::sample_warmup, 0,
     "sampling: detailed, unmeasured references before a window"},
    {"--sessions", "N", &BenchOptions::sessions, 0,
     "serving: client population (default 256)"},
    {"--arrival", "closed|open|both", &BenchOptions::arrival, 0,
     "serving: the arrival models to run (default both)"},
    {"--think-time", "MS", &BenchOptions::think_time_ms, 0,
     "serving, closed loop: mean think time, simulated ms (default 50)"},
    {"--target-load", "F", &BenchOptions::target_load, 0,
     "serving, open loop: one load, a fraction of capacity (default: sweep)"},
    {"--cpus", "N,N,...", &BenchOptions::cpus, 1,
     "serving: simulated CPU counts to sweep (default 8,16,32)"},
    {"--epoch-records", "N", &BenchOptions::epoch_records, 0,
     "replay: scheduling-epoch length in records (default: epochs off; "
     "full-detail replay only)"},
};

/// "--name VALUE", or just "--name" for a switch.
std::string synopsis(const FlagSpec& spec) {
  std::string out(spec.name);
  if (!spec.value.empty()) (out += ' ') += spec.value;
  return out;
}

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

/// Print `msg` and the usage line to stderr, then exit 2: a bad command line
/// is a usage error, never an uncaught exception.
[[noreturn]] void usage_error(const std::string& command, FlagSet accepted,
                              const std::string& msg) {
  std::cerr << command << ": " << msg << "\n"
            << "usage: " << command << flags_usage(accepted) << "\n";
  std::exit(2);
}

/// Parse the whole of `text` as an unsigned decimal in [min, max]: no sign,
/// no trailing characters, no overflow. Empty on any violation.
std::optional<u64> parse_uint(std::string_view text, u64 min, u64 max) {
  u64 v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v < min || v > max) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

std::optional<double> parse_nonneg(std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || text[0] == '-' || ec != std::errc{} || ptr != end ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::string flags_usage(FlagSet flags) {
  std::string out;
  for (u32 f = 0; f < kNumFlags; ++f) {
    if ((flags >> f & 1u) != 0) out += " [" + synopsis(kFlagTable[f]) + "]";
  }
  return out;
}

void print_flags_help(std::ostream& os, FlagSet flags) {
  for (u32 f = 0; f < kNumFlags; ++f) {
    if ((flags >> f & 1u) == 0) continue;
    std::string head = synopsis(kFlagTable[f]);
    head.resize(std::max<std::size_t>(head.size() + 1, 24), ' ');
    os << "  " << head << kFlagTable[f].help << '\n';
  }
}

BenchOptions parse_bench_options(int argc, char** argv, FlagSet accepted) {
  BenchOptions o;
  std::string command = argc > 0 ? argv[0] : "bench";
  command.erase(0, command.find_last_of('/') + 1);
  o.bench_name = command.substr(command.find_last_of(' ') + 1);
  auto fail = [&](const std::string& msg) {
    usage_error(command, accepted, msg);
  };
  bool jobs_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    u32 f = 0;
    while (f < kNumFlags && kFlagTable[f].name != flag) ++f;
    if (f == kNumFlags) fail("unknown option: " + flag);
    if ((accepted >> f & 1u) == 0) {
      fail(flag + " does not apply to " + o.bench_name);
    }
    const FlagSpec* spec = &kFlagTable[f];
    jobs_given = jobs_given || (1u << f) == Flag::jobs;
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) fail(flag + " requires a value");
      return argv[++i];
    };
    auto uint_value = [&](u64 max) -> u64 {
      const std::string_view text = value();
      const std::optional<u64> v = parse_uint(text, spec->min, max);
      if (!v) {
        fail(flag + " expects an integer in [" + std::to_string(spec->min) +
             ", " + std::to_string(max) + "], got '" + std::string(text) +
             "'");
      }
      return *v;
    };
    std::visit(
        Overloaded{
            [&](bool BenchOptions::*m) { o.*m = true; },
            [&](u32 BenchOptions::*m) {
              o.*m = static_cast<u32>(uint_value(UINT32_MAX));
            },
            [&](u64 BenchOptions::*m) { o.*m = uint_value(UINT64_MAX); },
            [&](double BenchOptions::*m) {
              const std::string_view text = value();
              const std::optional<double> v = parse_nonneg(text);
              if (!v) {
                fail(flag + " expects a non-negative number, got '" +
                     std::string(text) + "'");
              }
              o.*m = *v;
            },
            [&](std::string BenchOptions::*m) { o.*m = value(); },
            [&](std::vector<u32> BenchOptions::*m) {
              const std::string_view list = value();
              (o.*m).clear();
              std::size_t pos = 0;
              while (true) {
                const std::size_t comma =
                    std::min(list.find(',', pos), list.size());
                const std::optional<u64> v = parse_uint(
                    list.substr(pos, comma - pos), spec->min, UINT32_MAX);
                if (!v) {
                  fail(flag + " expects a comma-separated list of integers "
                              ">= 1, e.g. 8,16,32, got '" +
                       std::string(list) + "'");
                }
                (o.*m).push_back(static_cast<u32>(*v));
                if (comma == list.size()) break;
                pos = comma + 1;
              }
            }},
        spec->field);
  }
  if (!std::has_single_bit(o.scale_denom)) {
    fail("--scale expects a power of two (the scaled caches must keep "
         "power-of-two set counts), got " + std::to_string(o.scale_denom));
  }
  if (o.sample_units > 0 && o.sample_detail < 2) {
    fail("--sample-units requires --sample-detail >= 2 (every K-th unit is "
         "measured; K = 1 is just a full-detail run)");
  }
  if (o.arrival != "closed" && o.arrival != "open" && o.arrival != "both") {
    fail("--arrival expects 'closed', 'open', or 'both'");
  }
  if (o.sample_units > 0 && o.epoch_records > 0) {
    fail("--epoch-records cannot be combined with sampling: the sampled "
         "replay runs without the scheduling-epoch contention model");
  }
  if (o.sample_units > 0 && o.check) {
    fail("--check cannot be combined with sampling: the invariant checker's "
         "counter-conservation identities do not hold across the "
         "functional-warming path");
  }
  // Clamp the worker count with a warning rather than erroring or silently
  // oversubscribing. Warnings go to stderr so stdout tables and --metrics
  // JSON stay byte-identical across hosts and flag spellings.
  const u32 hw = std::max(1u, std::thread::hardware_concurrency());
  if (jobs_given && (o.jobs == 0 || o.jobs > hw)) {
    std::cerr << o.bench_name << ": warning: --jobs " << o.jobs
              << (o.jobs == 0 ? " means one worker per hardware thread"
                              : " exceeds hardware concurrency")
              << "; using " << hw << "\n";
    o.jobs = hw;
  }
  return o;
}

}  // namespace dss::core
