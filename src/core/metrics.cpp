#include "core/metrics.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <ostream>
#include <string_view>
#include <thread>

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

constexpr const char* kBenchUsage =
    "[--scale N] [--trials N] [--seed N] [--jobs N] [--shards N] [--check] "
    "[--metrics PATH] [--sample-units N] [--sample-detail K] "
    "[--sample-warmup W] [--live-points DIR] [--sessions N] "
    "[--arrival closed|open|both] [--think-time MS] [--target-load F] "
    "[--cpus N,N,...] [--epoch-records N]";

/// Print `msg` and the usage line to stderr, then exit 2: a bad command line
/// is a usage error, never an uncaught exception.
[[noreturn]] void usage_error(const std::string& bench,
                              const std::string& msg) {
  std::cerr << bench << ": " << msg << "\n"
            << "usage: " << bench << " " << kBenchUsage << "\n";
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

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions o;
  if (argc > 0) {
    const std::string path = argv[0];
    const std::size_t slash = path.find_last_of('/');
    o.bench_name = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  const std::string& bench = o.bench_name;
  bool jobs_given = false;
  bool shards_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage_error(bench, flag + " requires a value");
      return argv[++i];
    };
    auto uint_value = [&](u64 min = 0, u64 max = UINT64_MAX) -> u64 {
      const std::string_view text = value();
      const std::optional<u64> v = parse_uint(text, min, max);
      if (!v) {
        usage_error(bench, flag + " expects an integer in [" +
                               std::to_string(min) + ", " +
                               std::to_string(max) + "], got '" +
                               std::string(text) + "'");
      }
      return *v;
    };
    auto u32_value = [&](u64 min = 0) {
      return static_cast<u32>(uint_value(min, UINT32_MAX));
    };
    auto double_value = [&]() -> double {
      const std::string_view text = value();
      const std::optional<double> v = parse_nonneg(text);
      if (!v) {
        usage_error(bench, flag + " expects a non-negative number, got '" +
                               std::string(text) + "'");
      }
      return *v;
    };
    if (flag == "--scale") {
      o.scale_denom = u32_value(1);
    } else if (flag == "--trials") {
      o.trials = u32_value(1);
    } else if (flag == "--seed") {
      o.seed = uint_value();
    } else if (flag == "--jobs") {
      o.jobs = u32_value();
      jobs_given = true;
    } else if (flag == "--shards") {
      o.shards = u32_value();
      shards_given = true;
    } else if (flag == "--check") {
      o.check = true;
    } else if (flag == "--metrics") {
      o.metrics_path = value();
    } else if (flag == "--sample-units") {
      o.sample_units = uint_value();
    } else if (flag == "--sample-detail") {
      o.sample_detail = u32_value();
    } else if (flag == "--sample-warmup") {
      o.sample_warmup = uint_value();
    } else if (flag == "--live-points") {
      o.live_points = value();
    } else if (flag == "--sessions") {
      o.sessions = u32_value();
    } else if (flag == "--arrival") {
      o.arrival = value();
    } else if (flag == "--think-time") {
      o.think_time_ms = double_value();
    } else if (flag == "--target-load") {
      o.target_load = double_value();
    } else if (flag == "--cpus") {
      const std::string_view list = value();
      o.cpus.clear();
      std::size_t pos = 0;
      while (true) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::optional<u64> v =
            parse_uint(list.substr(pos, comma - pos), 1, UINT32_MAX);
        if (!v) {
          usage_error(bench,
                      "--cpus expects a comma-separated list of integers "
                      ">= 1, e.g. 8,16,32, got '" + std::string(list) + "'");
        }
        o.cpus.push_back(static_cast<u32>(*v));
        if (comma == list.size()) break;
        pos = comma + 1;
      }
    } else if (flag == "--epoch-records") {
      o.epoch_records = uint_value();
    } else {
      usage_error(bench, "unknown option: " + flag);
    }
  }
  if (o.sample_units > 0 && o.sample_detail < 2) {
    usage_error(bench,
                "--sample-units requires --sample-detail >= 2 (every K-th "
                "unit is measured; K = 1 is just a full-detail run)");
  }
  if (o.arrival != "closed" && o.arrival != "open" && o.arrival != "both") {
    usage_error(bench, "--arrival expects 'closed', 'open', or 'both'");
  }
  if (o.sample_units > 0 && o.check) {
    usage_error(bench,
                "--check cannot be combined with sampling: the invariant "
                "checker's counter-conservation identities do not hold "
                "across the functional-warming path");
  }
  // Clamp thread-ish counts with a warning rather than erroring or silently
  // oversubscribing. Warnings go to stderr so stdout tables and --metrics
  // JSON stay byte-identical across hosts and flag spellings.
  const u32 hw = std::max(1u, std::thread::hardware_concurrency());
  if (jobs_given) {
    if (o.jobs == 0) {
      std::cerr << o.bench_name << ": warning: --jobs 0 means one worker per "
                << "hardware thread; using " << hw << "\n";
      o.jobs = hw;
    } else if (o.jobs > hw) {
      std::cerr << o.bench_name << ": warning: --jobs " << o.jobs
                << " exceeds hardware concurrency; clamping to " << hw << "\n";
      o.jobs = hw;
    }
  }
  if (shards_given) {
    if (o.shards == 0) {
      std::cerr << o.bench_name << ": warning: --shards 0 is invalid; "
                << "using 1\n";
      o.shards = 1;
    } else if (o.shards > hw) {
      std::cerr << o.bench_name << ": warning: --shards " << o.shards
                << " exceeds hardware concurrency; clamping to " << hw
                << " (results are bit-identical at any shard count)\n";
      o.shards = hw;
    }
  }
  return o;
}

}  // namespace dss::core
