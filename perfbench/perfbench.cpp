// dss_perfbench — host-time benchmark of the simulator, end to end and by
// layer (see README.md in this directory for the workloads and metrics).
//
//   dss_perfbench --workload figs_full|figs_sampled|replay --seed N
//                 --seconds S --trace 0|1 [--scale D] [--records N]
//                 [--setup-reps N] [--min-passes N] [--full-ref 0|1]
//                 [--trace-out PATH]
//
// Untraced (--trace 0): run one warm-up pass, time `setup-reps` set-ups,
// then time passes until `seconds` have elapsed, repeating the set-up once
// after each pass. Host speed drifts over seconds, so set-up samples spread
// over the run are as steady as the pass samples. Peak memory is read after
// the warm-up pass, before any repeated set-up: later work only adds
// allocator fragmentation, whose amount varies run to run.
//
// Traced (--trace 1): untraced and traced passes alternate; the traced pass
// calls each layer's public functions from this file and records Chrome
// trace-event spans.
// Either way the driver prints one JSON object of raw samples and checks on
// stdout; run.py turns it into the benchmark's metrics.
//
// Nothing here attaches an on_epoch hook, a ProtocolObserver or a trace
// hook: each would change the code path being measured.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "db/database.hpp"
#include "os/scheduler.hpp"
#include "perf/counters.hpp"
#include "sim/batch.hpp"
#include "sim/machine.hpp"
#include "sim/machine_configs.hpp"
#include "sim/refstream.hpp"
#include "sim/sample/sampler.hpp"
#include "tpch/gen.hpp"
#include "tpch/oracle.hpp"
#include "tpch/queries.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace dss;
using Clock = std::chrono::steady_clock;

// Counters are compared and hashed as raw bytes; that is exact only while
// the struct is all u64 with no padding.
static_assert(std::has_unique_object_representations_v<perf::Counters>);

/// The CI sampling schedule (N=500 K=40 W=500) the figs_sampled workload
/// runs under.
constexpr sim::SampleSchedule kCiSchedule{500, 40, 500};
/// Epoch length for the replay workload: turns on the contention model, so
/// shards > 1 engage the pipelined merge.
constexpr u64 kEpochRecords = 2000;
constexpr u32 kReplayShards[] = {1, 4};

#ifndef DSS_BUILD_TYPE
#define DSS_BUILD_TYPE "unknown"
#endif

/// Only optimized, uninstrumented builds give comparable host times.
bool comparable_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  const std::string bt = DSS_BUILD_TYPE;
  return bt == "Release" || bt == "RelWithDebInfo";
#endif
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool same_counters(const perf::Counters& a, const perf::Counters& b) {
  return std::memcmp(&a, &b, sizeof(perf::Counters)) == 0;
}

/// FNV-1a over the simulated outputs of a pass; equal digests across the
/// timed and traced processes show they simulated the same thing.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  void counters(const perf::Counters& c) { bytes(&c, sizeof c); }
  void u(u64 v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  u64 h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------- tracing

/// In-memory Chrome trace-event recorder ("X" complete events), written as
/// one JSON file at exit. Lanes (tid) are small per-thread numbers; the
/// main thread takes lane 0 by calling lane() first.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  static u32 lane() {
    static std::atomic<u32> next{0};
    thread_local const u32 mine = next.fetch_add(1);
    return mine;
  }
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  void add(const std::string& name, const char* cat, Clock::time_point t0,
           Clock::time_point t1, u32 tid, std::string args = {}) {
    std::ostringstream os;
    os.precision(3);
    os << std::fixed << "{\"name\":\"" << util::json_escape(name)
       << "\",\"cat\":\"" << cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
       << ",\"ts\":" << us(t0) << ",\"dur\":" << us(t1) - us(t0);
    if (!args.empty()) os << ",\"args\":{" << args << "}";
    os << "}";
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(os.str());
  }
  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      f << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    f << "]}\n";
    if (!f) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<std::string> events_;
};

std::string num_arg(const char* key, double v) {
  std::ostringstream os;
  os.precision(12);
  os << "\"" << key << "\":" << v;
  return os.str();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  u32 scale = 16;
  u64 records = 200'000;
  u32 jobs = std::min(4u, ThreadPool::default_jobs());  ///< worker threads
  u32 setup_reps = 30;
  u32 min_passes = 3;
  bool full_ref = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dss_perfbench: " << why
            << "\nusage: dss_perfbench --workload figs_full|figs_sampled|replay"
               " --seed N --seconds S --trace 0|1 [--scale D] [--records N]"
               " [--setup-reps N] [--min-passes N] [--full-ref 0|1]"
               " [--trace-out PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto number = [&](int& i) -> u64 {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    const std::string v = argv[++i];
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
      usage("bad value for " + std::string(argv[i - 1]) + ": " + v);
    }
    return std::stoull(v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      if (i + 1 >= argc) usage("--workload needs a value");
      o.workload = argv[++i];
    } else if (a == "--trace-out") {
      if (i + 1 >= argc) usage("--trace-out needs a value");
      o.trace_out = argv[++i];
    } else if (a == "--seed") {
      o.seed = number(i);
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(number(i));
    } else if (a == "--trace") {
      o.trace = number(i) != 0;
    } else if (a == "--scale") {
      o.scale = static_cast<u32>(number(i));
    } else if (a == "--records") {
      o.records = number(i);
    } else if (a == "--setup-reps") {
      o.setup_reps = static_cast<u32>(number(i));
    } else if (a == "--min-passes") {
      o.min_passes = static_cast<u32>(number(i));
    } else if (a == "--full-ref") {
      o.full_ref = number(i) != 0;
    } else {
      usage("unknown option " + a);
    }
  }
  if (o.workload != "figs_full" && o.workload != "figs_sampled" &&
      o.workload != "replay") {
    usage("--workload must be figs_full, figs_sampled or replay");
  }
  if (o.scale == 0 || o.records == 0 || o.setup_reps == 0 ||
      o.min_passes == 0) {
    usage("--scale, --records, --setup-reps and --min-passes must be "
          "positive");
  }
  return o;
}

// ---------------------------------------------------------------- output

/// Flat JSON object writer for the driver's one-line result.
class Out {
 public:
  void num(const std::string& k, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    field(k, std::isfinite(v) ? os.str() : "null");
  }
  void str(const std::string& k, const std::string& v) {
    field(k, "\"" + util::json_escape(v) + "\"");
  }
  void boolean(const std::string& k, bool v) { field(k, v ? "true" : "false"); }
  void nums(const std::string& k, const std::vector<double>& v) {
    std::ostringstream os;
    os.precision(17);
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
    os << "]";
    field(k, os.str());
  }
  void obj(const std::string& k, const std::map<std::string, double>& m) {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    bool first = true;
    for (const auto& [name, v] : m) {
      os << (first ? "" : ",") << "\"" << name << "\":" << v;
      first = false;
    }
    os << "}";
    field(k, os.str());
  }
  void strs(const std::string& k, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? ",\"" : "\"") + util::json_escape(v[i]) + "\"";
    }
    field(k, s + "]");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
  }
  std::string body_;
};

/// What every workload reports: raw per-pass samples plus correctness.
struct Report {
  std::vector<double> setup_s;
  std::vector<double> pass_s, cpu_s, refs;  ///< untimed warm-up excluded
  std::vector<double> traced_pass_s;        ///< traced run only
  std::vector<double> untraced_pass_s;      ///< traced run only
  double peak_rss_mb = 0;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, bool> checks;
  std::map<std::string, double> cell_cpi;       ///< as simulated
  std::map<std::string, double> full_cpi;       ///< figs_sampled --full-ref
  std::vector<std::map<std::string, double>> layers;  ///< one per traced pass
  std::string digest;
};

/// After one untimed warm-up pass, time `setup` setup_reps times, then run
/// `seconds` worth of passes (at least `min_passes`), timing `setup` again
/// after each. `pass` returns the refs it issued and throws on failure; a
/// failing pass contributes no timing sample.
template <typename Setup, typename Pass>
void time_passes(const Options& o, Report& rep, u64 units_per_pass,
                 Setup&& setup, Pass&& pass) {
  auto time_setup = [&] {
    const auto t0 = Clock::now();
    setup();
    rep.setup_s.push_back(seconds_since(t0));
  };
  auto one = [&](bool timed) {
    rep.attempted += units_per_pass;
    const double c0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    try {
      const double refs = pass();
      if (timed) {
        rep.pass_s.push_back(seconds_since(t0));
        rep.cpu_s.push_back(process_cpu_seconds() - c0);
        rep.refs.push_back(refs);
      }
    } catch (const std::exception& e) {
      rep.failed += units_per_pass;
      rep.errors.emplace_back(e.what());
    }
  };
  one(false);
  rep.peak_rss_mb = peak_rss_mb();
  for (u32 i = 0; i < o.setup_reps; ++i) time_setup();
  const auto start = Clock::now();
  u32 n = 0;
  while (n < o.min_passes || seconds_since(start) < o.seconds) {
    one(true);
    time_setup();
    ++n;
  }
}

/// Traced run: after one untimed warm-up `pass`, untraced `pass`es and
/// `traced` passes alternate for `seconds` (at least `min_passes` pairs).
/// `traced` returns the pass's per-layer values.
template <typename Pass, typename Traced>
void alternate_passes(const Options& o, Report& rep, u64 units_per_pass,
                      Tracer& tr, Pass&& pass, Traced&& traced) {
  const u32 lane = Tracer::lane();
  rep.attempted += units_per_pass;
  try {
    pass();
  } catch (const std::exception& e) {
    rep.failed += units_per_pass;
    rep.errors.emplace_back(e.what());
  }
  rep.peak_rss_mb = peak_rss_mb();
  const auto start = Clock::now();
  for (u32 n = 0; n < o.min_passes || seconds_since(start) < o.seconds; ++n) {
    rep.attempted += 2 * units_per_pass;
    try {
      auto t0 = Clock::now();
      pass();
      rep.untraced_pass_s.push_back(seconds_since(t0));
      tr.add("pass.untraced", "bench", t0, Clock::now(), lane);
      t0 = Clock::now();
      std::map<std::string, double> layers = traced();
      rep.traced_pass_s.push_back(seconds_since(t0));
      tr.add("pass.traced", "bench", t0, Clock::now(), lane);
      rep.layers.push_back(std::move(layers));
    } catch (const std::exception& e) {
      rep.failed += 2 * units_per_pass;
      rep.errors.emplace_back(e.what());
    }
  }
}

/// Misses at each machine's last-level cache: the L2 on the Origin, the L1
/// on the V-Class.
struct LastLevel {
  double comm = 0, misses = 0;
  void add(perf::Platform pl, const perf::Counters& c) {
    const bool two_level = pl == perf::Platform::Origin2000;
    comm += static_cast<double>(
        (two_level ? c.l2_miss_causes : c.l1_miss_causes).communication());
    misses += static_cast<double>(two_level ? c.l2d_misses : c.l1d_misses);
  }
};

/// The exact simulated-counter layers over `sum`, the counters of every
/// cell or stream of a pass.
void add_sim_layers(std::map<std::string, double>& m, const perf::Counters& sum,
                    const LastLevel& ll) {
  auto d = [](u64 v) { return static_cast<double>(v); };
  const double line_refs = d(sum.loads + sum.stores + sum.atomics);
  m["sim.l1_hit_frac"] =
      line_refs > 0 ? 1.0 - d(sum.l1d_misses) / line_refs : 0.0;
  m["sim.l2d_misses"] = d(sum.l2d_misses);
  m["sim.coh_miss_frac"] = ll.misses > 0 ? ll.comm / ll.misses : 0.0;
  m["sim.mem_requests"] = d(sum.mem_requests);
  m["sim.avg_mem_latency_cyc"] =
      sum.mem_requests ? d(sum.mem_latency_cycles) / d(sum.mem_requests) : 0.0;
}

// ------------------------------------------------------------ figs workloads

struct Cell {
  std::string name;
  core::ExperimentConfig cfg;
};

/// The Fig. 3 cell set in fig3_cpi's order: {V-Class, Origin 2000} x
/// {Q6, Q21, Q12} x {1, 8} processes, one trial each.
std::vector<Cell> fig3_cells(const Options& o, bool sampled) {
  std::vector<Cell> cells;
  for (auto pl : {perf::Platform::VClass, perf::Platform::Origin2000}) {
    for (auto q : {tpch::QueryId::Q6, tpch::QueryId::Q21, tpch::QueryId::Q12}) {
      for (u32 np : {1u, 8u}) {
        Cell c;
        c.name = std::string(pl == perf::Platform::VClass ? "vclass" : "origin") +
                 "." + tpch::query_name(q) + ".np" + std::to_string(np);
        c.cfg.platform = pl;
        c.cfg.query = q;
        c.cfg.nproc = np;
        c.cfg.trials = 1;
        c.cfg.scale = core::ScaleConfig{o.scale};
        c.cfg.seed = o.seed;
        if (sampled) c.cfg.sample = kCiSchedule;
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

std::vector<core::ExperimentConfig> configs(const std::vector<Cell>& cells) {
  std::vector<core::ExperimentConfig> out;
  for (const Cell& c : cells) out.push_back(c.cfg);
  return out;
}

/// Refs issued to the machine model by a cell.
double cell_refs(const core::RunResult& r) {
  if (r.sampled) return static_cast<double>(r.sample_total_refs);
  return static_cast<double>(r.mean.loads + r.mean.stores + r.mean.atomics);
}

/// Rows equal by key, and by value within relative tolerance `tol`.
bool same_rows(const std::vector<tpch::ResultRow>& a,
               const std::vector<tpch::ResultRow>& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].vals.size() != b[i].vals.size()) {
      return false;
    }
    for (std::size_t j = 0; j < a[i].vals.size(); ++j) {
      const double x = a[i].vals[j], y = b[i].vals[j];
      if (std::abs(x - y) > tol * std::max(1.0, std::abs(y))) return false;
    }
  }
  return true;
}

/// Everything a composed trial measured: host time per layer plus the
/// simulated outputs compared against run_cells.
struct TrialTrace {
  double cell_s = 0, setup_s = 0, run_all_s = 0, step_s = 0;
  u64 steps = 0;
  perf::Counters total;
  sim::ExecSampleSummary sample;
  std::vector<tpch::ResultRow> result;
};

/// One trial composed from the layers' public functions, timed per layer.
/// It mirrors ExperimentRunner::run_trial for trial 0; the traced run checks
/// that its counters equal run_cells' bit for bit, so the two cannot drift.
TrialTrace composed_trial(const db::Database& dbase, const Cell& cell,
                          Tracer& tr) {
  const core::ExperimentConfig& cfg = cell.cfg;
  const u32 lane = Tracer::lane();
  TrialTrace out;
  const auto t_cell = Clock::now();

  const sim::MachineConfig mc =
      sim::config_for(cfg.platform).scaled(cfg.scale.denom);
  sim::MachineSim machine(mc);
  std::optional<sim::RefSampler> sampler;
  if (cfg.sample.enabled()) {
    sampler.emplace(cfg.sample, cfg.nproc);
    machine.set_sampler(&*sampler);
  }
  db::RuntimeConfig rc;
  rc.pool_frames = cfg.scale.pool_frames();
  rc.workmem_arena_bytes = cfg.scale.arena_bytes();
  db::DbRuntime rt(dbase, rc);
  machine.set_addr_classes(&rt.addr_classes());
  rt.prewarm_all();
  const auto t_setup = Clock::now();
  out.setup_s = std::chrono::duration<double>(t_setup - t_cell).count();
  tr.add("trial_setup", "db", t_cell, t_setup, lane);

  tpch::QueryParams params;
  params.workmem_arena_bytes = cfg.scale.arena_bytes();
  os::Scheduler sched;
  std::vector<std::unique_ptr<tpch::QueryRun>> queries;
  Rng jitter(cfg.seed * 7919 + 0);  // trial 0's seed, as run_trial derives it
  for (u32 i = 0; i < cfg.nproc; ++i) {
    auto proc = std::make_unique<os::Process>(machine, i);
    proc->set_timeslice(static_cast<u64>(
        static_cast<double>(mc.timeslice_cycles) /
        (1.0 + 0.05 * (cfg.nproc - 1))));
    proc->instr(static_cast<u64>(jitter.uniform(0, 40'000)));
    auto q = tpch::make_query(cfg.query, rt, *proc, params);
    tpch::QueryRun* qp = q.get();
    queries.push_back(std::move(q));
    // The step wrapper keeps a count and a total, not a span per call.
    sched.add(std::move(proc), [qp, &out](os::Process& p) {
      const auto t0 = Clock::now();
      const bool done = qp->step(p);
      out.step_s += seconds_since(t0);
      ++out.steps;
      return done;
    });
  }
  const auto t_run = Clock::now();
  sched.run_all();
  const auto t_ran = Clock::now();
  out.run_all_s = std::chrono::duration<double>(t_ran - t_run).count();
  tr.add("run_all", "os", t_run, t_ran, lane,
         num_arg("step_calls", static_cast<double>(out.steps)) + "," +
             num_arg("step_ms", out.step_s * 1e3) + "," +
             num_arg("sched_self_ms", (out.run_all_s - out.step_s) * 1e3));

  std::vector<perf::Counters*> procs;
  for (std::size_t i = 0; i < sched.job_count(); ++i) {
    procs.push_back(&sched.process(i).counters());
  }
  if (sampler) out.sample = sampler->finalize(machine, procs);
  for (perf::Counters* c : procs) out.total += *c;
  out.result = queries[0]->result();
  const auto t_end = Clock::now();
  out.cell_s = std::chrono::duration<double>(t_end - t_cell).count();
  tr.add(cell.name, "core", t_cell, t_end, lane);
  return out;
}

/// Per-layer values of one traced figs pass.
std::map<std::string, double> figs_layers(const std::vector<TrialTrace>& tt,
                                          const std::vector<Cell>& cells,
                                          double pass_wall, u32 jobs) {
  std::map<std::string, double> m;
  perf::Counters sum;
  LastLevel ll;
  double refs = 0, detailed = 0;
  double setup = 0, step = 0, sched_self = 0, cell_sum = 0, cell_max = 0;
  u64 steps = 0;
  for (std::size_t i = 0; i < tt.size(); ++i) {
    const TrialTrace& t = tt[i];
    sum += t.total;
    if (cells[i].cfg.sample.enabled()) {
      refs += static_cast<double>(t.sample.total_refs);
      detailed += static_cast<double>(t.sample.detailed_refs);
    } else {
      const double r =
          static_cast<double>(t.total.loads + t.total.stores + t.total.atomics);
      refs += r;
      detailed += r;
    }
    ll.add(cells[i].cfg.platform, t.total);
    setup += t.setup_s;
    step += t.step_s;
    sched_self += t.run_all_s - t.step_s;
    steps += t.steps;
    cell_sum += t.cell_s;
    cell_max = std::max(cell_max, t.cell_s);
  }
  auto d = [](u64 v) { return static_cast<double>(v); };
  m["db.trial_setup_ms"] = setup * 1e3;
  m["db.tuples_scanned"] = d(sum.tuples_scanned);
  m["db.buffer_pins"] = d(sum.buffer_pins);
  m["db.lock_acquires"] = d(sum.lock_acquires);
  m["db.lock_collision_frac"] =
      sum.lock_acquires ? d(sum.lock_collisions) / d(sum.lock_acquires) : 0.0;
  m["db.spin_cycles"] = d(sum.spin_cycles);
  m["os.select_sleeps"] = d(sum.select_sleeps);
  m["exec.step_s"] = step;
  m["exec.steps"] = d(steps);
  m["exec.ns_per_ref"] = refs > 0 ? step * 1e9 / refs : 0.0;
  m["os.sched_self_s"] = sched_self;
  m["os.vol_ctx"] = d(sum.vol_ctx_switches);
  m["os.invol_ctx"] = d(sum.invol_ctx_switches);
  m["sim.refs"] = refs;
  add_sim_layers(m, sum, ll);
  m["sample.detail_frac"] = refs > 0 ? detailed / refs : 0.0;
  m["core.cell_max_s"] = cell_max;
  m["core.cell_sum_s"] = cell_sum;
  m["core.pool_util"] = pass_wall > 0 ? cell_sum / (jobs * pass_wall) : 0.0;
  return m;
}

/// The three Fig. 3 paper claims, on the cells' CPIs. A sampled CPI is an
/// estimate with a 95% half-width (`ci_cpi`, 0 at full detail); a claim
/// fails only when the estimates contradict it beyond their combined
/// half-width, since smaller differences are below what sampling resolves.
void fig3_claims(const std::vector<Cell>& cells,
                 const std::vector<core::RunResult>& res, Report& rep) {
  auto at = [&](perf::Platform pl, tpch::QueryId q, u32 np) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i].cfg;
      if (c.platform == pl && c.query == q && c.nproc == np) return res[i];
    }
    throw std::logic_error("cell missing from the Fig. 3 set");
  };
  auto in_band = [](const core::RunResult& r) {
    return r.cpi > 1.25 - r.ci_cpi && r.cpi < 1.65 + r.ci_cpi;
  };
  bool band = true, both_rise = true, sgi_rises_more = true;
  for (auto q : {tpch::QueryId::Q6, tpch::QueryId::Q21, tpch::QueryId::Q12}) {
    const core::RunResult h1 = at(perf::Platform::VClass, q, 1);
    const core::RunResult h8 = at(perf::Platform::VClass, q, 8);
    const core::RunResult s1 = at(perf::Platform::Origin2000, q, 1);
    const core::RunResult s8 = at(perf::Platform::Origin2000, q, 8);
    const double h_rise = h8.cpi - h1.cpi, s_rise = s8.cpi - s1.cpi;
    const double h_ci = std::hypot(h8.ci_cpi, h1.ci_cpi);
    const double s_ci = std::hypot(s8.ci_cpi, s1.ci_cpi);
    band = band && in_band(h1) && in_band(s1);
    both_rise = both_rise && h_rise >= -h_ci && s_rise >= -s_ci;
    sgi_rises_more = sgi_rises_more && s_rise - h_rise > -std::hypot(h_ci, s_ci);
  }
  rep.checks["claim_cpi_in_band"] = band;
  rep.checks["claim_cpi_rises_with_8"] = both_rise;
  rep.checks["claim_origin_rises_more"] = sgi_rises_more;
}

void run_figs(const Options& o, bool sampled, Tracer& tr, Report& rep) {
  const std::vector<Cell> cells = fig3_cells(o, sampled);
  const std::vector<core::ExperimentConfig> cfgs = configs(cells);
  const u32 lane = Tracer::lane();

  // Set-up is the TPC-H build the runner's constructor does; the timed
  // repetitions call tpch::build_database with the same configuration.
  tpch::GenConfig gen;
  gen.scale_factor = core::ScaleConfig{o.scale}.scale_factor();
  gen.seed = o.seed;
  auto build = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<db::Database> built = tpch::build_database(gen);
    tr.add("tpch::build_database", "tpch", t0, Clock::now(), lane);
    return built;
  };
  core::ExperimentRunner runner(core::ScaleConfig{o.scale}, o.seed, o.jobs);

  // Reference outputs: the oracle answers and the warm-up pass's counters.
  const tpch::QueryParams qp;
  const db::Database& dbase = runner.database();
  const std::map<tpch::QueryId, std::vector<tpch::ResultRow>> oracle = {
      {tpch::QueryId::Q6, {{"revenue", {tpch::oracle::q6(dbase, qp)}}}},
      {tpch::QueryId::Q12, tpch::oracle::q12(dbase, qp)},
      {tpch::QueryId::Q21, tpch::oracle::q21(dbase, qp)}};
  std::vector<core::RunResult> first;
  bool identical = true, oracle_ok = true;
  auto pass = [&]() {
    std::vector<core::RunResult> res = runner.run_cells(cfgs);
    double refs = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
      refs += cell_refs(res[i]);
      // The oracle sums in another order; the tests allow 1e-6 likewise.
      if (!same_rows(res[i].query_result, oracle.at(cells[i].cfg.query),
                     1e-6)) {
        oracle_ok = false;
      }
    }
    if (first.empty()) {
      first = std::move(res);
    } else {
      for (std::size_t i = 0; i < res.size(); ++i) {
        identical = identical && same_counters(res[i].mean, first[i].mean) &&
                    res[i].sample_total_refs == first[i].sample_total_refs &&
                    res[i].sample_detailed_refs == first[i].sample_detailed_refs;
      }
    }
    return refs;
  };

  if (!o.trace) {
    time_passes(o, rep, cells.size(), [&] { (void)build(); }, pass);
  } else {
    // Traced passes compose each trial over this database; the warm-up
    // run_cells pass is the reference they must reproduce.
    const auto tb = Clock::now();
    const std::unique_ptr<db::Database> built = build();
    const double build_s = seconds_since(tb);
    ThreadPool pool(o.jobs);
    bool composed_ok = true;
    alternate_passes(o, rep, cells.size(), tr, pass, [&] {
      std::vector<TrialTrace> tt(cells.size());
      const auto t0 = Clock::now();
      parallel_for_index(&pool, cells.size(), [&](u64 i) {
        tt[i] = composed_trial(*built, cells[i], tr);
      });
      const double wall = seconds_since(t0);
      for (std::size_t i = 0; i < cells.size() && !first.empty(); ++i) {
        composed_ok = composed_ok && same_counters(tt[i].total, first[i].mean) &&
                      tt[i].sample.total_refs == first[i].sample_total_refs &&
                      same_rows(tt[i].result, first[i].query_result, 0.0);
      }
      auto layers = figs_layers(tt, cells, wall, o.jobs);
      layers["tpch.build_s"] = build_s;
      return layers;
    });
    rep.checks["composed_matches_run_cells"] = composed_ok;
  }

  rep.checks["passes_identical"] = identical && !first.empty();
  rep.checks["oracle_results"] = oracle_ok && !first.empty();
  if (first.empty()) return;
  fig3_claims(cells, first, rep);
  Digest dg;
  for (std::size_t i = 0; i < first.size(); ++i) {
    rep.cell_cpi[cells[i].name] = first[i].cpi;
    dg.counters(first[i].mean);
    dg.u(first[i].sample_total_refs);
  }
  rep.digest = dg.hex();

  if (sampled && o.full_ref) {
    // Full-detail reference CPIs of the same cells and seed (untimed).
    const std::vector<core::RunResult> full =
        runner.run_cells(configs(fig3_cells(o, false)));
    for (std::size_t i = 0; i < full.size(); ++i) {
      rep.full_cpi[cells[i].name] = full[i].cpi;
    }
  }
}

// ------------------------------------------------------------ replay workload

struct Stream {
  std::string name;
  perf::Platform platform;
  sim::MachineConfig cfg;
  const std::vector<sim::TraceRecord>* records;
};

void run_replay(const Options& o, Tracer& tr, Report& rep) {
  const u32 lane = Tracer::lane();
  // Set-up: generate the five reference streams (machine-independent).
  auto generate = [&] {
    const auto t0 = Clock::now();
    std::vector<std::vector<sim::TraceRecord>> out;
    for (u32 pi = 0; pi < sim::kNumRefPatterns; ++pi) {
      sim::RefStreamConfig rc;
      rc.pattern = static_cast<sim::RefPattern>(pi);
      rc.records = o.records;
      rc.seed = o.seed;
      out.push_back(sim::make_refstream(rc));
    }
    tr.add("sim::make_refstream x5", "refstream", t0, Clock::now(), lane);
    return out;
  };
  const auto tg = Clock::now();
  const std::vector<std::vector<sim::TraceRecord>> recs = generate();
  const double gen_s = seconds_since(tg);
  std::vector<Stream> streams;
  for (auto pl : {perf::Platform::VClass, perf::Platform::Origin2000}) {
    for (u32 pi = 0; pi < sim::kNumRefPatterns; ++pi) {
      streams.push_back(
          {std::string(pl == perf::Platform::VClass ? "vclass." : "origin.") +
               sim::ref_pattern_name(static_cast<sim::RefPattern>(pi)),
           pl, sim::config_for(pl).scaled(o.scale), &recs[pi]});
    }
  }

  ThreadPool pool(o.jobs);
  std::vector<std::vector<perf::Counters>> first;
  bool identical = true, shards_identical = true;

  // The timed pass: per stream, a fresh compile cache, then shards=1 (which
  // compiles) and shards=4 (a cache hit).
  auto pass = [&]() {
    std::vector<std::vector<perf::Counters>> got;
    for (const Stream& s : streams) {
      sim::TraceCompileCache cache;
      sim::ReplayOptions ro;
      ro.epoch_records = kEpochRecords;
      ro.pool = &pool;
      ro.compile_cache = &cache;
      std::vector<perf::Counters> by_shards[2];
      for (int v = 0; v < 2; ++v) {
        ro.shards = kReplayShards[v];
        by_shards[v] = sim::replay_batched(s.cfg, *s.records, ro);
      }
      shards_identical = shards_identical && by_shards[0].size() == by_shards[1].size();
      for (std::size_t p = 0; shards_identical && p < by_shards[0].size(); ++p) {
        shards_identical = same_counters(by_shards[0][p], by_shards[1][p]);
      }
      got.push_back(std::move(by_shards[0]));
    }
    if (first.empty()) {
      first = std::move(got);
    } else {
      for (std::size_t i = 0; i < got.size(); ++i) {
        for (std::size_t p = 0; p < got[i].size(); ++p) {
          identical = identical && same_counters(got[i][p], first[i][p]);
        }
      }
    }
    return static_cast<double>(o.records) * 2.0 * streams.size();
  };

  // The traced pass: the same calls split at each layer's public function,
  // with a span per compile, cache hit, replay call and shard.
  auto traced_pass = [&] {
    double compile_s = 0, hit_s = 0, busy_max_s = 0, outside_s = 0;
    double imbalance_sum = 0, log_speedup_sum = 0, replay_s[2] = {0, 0};
    u32 rows_4_beat_1 = 0;
    for (std::size_t si = 0; si < streams.size(); ++si) {
      const Stream& s = streams[si];
      sim::TraceCompileCache cache;
      auto t0 = Clock::now();
      (void)cache.get(s.cfg, *s.records, kEpochRecords, &pool);
      auto t1 = Clock::now();
      compile_s += std::chrono::duration<double>(t1 - t0).count();
      tr.add("compile " + s.name, "batch", t0, t1, lane);
      t0 = Clock::now();
      (void)cache.get(s.cfg, *s.records, kEpochRecords, &pool);
      t1 = Clock::now();
      hit_s += std::chrono::duration<double>(t1 - t0).count();
      tr.add("cache_hit " + s.name, "batch", t0, t1, lane);

      double wall[2] = {0, 0};
      std::vector<perf::Counters> by_shards[2];
      for (int v = 0; v < 2; ++v) {
        constexpr u32 kMaxShards = 64;
        std::vector<Clock::time_point> start(kMaxShards), done(kMaxShards);
        std::vector<u32> lanes(kMaxShards, 0);
        sim::ReplayOptions ro;
        ro.shards = kReplayShards[v];
        ro.epoch_records = kEpochRecords;
        ro.pool = &pool;
        ro.compile_cache = &cache;
        ro.on_shard_start = [&](u32 sh, sim::MachineSim&) {
          start.at(sh) = Clock::now();
        };
        ro.on_shard_done = [&](u32 sh, sim::MachineSim&) {
          done.at(sh) = Clock::now();
          lanes.at(sh) = Tracer::lane();
        };
        sim::ReplayStats st;
        t0 = Clock::now();
        by_shards[v] = sim::replay_batched(s.cfg, *s.records, ro, &st);
        t1 = Clock::now();
        wall[v] = std::chrono::duration<double>(t1 - t0).count();
        replay_s[v] += wall[v];
        tr.add("replay_batched " + s.name + " shards=" +
                   std::to_string(ro.shards),
               "batch", t0, t1, lane);
        // Shards replay once every shard machine exists: the last
        // on_shard_start. Each shard's busy span ends at its on_shard_done.
        const u32 S = st.shards_used;
        const Clock::time_point go =
            *std::max_element(start.begin(), start.begin() + S);
        double span_max = 0, span_sum = 0;
        for (u32 sh = 0; sh < S; ++sh) {
          const double span = std::chrono::duration<double>(done[sh] - go).count();
          span_max = std::max(span_max, span);
          span_sum += span;
          tr.add("shard " + std::to_string(sh) + " " + s.name, "batch", go,
                 done[sh], 100 + lanes[sh]);
        }
        if (v == 1) {
          busy_max_s += span_max;
          outside_s += wall[v] - span_max;
          imbalance_sum += span_sum > 0 ? span_max / (span_sum / S) : 1.0;
        }
      }
      log_speedup_sum += std::log(wall[0] / wall[1]);
      rows_4_beat_1 += wall[1] < wall[0] ? 1 : 0;
      for (std::size_t p = 0; p < by_shards[0].size(); ++p) {
        shards_identical =
            shards_identical && same_counters(by_shards[0][p], by_shards[1][p]);
        if (!first.empty()) {
          identical = identical && same_counters(by_shards[0][p], first[si][p]);
        }
      }
    }
    const double n = static_cast<double>(streams.size());
    std::map<std::string, double> m;
    m["refstream.gen_s"] = gen_s;
    m["batch.compile_s"] = compile_s;
    m["batch.cache_hit_us"] = hit_s * 1e6 / n;
    m["batch.replay_s.s1"] = replay_s[0];
    m["batch.replay_s.s4"] = replay_s[1];
    m["batch.shard_busy_max_s"] = busy_max_s;
    m["batch.shard_imbalance"] = imbalance_sum / n;
    m["batch.outside_shards_s"] = outside_s;
    m["batch.speedup_4v1"] = std::exp(log_speedup_sum / n);
    m["batch.rows_4_beat_1"] = rows_4_beat_1;
    return m;
  };

  if (!o.trace) {
    time_passes(o, rep, streams.size(), [&] { (void)generate(); }, pass);
  } else {
    alternate_passes(o, rep, streams.size(), tr, pass, traced_pass);
  }
  rep.checks["passes_identical"] = identical && !first.empty();
  rep.checks["shards_identical"] = shards_identical && !first.empty();
  if (first.empty()) return;

  // Simulated-counter layer values (exact; identical on every pass).
  perf::Counters sum;
  LastLevel ll;
  Digest dg;
  for (std::size_t i = 0; i < first.size(); ++i) {
    for (const perf::Counters& c : first[i]) {
      sum += c;
      ll.add(streams[i].platform, c);
      dg.counters(c);
    }
  }
  rep.digest = dg.hex();
  for (auto& m : rep.layers) {
    m["sim.refs"] = static_cast<double>(sum.loads + sum.stores + sum.atomics);
    add_sim_layers(m, sum, ll);
    m["sample.detail_frac"] = 1.0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Tracer tr;
  (void)Tracer::lane();  // the main thread is lane 0
  Report rep;
  try {
    if (o.workload == "replay") {
      run_replay(o, tr, rep);
    } else {
      run_figs(o, o.workload == "figs_sampled", tr, rep);
    }
    if (o.trace && !o.trace_out.empty()) tr.write(o.trace_out);
  } catch (const std::exception& e) {
    // A failure outside a pass (set-up, the oracle, the trace file).
    rep.errors.emplace_back(e.what());
    ++rep.failed;
    rep.attempted = std::max<u64>(rep.attempted, 1);
  }

  Out out;
  out.str("workload", o.workload);
  out.num("seed", static_cast<double>(o.seed));
  out.num("scale", o.scale);
  out.num("jobs", o.jobs);
  out.boolean("trace", o.trace);
#ifdef __clang__
  out.str("compiler", __VERSION__);
#else
  out.str("compiler", "gcc " __VERSION__);
#endif
  out.str("build_type", DSS_BUILD_TYPE);
  out.boolean("comparable", comparable_build());
  out.nums("setup_s", rep.setup_s);
  out.nums("pass_s", rep.pass_s);
  out.nums("cpu_s", rep.cpu_s);
  out.nums("refs", rep.refs);
  out.nums("traced_pass_s", rep.traced_pass_s);
  out.nums("untraced_pass_s", rep.untraced_pass_s);
  out.num("peak_rss_mb", rep.peak_rss_mb);
  out.num("attempted", static_cast<double>(rep.attempted));
  out.num("failed", static_cast<double>(rep.failed));
  out.strs("errors", rep.errors);
  std::map<std::string, double> checks;
  for (const auto& [k, v] : rep.checks) checks[k] = v ? 1 : 0;
  out.obj("checks", checks);
  out.obj("cell_cpi", rep.cell_cpi);
  out.obj("full_cpi", rep.full_cpi);
  std::map<std::string, double> layers;
  if (!rep.layers.empty()) {
    for (const auto& [k, v] : rep.layers.front()) {
      std::vector<double> vals;
      for (const auto& m : rep.layers) vals.push_back(m.at(k));
      layers[k] = median(vals);
    }
  }
  out.obj("layers", layers);
  out.str("digest", rep.digest);
  std::cout << out.text() << std::endl;
  return 0;
}
