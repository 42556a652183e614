#include "core/run_export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <span>
#include <sstream>

namespace dss::core {

namespace {

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Streams one JSON object, inserting commas between members.
class ObjWriter {
 public:
  ObjWriter(std::ostream& os, int indent) : os_(os), indent_(indent) {
    os_ << "{";
  }
  void key(const std::string& k) {
    if (!first_) os_ << ",";
    first_ = false;
    os_ << "\n";
    for (int i = 0; i < indent_ + 2; ++i) os_ << ' ';
    os_ << '"' << util::json_escape(k) << "\": ";
  }
  void num(const std::string& k, double v) { key(k); os_ << fmt_double(v); }
  void num(const std::string& k, u64 v) { key(k); os_ << v; }
  void num(const std::string& k, u32 v) { key(k); os_ << v; }
  void str(const std::string& k, const std::string& v) {
    key(k);
    os_ << '"' << util::json_escape(v) << '"';
  }
  void boolean(const std::string& k, bool v) {
    key(k);
    os_ << (v ? "true" : "false");
  }
  void close() {
    if (!first_) {
      os_ << "\n";
      for (int i = 0; i < indent_; ++i) os_ << ' ';
    }
    os_ << "}";
  }

 private:
  std::ostream& os_;
  int indent_;
  bool first_ = true;
};

void write_breakdown(std::ostream& os, int indent,
                     const perf::MissBreakdown& b) {
  ObjWriter w(os, indent);
  for (u32 i = 0; i < perf::kNumMissCauses; ++i) {
    w.num(perf::miss_cause_name(static_cast<perf::MissCause>(i)),
          b.by_cause[i]);
  }
  w.close();
}

void write_counters(std::ostream& os, int indent, const perf::Counters& c) {
  ObjWriter w(os, indent);
  w.num("cycles", c.cycles);
  w.num("instructions", c.instructions);
  w.num("spin_cycles", c.spin_cycles);
  w.num("loads", c.loads);
  w.num("stores", c.stores);
  w.num("atomics", c.atomics);
  w.num("l1d_misses", c.l1d_misses);
  w.num("l2d_misses", c.l2d_misses);
  w.num("dirty_misses", c.dirty_misses);
  w.num("cache_interventions", c.cache_interventions);
  w.num("invalidations_recv", c.invalidations_recv);
  w.num("upgrades", c.upgrades);
  w.num("writebacks", c.writebacks);
  w.num("migratory_transfers", c.migratory_transfers);
  w.num("tlb_misses", c.tlb_misses);
  w.num("mem_requests", c.mem_requests);
  w.num("mem_latency_cycles", c.mem_latency_cycles);
  w.num("remote_accesses", c.remote_accesses);
  w.num("vol_ctx_switches", c.vol_ctx_switches);
  w.num("invol_ctx_switches", c.invol_ctx_switches);
  w.num("select_sleeps", c.select_sleeps);
  w.num("lock_acquires", c.lock_acquires);
  w.num("lock_collisions", c.lock_collisions);
  w.num("buffer_pins", c.buffer_pins);
  w.num("tuples_scanned", c.tuples_scanned);
  w.num("index_descents", c.index_descents);
  w.close();
}

void write_stack(std::ostream& os, int indent, const perf::CpiStack& s) {
  ObjWriter w(os, indent);
  w.num("compute", s.compute);
  w.num("spin", s.spin);
  w.num("sched", s.sched);
  w.num("tlb", s.tlb);
  w.num("atomics", s.atomics);
  w.num("l2_hit", s.l2_hit);
  w.num("mem_local", s.mem_local);
  w.num("mem_remote_near", s.mem_remote_near);
  w.num("mem_remote_mid", s.mem_remote_mid);
  w.num("mem_remote_far", s.mem_remote_far);
  w.num("intervention", s.intervention);
  w.close();
}

void write_cell(std::ostream& os, int indent, const ExportCell& cell) {
  const perf::Counters& c = cell.result.mean;
  ObjWriter w(os, indent);
  w.str("platform", cell.platform);
  w.str("query", cell.query);
  w.num("nproc", cell.nproc);
  w.num("trials", cell.trials);
  w.str("variant", cell.variant);
  w.boolean("check", cell.check);
  w.key("metrics");
  {
    ObjWriter m(os, indent + 2);
    m.num("thread_time_cycles", cell.result.thread_time_cycles);
    m.num("cpi", cell.result.cpi);
    m.num("cycles_per_minstr", cell.result.cycles_per_minstr);
    m.num("l1d_misses", cell.result.l1d_misses);
    m.num("l2d_misses", cell.result.l2d_misses);
    m.num("l1d_per_minstr", cell.result.l1d_per_minstr);
    m.num("l2d_per_minstr", cell.result.l2d_per_minstr);
    m.num("avg_mem_latency", cell.result.avg_mem_latency);
    m.num("vol_ctx_per_minstr", cell.result.vol_ctx_per_minstr);
    m.num("invol_ctx_per_minstr", cell.result.invol_ctx_per_minstr);
    m.num("wall_seconds", cell.result.wall_seconds);
    m.close();
  }
  if (cell.serving.has_value()) {
    const ServingStats& sv = *cell.serving;
    w.key("serving");
    {
      ObjWriter s(os, indent + 2);
      s.str("arrival", sv.arrival);
      s.num("sessions", sv.sessions);
      s.num("cpus", sv.cpus);
      s.num("queries_per_session", sv.queries_per_session);
      s.num("queries", sv.queries);
      s.num("think_time_ms", sv.think_time_ms);
      s.num("target_load", sv.target_load);
      s.num("offered_qps", sv.offered_qps);
      s.num("achieved_qph", sv.achieved_qph);
      s.num("mean_concurrency", sv.mean_concurrency);
      s.num("p50_ms", sv.p50_ms);
      s.num("p95_ms", sv.p95_ms);
      s.num("p99_ms", sv.p99_ms);
      s.num("mean_ms", sv.mean_ms);
      s.num("max_ms", sv.max_ms);
      s.num("queue_p99_ms", sv.queue_p99_ms);
      s.num("max_queue_depth", sv.max_queue_depth);
      s.num("metrics_nproc", sv.metrics_nproc);
      s.close();
    }
  }
  if (cell.result.sampled) {
    w.key("sample");
    {
      ObjWriter s(os, indent + 2);
      s.num("unit_records", cell.result.sample_unit_records);
      s.num("detail_every", cell.result.sample_detail_every);
      s.num("warmup_records", cell.result.sample_warmup_records);
      s.num("total_refs", cell.result.sample_total_refs);
      s.num("detailed_refs", cell.result.sample_detailed_refs);
      s.num("measured_refs", cell.result.sample_measured_refs);
      s.num("windows", cell.result.sample_windows);
      s.close();
    }
    w.key("metric_ci");
    {
      ObjWriter s(os, indent + 2);
      s.num("thread_time_cycles", cell.result.ci_thread_time_cycles);
      s.num("cpi", cell.result.ci_cpi);
      s.num("cycles_per_minstr", cell.result.ci_cycles_per_minstr);
      s.num("l1d_misses", cell.result.ci_l1d_misses);
      s.num("l2d_misses", cell.result.ci_l2d_misses);
      s.num("l1d_per_minstr", cell.result.ci_l1d_per_minstr);
      s.num("l2d_per_minstr", cell.result.ci_l2d_per_minstr);
      s.num("avg_mem_latency", cell.result.ci_avg_mem_latency);
      s.close();
    }
  }
  w.key("counters");
  write_counters(os, indent + 2, c);
  w.key("miss_causes");
  {
    ObjWriter m(os, indent + 2);
    m.key("l1");
    write_breakdown(os, indent + 4, c.l1_miss_causes);
    m.key("l2");
    write_breakdown(os, indent + 4, c.l2_miss_causes);
    m.close();
  }
  w.key("obj_misses");
  {
    ObjWriter m(os, indent + 2);
    for (u32 i = 0; i < perf::kNumObjClasses; ++i) {
      m.key(perf::obj_class_name(static_cast<perf::ObjClass>(i)));
      ObjWriter o(os, indent + 4);
      o.num("total", c.obj_misses[i]);
      o.num("comm", c.obj_comm_misses[i]);
      o.close();
    }
    m.close();
  }
  w.key("cpi_stack");
  write_stack(os, indent + 2, c.stack);
  w.close();
}

std::string cell_label(const std::string& platform, const std::string& query,
                       u64 nproc, const std::string& variant) {
  std::ostringstream oss;
  oss << platform << "/" << query << "/" << nproc;
  if (!variant.empty()) oss << "/" << variant;
  return oss.str();
}

}  // namespace

void write_metrics_json(std::ostream& os, const MetricsDoc& doc) {
  ObjWriter w(os, 0);
  w.num("schema_version", kMetricsSchemaVersion);
  w.str("bench", doc.bench);
  w.num("scale_denom", doc.scale_denom);
  w.num("seed", doc.seed);
  w.key("cells");
  os << "[";
  for (std::size_t i = 0; i < doc.cells.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n    ";
    write_cell(os, 4, doc.cells[i]);
  }
  if (!doc.cells.empty()) os << "\n  ";
  os << "]";
  w.close();
  os << "\n";
}

void write_metrics_file(const std::string& path, const MetricsDoc& doc) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open metrics output file: " + path);
  }
  write_metrics_json(out, doc);
  out.flush();
  if (!out) {
    throw std::runtime_error("failed writing metrics output file: " + path);
  }
}

namespace {

const util::Json* get_typed(std::vector<std::string>& problems,
                            const util::Json& obj, const std::string& key,
                            util::Json::Type type, const std::string& ctx) {
  const util::Json* v = obj.get(key);
  if (v == nullptr) {
    problems.push_back(ctx + ": missing \"" + key + "\"");
    return nullptr;
  }
  if (v->type() != type) {
    problems.push_back(ctx + ": \"" + key + "\" has the wrong type");
    return nullptr;
  }
  return v;
}

void check_all_numbers(std::vector<std::string>& problems,
                       const util::Json& obj, const std::string& ctx) {
  for (const auto& [k, v] : obj.as_object()) {
    if (!v.is_number()) {
      problems.push_back(ctx + ": \"" + k + "\" is not a number");
    }
  }
}

/// Members a report reads from the optional "sample" and "serving" objects.
constexpr const char* kSampleKeys[] = {"unit_records",  "detail_every",
                                       "warmup_records", "total_refs",
                                       "detailed_refs", "windows"};
constexpr const char* kServingKeys[] = {
    "sessions",     "queries_per_session", "cpus",         "target_load",
    "offered_qps",  "achieved_qph",        "mean_concurrency",
    "metrics_nproc", "p50_ms",             "p95_ms",       "p99_ms",
    "mean_ms",      "max_ms",              "queue_p99_ms"};

void require_keys(std::vector<std::string>& problems, const util::Json& obj,
                  std::span<const char* const> keys, const std::string& ctx) {
  for (const char* k : keys) {
    if (obj.get(k) == nullptr) {
      problems.push_back(ctx + ": missing \"" + std::string(k) + "\"");
    }
  }
}

}  // namespace

std::vector<std::string> check_metrics_schema(const util::Json& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.push_back("top level is not an object");
    return problems;
  }
  if (const util::Json* v = get_typed(problems, doc, "schema_version",
                                      util::Json::Type::Number, "document")) {
    if (v->as_number() != kMetricsSchemaVersion) {
      problems.push_back("unsupported schema_version " +
                         fmt_double(v->as_number()) + " (this build reads " +
                         std::to_string(kMetricsSchemaVersion) + ")");
    }
  }
  get_typed(problems, doc, "bench", util::Json::Type::String, "document");
  get_typed(problems, doc, "scale_denom", util::Json::Type::Number,
            "document");
  get_typed(problems, doc, "seed", util::Json::Type::Number, "document");
  const util::Json* cells =
      get_typed(problems, doc, "cells", util::Json::Type::Array, "document");
  if (cells == nullptr) return problems;

  for (std::size_t i = 0; i < cells->as_array().size(); ++i) {
    const util::Json& cell = cells->as_array()[i];
    const std::string ctx = "cells[" + std::to_string(i) + "]";
    if (!cell.is_object()) {
      problems.push_back(ctx + " is not an object");
      continue;
    }
    get_typed(problems, cell, "platform", util::Json::Type::String, ctx);
    get_typed(problems, cell, "query", util::Json::Type::String, ctx);
    get_typed(problems, cell, "nproc", util::Json::Type::Number, ctx);
    get_typed(problems, cell, "trials", util::Json::Type::Number, ctx);
    get_typed(problems, cell, "variant", util::Json::Type::String, ctx);
    if (cell.get("check") != nullptr) {
      get_typed(problems, cell, "check", util::Json::Type::Bool, ctx);
    }
    if (const util::Json* m = get_typed(problems, cell, "metrics",
                                        util::Json::Type::Object, ctx)) {
      check_all_numbers(problems, *m, ctx + ".metrics");
    }
    // Optional v4 member, present only on serving cells: "arrival" is a
    // string ("closed"/"open"), every other member is a number, and every
    // member a report prints must be there.
    if (const util::Json* sv = cell.get("serving")) {
      if (!sv->is_object()) {
        problems.push_back(ctx + ": \"serving\" has the wrong type");
      } else {
        get_typed(problems, *sv, "arrival", util::Json::Type::String,
                  ctx + ".serving");
        for (const auto& [k, v] : sv->as_object()) {
          if (k == "arrival") continue;
          if (!v.is_number()) {
            problems.push_back(ctx + ".serving: \"" + k +
                               "\" is not a number");
          }
        }
        require_keys(problems, *sv, kServingKeys, ctx + ".serving");
      }
    }
    // Optional v3 members, present only on sampled cells.
    for (const char* opt : {"sample", "metric_ci"}) {
      if (const util::Json* m = cell.get(opt)) {
        if (!m->is_object()) {
          problems.push_back(ctx + ": \"" + std::string(opt) +
                             "\" has the wrong type");
        } else {
          check_all_numbers(problems, *m, ctx + "." + std::string(opt));
        }
      }
    }
    const util::Json* sample = cell.get("sample");
    if (sample != nullptr && sample->is_object()) {
      require_keys(problems, *sample, kSampleKeys, ctx + ".sample");
    }
    if (const util::Json* m = get_typed(problems, cell, "counters",
                                        util::Json::Type::Object, ctx)) {
      check_all_numbers(problems, *m, ctx + ".counters");
    }
    if (const util::Json* m = get_typed(problems, cell, "miss_causes",
                                        util::Json::Type::Object, ctx)) {
      for (const char* level : {"l1", "l2"}) {
        if (const util::Json* b = get_typed(problems, *m, level,
                                            util::Json::Type::Object,
                                            ctx + ".miss_causes")) {
          check_all_numbers(problems, *b,
                            ctx + ".miss_causes." + std::string(level));
        }
      }
    }
    get_typed(problems, cell, "obj_misses", util::Json::Type::Object, ctx);
    if (const util::Json* m = get_typed(problems, cell, "cpi_stack",
                                        util::Json::Type::Object, ctx)) {
      check_all_numbers(problems, *m, ctx + ".cpi_stack");
    }
  }
  return problems;
}

bool DiffReport::has_regressions() const {
  for (const MetricDelta& d : deltas) {
    if (d.regression) return true;
  }
  return false;
}

std::vector<MetricDelta> DiffReport::regressions() const {
  std::vector<MetricDelta> out;
  for (const MetricDelta& d : deltas) {
    if (d.regression) out.push_back(d);
  }
  return out;
}

namespace {

/// Gate direction of one serving-object metric. Latency tails and queue
/// depth are higher-is-worse, throughput is lower-is-worse; configuration
/// echoes (sessions, target_load, ...) and descriptive statistics
/// (mean_concurrency, offered_qps) are informational.
enum class ServingDir { kHigherWorse, kLowerWorse, kInfo };

ServingDir serving_direction(const std::string& key) {
  if (key == "p50_ms" || key == "p95_ms" || key == "p99_ms" ||
      key == "mean_ms" || key == "max_ms" || key == "queue_p99_ms" ||
      key == "max_queue_depth") {
    return ServingDir::kHigherWorse;
  }
  if (key == "achieved_qph") return ServingDir::kLowerWorse;
  return ServingDir::kInfo;
}

/// Compare the optional per-cell "serving" objects. Serving numbers are
/// exact simulated values — no host noise, no sampling CI — so they gate
/// under `ci_gate` too (that is what lets the CI smoke job gate on
/// serving.p99_ms against a committed baseline).
void diff_serving(DiffReport& rep, const std::string& label,
                  const util::Json* as, const util::Json* bs,
                  const DiffOptions& opts) {
  if (as == nullptr && bs == nullptr) return;
  if (as == nullptr || bs == nullptr) {
    rep.errors.push_back("cell " + label +
                         ": \"serving\" present only in the " +
                         (as != nullptr ? "before" : "after") + " run");
    return;
  }
  for (const auto& [key, av] : as->as_object()) {
    const std::string metric = "serving." + key;
    if (!opts.only_metrics.empty() &&
        std::find(opts.only_metrics.begin(), opts.only_metrics.end(),
                  metric) == opts.only_metrics.end()) {
      continue;
    }
    const util::Json* bv = bs->get(key);
    if (bv == nullptr) {
      rep.errors.push_back("cell " + label + ": metric " + metric +
                           " missing from the after run");
      continue;
    }
    if (key == "arrival") {
      if (av.as_string() != bv->as_string()) {
        rep.errors.push_back("cell " + label + ": arrival mode differs (" +
                             av.as_string() + " vs " + bv->as_string() + ")");
      }
      continue;
    }
    MetricDelta d;
    d.cell = label;
    d.metric = metric;
    d.before = av.as_number();
    d.after = bv->as_number();
    if (d.before != 0.0) {
      d.rel = (d.after - d.before) / d.before;
    } else if (d.after != 0.0) {
      d.rel = std::numeric_limits<double>::infinity();
    }
    switch (serving_direction(key)) {
      case ServingDir::kHigherWorse:
        d.regression = d.rel > opts.rel_threshold;
        break;
      case ServingDir::kLowerWorse:
        d.regression = d.rel < -opts.rel_threshold;
        break;
      case ServingDir::kInfo:
        break;
    }
    rep.deltas.push_back(d);
  }
}

}  // namespace

DiffReport diff_metrics(const util::Json& before, const util::Json& after,
                        const DiffOptions& opts) {
  DiffReport rep;
  for (const auto* doc : {&before, &after}) {
    for (std::string& p : check_metrics_schema(*doc)) {
      rep.errors.push_back((doc == &before ? "before: " : "after: ") + p);
    }
  }
  if (!rep.errors.empty()) return rep;

  // Index cells by identity label. A label must name one cell: a second
  // cell under it could not be matched, so it is an error, not a drop.
  auto index = [&rep](const util::Json& doc, const char* side) {
    std::map<std::string, const util::Json*> m;
    for (const util::Json& cell : doc.get("cells")->as_array()) {
      std::string label =
          cell_label(cell.get("platform")->as_string(),
                     cell.get("query")->as_string(),
                     static_cast<u64>(cell.get("nproc")->as_number()),
                     cell.get("variant")->as_string());
      if (!m.emplace(label, &cell).second) {
        rep.errors.push_back(std::string(side) + ": duplicate cell " + label);
      }
    }
    return m;
  };
  const auto a_cells = index(before, "before");
  const auto b_cells = index(after, "after");
  if (!rep.errors.empty()) return rep;

  for (const auto& [label, a_cell] : a_cells) {
    const auto it = b_cells.find(label);
    if (it == b_cells.end()) {
      rep.errors.push_back("cell " + label + " missing from the after run");
      continue;
    }
    const util::Json& am = *a_cell->get("metrics");
    const util::Json& bm = *it->second->get("metrics");
    const util::Json* aci = a_cell->get("metric_ci");
    const util::Json* bci = it->second->get("metric_ci");
    for (const auto& [metric, av] : am.as_object()) {
      if (!opts.only_metrics.empty() &&
          std::find(opts.only_metrics.begin(), opts.only_metrics.end(),
                    metric) == opts.only_metrics.end()) {
        continue;
      }
      const util::Json* bv = bm.get(metric);
      if (bv == nullptr) {
        rep.errors.push_back("cell " + label + ": metric " + metric +
                             " missing from the after run");
        continue;
      }
      MetricDelta d;
      d.cell = label;
      d.metric = metric;
      d.before = av.as_number();
      d.after = bv->as_number();
      if (d.before != 0.0) {
        d.rel = (d.after - d.before) / d.before;
      } else if (d.after != 0.0) {
        d.rel = std::numeric_limits<double>::infinity();
      }
      auto half = [&](const util::Json* ci) {
        const util::Json* h = ci == nullptr ? nullptr : ci->get(metric);
        return h != nullptr && h->is_number() ? h->as_number() : 0.0;
      };
      const double ha = half(aci);
      const double hb = half(bci);
      d.combined_ci = std::sqrt(ha * ha + hb * hb);
      if (opts.ci_gate) {
        // Sampled-vs-golden mode: gate only CI-bearing metrics, and only
        // when the worse-direction move clears both the statistical noise
        // floor and the plain relative threshold.
        if (ha > 0.0 || hb > 0.0) {
          d.regression =
              d.after - d.before >
              std::max(d.combined_ci, opts.rel_threshold * std::fabs(d.before));
        }
      } else {
        // Every exported metric is higher-is-worse: times, misses, latency,
        // switch rates.
        d.regression = d.rel > opts.rel_threshold;
      }
      rep.deltas.push_back(d);
    }
    diff_serving(rep, label, a_cell->get("serving"), it->second->get("serving"),
                 opts);
  }
  for (const auto& [label, cell] : b_cells) {
    (void)cell;
    if (!a_cells.contains(label)) {
      rep.errors.push_back("cell " + label + " missing from the before run");
    }
  }
  return rep;
}

}  // namespace dss::core
