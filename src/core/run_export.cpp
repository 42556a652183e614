#include "core/run_export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <type_traits>

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
  void put(const std::string& k, double v) { key(k); os_ << fmt_double(v); }
  void put(const std::string& k, u64 v) { key(k); os_ << v; }
  void put(const std::string& k, u32 v) { key(k); os_ << v; }
  void put(const std::string& k, const std::string& v) {
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
    w.put(perf::miss_cause_name(static_cast<perf::MissCause>(i)),
          b.by_cause[i]);
  }
  w.close();
}

/// One object holding the members `fields` lists of `s`, in table order.
template <class S, std::size_t N>
void write_fields(std::ostream& os, int indent, const S& s,
                  const std::array<perf::CounterField<S>, N>& fields) {
  ObjWriter w(os, indent);
  for (const auto& f : fields) w.put(f.name, s.*f.member);
  w.close();
}

void write_cell(std::ostream& os, int indent, const ExportCell& cell) {
  const RunResult& r = cell.result;
  const perf::Counters& c = r.mean;
  ObjWriter w(os, indent);
  w.put("platform", cell.platform);
  w.put("query", cell.query);
  w.put("nproc", cell.nproc);
  w.put("trials", cell.trials);
  w.put("variant", cell.variant);
  w.boolean("check", cell.check);
  w.key("metrics");
  {
    ObjWriter m(os, indent + 2);
    for (const ExportedMetric& e : kExportedMetrics) m.put(e.name, r.*e.value);
    m.close();
  }
  if (cell.serving.has_value()) {
    w.key("serving");
    ObjWriter s(os, indent + 2);
    ServingStats::visit(*cell.serving,
                        [&s](const char* k, const auto& v, ServingDir) {
                          s.put(k, v);
                        });
    s.close();
  }
  if (r.sampled) {
    w.key("sample");
    {
      ObjWriter s(os, indent + 2);
      RunResult::visit_sample(r, [&s](const char* k, const auto& v) {
        s.put(k, v);
      });
      s.close();
    }
    w.key("metric_ci");
    {
      ObjWriter s(os, indent + 2);
      for (const ExportedMetric& e : kExportedMetrics) {
        if (e.ci != nullptr) s.put(e.name, r.*e.ci);
      }
      s.close();
    }
  }
  w.key("counters");
  write_fields(os, indent + 2, c, perf::kCounterFields);
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
      o.put("total", c.obj_misses[i]);
      o.put("comm", c.obj_comm_misses[i]);
      o.close();
    }
    m.close();
  }
  w.key("cpi_stack");
  write_fields(os, indent + 2, c.stack, perf::kCpiStackFields);
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
  w.put("schema_version", kMetricsSchemaVersion);
  w.put("bench", doc.bench);
  w.put("scale_denom", doc.scale_denom);
  w.put("seed", doc.seed);
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

/// A count member (a cell's nproc, a serving object's sessions, ...) is
/// read back into a u32, so it must be an integer that fits one.
void require_count(std::vector<std::string>& problems, const util::Json& obj,
                   const std::string& key, const std::string& ctx) {
  const util::Json* v = obj.get(key);
  if (v == nullptr) {
    problems.push_back(ctx + ": missing \"" + key + "\"");
  } else if (!v->is_number() || !(v->as_number() >= 0.0) ||
             v->as_number() > std::numeric_limits<u32>::max() ||
             v->as_number() != std::floor(v->as_number())) {
    problems.push_back(ctx + ": \"" + key +
                       "\" is not an integer in [0, 4294967295]");
  }
}

/// Checks an optional per-cell object against the visitor of the struct it
/// is written from (`visit(f)` calls `f(key, member, ...)` per member):
/// every visited key is present, a string member is a string, a u32 member
/// a count, and every other member, visited or not, a number.
template <class Visit>
void check_visited(std::vector<std::string>& problems, const util::Json& obj,
                   const std::string& ctx, Visit&& visit) {
  std::vector<std::string> strings;
  visit([&](const char* k, const auto& v, auto&&...) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, std::string>) {
      strings.emplace_back(k);
      get_typed(problems, obj, k, util::Json::Type::String, ctx);
    } else if constexpr (std::is_same_v<T, u32>) {
      require_count(problems, obj, k, ctx);
    } else if (obj.get(k) == nullptr) {
      problems.push_back(ctx + ": missing \"" + std::string(k) + "\"");
    }
  });
  for (const auto& [k, v] : obj.as_object()) {
    if (!v.is_number() &&
        std::find(strings.begin(), strings.end(), k) == strings.end()) {
      problems.push_back(ctx + ": \"" + k + "\" is not a number");
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
    require_count(problems, cell, "nproc", ctx);
    require_count(problems, cell, "trials", ctx);
    get_typed(problems, cell, "variant", util::Json::Type::String, ctx);
    if (cell.get("check") != nullptr) {
      get_typed(problems, cell, "check", util::Json::Type::Bool, ctx);
    }
    if (const util::Json* m = get_typed(problems, cell, "metrics",
                                        util::Json::Type::Object, ctx)) {
      check_all_numbers(problems, *m, ctx + ".metrics");
    }
    // Optional members: "serving" on serving cells (v4), "sample" and
    // "metric_ci" on sampled cells (v3). The first two must hold every
    // member their structs write, since a report prints them.
    const auto optional = [&](const char* key) {
      return cell.get(key) == nullptr
                 ? nullptr
                 : get_typed(problems, cell, key, util::Json::Type::Object,
                             ctx);
    };
    if (const util::Json* m = optional("serving")) {
      const ServingStats shape;
      check_visited(problems, *m, ctx + ".serving",
                    [&](auto&& f) { ServingStats::visit(shape, f); });
    }
    if (const util::Json* m = optional("sample")) {
      const RunResult shape;
      check_visited(problems, *m, ctx + ".sample",
                    [&](auto&& f) { RunResult::visit_sample(shape, f); });
    }
    if (const util::Json* m = optional("metric_ci")) {
      check_all_numbers(problems, *m, ctx + ".metric_ci");
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

/// True when `opts.only_metrics` lets `metric` through.
bool selected(const DiffOptions& opts, const std::string& metric) {
  return opts.only_metrics.empty() ||
         std::find(opts.only_metrics.begin(), opts.only_metrics.end(),
                   metric) != opts.only_metrics.end();
}

MetricDelta make_delta(const std::string& label, const std::string& metric,
                       const util::Json& before, const util::Json& after) {
  MetricDelta d;
  d.cell = label;
  d.metric = metric;
  d.before = before.as_number();
  d.after = after.as_number();
  if (d.before != 0.0) {
    d.rel = (d.after - d.before) / d.before;
  } else if (d.after != 0.0) {
    d.rel = std::numeric_limits<double>::infinity();
  }
  return d;
}

/// One comparison error per selected key of `in` that `other` lacks.
void report_one_sided(DiffReport& rep, const std::string& label,
                      const util::Json& in, const util::Json& other,
                      const std::string& prefix, const char* missing_from,
                      const DiffOptions& opts) {
  for (const auto& [key, v] : in.as_object()) {
    (void)v;
    const std::string metric = prefix + key;
    if (selected(opts, metric) && other.get(key) == nullptr) {
      rep.errors.push_back("cell " + label + ": metric " + metric +
                           " missing from the " + missing_from + " run");
    }
  }
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
  report_one_sided(rep, label, *as, *bs, "serving.", "after", opts);
  report_one_sided(rep, label, *bs, *as, "serving.", "before", opts);
  const ServingStats shape;
  for (const auto& [key, av] : as->as_object()) {
    const std::string metric = "serving." + key;
    const util::Json* bv = bs->get(key);
    if (!selected(opts, metric) || bv == nullptr) continue;
    if (av.is_string()) {
      if (av.as_string() != bv->as_string()) {
        rep.errors.push_back("cell " + label + ": " + metric + " differs (" +
                             av.as_string() + " vs " + bv->as_string() + ")");
      }
      continue;
    }
    ServingDir dir = ServingDir::kInfo;
    ServingStats::visit(shape, [&](const char* k, const auto&, ServingDir d) {
      if (key == k) dir = d;
    });
    MetricDelta d = make_delta(label, metric, av, *bv);
    if (dir == ServingDir::kHigherWorse) {
      d.regression = d.rel > opts.rel_threshold;
    } else if (dir == ServingDir::kLowerWorse) {
      d.regression = d.rel < -opts.rel_threshold;
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
    report_one_sided(rep, label, am, bm, "", "after", opts);
    report_one_sided(rep, label, bm, am, "", "before", opts);
    for (const auto& [metric, av] : am.as_object()) {
      const util::Json* bv = bm.get(metric);
      if (!selected(opts, metric) || bv == nullptr) continue;
      MetricDelta d = make_delta(label, metric, av, *bv);
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
