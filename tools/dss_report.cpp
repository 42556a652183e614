// dss_report — pretty-print and diff the JSON documents the bench binaries
// write via `--metrics` (schema: core/run_export.hpp).
//
//   dss_report run.json                    summarize one run
//   dss_report --check-schema run.json     validate only (exit 2 on problems)
//   dss_report before.json after.json      diff two runs; exit 1 when any
//                                          metric regressed past --threshold
//   dss_report --threshold 0.10 a.json b.json
//                                          (a finite number >= 0; anything
//                                          else is a usage error)
//   dss_report --ci-gate a.json b.json     CI-aware diff for sampled runs:
//                                          only metrics carrying a 95%
//                                          half-width ("metric_ci") gate,
//                                          and a regression must clear both
//                                          the combined CI and --threshold
//
// Exit codes: 0 clean, 1 regression past threshold, 2 usage/parse/schema
// error — so CI can gate on "1 means a metric got worse, 2 means the
// tooling is broken".
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/run_export.hpp"
#include "util/json.hpp"

namespace {

using dss::core::DiffOptions;
using dss::core::DiffReport;
using dss::core::MetricDelta;
using dss::util::Json;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threshold F] [--ci-gate] "
               "[--metric NAME]... [--check-schema] [--expect-regression] "
               "<run.json> [after.json]\n",
               argv0);
  return 2;
}

bool load(const std::string& path, Json& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dss_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    out = dss::util::json_parse(buf.str());
  } catch (const dss::util::JsonError& e) {
    std::fprintf(stderr, "dss_report: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

/// Schema-check one parsed document, printing problems. True when valid.
bool check(const std::string& path, const Json& doc) {
  const auto problems = dss::core::check_metrics_schema(doc);
  for (const auto& p : problems) {
    std::fprintf(stderr, "dss_report: %s: %s\n", path.c_str(), p.c_str());
  }
  return problems.empty();
}

/// A count member; the schema check has proven it an integer in u32 range.
unsigned count(const Json& v) { return static_cast<unsigned>(v.as_number()); }

void print_run(const Json& doc) {
  std::printf("bench: %s  (scale 1/%g, seed %g)\n",
              doc.get("bench")->as_string().c_str(),
              doc.get("scale_denom")->as_number(),
              doc.get("seed")->as_number());
  for (const Json& cell : doc.get("cells")->as_array()) {
    const std::string variant = cell.get("variant")->as_string();
    const Json* checked = cell.get("check");
    std::printf("\n%s %s nproc=%u trials=%u%s%s\n",
                cell.get("platform")->as_string().c_str(),
                cell.get("query")->as_string().c_str(),
                count(*cell.get("nproc")), count(*cell.get("trials")),
                variant.empty() ? "" : (" variant=" + variant).c_str(),
                checked != nullptr && checked->as_bool() ? " [checked]" : "");
    if (const Json* s = cell.get("sample")) {
      const double total = s->get("total_refs")->as_number();
      const double detailed = s->get("detailed_refs")->as_number();
      std::printf(
          "  sampled: N=%g K=%g W=%g, %g windows, %.3g of %.3g refs "
          "detailed (%.1fx fewer)\n",
          s->get("unit_records")->as_number(),
          s->get("detail_every")->as_number(),
          s->get("warmup_records")->as_number(),
          s->get("windows")->as_number(), detailed, total,
          detailed > 0 ? total / detailed : 0.0);
    }
    if (const Json* sv = cell.get("serving")) {
      std::printf(
          "  serving: %s arrival, %u sessions x %u queries on %u cpus\n",
          sv->get("arrival")->as_string().c_str(), count(*sv->get("sessions")),
          count(*sv->get("queries_per_session")), count(*sv->get("cpus")));
      if (sv->get("target_load")->as_number() > 0) {
        std::printf("  serving: target load %.2f (%.3g q/s offered)\n",
                    sv->get("target_load")->as_number(),
                    sv->get("offered_qps")->as_number());
      }
      std::printf(
          "  serving: %.6g QphH, mean concurrency %.2f "
          "(machine metrics at nproc=%u)\n",
          sv->get("achieved_qph")->as_number(),
          sv->get("mean_concurrency")->as_number(),
          count(*sv->get("metrics_nproc")));
      std::printf(
          "  serving: latency ms p50=%.4g p95=%.4g p99=%.4g mean=%.4g "
          "max=%.4g (queue p99=%.4g)\n",
          sv->get("p50_ms")->as_number(), sv->get("p95_ms")->as_number(),
          sv->get("p99_ms")->as_number(), sv->get("mean_ms")->as_number(),
          sv->get("max_ms")->as_number(),
          sv->get("queue_p99_ms")->as_number());
    }
    const Json& m = *cell.get("metrics");
    const Json* ci = cell.get("metric_ci");
    for (const auto& [k, v] : m.as_object()) {
      const Json* h = ci == nullptr ? nullptr : ci->get(k);
      if (h != nullptr && h->is_number()) {
        std::printf("  %-22s %.6g ±%.3g\n", k.c_str(), v.as_number(),
                    h->as_number());
      } else {
        std::printf("  %-22s %.6g\n", k.c_str(), v.as_number());
      }
    }
    if (const Json* causes = cell.get("miss_causes")) {
      for (const char* level : {"l1", "l2"}) {
        const Json& b = *causes->get(level);
        double total = 0;
        for (const auto& [k, v] : b.as_object()) total += v.as_number();
        if (total == 0) continue;
        std::printf("  %s miss causes:", level);
        for (const auto& [k, v] : b.as_object()) {
          if (v.as_number() > 0) {
            std::printf(" %s=%.1f%%", k.c_str(),
                        100.0 * v.as_number() / total);
          }
        }
        std::printf("\n");
      }
    }
    if (const Json* stack = cell.get("cpi_stack")) {
      double total = 0;
      for (const auto& [k, v] : stack->as_object()) total += v.as_number();
      if (total > 0) {
        std::printf("  cpi stack:");
        for (const auto& [k, v] : stack->as_object()) {
          if (v.as_number() > 0) {
            std::printf(" %s=%.1f%%", k.c_str(),
                        100.0 * v.as_number() / total);
          }
        }
        std::printf("\n");
      }
    }
  }
}

int print_diff(const DiffReport& rep, const DiffOptions& opts) {
  for (const auto& e : rep.errors) {
    std::fprintf(stderr, "dss_report: %s\n", e.c_str());
  }
  if (!rep.errors.empty()) return 2;

  std::size_t moved = 0;
  for (const MetricDelta& d : rep.deltas) {
    if (std::fabs(d.rel) <= opts.rel_threshold && !d.regression) continue;
    ++moved;
    // Under --ci-gate a big move in a metric with no CI is informational
    // (sampling legitimately shifts wall time), not an improvement claim.
    const char* tag = d.regression         ? "REGRESSION"
                      : opts.ci_gate       ? "info"
                                           : "improvement";
    if (d.combined_ci > 0.0) {
      std::printf("%-11s %s %s: %.6g -> %.6g (%+.1f%%, ci ±%.3g)\n", tag,
                  d.cell.c_str(), d.metric.c_str(), d.before, d.after,
                  100.0 * d.rel, d.combined_ci);
    } else {
      std::printf("%-11s %s %s: %.6g -> %.6g (%+.1f%%)\n", tag,
                  d.cell.c_str(), d.metric.c_str(), d.before, d.after,
                  100.0 * d.rel);
    }
  }
  std::printf("%zu metrics compared, %zu moved past threshold, "
              "%zu regressions\n",
              rep.deltas.size(), moved, rep.regressions().size());
  return rep.has_regressions() ? 1 : 0;
}

int run(int argc, char** argv) {
  DiffOptions opts;
  bool schema_only = false;
  bool expect_regression = false;  // for tests: invert the regression gate
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      const std::optional<double> t = dss::core::parse_nonneg(argv[++i]);
      if (!t) {
        std::fprintf(stderr, "dss_report: bad --threshold '%s'\n", argv[i]);
        return usage(argv[0]);
      }
      opts.rel_threshold = *t;
    } else if (std::strcmp(argv[i], "--ci-gate") == 0) {
      opts.ci_gate = true;
    } else if (std::strcmp(argv[i], "--metric") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      opts.only_metrics.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--check-schema") == 0) {
      schema_only = true;
    } else if (std::strcmp(argv[i], "--expect-regression") == 0) {
      expect_regression = true;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty() || files.size() > 2) return usage(argv[0]);

  std::vector<Json> docs(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!load(files[i], docs[i])) return 2;
    if (!check(files[i], docs[i])) return 2;
  }
  if (schema_only) {
    std::printf("%zu file%s ok\n", files.size(), files.size() == 1 ? "" : "s");
    return 0;
  }
  if (files.size() == 1) {
    print_run(docs[0]);
    return 0;
  }
  const int rc =
      print_diff(dss::core::diff_metrics(docs[0], docs[1], opts), opts);
  if (expect_regression) {
    if (rc == 2) return 2;  // tooling errors still fail the test
    return rc == 1 ? 0 : 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // The schema check guarantees every member the printers read; a document
  // that still surprises them is a parse error (exit 2), never a crash.
  try {
    return run(argc, argv);
  } catch (const dss::util::JsonError& e) {
    std::fprintf(stderr, "dss_report: malformed document: %s\n", e.what());
    return 2;
  }
}
