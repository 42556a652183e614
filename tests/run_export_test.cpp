// Unit tests for core/run_export: document writing, schema validation, and
// run-to-run diffing (the machinery behind `--metrics` and dss_report).
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "core/run_export.hpp"
#include "member_count.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dss::core {
namespace {

ExportCell make_cell(const std::string& query, double thread_time) {
  ExportCell c;
  c.platform = "V-Class";
  c.query = query;
  c.nproc = 4;
  c.trials = 2;
  c.result.thread_time_cycles = thread_time;
  c.result.cpi = 1.5;
  c.result.mean.cycles = static_cast<u64>(thread_time) * 4;
  c.result.mean.instructions = 1'000'000;
  c.result.mean.l1_miss_causes[perf::MissCause::kCold] = 100;
  c.result.mean.l1_miss_causes[perf::MissCause::kCohDirty] = 7;
  c.result.mean.obj_misses[static_cast<u32>(perf::ObjClass::kHeapPage)] = 90;
  c.result.mean.stack.compute = 1'000'000;
  c.result.mean.stack.mem_local = 2'000'000;
  return c;
}

MetricsDoc make_doc(double q6_time, double q21_time) {
  MetricsDoc doc;
  doc.bench = "unit_test";
  doc.scale_denom = 64;
  doc.seed = 7;
  doc.cells.push_back(make_cell("Q6", q6_time));
  doc.cells.push_back(make_cell("Q21", q21_time));
  return doc;
}

util::Json round_trip(const MetricsDoc& doc) {
  std::ostringstream os;
  write_metrics_json(os, doc);
  return util::json_parse(os.str());
}

TEST(RunExport, WrittenDocumentPassesSchemaCheck) {
  const util::Json doc = round_trip(make_doc(1e6, 2e6));
  EXPECT_TRUE(check_metrics_schema(doc).empty());
  EXPECT_DOUBLE_EQ(doc.get("schema_version")->as_number(),
                   double(kMetricsSchemaVersion));
  EXPECT_EQ(doc.get("bench")->as_string(), "unit_test");
  ASSERT_EQ(doc.get("cells")->as_array().size(), 2u);
  const util::Json& cell = doc.get("cells")->as_array()[0];
  EXPECT_EQ(cell.get("query")->as_string(), "Q6");
  EXPECT_DOUBLE_EQ(
      cell.get("metrics")->get("thread_time_cycles")->as_number(), 1e6);
  EXPECT_DOUBLE_EQ(
      cell.get("miss_causes")->get("l1")->get("cold")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(
      cell.get("miss_causes")->get("l1")->get("coh_dirty")->as_number(), 7.0);
  EXPECT_DOUBLE_EQ(
      cell.get("obj_misses")->get("heap_page")->get("total")->as_number(),
      90.0);
  EXPECT_DOUBLE_EQ(cell.get("cpi_stack")->get("compute")->as_number(), 1e6);
}

TEST(RunExport, WrittenDocumentIsV5WithoutHostRate) {
  // Host wall-clock never enters the document: schema v5 dropped the old
  // host-timed replay rate, so no cell carries the key.
  const util::Json doc = round_trip(make_doc(1e6, 2e6));
  EXPECT_DOUBLE_EQ(doc.get("schema_version")->as_number(), 5.0);
  for (const util::Json& cell : doc.get("cells")->as_array()) {
    EXPECT_EQ(cell.get("metrics")->get("refs_per_sec"), nullptr);
  }
}

TEST(RunExport, SchemaCheckRejectsV4Document) {
  std::ostringstream os;
  write_metrics_json(os, make_doc(1e6, 2e6));
  std::string text = os.str();
  const std::string v5 = "\"schema_version\": 5";
  const std::size_t at = text.find(v5);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, v5.size(), "\"schema_version\": 4");
  const auto problems = check_metrics_schema(util::json_parse(text));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0].rfind("unsupported schema_version", 0), 0u)
      << problems[0];
}

TEST(RunExport, EmptyDocumentStillValidates) {
  MetricsDoc doc;
  doc.bench = "empty";
  EXPECT_TRUE(check_metrics_schema(round_trip(doc)).empty());
}

TEST(RunExport, EscapesBenchName) {
  MetricsDoc doc;
  doc.bench = "weird\"name\nwith\\stuff";
  const util::Json parsed = round_trip(doc);
  EXPECT_EQ(parsed.get("bench")->as_string(), doc.bench);
}

TEST(RunExport, SchemaCheckRejectsWrongVersionAndShapes) {
  EXPECT_FALSE(
      check_metrics_schema(util::json_parse("{\"schema_version\": 99}"))
          .empty());
  EXPECT_FALSE(check_metrics_schema(util::json_parse("[1, 2]")).empty());
  // A cell missing its metrics object is reported, not crashed on.
  const auto problems = check_metrics_schema(util::json_parse(
      R"({"schema_version": 5, "bench": "x", "scale_denom": 16, "seed": 1,
          "cells": [{"platform": "V-Class", "query": "Q6", "nproc": 1,
                     "trials": 1, "variant": ""}]})"));
  EXPECT_FALSE(problems.empty());
}

TEST(RunExport, SchemaCheckRequiresWhatTheReportReads) {
  // Each cell passed the check when it only typed the members present, and
  // dss_report then crashed printing it (SIGABRT on the non-bool "check",
  // SIGSEGV on the members missing from "sample" and "serving").
  const std::string head =
      R"({"schema_version": 5, "bench": "x", "scale_denom": 16, "seed": 1,
          "cells": [{"platform": "V-Class", "query": "Q6", "nproc": 1,
                     "trials": 1, "variant": "", "metrics": {},
                     "counters": {}, "miss_causes": {"l1": {}, "l2": {}},
                     "obj_misses": {}, "cpi_stack": {}, )";
  for (const std::string extra : {R"("check": 1)", R"("sample": {})",
                                   R"("serving": {"arrival": "open"})"}) {
    SCOPED_TRACE(extra);
    EXPECT_FALSE(
        check_metrics_schema(util::json_parse(head + extra + "}]}")).empty());
  }
  EXPECT_TRUE(
      check_metrics_schema(util::json_parse(head + R"("check": true}]})"))
          .empty());
}

TEST(RunExport, SelfDiffHasNoRegressions) {
  const util::Json doc = round_trip(make_doc(1e6, 2e6));
  const DiffReport rep = diff_metrics(doc, doc);
  EXPECT_TRUE(rep.errors.empty());
  EXPECT_FALSE(rep.has_regressions());
  EXPECT_FALSE(rep.deltas.empty());
  for (const auto& d : rep.deltas) EXPECT_DOUBLE_EQ(d.rel, 0.0);
}

TEST(RunExport, DetectsRegressionPastThreshold) {
  const util::Json before = round_trip(make_doc(1e6, 2e6));
  const util::Json after = round_trip(make_doc(1.2e6, 2e6));  // Q6 +20%
  const DiffReport rep = diff_metrics(before, after);
  EXPECT_TRUE(rep.errors.empty());
  ASSERT_TRUE(rep.has_regressions());
  const auto regs = rep.regressions();
  for (const auto& d : regs) {
    EXPECT_EQ(d.cell, "V-Class/Q6/4");
    EXPECT_GT(d.rel, 0.05);
  }
}

TEST(RunExport, ThresholdGatesRegression) {
  const util::Json before = round_trip(make_doc(1e6, 2e6));
  const util::Json after = round_trip(make_doc(1.2e6, 2e6));
  DiffOptions opts;
  opts.rel_threshold = 0.25;  // 20% movement stays under a 25% gate
  EXPECT_FALSE(diff_metrics(before, after, opts).has_regressions());
}

TEST(RunExport, ImprovementIsNotARegression) {
  const util::Json before = round_trip(make_doc(1e6, 2e6));
  const util::Json after = round_trip(make_doc(0.5e6, 2e6));
  const DiffReport rep = diff_metrics(before, after);
  EXPECT_TRUE(rep.errors.empty());
  EXPECT_FALSE(rep.has_regressions());
}

TEST(RunExport, MismatchedCellsReportErrors) {
  MetricsDoc a = make_doc(1e6, 2e6);
  MetricsDoc b = make_doc(1e6, 2e6);
  b.cells[1].query = "Q12";  // Q21 vanished, Q12 appeared
  const DiffReport rep = diff_metrics(round_trip(a), round_trip(b));
  EXPECT_EQ(rep.errors.size(), 2u);
}

TEST(RunExport, DuplicateCellLabelIsAnError) {
  // Cells are matched by label; a second cell under one label would be
  // dropped from the comparison, so the diff refuses the document.
  MetricsDoc a = make_doc(1e6, 2e6);
  MetricsDoc b = make_doc(1e6, 2e6);
  b.cells.push_back(b.cells[0]);
  const DiffReport rep = diff_metrics(round_trip(a), round_trip(b));
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_EQ(rep.errors[0], "after: duplicate cell V-Class/Q6/4");
  EXPECT_TRUE(rep.deltas.empty());
}

TEST(RunExport, SampledCellRoundTripsWithCiObjects) {
  MetricsDoc doc = make_doc(1e6, 2e6);
  ExportCell& c = doc.cells[0];
  c.result.sampled = true;
  c.result.sample_unit_records = 500;
  c.result.sample_detail_every = 40;
  c.result.sample_warmup_records = 500;
  c.result.sample_total_refs = 200'000;
  c.result.sample_detailed_refs = 10'000;
  c.result.sample_measured_refs = 5'000;
  c.result.sample_windows = 10;
  c.result.ci_cpi = 0.02;
  c.result.ci_avg_mem_latency = 1.5;

  const util::Json j = round_trip(doc);
  EXPECT_TRUE(check_metrics_schema(j).empty());
  const util::Json& cell = j.get("cells")->as_array()[0];
  ASSERT_NE(cell.get("sample"), nullptr);
  EXPECT_DOUBLE_EQ(cell.get("sample")->get("detail_every")->as_number(), 40.0);
  EXPECT_DOUBLE_EQ(cell.get("sample")->get("total_refs")->as_number(), 2e5);
  ASSERT_NE(cell.get("metric_ci"), nullptr);
  EXPECT_DOUBLE_EQ(cell.get("metric_ci")->get("cpi")->as_number(), 0.02);
  // The full-detail cell has neither object.
  EXPECT_EQ(j.get("cells")->as_array()[1].get("sample"), nullptr);
  EXPECT_EQ(j.get("cells")->as_array()[1].get("metric_ci"), nullptr);
}

TEST(RunExport, MetricMissingFromAfterIsAnError) {
  // Every metric is a simulated number present in every v5 document, so a
  // metric vanishing between two runs is a comparison error, not a delta.
  const auto doc = [](const std::string& metrics) {
    return util::json_parse(
        R"({"schema_version": 5, "bench": "x", "scale_denom": 64,
            "seed": 7, "cells": [{
              "platform": "V-Class", "query": "Q6", "nproc": 4, "trials": 1,
              "variant": "", "metrics": {)" +
        metrics +
        R"(}, "counters": {}, "miss_causes": {"l1": {}, "l2": {}},
              "obj_misses": {}, "cpi_stack": {}}]})");
  };
  const DiffReport rep = diff_metrics(doc(R"("cpi": 1.5)"), doc(""), {});
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_EQ(rep.errors[0], "cell V-Class/Q6/4: metric cpi missing from the "
                           "after run");
  EXPECT_TRUE(rep.deltas.empty());
}

TEST(RunExport, MetricMissingFromBeforeIsAnError) {
  // The symmetric case: a metric only the after run has is not silently
  // skipped, and the shared metrics are still compared.
  const auto doc = [](const std::string& metrics) {
    return util::json_parse(
        R"({"schema_version": 5, "bench": "x", "scale_denom": 64,
            "seed": 7, "cells": [{
              "platform": "V-Class", "query": "Q6", "nproc": 4, "trials": 1,
              "variant": "", "metrics": {)" +
        metrics +
        R"(}, "counters": {}, "miss_causes": {"l1": {}, "l2": {}},
              "obj_misses": {}, "cpi_stack": {}}]})");
  };
  const DiffReport rep = diff_metrics(doc(R"("cpi": 1.5)"),
                                      doc(R"("cpi": 1.5, "wall_seconds": 2)"),
                                      {});
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_EQ(rep.errors[0], "cell V-Class/Q6/4: metric wall_seconds missing "
                           "from the before run");
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_EQ(rep.deltas[0].metric, "cpi");
  // A --metric filter that excludes the key excludes its error too.
  DiffOptions opts;
  opts.only_metrics = {"cpi"};
  EXPECT_TRUE(diff_metrics(doc(R"("cpi": 1.5)"),
                           doc(R"("cpi": 1.5, "wall_seconds": 2)"), opts)
                  .errors.empty());
}

TEST(RunExport, SchemaCheckRequiresIntegerCounts) {
  // Count members are read back into u32s: 1e300 passed the check and
  // printed as nproc=-2147483648 through an out-of-range cast.
  const auto cell = [](const std::string& nproc, const std::string& trials) {
    return util::json_parse(
        R"({"schema_version": 5, "bench": "x", "scale_denom": 16, "seed": 1,
            "cells": [{"platform": "V-Class", "query": "Q6", "nproc": )" +
        nproc + R"(, "trials": )" + trials +
        R"(, "variant": "", "metrics": {}, "counters": {},
              "miss_causes": {"l1": {}, "l2": {}}, "obj_misses": {},
              "cpi_stack": {}}]})");
  };
  EXPECT_TRUE(check_metrics_schema(cell("4", "2")).empty());
  EXPECT_TRUE(check_metrics_schema(cell("4294967295", "0")).empty());
  for (const char* bad : {"1e300", "-1", "1.5", "4294967296", "\"4\""}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(check_metrics_schema(cell(bad, "1")).size(), 1u);
    EXPECT_EQ(check_metrics_schema(cell("1", bad)).size(), 1u);
  }
}

ExportCell make_serving_cell(double p99, double qph) {
  ExportCell c = make_cell("Q6", 1e6);
  c.variant = "serve:open:load=0.80";
  ServingStats s;
  s.arrival = "open";
  s.sessions = 64;
  s.cpus = 8;
  s.queries_per_session = 1;
  s.queries = 64;
  s.target_load = 0.8;
  s.offered_qps = 25.0;
  s.achieved_qph = qph;
  s.mean_concurrency = 5.5;
  s.p50_ms = 80.0;
  s.p95_ms = p99 * 0.9;
  s.p99_ms = p99;
  s.mean_ms = 85.0;
  s.max_ms = p99 * 1.1;
  s.queue_p99_ms = 12.0;
  s.max_queue_depth = 4;
  s.metrics_nproc = 8;
  c.serving = s;
  return c;
}

MetricsDoc make_serving_doc(double p99, double qph) {
  MetricsDoc doc;
  doc.bench = "serving_test";
  doc.cells.push_back(make_serving_cell(p99, qph));
  return doc;
}

TEST(RunExport, ServingCellRoundTripsAndValidates) {
  const util::Json j = round_trip(make_serving_doc(120.0, 50'000.0));
  EXPECT_TRUE(check_metrics_schema(j).empty());
  const util::Json& cell = j.get("cells")->as_array()[0];
  const util::Json* sv = cell.get("serving");
  ASSERT_NE(sv, nullptr);
  EXPECT_EQ(sv->get("arrival")->as_string(), "open");
  EXPECT_DOUBLE_EQ(sv->get("p99_ms")->as_number(), 120.0);
  EXPECT_DOUBLE_EQ(sv->get("achieved_qph")->as_number(), 50'000.0);
  EXPECT_DOUBLE_EQ(sv->get("sessions")->as_number(), 64.0);
  // A non-serving cell has no serving object.
  const util::Json plain = round_trip(make_doc(1e6, 2e6));
  EXPECT_EQ(plain.get("cells")->as_array()[0].get("serving"), nullptr);
  // A serving object with a non-numeric metric is rejected.
  const auto problems = check_metrics_schema(util::json_parse(
      R"({"schema_version": 5, "bench": "x", "scale_denom": 16, "seed": 1,
          "cells": [{"platform": "V-Class", "query": "Q6", "nproc": 1,
                     "trials": 1, "variant": "", "metrics": {},
                     "serving": {"arrival": "open", "p99_ms": "slow"},
                     "counters": {}, "miss_causes": {"l1": {}, "l2": {}},
                     "obj_misses": {}, "cpi_stack": {}}]})"));
  EXPECT_FALSE(problems.empty());
}

TEST(RunExport, ServingP99RegressionGates) {
  const util::Json before = round_trip(make_serving_doc(100.0, 50'000.0));
  const util::Json worse = round_trip(make_serving_doc(120.0, 50'000.0));
  const DiffReport rep = diff_metrics(before, worse, {});
  EXPECT_TRUE(rep.errors.empty());
  ASSERT_TRUE(rep.has_regressions());
  bool saw_p99 = false;
  for (const MetricDelta& d : rep.regressions()) {
    if (d.metric == "serving.p99_ms") saw_p99 = true;
    EXPECT_TRUE(d.metric.rfind("serving.", 0) == 0) << d.metric;
  }
  EXPECT_TRUE(saw_p99);
  // The reverse direction is an improvement, not a regression.
  EXPECT_FALSE(diff_metrics(worse, before, {}).has_regressions());
}

TEST(RunExport, ServingThroughputDropGates) {
  const util::Json before = round_trip(make_serving_doc(100.0, 50'000.0));
  const util::Json slower = round_trip(make_serving_doc(100.0, 40'000.0));
  const DiffReport rep = diff_metrics(before, slower, {});
  ASSERT_TRUE(rep.has_regressions());
  EXPECT_EQ(rep.regressions()[0].metric, "serving.achieved_qph");
  // More throughput is fine.
  EXPECT_FALSE(diff_metrics(slower, before, {}).has_regressions());
}

TEST(RunExport, ServingGatesUnderCiGateAndMetricFilter) {
  // Serving numbers are exact, so --ci-gate (which mutes CI-less machine
  // metrics) still gates them; --metric serving.p99_ms narrows the diff to
  // exactly that key. This is the CI smoke job's configuration.
  const util::Json before = round_trip(make_serving_doc(100.0, 50'000.0));
  const util::Json worse = round_trip(make_serving_doc(120.0, 50'000.0));
  DiffOptions opts;
  opts.ci_gate = true;
  opts.only_metrics = {"serving.p99_ms"};
  const DiffReport rep = diff_metrics(before, worse, opts);
  EXPECT_TRUE(rep.errors.empty());
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_EQ(rep.deltas[0].metric, "serving.p99_ms");
  EXPECT_TRUE(rep.deltas[0].regression);
}

TEST(RunExport, ServingCountsMustBeIntegers) {
  MetricsDoc doc = make_serving_doc(100.0, 50'000.0);
  std::ostringstream os;
  write_metrics_json(os, doc);
  const std::string text = os.str();
  for (const char* key :
       {"sessions", "queries_per_session", "cpus", "metrics_nproc"}) {
    SCOPED_TRACE(key);
    const std::string k = "\"" + std::string(key) + "\": ";
    const std::size_t at = text.find(k);
    ASSERT_NE(at, std::string::npos);
    std::string bad = text;
    bad.insert(at + k.size(), "-");
    EXPECT_EQ(check_metrics_schema(util::json_parse(bad)).size(), 1u);
  }
}

TEST(RunExport, ServingKeyInOneRunOnlyIsAnError) {
  // The schema requires every key ServingStats writes, so a one-sided key
  // is one the writer does not know (a newer build's, say). A diff in
  // either direction reports it instead of comparing the shared keys and
  // exiting clean.
  std::ostringstream os;
  write_metrics_json(os, make_serving_doc(100.0, 50'000.0));
  const std::string text = os.str();
  std::string extra = text;
  const std::string head = "\"serving\": {";
  const std::size_t at = extra.find(head);
  ASSERT_NE(at, std::string::npos);
  extra.insert(at + head.size(), "\"spare_ms\": 1, ");
  const util::Json plain = util::json_parse(text);
  const util::Json more = util::json_parse(extra);
  ASSERT_TRUE(check_metrics_schema(more).empty());
  for (const bool extra_after : {true, false}) {
    SCOPED_TRACE(extra_after);
    const DiffReport rep = extra_after ? diff_metrics(plain, more, {})
                                       : diff_metrics(more, plain, {});
    ASSERT_EQ(rep.errors.size(), 1u);
    EXPECT_EQ(rep.errors[0],
              std::string("cell V-Class/Q6/4/serve:open:load=0.80: metric "
                          "serving.spare_ms missing from the ") +
                  (extra_after ? "before" : "after") + " run");
    EXPECT_FALSE(rep.deltas.empty());
  }
}

TEST(RunExport, ServingArrivalModeMismatchIsAnError) {
  MetricsDoc closed = make_serving_doc(100.0, 50'000.0);
  closed.cells[0].serving->arrival = "closed";
  const DiffReport rep =
      diff_metrics(round_trip(make_serving_doc(100.0, 50'000.0)),
                   round_trip(closed), {});
  EXPECT_FALSE(rep.errors.empty());
}

TEST(RunExport, CiGateUsesCombinedHalfWidths) {
  MetricsDoc before = make_doc(1e6, 2e6);   // cpi 1.5 everywhere
  MetricsDoc after = make_doc(1e6, 2e6);
  after.cells[0].result.cpi = 1.6;          // +6.7%
  after.cells[0].result.sampled = true;
  after.cells[0].result.ci_cpi = 0.2;       // CI covers the move
  after.cells[1].result.cpi = 1.9;          // +26.7%
  after.cells[1].result.sampled = true;
  after.cells[1].result.ci_cpi = 0.05;      // CI does not

  DiffOptions opts;
  opts.ci_gate = true;
  opts.rel_threshold = 0.03;
  const DiffReport rep =
      diff_metrics(round_trip(before), round_trip(after), opts);
  EXPECT_TRUE(rep.errors.empty());
  int regressions = 0;
  for (const MetricDelta& d : rep.deltas) {
    if (d.metric != "cpi") {
      // Metrics without a CI never gate in ci-gate mode.
      EXPECT_FALSE(d.regression) << d.cell << " " << d.metric;
      continue;
    }
    if (d.cell.find("Q21") != std::string::npos) {
      EXPECT_TRUE(d.regression);
      EXPECT_DOUBLE_EQ(d.combined_ci, 0.05);
      ++regressions;
    } else {
      EXPECT_FALSE(d.regression);
    }
  }
  EXPECT_EQ(regressions, 1);
  EXPECT_TRUE(rep.has_regressions());
}

TEST(RunExport, OnlyMetricsFiltersComparison) {
  const util::Json a = round_trip(make_doc(1e6, 2e6));
  const util::Json b = round_trip(make_doc(3e6, 2e6));  // big move
  DiffOptions opts;
  opts.only_metrics = {"cpi"};
  const DiffReport rep = diff_metrics(a, b, opts);
  EXPECT_TRUE(rep.errors.empty());
  EXPECT_FALSE(rep.has_regressions());
  for (const MetricDelta& d : rep.deltas) EXPECT_EQ(d.metric, "cpi");
  EXPECT_EQ(rep.deltas.size(), 2u);  // one cpi entry per cell
}

TEST(RunExport, VariantDistinguishesCells) {
  MetricsDoc a = make_doc(1e6, 2e6);
  MetricsDoc b = make_doc(1e6, 2e6);
  b.cells[0].variant = "machine_override";
  const DiffReport rep = diff_metrics(round_trip(a), round_trip(b));
  EXPECT_FALSE(rep.errors.empty());
}

TEST(RunExport, ExportCellLabelsEachCellByOneRule) {
  // The variant is the config's own label, else the names of its
  // overrides; a run_mix process is "mix[i]" and reports its own query.
  ExperimentConfig cfg;
  cfg.platform = perf::Platform::Origin2000;
  cfg.query = tpch::QueryId::Q21;
  cfg.nproc = 2;
  cfg.trials = 3;
  cfg.check = true;
  RunResult r;
  r.cpi = 1.25;
  r.query_result.push_back({});
  const ExportCell plain = export_cell(cfg, r);
  EXPECT_EQ(plain.platform, perf::platform_name(cfg.platform));
  EXPECT_EQ(plain.query, "Q21");
  EXPECT_EQ(plain.nproc, 2u);
  EXPECT_EQ(plain.trials, 3u);
  EXPECT_TRUE(plain.check);
  EXPECT_EQ(plain.variant, "");
  EXPECT_EQ(plain.result.cpi, 1.25);
  EXPECT_TRUE(plain.result.query_result.empty());

  ExperimentConfig both = cfg;
  both.machine_override = sim::MachineConfig{};
  both.spin_override = db::SpinPolicy{};
  EXPECT_EQ(export_cell(both, r).variant, "machine_override+spin_override");
  both.variant = "l2=1 MiB";
  EXPECT_EQ(export_cell(both, r).variant, "l2=1 MiB");

  const std::vector mix{tpch::QueryId::Q6, tpch::QueryId::Q12};
  const std::vector<ExportCell> cells =
      export_mix(both, mix, std::vector<RunResult>(2, r));
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].query, "Q6");
  EXPECT_EQ(cells[0].variant, "mix[0]");
  EXPECT_EQ(cells[1].query, "Q12");
  EXPECT_EQ(cells[1].variant, "mix[1]");
  EXPECT_EQ(cells[1].nproc, 2u);
}

TEST(RunExport, ExportTablesCoverTheirStructs) {
  // Every RunResult member is an exported metric, a CI, a "sample" member,
  // or one of the three written otherwise: the counters (their own
  // tables), the query result (not exported) and the sampled flag.
  const RunResult r;
  std::set<std::size_t> offsets;
  std::set<std::string> names;
  std::size_t listed = 0;
  const auto add = [&](const auto& m) {
    offsets.insert(testing::offset_in(r, m));
    ++listed;
  };
  for (const ExportedMetric& e : kExportedMetrics) {
    names.insert(e.name);
    add(r.*e.value);
    if (e.ci != nullptr) add(r.*e.ci);
  }
  EXPECT_EQ(names.size(), kExportedMetrics.size());
  names.clear();
  RunResult::visit_sample(r, [&](const char* k, const auto& m) {
    names.insert(k);
    add(m);
  });
  EXPECT_EQ(names.size(), 7u);
  EXPECT_EQ(offsets.size(), listed);
  EXPECT_EQ(listed + 3, testing::member_count<RunResult>());

  const ServingStats s;
  offsets.clear();
  names.clear();
  ServingStats::visit(s, [&](const char* k, const auto& m, ServingDir) {
    offsets.insert(testing::offset_in(s, m));
    names.insert(k);
  });
  EXPECT_EQ(offsets.size(), testing::member_count<ServingStats>());
  EXPECT_EQ(names.size(), offsets.size());
}

TEST(RunExport, EveryFieldRoundTripsUnderItsOwnName) {
  // Distinct values in every exported field, so a value found under a key
  // can only have been written from that key's member.
  ExportCell c = make_cell("Q6", 1e6);
  RunResult& r = c.result;
  u64 n = 1;
  for (const auto& f : perf::kCounterFields) r.mean.*f.member = n++;
  for (const auto& f : perf::kCpiStackFields) r.mean.stack.*f.member = n++;
  for (const ExportedMetric& e : kExportedMetrics) {
    r.*e.value = static_cast<double>(n++) + 0.5;
    if (e.ci != nullptr) r.*e.ci = static_cast<double>(n++) + 0.25;
  }
  r.sampled = true;
  RunResult::visit_sample(r, [&n](const char*, auto& m) {
    m = static_cast<std::decay_t<decltype(m)>>(n++);
  });
  ServingStats sv;
  ServingStats::visit(sv, [&n](const char*, auto& m, ServingDir) {
    using T = std::decay_t<decltype(m)>;
    if constexpr (std::is_same_v<T, std::string>) {
      m = "open";
    } else {
      m = static_cast<T>(n++);
    }
  });
  c.serving = sv;
  MetricsDoc doc;
  doc.bench = "fields";
  doc.cells.push_back(c);

  const util::Json j = round_trip(doc);
  ASSERT_TRUE(check_metrics_schema(j).empty());
  const util::Json& cell = j.get("cells")->as_array()[0];
  const auto number = [&cell](const char* obj, const char* key) {
    const util::Json* v = cell.get(obj)->get(key);
    EXPECT_NE(v, nullptr) << obj << "." << key;
    return v == nullptr ? -1.0 : v->as_number();
  };
  for (const auto& f : perf::kCounterFields) {
    EXPECT_EQ(number("counters", f.name), double(r.mean.*f.member));
  }
  for (const auto& f : perf::kCpiStackFields) {
    EXPECT_EQ(number("cpi_stack", f.name), double(r.mean.stack.*f.member));
  }
  std::size_t cis = 0;
  for (const ExportedMetric& e : kExportedMetrics) {
    EXPECT_EQ(number("metrics", e.name), r.*e.value);
    if (e.ci != nullptr) {
      EXPECT_EQ(number("metric_ci", e.name), r.*e.ci);
      ++cis;
    }
  }
  RunResult::visit_sample(r, [&](const char* k, const auto& m) {
    EXPECT_EQ(number("sample", k), double(m));
  });
  ServingStats::visit(sv, [&](const char* k, const auto& m, ServingDir) {
    if constexpr (std::is_same_v<std::decay_t<decltype(m)>, std::string>) {
      EXPECT_EQ(cell.get("serving")->get(k)->as_string(), m);
    } else {
      EXPECT_EQ(number("serving", k), double(m));
    }
  });
  // Nothing is written that the tables do not list.
  EXPECT_EQ(cell.get("counters")->as_object().size(),
            perf::kCounterFields.size());
  EXPECT_EQ(cell.get("cpi_stack")->as_object().size(),
            perf::kCpiStackFields.size());
  EXPECT_EQ(cell.get("metrics")->as_object().size(), kExportedMetrics.size());
  EXPECT_EQ(cell.get("metric_ci")->as_object().size(), cis);
  EXPECT_EQ(cell.get("sample")->as_object().size(), 7u);
  EXPECT_EQ(cell.get("serving")->as_object().size(),
            testing::member_count<ServingStats>());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Removes the object member whose key's opening quote is at `at`: the key,
/// its value (a scalar, or a bracketed value through its closing bracket)
/// and a comma after it.
void erase_member(std::string& t, std::size_t at) {
  std::size_t i = t.find(':', at + 1);
  if (i == std::string::npos) return;
  ++i;
  while (i < t.size() && t[i] == ' ') ++i;
  int depth = 0;
  bool in_string = false;
  for (; i < t.size(); ++i) {
    const char ch = t[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      if (depth == 0) break;
      if (--depth == 0) {
        ++i;
        break;
      }
    } else if (ch == ',' && depth == 0) {
      break;
    }
  }
  if (i < t.size() && t[i] == ',') ++i;
  t.erase(at, i - at);
}

/// One mutant of `text`: a flipped bit, a truncation, an inserted digit or
/// a deleted object member.
std::string mutate(const std::string& text, Rng& rng) {
  std::string t = text;
  const auto pos = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  switch (rng.next() % 4) {
    case 0:
      t[pos(t.size())] ^= static_cast<char>(1u << (rng.next() % 8));
      break;
    case 1:
      t.resize(pos(t.size()));
      break;
    case 2: {
      // 1 to 24 digits next to an existing digit, so a number grows, up to
      // past 2^64 (a count of 4 becoming 40 or 4e23).
      std::size_t at = pos(t.size());
      const std::size_t d = t.find_first_of("0123456789", at);
      if (d != std::string::npos) at = d;
      const std::size_t n = 1 + rng.next() % 24;
      for (std::size_t i = 0; i < n; ++i) {
        t.insert(at, 1, static_cast<char>('0' + rng.next() % 10));
      }
      break;
    }
    default: {
      const std::size_t colon = t.find("\":", pos(t.size()));
      if (colon == std::string::npos || colon == 0) break;
      const std::size_t open = t.rfind('"', colon - 1);
      if (open != std::string::npos) erase_member(t, open);
      break;
    }
  }
  return t;
}

bool fits_u32(const util::Json* v) {
  return v != nullptr && v->is_number() && v->as_number() >= 0.0 &&
         v->as_number() <= 4294967295.0 &&
         v->as_number() == static_cast<double>(static_cast<u64>(v->as_number()));
}

/// A written document cut to its header and first two cells (the writer's
/// layout: cells at indent 4), so a sanitizer build parses a few KiB per
/// mutant rather than a whole golden; other documents unchanged.
std::string first_cells(const std::string& text) {
  const std::string sep = "\n    },\n    {";
  std::size_t at = text.find(sep);
  if (at != std::string::npos) at = text.find(sep, at + sep.size());
  if (at == std::string::npos) return text;
  return text.substr(0, at) + "\n    }\n  ]\n}\n";
}

TEST(RunExport, MutantsOfCommittedDocumentsFailCleanly) {
  // Each committed document (its first two cells), mutated 1000 ways with
  // a fixed seed: every mutant is a parse error, a schema problem, a diff
  // error, or a clean diff against the original. Anything else (a throw
  // past the schema check, a sanitizer report) fails the test.
  const std::string root = DSS_SOURCE_DIR;
  const char* files[] = {
      "tests/data/golden_fig3_scale256.json",
      "tests/data/golden_fig6_scale256.json",
      "tests/data/golden_ext_mixed_sampled_scale256.json",
      "tests/data/golden_refstream_full.json",
      "tests/data/golden_refstream_sampled.json",
      "bench/BENCH_serving.json",
      "tests/data/metrics_before.json",
      "tests/data/metrics_after_regressed.json",
      "tests/data/metrics_bad_check.json",
      "tests/data/metrics_bad_count.json",
      "tests/data/metrics_bad_sample.json",
      "tests/data/metrics_bad_serving.json",
  };
  Rng rng(20241019);
  for (const char* file : files) {
    SCOPED_TRACE(file);
    const std::string text = first_cells(read_file(root + "/" + file));
    ASSERT_FALSE(text.empty());
    const util::Json original = util::json_parse(text);
    ASSERT_LE(original.get("cells")->as_array().size(), 2u);
    std::size_t parsed = 0;
    std::size_t clean = 0;
    for (int i = 0; i < 1000; ++i) {
      const std::string m = mutate(text, rng);
      util::Json doc;
      try {
        doc = util::json_parse(m);
      } catch (const util::JsonError&) {
        continue;
      }
      ++parsed;
      const bool valid = check_metrics_schema(doc).empty();
      const DiffReport rep = diff_metrics(doc, original);
      if (!valid) {
        EXPECT_FALSE(rep.errors.empty()) << m;
      } else {
        // Readers cast the counts to integers; a valid document's must fit
        // (an out-of-range float-to-int cast is undefined behaviour that
        // -fsanitize=undefined does not report).
        for (const util::Json& cell : doc.get("cells")->as_array()) {
          EXPECT_TRUE(fits_u32(cell.get("nproc"))) << m;
          EXPECT_TRUE(fits_u32(cell.get("trials"))) << m;
        }
      }
      if (rep.errors.empty()) ++clean;
    }
    // The mutants reach past the parser, where some are rejected and (for
    // a valid original) some diff clean.
    EXPECT_GT(parsed, clean);
    if (check_metrics_schema(original).empty()) {
      EXPECT_GT(clean, 0u);
    }
  }
}

}  // namespace
}  // namespace dss::core
