// Unit tests for tools/dss_lint: lexer shape, model extraction, rule
// behavior, suppression accounting, and the JSON report.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dss_lint/analyzer.hpp"
#include "dss_lint/lexer.hpp"
#include "dss_lint/model.hpp"
#include "dss_lint/rules.hpp"

namespace dss::lint {
namespace {

FileModel mk(const char* path, const std::string& src) {
  return build_model(path, lex(src));
}

AnalysisResult run(const std::vector<FileModel>& files,
                   const AnalysisOptions& opts = {}) {
  return analyze(files, opts);
}

std::vector<std::string> rules_of(const AnalysisResult& r) {
  std::vector<std::string> out;
  out.reserve(r.findings.size());
  for (const Finding& f : r.findings) out.push_back(f.rule);
  return out;
}

TEST(Lexer, TokensCommentsIncludes) {
  const LexedFile lf = lex(
      "#include \"util/types.hpp\"\n"
      "#include <vector>\n"
      "// a note\n"
      "int x = 42; /* block */\n");
  ASSERT_EQ(lf.includes.size(), 2u);
  EXPECT_EQ(lf.includes[0].target, "util/types.hpp");
  EXPECT_TRUE(lf.includes[0].quoted);
  EXPECT_FALSE(lf.includes[1].quoted);
  ASSERT_EQ(lf.comments.size(), 2u);
  EXPECT_EQ(lf.comments[0].text, " a note");
  EXPECT_EQ(lf.comments[0].line, 3u);
  // int, x, =, 42, ;, EOF
  ASSERT_EQ(lf.tokens.size(), 6u);
  EXPECT_EQ(lf.tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(lf.tokens[3].text, "42");
}

TEST(Lexer, RawStringAndMultiCharPunct) {
  const LexedFile lf = lex("auto s = R\"(a \"quoted\" %p)\"; x <<= 2;");
  bool saw_raw = false;
  for (const Token& t : lf.tokens) {
    if (t.kind == TokKind::kString) {
      EXPECT_EQ(t.text, "a \"quoted\" %p");
      saw_raw = true;
    }
  }
  EXPECT_TRUE(saw_raw);
}

TEST(Model, AnnotatedMembersAndConstExemption) {
  const FileModel fm = mk("src/sim/x.hpp",
                          "class C {\n"
                          " private:\n"
                          "  DSS_SHARD_PARTITIONED int hits_ = 0;\n"
                          "  int misses_ = 0;\n"
                          "  static constexpr int kWays = 4;\n"
                          "};\n");
  ASSERT_EQ(fm.classes.size(), 1u);
  const ClassModel& c = fm.classes[0];
  EXPECT_TRUE(c.annotated());
  ASSERT_NE(c.member("hits_"), nullptr);
  EXPECT_EQ(c.member("hits_")->annotation, "DSS_SHARD_PARTITIONED");
  ASSERT_NE(c.member("misses_"), nullptr);
  EXPECT_TRUE(c.member("misses_")->annotation.empty());
  ASSERT_NE(c.member("kWays"), nullptr);
  EXPECT_TRUE(c.member("kWays")->is_const);
}

TEST(Model, FunctionCallsAndMemberTouches) {
  const FileModel fm = mk("src/sim/x.cpp",
                          "void C::step(int n) {\n"
                          "  helper(n);\n"
                          "  count_ += n;\n"
                          "  other.field_ = 1;\n"
                          "  p->slot_ = 2;\n"
                          "  Other::static_ = 3;\n"
                          "}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  EXPECT_EQ(fn.name, "step");
  EXPECT_EQ(fn.class_name, "C");
  ASSERT_GE(fn.calls.size(), 1u);
  EXPECT_EQ(fn.calls[0].name, "helper");
  // `count_` resolves against the enclosing class; members reached through
  // `.`, `->` or `::` do not.
  ASSERT_EQ(fn.touches.size(), 1u);
  EXPECT_EQ(fn.touches[0].name, "count_");
}

TEST(Rules, ShardUnsafeViaTransitiveCall) {
  const FileModel fm = mk("src/sim/mini.hpp",
                          "class Mini {\n"
                          " public:\n"
                          "  void access_batch(int n) { helper(n); }\n"
                          " private:\n"
                          "  void helper(int n) { stale_ = n; }\n"
                          "  DSS_SHARD_PARTITIONED int good_ = 0;\n"
                          "  int stale_ = 0;\n"
                          "};\n");
  AnalysisOptions opts;
  opts.only_rules = {"shard-unsafe"};
  const AnalysisResult r = run({fm}, opts);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_NE(r.findings[0].message.find("stale_"), std::string::npos);
}

TEST(Rules, ReplaySafeFunctionStopsDescent) {
  const FileModel fm = mk("src/sim/mini.hpp",
                          "class Mini {\n"
                          " public:\n"
                          "  void access_batch(int n) { audit(n); }\n"
                          " private:\n"
                          "  DSS_REPLAY_SAFE void audit(int n) { stale_ = n; }\n"
                          "  DSS_SHARD_PARTITIONED int good_ = 0;\n"
                          "  int stale_ = 0;\n"
                          "};\n");
  AnalysisOptions opts;
  opts.only_rules = {"shard-unsafe"};
  EXPECT_TRUE(run({fm}, opts).findings.empty());
}

TEST(Rules, UnorderedDeclInHeaderIterationInSource) {
  // The declaration and the iteration live in different files — the rule
  // matches on the union of unordered-declared names across the scan.
  const FileModel header = mk("src/db/agg.hpp",
                              "class Agg {\n"
                              "  std::unordered_map<int, int> groups_;\n"
                              "};\n");
  const FileModel source = mk("src/db/agg.cpp",
                              "int Agg::sum() {\n"
                              "  int s = 0;\n"
                              "  for (const auto& [k, v] : groups_) s += v;\n"
                              "  return s;\n"
                              "}\n");
  AnalysisOptions opts;
  opts.only_rules = {"unordered-iter"};
  const AnalysisResult r = run({header, source}, opts);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].file, "src/db/agg.cpp");
}

TEST(Rules, RangeForOverReturnedValueIsNotContainerIteration) {
  const FileModel fm = mk("src/db/agg.cpp",
                          "class Agg {\n"
                          "  std::unordered_map<int, int> groups_;\n"
                          "  int sum() {\n"
                          "    int s = 0;\n"
                          "    for (const auto& g : sorted(groups_)) s += g;\n"
                          "    return s;\n"
                          "  }\n"
                          "};\n");
  AnalysisOptions opts;
  opts.only_rules = {"unordered-iter"};
  EXPECT_TRUE(run({fm}, opts).findings.empty());
}

TEST(Suppressions, AbsorbAndCountHits) {
  const FileModel fm = mk(
      "src/db/agg.cpp",
      "class Agg {\n"
      "  std::unordered_map<int, int> groups_;\n"
      "  int sum() {\n"
      "    int s = 0;\n"
      "    // dss-lint: allow(unordered-iter) sum is order-independent\n"
      "    for (const auto& [k, v] : groups_) s += v;\n"
      "    return s;\n"
      "  }\n"
      "};\n");
  const AnalysisResult r = run({fm});
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "unordered-iter");
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].hits, 1u);
  EXPECT_EQ(r.suppressions[0].reason, "sum is order-independent");
}

TEST(Suppressions, MissingReasonIsAFinding) {
  const FileModel fm = mk("src/a.cpp",
                          "// dss-lint: allow(unordered-iter)\n"
                          "int x = 0;\n");
  const AnalysisResult r = run({fm});
  ASSERT_EQ(rules_of(r), std::vector<std::string>{"bad-suppression"});
}

TEST(Suppressions, UnknownRuleIsAFinding) {
  const FileModel fm = mk("src/a.cpp",
                          "// dss-lint: allow(no-such-rule) because\n"
                          "int x = 0;\n");
  const AnalysisResult r = run({fm});
  ASSERT_EQ(rules_of(r), std::vector<std::string>{"bad-suppression"});
}

TEST(Suppressions, UnusedOnlyFlaggedUnderStrict) {
  const FileModel fm = mk(
      "src/a.cpp",
      "// dss-lint: allow(unordered-iter) nothing here to suppress\n"
      "int x = 0;\n");
  EXPECT_TRUE(run({fm}).findings.empty());
  AnalysisOptions strict;
  strict.strict_suppressions = true;
  const AnalysisResult r = run({fm}, strict);
  ASSERT_EQ(rules_of(r), std::vector<std::string>{"bad-suppression"});
  EXPECT_NE(r.findings[0].message.find("stale"), std::string::npos);
}

TEST(Suppressions, ProseMentionIsNotADirective) {
  const FileModel fm = mk(
      "src/a.cpp",
      "// The syntax is `// dss-lint: allow(<rule>) <reason>` as docs say.\n"
      "int x = 0;\n");
  const AnalysisResult r = run({fm});
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(r.suppressions.empty());
}

TEST(Json, SuppressionsAndHitsAppearInReport) {
  const FileModel fm = mk(
      "src/db/agg.cpp",
      "class Agg {\n"
      "  std::unordered_map<int, int> groups_;\n"
      "  int sum() {\n"
      "    int s = 0;\n"
      "    // dss-lint: allow(unordered-iter) sum is order-independent\n"
      "    for (const auto& [k, v] : groups_) s += v;\n"
      "    return s;\n"
      "  }\n"
      "};\n");
  const std::string json = format_json(run({fm}));
  EXPECT_NE(json.find("\"tool\": \"dss_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"finding_count\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"unordered-iter\""), std::string::npos);
  EXPECT_NE(json.find("\"hits\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"sum is order-independent\""),
            std::string::npos);
}

TEST(Json, FindingsCarryFileLineRule) {
  const FileModel fm = mk("src/a.cpp", "std::map<int*, int> bad_;\n");
  const std::string json = format_json(run({fm}));
  EXPECT_NE(json.find("\"finding_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"pointer-key\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
}

TEST(Rules, ClockAndEnvReadsInSrcPerfAreReported) {
  // src/perf/ has no exemption: host time and the environment stay out of
  // every linted file, the counter layer included.
  const FileModel fm = mk("src/perf/timer.cpp",
                          "#include <chrono>\n"
                          "#include <cstdlib>\n"
                          "long now_ns() {\n"
                          "  auto t = std::chrono::steady_clock::now();\n"
                          "  return std::getenv(\"X\") ? 0 : 1;\n"
                          "}\n");
  const AnalysisResult r = run({fm});
  ASSERT_EQ(rules_of(r),
            (std::vector<std::string>{"nondet-clock", "nondet-env"}));
  EXPECT_EQ(r.findings[0].line, 4u);
  EXPECT_EQ(r.findings[1].line, 5u);
}

TEST(Rules, RegistryHasTenKnownRules) {
  EXPECT_EQ(all_rules().size(), 10u);
  for (const Rule& r : all_rules()) {
    EXPECT_TRUE(known_rule(r.id));
    EXPECT_FALSE(r.summary.empty());
  }
  EXPECT_FALSE(known_rule("no-such-rule"));
}

TEST(Rules, CheckpointSerializerEmptyListIsBadSuppression) {
  // The directive went with the checkpoint-field rule that read it: with or
  // without a class list it is now an unknown directive.
  const FileModel fm = mk("src/a.cpp",
                          "// dss-lint: checkpoint-serializer()\n"
                          "// dss-lint: checkpoint-serializer(MachineSim)\n"
                          "int x = 0;\n");
  const AnalysisResult r = run({fm});
  ASSERT_EQ(rules_of(r),
            (std::vector<std::string>{"bad-suppression", "bad-suppression"}));
  for (const Finding& f : r.findings) {
    EXPECT_NE(f.message.find("unknown dss-lint directive"), std::string::npos);
  }
}

TEST(Rules, FindingsAreSortedByFileThenLine) {
  const FileModel b = mk("src/b.cpp", "int* p_;\nstd::map<int*, int> m_;\n");
  const FileModel a = mk("src/a.cpp", "std::set<char*> s_;\n");
  const AnalysisResult r = run({b, a});
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].file, "src/a.cpp");
  EXPECT_EQ(r.findings[1].file, "src/b.cpp");
}

}  // namespace
}  // namespace dss::lint
