#include "dss_lint/rules.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace dss::lint {

namespace {

// Rule ids. Keep in sync with all_rules() below and DESIGN.md §11.
constexpr const char* kUnorderedIter = "unordered-iter";
constexpr const char* kNondetClock = "nondet-clock";
constexpr const char* kNondetEnv = "nondet-env";
constexpr const char* kPointerKey = "pointer-key";
constexpr const char* kPointerPrint = "pointer-print";
constexpr const char* kStaticState = "static-state";
constexpr const char* kHotAlloc = "hot-alloc";
constexpr const char* kShardUnsafe = "shard-unsafe";
constexpr const char* kAnnotationCoverage = "annotation-coverage";
constexpr const char* kBadSuppression = "bad-suppression";

[[nodiscard]] bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Per-file analysis context derived from the comment stream.
struct FileContext {
  std::string effective_path;  ///< `treat-as` override or the real path
  std::vector<u32> hot_marker_lines;
  std::vector<std::size_t> suppression_idx;  ///< into result.suppressions
};

[[nodiscard]] std::string trimmed(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> kRules = {
      {kUnorderedIter,
       "iteration over a std::unordered_* container: visit order depends on "
       "hashing and the standard library, so anything ordered downstream "
       "(metrics, JSON, tables, protocol events) becomes nondeterministic"},
      {kNondetClock,
       "wall-clock or hardware-randomness source (rand, time, "
       "std::chrono::*_clock::now, random_device) — simulated time must "
       "come from the machine model"},
      {kNondetEnv,
       "getenv — configuration must flow through flags so a run is "
       "reproducible from its command line"},
      {kPointerKey,
       "container ordered or hashed on a pointer value: addresses differ "
       "across runs (ASLR, allocator), so order and bucketing do too"},
      {kPointerPrint,
       "pointer value rendered into output or cast to an integer "
       // dss-lint: allow(pointer-print) rule summary names the pattern
       "(%p, uintptr_t/intptr_t) — run-varying addresses leak into results"},
      {kStaticState,
       "static or thread_local mutable state in src/sim/ or src/core/: "
       "shared across shard machines and trials, breaking replay isolation"},
      {kHotAlloc,
       "allocation or container growth (new, make_unique, push_back, "
       "rehash...) inside a designated hot-path function"},
      {kShardUnsafe,
       "function reachable from the shard-replay roots touches a member "
       "that carries no DSS_SHARD_PARTITIONED / DSS_EPOCH_MERGED / "
       "DSS_REPLAY_SAFE annotation"},
      {kAnnotationCoverage,
       "class with shard-safety annotations has unannotated mutable data "
       "members — every member must declare its class"},
      {kBadSuppression,
       "malformed dss-lint control comment: unknown rule id, missing "
       "reason, or unknown directive (with --strict-suppressions, also a "
       "suppression that matched nothing)"},
  };
  return kRules;
}

bool known_rule(const std::string& id) {
  for (const Rule& r : all_rules()) {
    if (r.id == id) return true;
  }
  return false;
}

namespace {

class Engine {
 public:
  Engine(const std::vector<FileModel>& files, const AnalysisOptions& opts)
      : files_(files), opts_(opts) {}

  AnalysisResult run() {
    result_.files_scanned = files_.size();
    contexts_.resize(files_.size());
    for (std::size_t f = 0; f < files_.size(); ++f) parse_comments(f);
    collect_unordered_names();

    for (std::size_t f = 0; f < files_.size(); ++f) per_file_rules(f);
    shard_safety();
    apply_suppressions();
    finalize();
    return std::move(result_);
  }

 private:
  void report(const char* rule, const std::string& file, u32 line,
              std::string message) {
    raw_.push_back(Finding{rule, file, line, std::move(message)});
  }

  // --- comment directives --------------------------------------------------

  void parse_comments(std::size_t f) {
    const FileModel& fm = files_[f];
    FileContext& ctx = contexts_[f];
    ctx.effective_path = fm.path;
    for (const Comment& c : fm.comments) {
      // Only a comment that STARTS with the marker is a directive; prose
      // mentioning `dss-lint:` mid-sentence (docs, this file) is ignored.
      const std::string head = trimmed(c.text);
      if (!starts_with(head, "dss-lint:")) continue;
      const std::string body = trimmed(head.substr(9));
      if (starts_with(body, "allow(")) {
        const std::size_t close = body.find(')');
        if (close == std::string::npos) {
          report(kBadSuppression, fm.path, c.line,
                 "unterminated allow(: expected `allow(<rule>) <reason>`");
          continue;
        }
        SuppressionRecord s;
        s.rule = trimmed(body.substr(6, close - 6));
        s.file = fm.path;
        s.line = c.line;
        s.reason = trimmed(body.substr(close + 1));
        if (!known_rule(s.rule)) {
          report(kBadSuppression, fm.path, c.line,
                 "allow() names unknown rule `" + s.rule + "`");
          continue;
        }
        if (s.reason.empty()) {
          report(kBadSuppression, fm.path, c.line,
                 "allow(" + s.rule +
                     ") has no reason — suppressions must say why");
          continue;
        }
        ctx.suppression_idx.push_back(result_.suppressions.size());
        result_.suppressions.push_back(std::move(s));
      } else if (body == "hot-path") {
        ctx.hot_marker_lines.push_back(c.line);
      } else if (starts_with(body, "treat-as(")) {
        const std::size_t close = body.find(')');
        if (close == std::string::npos) {
          report(kBadSuppression, fm.path, c.line, "unterminated treat-as(");
          continue;
        }
        ctx.effective_path = trimmed(body.substr(9, close - 9));
      } else {
        report(kBadSuppression, fm.path, c.line,
               "unknown dss-lint directive `" + body + "`");
      }
    }
  }

  // --- simple per-file rules ----------------------------------------------

  void collect_unordered_names() {
    for (const FileModel& fm : files_) {
      for (const UnorderedVar& v : fm.unordered_vars) {
        unordered_names_.insert(v.name);
      }
    }
  }

  void per_file_rules(std::size_t f) {
    const FileModel& fm = files_[f];
    const FileContext& ctx = contexts_[f];
    const std::string& p = ctx.effective_path;
    const bool sim_core = starts_with(p, "src/sim/") ||
                          starts_with(p, "src/core/");

    for (const FunctionModel& fn : fm.functions) {
      for (const IterSite& it : fn.iters) {
        if (unordered_names_.count(it.var) != 0) {
          report(kUnorderedIter, fm.path, it.line,
                 "iterating unordered container `" + it.var + "` in `" +
                     fn.name + "` — order is hash- and library-dependent");
        }
      }
      if (is_hot(fn, ctx)) {
        for (const AllocSite& a : fn.allocs) {
          report(kHotAlloc, fm.path, a.line,
                 "`" + a.what + "` in hot-path function `" + fn.name +
                     "` — the fast path must not allocate or grow");
        }
      }
    }
    for (const TokenEvent& e : fm.clock_uses) {
      report(kNondetClock, fm.path, e.line,
             "nondeterministic time/randomness source: " + e.what);
    }
    for (const TokenEvent& e : fm.env_uses) {
      report(kNondetEnv, fm.path, e.line,
             "environment read: " + e.what +
                 " — pass configuration through flags");
    }
    for (const TokenEvent& e : fm.pointer_keys) {
      report(kPointerKey, fm.path, e.line, e.what);
    }
    for (const TokenEvent& e : fm.pointer_prints) {
      report(kPointerPrint, fm.path, e.line, e.what);
    }
    if (sim_core) {
      for (const TokenEvent& e : fm.static_decls) {
        report(kStaticState, fm.path, e.line, e.what);
      }
    }
    // annotation-coverage: checked at the definition site.
    for (const ClassModel& cls : fm.classes) {
      if (!cls.annotated()) continue;
      for (const MemberDecl& m : cls.members) {
        if (m.annotation.empty() && !m.is_const) {
          report(kAnnotationCoverage, fm.path, m.line,
                 "member `" + m.name + "` of annotated class `" + cls.name +
                     "` has no shard-safety annotation");
        }
      }
    }
  }

  [[nodiscard]] bool is_hot(const FunctionModel& fn,
                            const FileContext& ctx) const {
    for (const std::string& h : opts_.hot_functions) {
      if (fn.name == h) return true;
    }
    for (u32 m : ctx.hot_marker_lines) {
      if (fn.line >= m && fn.line <= m + 3) return true;
    }
    return false;
  }

  // --- shard-safety reachability ------------------------------------------

  void shard_safety() {
    // Class name -> models (a class is normally defined once; merging by
    // name keeps the analysis correct if a fixture redefines one).
    std::map<std::string, std::vector<const ClassModel*>> classes;
    std::set<std::string> annotated_classes;
    for (const FileModel& fm : files_) {
      for (const ClassModel& c : fm.classes) {
        classes[c.name].push_back(&c);
        if (c.annotated()) annotated_classes.insert(c.name);
      }
    }
    if (annotated_classes.empty()) return;

    // Bare name -> function sites ((file, function) index pairs — indices,
    // not pointers, so iteration order never depends on addresses).
    using FnRef = std::pair<std::size_t, std::size_t>;
    std::map<std::string, std::vector<FnRef>> by_name;
    for (std::size_t f = 0; f < files_.size(); ++f) {
      for (std::size_t k = 0; k < files_[f].functions.size(); ++k) {
        by_name[files_[f].functions[k].name].push_back({f, k});
      }
    }

    std::set<FnRef> visited;
    std::vector<FnRef> queue;
    for (const std::string& root : opts_.shard_roots) {
      const auto it = by_name.find(root);
      if (it == by_name.end()) continue;
      for (const FnRef& r : it->second) {
        if (visited.insert(r).second) queue.push_back(r);
      }
    }

    // (class, member, function) triples already reported — one finding per
    // site class, not one per touch.
    std::set<std::string> reported;
    while (!queue.empty()) {
      const FnRef ref = queue.back();
      queue.pop_back();
      const FileModel& fm = files_[ref.first];
      const FunctionModel& fn = fm.functions[ref.second];
      if (fn.replay_safe) continue;  // audited: neither checked nor expanded

      if (annotated_classes.count(fn.class_name) != 0) {
        for (const MemberTouch& t : fn.touches) {
          const MemberDecl* decl = nullptr;
          for (const ClassModel* c : classes[fn.class_name]) {
            if ((decl = c->member(t.name)) != nullptr) break;
          }
          if (decl == nullptr) continue;  // not a field of this class
          if (!decl->annotation.empty() || decl->is_const) continue;
          const std::string key =
              fn.class_name + "::" + fn.name + "#" + t.name;
          if (!reported.insert(key).second) continue;
          report(kShardUnsafe, fm.path, t.line,
                 "`" + fn.class_name + "::" + fn.name +
                     "` is reachable from the shard-replay roots and "
                     "touches unannotated member `" +
                     t.name + "`");
        }
      }
      for (const CallSite& c : fn.calls) {
        const auto it = by_name.find(c.name);
        if (it == by_name.end()) continue;
        for (const FnRef& r : it->second) {
          if (visited.insert(r).second) queue.push_back(r);
        }
      }
    }
  }

  // --- suppression + output assembly --------------------------------------

  void apply_suppressions() {
    for (Finding& f : raw_) {
      bool absorbed = false;
      for (std::size_t ci = 0; ci < contexts_.size(); ++ci) {
        if (files_[ci].path != f.file) continue;
        for (std::size_t si : contexts_[ci].suppression_idx) {
          SuppressionRecord& s = result_.suppressions[si];
          if (s.rule != f.rule) continue;
          if (f.line != s.line && f.line != s.line + 1) continue;
          ++s.hits;
          absorbed = true;
          break;
        }
        break;
      }
      if (absorbed) result_.suppressed.push_back(std::move(f));
      else kept_.push_back(std::move(f));
    }
    raw_.clear();
    if (opts_.strict_suppressions) {
      for (const SuppressionRecord& s : result_.suppressions) {
        if (s.hits == 0) {
          kept_.push_back(Finding{
              kBadSuppression, s.file, s.line,
              "allow(" + s.rule + ") matched no finding — stale suppression"});
        }
      }
    }
  }

  void finalize() {
    auto wanted = [&](const Finding& f) {
      if (opts_.only_rules.empty()) return true;
      return std::find(opts_.only_rules.begin(), opts_.only_rules.end(),
                       f.rule) != opts_.only_rules.end();
    };
    for (Finding& f : kept_) {
      if (wanted(f)) result_.findings.push_back(std::move(f));
    }
    auto order = [](const Finding& a, const Finding& b) {
      return std::tie(a.file, a.line, a.rule, a.message) <
             std::tie(b.file, b.line, b.rule, b.message);
    };
    std::sort(result_.findings.begin(), result_.findings.end(), order);
    std::sort(result_.suppressed.begin(), result_.suppressed.end(), order);
  }

  const std::vector<FileModel>& files_;
  const AnalysisOptions& opts_;
  std::vector<FileContext> contexts_;
  std::set<std::string> unordered_names_;
  std::vector<Finding> raw_;
  std::vector<Finding> kept_;
  AnalysisResult result_;
};

}  // namespace

AnalysisResult analyze(const std::vector<FileModel>& files,
                       const AnalysisOptions& opts) {
  return Engine(files, opts).run();
}

}  // namespace dss::lint
