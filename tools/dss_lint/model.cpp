#include "dss_lint/model.hpp"

#include <array>
#include <cstddef>
#include <string_view>

namespace dss::lint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

[[nodiscard]] bool is_annotation(std::string_view s) {
  return s == "DSS_SHARD_PARTITIONED" || s == "DSS_EPOCH_MERGED" ||
         s == "DSS_REPLAY_SAFE";
}

[[nodiscard]] bool is_call_keyword(std::string_view s) {
  static constexpr std::array<std::string_view, 20> kKeywords = {
      "if",          "for",           "while",      "switch",
      "return",      "sizeof",        "alignof",    "catch",
      "throw",       "new",           "delete",     "assert",
      "static_assert", "decltype",    "noexcept",   "operator",
      "static_cast", "dynamic_cast",  "const_cast", "reinterpret_cast",
  };
  for (std::string_view k : kKeywords) {
    if (s == k) return true;
  }
  return false;
}

[[nodiscard]] bool is_unordered_container(std::string_view s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

[[nodiscard]] bool is_assoc_container(std::string_view s) {
  return s == "map" || s == "set" || s == "multimap" || s == "multiset" ||
         is_unordered_container(s);
}

/// Container-growth methods banned on hot paths (allocation or rehash).
[[nodiscard]] bool is_growth_method(std::string_view s) {
  return s == "push_back" || s == "emplace_back" || s == "emplace" ||
         s == "insert" || s == "resize" || s == "reserve" || s == "assign" ||
         s == "append" || s == "get_or_insert";
}

class Parser {
 public:
  Parser(std::string path, LexedFile lexed) : lexed_(std::move(lexed)) {
    out_.path = std::move(path);
    out_.includes = lexed_.includes;
    out_.comments = lexed_.comments;
  }

  FileModel run() {
    raw_scan();
    while (!at_eof()) statement();
    return std::move(out_);
  }

 private:
  struct Scope {
    enum class Kind : u8 { kNamespace, kClass, kBlock };
    Kind kind;
    std::size_t class_index;  ///< into out_.classes when kind == kClass
  };

  [[nodiscard]] const Token& tok(std::size_t i) const {
    return i < lexed_.tokens.size() ? lexed_.tokens[i]
                                    : lexed_.tokens.back();  // kEof
  }
  [[nodiscard]] const Token& cur() const { return tok(i_); }
  [[nodiscard]] bool at_eof() const { return cur().kind == TokKind::kEof; }
  void advance() {
    if (i_ + 1 < lexed_.tokens.size()) ++i_;
  }
  [[nodiscard]] bool is_punct(const Token& t, std::string_view s) const {
    return t.kind == TokKind::kPunct && t.text == s;
  }

  [[nodiscard]] std::string current_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass) {
        return out_.classes[it->class_index].name;
      }
    }
    return "";
  }
  [[nodiscard]] ClassModel* current_class_model() {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass) {
        return &out_.classes[it->class_index];
      }
    }
    return nullptr;
  }

  // --- whole-file token pass: structure-free events ------------------------

  /// Skip a balanced template-argument list starting at `i` (which must be
  /// '<'); returns the index one past the closing '>'. `>>` closes two.
  [[nodiscard]] std::size_t skip_angles_from(std::size_t i) const {
    int depth = 0;
    while (i < lexed_.tokens.size()) {
      const Token& t = tok(i);
      if (t.kind == TokKind::kEof || is_punct(t, ";") || is_punct(t, "{")) {
        return i;
      }
      if (is_punct(t, "<")) ++depth;
      if (is_punct(t, ">")) --depth;
      if (is_punct(t, ">>")) depth -= 2;
      ++i;
      if (depth <= 0) return i;
    }
    return i;
  }

  void raw_scan() {
    const auto& ts = lexed_.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const Token& t = ts[i];
      if (t.kind == TokKind::kString) {
        // dss-lint: allow(pointer-print) this IS the detector for the pattern
        if (t.text.find("%p") != std::string::npos) {
          out_.pointer_prints.push_back(
              // dss-lint: allow(pointer-print) finding message quotes the pattern
              {"\"%p\" pointer format in a string literal", t.line});
        }
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;
      const std::string& s = t.text;
      const Token& next = tok(i + 1);
      const Token& prev = i > 0 ? ts[i - 1] : ts[0];

      // Declarations of unordered containers: `unordered_map<...> name`.
      if (is_unordered_container(s) && is_punct(next, "<")) {
        const std::size_t after = skip_angles_from(i + 1);
        // Skip ref/pointer qualifiers between the type and the name.
        std::size_t j = after;
        while (is_punct(tok(j), "&") || is_punct(tok(j), "*")) ++j;
        if (tok(j).kind == TokKind::kIdent) {
          out_.unordered_vars.push_back({tok(j).text, tok(j).line});
        }
      }
      // Pointer-keyed associative containers / std::hash<T*>.
      if ((is_assoc_container(s) || s == "hash") && is_punct(prev, "::") &&
          is_punct(next, "<")) {
        int depth = 1;
        bool star = false;
        for (std::size_t j = i + 2; j < ts.size() && depth > 0; ++j) {
          const Token& a = ts[j];
          if (is_punct(a, "<")) ++depth;
          else if (is_punct(a, ">")) --depth;
          else if (is_punct(a, ">>")) depth -= 2;
          else if (is_punct(a, ";") || is_punct(a, "{")) break;
          else if (depth == 1 && is_punct(a, ",")) break;  // first arg only
          else if (depth == 1 && is_punct(a, "*")) star = true;
        }
        if (star) {
          out_.pointer_keys.push_back(
              {"std::" + s + " keyed on a pointer value", t.line});
        }
      }
      // Wall-clock / randomness sources.
      if (s == "steady_clock" || s == "system_clock" ||
          s == "high_resolution_clock" || s == "random_device") {
        out_.clock_uses.push_back({s, t.line});
      }
      if ((s == "rand" || s == "srand" || s == "clock_gettime" ||
           s == "gettimeofday") &&
          is_punct(next, "(")) {
        out_.clock_uses.push_back({s + "()", t.line});
      }
      if (s == "time" && is_punct(next, "(") && !is_punct(prev, ".") &&
          !is_punct(prev, "->")) {
        out_.clock_uses.push_back({"time()", t.line});
      }
      if (s == "getenv" && is_punct(next, "(")) {
        out_.env_uses.push_back({"getenv()", t.line});
      }
      // Pointer value laundered into an integer.
      if (s == "uintptr_t" || s == "intptr_t") {
        out_.pointer_prints.push_back({"pointer cast via " + s, t.line});
      }
    }
  }

  // --- declaration-scope statements ----------------------------------------

  void statement() {
    const Token& t = cur();
    if (t.kind == TokKind::kPunct) {
      if (t.text == "}") {
        advance();
        if (!scopes_.empty()) {
          const bool was_class = scopes_.back().kind == Scope::Kind::kClass;
          scopes_.pop_back();
          if (was_class && is_punct(cur(), ";")) advance();
        }
        return;
      }
      if (t.text == "{") {  // extern "C" { ... } and friends
        advance();
        scopes_.push_back({Scope::Kind::kBlock, 0});
        return;
      }
      advance();
      return;
    }
    if (t.kind != TokKind::kIdent) {
      advance();
      return;
    }
    const std::string& s = t.text;
    if (s == "namespace") {
      advance();
      while (cur().kind == TokKind::kIdent || is_punct(cur(), "::")) {
        advance();
      }
      if (is_punct(cur(), "{")) {
        advance();
        scopes_.push_back({Scope::Kind::kNamespace, 0});
      } else {
        skip_to_semi();  // namespace alias / using-directive tail
      }
      return;
    }
    if (s == "enum") {
      while (!at_eof() && !is_punct(cur(), "{") && !is_punct(cur(), ";")) {
        advance();
      }
      if (is_punct(cur(), "{")) skip_braces();
      skip_to_semi();
      return;
    }
    if (s == "class" || s == "struct" || s == "union") {
      class_decl();
      return;
    }
    if (s == "using" || s == "typedef" || s == "friend" ||
        s == "static_assert") {
      skip_to_semi();
      return;
    }
    if ((s == "public" || s == "private" || s == "protected") &&
        is_punct(tok(i_ + 1), ":")) {
      advance();
      advance();
      return;
    }
    if (s == "template") {
      advance();
      if (is_punct(cur(), "<")) i_ = skip_angles_from(i_);
      return;  // the templated declaration is the next statement
    }
    generic_decl();
  }

  void skip_to_semi() {
    int paren = 0;
    while (!at_eof()) {
      const Token& t = cur();
      if (is_punct(t, "(")) ++paren;
      if (is_punct(t, ")")) --paren;
      if (is_punct(t, "{")) {
        skip_braces();
        continue;
      }
      if (is_punct(t, "}") && paren == 0) return;  // scope end, don't eat
      if (is_punct(t, ";") && paren == 0) {
        advance();
        return;
      }
      advance();
    }
  }

  void skip_braces() {  // cur() must be '{'
    int depth = 0;
    while (!at_eof()) {
      if (is_punct(cur(), "{")) ++depth;
      if (is_punct(cur(), "}")) --depth;
      advance();
      if (depth == 0) return;
    }
  }

  void class_decl() {
    const u32 line = cur().line;
    advance();  // class/struct/union
    std::string name;
    int brack = 0;
    while (!at_eof()) {
      const Token& t = cur();
      if (is_punct(t, "[")) ++brack;
      if (is_punct(t, "]")) --brack;
      if (brack == 0 && t.kind == TokKind::kIdent && t.text != "final" &&
          t.text != "alignas") {
        name = t.text;
      }
      if (is_punct(t, "<")) {  // explicit specialization args on the name
        i_ = skip_angles_from(i_);
        continue;
      }
      if (is_punct(t, ";")) {  // forward declaration (or `struct X x;` use)
        advance();
        return;
      }
      if (is_punct(t, ":") || is_punct(t, "{")) break;
      advance();
    }
    // Skip a base-specifier list up to the class body.
    while (!at_eof() && !is_punct(cur(), "{") && !is_punct(cur(), ";")) {
      if (is_punct(cur(), "<")) {
        i_ = skip_angles_from(i_);
        continue;
      }
      advance();
    }
    if (is_punct(cur(), ";")) {
      advance();
      return;
    }
    if (is_punct(cur(), "{")) {
      advance();
      out_.classes.push_back(ClassModel{name, line, {}});
      scopes_.push_back({Scope::Kind::kClass, out_.classes.size() - 1});
    }
  }

  /// A declaration that is not a recognized keyword form: a function
  /// (definition or prototype), a data member, or a namespace-scope
  /// variable. Classified by token shape; see model.hpp.
  void generic_decl() {
    const u32 line = cur().line;
    std::string annotation;
    if (cur().kind == TokKind::kIdent && is_annotation(cur().text)) {
      annotation = cur().text;
      advance();
    }
    bool has_static = false;
    bool has_tl = false;
    bool has_const = false;
    bool star_depth0 = false;
    bool in_init = false;
    int angle = 0;
    int paren = 0;
    int brack = 0;
    std::size_t fn_name_idx = kNpos;
    std::size_t last_ident_idx = kNpos;

    while (!at_eof()) {
      const Token& t = cur();
      if (t.kind == TokKind::kPunct) {
        const std::string& s = t.text;
        if (!in_init && paren == 0 && brack == 0) {
          if (s == "<" && i_ > 0 && tok(i_ - 1).kind == TokKind::kIdent) {
            ++angle;
          } else if (s == ">" && angle > 0) {
            --angle;
          } else if (s == ">>" && angle > 0) {
            angle = angle >= 2 ? angle - 2 : 0;
          }
        }
        if (s == "(") {
          if (angle == 0 && brack == 0 && paren == 0 && !in_init &&
              fn_name_idx == kNpos && i_ > 0 &&
              tok(i_ - 1).kind == TokKind::kIdent) {
            fn_name_idx = i_ - 1;
          }
          ++paren;
        } else if (s == ")") {
          if (paren > 0) --paren;
        } else if (s == "[") {
          ++brack;
        } else if (s == "]") {
          if (brack > 0) --brack;
        } else if (s == "*" && angle == 0 && paren == 0 && brack == 0 &&
                   !in_init) {
          star_depth0 = true;
        } else if (s == "=" && angle == 0 && paren == 0 && brack == 0 &&
                   !(i_ > 0 && tok(i_ - 1).kind == TokKind::kIdent &&
                     tok(i_ - 1).text == "operator")) {
          in_init = true;
        } else if (s == ";" && paren == 0 && brack == 0) {
          finish_plain_decl(line, annotation, has_static, has_tl, has_const,
                            star_depth0, fn_name_idx, last_ident_idx);
          advance();
          return;
        } else if (s == "}" && paren == 0 && brack == 0) {
          return;  // malformed statement ran into a scope end; let caller pop
        } else if (s == "{" && paren == 0 && brack == 0 && angle == 0) {
          if (fn_name_idx != kNpos && !in_init) {
            function_def(fn_name_idx, annotation == "DSS_REPLAY_SAFE");
            return;
          }
          skip_braces();  // braced initializer (or something stranger)
          continue;
        }
      } else if (t.kind == TokKind::kIdent && angle == 0 && paren == 0 &&
                 brack == 0 && !in_init) {
        const std::string& s = t.text;
        if (s == "static") has_static = true;
        else if (s == "thread_local") has_tl = true;
        else if (s == "const" || s == "constexpr" || s == "constinit") {
          has_const = true;
        } else if (is_annotation(s)) {
          annotation = s;
        } else {
          last_ident_idx = i_;
        }
      }
      advance();
    }
  }

  void finish_plain_decl(u32 line, const std::string& annotation,
                         bool has_static, bool has_tl, bool has_const,
                         bool star_depth0, std::size_t fn_name_idx,
                         std::size_t last_ident_idx) {
    if (fn_name_idx != kNpos) return;  // function prototype — nothing to do
    if (last_ident_idx == kNpos) return;
    // `T& operator=(const T&) = delete;` has no ident before its '(', so it
    // falls through to here looking like a member named `operator`.
    if (tok(last_ident_idx).text == "operator") return;
    const bool is_const = has_const && !star_depth0;
    const std::string& name = tok(last_ident_idx).text;
    if (ClassModel* cls = current_class_model()) {
      cls->members.push_back(
          MemberDecl{name, annotation, line, has_static, is_const});
    }
    if ((has_static || has_tl) && !is_const) {
      out_.static_decls.push_back(
          {std::string(has_tl ? "thread_local" : "static") +
               " mutable variable `" + name + "`",
           line});
    }
  }

  /// Parse a function definition whose name token is at `name_idx` and whose
  /// body opens at the current '{'. Records body events.
  void function_def(std::size_t name_idx, bool replay_safe) {
    FunctionModel fn;
    fn.name = tok(name_idx).text;
    fn.line = tok(name_idx).line;
    fn.replay_safe = replay_safe;
    // Qualified definition `Class::name(` takes precedence over the
    // lexically enclosing class (out-of-class definitions).
    if (name_idx >= 2 && is_punct(tok(name_idx - 1), "::") &&
        tok(name_idx - 2).kind == TokKind::kIdent) {
      fn.class_name = tok(name_idx - 2).text;
    } else {
      fn.class_name = current_class();
    }
    scan_body(fn);
    out_.functions.push_back(std::move(fn));
  }

  /// Event scan over a function body. cur() is the opening '{'.
  void scan_body(FunctionModel& fn) {
    advance();  // '{'
    int depth = 1;
    while (!at_eof() && depth > 0) {
      const Token& t = cur();
      if (t.kind == TokKind::kPunct) {
        if (t.text == "{") ++depth;
        else if (t.text == "}") --depth;
        advance();
        continue;
      }
      if (t.kind != TokKind::kIdent) {
        advance();
        continue;
      }
      const std::string& s = t.text;
      const Token& prev = i_ > 0 ? tok(i_ - 1) : t;
      const Token& next = tok(i_ + 1);

      if (s == "new") {
        fn.allocs.push_back({"new", t.line});
      } else if (s == "static" || s == "thread_local") {
        if (!(next.kind == TokKind::kIdent &&
              (next.text == "const" || next.text == "constexpr"))) {
          out_.static_decls.push_back(
              {std::string(s) + " mutable state in function `" + fn.name +
                   "`",
               t.line});
        }
      } else if (s == "for" && is_punct(next, "(")) {
        range_for(fn, t.line);
      } else if (s == "begin" && (is_punct(prev, ".") || is_punct(prev, "->")) &&
                 is_punct(next, "(") && i_ >= 2 &&
                 tok(i_ - 2).kind == TokKind::kIdent) {
        fn.iters.push_back({tok(i_ - 2).text, t.line});
      }

      const bool qualified =
          is_punct(prev, ".") || is_punct(prev, "->") || is_punct(prev, "::");
      if (s.size() > 1 && s.back() == '_' && !qualified) {
        fn.touches.push_back({s, t.line});
      }
      const bool calls = is_punct(next, "(") ||
                         (is_punct(next, "<") && template_call_ahead(i_ + 1));
      if (calls && !is_call_keyword(s)) {
        fn.calls.push_back({s, t.line});
        if (s == "make_unique" || s == "make_shared") {
          fn.allocs.push_back({s, t.line});
        } else if (is_growth_method(s) &&
                   (is_punct(prev, ".") || is_punct(prev, "->"))) {
          fn.allocs.push_back({s, t.line});
        }
      }
      advance();
    }
  }

  /// True when the '<' at `i` closes into a '>' immediately followed by '('
  /// within a short window — the `f<Args>(...)` template-call shape.
  [[nodiscard]] bool template_call_ahead(std::size_t i) const {
    int depth = 0;
    for (std::size_t steps = 0; steps < 24; ++steps, ++i) {
      const Token& t = tok(i);
      if (t.kind == TokKind::kEof || is_punct(t, ";") || is_punct(t, "{") ||
          is_punct(t, "}")) {
        return false;
      }
      if (is_punct(t, "<")) ++depth;
      else if (is_punct(t, ">")) --depth;
      else if (is_punct(t, ">>")) depth -= 2;
      if (depth <= 0) return is_punct(tok(i + 1), "(");
    }
    return false;
  }

  /// cur() is the '(' after `for`. Record a range-for's iterated base
  /// identifier; classic three-clause loops record nothing.
  void range_for(FunctionModel& fn, u32 line) {
    advance();  // onto '('
    const std::size_t start = i_;
    int depth = 0;
    std::size_t colon = kNpos;
    while (!at_eof()) {
      const Token& t = cur();
      if (is_punct(t, "(")) ++depth;
      else if (is_punct(t, ")")) {
        --depth;
        if (depth == 0) break;
      } else if (depth == 1 && is_punct(t, ";")) {
        break;  // classic for
      } else if (depth == 1 && is_punct(t, ":") && colon == kNpos) {
        colon = i_;
      }
      advance();
    }
    if (colon != kNpos) {
      // The iterated expression is colon+1 .. ')'. A call in it means the
      // loop walks a returned value, not the named container — e.g.
      // `for (g : groups_.sorted_groups())` does not iterate `groups_`.
      // Otherwise the container is the last identifier in the member chain
      // (`obj.map_` iterates `map_`).
      std::string base;
      bool has_call = false;
      for (std::size_t j = colon + 1; j < i_; ++j) {
        if (is_punct(tok(j), "(")) has_call = true;
        if (tok(j).kind == TokKind::kIdent) base = tok(j).text;
      }
      if (!has_call && !base.empty()) fn.iters.push_back({base, line});
    }
    i_ = start;  // re-scan the loop header for touches/calls inside it
  }

  LexedFile lexed_;
  std::size_t i_ = 0;
  FileModel out_;
  std::vector<Scope> scopes_;
};

}  // namespace

FileModel build_model(std::string path, LexedFile lexed) {
  return Parser(std::move(path), std::move(lexed)).run();
}

}  // namespace dss::lint
