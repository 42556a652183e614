// Source model for dss_lint: the slice of C++ structure the project rules
// need, extracted by a single heuristic pass over the token stream.
//
// The parser is scope-tracking, not grammar-complete: it follows namespace /
// class / function nesting by brace depth, classifies declarations by token
// shape (a `(` at template-depth zero before any `=` means "function"), and
// records four kinds of events inside function bodies — calls, member
// touches, allocations, container iteration. That is exact for the code
// style this repo enforces (CamelCase types, trailing-underscore members,
// no macros generating declarations) and degrades to "no event" elsewhere.
#pragma once

#include <string>
#include <vector>

#include "dss_lint/lexer.hpp"

namespace dss::lint {

/// One data member of a class.
struct MemberDecl {
  std::string name;
  std::string annotation;  ///< DSS_* macro on the declaration, or empty
  u32 line = 0;
  bool is_static = false;
  bool is_const = false;  ///< const / constexpr (immutable, exempt)
};

struct ClassModel {
  std::string name;
  u32 line = 0;
  std::vector<MemberDecl> members;
  [[nodiscard]] bool annotated() const {
    for (const MemberDecl& m : members) {
      if (!m.annotation.empty()) return true;
    }
    return false;
  }
  [[nodiscard]] const MemberDecl* member(const std::string& n) const {
    for (const MemberDecl& m : members) {
      if (m.name == n) return &m;
    }
    return nullptr;
  }
};

/// A call site inside a function body (bare callee name).
struct CallSite {
  std::string name;
  u32 line = 0;
};

/// A touched member field: a trailing-underscore identifier that is not
/// behind an explicit object expression (so it resolves against the
/// enclosing class, `this->` style).
struct MemberTouch {
  std::string name;
  u32 line = 0;
};

/// An allocation or container-growth call (hot-path rule).
struct AllocSite {
  std::string what;  ///< "new", "make_unique", "push_back", ...
  u32 line = 0;
};

/// Iteration over a named container: a range-for target or a .begin() call.
struct IterSite {
  std::string var;  ///< base identifier of the iterated expression
  u32 line = 0;
};

struct FunctionModel {
  std::string name;        ///< bare name
  std::string class_name;  ///< enclosing or qualifying class, "" if free
  u32 line = 0;
  bool replay_safe = false;  ///< DSS_REPLAY_SAFE on the definition
  std::vector<CallSite> calls;
  std::vector<MemberTouch> touches;
  std::vector<AllocSite> allocs;
  std::vector<IterSite> iters;
};

/// A variable (local or member) declared as an unordered associative
/// container in this file.
struct UnorderedVar {
  std::string name;
  u32 line = 0;
};

/// Raw rule-relevant events that need no structural context.
struct TokenEvent {
  std::string what;
  u32 line = 0;
};

struct FileModel {
  std::string path;  ///< path as given to the analyzer
  std::vector<Include> includes;
  std::vector<Comment> comments;
  std::vector<ClassModel> classes;
  std::vector<FunctionModel> functions;
  std::vector<UnorderedVar> unordered_vars;
  std::vector<TokenEvent> clock_uses;    ///< rand/time/chrono-now/...
  std::vector<TokenEvent> env_uses;      ///< getenv
  std::vector<TokenEvent> pointer_keys;  ///< pointer-keyed map/set/hash
  std::vector<TokenEvent> pointer_prints;  ///< %p, pointer->integer casts
  std::vector<TokenEvent> static_decls;  ///< mutable static / thread_local
};

/// Build the model for one lexed file.
[[nodiscard]] FileModel build_model(std::string path, LexedFile lexed);

}  // namespace dss::lint
