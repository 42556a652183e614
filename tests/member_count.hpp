// Compile-time member counts and member offsets for the tests that check a
// field table or visitor lists every member of its struct.
#pragma once

#include <cstddef>
#include <utility>

namespace dss::testing {

/// Converts to any member type, so `T{AnyMember{}, ...}` accepts exactly as
/// many initializers as the aggregate `T` has direct members.
struct AnyMember {
  template <class U>
  operator U() const;  // declared only: used in unevaluated operands
};

/// The number of direct members of the aggregate `T`.
template <class T, class... A>
constexpr std::size_t member_count() {
  if constexpr (requires { T{std::declval<A>()..., AnyMember{}}; }) {
    return member_count<T, A..., AnyMember>();
  } else {
    return sizeof...(A);
  }
}

/// Byte offset of `m` inside `s`.
template <class S, class M>
std::size_t offset_in(const S& s, const M& m) {
  return static_cast<std::size_t>(reinterpret_cast<const char*>(&m) -
                                  reinterpret_cast<const char*>(&s));
}

}  // namespace dss::testing
