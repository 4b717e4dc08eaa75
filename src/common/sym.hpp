// netfail::sym — a process-wide string interner.
//
// Hostnames and interface names recur millions of times across a 13-month
// event stream but the distinct-name universe is tiny (hundreds). Interning
// each name once into an append-only arena and passing a 32-bit `Symbol`
// everywhere removes per-event string allocation, makes equality a single
// integer compare, and lets per-link state live in symbol-keyed flat tables
// instead of std::string-keyed trees.
//
// Concurrency model: reads (view/c_str/find and equality) are lock-free —
// the open-addressing index is published with release stores and probed with
// acquire loads, and the arena is append-only so published bytes never move.
// Writers (intern of a new name) serialize on one mutex. Rehashed index
// arrays are retired, not freed, so a reader probing an old array is always
// safe; the retired memory is bounded by <2x the final index size.
//
// Symbol ids are dense (0, 1, 2, ...) in first-intern order and stable for
// the life of the process. Id 0 is always the empty string. Note that id
// order is NOT lexicographic order: use sym::lex_less / sym::ordered when
// the underlying strings must be compared.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netfail::sym {

/// Interns `s` (if new) and returns its id.
std::uint32_t intern_id(std::string_view s);
/// Id of `s` if already interned, otherwise 0xffffffff. Never grows the table.
std::uint32_t find_id(std::string_view s);
/// The interned bytes for `id`; "" for the invalid id.
std::string_view id_view(std::uint32_t id);
/// NUL-terminated interned bytes for `id`; "" for the invalid id.
const char* id_c_str(std::uint32_t id);
/// Number of distinct names interned so far (including the pre-interned "").
std::size_t table_size();

/// A 32-bit strong id naming an interned string. Construction from any
/// string-ish type interns (implicitly, by design: the hot paths assign
/// parsed tokens straight into Symbol fields).
class Symbol {
 public:
  using underlying_type = std::uint32_t;
  static constexpr underlying_type kInvalid = 0xffffffffu;

  constexpr Symbol() = default;
  /// Wrap an existing id (no interning, no validation).
  static constexpr Symbol from_id(underlying_type id) {
    Symbol s;
    s.v_ = id;
    return s;
  }

  Symbol(std::string_view s) : v_(intern_id(s)) {}             // NOLINT
  Symbol(const char* s) : v_(intern_id(s)) {}                  // NOLINT
  Symbol(const std::string& s) : v_(intern_id(s)) {}           // NOLINT

  static constexpr Symbol invalid() { return Symbol{}; }
  constexpr bool valid() const { return v_ != kInvalid; }
  /// True for the empty string and for the invalid symbol.
  constexpr bool empty() const { return v_ == 0 || v_ == kInvalid; }
  constexpr underlying_type value() const { return v_; }

  std::string_view view() const { return id_view(v_); }
  const char* c_str() const { return id_c_str(v_); }
  std::string str() const { return std::string(id_view(v_)); }

  /// Id equality == string equality (the table never stores duplicates).
  friend constexpr bool operator==(Symbol a, Symbol b) { return a.v_ == b.v_; }

 private:
  underlying_type v_ = kInvalid;
};

// Content comparisons that do NOT intern the right-hand side. The exact
// const char* / const std::string& overloads exist so `s == "lit"` is not
// ambiguous between Symbol's implicit ctor and the string_view conversion.
inline bool operator==(Symbol s, std::string_view t) { return s.view() == t; }
inline bool operator==(Symbol s, const char* t) {
  return s.view() == std::string_view(t);
}
inline bool operator==(Symbol s, const std::string& t) {
  return s.view() == std::string_view(t);
}

// Concatenation conveniences for cold paths (config rendering, error
// text). Hot paths should append `view()` into a reused buffer instead.
inline std::string operator+(const std::string& a, Symbol b) {
  return a + std::string(b.view());
}
inline std::string operator+(std::string&& a, Symbol b) {
  a.append(b.view());
  return std::move(a);
}
inline std::string operator+(const char* a, Symbol b) {
  return std::string(a) + std::string(b.view());
}
inline std::string operator+(Symbol a, const std::string& b) {
  return std::string(a.view()) + b;
}
inline std::string operator+(Symbol a, const char* b) {
  return std::string(a.view()) + b;
}

inline std::ostream& operator<<(std::ostream& os, Symbol s) {
  return os << s.view();
}

/// Lexicographic order on the underlying strings (id order is meaningless).
inline bool lex_less(Symbol a, Symbol b) { return a.view() < b.view(); }

/// (first, second) with first <= second lexicographically — the
/// normalization used for host pairs, without any string copies.
inline std::pair<Symbol, Symbol> ordered(Symbol a, Symbol b) {
  return lex_less(b, a) ? std::pair{b, a} : std::pair{a, b};
}

/// `pair_key` of a pair already in `ordered` form, for callers that need
/// both and should compare the strings once.
inline std::uint64_t ordered_pair_key(Symbol lo, Symbol hi) {
  return (static_cast<std::uint64_t>(lo.value()) << 32) | hi.value();
}

/// Packed 64-bit key for the lexicographically normalized pair: equal pairs
/// (in either order) map to equal keys.
inline std::uint64_t pair_key(Symbol a, Symbol b) {
  const auto [lo, hi] = ordered(a, b);
  return ordered_pair_key(lo, hi);
}

/// Symbol of `s` if already interned, otherwise the invalid symbol. Use for
/// lookups with externally supplied names where growing the table is
/// undesirable.
inline Symbol find(std::string_view s) { return Symbol::from_id(find_id(s)); }

/// A sparse Symbol -> Symbol rewrite table, identity where unmapped.
///
/// This is the primitive behind every symbol-table transform: the
/// anonymizer maps real host/interface symbols to seeded pseudonyms, and a
/// snapshot restore maps file-local symbol ids to this process's ids.
/// Backed by a dense vector indexed by source id (symbol ids are dense by
/// construction), so map() is a bounds check and a load — cheap enough to
/// call per rendered field.
class RemapTable {
 public:
  /// Rewrite `from` to `to`. `from` must be valid; `to` must be valid
  /// (mapping *to* the invalid symbol would be indistinguishable from "no
  /// mapping").
  void set(Symbol from, Symbol to) {
    if (!from.valid() || !to.valid()) return;
    if (from.value() >= to_.size()) {
      to_.resize(from.value() + 1, Symbol::invalid());
    }
    if (!to_[from.value()].valid()) ++mapped_;
    to_[from.value()] = to;
  }

  /// The rewrite of `s`, or `s` itself when unmapped (or invalid).
  Symbol map(Symbol s) const {
    if (!s.valid() || s.value() >= to_.size()) return s;
    const Symbol t = to_[s.value()];
    return t.valid() ? t : s;
  }

  bool has(Symbol s) const {
    return s.valid() && s.value() < to_.size() && to_[s.value()].valid();
  }

  /// Number of explicit mappings installed.
  std::size_t size() const { return mapped_; }

 private:
  std::vector<Symbol> to_;
  std::size_t mapped_ = 0;
};

}  // namespace netfail::sym

namespace netfail {
using sym::Symbol;  // the common spelling throughout the library
}  // namespace netfail

namespace std {
template <>
struct hash<netfail::sym::Symbol> {
  size_t operator()(const netfail::sym::Symbol& s) const noexcept {
    // Fibonacci scramble: sequential ids would otherwise cluster buckets.
    return static_cast<size_t>(s.value()) * 0x9e3779b97f4a7c15ull;
  }
};
}  // namespace std
