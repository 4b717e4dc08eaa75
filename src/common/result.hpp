// Result<T>: a minimal expected-like type for recoverable errors.
//
// GCC 12 ships no std::expected, so parsers and decoders in this library
// return Result<T>. Errors carry a category and a human-readable message;
// they are values, not exceptions, because malformed input (a truncated LSP,
// a garbled syslog line) is ordinary data in a measurement pipeline, not an
// exceptional condition.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "src/common/assert.hpp"

namespace netfail {

enum class ErrorCode {
  kInvalidArgument,
  kParseError,
  kTruncated,
  kChecksumMismatch,
  kNotFound,
  kOutOfRange,
  kInternal,
  /// The input uses a capability or format this build does not support
  /// (e.g. a snapshot of another format version).
  kUnsupported,
};

/// Human-readable name of an ErrorCode ("parse_error", ...).
inline const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kChecksumMismatch: return "checksum_mismatch";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kOutOfRange: return "out_of_range";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kUnsupported: return "unsupported";
  }
  return "unknown";
}

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  std::string to_string() const {
    return std::string(error_code_name(code)) + ": " + message;
  }
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Error error) : v_(std::move(error)) {}  // NOLINT: implicit by design

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    NETFAIL_ASSERT(ok(), "Result::value() on error");
    return std::get<T>(v_);
  }
  T& value() & {
    NETFAIL_ASSERT(ok(), "Result::value() on error");
    return std::get<T>(v_);
  }
  T&& value() && {
    NETFAIL_ASSERT(ok(), "Result::value() on error");
    return std::get<T>(std::move(v_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  const Error& error() const {
    NETFAIL_ASSERT(!ok(), "Result::error() on value");
    return std::get<Error>(v_);
  }

  /// Value if ok, otherwise `fallback`.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> v_;
};

/// Specialization-free void result.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error error) : error_(std::move(error)), ok_(false) {}  // NOLINT

  static Status ok_status() { return Status{}; }
  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }
  const Error& error() const {
    NETFAIL_ASSERT(!ok_, "Status::error() on ok");
    return error_;
  }

 private:
  Error error_;
  bool ok_ = true;
};

inline Error make_error(ErrorCode code, std::string message) {
  return Error{code, std::move(message)};
}

}  // namespace netfail
