#ifndef SES_UTIL_STATUS_H_
#define SES_UTIL_STATUS_H_

/// \file
/// Lightweight error-propagation primitives used across the whole library.
///
/// Fallible operations return util::Status (or util::Result<T> when they
/// also produce a value) instead of throwing exceptions; this keeps the
/// public API exception-free per the project style rules.

#include <optional>
#include <string>
#include <utility>

namespace ses::util {

/// Machine-readable category of a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kAlreadyExists,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
  kIoError,
  kParseError,
  kInfeasible,
  kCancelled,
  kDeadlineExceeded,
};

/// Returns a stable, human-readable name for \p code ("OK",
/// "INVALID_ARGUMENT", ...).
const char* StatusCodeToString(StatusCode code);

/// Result of a fallible operation: a code plus an optional message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy and
/// compare; the message is only meaningful for non-OK codes.
///
/// [[nodiscard]]: dropping a returned Status on the floor is a compile
/// error under -Werror; consume it, propagate it
/// (SES_RETURN_IF_ERROR), or discard explicitly with `(void)` and a
/// comment saying why. tests/compile_fail/ pins the compile error.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with \p code and a diagnostic \p message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Named constructors, one per category.
  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  /// True iff this status carries no error.
  bool ok() const { return code_ == StatusCode::kOk; }

  /// The status category.
  StatusCode code() const { return code_; }

  /// Diagnostic message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "OK" or "CODE: message" rendering for logs.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value or an error. Mirrors absl::StatusOr in spirit.
///
/// Accessing value() on an error Result aborts (programming error), so
/// callers must check ok() first or use value_or().
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : status_(Status::Ok()), value_(std::move(value)) {}

  /// Implicit construction from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {}

  /// True iff a value is present.
  bool ok() const { return status_.ok(); }

  /// The status; OK when a value is present.
  const Status& status() const { return status_; }

  /// The contained value. Must only be called when ok().
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  /// Returns the value, or \p fallback when this Result holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  /// Pointer-style access; must only be used when ok().
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }
  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace ses::util

/// Propagates a non-OK Status out of the current function.
#define SES_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::ses::util::Status ses_status_ = (expr);    \
    if (!ses_status_.ok()) return ses_status_;   \
  } while (0)

// Two-level concatenation so __LINE__ expands to the line number before
// pasting; direct `a##__LINE__` would paste the token "__LINE__" itself
// and every use in a scope would collide on one name.
#define SES_STATUS_CONCAT_IMPL(a, b) a##b
#define SES_STATUS_CONCAT(a, b) SES_STATUS_CONCAT_IMPL(a, b)

/// Assigns the value of a Result to `lhs` or returns its error.
#define SES_ASSIGN_OR_RETURN(lhs, expr) \
  SES_ASSIGN_OR_RETURN_IMPL(SES_STATUS_CONCAT(ses_result_, __LINE__), \
                            lhs, expr)
#define SES_ASSIGN_OR_RETURN_IMPL(result, lhs, expr) \
  auto result = (expr);                              \
  if (!result.ok()) return result.status();          \
  lhs = std::move(result).value()

#endif  // SES_UTIL_STATUS_H_
