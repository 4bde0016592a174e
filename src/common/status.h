#ifndef ATPM_COMMON_STATUS_H_
#define ATPM_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace atpm {

/// Error category carried by a Status. Mirrors the Arrow/RocksDB idiom of
/// returning rich status objects from fallible operations instead of
/// throwing exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kIOError = 2,
  kNotFound = 3,
  kOutOfBudget = 4,
  kInternal = 5,
  kResourceExhausted = 6,
};

/// Result of a fallible operation: an error code plus a human-readable
/// message. `Status::OK()` is the success value. Statuses are cheap to copy
/// in the success case (empty message) and are intended to be checked at
/// every call site (`ATPM_RETURN_NOT_OK`, `status.ok()`); [[nodiscard]]
/// makes a dropped one a compiler warning (an error under ATPM_WERROR).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  /// Returns the success status.
  static Status OK() { return Status(); }
  /// Returns an InvalidArgument status with `msg`.
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  /// Returns an IOError status with `msg`.
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  /// Returns a NotFound status with `msg`.
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  /// Returns an OutOfBudget status with `msg`. Used by sampling-based
  /// algorithms whose per-decision sample budget is exhausted (the analogue
  /// of the paper's ADDATP running out of memory on large graphs).
  static Status OutOfBudget(std::string msg) {
    return Status(StatusCode::kOutOfBudget, std::move(msg));
  }
  /// Returns an Internal status with `msg` (broken invariant).
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// Returns a ResourceExhausted status with `msg`. Used when an
  /// allocation fails (pool growth hit the memory ceiling): callers on the
  /// degradation path treat it as "work with what you have", unlike
  /// kInternal which always propagates.
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  /// True iff this status represents success.
  bool ok() const { return code_ == StatusCode::kOk; }
  /// True iff this status carries kOutOfBudget.
  bool IsOutOfBudget() const { return code_ == StatusCode::kOutOfBudget; }
  /// True iff this status carries kInvalidArgument.
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  /// True iff this status carries kIOError.
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  /// True iff this status carries kNotFound.
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  /// True iff this status carries kResourceExhausted.
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  /// True iff this status carries kInternal.
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  /// The error category.
  StatusCode code() const { return code_; }
  /// The error message (empty for OK).
  const std::string& message() const { return msg_; }
  /// Formats "<CODE>: <message>" for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

/// Propagates a non-OK status to the caller.
#define ATPM_RETURN_NOT_OK(expr)              \
  do {                                        \
    ::atpm::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (false)

/// Value-or-error wrapper in the spirit of arrow::Result. Holds either a T
/// (on success) or a non-OK Status. Access to `value()` requires `ok()`.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}
  /// Constructs a failed result from a non-OK status.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {}

  /// True iff a value is present.
  bool ok() const { return status_.ok(); }
  /// The status (OK when a value is present).
  const Status& status() const { return status_; }
  /// The contained value; must only be called when `ok()`.
  const T& value() const& { return value_; }
  /// Moves the contained value out; must only be called when `ok()`.
  T&& value() && { return std::move(value_); }
  /// Returns the value or `fallback` when this result holds an error.
  T value_or(T fallback) const {
    return ok() ? value_ : std::move(fallback);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace atpm

#endif  // ATPM_COMMON_STATUS_H_
