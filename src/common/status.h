// Error model used throughout Ficus: errno-style codes carried by a small
// Status value, plus StatusOr<T> for call sites that return a value or fail.
// No exceptions cross public API boundaries.
#ifndef FICUS_SRC_COMMON_STATUS_H_
#define FICUS_SRC_COMMON_STATUS_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ficus {

// Error codes. Values deliberately mirror the Unix errno family the vnode
// interface would surface, extended with Ficus-specific conditions.
enum class ErrorCode : int32_t {
  kOk = 0,
  kNotFound,        // ENOENT
  kExists,          // EEXIST
  kNotDir,          // ENOTDIR
  kIsDir,           // EISDIR
  kNotEmpty,        // ENOTEMPTY
  kNoSpace,         // ENOSPC
  kInvalidArgument, // EINVAL
  kPermission,      // EACCES
  kStale,           // ESTALE (NFS: handle no longer valid)
  kIo,              // EIO
  kBusy,            // EBUSY
  kNameTooLong,     // ENAMETOOLONG
  kNotSupported,    // ENOTSUP
  kCrossDevice,     // EXDEV
  kUnreachable,     // network partition: no route to host
  kTimedOut,        // simulated RPC timeout
  kConflict,        // concurrent unsynchronized update detected (version vectors)
  kCorrupt,         // on-disk structure failed validation
  kQuorumDenied,    // baseline policies: not enough replicas reachable
  kInternal,        // invariant violation (bug)
};

// Human-readable name for an error code ("kNotFound" -> "not found").
std::string_view ErrorCodeName(ErrorCode code);

// A cheap, copyable success-or-error value. An ok Status carries no message.
class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  explicit Status(ErrorCode code) : code_(code) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "ok" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  ErrorCode code_;
  std::string message_;
};

// Convenience constructors, one per common code.
Status OkStatus();
Status NotFoundError(std::string message);
Status ExistsError(std::string message);
Status NotDirError(std::string message);
Status IsDirError(std::string message);
Status NotEmptyError(std::string message);
Status NoSpaceError(std::string message);
Status InvalidArgumentError(std::string message);
Status PermissionError(std::string message);
Status StaleError(std::string message);
Status IoError(std::string message);
Status BusyError(std::string message);
Status NameTooLongError(std::string message);
Status NotSupportedError(std::string message);
Status CrossDeviceError(std::string message);
Status UnreachableError(std::string message);
Status TimedOutError(std::string message);
Status ConflictError(std::string message);
Status CorruptError(std::string message);
Status QuorumDeniedError(std::string message);
Status InternalError(std::string message);

// Value-or-Status. Access to value() on an error aborts (invariant bug),
// so callers must check ok() / status() first.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(rep_).ok() && "StatusOr constructed from OK status");
  }
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(rep_); }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    assert(ok() && "StatusOr::value() on error");
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok() && "StatusOr::value() on error");
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok() && "StatusOr::value() on error");
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

// The one result of a batch call made with a single input, so that a
// single-item operation can be a plain delegation to its batch form.
template <typename T>
StatusOr<T> OnlyResult(StatusOr<std::vector<T>> batch) {
  if (!batch.ok()) {
    return batch.status();
  }
  assert(batch->size() == 1 && "OnlyResult of a batch that is not one item");
  return std::move(batch->front());
}

// Propagate a non-ok Status from an expression.
#define FICUS_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::ficus::Status _st = (expr);            \
    if (!_st.ok()) {                         \
      return _st;                            \
    }                                        \
  } while (0)

// Evaluate a StatusOr expression, propagate error, else bind the value.
#define FICUS_ASSIGN_OR_RETURN(lhs, expr)    \
  FICUS_ASSIGN_OR_RETURN_IMPL(               \
      FICUS_STATUS_CONCAT(_status_or, __LINE__), lhs, expr)

#define FICUS_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) {                                  \
    return tmp.status();                            \
  }                                                 \
  lhs = std::move(tmp).value()

#define FICUS_STATUS_CONCAT_INNER(a, b) a##b
#define FICUS_STATUS_CONCAT(a, b) FICUS_STATUS_CONCAT_INNER(a, b)

}  // namespace ficus

#endif  // FICUS_SRC_COMMON_STATUS_H_
