#ifndef HYPPO_COMMON_RESULT_H_
#define HYPPO_COMMON_RESULT_H_

#include <cstdlib>
#include <optional>
#include <utility>

#include "common/status.h"

namespace hyppo {

/// \brief Value-or-Status discriminated holder, the return type of fallible
/// value-producing functions.
///
/// A Result is either OK and holds a T, or holds a non-OK Status.
/// Typical usage:
///
///   Result<Plan> plan = generator.Optimize(aug, options);
///   HYPPO_RETURN_NOT_OK(plan.status());
///   Use(*plan);
///
/// or, inside a function that itself returns Status/Result:
///
///   HYPPO_ASSIGN_OR_RETURN(Plan plan, generator.Optimize(aug, options));
template <typename T>
class Result {
 public:
  /// Constructs a Result holding a value (implicit to allow `return value;`).
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /// Constructs a failed Result (implicit to allow `return status;`).
  /// Aborts if `status` is OK: an OK Result must carry a value.
  Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      Status::Internal("Result constructed from OK status without a value")
          .Abort("Result");
    }
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the held value. Must only be called when ok().
  const T& ValueOrDie() const& {
    if (!value_.has_value()) {
      DieEmpty();
    }
    return *value_;
  }
  T& ValueOrDie() & {
    if (!value_.has_value()) {
      DieEmpty();
    }
    return *value_;
  }
  T&& ValueOrDie() && {
    if (!value_.has_value()) {
      DieEmpty();
    }
    return std::move(*value_);
  }

  /// Moves the value out of the Result. Must only be called when ok().
  T MoveValueUnsafe() {
    if (!value_.has_value()) {
      DieEmpty();
    }
    return std::move(*value_);
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  T&& operator*() && { return std::move(*this).ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Returns the value, or `alternative` if this Result holds an error.
  T ValueOr(T alternative) const {
    return value_.has_value() ? *value_ : std::move(alternative);
  }

 private:
  /// A value access on an empty Result is a programmer error; an empty
  /// value_ and a non-OK status_ coincide by construction. Locally
  /// noreturn so flow analysis sees every dereference guarded.
  [[noreturn]] void DieEmpty() const {
    status_.Abort("Result::ValueOrDie on error");
    std::abort();
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace hyppo

#define HYPPO_CONCAT_IMPL_(x, y) x##y
#define HYPPO_CONCAT_(x, y) HYPPO_CONCAT_IMPL_(x, y)

/// Evaluates a Result expression; on error returns its Status, otherwise
/// moves the value into `lhs` (which may include a type declaration).
#define HYPPO_ASSIGN_OR_RETURN(lhs, rexpr)                              \
  HYPPO_ASSIGN_OR_RETURN_IMPL_(HYPPO_CONCAT_(_hyppo_result_, __LINE__), \
                               lhs, rexpr)

#define HYPPO_ASSIGN_OR_RETURN_IMPL_(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                                 \
  if (!result_name.ok()) {                                    \
    return result_name.status();                              \
  }                                                           \
  lhs = std::move(result_name).ValueOrDie()

#endif  // HYPPO_COMMON_RESULT_H_
