// Error types shared across the otasizer library.
//
// All library errors derive from ota::Error so callers can catch one type at
// the API boundary.  Each subsystem throws the most specific subtype.
#pragma once

#include <version>

// The library hard-requires C++20: sfg/mason.cpp, spice/ac.cpp and
// spice/measure.cpp use std::numbers, and several headers rely on other
// C++20 library features.  Fail the very first translation unit with a
// readable message instead of a cryptic "std::numbers has not been declared"
// deep inside a build log.
#if !defined(__cpp_lib_math_constants)
#error "otasizer requires a C++20 toolchain (std::numbers missing); compile with -std=c++20 or newer"
#endif

#include <stdexcept>
#include <string>

namespace ota {

/// Base class of all otasizer exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A malformed input (bad netlist, unparsable SI literal, bad config value).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A numerical procedure failed to converge (Newton DC solve, width estimator).
class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
};

/// An internal invariant was violated; indicates a library bug.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// An asynchronous job was cancelled before completing: discarded unstarted
/// by a drainless queue shutdown, cancelled by its caller, or expired past
/// its deadline.  Waiting on its handle rethrows this instead of blocking
/// forever — a cancelled job is answered, never lost.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

/// A server refused an admission because its job queue is at capacity.
/// Unlike Cancelled this is thrown from submit() itself: the job was never
/// accepted, so there is no handle to wait on.
class ServerOverloaded : public Error {
 public:
  explicit ServerOverloaded(const std::string& what) : Error(what) {}
};

}  // namespace ota
