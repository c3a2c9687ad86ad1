// Starting a std::thread as a Status-returning operation: a thread that
// cannot start is ResourceExhausted, never an exception escaping into
// std::terminate.
#pragma once

#include <cstring>
#include <new>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "util/status.h"

namespace wnw {

namespace internal {
// Appends ": <reason>" to `what` only if it fits the capacity reserved.
inline void AppendThreadFailure(std::string& what, const char* reason) {
  if (what.capacity() - what.size() >= 2 + std::strlen(reason)) {
    what.append(": ").append(reason);
  }
}
}  // namespace internal

/// Starts a thread running `fn`. std::thread throws std::system_error when
/// the spawn fails and std::bad_alloc when its start state cannot be
/// allocated; an address-space cap can cause either. Both come back as
/// ResourceExhausted "<what>: <reason>". The room for the reason is
/// reserved before the spawn, so reporting the failure allocates nothing.
template <typename Fn>
Result<std::thread> StartThread(std::string what, Fn&& fn) {
  try {
    what.reserve(what.size() + 64);
    return std::thread(std::forward<Fn>(fn));
  } catch (const std::system_error& e) {
    internal::AppendThreadFailure(what, e.what());
  } catch (const std::bad_alloc& e) {
    internal::AppendThreadFailure(what, e.what());
  }
  return Status::ResourceExhausted(std::move(what));
}

}  // namespace wnw
