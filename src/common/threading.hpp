// Thread helpers: named joining threads and annotated lock types.
//
// Mutex/MutexLock/CvLock wrap the standard primitives with clang
// thread-safety attributes (see common/thread_annotations.hpp). libstdc++'s
// std::mutex carries no capability annotations, so the analysis can only
// check lock discipline when code locks through these wrappers.
#pragma once

#include <pthread.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/thread_annotations.hpp"

namespace copbft {

/// Annotated std::mutex. Use COP_GUARDED_BY(mutex_) on the data it
/// protects and lock it through MutexLock or CvLock.
class COP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() COP_ACQUIRE() { mutex_.lock(); }
  void unlock() COP_RELEASE() { mutex_.unlock(); }

  /// The underlying mutex, for interop that the analysis cannot follow.
  std::mutex& native() { return mutex_; }

 private:
  std::mutex mutex_;
};

/// RAII lock held for a full scope (std::lock_guard equivalent).
class COP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) COP_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() COP_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII lock for condition-variable waits: exposes the std::unique_lock
/// that std::condition_variable requires and supports early unlock (the
/// unlock-before-notify pattern). A wait releases and reacquires the mutex
/// internally; from the analysis' perspective the capability is held
/// throughout, which matches what the waiting code may assume.
class COP_SCOPED_CAPABILITY CvLock {
 public:
  explicit CvLock(Mutex& mutex) COP_ACQUIRE(mutex) : lock_(mutex.native()) {}
  ~CvLock() COP_RELEASE() {}

  CvLock(const CvLock&) = delete;
  CvLock& operator=(const CvLock&) = delete;

  void unlock() COP_RELEASE() { lock_.unlock(); }

  /// For std::condition_variable::wait*(...) only.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/CvLock. Waiting goes through the
/// CvLock so call sites never touch the unannotated native handles; from
/// the thread-safety analysis' perspective the capability stays held
/// across a wait, which matches what the waiting code may assume.
class Cv {
 public:
  Cv() = default;
  Cv(const Cv&) = delete;
  Cv& operator=(const Cv&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(CvLock& lock) { cv_.wait(lock.native()); }

  template <typename Rep, typename Period>
  std::cv_status wait_for(CvLock& lock,
                          const std::chrono::duration<Rep, Period>& dur) {
    return cv_.wait_for(lock.native(), dur);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      CvLock& lock, const std::chrono::time_point<Clock, Duration>& tp) {
    return cv_.wait_until(lock.native(), tp);
  }

 private:
  std::condition_variable cv_;
};

/// Sets the current thread's name (visible in /proc, debuggers, perf).
inline void set_current_thread_name(const std::string& name) {
  // Linux limits names to 15 chars + NUL.
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
}

/// std::jthread that names itself before running the body.
template <typename Fn>
std::jthread named_thread(std::string name, Fn&& fn) {
  return std::jthread(
      [name = std::move(name), fn = std::forward<Fn>(fn)]() mutable {
        set_current_thread_name(name);
        fn();
      });
}

}  // namespace copbft
