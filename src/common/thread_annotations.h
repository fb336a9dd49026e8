// Clang thread-safety annotations, plus the annotated Mutex/MutexLock/
// CondVar the threaded layers use instead of raw std::mutex.
//
// Why a wrapper: the analysis only tracks types declared as capabilities,
// and libstdc++'s std::mutex is not. Wrapping it in a CAPABILITY("mutex")
// class lets GUARDED_BY/REQUIRES express which lock protects which member,
// and `-Wthread-safety` (clang) turns a forgotten lock into a compile
// error. Under GCC every macro expands to nothing and Mutex degrades to a
// zero-cost veneer over std::mutex, so the annotations cost nothing in the
// default toolchain; CI runs the clang configuration with the warnings
// promoted to errors (see .github/workflows/ci.yml, job `analyze`).
//
// The deterministic core (src/sim, src/protocol, src/adversary,
// src/baselines) stays single-threaded by design — rcommit_lint R2 bans
// threading primitives there, including these wrappers, and this header is
// for the layers R2 explicitly exempts: swarm/, transport/, db/, and the
// fault injectors.
// RCOMMIT_LINT_ALLOW_FILE(R2): this header defines the annotated lock vocabulary the threaded layers are required to use; it introduces no concurrency itself
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define RCOMMIT_TS_ATTR(x) __attribute__((x))
#else
#define RCOMMIT_TS_ATTR(x)  // no-op outside clang
#endif

#define CAPABILITY(x) RCOMMIT_TS_ATTR(capability(x))
#define SCOPED_CAPABILITY RCOMMIT_TS_ATTR(scoped_lockable)
#define GUARDED_BY(x) RCOMMIT_TS_ATTR(guarded_by(x))
#define PT_GUARDED_BY(x) RCOMMIT_TS_ATTR(pt_guarded_by(x))
#define REQUIRES(...) RCOMMIT_TS_ATTR(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) RCOMMIT_TS_ATTR(acquire_capability(__VA_ARGS__))
#define RELEASE(...) RCOMMIT_TS_ATTR(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) RCOMMIT_TS_ATTR(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) RCOMMIT_TS_ATTR(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) RCOMMIT_TS_ATTR(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS RCOMMIT_TS_ATTR(no_thread_safety_analysis)

namespace rcommit {

/// std::mutex declared as a capability so members can be GUARDED_BY it.
/// BasicLockable, so it also works directly with condition_variable_any.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex; the scoped-capability shape the analysis tracks.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over Mutex. Waits REQUIRE the mutex held — exactly
/// the contract std::condition_variable documents but cannot enforce.
/// (condition_variable_any unlocks/relocks the BasicLockable itself.)
class CondVar {
 public:
  template <typename Pred>
  void wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    cv_.wait(mu, std::move(pred));
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(Mutex& mu, std::chrono::duration<Rep, Period> timeout,
                Pred pred) REQUIRES(mu) {
    return cv_.wait_for(mu, timeout, std::move(pred));
  }

  /// Predicate-free waits, for callers whose loop re-derives state after
  /// every wakeup. Prefer these over the predicate forms when the predicate
  /// would read GUARDED_BY members: a lambda body is analyzed as its own
  /// function, where the mutex is not known to be held.
  void wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          std::chrono::duration<Rep, Period> timeout)
      REQUIRES(mu) {
    return cv_.wait_for(mu, timeout);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(Mutex& mu,
                            std::chrono::time_point<Clock, Duration> deadline)
      REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace rcommit
