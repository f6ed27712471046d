#ifndef SES_UTIL_MUTEX_H_
#define SES_UTIL_MUTEX_H_

/// \file
/// Annotated lock types: thin wrappers over std::mutex /
/// std::shared_mutex / std::condition_variable that carry the Clang
/// Thread Safety capability annotations (util/thread_annotations.h), so
/// `clang -Wthread-safety -Werror` can prove lock discipline at compile
/// time. Zero-cost over the std primitives: every method is an inline
/// forward.
///
/// The std types themselves are unannotated in libstdc++, which is why
/// these wrappers exist — a `std::mutex` member gives the analysis
/// nothing to check. `ses_lint` (rule `raw-mutex`) keeps new code on the
/// wrappers.
///
/// Idioms:
///
///   util::Mutex mutex_;
///   int depth_ SES_GUARDED_BY(mutex_);
///
///   {
///     util::MutexLock lock(mutex_);          // scoped, exclusive
///     ++depth_;
///   }
///
///   util::SharedMutex smutex_;
///   util::ReaderMutexLock lock(smutex_);     // scoped, shared
///   util::WriterMutexLock lock(smutex_);     // scoped, exclusive
///
/// Condition waits take the Mutex directly — the CondVar re-wraps the
/// native handle internally, so the analysis sees the lock held across
/// the wait (which matches the runtime contract: Wait returns with the
/// lock re-acquired):
///
///   mutex_.Lock();
///   while (!ready_) cv_.Wait(mutex_);        // TSA-visible wait loop
///   mutex_.Unlock();

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace ses::util {

class CondVar;

/// Exclusive capability over std::mutex.
class SES_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SES_ACQUIRE() { mutex_.lock(); }
  void Unlock() SES_RELEASE() { mutex_.unlock(); }
  bool TryLock() SES_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// Reader/writer capability over std::shared_mutex.
class SES_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SES_ACQUIRE() { mutex_.lock(); }
  void Unlock() SES_RELEASE() { mutex_.unlock(); }
  void LockShared() SES_ACQUIRE_SHARED() { mutex_.lock_shared(); }
  void UnlockShared() SES_RELEASE_SHARED() { mutex_.unlock_shared(); }

 private:
  std::shared_mutex mutex_;
};

/// Scoped exclusive lock on a Mutex.
class SES_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SES_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() SES_RELEASE_GENERIC() { mutex_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Scoped exclusive (writer) lock on a SharedMutex.
class SES_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mutex) SES_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.Lock();
  }
  ~WriterMutexLock() SES_RELEASE_GENERIC() { mutex_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class SES_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mutex) SES_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.LockShared();
  }
  ~ReaderMutexLock() SES_RELEASE_GENERIC() { mutex_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Condition variable bound to util::Mutex. Wait requires the mutex
/// held (and returns with it held), which is exactly what the analysis
/// assumes — guarded state read in a TSA-visible wait loop around the
/// call checks out without escape hatches.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases \p mutex, blocks until notified, re-acquires.
  /// Spurious wakeups happen; always wait in a predicate loop.
  void Wait(Mutex& mutex) SES_REQUIRES(mutex) {
    // Adopt the caller's hold for the wait, then release the wrapper so
    // ownership stays (logically and analytically) with the caller.
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ses::util

#endif  // SES_UTIL_MUTEX_H_
