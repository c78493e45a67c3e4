// corona::Mutex / corona::MutexLock — the only sanctioned locking
// primitives in src/ (corona-lint's `raw-mutex` rule enforces this;
// docs/ANALYSIS.md §9).
//
// The wrappers carry Clang Thread Safety Analysis attributes, so a clang
// build with -Wthread-safety (CMake option CORONA_THREAD_SAFETY, preset
// `thread-safety`) proves lock discipline at compile time: every field
// marked CORONA_GUARDED_BY is only touched with its mutex held, every
// method marked CORONA_REQUIRES is only called under the right lock, and
// RAII scopes can't leak or double-acquire.  Under GCC (or older clang) the
// attribute macros expand to nothing and the wrappers are zero-cost shims
// over the std primitives, so the portable build is unchanged.
//
// The static half of the same contract is tools/lint/lock_order.py: it
// parses these wrappers' acquisition scopes and CORONA_REQUIRES annotations
// out of the sources, builds the lock-acquisition-order graph, and fails on
// cycles (potential deadlocks) without needing any compiler at all.
//
// lint-file: thread-ok — this header IS the wrapper over the raw std
// primitives; everything else goes through it.
#pragma once

#include <mutex>

// ---------------------------------------------------------------------------
// Attribute macros (no-ops outside clang).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CORONA_TSA(x) __attribute__((x))
#endif
#endif
#ifndef CORONA_TSA
#define CORONA_TSA(x)  // not clang (or too old): attributes compile away
#endif

// A type that is a lockable capability ("mutex" names it in diagnostics).
#define CORONA_CAPABILITY(name) CORONA_TSA(capability(name))
// An RAII type that acquires in its constructor and releases in its
// destructor.
#define CORONA_SCOPED_CAPABILITY CORONA_TSA(scoped_lockable)
// Field may only be read/written with the named mutex held.
#define CORONA_GUARDED_BY(x) CORONA_TSA(guarded_by(x))
// Pointer field: the *pointee* is guarded by the named mutex.
#define CORONA_PT_GUARDED_BY(x) CORONA_TSA(pt_guarded_by(x))
// Function requires the named capabilities held on entry (and exit).
#define CORONA_REQUIRES(...) CORONA_TSA(requires_capability(__VA_ARGS__))
// Function must NOT be called with the named capabilities held.
#define CORONA_EXCLUDES(...) CORONA_TSA(locks_excluded(__VA_ARGS__))
// Function acquires / releases the named capabilities (RAII internals).
#define CORONA_ACQUIRE(...) CORONA_TSA(acquire_capability(__VA_ARGS__))
#define CORONA_RELEASE(...) CORONA_TSA(release_capability(__VA_ARGS__))
#define CORONA_TRY_ACQUIRE(...) CORONA_TSA(try_acquire_capability(__VA_ARGS__))
// Documented lock-order edges, checked by clang (lock_order.py reads the
// REQUIRES/ scope structure instead, so the two passes cross-check).
#define CORONA_ACQUIRED_BEFORE(...) CORONA_TSA(acquired_before(__VA_ARGS__))
#define CORONA_ACQUIRED_AFTER(...) CORONA_TSA(acquired_after(__VA_ARGS__))
// Escape hatch for code the analysis cannot see through.  Every use in
// src/ needs a justification comment (ANALYSIS.md §9 lists them).
#define CORONA_NO_THREAD_SAFETY_ANALYSIS CORONA_TSA(no_thread_safety_analysis)

namespace corona {

// Plain exclusive mutex.  Prefer the RAII MutexLock; lock()/unlock() exist
// for the rare hand-over-hand pattern and stay annotation-checked.
class CORONA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CORONA_ACQUIRE() { mu_.lock(); }
  void unlock() CORONA_RELEASE() { mu_.unlock(); }
  bool try_lock() CORONA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

// Recursive mutex — only for the documented client-callback re-entrance
// (core/client.h); new code should structure around plain Mutex.
class CORONA_CAPABILITY("mutex") RecursiveMutex {
 public:
  RecursiveMutex() = default;
  RecursiveMutex(const RecursiveMutex&) = delete;
  RecursiveMutex& operator=(const RecursiveMutex&) = delete;

  void lock() CORONA_ACQUIRE() { mu_.lock(); }
  void unlock() CORONA_RELEASE() { mu_.unlock(); }

 private:
  friend class RecursiveMutexLock;
  std::recursive_mutex mu_;
};

// RAII scope over a Mutex.
class CORONA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CORONA_ACQUIRE(mu) : lk_(mu.mu_) {}
  ~MutexLock() CORONA_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  std::lock_guard<std::mutex> lk_;
};

// RAII scope over a RecursiveMutex.
class CORONA_SCOPED_CAPABILITY RecursiveMutexLock {
 public:
  explicit RecursiveMutexLock(RecursiveMutex& mu) CORONA_ACQUIRE(mu)
      : lk_(mu.mu_) {}
  ~RecursiveMutexLock() CORONA_RELEASE() {}

  RecursiveMutexLock(const RecursiveMutexLock&) = delete;
  RecursiveMutexLock& operator=(const RecursiveMutexLock&) = delete;

 private:
  std::unique_lock<std::recursive_mutex> lk_;
};

}  // namespace corona
