#pragma once

// Thread-safety annotation vocabulary. The macros expand to clang's
// thread-safety-analysis attributes when that compiler is in use and to
// nothing everywhere else, so annotating a type costs nothing on gcc.
// Clang's `-Wthread-safety` (the CI `thread-safety` job runs it with
// -Werror=thread-safety) verifies the declarations against actual lock
// usage, including re-acquiring a held lock and unbalanced
// acquire/release. The vocabulary deliberately mirrors the names in the
// clang documentation (capability, guarded_by, acquire, release) rather
// than the older lockable/exclusive_lock spelling, and holds only the
// macros the tree uses.
//
// ff-lint's `unguarded-shared-state` rule requires every non-atomic,
// non-const data member of a mutex-owning class to carry FF_GUARDED_BY /
// FF_PT_GUARDED_BY (or an explicit `// ff-lint: allow(...)`), so the
// analysis has something to verify.
//
// See ff/util/sync.h for the annotated Mutex / MutexLock / CondVar types
// that make the analysis effective on every standard library (libstdc++'s
// std::mutex carries no capability attributes).

#if defined(__clang__)
#define FF_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FF_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a capability (a lock). `x` is the capability kind
/// string, e.g. "mutex".
#define FF_CAPABILITY(x) FF_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases
/// a capability.
#define FF_SCOPED_CAPABILITY FF_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the capability.
#define FF_GUARDED_BY(x) FF_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the capability (the
/// pointer itself may be freely readable, e.g. when const).
#define FF_PT_GUARDED_BY(x) FF_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held on entry (and does not
/// release it).
#define FF_REQUIRES(...) \
  FF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define FF_ACQUIRE(...) \
  FF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases a held capability.
#define FF_RELEASE(...) \
  FF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function must NOT be called while holding the capability (it acquires
/// it internally; calling with it held would self-deadlock).
#define FF_EXCLUDES(...) FF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
