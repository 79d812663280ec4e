//! Host/process primitives for multi-process coordination: an advisory
//! file lock and a signal-driven shutdown flag.
//!
//! Both exist because one process became many: the result cache
//! (DESIGN.md §12) was only mutated by a single process per directory
//! until `membound-serve` put a long-running daemon *and* ad-hoc
//! `membound-cli cache gc` invocations on the same store, and a daemon
//! must turn `SIGTERM` into a graceful drain instead of the default
//! instant kill.
//!
//! Neither primitive can come from a crate (the workspace builds fully
//! offline), and neither is exposed by `std` under the workspace's
//! minimum Rust version, so both are implemented directly against the
//! C library that is linked into every Rust binary anyway. On
//! non-Unix targets they degrade explicitly: [`FsLock`] becomes a
//! no-op (single-process semantics, exactly the pre-daemon behaviour)
//! and [`ShutdownFlag::install`] arms nothing.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// An advisory, exclusive, cross-process file lock, released on drop.
///
/// Built on `flock(2)`: the lock is tied to an open file description,
/// so the kernel releases it automatically when the holder exits *or
/// aborts* — a crashed daemon can never leave the cache wedged, which
/// is the property a create-exclusive lockfile protocol cannot give.
/// Lock acquisition blocks until the current holder releases; critical
/// sections under it are short (one object write, or a `gc` walk), so
/// waiting beats failing.
///
/// Advisory means exactly that: only callers that take the lock are
/// serialized. The result cache takes it to insert, to `gc`, and to
/// write its format marker once at open; its job there is to stop a
/// `gc` from deleting an insert's in-flight `.tmp` file. Read-only
/// paths (`lookup`, `survey`) stay lock-free by design — every object
/// they read is self-validating.
#[derive(Debug)]
pub struct FsLock {
    // Held only for its drop side effect: closing the file releases
    // the flock. Never read after acquisition.
    #[allow(dead_code)]
    file: std::fs::File,
}

impl FsLock {
    /// Take the exclusive lock at `path` (creating the lock file if
    /// needed), blocking until it is free. The lock file's *content*
    /// is irrelevant and never written; only its file description
    /// carries the lock.
    ///
    /// # Errors
    ///
    /// I/O errors creating or opening the lock file, and any `flock`
    /// failure other than interruption (interrupted waits retry).
    pub fn acquire(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        imp::lock_exclusive(&file)?;
        Ok(Self { file })
    }
}

#[cfg(unix)]
mod imp {
    use std::os::unix::io::AsRawFd;

    const LOCK_EX: i32 = 2;

    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    pub(super) fn lock_exclusive(file: &std::fs::File) -> std::io::Result<()> {
        loop {
            // SAFETY: flock takes a valid open fd and an operation
            // flag; it mutates no user memory.
            let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX) };
            if rc == 0 {
                return Ok(());
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(unix))]
mod imp {
    // No flock outside Unix: the lock degrades to open-file semantics
    // (no cross-process exclusion), which is the documented fallback —
    // identical to the workspace's pre-daemon single-process behaviour.
    pub(super) fn lock_exclusive(_file: &std::fs::File) -> std::io::Result<()> {
        Ok(())
    }
}

// flock is per-open-file-description and Drop closes `file`, which
// releases the lock; nothing further to do.

/// A flag flipped by `SIGTERM`/`SIGINT`, polled by long-running loops
/// to drain gracefully instead of dying mid-write.
///
/// The handler does the only async-signal-safe thing possible — a
/// store to a static atomic — and the accept/scheduler loops observe
/// it at their next poll tick. [`ShutdownFlag::install`] is idempotent
/// and process-global (signals are); subsequent calls return handles
/// to the same flag.
#[derive(Debug, Clone)]
pub struct ShutdownFlag {
    requested: Arc<AtomicBool>,
}

static SIGNALLED: AtomicBool = AtomicBool::new(false);

impl ShutdownFlag {
    /// Arm `SIGTERM` and `SIGINT` to request shutdown, returning the
    /// flag to poll. On non-Unix targets no handler is installed and
    /// the flag only trips via [`ShutdownFlag::request`].
    #[must_use]
    pub fn install() -> Self {
        imp_signal::install();
        Self {
            requested: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A flag with no signal wiring, for tests and in-process servers
    /// (trip it with [`ShutdownFlag::request`]).
    #[must_use]
    pub fn manual() -> Self {
        Self {
            requested: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Request shutdown programmatically (the daemon's `shutdown`
    /// command takes this path; signals take the static one).
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested, by signal or by call.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }
}

#[cfg(unix)]
mod imp_signal {
    use super::SIGNALLED;
    use std::sync::atomic::Ordering;
    use std::sync::Once;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // `signal(2)` — handler passed and returned as a plain address
        // so the shim needs no libc types. SIG_ERR is usize::MAX.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // A store to a static atomic is async-signal-safe.
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            // SAFETY: installing a handler that only stores an atomic;
            // `on_signal` has the exact C ABI signal(2) expects.
            let handler = on_signal as *const () as usize;
            unsafe {
                signal(SIGTERM, handler);
                signal(SIGINT, handler);
            }
        });
    }
}

#[cfg(not(unix))]
mod imp_signal {
    pub(super) fn install() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("membound_sys_tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn lock_excludes_other_holders_until_dropped() {
        let path = tmp("fslock");
        let in_section = AtomicU32::new(0);
        let peak = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let guard = FsLock::acquire(&path).expect("acquire");
                        let now = in_section.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        in_section.fetch_sub(1, Ordering::SeqCst);
                        drop(guard);
                    }
                });
            }
        });
        // On Unix the lock is exclusive; elsewhere it degrades to a
        // no-op by design, so only assert exclusion where it holds.
        if cfg!(unix) {
            assert_eq!(peak.load(Ordering::SeqCst), 1, "lock must be exclusive");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_is_reentrant_per_acquisition_not_per_file() {
        let path = tmp("fslock_seq");
        let a = FsLock::acquire(&path).expect("first");
        drop(a);
        let b = FsLock::acquire(&path).expect("second after drop");
        drop(b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manual_flag_trips_only_on_request() {
        let flag = ShutdownFlag::manual();
        assert!(!flag.is_requested());
        let clone = flag.clone();
        clone.request();
        assert!(flag.is_requested(), "clones share the flag");
    }
}
