//! Deterministic fault injection for crash-safety tests.
//!
//! Long experiment runs must survive crashes (see DESIGN.md §11), and
//! "survive" is only testable if a crash can be *produced* on demand at
//! an exact, repeatable point. A [`Failpoint`] names one injection site
//! (`"cell"` is the experiment engine's per-attempt site; `"cache"`
//! fires right after a result-cache object write, see
//! DESIGN.md §12), one index at that site, and one [`FailAction`] to
//! perform when the site is hit:
//!
//! * `panic` — unwind, exactly like a simulation bug; exercises panic
//!   containment, the retry policy, and `status: "failed"` records;
//! * `abort` — kill the whole process without unwinding, exactly like
//!   `kill -9`/OOM/power loss; exercises truncated-run-log recovery and
//!   `--resume` (only usable from a child process, by nature);
//! * `delay` — sleep a fixed number of milliseconds; exercises the
//!   per-cell deadline without depending on real workload timing.
//!
//! Failpoints are data, not globals: tests construct one with
//! [`Failpoint::parse`] and hand it to the layer under test, so
//! in-process tests stay deterministic and parallel-safe. Figure
//! binaries additionally read one from the `MEMBOUND_FAILPOINT`
//! environment variable ([`Failpoint::from_env`]), which is how CI
//! aborts a `fig2_transpose` run mid-matrix from the outside. The layer
//! costs nothing when no failpoint is configured — the engine holds an
//! `Option<Failpoint>` that is `None` outside tests and CI.
//!
//! # Spec grammar
//!
//! ```text
//! <site>:<action>@<index>[x<max_fires>]
//! action := panic | abort | delay=<millis>
//! ```
//!
//! Examples: `cell:panic@5` (every attempt of cell 5 panics),
//! `cell:panic@5x1` (only the first attempt panics — a retry then
//! succeeds), `cell:abort@19` (the process dies when cell 19 starts),
//! `cell:delay=250@3` (cell 3 sleeps 250 ms before simulating).
//!
//! Degenerate specs are rejected at parse time rather than silently
//! testing nothing: a fire count of `x0` can never fire, and a delay
//! longer than [`MAX_DELAY_MS`] would wedge a deadline-bearing daemon
//! worker for longer than any test legitimately needs (a delay is a
//! *sleep on a leased worker slot* — nothing can preempt it).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Longest delay a `delay=<millis>` spec may request (10 minutes).
///
/// A failpoint delay occupies a worker slot non-preemptibly; anything
/// longer than this is a typo (e.g. nanoseconds pasted as milliseconds)
/// that would wedge a daemon past every per-cell deadline.
pub const MAX_DELAY_MS: u64 = 600_000;

/// What a triggered failpoint does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a recognizable message (unwinds; containable).
    Panic,
    /// `std::process::abort()` — no unwinding, no destructors, exactly
    /// like a power cut. Only meaningful across a process boundary.
    Abort,
    /// Sleep this many milliseconds, then continue normally.
    DelayMs(u64),
}

/// One armed injection point; cheap to clone, clones share the fire
/// counter (so retries of the same cell consume the same allowance).
#[derive(Debug, Clone)]
pub struct Failpoint {
    site: String,
    index: u64,
    action: FailAction,
    max_fires: u32,
    fired: Arc<AtomicU32>,
}

impl Failpoint {
    /// Parse a failpoint spec (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first grammar
    /// violation.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (head, tail) = spec
            .split_once('@')
            .ok_or_else(|| format!("failpoint {spec:?}: expected <site>:<action>@<index>"))?;
        let (site, action_str) = head
            .split_once(':')
            .ok_or_else(|| format!("failpoint {spec:?}: expected <site>:<action> before `@`"))?;
        if site.is_empty() {
            return Err(format!("failpoint {spec:?}: empty site name"));
        }
        let action = match action_str {
            "panic" => FailAction::Panic,
            "abort" => FailAction::Abort,
            other => match other.strip_prefix("delay=") {
                Some(ms) => {
                    let millis: u64 = ms.parse().map_err(|_| {
                        format!("failpoint {spec:?}: bad delay milliseconds {ms:?}")
                    })?;
                    if millis > MAX_DELAY_MS {
                        return Err(format!(
                            "failpoint {spec:?}: delay {millis} ms exceeds the \
                                 {MAX_DELAY_MS} ms maximum (a delay holds a worker \
                                 slot non-preemptibly)"
                        ));
                    }
                    FailAction::DelayMs(millis)
                }
                None => {
                    return Err(format!(
                        "failpoint {spec:?}: unknown action {other:?} \
                         (expected panic, abort, or delay=<millis>)"
                    ))
                }
            },
        };
        let (index_str, max_fires) = match tail.split_once('x') {
            Some((idx, count)) => (
                idx,
                count
                    .parse()
                    .map_err(|_| format!("failpoint {spec:?}: bad fire count {count:?}"))?,
            ),
            None => (tail, u32::MAX),
        };
        if max_fires == 0 {
            return Err(format!("failpoint {spec:?}: fire count must be at least 1"));
        }
        let index = index_str
            .parse()
            .map_err(|_| format!("failpoint {spec:?}: bad index {index_str:?}"))?;
        Ok(Self {
            site: site.to_string(),
            index,
            action,
            max_fires,
            fired: Arc::new(AtomicU32::new(0)),
        })
    }

    /// The failpoint armed by the `MEMBOUND_FAILPOINT` environment
    /// variable, if any.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec: a fault-injection run with a typo'd
    /// failpoint would otherwise silently test nothing.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let spec = std::env::var("MEMBOUND_FAILPOINT").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match Self::parse(spec.trim()) {
            Ok(fp) => Some(fp),
            Err(e) => panic!("MEMBOUND_FAILPOINT: {e}"),
        }
    }

    /// Site this failpoint is armed at.
    #[must_use]
    pub fn site(&self) -> &str {
        &self.site
    }

    /// Index within the site this failpoint fires at.
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The armed action.
    #[must_use]
    pub fn action(&self) -> FailAction {
        self.action
    }

    /// How many times the failpoint has fired so far.
    #[must_use]
    pub fn fires(&self) -> u32 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Evaluate the failpoint at (`site`, `index`): a no-op unless both
    /// match the armed point and the fire allowance is not exhausted, in
    /// which case the armed action runs — which may panic, abort the
    /// process, or sleep.
    ///
    /// # Panics
    ///
    /// Panics (deliberately) when the armed action is [`FailAction::Panic`]
    /// and the point matches.
    pub fn check(&self, site: &str, index: u64) {
        if site != self.site || index != self.index {
            return;
        }
        // Claim a fire slot atomically so concurrent attempts cannot
        // overshoot max_fires.
        if self.fired.fetch_add(1, Ordering::AcqRel) >= self.max_fires {
            return;
        }
        match self.action {
            FailAction::Panic => panic!("failpoint {site}:{index} injected panic"),
            FailAction::Abort => {
                // Flush nothing: the whole point is to die like a crash.
                eprintln!("failpoint {site}:{index} aborting process");
                std::process::abort();
            }
            FailAction::DelayMs(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn specs_parse() {
        let fp = Failpoint::parse("cell:panic@5").unwrap();
        assert_eq!(fp.site(), "cell");
        assert_eq!(fp.index(), 5);
        assert_eq!(fp.action(), FailAction::Panic);

        let fp = Failpoint::parse("cell:abort@19").unwrap();
        assert_eq!(fp.action(), FailAction::Abort);

        let fp = Failpoint::parse("cell:delay=250@3").unwrap();
        assert_eq!(fp.action(), FailAction::DelayMs(250));

        let fp = Failpoint::parse("cell:panic@5x2").unwrap();
        assert_eq!(fp.index(), 5);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for bad in [
            "",
            "cell",
            "cell:panic",
            "panic@5",
            "cell:explode@5",
            "cell:panic@x",
            "cell:panic@5x0",
            "cell:delay=abc@1",
            "cell:delay=600001@1",
        ] {
            let err = Failpoint::parse(bad).unwrap_err();
            assert!(err.contains("failpoint"), "{bad:?} -> {err}");
        }
    }

    /// The two degenerate shapes a daemon must refuse up front: a fire
    /// count that can never fire, and a delay long enough to wedge a
    /// worker past any deadline. Both errors must say *why*.
    #[test]
    fn degenerate_specs_are_rejected_with_specific_errors() {
        let err = Failpoint::parse("cache:panic@3x0").unwrap_err();
        assert!(err.contains("fire count must be at least 1"), "{err}");

        let err = Failpoint::parse(&format!("cell:delay={}@0", MAX_DELAY_MS + 1)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(err.contains(&MAX_DELAY_MS.to_string()), "{err}");

        // The boundary itself is legal.
        let fp = Failpoint::parse(&format!("cell:delay={MAX_DELAY_MS}@0")).unwrap();
        assert_eq!(fp.action(), FailAction::DelayMs(MAX_DELAY_MS));
        // So is u64::MAX rejected as unparseable-overflow, not accepted.
        assert!(Failpoint::parse("cell:delay=18446744073709551616@0").is_err());
    }

    #[test]
    fn fires_only_at_the_armed_point() {
        let fp = Failpoint::parse("cell:panic@2").unwrap();
        fp.check("cell", 0);
        fp.check("cell", 1);
        fp.check("other", 2);
        assert_eq!(fp.fires(), 0);
        let err = catch_unwind(AssertUnwindSafe(|| fp.check("cell", 2)));
        assert!(err.is_err(), "armed point must panic");
        assert_eq!(fp.fires(), 1);
    }

    #[test]
    fn fire_allowance_is_consumed_across_clones() {
        let fp = Failpoint::parse("cell:panic@0x2").unwrap();
        let clone = fp.clone();
        assert!(catch_unwind(AssertUnwindSafe(|| fp.check("cell", 0))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| clone.check("cell", 0))).is_err());
        // Allowance exhausted: the third hit is a no-op.
        clone.check("cell", 0);
        assert_eq!(fp.fires(), 3, "hits are counted even past the allowance");
    }

    #[test]
    fn delay_returns_control() {
        let fp = Failpoint::parse("cell:delay=1@0").unwrap();
        fp.check("cell", 0);
        assert_eq!(fp.fires(), 1);
    }
}
