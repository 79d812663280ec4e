//! Property tests for the trace substrate.

use membound_trace::synthetic::{PointerChase, RandomAccess, StridedSweep};
use membound_trace::{MemAccess, TraceBuffer, TraceSink, TracedProgram};
use proptest::prelude::*;

proptest! {
    /// `load_range` preserves byte counts exactly and never emits a probe
    /// crossing a line boundary.
    #[test]
    fn load_range_preserves_bytes_and_respects_lines(
        addr in 0u64..1_000_000,
        len in 0u64..4096,
    ) {
        let mut buf = TraceBuffer::new();
        buf.load_range(addr, len);
        prop_assert_eq!(buf.stats().bytes_loaded, len);
        for a in buf.iter() {
            let first_line = a.addr / 64;
            let last_line = (a.end().saturating_sub(1)).max(a.addr) / 64;
            prop_assert_eq!(first_line, last_line, "probe must stay in one line");
        }
        // Probes are contiguous and in order.
        let mut expected = addr;
        for a in buf.iter() {
            prop_assert_eq!(a.addr, expected);
            expected = a.end();
        }
        if len > 0 {
            prop_assert_eq!(expected, addr + len);
        }
    }

    /// `lines()` yields exactly the lines the byte range covers.
    #[test]
    fn lines_cover_the_access(addr in 0u64..1 << 40, size in 1u32..256) {
        let a = MemAccess::load(addr, size);
        let lines: Vec<u64> = a.lines(64).collect();
        prop_assert_eq!(*lines.first().unwrap(), addr / 64);
        prop_assert_eq!(*lines.last().unwrap(), (addr + u64::from(size) - 1) / 64);
        // Consecutive.
        for w in lines.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
    }

    /// Replaying a recorded buffer reproduces it bit-exactly.
    #[test]
    fn replay_round_trips(accesses in proptest::collection::vec(
        (0u64..1 << 30, 1u32..64, any::<bool>()), 0..200)
    ) {
        let mut original = TraceBuffer::new();
        for (addr, size, write) in accesses {
            if write {
                original.store(addr, size);
            } else {
                original.load(addr, size);
            }
        }
        let mut replayed = TraceBuffer::new();
        original.replay_into(&mut replayed);
        prop_assert_eq!(original.as_slice(), replayed.as_slice());
        prop_assert_eq!(original.stats().bytes_total(), replayed.stats().bytes_total());
    }

    /// Range splitting composes for every synthetic generator.
    #[test]
    fn synthetic_ranges_compose(
        count in 1u64..500,
        split in 0u64..500,
        stride in -512i64..512,
    ) {
        prop_assume!(stride != 0);
        let split = split.min(count);
        let sweep = StridedSweep::new(1 << 20, count, 8, stride);
        let chase = PointerChase::new(1 << 21, 64, 128, count);
        let random = RandomAccess::new(1 << 22, 1 << 16, count, 8);

        fn check<P: TracedProgram>(p: &P, split: u64, count: u64) -> Result<(), TestCaseError> {
            let mut whole = TraceBuffer::new();
            p.trace_all(&mut whole);
            let mut parts = TraceBuffer::new();
            p.trace_range(&mut parts, 0, split);
            p.trace_range(&mut parts, split, count);
            prop_assert_eq!(whole.as_slice(), parts.as_slice());
            Ok(())
        }
        check(&sweep, split, count)?;
        check(&chase, split, count)?;
        check(&random, split, count)?;
    }

    /// A sweep loads every element's bytes exactly once.
    #[test]
    fn sweep_footprint_matches_trace(count in 1u64..300) {
        let sweep = StridedSweep::new(0, count, 8, 64);
        let mut buf = TraceBuffer::new();
        sweep.trace_all(&mut buf);
        prop_assert_eq!(buf.stats().bytes_loaded, count * 8);
        prop_assert_eq!(buf.stats().loads, count);
    }
}
