//! Memory-access traces for the `membound` simulator.
//!
//! The kernels in `membound-core` exist in two forms: a *native* form that
//! really executes on the host, and a *traced* form that emits the same
//! sequence of memory references into a [`TraceSink`]. The simulator in
//! `membound-sim` consumes those references and charges them against a
//! device model (caches, TLBs, prefetchers, DRAM channels).
//!
//! This crate defines:
//!
//! * [`MemAccess`] — a single load/store/instruction-fetch reference,
//! * [`AccessKind`] — the reference kind,
//! * [`TraceSink`] — the consumer-side trait the simulator implements,
//! * [`TraceBuffer`] — an in-memory recording sink,
//! * [`IterCost`] — the per-iteration instruction budget that accompanies a
//!   stream of references so the core timing model can charge compute cycles,
//! * [`TracedProgram`] — a single-threaded generator over an outer
//!   iteration space, implemented by
//! * [`synthetic`] — stride/random/pointer-chase reference generators used by
//!   the simulator's own test-suite and by the STREAM-style calibration runs.
//!
//! # Example
//!
//! ```
//! use membound_trace::{AccessKind, MemAccess, TraceBuffer, TraceSink};
//!
//! let mut buf = TraceBuffer::new();
//! buf.access(MemAccess::load(0x1000, 8));
//! buf.access(MemAccess::store(0x2000, 8));
//! assert_eq!(buf.len(), 2);
//! assert_eq!(buf.stats().bytes_loaded, 8);
//! assert_eq!(buf.stats().bytes_stored, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod buffer;
pub mod ir;
mod program;
pub mod reuse;
pub mod synthetic;

pub use access::{AccessKind, MemAccess};
pub use buffer::{TraceBuffer, TraceStats};
pub use ir::{IrStats, Recorder, RecordingSink, TraceOp};
pub use program::{IterCost, TracedProgram};

/// A consumer of memory references.
///
/// Implemented by [`TraceBuffer`] (records everything) and by the simulator's
/// per-core pipelines (charges each reference against the memory hierarchy as
/// it arrives, without materializing the trace).
pub trait TraceSink {
    /// Consume one memory reference.
    fn access(&mut self, access: MemAccess);

    /// Charge the compute cost of `iters` loop iterations, each costing
    /// `cost`.
    ///
    /// Sinks that only care about traffic (like [`TraceBuffer`]) may ignore
    /// this; timing sinks convert it into issue-slots.
    fn compute(&mut self, cost: IterCost, iters: u64) {
        let _ = (cost, iters);
    }

    /// Mark a synchronization point (e.g. an OpenMP-style barrier at the end
    /// of a parallel region). Timing sinks align their clock here.
    fn barrier(&mut self) {}

    /// Convenience: a `size`-byte load at `addr`.
    fn load(&mut self, addr: u64, size: u32) {
        self.access(MemAccess::load(addr, size));
    }

    /// Convenience: a `size`-byte store at `addr`.
    fn store(&mut self, addr: u64, size: u32) {
        self.access(MemAccess::store(addr, size));
    }

    /// Consume a contiguous unit-stride run over `[addr, addr + len)`;
    /// `write` selects stores over loads.
    ///
    /// The default splits the run into one [`MemAccess`] probe per
    /// 64-byte cache line touched (sizes exact, so byte-traffic
    /// statistics are preserved) and dispatches each through
    /// [`TraceSink::access`]. Simulating sinks may override it to process
    /// the whole run in bulk — amortizing address translation per page
    /// and probing per line instead of per access — as long as every
    /// observable statistic stays identical to the per-probe default.
    fn access_range(&mut self, addr: u64, len: u64, write: bool) {
        emit_range(self, addr, len, write);
    }

    /// Emit a contiguous read of `[addr, addr + len)` as one line-granular
    /// probe per 64-byte cache line touched.
    ///
    /// Kernels use this for unit-stride inner loops: the cache model only
    /// cares about which lines are touched in which order, and the issue
    /// cost of the individual scalar loads is charged separately through
    /// [`TraceSink::compute`].
    fn load_range(&mut self, addr: u64, len: u64) {
        self.access_range(addr, len, false);
    }

    /// Emit a contiguous write of `[addr, addr + len)` as one line-granular
    /// probe per 64-byte cache line touched. See [`TraceSink::load_range`].
    fn store_range(&mut self, addr: u64, len: u64) {
        self.access_range(addr, len, true);
    }

    /// Consume a constant-stride batch: `count` references of
    /// `access_size` bytes each, element `i` at
    /// `base + stride_bytes * i` (wrapping; `stride_bytes` may be
    /// negative or zero). `write` selects stores over loads.
    ///
    /// The default dispatches one [`MemAccess`] per element through
    /// [`TraceSink::access`], in index order — semantically identical to
    /// the scalar loop it replaces. Simulating sinks may override it to
    /// execute the whole batch in bulk (amortizing translation over
    /// same-page spans, fusing prefetcher updates), as long as every
    /// observable statistic stays identical to the per-element default.
    fn access_strided(
        &mut self,
        base: u64,
        stride_bytes: i64,
        count: u64,
        access_size: u32,
        write: bool,
    ) {
        emit_strided(self, base, stride_bytes, count, access_size, write);
    }

    /// Consume a constant-stride batch of read-modify-write pairs: for
    /// each of the `count` elements, a load at
    /// `base + stride_bytes * i` immediately followed by a store to the
    /// same address (the transpose swap's column-side pattern).
    ///
    /// The default dispatches the load and the store per element through
    /// [`TraceSink::access`], preserving the exact interleaving of the
    /// scalar emission it replaces.
    fn access_strided_rmw(&mut self, base: u64, stride_bytes: i64, count: u64, access_size: u32) {
        for i in 0..count {
            let addr = strided_addr(base, stride_bytes, i);
            self.access(MemAccess::load(addr, access_size));
            self.access(MemAccess::store(addr, access_size));
        }
    }
}

/// Granularity of range probes: one probe per this many bytes. Matches the
/// 64-byte cache lines used by all four devices in the paper.
pub const PROBE_LINE_BYTES: u64 = 64;

/// Address of element `i` in a constant-stride batch (wrapping, so
/// negative strides and end-of-address-space bases are well-defined).
#[must_use]
pub fn strided_addr(base: u64, stride_bytes: i64, i: u64) -> u64 {
    base.wrapping_add_signed(stride_bytes.wrapping_mul(i as i64))
}

fn emit_strided<S: TraceSink + ?Sized>(
    sink: &mut S,
    base: u64,
    stride_bytes: i64,
    count: u64,
    access_size: u32,
    write: bool,
) {
    for i in 0..count {
        let addr = strided_addr(base, stride_bytes, i);
        if write {
            sink.access(MemAccess::store(addr, access_size));
        } else {
            sink.access(MemAccess::load(addr, access_size));
        }
    }
}

fn emit_range<S: TraceSink + ?Sized>(sink: &mut S, addr: u64, len: u64, write: bool) {
    let end = addr.saturating_add(len);
    let mut cur = addr;
    while cur < end {
        // `|` then saturate instead of `(cur / LINE + 1) * LINE`: the
        // latter overflows for addresses in the top line of the address
        // space (the same clamp `MemAccess::lines()` uses).
        let line_end = (cur | (PROBE_LINE_BYTES - 1)).saturating_add(1);
        let stop = line_end.min(end);
        let size = (stop - cur) as u32;
        if write {
            sink.access(MemAccess::store(cur, size));
        } else {
            sink.access(MemAccess::load(cur, size));
        }
        cur = stop;
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn access(&mut self, access: MemAccess) {
        (**self).access(access);
    }
    fn compute(&mut self, cost: IterCost, iters: u64) {
        (**self).compute(cost, iters);
    }
    fn barrier(&mut self) {
        (**self).barrier();
    }
    fn access_range(&mut self, addr: u64, len: u64, write: bool) {
        (**self).access_range(addr, len, write);
    }
    fn access_strided(
        &mut self,
        base: u64,
        stride_bytes: i64,
        count: u64,
        access_size: u32,
        write: bool,
    ) {
        (**self).access_strided(base, stride_bytes, count, access_size, write);
    }
    fn access_strided_rmw(&mut self, base: u64, stride_bytes: i64, count: u64, access_size: u32) {
        (**self).access_strided_rmw(base, stride_bytes, count, access_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_through_mut_ref_delegates() {
        let mut buf = TraceBuffer::new();
        {
            let sink: &mut dyn TraceSink = &mut buf;
            sink.load(0x10, 4);
            sink.store(0x20, 4);
            sink.barrier();
        }
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn load_range_splits_on_line_boundaries() {
        let mut buf = TraceBuffer::new();
        buf.load_range(60, 72); // spans lines 0, 1 and 2
        let sizes: Vec<u32> = buf.iter().map(|a| a.size).collect();
        assert_eq!(sizes, vec![4, 64, 4]);
        assert_eq!(buf.stats().bytes_loaded, 72);
        let lines: Vec<u64> = buf.iter().map(|a| a.line(64)).collect();
        assert_eq!(lines, vec![0, 1, 2]);
    }

    #[test]
    fn aligned_range_emits_full_line_probes() {
        let mut buf = TraceBuffer::new();
        buf.store_range(128, 128);
        assert_eq!(buf.len(), 2);
        assert!(buf.iter().all(|a| a.size == 64 && a.kind.is_write()));
        assert_eq!(buf.stats().bytes_stored, 128);
    }

    #[test]
    fn tiny_range_within_one_line_is_one_probe() {
        let mut buf = TraceBuffer::new();
        buf.load_range(10, 8);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.as_slice()[0].size, 8);
    }

    #[test]
    fn empty_range_emits_nothing() {
        let mut buf = TraceBuffer::new();
        buf.load_range(100, 0);
        assert!(buf.is_empty());
    }

    /// `load_range`/`store_range` must route through `access_range`, so a
    /// sink that overrides it sees every range — including calls made
    /// through a `&mut` reference.
    #[test]
    fn range_overrides_are_reachable_through_mut_refs() {
        struct Counting {
            ranges: Vec<(u64, u64, bool)>,
        }
        impl TraceSink for Counting {
            fn access(&mut self, _access: MemAccess) {
                panic!("bulk sink must not see per-probe accesses");
            }
            fn access_range(&mut self, addr: u64, len: u64, write: bool) {
                self.ranges.push((addr, len, write));
            }
        }
        let mut sink = Counting { ranges: Vec::new() };
        {
            let via_ref: &mut Counting = &mut sink;
            via_ref.load_range(0, 128);
            via_ref.store_range(64, 64);
        }
        sink.access_range(128, 8, false);
        assert_eq!(
            sink.ranges,
            vec![(0, 128, false), (64, 64, true), (128, 8, false)]
        );
    }

    /// Regression: `emit_range` computed the next line boundary as
    /// `(cur / 64 + 1) * 64`, which overflows for addresses in the top
    /// cache line of the address space (debug panic, release hang via
    /// `stop - cur` underflow). The saturating form clamps like
    /// `MemAccess::lines()`.
    #[test]
    fn range_in_top_line_of_address_space_terminates() {
        let mut buf = TraceBuffer::new();
        buf.load_range(u64::MAX - 8, 16);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.as_slice()[0].addr, u64::MAX - 8);
        assert_eq!(buf.as_slice()[0].size, 8);
    }

    /// The per-element default of `access_strided` must be
    /// probe-for-probe identical to the scalar loop it replaces, for
    /// positive, negative and zero strides.
    #[test]
    fn strided_default_matches_scalar_loop() {
        for &(base, stride) in &[
            (0x1000u64, 128i64),
            (0x8000, -640),
            (0x2000, 0),
            (u64::MAX - 100, 24),
        ] {
            let mut batched = TraceBuffer::new();
            batched.access_strided(base, stride, 9, 8, false);
            batched.access_strided(base, stride, 9, 8, true);
            batched.access_strided_rmw(base, stride, 9, 8);

            let mut scalar = TraceBuffer::new();
            for i in 0..9u64 {
                scalar.load(strided_addr(base, stride, i), 8);
            }
            for i in 0..9u64 {
                scalar.store(strided_addr(base, stride, i), 8);
            }
            for i in 0..9u64 {
                let addr = strided_addr(base, stride, i);
                scalar.load(addr, 8);
                scalar.store(addr, 8);
            }
            assert_eq!(
                batched.as_slice(),
                scalar.as_slice(),
                "base {base:#x} stride {stride}"
            );
        }
    }

    /// Strided batches must route through `access_strided`, so a sink
    /// that overrides it sees every batch — including through `&mut`.
    #[test]
    fn strided_overrides_are_reachable_through_mut_refs() {
        struct Counting {
            batches: Vec<(u64, i64, u64, u32, bool)>,
        }
        impl TraceSink for Counting {
            fn access(&mut self, _access: MemAccess) {
                panic!("bulk sink must not see per-element accesses");
            }
            fn access_strided(
                &mut self,
                base: u64,
                stride: i64,
                count: u64,
                size: u32,
                write: bool,
            ) {
                self.batches.push((base, stride, count, size, write));
            }
            fn access_strided_rmw(&mut self, base: u64, stride: i64, count: u64, size: u32) {
                self.batches.push((base, stride, count, size, true));
            }
        }
        let mut sink = Counting {
            batches: Vec::new(),
        };
        {
            let via_ref: &mut Counting = &mut sink;
            via_ref.access_strided(0x100, 64, 4, 8, false);
            via_ref.access_strided_rmw(0x200, -64, 4, 8);
        }
        assert_eq!(
            sink.batches,
            vec![(0x100, 64, 4, 8, false), (0x200, -64, 4, 8, true)]
        );
    }
}
