//! Synthetic reference generators.
//!
//! These are the calibration workloads: strided sweeps (STREAM-like),
//! uniform-random accesses (TLB/cache pressure) and pointer chases
//! (latency). The simulator's test-suite uses them to pin down expected
//! hit/miss behaviour, and the STREAM experiment uses [`StridedSweep`] to
//! size arrays per memory level.

use crate::{IterCost, TraceSink, TracedProgram};

/// A read or read-write sweep over a contiguous array with a fixed stride.
///
/// `stride_bytes` may be negative to sweep backwards (exercising the
/// backward prefetch path the C906 documents).
///
/// # Example
///
/// ```
/// use membound_trace::synthetic::StridedSweep;
/// use membound_trace::{TraceBuffer, TracedProgram};
///
/// let sweep = StridedSweep::new(0x1_0000, 64, 8, 64); // 64 refs, 64B apart
/// let mut buf = TraceBuffer::new();
/// sweep.trace_all(&mut buf);
/// assert_eq!(buf.len(), 64);
/// assert_eq!(buf.as_slice()[1].addr - buf.as_slice()[0].addr, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedSweep {
    base: u64,
    count: u64,
    access_size: u32,
    stride_bytes: i64,
    write: bool,
}

impl StridedSweep {
    /// A read sweep of `count` accesses of `access_size` bytes, starting at
    /// `base`, `stride_bytes` apart.
    ///
    /// # Panics
    ///
    /// Panics if `access_size` is zero.
    #[must_use]
    pub fn new(base: u64, count: u64, access_size: u32, stride_bytes: i64) -> Self {
        assert!(access_size > 0, "access size must be nonzero");
        Self {
            base,
            count,
            access_size,
            stride_bytes,
            write: false,
        }
    }

    /// Make the sweep store instead of load.
    #[must_use]
    pub fn writing(mut self) -> Self {
        self.write = true;
        self
    }

    /// Address of the `i`-th access.
    #[must_use]
    pub fn addr_of(&self, i: u64) -> u64 {
        self.base
            .wrapping_add_signed(self.stride_bytes.wrapping_mul(i as i64))
    }
}

impl TracedProgram for StridedSweep {
    fn outer_iterations(&self) -> u64 {
        self.count
    }

    fn trace_range<S: TraceSink + ?Sized>(&self, sink: &mut S, lo: u64, hi: u64) {
        // One batch for the whole range: the per-element default is
        // identical to the old scalar loop, and simulating sinks get to
        // execute the calibration sweep through their bulk path.
        sink.access_strided(
            self.addr_of(lo),
            self.stride_bytes,
            hi - lo,
            self.access_size,
            self.write,
        );
        let unit_stride = self.stride_bytes.unsigned_abs() == u64::from(self.access_size);
        let cost = IterCost::new(2, 0)
            .mem(u32::from(!self.write), u32::from(self.write))
            .elem_bytes(self.access_size)
            .vectorizable(unit_stride);
        sink.compute(cost, hi - lo);
    }
}

/// Uniform-pseudo-random single accesses within a window — a worst case for
/// caches, prefetchers and TLBs.
///
/// Uses a fixed-seed xorshift so traces are reproducible without pulling a
/// RNG dependency into release builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomAccess {
    base: u64,
    window_bytes: u64,
    count: u64,
    access_size: u32,
    seed: u64,
}

impl RandomAccess {
    /// `count` loads of `access_size` bytes at pseudo-random aligned offsets
    /// within `[base, base + window_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is smaller than one access or `access_size` is 0.
    #[must_use]
    pub fn new(base: u64, window_bytes: u64, count: u64, access_size: u32) -> Self {
        assert!(access_size > 0, "access size must be nonzero");
        assert!(
            window_bytes >= u64::from(access_size),
            "window must fit at least one access"
        );
        Self {
            base,
            window_bytes,
            count,
            access_size,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Override the xorshift seed (still deterministic per seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        assert!(seed != 0, "xorshift seed must be nonzero");
        self.seed = seed;
        self
    }

    fn xorshift(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

impl TracedProgram for RandomAccess {
    fn outer_iterations(&self) -> u64 {
        self.count
    }

    fn trace_range<S: TraceSink + ?Sized>(&self, sink: &mut S, lo: u64, hi: u64) {
        let slots = self.window_bytes / u64::from(self.access_size);
        let mut state = self.seed;
        // Fast-forward deterministically so ranges compose like trace_all.
        for _ in 0..lo {
            state = Self::xorshift(state);
        }
        for _ in lo..hi {
            state = Self::xorshift(state);
            let slot = state % slots;
            sink.load(
                self.base + slot * u64::from(self.access_size),
                self.access_size,
            );
        }
        sink.compute(
            IterCost::new(3, 0).mem(1, 0).elem_bytes(self.access_size),
            hi - lo,
        );
    }
}

/// A dependent pointer chase: each access address is derived from the
/// previous one, defeating memory-level parallelism. Used to measure
/// latency rather than bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerChase {
    base: u64,
    nodes: u64,
    node_stride: u64,
    count: u64,
}

impl PointerChase {
    /// Chase `count` hops around `nodes` nodes spaced `node_stride` bytes
    /// apart, starting at `base`.
    ///
    /// The visiting order is a fixed full-cycle permutation (stride chosen
    /// coprime with `nodes`) so every node is visited before any repeats.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn new(base: u64, nodes: u64, node_stride: u64, count: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        Self {
            base,
            nodes,
            node_stride,
            count,
        }
    }

    fn hop_stride(&self) -> u64 {
        // A large odd constant is coprime with any power-of-two node count
        // and almost always coprime otherwise; fall back to 1 if not.
        let candidate = 0x5851_f42d % self.nodes;
        let candidate = if candidate == 0 { 1 } else { candidate };
        if gcd(candidate, self.nodes) == 1 {
            candidate
        } else {
            1
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl TracedProgram for PointerChase {
    fn outer_iterations(&self) -> u64 {
        self.count
    }

    fn trace_range<S: TraceSink + ?Sized>(&self, sink: &mut S, lo: u64, hi: u64) {
        let stride = self.hop_stride();
        let mut node = (lo * stride) % self.nodes;
        for _ in lo..hi {
            sink.load(self.base + node * self.node_stride, 8);
            node = (node + stride) % self.nodes;
        }
        sink.compute(IterCost::new(1, 0).mem(1, 0), hi - lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuffer;
    use std::collections::HashSet;

    #[test]
    fn strided_sweep_addresses_are_arithmetic() {
        let s = StridedSweep::new(1000, 10, 8, 24);
        for i in 0..10 {
            assert_eq!(s.addr_of(i), 1000 + 24 * i);
        }
    }

    #[test]
    fn backward_sweep_descends() {
        let s = StridedSweep::new(1000, 5, 8, -64);
        let mut buf = TraceBuffer::new();
        s.trace_all(&mut buf);
        let addrs: Vec<u64> = buf.iter().map(|a| a.addr).collect();
        assert_eq!(addrs, vec![1000, 936, 872, 808, 744]);
    }

    #[test]
    fn writing_sweep_emits_stores() {
        let s = StridedSweep::new(0, 4, 8, 8).writing();
        let mut buf = TraceBuffer::new();
        s.trace_all(&mut buf);
        assert_eq!(buf.stats().stores, 4);
        assert_eq!(buf.stats().loads, 0);
        assert_eq!(buf.stats().bytes_stored, 32);
    }

    /// The sweep must reach bulk sinks as one `access_strided` batch per
    /// traced range, not per-element probes.
    #[test]
    fn strided_sweep_batches_through_access_strided() {
        struct Batches(Vec<(u64, i64, u64, u32, bool)>);
        impl crate::TraceSink for Batches {
            fn access(&mut self, _a: crate::MemAccess) {
                panic!("sweep must not fall back to per-element emission");
            }
            fn access_strided(
                &mut self,
                base: u64,
                stride: i64,
                count: u64,
                size: u32,
                write: bool,
            ) {
                self.0.push((base, stride, count, size, write));
            }
        }
        let s = StridedSweep::new(1000, 10, 8, -24).writing();
        let mut sink = Batches(Vec::new());
        s.trace_range(&mut sink, 2, 7);
        assert_eq!(sink.0, vec![(1000 - 48, -24, 5, 8, true)]);
    }

    #[test]
    fn random_access_stays_in_window_and_is_deterministic() {
        let r = RandomAccess::new(0x10_000, 4096, 256, 8);
        let mut a = TraceBuffer::new();
        let mut b = TraceBuffer::new();
        r.trace_all(&mut a);
        r.trace_all(&mut b);
        assert_eq!(a.as_slice(), b.as_slice());
        for acc in a.iter() {
            assert!(acc.addr >= 0x10_000);
            assert!(acc.end() <= 0x10_000 + 4096);
            assert_eq!(acc.addr % 8, 0);
        }
    }

    #[test]
    fn random_access_ranges_compose() {
        let r = RandomAccess::new(0, 1 << 20, 100, 8);
        let mut whole = TraceBuffer::new();
        r.trace_all(&mut whole);
        let mut parts = TraceBuffer::new();
        r.trace_range(&mut parts, 0, 50);
        r.trace_range(&mut parts, 50, 100);
        assert_eq!(whole.as_slice(), parts.as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let a = RandomAccess::new(0, 1 << 16, 64, 8);
        let b = a.with_seed(42);
        let mut ta = TraceBuffer::new();
        let mut tb = TraceBuffer::new();
        a.trace_all(&mut ta);
        b.trace_all(&mut tb);
        assert_ne!(ta.as_slice(), tb.as_slice());
    }

    #[test]
    #[should_panic(expected = "seed must be nonzero")]
    fn zero_seed_rejected() {
        let _ = RandomAccess::new(0, 64, 1, 8).with_seed(0);
    }

    #[test]
    fn pointer_chase_visits_all_nodes_before_repeating() {
        let p = PointerChase::new(0, 64, 64, 64);
        let mut buf = TraceBuffer::new();
        p.trace_all(&mut buf);
        let distinct: HashSet<u64> = buf.iter().map(|a| a.addr).collect();
        assert_eq!(distinct.len(), 64, "full cycle must cover every node");
    }

    #[test]
    fn pointer_chase_prime_node_count_full_cycle() {
        let p = PointerChase::new(0, 97, 64, 97);
        let mut buf = TraceBuffer::new();
        p.trace_all(&mut buf);
        let distinct: HashSet<u64> = buf.iter().map(|a| a.addr).collect();
        assert_eq!(distinct.len(), 97);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(5, 0), 5);
    }
}
