//! The producer-side contract between kernels and the simulator.

use crate::TraceSink;
use serde::{Deserialize, Serialize};

/// Per-loop-iteration instruction budget, used by the simulator's core
/// timing model to charge compute cycles alongside memory references.
///
/// The counts describe *one* iteration of the innermost loop body as the
/// compiler would emit it for a scalar in-order machine: integer ALU ops
/// (address arithmetic, loop control), floating-point ops, and whether the
/// body is auto-vectorizable (contiguous, no loop-carried dependence) so
/// that wide machines can retire several iterations per issue group.
///
/// # Example
///
/// ```
/// use membound_trace::IterCost;
///
/// // STREAM triad: a[i] = b[i] + d * c[i]  — one FMA (2 flops), two loads,
/// // one store, ~2 int ops for addressing; vectorizable over f64 elements.
/// let cost = IterCost::new(2, 2).mem(2, 1).elem_bytes(8).vectorizable(true);
/// assert_eq!(cost.flops, 2);
/// assert_eq!(cost.loads, 2);
/// assert!(cost.vectorizable);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterCost {
    /// Integer/address ALU operations per iteration (loop control included).
    pub int_ops: u32,
    /// Floating-point operations per iteration (an FMA counts as 2).
    pub flops: u32,
    /// Load instructions issued per iteration.
    pub loads: u32,
    /// Store instructions issued per iteration.
    pub stores: u32,
    /// Width of the data element the loop processes, in bytes. Determines
    /// how many iterations a vector register covers on wide machines.
    pub elem_bytes: u32,
    /// Whether a vectorizing compiler would vectorize the loop body.
    pub vectorizable: bool,
}

impl Default for IterCost {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl IterCost {
    /// Create a cost with the given integer-op and flop counts and no
    /// memory operations, 8-byte elements, not vectorizable.
    #[must_use]
    pub fn new(int_ops: u32, flops: u32) -> Self {
        Self {
            int_ops,
            flops,
            loads: 0,
            stores: 0,
            elem_bytes: 8,
            vectorizable: false,
        }
    }

    /// Set the per-iteration load and store instruction counts.
    #[must_use]
    pub fn mem(mut self, loads: u32, stores: u32) -> Self {
        self.loads = loads;
        self.stores = stores;
        self
    }

    /// Set the element width in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    #[must_use]
    pub fn elem_bytes(mut self, bytes: u32) -> Self {
        assert!(bytes > 0, "element width must be nonzero");
        self.elem_bytes = bytes;
        self
    }

    /// Mark the loop body as (non-)vectorizable.
    #[must_use]
    pub fn vectorizable(mut self, yes: bool) -> Self {
        self.vectorizable = yes;
        self
    }

    /// Total scalar operations per iteration, memory ops included.
    #[must_use]
    pub fn total_ops(&self) -> u32 {
        self.int_ops + self.flops + self.loads + self.stores
    }
}

/// A single-threaded reference generator over an outer iteration space.
///
/// Implementors emit references in program order for one thread, and a
/// range of outer iterations can be emitted on its own. The synthetic
/// generators of [`crate::synthetic`] implement it; the paper's kernels
/// do not — they reach the simulator through `membound-core`'s
/// `TracedKernel` contract, which adds the per-core plan.
pub trait TracedProgram {
    /// Total number of outer-loop iterations in the kernel's parallel
    /// dimension. Sequential kernels return their single outer extent.
    fn outer_iterations(&self) -> u64;

    /// Emit the references performed by outer iterations `lo..hi`.
    fn trace_range<S: TraceSink + ?Sized>(&self, sink: &mut S, lo: u64, hi: u64);

    /// Emit the whole kernel into `sink` as a single thread.
    fn trace_all<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        self.trace_range(sink, 0, self.outer_iterations());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuffer;

    struct Fill {
        base: u64,
        n: u64,
    }

    impl TracedProgram for Fill {
        fn outer_iterations(&self) -> u64 {
            self.n
        }
        fn trace_range<S: TraceSink + ?Sized>(&self, sink: &mut S, lo: u64, hi: u64) {
            for i in lo..hi {
                sink.store(self.base + i * 8, 8);
            }
            sink.compute(IterCost::new(1, 0), hi - lo);
        }
    }

    #[test]
    fn trace_all_covers_every_iteration() {
        let p = Fill {
            base: 0x1000,
            n: 16,
        };
        let mut buf = TraceBuffer::new();
        p.trace_all(&mut buf);
        assert_eq!(buf.len(), 16);
        assert_eq!(buf.stats().bytes_stored, 128);
        assert_eq!(buf.stats().compute_iters, 16);
    }

    #[test]
    fn trace_range_is_a_contiguous_slice_of_trace_all() {
        let p = Fill { base: 0, n: 10 };
        let mut whole = TraceBuffer::new();
        p.trace_all(&mut whole);
        let mut part = TraceBuffer::new();
        p.trace_range(&mut part, 3, 7);
        assert_eq!(&whole.as_slice()[3..7], part.as_slice());
    }

    #[test]
    fn iter_cost_totals_and_builder() {
        let c = IterCost::new(3, 2).vectorizable(true);
        assert_eq!(c.total_ops(), 5);
        assert!(c.vectorizable);
        assert_eq!(IterCost::default().total_ops(), 0);
    }
}
