//! Loop-structured trace IR.
//!
//! [`TraceOp`] is a compact program representation of the access stream a
//! kernel emits into a [`TraceSink`]: the three leaf batch shapes the sink
//! trait already exposes (`Range`, `Strided`, `StridedRmw`), scalar
//! accesses and compute/barrier markers, plus one structured node —
//! `Repeat`, a loop nest whose body re-executes `count` times with a
//! fixed per-iteration address delta per body op.
//!
//! The defining invariant is **bit-exactness under replay**: expanding a
//! `TraceOp` with [`TraceOp::replay`] produces *exactly* the op sequence
//! that was folded into it, including any address wrap-around near the top
//! of the address space (all shift arithmetic is two's-complement
//! wrapping, matching [`strided_addr`]). The [`Recorder`] only ever folds
//! by *verified equality* — an op joins a `Repeat` only if it compares
//! equal to the shifted body op it would replay as — so recording is
//! lossless by construction, never by approximation.
//!
//! The analytic executor in `membound-sim` consumes this IR: a top-level
//! `Repeat` whose steady-state behaviour is provable is fast-forwarded by
//! exact counter multiplication; everything else (leaf ops, refused
//! loops, and nested loops inside any body) is replayed element by
//! element through the same per-element paths.

use serde::{Deserialize, Serialize};

use crate::{IterCost, MemAccess, TraceSink};

/// Maximum body length (in ops) the recorder will try to fold into a
/// `Repeat`. Longer periods are left unfolded — they replay identically,
/// just without the compact representation.
pub const MAX_FOLD_PERIOD: usize = 8;

/// Default recorder buffer capacity (in ops) before the front of the
/// buffer is drained to the output for execution.
pub const DEFAULT_RECORDER_CAP: usize = 4096;

/// One node of the loop-structured trace program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// A single scalar reference (load when `write` is false).
    Access {
        /// Virtual byte address of the first byte touched.
        addr: u64,
        /// Bytes touched.
        size: u32,
        /// Store when true, load otherwise.
        write: bool,
    },
    /// `iters` iterations of straight-line compute with per-iteration cost.
    Compute {
        /// Per-iteration instruction mix.
        cost: IterCost,
        /// Iteration count.
        iters: u64,
    },
    /// A phase boundary (synchronization point).
    Barrier,
    /// A dense byte range touched line-by-line.
    Range {
        /// First byte of the range.
        addr: u64,
        /// Length of the range in bytes.
        len: u64,
        /// Store when true.
        write: bool,
    },
    /// `count` elements of `size` bytes at a constant byte stride.
    Strided {
        /// Address of element 0.
        base: u64,
        /// Signed byte stride between consecutive elements.
        stride: i64,
        /// Element count.
        count: u64,
        /// Element size in bytes.
        size: u32,
        /// Store when true.
        write: bool,
    },
    /// `count` read-modify-write element pairs at a constant byte stride.
    StridedRmw {
        /// Address of element 0.
        base: u64,
        /// Signed byte stride between consecutive elements.
        stride: i64,
        /// Element count.
        count: u64,
        /// Element size in bytes.
        size: u32,
    },
    /// A loop nest: `body` re-executes `count` times; iteration `i`
    /// replays `body[j]` shifted by `steps[j] * i` bytes (wrapping).
    Repeat {
        /// Ops of one iteration (iteration 0's addresses).
        body: Vec<TraceOp>,
        /// Per-body-op address delta applied each iteration.
        steps: Vec<i64>,
        /// Number of iterations (>= 2 when produced by the recorder).
        count: u64,
    },
}

impl TraceOp {
    /// The op shifted by `delta` bytes (two's-complement wrapping, the
    /// same arithmetic as [`strided_addr`]). A `Repeat` shifts every body
    /// op; `Compute`/`Barrier` are unchanged.
    #[must_use]
    pub fn shifted(&self, delta: i64) -> TraceOp {
        if delta == 0 {
            return self.clone();
        }
        match self {
            TraceOp::Access { addr, size, write } => TraceOp::Access {
                addr: addr.wrapping_add_signed(delta),
                size: *size,
                write: *write,
            },
            TraceOp::Compute { .. } | TraceOp::Barrier => self.clone(),
            TraceOp::Range { addr, len, write } => TraceOp::Range {
                addr: addr.wrapping_add_signed(delta),
                len: *len,
                write: *write,
            },
            TraceOp::Strided {
                base,
                stride,
                count,
                size,
                write,
            } => TraceOp::Strided {
                base: base.wrapping_add_signed(delta),
                stride: *stride,
                count: *count,
                size: *size,
                write: *write,
            },
            TraceOp::StridedRmw {
                base,
                stride,
                count,
                size,
            } => TraceOp::StridedRmw {
                base: base.wrapping_add_signed(delta),
                stride: *stride,
                count: *count,
                size: *size,
            },
            TraceOp::Repeat { body, steps, count } => TraceOp::Repeat {
                body: body.iter().map(|op| op.shifted(delta)).collect(),
                steps: steps.clone(),
                count: *count,
            },
        }
    }

    /// If `self` is the same op as `other` with every non-address
    /// parameter equal and a single uniform address delta, return that
    /// delta (wrapping). `Compute` compares by value and yields delta 0;
    /// `Barrier` never folds. This is the recorder's fold predicate:
    /// `other.shifted(d).replay(..)` is bit-identical to `self.replay(..)`
    /// exactly when `self.delta_from(other) == Some(d)`.
    #[must_use]
    pub fn delta_from(&self, other: &TraceOp) -> Option<i64> {
        match (self, other) {
            (
                TraceOp::Access { addr, size, write },
                TraceOp::Access {
                    addr: oa,
                    size: os,
                    write: ow,
                },
            ) if size == os && write == ow => Some(addr.wrapping_sub(*oa) as i64),
            (a @ TraceOp::Compute { .. }, b @ TraceOp::Compute { .. }) if a == b => Some(0),
            (
                TraceOp::Range { addr, len, write },
                TraceOp::Range {
                    addr: oa,
                    len: ol,
                    write: ow,
                },
            ) if len == ol && write == ow => Some(addr.wrapping_sub(*oa) as i64),
            (
                TraceOp::Strided {
                    base,
                    stride,
                    count,
                    size,
                    write,
                },
                TraceOp::Strided {
                    base: ob,
                    stride: ost,
                    count: oc,
                    size: os,
                    write: ow,
                },
            ) if stride == ost && count == oc && size == os && write == ow => {
                Some(base.wrapping_sub(*ob) as i64)
            }
            (
                TraceOp::StridedRmw {
                    base,
                    stride,
                    count,
                    size,
                },
                TraceOp::StridedRmw {
                    base: ob,
                    stride: ost,
                    count: oc,
                    size: os,
                },
            ) if stride == ost && count == oc && size == os => Some(base.wrapping_sub(*ob) as i64),
            (
                TraceOp::Repeat { body, steps, count },
                TraceOp::Repeat {
                    body: obody,
                    steps: osteps,
                    count: ocount,
                },
            ) if steps == osteps && count == ocount && body.len() == obody.len() => {
                uniform_delta(body, obody)
            }
            _ => None,
        }
    }

    /// Expand the op into the sink calls it was folded from. Bit-exact:
    /// iteration `i` of a `Repeat` replays `body[j].shifted(steps[j] * i)`
    /// with wrapping multiply-and-add, which is precisely the equality the
    /// recorder verified when folding.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        match self {
            TraceOp::Access { addr, size, write } => {
                if *write {
                    sink.store(*addr, *size);
                } else {
                    sink.load(*addr, *size);
                }
            }
            TraceOp::Compute { cost, iters } => sink.compute(*cost, *iters),
            TraceOp::Barrier => sink.barrier(),
            TraceOp::Range { addr, len, write } => sink.access_range(*addr, *len, *write),
            TraceOp::Strided {
                base,
                stride,
                count,
                size,
                write,
            } => sink.access_strided(*base, *stride, *count, *size, *write),
            TraceOp::StridedRmw {
                base,
                stride,
                count,
                size,
            } => sink.access_strided_rmw(*base, *stride, *count, *size),
            TraceOp::Repeat { body, steps, count } => {
                for i in 0..*count {
                    for (op, step) in body.iter().zip(steps) {
                        op.shifted(step.wrapping_mul(i as i64)).replay(sink);
                    }
                }
            }
        }
    }

    /// Absolute byte footprint `[min, max)` touched by this op (over all
    /// iterations for `Repeat`), in `i128` so directional expansion never
    /// wraps. `None` when a sub-expression's extent cannot be computed or
    /// the op touches nothing.
    #[must_use]
    pub fn footprint(&self) -> Option<(i128, i128)> {
        match self {
            TraceOp::Access { addr, size, .. } => Some((
                i128::from(*addr),
                i128::from(*addr) + i128::from((*size).max(1)),
            )),
            TraceOp::Compute { .. } | TraceOp::Barrier => None,
            TraceOp::Range { addr, len, .. } => {
                if *len == 0 {
                    None
                } else {
                    Some((i128::from(*addr), i128::from(*addr) + i128::from(*len)))
                }
            }
            TraceOp::Strided {
                base,
                stride,
                count,
                size,
                ..
            }
            | TraceOp::StridedRmw {
                base,
                stride,
                count,
                size,
            } => {
                if *count == 0 {
                    return None;
                }
                let span = i128::from(*stride) * i128::from(*count - 1);
                let lo = i128::from(*base) + span.min(0);
                let hi = i128::from(*base) + span.max(0) + i128::from((*size).max(1));
                Some((lo, hi))
            }
            TraceOp::Repeat { body, steps, count } => {
                if *count == 0 {
                    return None;
                }
                let mut acc: Option<(i128, i128)> = None;
                for (op, step) in body.iter().zip(steps) {
                    if let Some((lo, hi)) = op.footprint() {
                        let span = i128::from(*step) * i128::from(*count - 1);
                        let lo = lo + span.min(0);
                        let hi = hi + span.max(0);
                        acc = Some(match acc {
                            Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                            None => (lo, hi),
                        });
                    }
                }
                acc
            }
        }
    }

    /// Accumulate op-kind counts and structural depth into `stats`.
    pub fn tally(&self, stats: &mut IrStats) {
        self.tally_at(stats, 1);
    }

    fn tally_at(&self, stats: &mut IrStats, depth: u32) {
        stats.max_depth = stats.max_depth.max(depth);
        match self {
            TraceOp::Access { .. } => stats.access += 1,
            TraceOp::Compute { .. } => stats.compute += 1,
            TraceOp::Barrier => stats.barrier += 1,
            TraceOp::Range { .. } => stats.range += 1,
            TraceOp::Strided { .. } => stats.strided += 1,
            TraceOp::StridedRmw { .. } => stats.strided_rmw += 1,
            TraceOp::Repeat { body, .. } => {
                stats.repeat += 1;
                for op in body {
                    op.tally_at(stats, depth + 1);
                }
            }
        }
        stats.expanded_leaves = stats.expanded_leaves.saturating_add(match self {
            TraceOp::Repeat { .. } => 0,
            _ => 1,
        });
    }
}

fn uniform_delta(a: &[TraceOp], b: &[TraceOp]) -> Option<i64> {
    let mut delta: Option<i64> = None;
    for (x, y) in a.iter().zip(b) {
        let d = x.delta_from(y)?;
        match (x, delta) {
            // Compute nodes are address-free; they are compatible with
            // any shift and must not pin the delta to 0.
            (TraceOp::Compute { .. }, _) => {}
            (_, Some(prev)) if prev != d => return None,
            (_, Some(_)) => {}
            (_, None) => delta = Some(d),
        }
    }
    Some(delta.unwrap_or(0))
}

/// Per-kind op counts and structural metrics of a trace program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct IrStats {
    pub access: u64,
    pub compute: u64,
    pub barrier: u64,
    pub range: u64,
    pub strided: u64,
    pub strided_rmw: u64,
    pub repeat: u64,
    /// Deepest nesting level seen (1 for a flat program).
    pub max_depth: u32,
    /// Number of recorded nodes that are leaves (not expansion counts).
    pub expanded_leaves: u64,
}

impl IrStats {
    /// Total recorded nodes of any kind.
    #[must_use]
    pub fn total_nodes(&self) -> u64 {
        self.access
            + self.compute
            + self.barrier
            + self.range
            + self.strided
            + self.strided_rmw
            + self.repeat
    }

    /// Tally every op of `program`.
    #[must_use]
    pub fn of(program: &[TraceOp]) -> IrStats {
        let mut stats = IrStats::default();
        for op in program {
            op.tally(&mut stats);
        }
        stats
    }
}

/// Online loop-structure recovery over a stream of [`TraceOp`]s.
///
/// `push` appends an op and greedily folds repetition at the buffer tail:
/// first by *extending* a tail `Repeat` (the incoming op is compared for
/// equality against the body op it would replay as — O(1) per op in
/// steady state), then by *creating* a `Repeat` when the last `L` ops are
/// a uniform-delta copy of the preceding `L` (`L <= MAX_FOLD_PERIOD`).
/// Folding is verified by equality, so draining and replaying the buffer
/// always reproduces the pushed stream bit-exactly, in order.
///
/// The buffer is bounded: past `cap` ops the front half is drained to the
/// output (the caller executes drained ops immediately), so memory stays
/// O(cap) regardless of stream length.
#[derive(Debug, Clone)]
pub struct Recorder {
    buf: Vec<TraceOp>,
    /// Number of body ops of the tail `Repeat`'s next iteration already
    /// matched (a partially-accepted iteration; reconstructed on spill).
    pending: usize,
    cap: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_RECORDER_CAP)
    }
}

impl Recorder {
    /// A recorder that drains to the output past `cap` buffered ops.
    #[must_use]
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            buf: Vec::new(),
            pending: 0,
            cap: cap.max(4),
        }
    }

    /// Append `op`; any ops evicted from the front of the bounded buffer
    /// are moved to `out` in stream order for immediate execution.
    pub fn push(&mut self, op: TraceOp, out: &mut Vec<TraceOp>) {
        if let Some(TraceOp::Repeat { body, steps, count }) = self.buf.last_mut() {
            if self.pending < body.len() {
                let step = steps[self.pending];
                let expected = body[self.pending].shifted(step.wrapping_mul(*count as i64));
                if op == expected {
                    self.pending += 1;
                    if self.pending == body.len() {
                        *count += 1;
                        self.pending = 0;
                    }
                    return;
                }
                if self.pending == 0 && *count == 2 {
                    // A speculative fold that never confirmed a third
                    // iteration. `delta_from` accepts *any* two same-shaped
                    // ops (the delta is unconstrained), so two unrelated
                    // loads can fold; unfolding here keeps the buffer flat
                    // until a longer period (e.g. the real loop body)
                    // proves itself.
                    self.unfold_tail();
                } else {
                    self.spill_pending();
                }
            }
        }
        self.buf.push(op);
        self.try_fold_tail();
        if self.buf.len() > self.cap {
            let drain = self.buf.len() / 2;
            out.extend(self.buf.drain(..drain));
        }
    }

    /// Move every buffered op (including a partially-matched tail
    /// iteration) to `out` in stream order.
    pub fn flush(&mut self, out: &mut Vec<TraceOp>) {
        self.spill_pending();
        out.append(&mut self.buf);
    }

    /// Re-materialize the `pending` already-matched ops of the tail
    /// `Repeat`'s unfinished iteration as plain ops after it. They were
    /// accepted by equality with `body[j].shifted(steps[j] * count)`, so
    /// that expression reconstructs them exactly.
    fn spill_pending(&mut self) {
        if self.pending == 0 {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let Some(TraceOp::Repeat { body, steps, count }) = self.buf.last() else {
            unreachable!("pending iteration without a tail Repeat");
        };
        let spill: Vec<TraceOp> = (0..pending)
            .map(|j| body[j].shifted(steps[j].wrapping_mul(*count as i64)))
            .collect();
        self.buf.extend(spill);
    }

    /// Expand the tail `Repeat{count: 2}` back into its four plain ops
    /// (both iterations). Replay of the expansion is bit-identical to
    /// replay of the `Repeat`, so this only changes structure.
    fn unfold_tail(&mut self) {
        let Some(TraceOp::Repeat { body, steps, count }) = self.buf.pop() else {
            unreachable!("unfold_tail without a tail Repeat");
        };
        debug_assert_eq!(count, 2);
        let second: Vec<TraceOp> = body
            .iter()
            .zip(&steps)
            .map(|(op, step)| op.shifted(*step))
            .collect();
        self.buf.extend(body);
        self.buf.extend(second);
    }

    /// Fold the tail into a `Repeat{count: 2}` when the last `L` ops are
    /// a uniform-per-op-delta copy of the preceding `L`, smallest `L`
    /// first.
    fn try_fold_tail(&mut self) {
        let n = self.buf.len();
        for l in 1..=MAX_FOLD_PERIOD.min(n / 2) {
            let (prev, last) = (&self.buf[n - 2 * l..n - l], &self.buf[n - l..]);
            let deltas: Option<Vec<i64>> = last
                .iter()
                .zip(prev)
                .map(|(cur, old)| cur.delta_from(old))
                .collect();
            if let Some(steps) = deltas {
                let body: Vec<TraceOp> = prev.to_vec();
                self.buf.truncate(n - 2 * l);
                self.buf.push(TraceOp::Repeat {
                    body,
                    steps,
                    count: 2,
                });
                return;
            }
        }
    }
}

/// A [`TraceSink`] that records the emission into a folded program
/// instead of simulating it. Useful for inspecting a kernel's lowered IR
/// (`membound-cli trace-ir`).
#[derive(Debug, Default)]
pub struct RecordingSink {
    recorder: Recorder,
    program: Vec<TraceOp>,
}

impl RecordingSink {
    /// A recording sink with the default buffer capacity.
    #[must_use]
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// Finish recording and return the folded program.
    #[must_use]
    pub fn finish(mut self) -> Vec<TraceOp> {
        self.recorder.flush(&mut self.program);
        self.program
    }
}

impl TraceSink for RecordingSink {
    fn access(&mut self, access: MemAccess) {
        self.recorder.push(
            TraceOp::Access {
                addr: access.addr,
                size: access.size,
                write: access.kind.is_write(),
            },
            &mut self.program,
        );
    }

    fn compute(&mut self, cost: IterCost, iters: u64) {
        self.recorder
            .push(TraceOp::Compute { cost, iters }, &mut self.program);
    }

    fn barrier(&mut self) {
        self.recorder.flush(&mut self.program);
        self.program.push(TraceOp::Barrier);
    }

    fn access_range(&mut self, addr: u64, len: u64, write: bool) {
        self.recorder
            .push(TraceOp::Range { addr, len, write }, &mut self.program);
    }

    fn access_strided(&mut self, base: u64, stride_bytes: i64, count: u64, size: u32, write: bool) {
        self.recorder.push(
            TraceOp::Strided {
                base,
                stride: stride_bytes,
                count,
                size,
                write,
            },
            &mut self.program,
        );
    }

    fn access_strided_rmw(&mut self, base: u64, stride_bytes: i64, count: u64, size: u32) {
        self.recorder.push(
            TraceOp::StridedRmw {
                base,
                stride: stride_bytes,
                count,
                size,
            },
            &mut self.program,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that flattens everything back to the raw op stream for
    /// bit-exactness comparisons.
    #[derive(Default)]
    struct FlatSink(Vec<TraceOp>);

    impl TraceSink for FlatSink {
        fn access(&mut self, access: MemAccess) {
            self.0.push(TraceOp::Access {
                addr: access.addr,
                size: access.size,
                write: access.kind.is_write(),
            });
        }
        fn compute(&mut self, cost: IterCost, iters: u64) {
            self.0.push(TraceOp::Compute { cost, iters });
        }
        fn barrier(&mut self) {
            self.0.push(TraceOp::Barrier);
        }
        fn access_range(&mut self, addr: u64, len: u64, write: bool) {
            self.0.push(TraceOp::Range { addr, len, write });
        }
        fn access_strided(
            &mut self,
            base: u64,
            stride_bytes: i64,
            count: u64,
            size: u32,
            write: bool,
        ) {
            self.0.push(TraceOp::Strided {
                base,
                stride: stride_bytes,
                count,
                size,
                write,
            });
        }
        fn access_strided_rmw(&mut self, base: u64, stride_bytes: i64, count: u64, size: u32) {
            self.0.push(TraceOp::StridedRmw {
                base,
                stride: stride_bytes,
                count,
                size,
            });
        }
    }

    fn roundtrip(ops: &[TraceOp]) -> (Vec<TraceOp>, Vec<TraceOp>) {
        let mut rec = Recorder::new(64);
        let mut program = Vec::new();
        for op in ops {
            rec.push(op.clone(), &mut program);
        }
        rec.flush(&mut program);
        let mut flat = FlatSink::default();
        for op in &program {
            op.replay(&mut flat);
        }
        (program, flat.0)
    }

    fn load(addr: u64) -> TraceOp {
        TraceOp::Access {
            addr,
            size: 8,
            write: false,
        }
    }

    #[test]
    fn uniform_stream_folds_to_single_repeat() {
        let ops: Vec<TraceOp> = (0..100).map(|i| load(0x1000 + 8 * i)).collect();
        let (program, flat) = roundtrip(&ops);
        assert_eq!(flat, ops, "replay must be bit-exact");
        assert_eq!(program.len(), 1);
        let TraceOp::Repeat { body, steps, count } = &program[0] else {
            panic!("expected a Repeat, got {program:?}");
        };
        assert_eq!((body.len(), steps.as_slice(), *count), (1, &[8][..], 100));
    }

    #[test]
    fn multi_op_body_folds_with_per_op_steps() {
        // triad-like: load a[i], load b[i], store c[i]
        let mut ops = Vec::new();
        for i in 0..50u64 {
            ops.push(load(0x10_0000 + 8 * i));
            ops.push(load(0x20_0000 + 8 * i));
            ops.push(TraceOp::Access {
                addr: 0x30_0000 + 8 * i,
                size: 8,
                write: true,
            });
        }
        let (program, flat) = roundtrip(&ops);
        assert_eq!(flat, ops);
        assert_eq!(program.len(), 1);
        let TraceOp::Repeat { body, steps, count } = &program[0] else {
            panic!("expected a Repeat, got {program:?}");
        };
        assert_eq!(
            (body.len(), steps.as_slice(), *count),
            (3, &[8, 8, 8][..], 50)
        );
    }

    #[test]
    fn strided_rows_fold_like_fig2() {
        let ops: Vec<TraceOp> = (0..32)
            .map(|row| TraceOp::Strided {
                base: 0x4000_0000 + row * 4096,
                stride: 4096,
                count: 64,
                size: 8,
                write: false,
            })
            .collect();
        let (program, flat) = roundtrip(&ops);
        assert_eq!(flat, ops);
        assert_eq!(program.len(), 1);
        assert!(matches!(
            &program[0],
            TraceOp::Repeat { steps, count: 32, .. } if steps == &[4096]
        ));
    }

    #[test]
    fn partial_tail_iteration_spills_exactly() {
        // 10 full iterations of [A, B] then a lone A.
        let mut ops = Vec::new();
        for i in 0..10u64 {
            ops.push(load(0x1000 + 16 * i));
            ops.push(load(0x8000 + 16 * i));
        }
        ops.push(load(0x1000 + 16 * 10));
        let (_, flat) = roundtrip(&ops);
        assert_eq!(flat, ops);
    }

    #[test]
    fn irregular_stream_survives_roundtrip() {
        let ops = vec![
            load(0x1000),
            TraceOp::Range {
                addr: 0x2000,
                len: 300,
                write: true,
            },
            load(0x1000),
            load(0x1040),
            load(0x1080),
            TraceOp::Compute {
                cost: IterCost::default(),
                iters: 7,
            },
            load(0x1080),
        ];
        let (_, flat) = roundtrip(&ops);
        assert_eq!(flat, ops);
    }

    #[test]
    fn bounded_buffer_drains_in_order() {
        // Addresses chosen so nothing folds (random-ish walk).
        let ops: Vec<TraceOp> = (0..500u64)
            .map(|i| load(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let mut rec = Recorder::new(16);
        let mut program = Vec::new();
        for op in &ops {
            rec.push(op.clone(), &mut program);
        }
        rec.flush(&mut program);
        let mut flat = FlatSink::default();
        for op in &program {
            op.replay(&mut flat);
        }
        assert_eq!(flat.0, ops);
    }

    #[test]
    fn wrapping_near_address_space_top_replays_bit_exactly() {
        // The PR-4 regression pattern: ops hugging u64::MAX must fold and
        // replay with identical wrap behaviour to the raw stream.
        let top = u64::MAX - 8;
        let ops: Vec<TraceOp> = (0..16u64).map(|i| load(top.wrapping_add(i))).collect();
        let (program, flat) = roundtrip(&ops);
        assert_eq!(flat, ops, "wrap-around must reproduce exactly");
        assert_eq!(program.len(), 1, "uniform +1 walk folds even across wrap");

        // Range clamped at the top of the address space.
        let ops = vec![
            TraceOp::Range {
                addr: u64::MAX - 8,
                len: 64,
                write: false,
            };
            4
        ];
        let (_, flat) = roundtrip(&ops);
        assert_eq!(flat, ops);
    }

    #[test]
    fn shifted_repeat_expansion_wraps_like_strided_addr() {
        use crate::strided_addr;
        let base = u64::MAX - 24;
        let op = TraceOp::Repeat {
            body: vec![load(base)],
            steps: vec![8],
            count: 8,
        };
        let mut flat = FlatSink::default();
        op.replay(&mut flat);
        for (i, got) in flat.0.iter().enumerate() {
            let want = strided_addr(base, 8, i as u64);
            assert!(matches!(got, TraceOp::Access { addr, .. } if *addr == want));
        }
    }

    #[test]
    fn nested_repeats_fold_and_replay() {
        // (B^8 C)^6 with B advancing inside the row and C fixed per row.
        let mut ops = Vec::new();
        for row in 0..6u64 {
            for i in 0..8u64 {
                ops.push(load(0x1_0000 + row * 512 + i * 8));
            }
            ops.push(TraceOp::Access {
                addr: 0x9_0000 + row * 8,
                size: 8,
                write: true,
            });
        }
        let (program, flat) = roundtrip(&ops);
        assert_eq!(flat, ops);
        let stats = IrStats::of(&program);
        assert!(stats.repeat >= 2, "expected nesting, got {program:?}");
        assert!(stats.max_depth >= 2);
    }

    #[test]
    fn barrier_never_folds() {
        let ops = vec![TraceOp::Barrier, TraceOp::Barrier, TraceOp::Barrier];
        let (program, flat) = roundtrip(&ops);
        assert_eq!(flat, ops);
        assert_eq!(program.len(), 3);
    }

    #[test]
    fn recording_sink_captures_folded_program() {
        let mut sink = RecordingSink::new();
        for i in 0..64u64 {
            sink.load(0x5000 + i * 8, 8);
        }
        sink.barrier();
        let program = sink.finish();
        assert_eq!(program.len(), 2);
        assert!(matches!(program[0], TraceOp::Repeat { count: 64, .. }));
        assert!(matches!(program[1], TraceOp::Barrier));
    }

    #[test]
    fn footprint_covers_directional_expansion() {
        let op = TraceOp::Repeat {
            body: vec![TraceOp::Strided {
                base: 0x10_0000,
                stride: -64,
                count: 16,
                size: 8,
                write: false,
            }],
            steps: vec![4096],
            count: 10,
        };
        let (lo, hi) = op.footprint().unwrap();
        assert_eq!(lo, 0x10_0000 - 64 * 15);
        assert_eq!(hi, 0x10_0000 + 4096 * 9 + 8);
    }
}
