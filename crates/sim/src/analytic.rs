//! Analytic steady-state execution of trace-IR programs.
//!
//! The per-element replay wall: simulating `n` references costs `O(n)`
//! pipeline steps even when the hierarchy's behaviour is perfectly
//! periodic. This module breaks it for one shape — a top-level recorded
//! `Repeat`, the form a single-pass STREAM Triad folds into — by
//! *fast-forwarding*: execute a warm-up prefix of the loop concretely,
//! prove that one more *chunk* (a set-index period of iterations) maps
//! the pipeline state onto itself under the address shift `Δ·P` (a state
//! isomorphism `Φ`), and then advance all counters by exact `u64`
//! multiplication over the remaining chunk count while shifting the
//! resident-line state by `Φ^k`.
//!
//! The proof obligations, checked per fast-forward attempt (DESIGN.md
//! §15 carries the full argument):
//!
//! * **Uniform shift** — every address-bearing op in the loop body moves
//!   by the same per-iteration delta `Δ`. Mixed steps are rejected.
//! * **Index periodicity** — the chunk length `P = M / gcd(M, |Δ|)`
//!   iterations, where `M` is the least common multiple of every cache
//!   level's `sets × line_bytes`, makes the chunk shift `Δ·P` a multiple
//!   of every level's indexing period, so `Φ` maps each set to itself.
//! * **Translation invariance** — the executor is only armed with TLB
//!   simulation disabled ([`arms`]), so `translate` provably never
//!   touches state and TLB/page-walk state is constant across a run.
//! * **Address envelope** — the loop footprint, widened by the maximum
//!   prefetch reach, must sit inside `[2^22, 2^62)`: prefetch target
//!   clamping at address 0 and `line << shift` overflow behave
//!   identically across all chunks, and resident lines outside the
//!   envelope windows are compared (and left) as-is.
//! * **State isomorphism** — after the warm-up, the full per-core state
//!   (cache tags/flags/recency *order*, prefetcher tables, armed line)
//!   must equal the pre-chunk snapshot under `Φ`; replacement RNG and
//!   frozen prefetcher streaks compare exactly, so random replacement
//!   (U74) and retraining streams fall back honestly.
//!
//! Every other recorded op, and any `Repeat` that fails a gate, replays
//! through the raw per-element paths — the fallback is the reference
//! semantics, so analytic execution is digest-preserving by construction
//! (`tests/prop_analytic.rs` and the CI `analytic-gate` hold it to that).

use crate::cache::{Cache, CacheConfig};
use crate::dram::DramConfig;
use crate::hierarchy::{ArmedLine, CorePipeline};
use crate::machine::DeviceSpec;
use crate::prefetch::{Prefetcher, PrefetcherConfig};
use crate::stats::LevelStats;
use membound_trace::ir::DEFAULT_RECORDER_CAP;
use membound_trace::{IterCost, MemAccess, Recorder, TraceOp, TraceSink};

/// Minimum whole chunks an op must span before fast-forward is attempted
/// (below this the warm-up would eat the gain).
const MIN_CHUNKS: u64 = 8;

/// Largest accepted chunk length in loop iterations (a period larger
/// than this replays concretely: the chunk itself would dominate).
const MAX_PERIOD_ITERS: u64 = 1 << 22;

/// Largest accepted indexing modulus `M` in bytes (guards the `lcm`
/// blow-up of pathological non-power-of-two partitioned geometries).
const MAX_MODULUS: u64 = 1 << 28;

/// Warm-up schedule, in chunks: snapshot after `w` chunks, verify the
/// isomorphism over chunk `w + 1`, growing exponentially while the
/// transient (cold fills, prefetcher training) still shows.
const WARMUPS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Fast-forward address envelope: loop windows must fit in
/// `[ENVELOPE_LO, ENVELOPE_HI)`.
const ENVELOPE_LO: u64 = 1 << 22;
const ENVELOPE_HI: u64 = 1 << 62;

/// The one analytic arming rule, decided from the device before anything
/// is recorded: a pipeline carries an [`Analytic`] executor, and the
/// coverage estimator counts eligible elements, only when all hold.
///
/// * analytic execution was `requested` (`Machine::with_analytic`);
/// * the repeat-line `fastpath` is on — the executor replays through it,
///   and the reference build must stay the plain per-element path;
/// * translation is off — a nonzero line shift moves page numbers, so
///   TLB state is never periodic under the line map and every
///   nonzero-stride proof would be refused;
/// * DRAM is uncontended — fast-forward scales counters linearly over a
///   chunk, and a per-channel tally (`line % channels`) is not linear in
///   the chunk's line shift (DESIGN.md §16).
///
/// Random replacement stays a run-time refusal: a `Δ = 0` loop resident
/// in L1 never evicts, so its RNG does not advance and the proof can
/// succeed.
pub(crate) fn arms(requested: bool, fastpath: bool, tlb_enabled: bool, dram: &DramConfig) -> bool {
    requested && fastpath && !tlb_enabled && !dram.contended
}

/// Per-core analytic executor: records the sink stream into trace IR,
/// executes the IR, and fast-forwards the provably periodic loops.
/// Every expanded element the core is handed — a scalar access, a
/// strided element (two per read-modify-write pair), a line a range
/// touches — lands in exactly one of the two counters.
#[derive(Debug)]
pub(crate) struct Analytic {
    recorder: Recorder,
    out: Vec<TraceOp>,
    params: FfParams,
    /// Elements advanced analytically (never executed).
    pub(crate) analytic_ops: u64,
    /// Elements replayed raw: ops that are not loops, refused loops, and
    /// the warm-up and remainder of fast-forwarded ones.
    pub(crate) replay_fallback_ops: u64,
}

impl Analytic {
    /// An executor for the pipeline built from `caches` (capacity-
    /// partitioned where shared) and `prefetchers`.
    pub(crate) fn new(caches: &[CacheConfig], prefetchers: &[PrefetcherConfig]) -> Self {
        Analytic {
            recorder: Recorder::new(DEFAULT_RECORDER_CAP),
            out: Vec::new(),
            params: FfParams::new(caches, prefetchers),
            analytic_ops: 0,
            replay_fallback_ops: 0,
        }
    }
}

/// Greatest common divisor (Euclid); `gcd(m, 0) = m`.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Expanded element count of an op — scalar accesses, strided elements
/// (two per read-modify-write pair) and the `1 << shift`-byte lines a
/// range touches, as `raw_access_range` visits them (its end saturates
/// at `u64::MAX`) — for the static coverage estimate. A loop counts
/// every iteration like its first, which is exact unless a range's line
/// offset moves with the step; the executor counts what it replays.
fn op_elems(op: &TraceOp, shift: u32) -> u64 {
    match op {
        TraceOp::Access { .. } => 1,
        TraceOp::Compute { .. } | TraceOp::Barrier => 0,
        TraceOp::Range { len: 0, .. } => 0,
        TraceOp::Range { addr, len, .. } => {
            let first = addr >> shift;
            ((addr.saturating_add(*len) - 1) >> shift).max(first) - first + 1
        }
        TraceOp::Strided { count, .. } => *count,
        TraceOp::StridedRmw { count, .. } => count.saturating_mul(2),
        TraceOp::Repeat { body, count, .. } => iter_elems(body, shift).saturating_mul(*count),
    }
}

/// Expanded elements of one loop iteration (its first).
fn iter_elems(body: &[TraceOp], shift: u32) -> u64 {
    body.iter()
        .fold(0u64, |a, op| a.saturating_add(op_elems(op, shift)))
}

/// The line-address isomorphism `Φ` (or `Φ^k`): lines whose byte address
/// falls inside the window `[lo, hi)` shift by `delta` bytes; everything
/// else is identity. `delta` is always a multiple of the line size, so
/// the byte/line conversion is exact. A loop that does not move
/// (`delta == 0`) has no window.
#[derive(Debug, Clone)]
pub(crate) struct LineMap {
    window: Option<(u64, u64)>,
    delta: i64,
    shift: u32,
}

impl LineMap {
    fn line(&self, line: u64) -> u64 {
        let Some((lo, hi)) = self.window else {
            return line;
        };
        let byte = u128::from(line) << self.shift;
        let Ok(byte) = u64::try_from(byte) else {
            return line; // shifted out of the address space: outside the window
        };
        if byte >= lo && byte < hi {
            byte.wrapping_add_signed(self.delta) >> self.shift
        } else {
            line
        }
    }
}

/// A fast-forward plan for one recorded loop that passed the shape gates.
struct FfPlan<'a> {
    /// The loop's body and per-op steps.
    body: &'a [TraceOp],
    steps: &'a [i64],
    /// Loop iterations per chunk.
    p: u64,
    /// Whole chunks available.
    chunks: u64,
    /// Byte shift per chunk (`Δ·P`, a multiple of the modulus `M`).
    chunk_delta: i64,
    /// Chunk-to-chunk isomorphism.
    map: LineMap,
    /// Per-stream single-iteration byte footprints (iteration 0), used
    /// to compute the *forward* windows — the byte ranges the remaining
    /// iterations can still touch — when validating frozen levels.
    streams: Vec<(i128, i128)>,
    /// Per-iteration byte shift.
    step: i64,
    /// Total loop iterations (the planned op's, not just whole chunks).
    count: u64,
    /// Prefetch-reach margin in bytes (window widening).
    margin: u64,
}

impl FfPlan<'_> {
    /// Byte ranges iterations `t0..count` can still touch (probe, fill
    /// or prefetch), one per stream, margin-widened.
    fn forward_windows(&self, t0: u64) -> Vec<(i128, i128)> {
        let near = i128::from(self.step) * i128::from(t0);
        let far = i128::from(self.step) * i128::from(self.count.saturating_sub(1));
        self.streams
            .iter()
            .map(|&(lo, hi)| {
                (
                    lo + near.min(far) - i128::from(self.margin),
                    hi + near.max(far) + i128::from(self.margin),
                )
            })
            .collect()
    }
}

/// Device-level fast-forward gate parameters, shared between the live
/// planner and the static coverage estimator.
#[derive(Debug)]
struct FfParams {
    modulus: Option<u64>,
    margin: u64,
    /// log2 of the line size.
    shift: u32,
}

fn prefetch_reach_lines(configs: &[PrefetcherConfig]) -> u64 {
    configs
        .iter()
        .map(|&c| match c {
            PrefetcherConfig::None => 0,
            PrefetcherConfig::NextLine { degree } => u64::from(degree),
            PrefetcherConfig::Stride {
                max_stride_lines,
                degree,
                ..
            } => u64::from(max_stride_lines) * u64::from(degree),
        })
        .max()
        .unwrap_or(0)
}

fn modulus_of(periods: impl Iterator<Item = Option<u64>>) -> Option<u64> {
    let mut m = 1u64;
    for period in periods {
        let period = period?;
        m = m.checked_mul(period / gcd(m, period))?;
        if m > MAX_MODULUS {
            return None;
        }
    }
    Some(m)
}

impl FfParams {
    /// Gate parameters of a hierarchy: a pipeline's own levels at run
    /// time, a device's unpartitioned single-thread view in the estimate.
    fn new(caches: &[CacheConfig], prefetchers: &[PrefetcherConfig]) -> FfParams {
        let line_bytes = caches[0].line_bytes;
        FfParams {
            modulus: modulus_of(
                caches
                    .iter()
                    .map(|c| c.sets().checked_mul(u64::from(line_bytes))),
            ),
            margin: (prefetch_reach_lines(prefetchers) + 1) * u64::from(line_bytes),
            shift: line_bytes.trailing_zeros(),
        }
    }

    /// Plan a linear loop: `count` iterations advancing by `stride` bytes
    /// each, with absolute byte footprint `fp` (over *all* iterations).
    /// Returns `(P, chunks, chunk_delta, window)`.
    #[allow(clippy::type_complexity)]
    fn plan_linear(
        &self,
        stride: i64,
        count: u64,
        fp: (i128, i128),
    ) -> Option<(u64, u64, i64, Option<(u64, u64)>)> {
        let m = self.modulus?;
        let (p, chunk_delta) = if stride == 0 {
            (1, 0)
        } else {
            let p = m / gcd(m, stride.unsigned_abs());
            if p > MAX_PERIOD_ITERS {
                return None;
            }
            (p, i64::try_from(i128::from(stride) * i128::from(p)).ok()?)
        };
        let chunks = count / p;
        if chunks < MIN_CHUNKS {
            return None;
        }
        let window = if chunk_delta == 0 {
            None
        } else {
            let lo = fp.0 - i128::from(self.margin);
            let hi = fp.1 + i128::from(self.margin);
            if lo < i128::from(ENVELOPE_LO) || hi > i128::from(ENVELOPE_HI) {
                return None;
            }
            Some((lo as u64, hi as u64))
        };
        Some((p, chunks, chunk_delta, window))
    }

    /// Plan a recorded `Repeat`: `Some` when `op` is one and every shape
    /// gate passes (uniform step, period, chunk count, envelope). The
    /// runtime drives this plan and the coverage estimator counts it, so
    /// `trace-ir` estimates exactly what the executor attempts.
    fn plan_repeat<'a>(&self, op: &'a TraceOp) -> Option<FfPlan<'a>> {
        let TraceOp::Repeat { body, steps, count } = op else {
            return None;
        };
        let step = uniform_step(body, steps)?;
        let (p, chunks, chunk_delta, window) = self.plan_linear(step, *count, op.footprint()?)?;
        Some(FfPlan {
            body,
            steps,
            p,
            chunks,
            chunk_delta,
            map: LineMap {
                window,
                delta: chunk_delta,
                shift: self.shift,
            },
            streams: body.iter().filter_map(TraceOp::footprint).collect(),
            step,
            count: *count,
            margin: self.margin,
        })
    }
}

/// Snapshot of everything [`CorePipeline`] carries between sink calls:
/// the comparison baseline for the isomorphism check, plus the counter
/// vector the per-chunk deltas are measured against.
struct PipeSnapshot {
    levels: Vec<Cache>,
    prefetchers: Vec<Option<Prefetcher>>,
    armed: Option<ArmedLine>,
    counters: Vec<u64>,
}

fn push_level(v: &mut Vec<u64>, s: &LevelStats) {
    v.extend([
        s.hits,
        s.misses,
        s.evictions,
        s.writebacks,
        s.prefetches_issued,
        s.prefetch_hits,
        s.fill_bytes,
        s.writeback_bytes,
    ]);
}

fn read_level(it: &mut impl Iterator<Item = u64>) -> LevelStats {
    LevelStats {
        hits: it.next().unwrap(),
        misses: it.next().unwrap(),
        evictions: it.next().unwrap(),
        writebacks: it.next().unwrap(),
        prefetches_issued: it.next().unwrap(),
        prefetch_hits: it.next().unwrap(),
        fill_bytes: it.next().unwrap(),
        writeback_bytes: it.next().unwrap(),
    }
}

impl CorePipeline {
    // ---- sink-side dispatch --------------------------------------------

    /// Whether sink calls should be routed through the recorder.
    pub(crate) fn analytic_live(&self) -> bool {
        self.analytic.is_some()
    }

    /// Record one op; executes whatever structured program the recorder
    /// emits (its buffer keeps only a bounded folding frontier).
    pub(crate) fn analytic_push(&mut self, op: TraceOp) {
        let Some(mut an) = self.analytic.take() else {
            return;
        };
        an.recorder.push(op, &mut an.out);
        self.drain_analytic(&mut an);
        self.analytic = Some(an);
    }

    /// Flush and execute everything still buffered (barrier / end of run).
    pub(crate) fn analytic_flush(&mut self) {
        let Some(mut an) = self.analytic.take() else {
            return;
        };
        an.recorder.flush(&mut an.out);
        self.drain_analytic(&mut an);
        self.analytic = Some(an);
    }

    /// Execute the ops the recorder released. Only a top-level `Repeat`
    /// is planned for fast-forward; everything else replays raw.
    fn drain_analytic(&mut self, an: &mut Analytic) {
        let mut ops = std::mem::take(&mut an.out);
        for op in &ops {
            let (skipped, replayed) = match an.params.plan_repeat(op) {
                Some(plan) => self.exec_repeat(&plan),
                None => (0, self.replay_raw(op)),
            };
            an.analytic_ops = an.analytic_ops.saturating_add(skipped);
            an.replay_fallback_ops = an.replay_fallback_ops.saturating_add(replayed);
        }
        ops.clear();
        an.out = ops;
    }

    // ---- IR execution --------------------------------------------------

    /// Replay `op` through the raw per-element paths — the fallback for
    /// every op the executor does not fast-forward. Returns the expanded
    /// elements replayed.
    fn replay_raw(&mut self, op: &TraceOp) -> u64 {
        let mut raw = Raw {
            pipe: self,
            elems: 0,
        };
        op.replay(&mut raw);
        raw.elems
    }

    /// Replay iterations `iters` of the planned loop raw — warm-up chunks
    /// must be plain concrete execution for the isomorphism argument to
    /// be about the raw semantics. Returns the expanded elements replayed.
    fn run_iterations(&mut self, plan: &FfPlan, iters: std::ops::Range<u64>) -> u64 {
        let mut raw = Raw {
            pipe: self,
            elems: 0,
        };
        for i in iters {
            for (op, step) in plan.body.iter().zip(plan.steps) {
                op.shifted(step.wrapping_mul(i as i64)).replay(&mut raw);
            }
        }
        raw.elems
    }

    /// Execute a planned loop, fast-forwarding its whole chunks when the
    /// steady state proves out. Returns `(advanced analytically,
    /// replayed raw)` expanded elements.
    fn exec_repeat(&mut self, plan: &FfPlan) -> (u64, u64) {
        debug_assert!(self.fastpath);
        let (skipped, replayed) = self.ff_drive(plan);
        let rest = self.run_iterations(plan, plan.chunks * plan.p..plan.count);
        (skipped, replayed.saturating_add(rest))
    }

    // ---- fast-forward driver -------------------------------------------

    /// Run the plan's chunks, fast-forwarding once a chunk provably maps
    /// the state onto itself. Returns the expanded elements `(advanced
    /// analytically, replayed raw)` over all `plan.chunks` chunks; the
    /// caller only runs the sub-chunk remainder. Every chunk is a shift
    /// of the first by a multiple of the line size inside the envelope,
    /// so each expands to the same element count as the verified one.
    fn ff_drive(&mut self, plan: &FfPlan) -> (u64, u64) {
        let chunk = |c: u64| c * plan.p..(c + 1) * plan.p;
        let total = plan.chunks;
        let mut next = 0u64;
        let mut replayed = 0u64;
        for &w in &WARMUPS {
            if w + 1 > total || w > total / 4 {
                break;
            }
            while next < w {
                replayed += self.run_iterations(plan, chunk(next));
                next += 1;
            }
            let base = self.ff_snapshot();
            let chunk_elems = self.run_iterations(plan, chunk(next));
            replayed += chunk_elems;
            next += 1;
            let Some(frozen) = self.ff_state_matches(&base, &plan.map) else {
                continue;
            };
            let k = total - next;
            if k == 0 {
                return (0, replayed);
            }
            // Frozen levels are only extrapolation-safe when none of
            // their resident lines can be touched (probed, prefetched
            // over, or evicted) by the remaining iterations.
            let forward = plan.forward_windows(next * plan.p);
            let shift = plan.map.shift;
            let lb = i128::from(1u64 << shift);
            let clear = frozen.iter().zip(&self.levels).all(|(&fz, level)| {
                !fz || level.ff_all_lines(|line| {
                    let b = i128::from(line) << shift;
                    forward.iter().all(|&(lo, hi)| b + lb <= lo || b >= hi)
                })
            });
            if !clear {
                continue;
            }
            let total_shift = i128::from(plan.chunk_delta) * i128::from(k);
            let Ok(total_shift) = i64::try_from(total_shift) else {
                break;
            };
            let total_map = LineMap {
                window: plan.map.window,
                delta: total_shift,
                shift: plan.map.shift,
            };
            if self.ff_apply(&base, k, &total_map, &frozen) {
                return (k.saturating_mul(chunk_elems), replayed);
            }
            break;
        }
        while next < total {
            replayed += self.run_iterations(plan, chunk(next));
            next += 1;
        }
        (0, replayed)
    }

    /// The counter vector scaled by fast-forward, in one fixed order
    /// (mirrored exactly by [`CorePipeline::ff_set_counters`]).
    fn ff_counters(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(7 + self.cur.supply_bytes.len() + 8 * self.levels.len());
        v.push(self.cur.cycles.issue_subcycles);
        v.push(self.cur.cycles.stall_subcycles);
        v.extend_from_slice(&self.cur.supply_bytes);
        v.extend([
            self.cur.dram.bytes_read,
            self.cur.dram.bytes_written,
            self.cur.dram.reads,
            self.cur.dram.writes,
        ]);
        for c in &self.levels {
            push_level(&mut v, &c.stats());
        }
        v.push(self.strided_batches);
        v
    }

    fn ff_set_counters(&mut self, vals: &[u64]) {
        let mut it = vals.iter().copied();
        self.cur.cycles.issue_subcycles = it.next().unwrap();
        self.cur.cycles.stall_subcycles = it.next().unwrap();
        for b in &mut self.cur.supply_bytes {
            *b = it.next().unwrap();
        }
        self.cur.dram.bytes_read = it.next().unwrap();
        self.cur.dram.bytes_written = it.next().unwrap();
        self.cur.dram.reads = it.next().unwrap();
        self.cur.dram.writes = it.next().unwrap();
        for c in &mut self.levels {
            *c.stats_mut() = read_level(&mut it);
        }
        self.strided_batches = it.next().unwrap();
        debug_assert!(it.next().is_none());
    }

    // `pred_buf` is pure scratch (cleared on entry to `run_prefetcher`),
    // so snapshots neither capture nor compare it.
    fn ff_snapshot(&self) -> PipeSnapshot {
        PipeSnapshot {
            levels: self.levels.clone(),
            prefetchers: self.prefetchers.clone(),
            armed: self.armed,
            counters: self.ff_counters(),
        }
    }

    /// Does the current state equal `base` under the isomorphism `map`?
    ///
    /// Returns `None` on mismatch; on match, one flag per cache level:
    /// `true` marks a **frozen** level — one that did not move under
    /// `map` but is bitwise-identical to `base` with a zero stats delta
    /// across the chunk, i.e. the chunk provably never touched it (every
    /// probe, fill or writeback bumps a stat). A frozen level holds
    /// stale lines at absolute addresses (e.g. an inner level's cold
    /// fills from before the outer prefetcher took over); it stays
    /// untouched under extrapolation *provided* none of its lines can
    /// collide with the op's remaining footprint — the caller checks
    /// that against [`FfPlan::forward_windows`] before applying.
    ///
    /// TLB and page-walk state is not compared: the executor is only
    /// armed with translation off, where neither can change during a run.
    fn ff_state_matches(&self, base: &PipeSnapshot, map: &LineMap) -> Option<Vec<bool>> {
        debug_assert!(!self.tlb_enabled);
        let cur_counters = self.ff_counters();
        let mut frozen = vec![false; self.levels.len()];
        for (k, (cur, b)) in self.levels.iter().zip(&base.levels).enumerate() {
            if cur.ff_shift_eq(b, |l| map.line(l)) {
                continue;
            }
            // Level k's stats block in the `ff_counters` vector.
            let off = 2 + (self.levels.len() + 1) + 4 + 8 * k;
            let untouched = cur_counters[off..off + 8] == base.counters[off..off + 8];
            if untouched && cur.ff_shift_eq(b, |l| l) {
                frozen[k] = true;
            } else {
                return None;
            }
        }
        for (cur, b) in self.prefetchers.iter().zip(&base.prefetchers) {
            match (cur, b) {
                // Frozen first: an equal clock proves zero observations
                // across the chunk (every mutator bumps it), so the table
                // is inert — and since observation occurrence at this
                // level is itself determined by the compared upper state,
                // no extrapolated chunk consults it either. `ff_apply`
                // re-detects this and leaves the table at absolute values.
                (Some(a), Some(b)) if a.ff_frozen_eq(b) => {}
                (Some(a), Some(b)) if a.ff_shift_eq(b, |l| map.line(l)) => {}
                (None, None) => {}
                _ => return None,
            }
        }
        // The armed way is NOT compared: it is a representation detail in
        // the same sense as a set's way permutation. The L1 set compare
        // above already proved the armed line exists in both states at
        // the same recency rank (lines are unique within a set), and
        // `self.armed.way` stays self-consistent with the *current*
        // arrays, whose way positions `ff_apply` preserves.
        let armed_ok = match (self.armed, base.armed) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.line == map.line(b.line) && a.set == b.set && a.dirty == b.dirty
            }
            _ => false,
        };
        armed_ok.then_some(frozen)
    }

    /// Advance counters by `k` times the verified chunk's delta and shift
    /// the resident-line state by the accumulated isomorphism. Counters
    /// are scaled fully (checked) before anything mutates; `false` means
    /// an overflow aborted the fast-forward with the state untouched.
    fn ff_apply(
        &mut self,
        base: &PipeSnapshot,
        k: u64,
        total_map: &LineMap,
        frozen: &[bool],
    ) -> bool {
        let cur = self.ff_counters();
        let mut scaled = Vec::with_capacity(cur.len());
        for (&c, &b) in cur.iter().zip(&base.counters) {
            debug_assert!(c >= b, "per-chunk counters are monotone");
            let Some(v) = (c - b).checked_mul(k).and_then(|d| c.checked_add(d)) else {
                return false;
            };
            scaled.push(v);
        }
        self.ff_set_counters(&scaled);
        if total_map.delta != 0 {
            for (c, &fz) in self.levels.iter_mut().zip(frozen) {
                if !fz {
                    c.ff_shift_lines(|l| total_map.line(l));
                }
            }
            for (p, b) in self.prefetchers.iter_mut().zip(&base.prefetchers) {
                if let (Some(p), Some(b)) = (p, b) {
                    if !p.ff_frozen_eq(b) {
                        p.ff_shift_lines(b, |l| total_map.line(l));
                    }
                }
            }
            if let Some(a) = &mut self.armed {
                a.line = total_map.line(a.line);
            }
        }
        true
    }
}

/// The raw per-element paths as a sink, counting the expanded elements
/// they replay: executing an op raw is replaying it into this.
struct Raw<'a> {
    pipe: &'a mut CorePipeline,
    elems: u64,
}

impl TraceSink for Raw<'_> {
    fn access(&mut self, access: MemAccess) {
        self.pipe.raw_access(access);
        self.elems += 1;
    }

    fn compute(&mut self, cost: IterCost, iters: u64) {
        self.pipe.raw_compute(cost, iters);
    }

    fn barrier(&mut self) {
        self.pipe.raw_barrier();
    }

    fn access_range(&mut self, addr: u64, len: u64, write: bool) {
        self.elems += self.pipe.raw_access_range(addr, len, write);
    }

    fn access_strided(&mut self, base: u64, stride: i64, count: u64, size: u32, write: bool) {
        self.pipe
            .raw_access_strided(base, stride, count, size, write);
        self.elems += count;
    }

    fn access_strided_rmw(&mut self, base: u64, stride: i64, count: u64, size: u32) {
        self.pipe.raw_access_strided_rmw(base, stride, count, size);
        self.elems += 2 * count;
    }
}

/// Static fast-forward coverage estimate of a trace program on a device
/// (the `membound-cli trace-ir` metric): how many expanded elements sit
/// in the whole chunks of top-level loops that pass the *shape* gates
/// (uniform shift, period, chunk count, envelope) on a device the
/// executor arms on. An upper bound — runtime warm-up can still fail
/// (e.g. random replacement or retraining streams) and fall back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Expanded elements in the whole chunks of shape-eligible loops.
    pub eligible_elems: u64,
    /// Total expanded elements of the program.
    pub total_elems: u64,
}

impl Coverage {
    /// Eligible fraction in percent (100.0 for an empty program).
    #[must_use]
    pub fn percent(&self) -> f64 {
        if self.total_elems == 0 {
            100.0
        } else {
            self.eligible_elems as f64 / self.total_elems as f64 * 100.0
        }
    }
}

/// Estimate analytic coverage of `program` on `spec` (single-core view):
/// the whole chunks of every top-level `Repeat` that plans. A device the
/// executor never arms on ([`arms`]) covers nothing.
#[must_use]
pub fn estimate_coverage(spec: &DeviceSpec, program: &[TraceOp]) -> Coverage {
    let params = arms(true, true, spec.tlb_enabled, &spec.dram)
        .then(|| FfParams::new(&spec.caches, &spec.prefetchers));
    let shift = spec.caches[0].line_bytes.trailing_zeros();
    let mut cov = Coverage::default();
    for op in program {
        let eligible = params
            .as_ref()
            .and_then(|params| params.plan_repeat(op))
            .map_or(0, |plan| {
                (plan.chunks * plan.p).saturating_mul(iter_elems(plan.body, shift))
            });
        cov.eligible_elems = cov.eligible_elems.saturating_add(eligible);
        cov.total_elems = cov.total_elems.saturating_add(op_elems(op, shift));
    }
    cov
}

/// The per-iteration byte shift shared by every address-bearing op of a
/// loop body (`Compute` carries no address), or `None` when the steps
/// differ or no op bears an address.
fn uniform_step(body: &[TraceOp], steps: &[i64]) -> Option<i64> {
    let mut d = None;
    for (op, &step) in body.iter().zip(steps) {
        if matches!(op, TraceOp::Compute { .. }) {
            continue;
        }
        match d {
            None => d = Some(step),
            Some(prev) if prev != step => return None,
            Some(_) => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::core::CoreConfig;
    use crate::devices::Device;
    use crate::dram::DramConfig;
    use crate::machine::Machine;
    use crate::replacement::ReplacementPolicy;
    use crate::tlb::{PageWalk, TlbConfig};
    use membound_trace::TraceSink;

    /// Two-level test device: L1 4KB/4w/64 (16 sets), L2 64KB/8w/64
    /// (128 sets) — modulus `M = lcm(1024, 8192) = 8192` bytes.
    fn tiny_spec() -> DeviceSpec {
        DeviceSpec {
            name: "tiny".into(),
            isa: "test".into(),
            cores: 1,
            core: CoreConfig::new("test", 1.0, 1, 0, 1.0),
            caches: vec![
                CacheConfig::new("L1", 4096, 4, 64)
                    .policy(ReplacementPolicy::Lru)
                    .latency(4)
                    .bytes_per_cycle(8.0),
                CacheConfig::new("L2", 65536, 8, 64)
                    .latency(12)
                    .bytes_per_cycle(8.0),
            ],
            prefetchers: vec![PrefetcherConfig::c906(), PrefetcherConfig::None],
            dtlb: TlbConfig::fully_associative("DTLB", 16),
            l2tlb: None,
            walk: PageWalk::sv39(),
            dram: DramConfig::new(100, 1.0, 1),
            dram_capacity_bytes: 1 << 30,
            tlb_enabled: false,
        }
    }

    #[test]
    fn gcd_and_period_math() {
        assert_eq!(gcd(8192, 64), 64);
        assert_eq!(gcd(12, 0), 12);
        assert_eq!(gcd(0, 12), 12);
        let m = modulus_of([Some(1024u64), Some(8192)].into_iter()).unwrap();
        assert_eq!(m, 8192);
        assert_eq!(modulus_of([None].into_iter()), None);
        // Non-power-of-two periods compose by lcm.
        assert_eq!(modulus_of([Some(6u64), Some(10)].into_iter()), Some(30));
    }

    #[test]
    fn linemap_shifts_only_inside_windows() {
        let map = LineMap {
            window: Some((1 << 22, (1 << 22) + 4096)),
            delta: 128,
            shift: 6,
        };
        let inside = (1u64 << 22) >> 6;
        assert_eq!(map.line(inside), inside + 2);
        let outside = ((1u64 << 22) + 8192) >> 6;
        assert_eq!(map.line(outside), outside);
        // Lines whose byte address overflows u64 are (vacuously) outside.
        assert_eq!(map.line(u64::MAX >> 2), u64::MAX >> 2);
    }

    #[test]
    fn plan_gates_period_and_chunk_count() {
        let spec = tiny_spec();
        let p = FfParams::new(&spec.caches, &spec.prefetchers);
        // stride 64 over 4096 elements: P = 8192/64 = 128, 32 chunks.
        let fp = (i128::from(1u64 << 30), i128::from((1u64 << 30) + 4096 * 64));
        let (period, chunks, delta, _) = p.plan_linear(64, 4096, fp).unwrap();
        assert_eq!(period, 128);
        assert_eq!(chunks, 32);
        assert_eq!(delta, 8192);
        // Too few chunks.
        assert!(p.plan_linear(64, 512, fp).is_none());
    }

    #[test]
    fn envelope_rejects_address_space_extremes() {
        let spec = tiny_spec();
        let p = FfParams::new(&spec.caches, &spec.prefetchers);
        // Footprint hugging u64::MAX (the PR-4 `emit_range` clamp
        // pattern): must fall outside the envelope and replay raw.
        let hi_fp = (i128::from(u64::MAX - 8 * 4096), i128::from(u64::MAX));
        assert!(p.plan_linear(8, 4096, hi_fp).is_none());
        // Footprint below the floor likewise.
        let lo_fp = (0i128, 4096 * 64);
        assert!(p.plan_linear(64, 4096, lo_fp).is_none());
    }

    /// A per-element load sweep of `count` lines from `base`: the
    /// recorder folds it into one top-level `Repeat` with step 64.
    fn line_sweep(sink: &mut impl TraceSink, base: u64, count: u64) {
        for i in 0..count {
            sink.load(base.wrapping_add(i * 64), 8);
        }
    }

    #[test]
    fn ops_near_address_space_top_fall_back_bit_exactly() {
        // The end-of-address-space clamps: a loop that passes every other
        // gate must be refused by the address envelope and replay
        // identically to the non-analytic machine right up against
        // u64::MAX.
        let spec = tiny_spec();
        let near_top = |base: u64| {
            move |_tid: u32, sink: &mut CorePipeline| {
                line_sweep(sink, base, 4096);
                sink.access_range(u64::MAX - 8, u64::MAX, false);
            }
        };
        let trace = near_top(u64::MAX - 64 * 4096);
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec.clone())
            .with_analytic(false)
            .simulate(1, trace);
        assert_eq!(analytic.analytic_ops, 0, "envelope must reject");
        // The clamped range touches the one line below u64::MAX.
        assert_eq!(analytic.replay_fallback_ops, 4096 + 1);
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
        // The same loop inside the envelope does fast-forward, so the
        // refusal above is the envelope's.
        let inside = Machine::new(spec)
            .with_analytic(true)
            .simulate(1, near_top(1 << 30));
        assert!(inside.analytic_ops > 0, "{inside:?}");
    }

    #[test]
    fn random_replacement_falls_back_honestly() {
        // U74-style random replacement advances its RNG per eviction; the
        // exact RNG compare must fail and force concrete replay.
        let mut spec = tiny_spec();
        spec.caches[0] = CacheConfig::new("L1", 4096, 4, 64)
            .policy(ReplacementPolicy::Random)
            .latency(4)
            .bytes_per_cycle(8.0);
        let count = 1u64 << 14;
        let trace = |_tid: u32, sink: &mut CorePipeline| line_sweep(sink, 1 << 30, count);
        // The loop passes every shape gate, so the runtime attempts it:
        // the refusal below is the steady-state proof's.
        let mut recorded = membound_trace::RecordingSink::new();
        line_sweep(&mut recorded, 1 << 30, count);
        let program = recorded.finish();
        assert!(
            matches!(program[..], [TraceOp::Repeat { .. }]),
            "{program:?}"
        );
        assert_eq!(estimate_coverage(&spec, &program).eligible_elems, count);
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec).with_analytic(false).simulate(1, trace);
        assert_eq!(
            analytic.analytic_ops, 0,
            "random replacement must never fast-forward"
        );
        assert_eq!(analytic.replay_fallback_ops, count);
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
    }

    #[test]
    fn lone_ops_replay_raw_and_count_as_fallback() {
        // Only recorded loops are planned: lone batches (different
        // counts, so they never fold) replay raw, and every element they
        // expand to is counted as replayed — for a range, every line it
        // touches, so the unaligned 64-byte range counts two.
        let trace = |_tid: u32, sink: &mut CorePipeline| {
            sink.access_strided(1 << 30, 64, 4096, 8, false);
            sink.access_strided_rmw(1 << 31, 64, 2048, 8);
            sink.access_range(3 << 30, 4096 * 64, true);
            sink.access_range((4 << 30) + 8, 64, false);
        };
        let analytic = Machine::new(tiny_spec())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(tiny_spec())
            .with_analytic(false)
            .simulate(1, trace);
        assert_eq!(analytic.analytic_ops, 0);
        assert_eq!(analytic.replay_fallback_ops, 4096 + 2 * 2048 + 4096 + 2);
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
    }

    #[test]
    fn unaligned_range_loop_counts_every_line() {
        // A 64-byte range stepping by 8 bytes touches one line when it
        // starts line-aligned (every eighth iteration) and two otherwise,
        // so no single iteration's count scales to the loop: the counters
        // must sum the lines actually replayed or advanced.
        let n = 1u64 << 16;
        let trace = move |_tid: u32, sink: &mut CorePipeline| {
            for i in 0..n {
                sink.load_range((1 << 30) + i * 8, 64);
            }
        };
        let analytic = Machine::new(tiny_spec())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(tiny_spec())
            .with_analytic(false)
            .simulate(1, trace);
        assert!(analytic.analytic_ops > 0, "{analytic:?}");
        assert_eq!(
            analytic.analytic_ops + analytic.replay_fallback_ops,
            n / 8 + 2 * (n - n / 8)
        );
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
    }

    #[test]
    fn repeat_fast_forward_matches_replay() {
        // A recorded Repeat (triad-like multi-op body, uniform step)
        // through the full sink dispatch: per-element loads fold into a
        // Repeat in the recorder and fast-forward from there.
        // P = 8192/8 = 1024 iterations per chunk; 256 chunks gives the
        // warm-up room (up to 32 chunks) for L2's cold fills to age out
        // of their sets so the state goes fully periodic.
        let spec = tiny_spec();
        let trace = |_tid: u32, sink: &mut CorePipeline| {
            for i in 0..(1u64 << 18) {
                sink.load((1 << 30) + i * 8, 8);
                sink.load((1 << 31) + i * 8, 8);
                sink.store((3 << 30) + i * 8, 8);
            }
        };
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec.clone())
            .with_analytic(false)
            .simulate(1, trace);
        let reference = Machine::new(spec)
            .with_analytic(false)
            .without_fastpath()
            .simulate(1, trace);
        assert!(
            analytic.analytic_ops > 0,
            "triad must fast-forward: {analytic:?}"
        );
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
        assert_eq!(analytic.stats_digest(), reference.stats_digest());
    }

    #[test]
    fn xeon_blocked_triad_fast_forwards() {
        // Three-level hierarchy with an L2 prefetcher that goes cold
        // after startup (the L1 prefetcher absorbs all demand): exercises
        // the frozen-prefetcher acceptance alongside the streaming L3.
        let spec = Device::IntelXeon4310T.spec().without_tlb();
        let n = 1u64 << 25;
        let trace = move |_tid: u32, sink: &mut CorePipeline| {
            let mut i = 0;
            while i < n {
                let hi = (i + 1024).min(n);
                let bytes = (hi - i) * 8;
                sink.load_range((1 << 41) + i * 8, bytes);
                sink.load_range((1 << 42) + i * 8, bytes);
                sink.store_range((3 << 41) + i * 8, bytes);
                i = hi;
            }
        };
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec).with_analytic(false).simulate(1, trace);
        assert!(analytic.analytic_ops > 0, "{analytic:?}");
        // Every line is either fast-forwarded or replayed: three arrays
        // of n doubles are 3·n/8 lines.
        assert_eq!(
            analytic.analytic_ops + analytic.replay_fallback_ops,
            3 * n / 8
        );
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
    }

    #[test]
    fn tlb_on_devices_stay_digest_identical() {
        // Mango Pi (TLB on): the executor is never armed, so nothing is
        // recorded, attempted or fast-forwarded; digests must match.
        let spec = Device::MangoPiMqPro.spec();
        let trace = |_tid: u32, sink: &mut CorePipeline| {
            for row in 0..64u64 {
                sink.access_strided((1 << 30) + row * 8192, 8, 1024, 8, false);
            }
        };
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec).with_analytic(false).simulate(1, trace);
        assert_eq!(analytic.analytic_ops, 0);
        assert_eq!(analytic.replay_fallback_ops, 0);
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
    }

    #[test]
    fn coverage_estimator_matches_gates() {
        let spec = tiny_spec();
        let load = |addr| TraceOp::Access {
            addr,
            size: 8,
            write: false,
        };
        let program = vec![
            // P = 8192/64 = 128 iterations per chunk; 4100 iterations are
            // 32 whole chunks (4096) plus a 4-iteration remainder.
            TraceOp::Repeat {
                body: vec![load(1 << 30)],
                steps: vec![64],
                count: 4100,
            },
            // Lone ops are never planned, however long.
            TraceOp::Strided {
                base: 1 << 31,
                stride: 64,
                count: 4096,
                size: 8,
                write: false,
            },
            load(1 << 30),
        ];
        let cov = estimate_coverage(&spec, &program);
        assert_eq!(cov.total_elems, 4100 + 4096 + 1);
        assert_eq!(cov.eligible_elems, 4096);
        assert!((cov.percent() - 4096.0 / 8197.0 * 100.0).abs() < 1e-9);
        // Devices the executor never arms on cover nothing: translation
        // on, or channel-contended DRAM.
        let mut tlb_spec = tiny_spec();
        tlb_spec.tlb_enabled = true;
        let mut contended = tiny_spec();
        contended.dram = contended.dram.with_channel_contention();
        for spec in [tlb_spec, contended] {
            let cov = estimate_coverage(&spec, &program);
            assert_eq!(cov.eligible_elems, 0);
            assert_eq!(cov.total_elems, 8197);
        }
    }
}
