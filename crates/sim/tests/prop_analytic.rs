//! Property tests for analytic (trace-IR fast-forward) execution: the
//! digest-identity contract of DESIGN.md §15.
//!
//! Every scripted trace must produce a bit-identical
//! [`SimReport::stats_digest`] three ways:
//!
//! 1. analytic executor on (`Machine::with_analytic(true)`, the default),
//! 2. analytic executor off (forced full replay through the fast path),
//! 3. the [`Machine::without_fastpath`] reference build (which cannot run
//!    the analytic executor at all).
//!
//! The generated scripts cover the shapes an armed executor records:
//! negative, zero and sub-line strides, page-straddling ranges, armed-line
//! handoffs (RMW batches that leave lines armed for a later pass) and long
//! unit-stride sweeps. The executor plans only recorded loops: the batch
//! ops prove the armed machine's raw replay, and the sweeps are emitted
//! per element so they fold into a `Repeat` that fast-forward engages on
//! the TLB-off variants (`script_sweeps_fast_forward` keeps that so). Both the stock
//! presets (translation on — the executor never arms) and their
//! [`DeviceSpec::without_tlb`] variants are exercised, so the suite proves
//! both "an unarmed machine replays exactly" and "the extrapolation
//! replays correctly".

use membound_sim::{Device, DeviceSpec, Machine, SimReport};
use membound_trace::TraceSink;
use proptest::prelude::*;

/// One scripted reference; the op byte selects the flavour.
type Op = (u8, u64, u32);

/// Stride menu for the batch ops: negative, zero, sub-line, exactly one
/// line, and a transpose-style multi-line stride.
const STRIDES: [i64; 8] = [-520, -64, -8, 0, 8, 24, 64, 520];

/// Replay a scripted op sequence into a sink.
///
/// Scalar addresses come from a small pool (two adjacent 4 KiB pages plus
/// a far region) so same-line repeats are constant; batch ops get their
/// own disjoint regions so negative strides stay inside mapped space.
fn replay<S: TraceSink>(ops: &[Op], sink: &mut S) {
    for &(op, raw_addr, raw_size) in ops {
        let pool = 0x1000_0000_0000 + raw_addr % (2 * 4096);
        let size = 1 + raw_size % 72;
        match op {
            0 => sink.load(pool, size),
            1 => sink.store(pool, size),
            // Page-boundary huggers: ranges that start near the end of a
            // page and run over it.
            2 => sink.load_range(
                0x1000_0000_0000 + 4096 - (raw_addr % 80),
                u64::from(size) * 11,
            ),
            3 => sink.store_range(
                0x2000_0000_0000 + (raw_addr % 64) * 4096,
                u64::from(size) * 23,
            ),
            // Constant-stride batches over the whole stride menu. The
            // base sits 1 MiB into its region so negative strides never
            // underflow into the scalar pool.
            4 | 5 => {
                let stride = STRIDES[(raw_size as usize) % STRIDES.len()];
                let base = 0x3000_0000_0000 + (1 << 20) + (raw_addr % 4096) * 8;
                let count = 1 + raw_addr % 300;
                if op == 4 {
                    sink.access_strided(base, stride, count, 8, raw_size % 5 == 0);
                } else {
                    // RMW arms every touched line; a later op 4/7 over the
                    // same region is the armed handoff.
                    sink.access_strided_rmw(base, stride, count, 8);
                }
            }
            6 => sink.barrier(),
            // Long unit-stride sweep, emitted per element so it folds
            // into a `Repeat` (only recorded loops are fast-forwarded):
            // 2048+ lines are at least 16 chunks of Mango's 8 KiB modulus.
            _ => {
                let base = 0x4000_0000_0000 + (raw_addr % 8) * (1 << 21);
                for i in 0..2048 + raw_addr % 2048 {
                    sink.load(base + i * 64, 8);
                }
            }
        }
    }
}

fn digest(spec: DeviceSpec, ops: &[Op], build: fn(Machine) -> Machine) -> SimReport {
    build(Machine::new(spec)).simulate(1, |_tid, sink| replay(ops, sink))
}

/// Three-way digest identity on one spec; returns the analytic report so
/// callers can assert on engagement counters.
fn assert_three_way(spec: &DeviceSpec, ops: &[Op], label: &str) -> SimReport {
    let analytic = digest(spec.clone(), ops, |m| m.with_analytic(true));
    let replay = digest(spec.clone(), ops, |m| m.with_analytic(false));
    let reference = digest(spec.clone(), ops, Machine::without_fastpath);
    assert_eq!(
        analytic.stats_digest(),
        replay.stats_digest(),
        "analytic executor diverged from forced replay on {label}: {analytic:#?} vs {replay:#?}"
    );
    assert_eq!(
        replay.stats_digest(),
        reference.stats_digest(),
        "fast path diverged from reference on {label}: {replay:#?} vs {reference:#?}"
    );
    assert_eq!(
        replay.analytic_ops, 0,
        "replay build must never fast-forward"
    );
    analytic
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Analytic on, analytic off and the no-fastpath reference agree,
    /// digest-for-digest, on all presets with translation enabled
    /// (where the executor is never armed, so "on" must equal "off").
    #[test]
    fn analytic_digest_matches_replay_and_reference_tlb_on(
        ops in proptest::collection::vec((0u8..8, 0u64..1 << 16, 0u32..1 << 16), 1..120),
    ) {
        for device in Device::all() {
            assert_three_way(&device.spec(), &ops, device.spec().name.as_str());
        }
    }

    /// Same three-way identity on the TLB-off variants, where long
    /// sweeps are fast-forward eligible and extrapolation really runs.
    #[test]
    fn analytic_digest_matches_replay_and_reference_tlb_off(
        ops in proptest::collection::vec((0u8..8, 0u64..1 << 16, 0u32..1 << 16), 1..120),
    ) {
        for device in Device::all() {
            let spec = device.spec().without_tlb();
            let label = format!("{} (no TLB)", device);
            assert_three_way(&spec, &ops, &label);
        }
    }
}

/// The script's sweep op must reach fast-forward where the executor arms
/// (TLB off, Mango's 8 KiB modulus), or the TLB-off soak above would only
/// ever prove raw replay.
#[test]
fn script_sweeps_fast_forward() {
    let ops: [Op; 3] = [(5, 17, 6), (7, 3, 0), (7, 1000, 0)];
    let spec = Device::MangoPiMqPro.spec().without_tlb();
    let analytic = assert_three_way(&spec, &ops, "Mango Pi (no TLB)");
    assert!(
        analytic.analytic_ops > 0,
        "the script's sweeps must fast-forward on Mango: {analytic:?}"
    );
}

/// Deterministic armed-handoff soak: an RMW pass arms every line of a
/// region, then a long unit-stride load sweep (the fast-forward headline
/// shape, emitted per element so it folds into a `Repeat`) re-reads it,
/// then a second RMW pass rewrites it. The planner must either carry the
/// armed bits through extrapolation exactly or refuse; digest identity
/// proves whichever it chose was sound. On Mango's single 8 KiB-modulus
/// L1 the sweep is long enough that fast-forward must actually engage.
#[test]
fn armed_handoff_survives_fast_forward() {
    let trace = |sink: &mut dyn TraceSink| {
        let base = 0x5000_0000_0000u64;
        sink.access_strided_rmw(base, 64, 4096, 8);
        for i in 0..1u64 << 15 {
            sink.load(base + i * 64, 8);
        }
        sink.barrier();
        // Backward pass over the same lines: negative step from the far
        // end, still armed from the RMW prologue.
        for i in 0..1u64 << 14 {
            sink.store(base + (1 << 15) * 64 - 64 - i * 64, 8);
        }
        sink.access_strided_rmw(base, 8, 4096, 8);
    };
    for device in Device::all() {
        let spec = device.spec().without_tlb();
        let run = |build: fn(Machine) -> Machine| {
            build(Machine::new(spec.clone())).simulate(1, |_tid, sink| trace(sink))
        };
        let analytic = run(|m| m.with_analytic(true));
        let replay = run(|m| m.with_analytic(false));
        let reference = run(Machine::without_fastpath);
        assert_eq!(
            analytic.stats_digest(),
            replay.stats_digest(),
            "armed handoff diverged under fast-forward on {device}"
        );
        assert_eq!(
            replay.stats_digest(),
            reference.stats_digest(),
            "fast path diverged from reference on {device}"
        );
        if *device == Device::MangoPiMqPro {
            assert!(
                analytic.analytic_ops > 0,
                "the 32 Ki-element sweep must fast-forward on Mango's 8 KiB modulus: {analytic:?}"
            );
        }
    }
}

/// Sub-line and zero strides hammer one line (or a handful) per batch —
/// the degenerate periodicities where an off-by-one in the repeat-line
/// fast path interaction would hide. Dense deterministic sweep over
/// every stride in the menu on every TLB-off preset, as batches and as a
/// per-element loop that folds into a `Repeat`; the zero-stride loop
/// must fast-forward wherever the executor arms (uncontended DRAM).
#[test]
fn degenerate_strides_are_digest_exact() {
    for device in Device::all() {
        let spec = device.spec().without_tlb();
        for &stride in &STRIDES {
            let trace = move |sink: &mut dyn TraceSink| {
                let base = 0x6000_0000_0000u64 + (1 << 20);
                sink.access_strided(base, stride, 5000, 8, false);
                sink.access_strided_rmw(base + 1024, stride, 2500, 8);
                sink.access_strided(base, stride, 5000, 4, true);
                for i in 0..5000 {
                    sink.load(base.wrapping_add_signed(stride * i), 8);
                }
            };
            let analytic = Machine::new(spec.clone())
                .with_analytic(true)
                .simulate(1, |_tid, sink| trace(sink));
            let replay = Machine::new(spec.clone())
                .with_analytic(false)
                .simulate(1, |_tid, sink| trace(sink));
            assert_eq!(
                analytic.stats_digest(),
                replay.stats_digest(),
                "stride {stride} diverged on {device}"
            );
            if stride == 0 && !spec.dram.contended {
                assert!(
                    analytic.analytic_ops > 0,
                    "the zero-stride loop must fast-forward on {device}: {analytic:?}"
                );
            }
        }
    }
}
