//! The `triad-analytic` workload: the `whatif_large_n` triad on the
//! TLB-off Xeon model through `Machine::simulate` with the analytic
//! executor on, the one path where it fast-forwards most of the work.

use crate::catalog;
use crate::run::{mix, Ctx, Layers, Measured, Replay, Traced, SETUP_REPS};
use crate::sim::{Emitter, LargeTriad, MachineOpts};
use membound_sim::{analytic_default, Device, DeviceSpec};
use std::time::Instant;

/// Elements of the canonical triad (the `whatif_large_n` default).
const CANONICAL_ELEMENTS: u64 = 1 << 28;
/// Inter-array skew of the canonical triad, in cache lines.
const CANONICAL_SKEW: u64 = 65;
/// Budget of the measured simulations (one simulated core, so no
/// fan-out; the seat convention as the engine would run it).
const JOBS: u32 = 2;
/// The replay cross-check runs the seed's triad at 1/2^this of its size.
const CHECK_SHIFT: u32 = 8;

fn spec() -> DeviceSpec {
    Device::IntelXeon4310T.spec().without_tlb()
}

/// The seed's triad: the canonical one for the default seed, otherwise
/// up to 1023 extra 1024-element blocks and a skew of 65 to 96 lines.
pub fn triad_for(seed: u64) -> LargeTriad {
    if seed == catalog::DEFAULT_SEED {
        return LargeTriad {
            elements: CANONICAL_ELEMENTS,
            skew_lines: CANONICAL_SKEW,
        };
    }
    let h = mix(seed);
    LargeTriad {
        elements: CANONICAL_ELEMENTS + (h % 1024) * 1024,
        skew_lines: CANONICAL_SKEW + (h >> 10) % 32,
    }
}

fn opts() -> MachineOpts {
    MachineOpts {
        analytic: analytic_default(),
        jobs: JOBS,
    }
}

/// Set-up: the seed's triad, and a warm-up that doubles as the
/// correctness check of the analytic executor on it — the same triad
/// scaled down to a replayable size, simulated with the executor on and
/// forced off. Returns the triad and whether the two digests agree.
fn setup(seed: u64) -> (LargeTriad, bool) {
    let triad = triad_for(seed);
    let small = Emitter::Triad(LargeTriad {
        elements: triad.elements >> CHECK_SHIFT,
        skew_lines: triad.skew_lines,
    });
    let on = small.simulate(&spec(), opts()).0;
    let off_opts = MachineOpts {
        analytic: false,
        jobs: JOBS,
    };
    let off = small.simulate(&spec(), off_opts).0;
    (triad, on.stats_digest() == off.stats_digest())
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        built = Some(setup(ctx.seed));
        m.setups.push(start.elapsed().as_secs_f64());
    }
    let (triad, agrees) = built.expect("at least one set-up");
    let emitter = Emitter::Triad(triad);
    let spec = spec();
    if !spec.fits_in_memory(triad.bytes()) {
        return Err("the triad exceeds the Xeon model's memory".into());
    }
    let pin = (ctx.seed == catalog::DEFAULT_SEED).then_some(catalog::TRIAD_DEFAULT_DIGEST);
    let mut reference: Option<String> = None;
    let start = Instant::now();
    loop {
        let (report, wall) = emitter.simulate(&spec, opts());
        let digest = format!("{:016x}", report.stats_digest());
        let expected = reference.get_or_insert_with(|| pin.map_or(digest.clone(), String::from));
        m.attempted += 1;
        let ok = digest == *expected;
        if !ok {
            m.failed += 1;
        }
        if m.rounds.is_empty() {
            m.digests.push(("triad".into(), digest));
            m.notes.push(format!(
                "n = {} doubles, skew {} lines; analytic ff {} / fallback {} ops",
                triad.elements, triad.skew_lines, report.analytic_ops, report.replay_fallback_ops
            ));
        }
        m.rounds.push(wall);
        m.latencies_ms
            .push(vec![if ok { wall * 1e3 } else { f64::INFINITY }]);
        if start.elapsed().as_secs_f64() + wall > ctx.seconds.as_secs_f64() {
            break;
        }
    }
    m.attempted += 1;
    if !agrees {
        m.failed += 1;
        m.notes
            .push("analytic and forced replay disagree on the scaled-down triad".into());
    }
    Ok(m)
}

pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let (triad, agrees) = setup(ctx.seed);
    let emitter = Emitter::Triad(triad);
    let spec = spec();
    let (untraced, untraced_wall) = emitter.simulate(&spec, opts());
    let digest = format!("{:016x}", untraced.stats_digest());

    let start = Instant::now();
    let (refs, emit_s) = emitter.emit_counted();
    let (report, simulate_s) = emitter.simulate(&spec, opts());
    let traced_wall = start.elapsed().as_secs_f64();
    let mut replay = Replay::default();
    replay.add(&report, refs, emit_s, simulate_s);
    let mut layers = Layers::new();
    replay.record(&mut layers);

    let off = emitter.simulate(
        &spec,
        MachineOpts {
            analytic: false,
            jobs: JOBS,
        },
    );
    let serial = emitter.simulate(
        &spec,
        MachineOpts {
            analytic: analytic_default(),
            jobs: 0,
        },
    );
    layers.set("analytic.cost_s", simulate_s - off.1);
    layers.set("machine.fanout_gain", serial.1 / simulate_s);
    layers.set("tracing.overhead_s", traced_wall - untraced_wall);

    let pinned = ctx.seed != catalog::DEFAULT_SEED || digest == catalog::TRIAD_DEFAULT_DIGEST;
    let replays_agree = agrees
        && [&report, &off.0, &serial.0]
            .iter()
            .all(|r| format!("{:016x}", r.stats_digest()) == digest);
    Ok(Traced {
        layers,
        untraced_wall,
        traced_wall,
        attempted: 5,
        failed: u64::from(!pinned) + u64::from(!replays_agree),
        digests: vec![("triad".into(), digest)],
        notes: vec![format!(
            "forced replay {:.3} s vs analytic {:.3} s",
            off.1, simulate_s
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_canonical_triad() {
        assert_eq!(
            triad_for(catalog::DEFAULT_SEED),
            LargeTriad {
                elements: 1 << 28,
                skew_lines: 65
            }
        );
        let other = triad_for(7);
        assert_eq!(other, triad_for(7), "same seed, same inputs");
        assert_eq!(other.elements % 1024, 0);
        assert!((65..97).contains(&other.skew_lines));
    }

    #[test]
    fn scaled_triad_agrees_with_forced_replay() {
        assert!(setup(7).1);
    }
}
