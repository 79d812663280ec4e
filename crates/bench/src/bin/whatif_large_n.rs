//! WHAT-IF: STREAM triad at n >> LLC — the analytic executor's headline case.
//!
//! The paper's figures stop at array sizes a workstation can replay
//! per element in seconds. This bench asks what the same pipeline
//! costs when n is pushed far past the last-level cache (the regime
//! the paper's bandwidth model actually targets): a single-pass
//! blocked triad a[i] = b[i] + s*c[i] over arrays of `--elements`
//! doubles, simulated twice on the same machine configuration —
//! once with the analytic trace-IR executor (the default), once with
//! it forced off (pure per-element replay) — and reports the honest
//! same-session wall-clock ratio plus the digest-identity proof that
//! both paths computed the *same* statistics.
//!
//! TLB translation is disabled (`DeviceSpec::without_tlb`): the
//! steady-state isomorphism the fast-forward rests on does not hold
//! under finite TLBs, so the executor only arms with translation off
//! (DESIGN.md §15) and never runs on fig2/fig6. Large-n bandwidth
//! studies are exactly the place where translation is routinely
//! factored out.
//!
//! Devices whose modelled DRAM cannot hold the three arrays are
//! skipped with a note (the Mango Pi's 1 GB holds nothing at this
//! scale); the StarFive's random-replacement caches defeat the
//! periodicity proof, so it reports an honest ~1x with the analytic
//! ops counter at zero; channel-contended DRAM (the SG2044) never arms
//! the executor at all.

use std::time::Instant;

use membound_bench::{scale_banner, Args};
use membound_core::report::{fmt_seconds, fmt_speedup, to_json, TextTable};
use membound_sim::{Machine, SimReport};
use membound_trace::{IterCost, TraceSink};
use serde::Serialize;

/// Elements per emission block: 8 KiB per stream, so the recorder sees
/// three `Range` ops per block and folds the whole pass into one
/// `Repeat` instead of buffering per-line probes.
const BLOCK_ELEMS: u64 = 1024;

#[derive(Serialize)]
struct Row {
    device: String,
    elements: u64,
    array_mb: u64,
    analytic_seconds: f64,
    replay_seconds: f64,
    speedup: f64,
    digest: String,
    digests_match: bool,
    analytic_ops: u64,
    replay_fallback_ops: u64,
}

/// One single-pass blocked triad over three well-separated arrays.
struct LargeTriad {
    elements: u64,
    base_a: u64,
    base_b: u64,
    base_c: u64,
}

impl LargeTriad {
    fn new(elements: u64) -> Self {
        // Same placement rule as StreamTrace: regions far apart with a
        // 65-line skew so power-of-two bases don't collapse the three
        // streams onto one cache set.
        let stride = (elements * 8).next_power_of_two().max(1 << 20) + 65 * 64;
        Self {
            elements,
            base_a: 0x2000_0000_0000,
            base_b: 0x2000_0000_0000 + stride,
            base_c: 0x2000_0000_0000 + 2 * stride,
        }
    }

    fn bytes_per_array(&self) -> u64 {
        self.elements * 8
    }

    fn trace<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        let mut i = 0;
        while i < self.elements {
            let hi = (i + BLOCK_ELEMS).min(self.elements);
            let bytes = (hi - i) * 8;
            sink.load_range(self.base_b + i * 8, bytes);
            sink.load_range(self.base_c + i * 8, bytes);
            sink.store_range(self.base_a + i * 8, bytes);
            i = hi;
        }
        let cost = IterCost::new(2, 2)
            .mem(2, 1)
            .elem_bytes(8)
            .vectorizable(true);
        sink.compute(cost, self.elements);
    }
}

fn run(machine: &Machine, triad: &LargeTriad) -> (SimReport, f64) {
    let start = Instant::now();
    let report = machine.simulate(1, |_tid, sink| triad.trace(sink));
    (report, start.elapsed().as_secs_f64())
}

fn main() {
    let args = Args::parse("whatif_large_n");
    let elements: u64 = if args.full { 1 << 30 } else { 1 << 28 };
    let devices = args.devices();
    let triad = LargeTriad::new(elements);
    println!("WHAT-IF: single-pass triad at n >> LLC, analytic vs forced replay");
    println!("{}", scale_banner(args.full));
    println!(
        "n = {} doubles ({} MiB per array, 3 arrays), TLB off, 1 core\n",
        elements,
        triad.bytes_per_array() >> 20
    );

    let mut rows = Vec::new();
    for device in &devices {
        let spec = device.spec().without_tlb();
        if !spec.fits_in_memory(3 * triad.bytes_per_array()) {
            println!(
                "{}: skipped — {} MiB working set exceeds modelled DRAM",
                device.label(),
                (3 * triad.bytes_per_array()) >> 20
            );
            continue;
        }
        let (analytic, analytic_seconds) = run(&Machine::new(spec.clone()), &triad);
        let (replay, replay_seconds) = run(&Machine::new(spec).with_analytic(false), &triad);
        let digests_match = analytic.stats_digest() == replay.stats_digest();
        assert!(
            digests_match,
            "{}: analytic digest {:016x} != replay digest {:016x}",
            device.label(),
            analytic.stats_digest(),
            replay.stats_digest()
        );
        rows.push(Row {
            device: device.label().to_string(),
            elements,
            array_mb: triad.bytes_per_array() >> 20,
            analytic_seconds,
            replay_seconds,
            speedup: replay_seconds / analytic_seconds,
            digest: format!("{:016x}", analytic.stats_digest()),
            digests_match,
            analytic_ops: analytic.analytic_ops,
            replay_fallback_ops: analytic.replay_fallback_ops,
        });
    }

    let mut table = TextTable::new(
        [
            "device", "analytic", "replay", "speedup", "digest", "ff ops",
        ]
        .map(String::from)
        .to_vec(),
    );
    for row in &rows {
        table.row(vec![
            row.device.clone(),
            fmt_seconds(row.analytic_seconds),
            fmt_seconds(row.replay_seconds),
            fmt_speedup(row.speedup),
            row.digest.clone(),
            row.analytic_ops.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "digest identity holds on every row; rows with ff ops = 0 fell back\n\
         to per-element replay (random replacement defeats the periodicity\n\
         proof) and their ~1x ratio is the honest cost of the attempt."
    );

    if let Some(dir) = args.json_path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&args.json_path, to_json(&rows)).expect("write json");
    println!("\nwrote {}", args.json_path.display());
}
