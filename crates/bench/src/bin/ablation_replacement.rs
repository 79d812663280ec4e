//! ABLATION: the U74's random replacement policy vs LRU.
//!
//! DESIGN.md §7: §3.1 reports that both VisionFive cache levels use a
//! random replacement policy ("RRP"). Does the transposition ladder's
//! shape change if the JH7100 had used LRU?

use membound_bench::{scale_banner, Args};
use membound_core::experiment::simulate_transpose;
use membound_core::report::{fmt_seconds, to_json, TextTable};
use membound_core::{TransposeConfig, TransposeVariant};
use membound_sim::{Device, ReplacementPolicy};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    policy: String,
    variant: String,
    seconds: f64,
    l1_hit_rate: f64,
}

fn main() {
    let args = Args::parse("ablation_replacement");
    args.reject_engine_flags();
    let n = if args.full { 8192 } else { 2048 };
    let cfg = TransposeConfig::new(n);
    println!("ABLATION: StarFive cache replacement policy, transpose n = {n}");
    println!("{}\n", scale_banner(args.full));

    let policies = [
        ReplacementPolicy::Random,
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Fifo,
    ];
    let mut table = TextTable::new(
        ["policy", "variant", "time", "L1 hit rate"]
            .map(String::from)
            .to_vec(),
    );
    let mut rows = Vec::new();
    for policy in policies {
        let mut spec = Device::StarFiveVisionFive.spec();
        for cache in &mut spec.caches {
            cache.replacement = policy;
        }
        for variant in [
            TransposeVariant::Naive,
            TransposeVariant::Blocking,
            TransposeVariant::ManualBlocking,
        ] {
            let report = simulate_transpose(&spec, variant, cfg).expect("fits");
            let hit_rate = report.cache_stats[0].hit_rate();
            table.row(vec![
                policy.to_string(),
                variant.label().into(),
                fmt_seconds(report.seconds),
                format!("{hit_rate:.4}"),
            ]);
            rows.push(Row {
                policy: policy.to_string(),
                variant: variant.label().into(),
                seconds: report.seconds,
                l1_hit_rate: hit_rate,
            });
        }
    }
    println!("{}", table.render());
    println!(
        "expectation: random replacement softens the pathological\n\
         power-of-two conflict behaviour of the column walk (no fixed victim\n\
         pattern) but loses a little on the well-behaved blocked variants —\n\
         the ladder's overall shape is policy-robust."
    );
    args.write_json(&to_json(&rows));
}
