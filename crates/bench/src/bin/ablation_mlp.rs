//! ABLATION: sensitivity of simulated times to the memory-level
//! parallelism (MLP) calibration parameter.
//!
//! DESIGN.md §7: MLP is the model's least-grounded knob (the paper gives
//! pipeline shapes but not miss-queue depths). This sweep shows which
//! conclusions are MLP-robust: the *ordering* of the transpose ladder
//! never changes, only the naive variant's absolute time scales.

use membound_bench::{scale_banner, Args};
use membound_core::experiment::simulate_transpose;
use membound_core::report::{fmt_seconds, to_json, TextTable};
use membound_core::runner::resolve_jobs;
use membound_core::{simulate, TransposeConfig, TransposeKernel, TransposeVariant};
use membound_sim::{Device, JobBudget, Machine};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    mlp: f64,
    naive_seconds: f64,
    dynamic_seconds: f64,
    speedup: f64,
}

fn main() {
    let args = Args::parse("ablation_mlp");
    args.reject_engine_flags();
    let n = if args.full { 8192 } else { 2048 };
    let cfg = TransposeConfig::new(n);
    println!("ABLATION: MLP sensitivity, transpose n = {n}");
    println!("{}\n", scale_banner(args.full));

    let mut table = TextTable::new(
        ["device", "MLP", "Naive", "Dynamic", "speedup"]
            .map(String::from)
            .to_vec(),
    );
    let mut rows = Vec::new();
    // Devices are walked serially; the budget feeds the multi-core
    // Dynamic-variant replay (Naive is single-core either way).
    let budget = JobBudget::new(resolve_jobs(args.jobs));
    for device in [Device::MangoPiMqPro, Device::RaspberryPi4] {
        let base_mlp = device.spec().core.mlp;
        for factor in [0.5, 1.0, 2.0, 4.0] {
            let mut spec = device.spec();
            spec.core.mlp = (base_mlp * factor).max(1.0);
            let naive = simulate_transpose(&spec, TransposeVariant::Naive, cfg)
                .expect("fits")
                .seconds;
            let machine = Machine::new(spec.clone()).with_budget(budget.clone());
            let dynamic = simulate(
                &machine,
                &TransposeKernel::new(TransposeVariant::Dynamic, cfg),
            )
            .expect("fits")
            .seconds;
            table.row(vec![
                device.label().into(),
                format!("{:.1}", spec.core.mlp),
                fmt_seconds(naive),
                fmt_seconds(dynamic),
                format!("x{:.1}", naive / dynamic),
            ]);
            rows.push(Row {
                device: device.label().into(),
                mlp: spec.core.mlp,
                naive_seconds: naive,
                dynamic_seconds: dynamic,
                speedup: naive / dynamic,
            });
        }
    }
    println!("{}", table.render());
    println!(
        "expectation: naive times shrink as MLP grows (more overlapped\n\
         misses) until bandwidth binds; the optimized variant barely moves,\n\
         so the ladder's ordering — the paper's claim — is MLP-robust."
    );
    args.write_json(&to_json(&rows));
}
