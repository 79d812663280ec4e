//! ABLATION: loop schedules on the triangular transpose loop.
//!
//! DESIGN.md §7: the paper introduces `schedule(dynamic)` to fix the
//! triangular imbalance. How do static, chunked-static, dynamic and
//! guided compare as the core count grows? (Pure schedule study: the
//! staged ManualBlocking kernel with each schedule, on the Xeon model.)

use membound_bench::{scale_banner, Args};
use membound_core::report::{fmt_seconds, to_json, TextTable};
use membound_core::runner::resolve_jobs;
use membound_core::{TransposeConfig, TransposeTrace, TransposeVariant};
use membound_parallel::Schedule;
use membound_sim::{Device, JobBudget, Machine};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    schedule: String,
    threads: u32,
    seconds: f64,
    imbalance: f64,
}

fn main() {
    let args = Args::parse("ablation_schedule");
    args.reject_engine_flags();
    let n = if args.full { 8192 } else { 2048 };
    let cfg = TransposeConfig::new(n);
    println!("ABLATION: schedules on the triangular block loop, Xeon model, n = {n}");
    println!("{}\n", scale_banner(args.full));

    let spec = Device::IntelXeon4310T.spec();
    let trace = TransposeTrace::new(cfg);
    let variant = TransposeVariant::ManualBlocking; // kernel fixed; schedule varies
    let total = trace.outer_iterations(variant);
    let schedules = [
        ("static", Schedule::Static),
        ("static,4", Schedule::StaticChunk(4)),
        ("dynamic,1", Schedule::Dynamic(1)),
        ("dynamic,4", Schedule::Dynamic(4)),
        ("guided", Schedule::Guided(1)),
    ];

    let mut table = TextTable::new(
        ["schedule", "threads", "time", "plan imbalance"]
            .map(String::from)
            .to_vec(),
    );
    let mut rows = Vec::new();
    // One shared budget: cells run serially here, so every slot is spare
    // for the per-core fan-out inside `Machine::simulate`.
    let budget = JobBudget::new(resolve_jobs(args.jobs));
    for threads in [2u32, 4, 10] {
        for (name, schedule) in schedules {
            let weight = |i: u64| trace.weight(variant, i);
            let plan = schedule.plan(total, threads, weight);
            let machine = Machine::new(spec.clone()).with_budget(budget.clone());
            let report = machine.simulate(threads, |tid, sink| {
                for range in &plan[tid as usize] {
                    trace.trace_outer(variant, sink, tid, range.start, range.end);
                }
            });
            let imbalance = schedule.imbalance(total, threads, weight);
            table.row(vec![
                name.into(),
                threads.to_string(),
                fmt_seconds(report.seconds),
                format!("{imbalance:.3}"),
            ]);
            rows.push(Row {
                schedule: name.into(),
                threads,
                seconds: report.seconds,
                imbalance,
            });
        }
    }
    println!("{}", table.render());
    println!(
        "expectation: static's imbalance grows with the thread count (the\n\
         first thread owns the longest rows); dynamic and guided stay near\n\
         1.0 and win whenever the machine is not already bandwidth-bound."
    );
    args.write_json(&to_json(&rows));
}
