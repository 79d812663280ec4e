//! ABLATION: hardware prefetchers on vs off, per device.
//!
//! DESIGN.md §7: isolates the §4.3 "Unit-stride" anomaly — prefetching
//! helps devices whose DRAM has headroom and does nothing for the
//! bandwidth-starved StarFive ("low memory bandwidth does not allow data
//! to be prepared on time").

use membound_bench::{scale_banner, Args};
use membound_core::experiment::simulate_blur;
use membound_core::report::{to_json, TextTable};
use membound_core::runner::resolve_jobs;
use membound_core::{figures, BlurVariant, StreamKernel, StreamOp};
use membound_sim::{Device, JobBudget, Machine};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    stream_gbps_with: f64,
    stream_gbps_without: f64,
    blur_unit_stride_with: f64,
    blur_unit_stride_without: f64,
}

fn main() {
    let args = Args::parse("ablation_prefetch");
    args.reject_engine_flags();
    let cfg = if args.full {
        figures::paper_blur(true)
    } else {
        membound_core::BlurConfig::small(507, 636)
    };
    println!("ABLATION: prefetchers on/off");
    println!("{}\n", scale_banner(args.full));

    let mut table = TextTable::new(
        [
            "device",
            "STREAM GB/s (pf on)",
            "STREAM GB/s (pf off)",
            "Unit-stride blur s (on)",
            "Unit-stride blur s (off)",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut rows = Vec::new();
    // Devices are walked serially; the whole budget is spare for the
    // multi-core STREAM replays (the blur variant here is single-core).
    let budget = JobBudget::new(resolve_jobs(args.jobs));
    for device in Device::paper() {
        let with = device.spec();
        let without = device.spec().without_prefetchers();
        let triad = StreamKernel::new(StreamOp::Triad, None);
        let stream_with = triad.measure(&Machine::new(with.clone()).with_budget(budget.clone()));
        let stream_without =
            triad.measure(&Machine::new(without.clone()).with_budget(budget.clone()));
        let blur_with = simulate_blur(&with, BlurVariant::UnitStride, cfg).seconds;
        let blur_without = simulate_blur(&without, BlurVariant::UnitStride, cfg).seconds;
        table.row(vec![
            device.label().into(),
            format!("{stream_with:.2}"),
            format!("{stream_without:.2}"),
            format!("{blur_with:.3}"),
            format!("{blur_without:.3}"),
        ]);
        rows.push(Row {
            device: device.label().into(),
            stream_gbps_with: stream_with,
            stream_gbps_without: stream_without,
            blur_unit_stride_with: blur_with,
            blur_unit_stride_without: blur_without,
        });
    }
    println!("{}", table.render());
    println!(
        "expectation: large STREAM drops without prefetch on the Xeon, the\n\
         Raspberry Pi and the Mango Pi; a negligible drop on the StarFive —\n\
         its DRAM channel is the constraint either way."
    );
    args.write_json(&to_json(&rows));
}
