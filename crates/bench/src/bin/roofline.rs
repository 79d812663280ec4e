//! ROOFLINE: quantify the paper's "memory-bound" premise.
//!
//! For every device × kernel pair, print arithmetic intensity, the
//! device's ridge point (using its *measured* STREAM bandwidth) and the
//! binding roof. Everything the paper benchmarks sits under the memory
//! roof except the naïve 2-D blur on the scalar boards — which is why
//! §4.3's ladder has to reduce arithmetic (1D_kernels) before memory
//! restructuring (Memory) pays off.

use membound_bench::Args;
use membound_core::report::{to_json, TextTable};
use membound_core::roofline::{DeviceRoofline, KernelIntensity};
use membound_core::runner::resolve_jobs;
use membound_core::{BlurConfig, StreamKernel, StreamOp, TransposeConfig};
use membound_sim::{Device, JobBudget, Machine};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    kernel: String,
    intensity_flops_per_byte: f64,
    ridge: f64,
    attainable_gflops: f64,
    memory_bound: bool,
}

fn main() {
    let args = Args::parse("roofline");
    args.reject_engine_flags();
    println!("ROOFLINE: device ridge points vs kernel intensities\n");

    let kernels = [
        KernelIntensity::stream(StreamOp::Copy),
        KernelIntensity::stream_triad(),
        KernelIntensity::transpose(TransposeConfig::new(8192)),
        KernelIntensity::blur_2d(&BlurConfig::paper()),
        KernelIntensity::blur_separable(&BlurConfig::paper()),
    ];

    let mut table = TextTable::new(
        [
            "device",
            "kernel",
            "I [flop/B]",
            "ridge",
            "attainable GF/s",
            "bound",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut rows = Vec::new();
    // Devices are walked serially; the budget feeds the multi-core
    // STREAM measurement inside each device.
    let budget = JobBudget::new(resolve_jobs(args.jobs));
    for device in Device::paper() {
        let spec = device.spec();
        let machine = Machine::new(spec.clone()).with_budget(budget.clone());
        let stream = StreamKernel::new(StreamOp::Triad, None).measure(&machine);
        let roof = DeviceRoofline::for_device(&spec, stream);
        for k in &kernels {
            let i = k.intensity();
            let memory_bound = roof.is_memory_bound(i);
            table.row(vec![
                device.label().into(),
                k.kernel.clone(),
                format!("{i:.3}"),
                format!("{:.2}", roof.ridge_intensity()),
                format!("{:.2}", roof.attainable_gflops(i)),
                if memory_bound {
                    "memory".into()
                } else {
                    "compute".into()
                },
            ]);
            rows.push(Row {
                device: device.label().into(),
                kernel: k.kernel.clone(),
                intensity_flops_per_byte: i,
                ridge: roof.ridge_intensity(),
                attainable_gflops: roof.attainable_gflops(i),
                memory_bound,
            });
        }
    }
    println!("{}", table.render());
    println!(
        "reading: STREAM and the transposition sit at I <= 0.08 — memory-bound\n\
         everywhere, as the paper assumes. The naive 2-D blur carries enough\n\
         redundant arithmetic to cross the scalar boards' ridge; the\n\
         separable rewrite pushes it back under the memory roof, which is\n\
         why the \"Memory\" loop restructure is the step that pays."
    );
    args.write_json(&to_json(&rows));
}
