//! WHAT-IF: paper boards vs modern many-core RISC-V parts at 1/4/16/64
//! simulated cores, on DRAM STREAM (Triad) and the band-matrix `gbmv`
//! ladder.
//!
//! The question behind the figure: when RISC-V grows from the paper's
//! 1–4 core boards to the Sophon SG2044's 64 cores behind a shared LLC
//! and multi-channel DRAM, do memory-bound kernels scale with the core
//! count or with the memory system? Each device is re-simulated with its
//! core count clamped to every ladder point it can reach (the Mango Pi
//! only appears at 1 core, the Xeon up to its 10), so the columns
//! isolate "more cores" from "a different memory system".

use membound_bench::{scale_banner, Args};
use membound_core::report::{fmt_seconds, to_json, TextTable};
use membound_core::{figures, GbmvVariant};
use membound_sim::Device;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    cores: u32,
    kernel: String,
    variant: String,
    /// Triad GB/s for stream rows, NaN otherwise.
    gbps: f64,
    /// Simulated seconds for gbmv rows, NaN otherwise.
    seconds: f64,
}

fn main() {
    let args = Args::parse("whatif_manycore");
    // Unlike the paper figures, this comparison defaults to the *whole*
    // inventory: its point is paper boards next to the many-core parts.
    let devices = match &args.device_filter {
        None => Device::all().to_vec(),
        Some(_) => args.devices(),
    };
    let engine = args.engine();
    println!("WHAT-IF: many-core scaling, paper boards vs SG2044/Monte Cimone");
    println!("{}", scale_banner(args.full));
    println!("engine: {} jobs\n", engine.jobs());

    let matrix = figures::manycore(figures::manycore_gbmv(args.full), &devices);
    let results = args.run_matrix(&engine, &matrix);

    let mut table = TextTable::new(
        [
            "device",
            "cores",
            "Triad GB/s",
            "gbmv Naive",
            "gbmv Blocked",
            "gbmv Parallel",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut rows = Vec::new();
    // Each (device, cores) point contributed 1 stream + 3 gbmv cells,
    // in matrix order.
    for chunk in results.cells.chunks(1 + GbmvVariant::all().len()) {
        let stream = &chunk[0];
        let cores: u32 = stream.cell.panel.parse().expect("panel is a core count");
        let gbps = stream.gbps().unwrap_or(f64::NAN);
        rows.push(Row {
            device: stream.cell.device.clone(),
            cores,
            kernel: "stream".into(),
            variant: stream.cell.variant.clone(),
            gbps,
            seconds: f64::NAN,
        });
        let mut cols = vec![
            stream.cell.device.clone(),
            cores.to_string(),
            format!("{gbps:.2}"),
        ];
        for r in &chunk[1..] {
            let seconds = r.sim_summary().map(|s| s.seconds).unwrap_or(f64::NAN);
            cols.push(if seconds.is_nan() {
                "does not fit".into()
            } else {
                fmt_seconds(seconds)
            });
            rows.push(Row {
                device: r.cell.device.clone(),
                cores,
                kernel: "gbmv".into(),
                variant: r.cell.variant.clone(),
                gbps: f64::NAN,
                seconds,
            });
        }
        table.row(cols);
    }
    println!("{}", table.render());
    println!(
        "reading: Triad bandwidth and the unit-stride gbmv variants track\n\
         the memory system, not the core count — the SG2044 column stops\n\
         improving once its channels saturate, while the naïve\n\
         anti-diagonal walk keeps gaining from extra in-flight misses.\n\
         The paper boards replicate their Fig. 1/2 standings at every\n\
         core count they can reach."
    );
    args.write_json(&to_json(&rows));
    args.write_run_log(&results);
}
