//! FIG1: the STREAM survey of Fig. 1 — Copy/Scale/Add/Triad bandwidth for
//! every memory level of every device.
//!
//! Private levels are measured sequentially and scaled by the core count;
//! shared levels and DRAM are measured with all cores, exactly as §4.1
//! describes. Every (device, level, op) measurement is one engine cell,
//! so the whole survey fans out across `--jobs` workers.

use membound_bench::{scale_banner, Args};
use membound_core::report::{to_json, TextTable};
use membound_core::runner::{Cell, ExperimentMatrix};
use membound_core::StreamOp;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    level: String,
    private_scaled: bool,
    copy_gbps: f64,
    scale_gbps: f64,
    add_gbps: f64,
    triad_gbps: f64,
}

fn main() {
    let args = Args::parse("fig1_stream");
    let devices = args.devices();
    let engine = args.engine();
    println!("FIG1: STREAM bandwidth per memory level per device (GB/s)");
    println!("{}", scale_banner(args.full));
    println!("engine: {} jobs\n", engine.jobs());

    // One cell per (device, level, op); panel = level name.
    let mut matrix = ExperimentMatrix::new("fig1_stream");
    for device in &devices {
        let spec = device.spec();
        for (k, cache) in spec.caches.iter().enumerate() {
            for op in StreamOp::all() {
                matrix.push(Cell::stream(
                    cache.name.clone(),
                    device.label(),
                    &spec,
                    op,
                    Some(k),
                ));
            }
        }
        for op in StreamOp::all() {
            matrix.push(Cell::stream("DRAM", device.label(), &spec, op, None));
        }
    }
    let results = args.run_matrix(&engine, &matrix);

    let mut table = TextTable::new(
        ["device", "level", "mode", "Copy", "Scale", "Add", "Triad"]
            .map(String::from)
            .to_vec(),
    );
    let mut rows = Vec::new();
    // Reassemble rows of four ops from the flat cell stream.
    for chunk in results.cells.chunks(StreamOp::all().len()) {
        let first = &chunk[0];
        let spec = &first.cell.spec;
        let private_scaled = spec
            .caches
            .iter()
            .any(|c| c.name == first.cell.panel && !c.shared);
        let gbps: Vec<f64> = chunk.iter().map(|r| r.gbps().unwrap_or(0.0)).collect();
        table.row(vec![
            first.cell.device.clone(),
            first.cell.panel.clone(),
            if private_scaled {
                format!("seq x{}", spec.cores)
            } else {
                format!("{} threads", spec.cores)
            },
            format!("{:.2}", gbps[0]),
            format!("{:.2}", gbps[1]),
            format!("{:.2}", gbps[2]),
            format!("{:.2}", gbps[3]),
        ]);
        rows.push(Row {
            device: first.cell.device.clone(),
            level: first.cell.panel.clone(),
            private_scaled,
            copy_gbps: gbps[0],
            scale_gbps: gbps[1],
            add_gbps: gbps[2],
            triad_gbps: gbps[3],
        });
    }
    println!("{}", table.render());
    println!(
        "shape check (paper Fig. 1): Xeon dominates every level; the Mango Pi\n\
         has no L2 and a slow L1; the StarFive's DRAM bandwidth is the lowest\n\
         of all four devices."
    );
    args.write_json(&to_json(&rows));
    args.write_run_log(&results);
}
