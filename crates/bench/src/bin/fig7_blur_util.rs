//! FIG7: relative memory-bandwidth utilization of the three optimized
//! blur variants (1D_kernels, Memory, Parallel), with the improvement
//! labels computed against the 1D_kernels baseline exactly as the paper's
//! Fig. 7 caption specifies.
//!
//! Each device's STREAM baseline is a DRAM Triad cell placed ahead of
//! the blur ladders in one engine matrix ([`figures::fig7`]), so
//! utilizations come attached to the engine results. `--cache-dir` /
//! `MEMBOUND_CACHE_DIR` memoizes the baselines and the blur cells alike
//! into the persistent result cache for incremental re-runs.

use membound_bench::{exit_on_failed_baselines, scale_banner, stream_baseline, Args};
use membound_core::figures;
use membound_core::report::{to_json, TextTable};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    variant: String,
    utilization: f64,
    improvement_vs_1d: f64,
}

fn main() {
    let args = Args::parse("fig7_blur_util");
    let devices = args.devices();
    let engine = args.engine();
    println!("FIG7: relative memory-bandwidth utilization, Gaussian blur");
    println!("{}", scale_banner(args.full));
    println!("engine: {} jobs\n", engine.jobs());

    let results = args.run_matrix(&engine, &figures::fig7(args.full, &devices));

    let mut table = TextTable::new(
        ["device", "variant", "utilization", "vs 1D_kernels"]
            .map(String::from)
            .to_vec(),
    );
    let mut rows = Vec::new();
    for device in &devices {
        if stream_baseline(&results, device.label()).is_none() {
            table.row(vec![
                device.label().into(),
                "-".into(),
                "STREAM baseline failed".into(),
                "-".into(),
            ]);
            continue;
        }
        let utils: Vec<(String, f64)> = results
            .cells
            .iter()
            .filter(|r| r.cell.device == device.label() && r.cell.kind.kernel() == "blur")
            .map(|r| {
                (
                    r.cell.variant.clone(),
                    r.bandwidth_utilization.unwrap_or(0.0),
                )
            })
            .collect();
        let baseline = utils.first().map(|(_, u)| *u).unwrap_or(0.0);
        for (variant, u) in utils {
            let improvement = if baseline > 0.0 { u / baseline } else { 0.0 };
            table.row(vec![
                device.label().into(),
                variant.clone(),
                format!("{u:.3}"),
                format!("x{improvement:.1}"),
            ]);
            rows.push(Row {
                device: device.label().into(),
                variant,
                utilization: u,
                improvement_vs_1d: improvement,
            });
        }
    }
    println!("{}", table.render());
    println!(
        "shape check (paper Fig. 7): the Mango Pi's missing L2 keeps its\n\
         utilization lowest; the StarFive trails the Raspberry Pi but stays\n\
         comparable; the Xeon's Parallel variant raises utilization further\n\
         thanks to its many memory channels."
    );
    args.write_json(&to_json(&rows));
    args.write_run_log(&results);
    exit_on_failed_baselines(&results, &devices);
}
