//! End-to-end smoke tests for the `membound-cli` analytic surface:
//!
//! * `trace-ir` dumps a kernel's folded IR with a coverage estimate —
//!   near-total for a TLB-off streaming loop, zero with translation on
//!   (the executor's arming rule, DESIGN.md §15);
//! * `analytic-gate` proves digest identity between the analytic
//!   executor and forced replay, non-vacuously;
//! * `MEMBOUND_ANALYTIC=1` / `=0` do not change what the simulating
//!   commands report.
//!
//! Plus the simulated ladders: `transpose` runs its cells through the
//! engine behind the device's STREAM baseline cell.

use std::process::Command;

const CLI_BIN: &str = env!("CARGO_BIN_EXE_membound-cli");

#[derive(serde::Deserialize)]
struct TraceIrRow {
    variant: String,
    nodes: u64,
    repeat: u64,
    coverage_percent: f64,
}

#[derive(serde::Deserialize)]
struct LadderRow {
    variant: String,
    device: String,
    threads: u32,
    seconds: f64,
    speedup_vs_naive: f64,
    bandwidth_utilization: Option<f64>,
}

fn run(args: &[&str]) -> (String, String, bool) {
    run_with(args, &[])
}

fn run_with(args: &[&str], env: &[(&str, &str)]) -> (String, String, bool) {
    let out = Command::new(CLI_BIN)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run membound-cli");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn trace_ir_folds_stream_and_estimates_coverage() {
    let (stdout, stderr, ok) = run(&[
        "trace-ir", "stream", "--device", "xeon", "--no-tlb", "--json",
    ]);
    assert!(ok, "trace-ir failed: {stderr}");
    let rows: Vec<TraceIrRow> = serde_json::from_str(stdout.trim()).expect("json rows");
    assert_eq!(rows.len(), 4, "one row per STREAM op");
    for row in &rows {
        assert!(row.nodes > 0, "{}: empty program", row.variant);
        assert!(
            row.repeat >= 1,
            "{}: the per-line loop must fold into a Repeat",
            row.variant
        );
        assert!(
            row.coverage_percent > 90.0,
            "{}: TLB-off unit-stride loops are the analytic headline case, got {:.1}%",
            row.variant,
            row.coverage_percent
        );
    }

    // Same kernel with translation on: the executor never arms there,
    // so the estimate collapses to zero.
    let (stdout, stderr, ok) = run(&["trace-ir", "stream", "--device", "xeon", "--json"]);
    assert!(ok, "trace-ir failed: {stderr}");
    let rows: Vec<TraceIrRow> = serde_json::from_str(stdout.trim()).expect("json rows");
    assert!(rows.iter().all(|r| r.coverage_percent == 0.0));
}

#[test]
fn trace_ir_requires_a_known_kernel() {
    let (_, _, ok) = run(&["trace-ir"]);
    assert!(!ok);
    let (_, _, ok) = run(&["trace-ir", "fft"]);
    assert!(!ok);
}

#[test]
fn analytic_gate_passes_on_a_subset() {
    let (stdout, stderr, ok) = run(&[
        "analytic-gate",
        "--device",
        "mango",
        "--variant",
        "naive",
        "-n",
        "256",
    ]);
    assert!(ok, "analytic-gate failed: {stdout}\n{stderr}");
    assert!(
        stdout.contains("analytic gate passed"),
        "unexpected output: {stdout}"
    );
}

#[test]
fn analytic_flags_do_not_change_reported_results() {
    let args = [
        "stream", "--device", "mango", "--op", "triad", "--level", "dram", "--json",
    ];
    let (on, stderr, ok) = run_with(&args, &[("MEMBOUND_ANALYTIC", "1")]);
    assert!(ok, "stream with MEMBOUND_ANALYTIC=1 failed: {stderr}");
    let (off, stderr, ok) = run_with(&args, &[("MEMBOUND_ANALYTIC", "0")]);
    assert!(ok, "stream with MEMBOUND_ANALYTIC=0 failed: {stderr}");
    assert_eq!(on, off, "analytic execution must be result-invisible");
}

#[test]
fn transpose_ladder_reports_speedups_and_utilization() {
    let (stdout, stderr, ok) = run(&[
        "transpose",
        "--device",
        "mango",
        "-n",
        "256",
        "--block",
        "32",
        "--json",
    ]);
    assert!(ok, "transpose failed: {stderr}");
    let rows: Vec<LadderRow> = serde_json::from_str(stdout.trim()).expect("json rows");
    let variants: Vec<&str> = rows.iter().map(|r| r.variant.as_str()).collect();
    assert_eq!(
        variants,
        [
            "Naive",
            "Parallel",
            "Blocking",
            "Manual_blocking",
            "Dynamic"
        ],
        "one row per ladder variant, no STREAM row"
    );
    assert_eq!(rows[0].speedup_vs_naive, 1.0);
    for row in &rows {
        assert_eq!(row.device, rows[0].device);
        assert_eq!(row.threads, 1, "the Mango Pi has one core");
        assert!(row.seconds > 0.0, "{}", row.variant);
        let util = row
            .bandwidth_utilization
            .expect("the baseline cell precedes");
        assert!(util > 0.0, "{}: utilization {util}", row.variant);
    }
}
