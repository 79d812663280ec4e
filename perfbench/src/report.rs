//! The human-readable report, laid out like rvr's BENCHMARKS.md: a
//! system-information table, then one table per workload.

use crate::catalog::{PerLayer, Workload, END_TO_END, PER_LAYER, SUPERSEDES};
use crate::run::{Layers, Measured, Traced};
use crate::stats::{percentile_sorted, sorted, supported_tail, Summary};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The 99th-percentile latency of each round.
fn round_p99s(m: &Measured) -> Vec<f64> {
    m.latencies_ms
        .iter()
        .filter_map(|round| percentile_sorted(&sorted(round), 99.0))
        .collect()
}

/// Each end-to-end metric of an untraced run, in catalog order, as the
/// summary of its samples; the metric's value is the median. `p99_ms`'s
/// samples are the rounds' 99th percentiles, so one slow round does not
/// decide it.
pub fn end_to_end(m: &Measured, peak_rss_mb: f64) -> Vec<(&'static str, Summary)> {
    let samples = |name: &str| -> Vec<f64> {
        match name {
            "setup_s" => m.setups.clone(),
            "wall_s" => m.rounds.clone(),
            "p50_ms" => m.latencies_ms.concat(),
            "p99_ms" => round_p99s(m),
            "peak_rss_mb" => vec![peak_rss_mb],
            other => panic!("no samples for end-to-end metric {other}"),
        }
    };
    END_TO_END
        .iter()
        .map(|e| {
            let summary = Summary::of(&samples(e.name))
                .unwrap_or_else(|| panic!("a run always has {} samples", e.name));
            (e.name, summary)
        })
        .collect()
}

/// The per-layer metric values of a traced run, in catalog order.
pub fn per_layer_values(layers: &Layers) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name)))
        .collect()
}

pub fn print_system_info() {
    println!("# membound host-time benchmark\n");
    println!("## System Information\n");
    println!("| Property | Value |");
    println!("|----------|-------|");
    let rows = [
        ("Kernel", kernel()),
        ("Architecture", std::env::consts::ARCH.to_string()),
        ("Rust", command_line("rustc", &["--version"])),
        (
            "nproc",
            std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string()),
        ),
        ("Date", utc_now()),
        ("Commit", commit()),
    ];
    for (k, v) in rows {
        println!("| {k} | {v} |");
    }
    println!();
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn commit() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "n/a (not a git checkout)".into()
    }
}

/// The current UTC time as `YYYY-MM-DD HH:MM:SS UTC`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm), for days since 1970.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02} {:02}:{:02}:{:02} UTC",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

fn fmt(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if (1e-3..1e7).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

fn common_footer(attempted: u64, failed: u64, digests: &[(String, String)], notes: &[String]) {
    println!();
    for (label, digest) in digests {
        println!("digest {label}: {digest}");
    }
    let frac = if attempted > 0 {
        failed as f64 / attempted as f64
    } else {
        0.0
    };
    println!("attempted {attempted}, failed {failed} (failed_frac {frac})");
    for note in notes {
        println!("{note}");
    }
    println!();
}

fn print_heading(w: &Workload, suffix: &str, seed: u64, runs: usize) {
    println!("## {}{suffix}\n", w.name);
    println!("*{} | seed {seed} | runs: {runs}*\n", w.why);
    for (row, workload) in SUPERSEDES {
        if workload == w.name {
            println!("(supersedes the hand-copied `{row}` row of BENCH_sim.json)\n");
        }
    }
}

pub fn print_measured(w: &Workload, seed: u64, m: &Measured, metrics: &[(&str, Summary)]) {
    print_heading(w, "", seed, m.rounds.len());
    println!("| Metric | Unit | Better | Bound | Median | q1 | q3 | Samples |");
    println!("|--------|------|--------|-------|--------|----|----|---------|");
    for (e, (_, s)) in END_TO_END.iter().zip(metrics) {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            e.name,
            e.unit,
            e.better.as_str(),
            e.bound,
            fmt(s.median),
            fmt(s.q1),
            fmt(s.q3),
            s.n
        );
    }
    let lat = sorted(&m.latencies_ms.concat());
    if let Some(p) = supported_tail(lat.len()) {
        println!(
            "\nhighest percentile with at least 10 samples beyond it: p{p} = {} ms",
            fmt(percentile_sorted(&lat, p).unwrap_or(0.0))
        );
    }
    common_footer(m.attempted, m.failed, &m.digests, &m.notes);
}

pub fn print_traced(w: &Workload, seed: u64, t: &Traced) {
    print_heading(w, " (traced)", seed, 1);
    println!("| Layer metric | Unit | Better | Value | Moves | On |");
    println!("|--------------|------|--------|-------|-------|----|");
    for PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    } in PER_LAYER
    {
        println!(
            "| {name} | {unit} | {} | {} | {moves} | {on} |",
            better.as_str(),
            fmt(t.layers.get(name))
        );
    }
    println!(
        "\ntracing overhead: traced round {} s vs untraced round {} s ({:+.4} s)",
        fmt(t.traced_wall),
        fmt(t.untraced_wall),
        t.traced_wall - t.untraced_wall
    );
    common_footer(t.attempted, t.failed, &t.digests, &t.notes);
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric's value and unit.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
    unit: impl Fn(&str) -> &'static str,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            // JSON has no infinity: a failed request's latency prints as
            // the largest finite value (and the run is not correct).
            let v = if value.is_finite() { *value } else { f64::MAX };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::run::Layers;

    /// The printed metric names are exactly the declared ones, which a
    /// catalog test in turn holds equal to `BENCHMARK.json`.
    #[test]
    fn printed_metric_names_are_the_declared_ones() {
        let m = Measured {
            setups: vec![0.5],
            rounds: vec![2.0, 3.0],
            latencies_ms: vec![vec![1.0, 2.0], vec![f64::INFINITY]],
            ..Measured::default()
        };
        let e2e: Vec<(&str, f64)> = end_to_end(&m, 12.0)
            .into_iter()
            .map(|(name, s)| (name, s.median))
            .collect();
        let json = result_json(true, 3, 0, &e2e, catalog::end_to_end_unit);
        let parsed = serde_json::value_from_str(&json).expect("result line is JSON");
        let names: Vec<&str> = parsed
            .get("metrics")
            .and_then(serde::Value::as_object)
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names, declared);

        let layers = per_layer_values(&Layers::new());
        let json = result_json(true, 1, 0, &layers, catalog::per_layer_unit);
        let parsed = serde_json::value_from_str(&json).expect("result line is JSON");
        let count = parsed
            .get("metrics")
            .and_then(serde::Value::as_object)
            .map_or(0, <[_]>::len);
        assert_eq!(count, PER_LAYER.len());
    }

    #[test]
    fn utc_dates_render() {
        let now = utc_now();
        assert_eq!(now.len(), "2026-01-01 00:00:00 UTC".len(), "{now}");
        assert!(now.starts_with("20"), "{now}");
    }
}
