//! The benchmark's declarations: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root mirrors
//! the names, units and directions declared here (a test keeps the two
//! equal); the layer-to-metric mapping and the pinned digests live only
//! here and in `perfbench/README.md`.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload the benchmark can run.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const FIG2_MANGO: &str = "fig2-mango";
pub const TRIAD_ANALYTIC: &str = "triad-analytic";
pub const MANYCORE_SG2044: &str = "manycore-sg2044";
pub const SERVE_MIX: &str = "serve-mix";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: FIG2_MANGO,
        why: "Fig. 2 transpose matrix on the Mango Pi via the engine at --jobs 2: replay-bound, so the \
              hierarchy layer does the work and analytic arms but is refused",
    },
    Workload {
        name: TRIAD_ANALYTIC,
        why: "single-core TLB-off triad of ~2^28 doubles on the Xeon model: the only workload where \
              the analytic executor fast-forwards most of the work",
    },
    Workload {
        name: MANYCORE_SG2044,
        why: "whatif_manycore cells on the 64-core SG2044: per-core fan-out and channel-contended \
              DRAM pacing, where analytic is refused statically",
    },
    Workload {
        name: SERVE_MIX,
        why: "in-process daemon with two closed-loop clients, ~9 warm-cache Fig2 jobs per cold \
              transpose ladder: serve and cache layers with little simulation",
    },
];

/// The seed whose inputs are the canonical ones the pinned digests
/// below were recorded on.
pub const DEFAULT_SEED: u64 = 1;

/// Combined digest of the Fig. 2 Mango Pi matrix (every seed: the
/// matrix is the canonical figure's).
pub const FIG2_MANGO_DIGEST: &str = "7bceab43d67f5ae3";
/// Combined digest of the SG2044 cells of `whatif_manycore` (every
/// seed).
pub const MANYCORE_SG2044_DIGEST: &str = "2edbca13668a9d23";
/// Stats digest of the 2^28-double triad on the TLB-off Xeon (the
/// `whatif_large_n` row); only the default seed runs exactly that triad.
pub const TRIAD_DEFAULT_DIGEST: &str = "fd2b936ba377cac4";

/// `BENCH_sim.json` rows whose hand-copied figures these workloads
/// replace with measured ones (the file itself is left as it is).
pub const SUPERSEDES: [(&str, &str); 3] = [
    ("fig2_transpose", FIG2_MANGO),
    ("whatif_manycore", MANYCORE_SG2044),
    ("whatif_large_n_xeon", TRIAD_ANALYTIC),
];

/// One end-to-end metric, printed by every untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric, printed by every traced run. `moves` names the
/// end-to-end metric the layer should move and `on` the workloads it
/// moves it on; workloads that do not exercise a layer report 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static str,
}

const REPLAY: &str = "fig2-mango, manycore-sg2044";

pub const PER_LAYER: [PerLayer; 25] = [
    layer("trace.emit_s", "s", Better::Lower, "wall_s", REPLAY),
    layer("trace.refs", "count", Better::Lower, "wall_s", REPLAY),
    layer("hierarchy.replay_s", "s", Better::Lower, "wall_s", REPLAY),
    layer(
        "hierarchy.accesses",
        "count",
        Better::Lower,
        "wall_s",
        REPLAY,
    ),
    layer(
        "hierarchy.ns_per_access",
        "ns",
        Better::Lower,
        "wall_s",
        REPLAY,
    ),
    layer(
        "analytic.ff_ops",
        "count",
        Better::Higher,
        "wall_s",
        "triad-analytic",
    ),
    layer(
        "analytic.fallback_ops",
        "count",
        Better::Lower,
        "wall_s",
        "triad-analytic, fig2-mango",
    ),
    layer(
        "analytic.ff_ratio",
        "ratio",
        Better::Higher,
        "wall_s",
        "triad-analytic",
    ),
    layer(
        "analytic.cost_s",
        "s",
        Better::Lower,
        "wall_s",
        "triad-analytic, fig2-mango",
    ),
    layer(
        "machine.fanout_workers",
        "count",
        Better::Higher,
        "wall_s",
        "manycore-sg2044",
    ),
    layer(
        "machine.fanout_gain",
        "ratio",
        Better::Higher,
        "wall_s",
        "manycore-sg2044",
    ),
    layer(
        "machine.phases",
        "count",
        Better::Lower,
        "wall_s",
        "manycore-sg2044",
    ),
    layer(
        "dram.bytes",
        "B",
        Better::Lower,
        "wall_s",
        "manycore-sg2044",
    ),
    layer("runner.self_s", "s", Better::Lower, "wall_s", REPLAY),
    layer(
        "runner.critical_cell_s",
        "s",
        Better::Lower,
        "wall_s",
        REPLAY,
    ),
    layer(
        "runner.deduped_cells",
        "count",
        Better::Higher,
        "wall_s",
        REPLAY,
    ),
    layer(
        "telemetry.append_ms",
        "ms",
        Better::Lower,
        "wall_s",
        "fig2-mango",
    ),
    layer(
        "cache.lookup_ms",
        "ms",
        Better::Lower,
        "p50_ms",
        "serve-mix",
    ),
    layer(
        "cache.insert_ms",
        "ms",
        Better::Lower,
        "p99_ms",
        "serve-mix",
    ),
    layer(
        "cache.hit_ratio",
        "ratio",
        Better::Higher,
        "p50_ms",
        "serve-mix",
    ),
    layer(
        "serve.admit_p50_ms",
        "ms",
        Better::Lower,
        "p50_ms",
        "serve-mix",
    ),
    layer(
        "serve.admit_p99_ms",
        "ms",
        Better::Lower,
        "p99_ms",
        "serve-mix",
    ),
    layer(
        "serve.exec_p50_ms",
        "ms",
        Better::Lower,
        "p50_ms",
        "serve-mix",
    ),
    layer(
        "serve.rejected",
        "count",
        Better::Lower,
        "failed",
        "serve-mix",
    ),
    layer("tracing.overhead_s", "s", Better::Lower, "-", "all"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or_else(|| panic!("undeclared end-to-end metric {name}"), |m| m.unit)
}

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or_else(|| panic!("undeclared per-layer metric {name}"), |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::value_from_str(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(json: &'a Value, key: &str) -> &'a [Value] {
        json.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry without {key}"))
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let json = benchmark_json();
        let declared: Vec<(&str, &str)> = entries(&json, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let json = benchmark_json();
        let declared: Vec<(&str, &str, &str, f64)> = entries(&json, "end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let json = benchmark_json();
        let declared: Vec<(&str, &str, &str)> = entries(&json, "per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
        }
    }
}
