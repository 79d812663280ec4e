//! Engine-level guarantees of `membound_core::runner`:
//!
//! * parallel and serial execution of the same matrix produce identical
//!   per-cell simulated statistics (property-tested over workloads and
//!   job counts);
//! * a panicking cell is contained — it becomes `CellOutcome::Panicked`
//!   and the surrounding cells and the run log are unaffected.

use membound_core::runner::{Cell, CellOutcome, Engine, ExperimentMatrix};
use membound_core::telemetry::validate_run_log;
use membound_core::{figures, TransposeConfig, TransposeVariant};
use membound_sim::Device;
use proptest::prelude::*;

/// The full transpose ladder on every device whose memory fits `n`.
fn ladder_matrix(n: usize, block: usize) -> ExperimentMatrix {
    figures::transpose_ladders(
        "runner_parallel_test",
        &[TransposeConfig::with_block(n, block)],
        Device::all(),
    )
}

/// Everything a cell result claims about the *simulation* (host wall
/// time deliberately excluded — it is the only field allowed to vary
/// with the job count).
fn simulated_fingerprint(results: &membound_core::runner::RunResults) -> Vec<String> {
    results
        .cells
        .iter()
        .map(|r| {
            let outcome = match &r.outcome {
                CellOutcome::Report(rep) => format!("report:{:016x}", rep.stats_digest()),
                CellOutcome::Gbps(g) => format!("gbps:{}", g.to_bits()),
                CellOutcome::DoesNotFit => "does_not_fit".into(),
                CellOutcome::Panicked(msg) => format!("panicked:{msg}"),
                CellOutcome::Failed(msg) => format!("failed:{msg}"),
                CellOutcome::TimedOut(msg) => format!("timed_out:{msg}"),
                CellOutcome::Restored(rec) => format!("restored:{}", rec.stats_digest),
                // These runs never pass a cache, so a cached outcome
                // would itself be a determinism bug worth failing on.
                CellOutcome::Cached(c) => unreachable!("uncached run produced {c:?}"),
            };
            format!(
                "{}/{}/{} {} speedup={:?} util={:?}",
                r.cell.panel,
                r.cell.device,
                r.cell.variant,
                outcome,
                r.speedup_vs_naive.map(f64::to_bits),
                r.bandwidth_utilization.map(f64::to_bits),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ISSUE acceptance: any parallel run is bit-identical to the serial
    /// run of the same matrix, for every simulated quantity.
    #[test]
    fn parallel_runs_match_serial_bit_for_bit(
        n in 64usize..256,
        block in 8usize..32,
        jobs in 2u32..8,
    ) {
        let matrix = ladder_matrix(n, block);
        let serial = Engine::new(1).run(&matrix);
        let parallel = Engine::new(jobs).run(&matrix);

        prop_assert_eq!(
            simulated_fingerprint(&serial),
            simulated_fingerprint(&parallel)
        );
        prop_assert_eq!(serial.combined_digest(), parallel.combined_digest());
    }
}

#[test]
fn panicking_cell_is_contained_and_logged() {
    // `block: 0` bypasses the constructor's validation, so the blocked
    // simulation divides by zero inside the worker thread.
    let poisoned = TransposeConfig { n: 64, block: 0 };
    let good = TransposeConfig::with_block(64, 16);
    let spec = Device::MangoPiMqPro.spec();
    let label = Device::MangoPiMqPro.label();

    let mut matrix = ExperimentMatrix::new("panic_containment");
    matrix
        .push(Cell::transpose(
            "64",
            label,
            &spec,
            TransposeVariant::Naive,
            good,
        ))
        .push(Cell::transpose(
            "64",
            label,
            &spec,
            TransposeVariant::Blocking,
            poisoned,
        ))
        .push(Cell::transpose(
            "64",
            label,
            &spec,
            TransposeVariant::ManualBlocking,
            good,
        ));

    for jobs in [1, 4] {
        let results = Engine::new(jobs).run(&matrix);
        assert_eq!(results.cells.len(), 3);
        assert!(
            results.cells[0].report().is_some(),
            "good cell before the panic"
        );
        assert!(
            matches!(&results.cells[1].outcome, CellOutcome::Panicked(msg) if !msg.is_empty()),
            "poisoned cell must surface as Panicked, got {:?}",
            results.cells[1].outcome
        );
        assert!(
            results.cells[2].report().is_some(),
            "good cell after the panic"
        );

        // Speedups still attach across the ladder's surviving cells.
        assert_eq!(results.cells[0].speedup_vs_naive, Some(1.0));
        assert!(results.cells[2].speedup_vs_naive.is_some());
        assert_eq!(results.cells[1].speedup_vs_naive, None);

        // The run log stays schema-valid and reports the failure.
        let summary = validate_run_log(&results.render_run_log()).expect("valid log");
        assert_eq!(summary.cells, 3);
        assert_eq!(summary.ok_cells, 2);
    }
}

#[test]
fn job_counts_beyond_cell_count_are_harmless() {
    let matrix = ladder_matrix(96, 16);
    let baseline = Engine::new(1).run(&matrix);
    let oversubscribed = Engine::new(64).run(&matrix);
    assert_eq!(
        simulated_fingerprint(&baseline),
        simulated_fingerprint(&oversubscribed)
    );
}
