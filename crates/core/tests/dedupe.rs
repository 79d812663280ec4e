//! In-run dedupe of `membound_core::runner`: cells with the same
//! `Cell::trace_identity` form one group, only the group's first cell
//! (its representative) is simulated, and the rest reuse its outcome.
//!
//! * a dupe's record equals the record of that cell simulated alone;
//! * a failpoint aimed at a dupe hits the dupe alone, and a failed
//!   representative makes its dupes simulate for real;
//! * a group is published the moment its representative finishes, not
//!   after the whole matrix drains.
//!
//! On the single-core Mango Pi the transpose ladder's `Parallel` cell
//! replays `Naive`'s trace and `Dynamic` replays `Manual_blocking`'s, so
//! a two-panel ladder has dupes at indices 1, 4, 6 and 9.

use membound_core::figures;
use membound_core::runner::{CellOutcome, Engine, ExperimentMatrix, RunOptions, RunResults};
use membound_core::telemetry::{CellRecord, SimRecord};
use membound_parallel::{Failpoint, JobBudget};
use membound_sim::Device;
use std::sync::Mutex;
use std::time::Instant;

const DUPES: [usize; 4] = [1, 4, 6, 9];

/// A two-panel transpose ladder on the Mango Pi: 10 cells, all fast.
fn ladder_matrix() -> ExperimentMatrix {
    let mut matrix = figures::transpose_ladders(
        "dedupe_test",
        &figures::transpose_sizes(&[96, 128], 16).unwrap(),
        &[Device::MangoPiMqPro],
    );
    matrix.stream_baseline(Device::MangoPiMqPro.label(), 2.0);
    matrix
}

fn run(jobs: u32, matrix: &ExperimentMatrix, failpoint: Option<&str>) -> RunResults {
    let options = RunOptions {
        failpoint: failpoint.map(|spec| Failpoint::parse(spec).expect("valid spec")),
        ..RunOptions::default()
    };
    Engine::new(jobs)
        .run_with(matrix, &options)
        .expect("run without resume")
}

/// The simulated fields of a cell's record (host-side diagnostics
/// cleared), which a dupe must share with the cell simulated alone.
fn sim_of(record: &CellRecord) -> SimRecord {
    let mut sim = record.sim.clone().expect("a report cell");
    sim.host_workers = None;
    sim
}

/// The record of cell `index` of `matrix` simulated in a one-cell matrix.
fn solo_record(matrix: &ExperimentMatrix, index: usize) -> CellRecord {
    let mut solo = ExperimentMatrix::new("dedupe_solo");
    solo.push(matrix.cells()[index].clone());
    let (_, mut records) = Engine::new(1).run(&solo).telemetry();
    records.remove(0)
}

#[test]
fn dupes_reuse_their_representative_at_every_job_count() {
    let matrix = ladder_matrix();
    for jobs in [1u32, 2] {
        let results = run(jobs, &matrix, None);
        assert_eq!(results.deduped, 4, "jobs {jobs}");
        let (_, records) = results.telemetry();
        for index in DUPES {
            let solo = solo_record(&matrix, index);
            let record = &records[index];
            assert_eq!(record.status, solo.status, "cell {index}, jobs {jobs}");
            assert_eq!(
                (&record.panel, &record.variant),
                (&solo.panel, &solo.variant)
            );
            assert_eq!(sim_of(record), sim_of(&solo), "cell {index}, jobs {jobs}");
        }
    }
}

#[test]
fn a_failpoint_on_a_dupe_hits_only_the_dupe() {
    let matrix = ladder_matrix();
    for jobs in [1u32, 2] {
        let results = run(jobs, &matrix, Some("cell:panic@1"));
        assert!(
            matches!(&results.cells[1].outcome, CellOutcome::Panicked(msg) if msg.contains("failpoint")),
            "got {:?}",
            results.cells[1].outcome
        );
        assert!(
            results.cells[0].report().is_some(),
            "the representative is ok"
        );
        assert_eq!(results.deduped, 3, "jobs {jobs}");
    }
}

#[test]
fn a_failed_representative_makes_its_dupe_simulate() {
    let matrix = ladder_matrix();
    let solo = solo_record(&matrix, 1);
    for jobs in [1u32, 2] {
        let results = run(jobs, &matrix, Some("cell:panic@0"));
        assert!(
            matches!(&results.cells[0].outcome, CellOutcome::Panicked(_)),
            "got {:?}",
            results.cells[0].outcome
        );
        // Cell 1 was simulated, so it carries a fresh report and is not
        // counted as a reuse.
        let report = results.cells[1].report().expect("cell 1 simulated");
        assert_eq!(
            format!("{:016x}", report.stats_digest()),
            sim_of(&solo).stats_digest
        );
        assert_eq!(results.deduped, 3, "jobs {jobs}");
    }
}

#[test]
fn a_group_is_published_when_its_representative_finishes() {
    let matrix = ladder_matrix();
    let options = RunOptions {
        failpoint: Some(Failpoint::parse("cell:delay=300@2").expect("valid spec")),
        ..RunOptions::default()
    };
    let published: Mutex<Vec<(u64, Instant)>> = Mutex::new(Vec::new());
    let sink = |index: u64, _: &CellRecord| {
        published.lock().unwrap().push((index, Instant::now()));
    };
    let budget = JobBudget::new(1);
    let _seat = budget.lease(1);
    let results = Engine::new(1)
        .run_streamed(&matrix, &options, &budget, Some(&sink))
        .expect("streamed run");
    assert_eq!(results.deduped, 4);
    let published = published.into_inner().unwrap();
    let order: Vec<u64> = published.iter().map(|(i, _)| *i).collect();
    assert_eq!(order, (0..10).collect::<Vec<_>>());
    // Cell 1 reuses cell 0, so it is out before cell 2 starts its
    // 300 ms delay.
    let gap = published[2].1.duration_since(published[1].1);
    assert!(
        gap.as_millis() >= 250,
        "cell 1 published only {gap:?} before cell 2"
    );
}
