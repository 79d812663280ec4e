//! Crash-safety and resumption guarantees of the experiment engine
//! (DESIGN.md §11):
//!
//! * a run log truncated at any cell boundary — or mid-line — resumes
//!   to a final log whose digest-bearing fields are byte-identical to
//!   an uninterrupted run's, at every `--jobs` level;
//! * injected panics are retried under `--retries` and recorded with
//!   honest `status`/`attempts` fields when the budget is exhausted;
//! * the per-cell deadline discards late attempts as `timed_out`;
//! * every such log still passes `validate_run_log`.
//!
//! Plus the persistent result cache's crash properties (DESIGN.md §12):
//!
//! * a warm run over a populated cache simulates nothing and is
//!   digest-identical to the cold run, at every `--jobs` level;
//! * a crash injected mid-insert (failpoint site `cache`) never
//!   corrupts the store — the re-run reproduces the clean digests;
//! * corrupted or torn objects are discarded and re-simulated, never
//!   trusted; stale-fingerprint entries never hit; `gc` never removes
//!   a live entry.
//!
//! Fault injection uses in-process `Failpoint`s (panic/delay); the
//! process-abort path needs a process boundary and is exercised by the
//! CI `resume-smoke` and `cache-incremental` steps instead.

use membound_core::cache::{self, ResultCache};
use membound_core::runner::{Cell, CellOutcome, Engine, ExperimentMatrix, RunOptions, RunResults};
use membound_core::telemetry::{parse_partial_run_log, validate_run_log};
use membound_core::{figures, TransposeConfig, TransposeVariant};
use membound_parallel::Failpoint;
use membound_sim::Device;
use proptest::prelude::*;

/// A two-panel transpose ladder on the Mango Pi: 10 cells, all fast.
fn ladder_matrix() -> ExperimentMatrix {
    figures::transpose_ladders(
        "crash_resume_test",
        &figures::transpose_sizes(&[96, 128], 16).unwrap(),
        &[Device::MangoPiMqPro],
    )
}

/// [`ladder_matrix`] behind the Mango Pi's DRAM Triad cell (index 0):
/// the STREAM baseline every ladder cell's utilization divides by.
fn baseline_matrix() -> ExperimentMatrix {
    figures::with_stream_baselines(&[Device::MangoPiMqPro], ladder_matrix())
}

/// Each cell's utilization, as bits.
fn utilizations(results: &RunResults) -> Vec<Option<u64>> {
    results
        .cells
        .iter()
        .map(|r| r.bandwidth_utilization.map(f64::to_bits))
        .collect()
}

/// Every digest-bearing line fragment of a rendered run log: cell
/// lines verbatim except the digest-excluded diagnostics
/// (`wall_seconds`, `host_workers`, `attempts`, `provenance`), plus
/// the combined digest. Two runs that agree here are byte-identical in
/// every field the digests vouch for.
fn digest_fields(results: &RunResults) -> Vec<String> {
    let (_, records) = results.telemetry();
    let mut fields: Vec<String> = records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.wall_seconds = 0.0;
            r.attempts = None;
            r.provenance = None;
            if let Some(sim) = &mut r.sim {
                sim.host_workers = None;
            }
            serde_json::to_string(&r).expect("record serializes")
        })
        .collect();
    fields.push(results.combined_digest());
    fields
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("membound_crash_resume");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn resume_from_any_truncation_point_matches_uninterrupted_digests() {
    let matrix = ladder_matrix();
    let uninterrupted = Engine::new(2).run(&matrix);
    let full_log = uninterrupted.render_run_log();
    let expected = digest_fields(&uninterrupted);
    let lines: Vec<&str> = full_log.lines().collect();

    // Truncate after the header, after a mid cell, and one short of
    // complete — then resume at several jobs levels.
    for keep_cells in [0usize, 4, 9] {
        let truncated: String = lines[..=keep_cells]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        let partial = parse_partial_run_log(&truncated).expect("truncated log parses");
        assert_eq!(partial.records.len(), keep_cells);
        for jobs in [1u32, 2, 4] {
            let options = RunOptions {
                resume: Some(partial.clone()),
                ..RunOptions::default()
            };
            let resumed = Engine::new(jobs)
                .run_with(&matrix, &options)
                .expect("resume runs");
            assert_eq!(resumed.restored, keep_cells as u64);
            assert_eq!(
                digest_fields(&resumed),
                expected,
                "resume at cell {keep_cells} with {jobs} jobs"
            );
            let summary = validate_run_log(&resumed.render_run_log()).expect("valid log");
            assert_eq!(summary.combined_digest, uninterrupted.combined_digest());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The serial==parallel digest-identity pattern of
    /// `crates/sim/tests/parallel_cores.rs`, extended across a crash:
    /// for any truncation point and any (original, resume) job-count
    /// pair, resuming reproduces the uninterrupted run's digest fields
    /// bit for bit.
    #[test]
    fn any_cut_and_jobs_pair_resumes_to_identical_digests(
        keep_cells in 0usize..10,
        original_jobs in 1u32..5,
        resume_jobs in 1u32..5,
    ) {
        let matrix = ladder_matrix();
        let original = Engine::new(original_jobs).run(&matrix);
        let log = original.render_run_log();
        let lines: Vec<&str> = log.lines().collect();
        let truncated: String = lines[..=keep_cells]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        let partial = parse_partial_run_log(&truncated).expect("truncated log parses");
        let resumed = Engine::new(resume_jobs)
            .run_with(
                &matrix,
                &RunOptions { resume: Some(partial), ..RunOptions::default() },
            )
            .expect("resume runs");
        prop_assert_eq!(resumed.restored, keep_cells as u64);
        prop_assert_eq!(digest_fields(&resumed), digest_fields(&original));
    }
}

#[test]
fn resume_recovers_from_a_log_torn_mid_line() {
    let matrix = ladder_matrix();
    let uninterrupted = Engine::new(2).run(&matrix);
    let full_log = uninterrupted.render_run_log();
    let lines: Vec<&str> = full_log.lines().collect();
    // Keep the header + 3 whole cells, then half of cell 3's line —
    // the shape a `kill -9` mid-append leaves behind.
    let mut torn: String = lines[..4].iter().map(|l| format!("{l}\n")).collect();
    torn.push_str(&lines[4][..lines[4].len() / 2]);

    let partial = parse_partial_run_log(&torn).expect("torn log parses");
    assert!(partial.truncated_tail, "torn tail detected");
    assert_eq!(partial.records.len(), 3);

    let options = RunOptions {
        resume: Some(partial),
        ..RunOptions::default()
    };
    let resumed = Engine::new(2)
        .run_with(&matrix, &options)
        .expect("resume runs");
    assert_eq!(resumed.restored, 3);
    assert_eq!(digest_fields(&resumed), digest_fields(&uninterrupted));
}

#[test]
fn streamed_log_is_byte_identical_to_the_terminal_render() {
    let matrix = ladder_matrix();
    let path = tmp_path("streamed.jsonl");
    let options = RunOptions {
        stream_log: Some(path.clone()),
        ..RunOptions::default()
    };
    let results = Engine::new(4)
        .run_with(&matrix, &options)
        .expect("streaming run");
    let streamed = std::fs::read_to_string(&path).expect("streamed log exists");
    let rendered = results.render_run_log();
    // The header timestamp differs between the two writes; every cell
    // line must be byte-identical.
    let streamed_cells: Vec<&str> = streamed.lines().skip(1).collect();
    let rendered_cells: Vec<&str> = rendered.lines().skip(1).collect();
    assert_eq!(streamed_cells, rendered_cells);
    validate_run_log(&streamed).expect("streamed log validates");
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_panic_is_retried_to_success() {
    let matrix = ladder_matrix();
    let clean = Engine::new(2).run(&matrix);
    // Cell 4's first attempt panics; the retry must succeed and the
    // digests must not notice.
    let options = RunOptions {
        retries: 2,
        failpoint: Some(Failpoint::parse("cell:panic@4x1").expect("valid spec")),
        ..RunOptions::default()
    };
    let results = Engine::new(2)
        .run_with(&matrix, &options)
        .expect("run with failpoint");
    assert_eq!(results.cells[4].attempts, 2, "one panic, one success");
    assert!(results.cells[4].report().is_some());
    assert_eq!(results.combined_digest(), clean.combined_digest());
    assert_eq!(digest_fields(&results), digest_fields(&clean));
}

#[test]
fn retry_exhaustion_records_a_failed_cell_that_validates() {
    let matrix = ladder_matrix();
    let options = RunOptions {
        retries: 2,
        failpoint: Some(Failpoint::parse("cell:panic@4").expect("valid spec")),
        ..RunOptions::default()
    };
    let results = Engine::new(2)
        .run_with(&matrix, &options)
        .expect("run with failpoint");
    assert_eq!(results.cells[4].attempts, 3, "1 try + 2 retries");
    assert!(
        matches!(&results.cells[4].outcome, CellOutcome::Failed(msg) if msg.contains("failpoint")),
        "got {:?}",
        results.cells[4].outcome
    );
    let text = results.render_run_log();
    assert!(text.contains("\"status\":\"failed\""));
    let summary = validate_run_log(&text).expect("failed cells validate");
    assert_eq!(summary.ok_cells, 9);

    // Without a retry budget the same panic keeps the legacy status.
    let options = RunOptions {
        failpoint: Some(Failpoint::parse("cell:panic@4").expect("valid spec")),
        ..RunOptions::default()
    };
    let results = Engine::new(2)
        .run_with(&matrix, &options)
        .expect("run with failpoint");
    assert_eq!(results.cells[4].attempts, 1);
    assert!(matches!(
        &results.cells[4].outcome,
        CellOutcome::Panicked(_)
    ));
}

#[test]
fn deadline_overrun_records_timed_out() {
    let matrix = ladder_matrix();
    // Cell 4 sleeps 50 ms against a 1 ms deadline; the attempt's result
    // is discarded.
    let options = RunOptions {
        cell_deadline: Some(0.001),
        failpoint: Some(Failpoint::parse("cell:delay=50@4").expect("valid spec")),
        ..RunOptions::default()
    };
    let results = Engine::new(2)
        .run_with(&matrix, &options)
        .expect("run with failpoint");
    assert!(
        matches!(&results.cells[4].outcome, CellOutcome::TimedOut(_)),
        "got {:?}",
        results.cells[4].outcome
    );
    let text = results.render_run_log();
    assert!(text.contains("\"status\":\"timed_out\""));
    validate_run_log(&text).expect("timed_out cells validate");
}

#[test]
fn panicked_and_failed_cells_are_rerun_on_resume() {
    let matrix = ladder_matrix();
    let clean = Engine::new(2).run(&matrix);
    // Produce a log whose cell 4 failed...
    let options = RunOptions {
        failpoint: Some(Failpoint::parse("cell:panic@4").expect("valid spec")),
        ..RunOptions::default()
    };
    let broken = Engine::new(2)
        .run_with(&matrix, &options)
        .expect("run with failpoint");
    let partial =
        parse_partial_run_log(&broken.render_run_log()).expect("complete log parses as partial");
    assert_eq!(partial.records.len(), 10);

    // ...then resume without the failpoint: only cell 4 re-simulates,
    // and the result heals to the uninterrupted digests.
    let options = RunOptions {
        resume: Some(partial),
        ..RunOptions::default()
    };
    let resumed = Engine::new(2)
        .run_with(&matrix, &options)
        .expect("resume runs");
    assert_eq!(resumed.restored, 9, "everything but the panicked cell");
    assert!(resumed.cells[4].report().is_some());
    assert_eq!(digest_fields(&resumed), digest_fields(&clean));
}

/// Backwards compatibility lock-in: the committed schema-v1 fixture
/// (written before `host_workers`/`strided_batches`/`attempts`
/// existed) must keep validating and parsing with the documented
/// migration defaults. CI validates the same file through
/// `membound-cli validate-runlog`.
#[test]
fn committed_v1_fixture_validates_with_migration_defaults() {
    let text = include_str!("fixtures/runlog_v1.jsonl");
    let summary = validate_run_log(text).expect("v1 fixture validates");
    assert_eq!(summary.schema_version, 1);
    assert_eq!(summary.figure, "fig2_transpose");
    assert_eq!(summary.cells, 3);
    assert_eq!(summary.ok_cells, 2);

    let partial = parse_partial_run_log(text).expect("v1 fixture parses");
    assert!(!partial.truncated_tail);
    let sim = partial.records[0].sim.as_ref().expect("ok cell has sim");
    assert_eq!(sim.host_workers, None, "v1 predates host_workers");
    assert_eq!(sim.strided_batches, None, "v1 predates strided_batches");
    assert_eq!(partial.records[0].attempts, None, "v1 predates attempts");
}

#[test]
fn incompatible_resume_logs_are_rejected() {
    let matrix = ladder_matrix();
    let results = Engine::new(1).run(&matrix);
    let log = results.render_run_log();

    // Wrong figure name.
    let mut other = ExperimentMatrix::new("some_other_figure");
    let spec = Device::MangoPiMqPro.spec();
    other.push(Cell::transpose(
        "96",
        Device::MangoPiMqPro.label(),
        &spec,
        TransposeVariant::Naive,
        TransposeConfig::with_block(96, 16),
    ));
    let partial = parse_partial_run_log(&log).expect("log parses");
    let err = Engine::new(1)
        .run_with(
            &other,
            &RunOptions {
                resume: Some(partial.clone()),
                ..RunOptions::default()
            },
        )
        .expect_err("figure mismatch rejected");
    assert!(err.to_string().contains("figure"), "{err}");

    // Right figure, different cell identity at index 0.
    let mut swapped = ExperimentMatrix::new("crash_resume_test");
    for cell in ladder_matrix_cells_reversed() {
        swapped.push(cell);
    }
    let err = Engine::new(1)
        .run_with(
            &swapped,
            &RunOptions {
                resume: Some(partial),
                ..RunOptions::default()
            },
        )
        .expect_err("cell identity mismatch rejected");
    assert!(err.to_string().contains("cell 0"), "{err}");
}

#[test]
fn a_panicking_baseline_is_a_recorded_cell_and_retries_recover_it() {
    let matrix = baseline_matrix();
    let clean = Engine::new(2).run(&matrix);
    let run = |spec: &str, retries: u32| {
        let options = RunOptions {
            retries,
            failpoint: Some(Failpoint::parse(spec).expect("valid spec")),
            ..RunOptions::default()
        };
        Engine::new(2)
            .run_with(&matrix, &options)
            .expect("run with failpoint")
    };

    // No retry budget: the baseline is a panicked record in the log and
    // the ladder, simulated as usual, has no denominator.
    let lost = run("cell:panic@0", 0);
    assert!(matches!(&lost.cells[0].outcome, CellOutcome::Panicked(_)));
    let text = lost.render_run_log();
    let baseline_line = text.lines().nth(1).expect("cell 0 line");
    assert!(
        baseline_line.contains("\"kernel\":\"stream\""),
        "{baseline_line}"
    );
    assert!(
        baseline_line.contains("\"status\":\"panicked\""),
        "{baseline_line}"
    );
    for r in &lost.cells[1..] {
        assert!(r.report().is_some(), "{}", r.cell.variant);
        assert_eq!(r.bandwidth_utilization, None, "{}", r.cell.variant);
    }
    let summary = validate_run_log(&text).expect("a panicked baseline validates");
    assert_eq!(summary.ok_cells, matrix.len() as u64 - 1);
    // Stream cells stay outside the combined digest.
    assert_eq!(lost.combined_digest(), clean.combined_digest());

    // One panic, one retry: the baseline recovers and every utilization
    // is the clean run's.
    let recovered = run("cell:panic@0x1", 1);
    assert_eq!(recovered.cells[0].attempts, 2, "one panic, one success");
    assert_eq!(utilizations(&recovered), utilizations(&clean));
    assert_eq!(digest_fields(&recovered), digest_fields(&clean));
}

#[test]
fn utilization_is_bit_identical_fresh_resumed_and_cached() {
    let matrix = baseline_matrix();
    let fresh = Engine::new(2).run(&matrix);
    let expected = digest_fields(&fresh);
    let utils = utilizations(&fresh);
    assert_eq!(utils[0], None, "the baseline has no utilization itself");
    assert!(utils[1..].iter().all(Option::is_some));

    // Cut before the baseline, right after it, and mid-ladder.
    let log = fresh.render_run_log();
    let lines: Vec<&str> = log.lines().collect();
    for keep in [0usize, 1, 6] {
        let truncated: String = lines[..=keep].iter().map(|l| format!("{l}\n")).collect();
        let options = RunOptions {
            resume: Some(parse_partial_run_log(&truncated).expect("truncated log parses")),
            ..RunOptions::default()
        };
        let resumed = Engine::new(2)
            .run_with(&matrix, &options)
            .expect("resume runs");
        assert_eq!(resumed.restored, keep as u64);
        assert_eq!(utilizations(&resumed), utils, "resumed after {keep} cells");
        assert_eq!(
            digest_fields(&resumed),
            expected,
            "resumed after {keep} cells"
        );
    }

    let dir = cache_dir("utilization");
    let cold = Engine::new(2)
        .run_with(&matrix, &with_cache(ResultCache::open(&dir).expect("open")))
        .expect("cold run");
    assert_eq!(digest_fields(&cold), expected);
    let warm = Engine::new(2)
        .run_with(
            &matrix,
            &with_cache(ResultCache::open(&dir).expect("reopen")),
        )
        .expect("warm run");
    assert_eq!(
        warm.cached,
        matrix.len() as u64,
        "the baseline is cached too"
    );
    assert_eq!(utilizations(&warm), utils);
    assert_eq!(digest_fields(&warm), expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// A fresh, empty cache directory for one test (removed leftovers from
/// earlier runs of the same test included).
fn cache_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "membound_crash_resume_cache_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn with_cache(cache: ResultCache) -> RunOptions {
    RunOptions {
        cache: Some(cache),
        ..RunOptions::default()
    }
}

#[test]
fn warm_cache_run_simulates_nothing_and_matches_cold_digests() {
    let matrix = ladder_matrix();
    let total = matrix.len() as u64;
    let dir = cache_dir("warm");
    let cold = Engine::new(2)
        .run_with(&matrix, &with_cache(ResultCache::open(&dir).expect("open")))
        .expect("cold run");
    assert_eq!(cold.cached, 0, "empty cache cannot hit");
    let expected = digest_fields(&cold);
    for jobs in [1u32, 2, 4] {
        let warm = Engine::new(jobs)
            .run_with(
                &matrix,
                &with_cache(ResultCache::open(&dir).expect("reopen")),
            )
            .expect("warm run");
        assert_eq!(warm.cached, total, "warm run must simulate nothing");
        assert_eq!(digest_fields(&warm), expected, "warm at {jobs} jobs");
        let summary = validate_run_log(&warm.render_run_log()).expect("cached log validates");
        assert_eq!(summary.cached_cells, total);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_and_torn_cache_objects_are_resimulated_not_trusted() {
    let matrix = ladder_matrix();
    let total = matrix.len() as u64;
    let dir = cache_dir("corrupt");
    let cold = Engine::new(2)
        .run_with(&matrix, &with_cache(ResultCache::open(&dir).expect("open")))
        .expect("cold run");

    // Tear one object mid-payload and overwrite another with garbage —
    // the two shapes a crash or bit rot leaves behind.
    let mut objects: Vec<_> = std::fs::read_dir(dir.join("objects"))
        .expect("objects dir")
        .map(|e| e.expect("entry").path())
        .collect();
    objects.sort();
    let torn_text = std::fs::read_to_string(&objects[0]).expect("read object");
    std::fs::write(&objects[0], &torn_text[..torn_text.len() / 2]).expect("tear object");
    std::fs::write(&objects[1], "garbage\n").expect("corrupt object");
    let damaged = cache::survey(&dir, cache::default_fingerprint()).expect("survey");
    assert_eq!(damaged.corrupt, 2);
    assert!(!damaged.is_clean());

    // The warm run discards both, re-simulates exactly those two cells,
    // and heals the store; the digests never notice.
    let healed = Engine::new(2)
        .run_with(
            &matrix,
            &with_cache(ResultCache::open(&dir).expect("reopen")),
        )
        .expect("healing run");
    assert_eq!(healed.cached, total - 2, "two corrupt entries must miss");
    assert_eq!(digest_fields(&healed), digest_fields(&cold));
    let after = cache::survey(&dir, cache::default_fingerprint()).expect("survey");
    assert!(after.is_clean(), "re-insert healed the store: {after:?}");
    assert_eq!(after.live, total);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_cells_enter_the_cache_and_hit_later() {
    let matrix = ladder_matrix();
    let total = matrix.len() as u64;
    // Crash an uncached run, then resume it *with* a fresh cache: the
    // restored cells must be inserted up front, so a later warm run
    // hits every cell — including the ones this process never
    // simulated.
    let uncached = Engine::new(2).run(&matrix);
    let log = uncached.render_run_log();
    let lines: Vec<&str> = log.lines().collect();
    let truncated: String = lines[..=4].iter().map(|l| format!("{l}\n")).collect();
    let partial = parse_partial_run_log(&truncated).expect("truncated log parses");

    let dir = cache_dir("resume");
    let options = RunOptions {
        resume: Some(partial),
        cache: Some(ResultCache::open(&dir).expect("open")),
        ..RunOptions::default()
    };
    let resumed = Engine::new(2).run_with(&matrix, &options).expect("resume");
    assert_eq!(resumed.restored, 4);
    assert_eq!(resumed.cached, 0, "fresh cache cannot hit");
    assert_eq!(digest_fields(&resumed), digest_fields(&uncached));

    let warm = Engine::new(2)
        .run_with(
            &matrix,
            &with_cache(ResultCache::open(&dir).expect("reopen")),
        )
        .expect("warm run");
    assert_eq!(warm.cached, total, "restored cells must have been cached");
    assert_eq!(digest_fields(&warm), digest_fields(&uncached));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_fingerprint_entries_never_hit_and_gc_never_removes_live() {
    let matrix = ladder_matrix();
    let total = matrix.len() as u64;
    let dir = cache_dir("stale");
    let old = ResultCache::open_with_fingerprint(&dir, "sim-v0+obsolete").expect("open old");
    Engine::new(2)
        .run_with(&matrix, &with_cache(old))
        .expect("run under old fingerprint");

    // Under the current fingerprint every old entry is unreachable: the
    // run misses everything and re-populates alongside them.
    let rerun = Engine::new(2)
        .run_with(&matrix, &with_cache(ResultCache::open(&dir).expect("open")))
        .expect("rerun");
    assert_eq!(rerun.cached, 0, "stale-fingerprint entries must not hit");
    let s = cache::survey(&dir, cache::default_fingerprint()).expect("survey");
    assert_eq!((s.live, s.stale, s.corrupt), (total, total, 0));

    // gc reclaims exactly the stale half and keeps every live entry —
    // proven by the follow-up warm run hitting all of them.
    let out = cache::gc(&dir, cache::default_fingerprint()).expect("gc");
    assert_eq!(out.kept, total);
    assert_eq!(out.removed_stale, total);
    let warm = Engine::new(2)
        .run_with(
            &matrix,
            &with_cache(ResultCache::open(&dir).expect("reopen")),
        )
        .expect("warm run");
    assert_eq!(warm.cached, total, "gc must never remove a live entry");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A crash injected right after an object write (failpoint site
    /// `cache`) at any cell and any jobs level leaves
    /// the store recoverable: the interrupted run's digests already
    /// match the clean run's, the warm re-run reproduces them again,
    /// and the store surveys clean afterwards.
    #[test]
    fn crash_during_cache_insert_is_recoverable_at_any_cell(
        crash_index in 0u64..10,
        jobs in 1u32..5,
    ) {
        let matrix = ladder_matrix();
        let clean = Engine::new(2).run(&matrix);
        let dir = cache_dir(&format!("insert_fp_{crash_index}_{jobs}"));
        let options = RunOptions {
            cache: Some(ResultCache::open(&dir).expect("open")),
            failpoint: Some(
                Failpoint::parse(&format!("cache:panic@{crash_index}")).expect("valid spec"),
            ),
            ..RunOptions::default()
        };
        let crashed = Engine::new(jobs)
            .run_with(&matrix, &options)
            .expect("insert failure degrades to a warning");
        prop_assert_eq!(digest_fields(&crashed), digest_fields(&clean));

        let warm = Engine::new(jobs)
            .run_with(&matrix, &with_cache(ResultCache::open(&dir).expect("reopen")))
            .expect("warm run");
        prop_assert_eq!(digest_fields(&warm), digest_fields(&clean));
        let s = cache::survey(&dir, cache::default_fingerprint()).expect("survey");
        prop_assert!(s.is_clean(), "store must survey clean: {:?}", s);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Forward compatibility lock-in for the cache era: the committed
/// schema-v5 fixture — written by a real `fig2_transpose --resume`
/// run over a partially damaged cache, so it mixes `resume`, `cache`
/// and fresh (absent-provenance) cells — must keep validating, and its
/// digest must stay the fig2/mango baseline *of the f64 era that wrote
/// it* (the fixed-point migration changed the canonical digest once —
/// see the v6 fixture below — but never rewrites history). CI
/// validates the same file through `membound-cli validate-runlog`.
#[test]
fn committed_v5_fixture_validates_with_provenance() {
    let text = include_str!("fixtures/runlog_v5.jsonl");
    let summary = validate_run_log(text).expect("v5 fixture validates");
    assert_eq!(summary.schema_version, 5);
    assert_eq!(summary.figure, "fig2_transpose");
    assert_eq!(summary.cells, 10);
    assert_eq!(summary.ok_cells, 10);
    assert_eq!(summary.cached_cells, 6);
    assert_eq!(summary.resumed_cells, 3);
    assert_eq!(summary.combined_digest, "2d01870fd0d44a44");

    let partial = parse_partial_run_log(text).expect("v5 fixture parses");
    assert!(!partial.truncated_tail);
    let provenance: Vec<Option<&str>> = partial
        .records
        .iter()
        .map(|r| r.provenance.as_deref())
        .collect();
    assert_eq!(
        provenance.iter().filter(|p| **p == Some("resume")).count(),
        3
    );
    assert_eq!(
        provenance.iter().filter(|p| **p == Some("cache")).count(),
        6
    );
    assert_eq!(
        provenance.iter().filter(|p| p.is_none()).count(),
        1,
        "one cell was re-simulated fresh after its object was deleted"
    );
}

/// Lock-in for the fixed-point era: the committed schema-v6 fixture —
/// a real `fig2_transpose` run with the u64 subcycle counters — must
/// keep validating, and its digest must stay the post-migration
/// canonical fig2/mango baseline recorded in BENCH_sim.json v4 (the
/// v5 fixture above pins the digest the f64 model produced).
/// CI validates the same file through `membound-cli validate-runlog`.
#[test]
fn committed_v6_fixture_validates_at_the_migrated_digest() {
    let text = include_str!("fixtures/runlog_v6.jsonl");
    let summary = validate_run_log(text).expect("v6 fixture validates");
    assert_eq!(summary.schema_version, 6);
    assert_eq!(summary.figure, "fig2_transpose");
    assert_eq!(summary.cells, 10);
    assert_eq!(summary.ok_cells, 10);
    assert_eq!(summary.combined_digest, "7bceab43d67f5ae3");

    let partial = parse_partial_run_log(text).expect("v6 fixture parses");
    assert!(!partial.truncated_tail);
    assert!(
        partial.records.iter().all(|r| r.attempts == Some(1)),
        "a clean run records one attempt per cell"
    );
}

/// Multi-process safety (DESIGN.md §12): an engine run inserting into
/// the cache while `gc` reclaims concurrently must lose nothing. The
/// existing `cache` failpoint site parks one insert inside its locked
/// section (`cache:delay`), a racing thread runs `gc` against the same
/// directory mid-run, and afterwards every racing object must survive
/// and hit.
#[test]
fn gc_concurrent_with_an_inserting_run_keeps_every_object() {
    let matrix = ladder_matrix();
    let total = matrix.len() as u64;
    let clean = Engine::new(2).run(&matrix);
    let dir = cache_dir("gc_race");
    // Seed a store, then empty its objects so every cell of the racing
    // run inserts.
    {
        let seeded = Engine::new(1)
            .run_with(&matrix, &with_cache(ResultCache::open(&dir).expect("open")))
            .expect("seed run");
        assert_eq!(seeded.cached, 0);
    }
    std::fs::remove_dir_all(dir.join("objects")).expect("drop seeded objects");
    std::fs::create_dir_all(dir.join("objects")).expect("recreate objects dir");

    let options = RunOptions {
        cache: Some(ResultCache::open(&dir).expect("reopen")),
        failpoint: Some(Failpoint::parse("cache:delay=80@5x1").expect("valid spec")),
        ..RunOptions::default()
    };
    std::thread::scope(|scope| {
        let gc_thread = scope.spawn(|| {
            // Land inside the run (and with any luck inside the delayed
            // insert's window); correctness must not depend on timing.
            std::thread::sleep(std::time::Duration::from_millis(40));
            cache::gc(&dir, cache::default_fingerprint()).expect("concurrent gc")
        });
        let racing = Engine::new(2)
            .run_with(&matrix, &options)
            .expect("run racing gc");
        assert_eq!(digest_fields(&racing), digest_fields(&clean));
        gc_thread.join().expect("gc thread");
    });

    let s = cache::survey(&dir, cache::default_fingerprint()).expect("survey");
    assert_eq!(
        (s.live, s.temps),
        (total, 0),
        "no insert may lose its object to a racing gc: {s:?}"
    );
    let warm = Engine::new(2)
        .run_with(
            &matrix,
            &with_cache(ResultCache::open(&dir).expect("warm reopen")),
        )
        .expect("warm run");
    assert_eq!(warm.cached, total, "every racing insert must still hit");
    std::fs::remove_dir_all(&dir).ok();
}

/// The rename-durability half of the torn-object story: the two states
/// an un-fsynced directory entry can leave behind after power loss — a
/// leftover `.tmp` (rename never happened) and an object that vanished
/// (rename rolled back) — must both be survivable.
/// Lookups miss and re-simulate to the clean digests, and `gc` restores
/// a clean survey. (`write_text_atomic` now fsyncs the parent directory
/// after rename precisely to make the second state unreachable on
/// crash-consistent filesystems; this test pins the recovery path for
/// storage where the fsync is a no-op.)
#[test]
fn lost_rename_and_leftover_temp_are_survivable() {
    let matrix = ladder_matrix();
    let total = matrix.len() as u64;
    let dir = cache_dir("lost_rename");
    let cold = Engine::new(2)
        .run_with(&matrix, &with_cache(ResultCache::open(&dir).expect("open")))
        .expect("cold run");

    // Roll back one rename (object gone) and leave one interrupted temp
    // behind.
    let mut objects: Vec<_> = std::fs::read_dir(dir.join("objects"))
        .expect("objects dir")
        .map(|e| e.expect("entry").path())
        .collect();
    objects.sort();
    std::fs::remove_file(&objects[0]).expect("roll back a rename");
    std::fs::write(dir.join("objects").join(".x.json.tmp"), "half").expect("leftover temp");

    let s = cache::survey(&dir, cache::default_fingerprint()).expect("survey");
    assert_eq!((s.live, s.temps), (total - 1, 1), "{s:?}");
    assert!(s.is_clean(), "a lost rename is damage, not corruption");

    // The warm run misses exactly the vanished cell and heals it.
    let healed = Engine::new(2)
        .run_with(
            &matrix,
            &with_cache(ResultCache::open(&dir).expect("reopen")),
        )
        .expect("healing run");
    assert_eq!(healed.cached, total - 1, "the vanished object must miss");
    assert_eq!(digest_fields(&healed), digest_fields(&cold));

    let g = cache::gc(&dir, cache::default_fingerprint()).expect("gc");
    assert_eq!(g.removed_temps, 1);
    let s = cache::survey(&dir, cache::default_fingerprint()).expect("survey");
    assert_eq!(
        (s.live, s.temps),
        (total, 0),
        "gc rebuilt a fully consistent store: {s:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The ladder's cells in reverse order — same figure name and count,
/// different per-index identity.
fn ladder_matrix_cells_reversed() -> Vec<Cell> {
    ladder_matrix().cells().iter().rev().cloned().collect()
}
