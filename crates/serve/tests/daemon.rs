//! End-to-end daemon tests, in-process: a real [`Server`] on a real
//! Unix socket, driven by real [`Client`]s over the wire protocol
//! (DESIGN.md §14).
//!
//! The determinism contract under test: a job submitted through the
//! daemon — at any `--jobs` level, with any number of concurrent
//! clients whose cell sets overlap — finishes with a combined digest
//! byte-identical to a serial one-shot run of the same matrix. Plus
//! the admission-control semantics: a full queue *rejects* with a
//! retry hint instead of admitting a cap+1'th job, priorities overtake
//! FIFO, queued jobs can be cancelled, and shutdown drains without
//! dropping admitted work.
//!
//! Process-boundary scenarios (SIGKILL mid-run, SIGTERM drain) live in
//! the workspace-level `tests/serve_daemon.rs`, which spawns the
//! actual binaries.

use membound_core::runner::Engine;
use membound_parallel::ShutdownFlag;
use membound_serve::client::{SubmitOptions, SubmitOutcome};
use membound_serve::{Client, JobSpec, Server, ServerConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A daemon running on a throwaway socket inside this test process.
struct Daemon {
    socket: PathBuf,
    flag: ShutdownFlag,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(name: &str, jobs: u32, queue_cap: usize, cache_dir: Option<PathBuf>) -> Self {
        let dir = std::env::temp_dir().join("membound_serve_tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let socket = dir.join(format!("{name}_{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let flag = ShutdownFlag::manual();
        let config = ServerConfig {
            socket: socket.clone(),
            jobs,
            queue_cap,
            cache_dir,
        };
        let server_flag = flag.clone();
        let handle = std::thread::spawn(move || Server::new(config).run(&server_flag));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        Self {
            socket,
            flag,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.socket).expect("connect to daemon")
    }

    /// Request shutdown and join the server; asserts the clean-drain
    /// contract (no error, socket removed).
    fn stop(mut self) {
        self.flag.request();
        self.handle
            .take()
            .expect("not yet stopped")
            .join()
            .expect("server thread")
            .expect("server drained cleanly");
        assert!(!self.socket.exists(), "socket file removed on drain");
    }
}

fn ladder(sizes: &[usize]) -> JobSpec {
    JobSpec::TransposeLadder {
        sizes: sizes.to_vec(),
        block: 16,
        device: Some("mango".into()),
    }
}

/// The digest a serial one-shot run of `spec` produces — the baseline
/// every served job must reproduce byte-for-byte.
fn serial_digest(spec: &JobSpec) -> String {
    Engine::new(1)
        .run(&spec.matrix().expect("valid spec"))
        .combined_digest()
}

/// Submit and unwrap the `Done` outcome, panicking on anything else.
fn submit_done(client: &mut Client, spec: &JobSpec, options: &SubmitOptions) -> SubmitOutcome {
    let outcome = client
        .submit(spec, options, |_| {})
        .expect("submit exchange");
    match &outcome {
        SubmitOutcome::Done { .. } => outcome,
        other => panic!("expected Done, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_match_serial_digests_at_every_jobs_level() {
    let spec = ladder(&[96, 128]);
    let want = serial_digest(&spec);
    for jobs in [1u32, 2, 4] {
        let daemon = Daemon::start(&format!("jobs{jobs}"), jobs, 8, None);
        let digests: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let daemon = &daemon;
                    let spec = &spec;
                    scope.spawn(move || {
                        let mut client = daemon.client();
                        match submit_done(&mut client, spec, &SubmitOptions::default()) {
                            SubmitOutcome::Done { digest, error, .. } => {
                                assert_eq!(error, None);
                                digest.expect("completed job has a digest")
                            }
                            _ => unreachable!(),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for digest in &digests {
            assert_eq!(
                digest, &want,
                "served digest diverged from serial at jobs={jobs}"
            );
        }
        daemon.stop();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// ISSUE satellite: M concurrent clients with *overlapping* cell
    /// sets — random subsets of a shared size pool, so jobs race on
    /// identical cells through the shared budget and cache — each
    /// reproduce their own serial one-shot digest exactly.
    #[test]
    fn overlapping_concurrent_jobs_reproduce_serial_digests(
        subsets in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(64usize), Just(96), Just(128)],
                1..3,
            ),
            2..4,
        ),
        jobs in prop_oneof![Just(1u32), Just(2), Just(4)],
    ) {
        let specs: Vec<JobSpec> = subsets.iter().map(|s| ladder(s)).collect();
        let cache = std::env::temp_dir()
            .join("membound_serve_tests")
            .join(format!("overlap_cache_{}", std::process::id()));
        let daemon = Daemon::start("overlap", jobs, specs.len().max(4), Some(cache));
        std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let daemon = &daemon;
                    scope.spawn(move || {
                        let mut client = daemon.client();
                        match submit_done(&mut client, spec, &SubmitOptions::default()) {
                            SubmitOutcome::Done { digest, .. } => digest.expect("digest"),
                            _ => unreachable!(),
                        }
                    })
                })
                .collect();
            for (spec, handle) in specs.iter().zip(handles) {
                let digest = handle.join().unwrap();
                prop_assert_eq!(
                    digest,
                    serial_digest(spec),
                    "served {} diverged from its serial run",
                    spec.label()
                );
            }
            Ok(())
        })?;
        daemon.stop();
    }
}

#[test]
fn warm_resubmission_answers_from_cache_without_simulating() {
    let cache = std::env::temp_dir()
        .join("membound_serve_tests")
        .join(format!("warm_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let spec = ladder(&[96, 128]);
    let daemon = Daemon::start("warm", 2, 4, Some(cache.clone()));
    let mut client = daemon.client();

    let (cold_digest, cells) = match submit_done(&mut client, &spec, &SubmitOptions::default()) {
        SubmitOutcome::Done {
            digest,
            cells,
            misses,
            ..
        } => {
            assert_eq!(misses, cells, "cold run simulates everything");
            (digest.expect("digest"), cells)
        }
        _ => unreachable!(),
    };

    match submit_done(&mut client, &spec, &SubmitOptions::default()) {
        SubmitOutcome::Done {
            digest,
            cached,
            misses,
            ..
        } => {
            assert_eq!(misses, 0, "warm resubmission simulates nothing");
            assert_eq!(cached, cells, "every cell answered from cache");
            assert_eq!(digest.expect("digest"), cold_digest);
        }
        _ => unreachable!(),
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&cache);
}

/// Poll `status` until `predicate` holds for job `job`, or panic after
/// ten seconds. Status is served by a connection thread, so this
/// observes the daemon's real job table, not test-internal state.
fn wait_for_state(daemon: &Daemon, job: u64, predicate: impl Fn(&str) -> bool) {
    let mut client = daemon.client();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let rows = client.status(Some(job)).expect("status");
        if rows.iter().any(|r| r.job == job && predicate(&r.state)) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {job} never reached the expected state: {rows:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One slot, one queue seat: with a job running and one queued, the
/// next submission must be rejected `queue_full` with a retry hint —
/// the queued job keeps its slot even while the scheduler waits for a
/// seat, so capacity is a true ceiling (the regression this PR fixes).
#[test]
fn full_queue_rejects_with_retry_after() {
    let daemon = Daemon::start("backpressure", 1, 1, None);
    let spec = ladder(&[64]);
    let slow = SubmitOptions {
        failpoint: Some("cell:delay=3000@0".into()),
        ..SubmitOptions::default()
    };

    std::thread::scope(|scope| {
        let daemon = &daemon;
        let spec = &spec;
        let running = scope.spawn(move || {
            let mut client = daemon.client();
            submit_done(&mut client, spec, &slow)
        });
        wait_for_state(daemon, 1, |s| s == "running");

        let queued = scope.spawn(move || {
            let mut client = daemon.client();
            submit_done(&mut client, spec, &SubmitOptions::default())
        });
        wait_for_state(daemon, 2, |s| s == "queued");

        let mut client = daemon.client();
        match client
            .submit(spec, &SubmitOptions::default(), |_| {})
            .expect("submit exchange")
        {
            SubmitOutcome::Rejected {
                reason,
                retry_after_ms,
            } => {
                assert_eq!(reason, "queue_full");
                assert!(
                    retry_after_ms.is_some_and(|ms| ms > 0),
                    "rejection carries a retry hint"
                );
            }
            other => panic!("third submission must be rejected, got {other:?}"),
        }

        // The admitted jobs still finish, identically.
        let want = serial_digest(spec);
        for handle in [running, queued] {
            match handle.join().unwrap() {
                SubmitOutcome::Done { digest, .. } => {
                    assert_eq!(digest.expect("digest"), want);
                }
                _ => unreachable!(),
            }
        }
    });
    daemon.stop();
}

/// With one worker slot held by a delayed job, a late high-priority
/// submission overtakes an earlier low-priority one in the queue.
#[test]
fn priority_overtakes_fifo() {
    let daemon = Daemon::start("priority", 1, 8, None);
    let spec = ladder(&[64]);
    let slow = SubmitOptions {
        failpoint: Some("cell:delay=2000@0".into()),
        ..SubmitOptions::default()
    };

    std::thread::scope(|scope| {
        let daemon = &daemon;
        let spec = &spec;
        let blocker = scope.spawn(move || {
            let mut client = daemon.client();
            submit_done(&mut client, spec, &slow)
        });
        wait_for_state(daemon, 1, |s| s == "running");

        let low = scope.spawn(move || {
            let mut client = daemon.client();
            let outcome = submit_done(&mut client, spec, &SubmitOptions::default());
            (Instant::now(), outcome)
        });
        wait_for_state(daemon, 2, |s| s == "queued");
        let high = scope.spawn(move || {
            let mut client = daemon.client();
            let options = SubmitOptions {
                priority: 9,
                ..SubmitOptions::default()
            };
            let outcome = submit_done(&mut client, spec, &options);
            (Instant::now(), outcome)
        });

        let (low_done, _) = low.join().unwrap();
        let (high_done, _) = high.join().unwrap();
        assert!(
            high_done < low_done,
            "priority 9 must finish before priority 0 behind one worker slot"
        );
        blocker.join().unwrap();
    });
    daemon.stop();
}

#[test]
fn cancel_removes_a_queued_job_but_not_a_running_one() {
    let daemon = Daemon::start("cancel", 1, 8, None);
    let spec = ladder(&[64]);
    let slow = SubmitOptions {
        failpoint: Some("cell:delay=2000@0".into()),
        ..SubmitOptions::default()
    };

    std::thread::scope(|scope| {
        let daemon = &daemon;
        let spec = &spec;
        let blocker = scope.spawn(move || {
            let mut client = daemon.client();
            submit_done(&mut client, spec, &slow)
        });
        wait_for_state(daemon, 1, |s| s == "running");

        let queued = scope.spawn(move || {
            let mut client = daemon.client();
            client
                .submit(spec, &SubmitOptions::default(), |_| {})
                .expect("submit exchange")
        });
        wait_for_state(daemon, 2, |s| s == "queued");

        let mut client = daemon.client();
        client
            .cancel(2)
            .expect("cancel exchange")
            .expect("queued job cancels");
        wait_for_state(daemon, 2, |s| s == "cancelled");
        // The cancelled submitter's exchange terminates with a
        // `cancelled` Done line, not a hang.
        match queued.join().unwrap() {
            SubmitOutcome::Done { status, digest, .. } => {
                assert_eq!(status, "cancelled");
                assert_eq!(digest, None, "a cancelled job never simulated");
            }
            other => panic!("expected cancelled Done, got {other:?}"),
        }

        // The running job is not cancellable and still completes.
        let refusal = client
            .cancel(1)
            .expect("cancel exchange")
            .expect_err("running jobs cannot be cancelled");
        assert!(
            refusal.contains("running"),
            "refusal names the state: {refusal}"
        );
        let refusal = client
            .cancel(999)
            .expect("cancel exchange")
            .expect_err("unknown job");
        assert!(refusal.contains("unknown"), "refusal: {refusal}");
        blocker.join().unwrap();
    });
    daemon.stop();
}

/// A draining daemon rejects new submissions but finishes queued work.
#[test]
fn drain_rejects_new_work_and_finishes_admitted_work() {
    let daemon = Daemon::start("drain", 1, 8, None);
    let spec = ladder(&[64]);
    let slow = SubmitOptions {
        failpoint: Some("cell:delay=1500@0".into()),
        ..SubmitOptions::default()
    };

    std::thread::scope(|scope| {
        let daemon = &daemon;
        let spec = &spec;
        let running = scope.spawn(move || {
            let mut client = daemon.client();
            submit_done(&mut client, spec, &slow)
        });
        wait_for_state(daemon, 1, |s| s == "running");
        let queued = scope.spawn(move || {
            let mut client = daemon.client();
            submit_done(&mut client, spec, &SubmitOptions::default())
        });
        wait_for_state(daemon, 2, |s| s == "queued");

        // A client served *before* the drain: its next submission is
        // refused as `draining` (a post-drain connection would simply
        // never be accepted). The status round-trip guarantees a
        // connection thread owns this client before the flag trips.
        let mut client = daemon.client();
        client.status(None).expect("round-trip before drain");
        daemon.flag.request();
        std::thread::sleep(Duration::from_millis(50));
        match client
            .submit(spec, &SubmitOptions::default(), |_| {})
            .expect("submit exchange")
        {
            SubmitOutcome::Rejected { reason, .. } => assert_eq!(reason, "draining"),
            other => panic!("draining daemon must reject, got {other:?}"),
        }

        let want = serial_digest(spec);
        for handle in [running, queued] {
            match handle.join().unwrap() {
                SubmitOutcome::Done { digest, .. } => {
                    assert_eq!(digest.expect("digest"), want, "drain kept admitted work");
                }
                _ => unreachable!(),
            }
        }
    });
    daemon.stop();
}

/// Specs that used to panic inside a connection thread (a zero size
/// reaching `TransposeConfig::with_block`) or wrap the matrix byte count
/// past the memory check are answered with `Error`, and the server keeps
/// serving: the next valid job completes and the drain stays clean.
#[test]
fn bad_specs_get_an_error_and_the_server_keeps_serving() {
    let daemon = Daemon::start("bad_spec", 1, 4, None);
    let mut client = daemon.client();
    let bad: JobSpec =
        serde_json::from_str(r#"{"TransposeLadder":{"sizes":[0],"block":32}}"#).unwrap();
    let huge = JobSpec::TransposeLadder {
        sizes: vec![1 << 31],
        block: 32,
        device: Some("mango".into()),
    };
    for spec in [&bad, &huge] {
        match client
            .submit(spec, &SubmitOptions::default(), |_| {})
            .expect("submit exchange")
        {
            SubmitOutcome::Error { message } => {
                assert!(!message.is_empty(), "{}", spec.label());
            }
            other => panic!("{} must be a submission error, got {other:?}", spec.label()),
        }
    }
    let spec = ladder(&[64]);
    match submit_done(&mut client, &spec, &SubmitOptions::default()) {
        SubmitOutcome::Done { digest, .. } => {
            assert_eq!(digest.expect("digest"), serial_digest(&spec));
        }
        _ => unreachable!(),
    }
    daemon.stop();
}

/// Streamed telemetry is schema-v7 JSONL: every line the client's
/// callback sees parses as a `kind` record, and the stream carries
/// exactly one header plus one line per cell.
#[test]
fn streamed_telemetry_is_schema_v7_jsonl() {
    let daemon = Daemon::start("stream", 2, 4, None);
    let spec = ladder(&[96]);
    let mut lines = Vec::new();
    let mut client = daemon.client();
    let outcome = client
        .submit(&spec, &SubmitOptions::default(), |line| {
            lines.push(line.to_string());
        })
        .expect("submit exchange");
    let cells = match outcome {
        SubmitOutcome::Done { cells, .. } => cells,
        other => panic!("expected Done, got {other:?}"),
    };
    assert_eq!(
        lines.len() as u64,
        cells + 1,
        "one header + one line per cell"
    );
    assert!(
        lines[0].starts_with("{\"kind\":\"header\"") && lines[0].contains("\"schema_version\":7"),
        "header first: {}",
        lines[0]
    );
    for line in &lines[1..] {
        assert!(line.starts_with("{\"kind\":\"cell\""), "cell line: {line}");
    }
    daemon.stop();
}
