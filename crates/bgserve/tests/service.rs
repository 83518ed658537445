//! End-to-end service tests over real sockets: cache-hit identity,
//! paranoid verification, mode-neutral cache sharing, LRU eviction,
//! TCP endpoints, protocol-error recovery, the live monitor file, and
//! the live-job paths (cancellation, cycle/wall timeouts, progress
//! streaming, disconnect auto-cancel).

use std::path::PathBuf;

use bgcheck::program::{generate, POp, Program};
use bgcheck::runner::{run_mode, CheckKernel, MODES};
use bgserve::proto::LiveReq;
use bgserve::server::{spawn, Endpoint, ServeOpts};
use bgserve::Client;

fn sock(tag: &str) -> Endpoint {
    let p = std::env::temp_dir().join(format!("bgserve-test-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    Endpoint::Unix(p)
}

fn small_program(seed: u64) -> Program {
    Program {
        nodes: 2,
        seed,
        ops: vec![
            POp::Compute { cycles: 5_000 },
            POp::Gettid,
            POp::Allreduce { bytes: 16 },
        ],
        faults: Default::default(),
    }
}

#[test]
fn pinned_seed_job_twice_is_bit_identical_and_cached() {
    let ep = sock("twice");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    opts.paranoid = true;
    let handle = spawn(opts).expect("spawn");

    let p = small_program(0x2026);
    let mut c = Client::connect(&ep).expect("connect");
    let first = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("first");
    assert!(!first.cached, "first submission must be a fresh run");
    assert_eq!(first.paranoid, "off");
    assert!(
        !first.telemetry.is_empty(),
        "fresh runs must stream a telemetry snapshot"
    );

    let second = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("second");
    assert!(second.cached, "second submission must be a cache hit");
    assert_eq!(second.paranoid, "ok", "paranoid re-run must confirm");
    assert_eq!(
        second.triple(),
        first.triple(),
        "triples must be bit-identical"
    );
    assert_eq!(second.key, first.key);
    assert!(second.warnings.is_empty());

    // The service answer matches the in-process oracle exactly.
    let oracle = run_mode(&p, CheckKernel::Cnk, MODES[0]).expect("oracle");
    assert_eq!(first.triple(), oracle.triple());

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn concurrent_sessions_match_sequential_oneshots() {
    let ep = sock("concurrent");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 4;
    opts.grace_ms = 2;
    let handle = spawn(opts).expect("spawn");

    let programs: Vec<Program> = (0..4).map(|i| generate(7000 + i)).collect();
    let oracle: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            run_mode(p, CheckKernel::ALL[i % 2], MODES[0])
                .expect("oracle")
                .triple()
        })
        .collect();

    // Four sessions at once, one job each.
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let ep = &ep;
                s.spawn(move || {
                    let mut c = Client::connect(ep).expect("connect");
                    c.submit(CheckKernel::ALL[i % 2], MODES[0], p)
                        .expect("submit")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.triple(),
            oracle[i],
            "concurrent session {i} diverged from its one-shot equivalent"
        );
    }

    let mut c = Client::connect(&ep).expect("connect");
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn digest_neutral_modes_share_one_cache_entry() {
    let ep = sock("modes");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    opts.paranoid = true;
    let handle = spawn(opts).expect("spawn");

    let p = small_program(0xAB);
    let mut c = Client::connect(&ep).expect("connect");
    let seq = c.submit(CheckKernel::Fwk, MODES[0], &p).expect("seq");
    assert!(!seq.cached);
    // A windowed per-tick run of the same job: different execution
    // mode, same key — answered from the cache, paranoid-verified by a
    // fresh run *in the requested mode*.
    let win = c.submit(CheckKernel::Fwk, MODES[5], &p).expect("win");
    assert!(win.cached, "digest-neutral mode must share the cache entry");
    assert_eq!(win.paranoid, "ok");
    assert_eq!(win.triple(), seq.triple());
    assert_eq!(win.key, seq.key);
    // A different kernel is a different job.
    let cnk = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("cnk");
    assert!(!cnk.cached);
    assert_ne!(cnk.key, seq.key);

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn lru_eviction_forces_a_fresh_run() {
    let ep = sock("lru");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    opts.cache_cap = 1;
    let handle = spawn(opts).expect("spawn");

    let a = small_program(1);
    let b = small_program(2);
    let mut c = Client::connect(&ep).expect("connect");
    let a1 = c.submit(CheckKernel::Cnk, MODES[0], &a).expect("a1");
    let _b1 = c.submit(CheckKernel::Cnk, MODES[0], &b).expect("b1"); // evicts a
    let a2 = c.submit(CheckKernel::Cnk, MODES[0], &a).expect("a2");
    assert!(!a2.cached, "evicted entry must re-run");
    assert_eq!(a2.triple(), a1.triple(), "re-run must still be identical");

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn tcp_endpoint_serves_the_same_protocol() {
    // Port 0: the OS picks a free port; rebuild the endpoint from it.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
    let addr = probe.local_addr().expect("addr");
    drop(probe);
    let ep = Endpoint::Tcp(addr.to_string());
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    let mut c = Client::connect(&ep).expect("connect");
    assert_eq!(c.ping().expect("ping"), bgserve::proto::PROTO_VERSION);
    let r = c
        .submit(CheckKernel::Cnk, MODES[0], &small_program(3))
        .expect("submit");
    assert_eq!(r.outcome, "completed");
    let status = c.status().expect("status");
    assert_eq!(status.path_num(&["submitted"]), Some(1.0));
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn protocol_errors_do_not_poison_the_session() {
    let ep = sock("proto-errors");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    // Drive the raw protocol: garbage, then a bad submit, then a good
    // ping — all on one connection.
    use std::io::{BufRead, BufReader, Write};
    let stream = ep.connect().expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    for (req, want) in [
        ("{torn", "error"),
        ("{\"op\":\"warp\"}", "error"),
        (
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":2,\"seed\":1,\"ops\":[[\"no-such\"]]}",
            "error",
        ),
        ("{\"op\":\"ping\"}", "pong"),
    ] {
        writeln!(w, "{req}").expect("write");
        w.flush().expect("flush");
        line.clear();
        r.read_line(&mut line).expect("read");
        let v = bench::monitor::parse_json(line.trim()).expect("parse");
        assert_eq!(
            v.get("event").and_then(|e| e.str()),
            Some(want),
            "request {req:?}"
        );
    }
    writeln!(w, "{{\"op\":\"shutdown\"}}").expect("write");
    w.flush().expect("flush");
    line.clear();
    r.read_line(&mut line).expect("read");
    drop((r, w));
    handle.join().expect("join");
}

#[test]
fn monitor_stream_is_tailable_while_serving() {
    let ep = sock("monitor");
    let mon_path: PathBuf =
        std::env::temp_dir().join(format!("bgserve-test-{}-monitor.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&mon_path);
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    opts.monitor =
        Some(bench::monitor::Monitor::create(&mon_path, "bgserve", true).expect("monitor"));
    let handle = spawn(opts).expect("spawn");

    let mut c = Client::connect(&ep).expect("connect");
    for seed in 0..3 {
        c.submit(CheckKernel::Cnk, MODES[0], &small_program(seed))
            .expect("submit");
    }
    let text = std::fs::read_to_string(&mon_path).expect("read monitor");
    let snap = bench::monitor::last_snapshot(&text).expect("snapshot");
    assert_eq!(snap.path_num(&["done"]), Some(3.0));
    assert_eq!(snap.path_num(&["total"]), Some(3.0));
    assert_eq!(snap.get("bench").and_then(|b| b.str()), Some("bgserve"));
    assert_eq!(bench::monitor::malformed_snapshots(&text), 0);
    // The snapshot renders through the bgtop path without panicking.
    let frame = bench::monitor::render_snapshot(&snap, 4);
    assert!(frame.contains("bgserve"), "{frame}");

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
    let _ = std::fs::remove_file(&mon_path);
}

/// A compute-heavy FWK job: under a per-tick noise mode the timer tick
/// and daemons generate a steady event stream, so the live hook gets
/// polled throughout the whole compute region (a pure-CNK compute op
/// would be one giant event with nothing to interrupt).
fn long_program(seed: u64, cycles: u64) -> Program {
    Program {
        nodes: 2,
        seed,
        ops: vec![POp::Compute { cycles }, POp::Allreduce { bytes: 16 }],
        faults: Default::default(),
    }
}

/// The per-tick-noise sequential mode the live tests run under.
const LIVE_MODE: usize = 1;

#[test]
fn cycle_timeout_is_deterministic_and_never_cached() {
    let ep = sock("cycle-timeout");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    let p = long_program(0x71AE, 1_000_000_000);
    let live = LiveReq {
        timeout_cycles: Some(200_000_000),
        ..Default::default()
    };
    let mut c = Client::connect(&ep).expect("connect");
    let t1 = c
        .submit_live(CheckKernel::Fwk, MODES[LIVE_MODE], &p, live)
        .expect("t1");
    assert_eq!(t1.outcome, "timeout");
    assert!(!t1.cached);
    assert!(
        t1.final_cycle >= 200_000_000,
        "stopped before the budget: {}",
        t1.final_cycle
    );

    // Same job, same budget: a truncated triple must never have been
    // memoized, and the cycle deadline is wall-clock-free, so the rerun
    // is bit-identical.
    let t2 = c
        .submit_live(CheckKernel::Fwk, MODES[LIVE_MODE], &p, live)
        .expect("t2");
    assert!(!t2.cached, "interrupted triple was memoized (poisoned cache)");
    assert_eq!(t2.triple(), t1.triple(), "cycle timeouts must be deterministic");

    // Without the budget the job completes, matches the oracle, and
    // only *that* triple enters the cache.
    let full = c
        .submit(CheckKernel::Fwk, MODES[LIVE_MODE], &p)
        .expect("full");
    assert_eq!(full.outcome, "completed");
    assert!(!full.cached);
    let oracle = run_mode(&p, CheckKernel::Fwk, MODES[LIVE_MODE]).expect("oracle");
    assert_eq!(full.triple(), oracle.triple());
    let replay = c
        .submit(CheckKernel::Fwk, MODES[LIVE_MODE], &p)
        .expect("replay");
    assert!(replay.cached);

    let status = c.status().expect("status");
    assert_eq!(status.path_num(&["timeouts"]), Some(2.0));
    assert_eq!(status.path_num(&["cancelled"]), Some(0.0));
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn wall_timeout_interrupts_a_runaway_job() {
    let ep = sock("wall-timeout");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    // ~2e12 cycles would run for minutes; the 50 ms wall budget stops
    // it almost immediately.
    let p = long_program(0x7A11, 2_000_000_000_000);
    let live = LiveReq {
        timeout_wall_ms: Some(50),
        ..Default::default()
    };
    let mut c = Client::connect(&ep).expect("connect");
    let r = c
        .submit_live(CheckKernel::Fwk, MODES[LIVE_MODE], &p, live)
        .expect("submit");
    assert_eq!(r.outcome, "timeout");
    assert!(!r.cached);
    assert!(r.final_cycle > 0, "must have simulated something first");

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn cancel_before_wave_skips_the_run_entirely() {
    let ep = sock("cancel-queued");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1; // single-slot pool: job A saturates it
    opts.grace_ms = 1;
    let handle = spawn(opts).expect("spawn");

    std::thread::scope(|s| {
        // Job 1: long enough to hold the only pool slot, with a wall
        // backstop so the test always terminates.
        let ep_a = ep.clone();
        let a = s.spawn(move || {
            let mut c = Client::connect(&ep_a).expect("connect a");
            c.submit_live(
                CheckKernel::Fwk,
                MODES[LIVE_MODE],
                &long_program(0xA, 1_000_000_000_000),
                LiveReq {
                    timeout_wall_ms: Some(500),
                    ..Default::default()
                },
            )
            .expect("submit a")
        });
        std::thread::sleep(std::time::Duration::from_millis(150));

        // Job 2: queued behind job 1, cancelled while it waits.
        let ep_b = ep.clone();
        let b = s.spawn(move || {
            let mut c = Client::connect(&ep_b).expect("connect b");
            c.submit(
                CheckKernel::Fwk,
                MODES[LIVE_MODE],
                &long_program(0xB, 1_000_000_000),
            )
            .expect("submit b")
        });

        let mut c3 = Client::connect(&ep).expect("connect c3");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if c3.cancel(2).expect("cancel") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job 2 never became cancellable"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        let ra = a.join().expect("join a");
        assert_eq!(ra.outcome, "timeout", "job 1 ends on its wall backstop");
        let rb = b.join().expect("join b");
        assert_eq!(rb.outcome, "cancelled");
        assert_eq!(
            (rb.final_cycle, rb.digest),
            (0, 0),
            "a job cancelled before its wave must never simulate a cycle"
        );
        assert!(!rb.cached);

        let status = c3.status().expect("status");
        assert_eq!(status.path_num(&["cancelled"]), Some(1.0));
        assert_eq!(status.path_num(&["timeouts"]), Some(1.0));
        c3.shutdown().expect("shutdown");
    });
    handle.join().expect("join");
}

#[test]
fn cancel_mid_run_stops_a_running_job() {
    let ep = sock("cancel-mid");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    let handle = spawn(opts).expect("spawn");

    std::thread::scope(|s| {
        let ep_a = ep.clone();
        let a = s.spawn(move || {
            let mut c = Client::connect(&ep_a).expect("connect a");
            c.submit_live(
                CheckKernel::Fwk,
                MODES[LIVE_MODE],
                &long_program(0xC4, 1_000_000_000_000),
                LiveReq {
                    timeout_wall_ms: Some(20_000), // backstop only
                    ..Default::default()
                },
            )
            .expect("submit a")
        });
        // Let the run get well underway, then cancel it from a second
        // session by job id.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let mut c2 = Client::connect(&ep).expect("connect c2");
        assert!(c2.cancel(1).expect("cancel"), "job 1 must be in flight");

        let ra = a.join().expect("join a");
        assert_eq!(ra.outcome, "cancelled");
        assert!(
            ra.final_cycle > 0,
            "cancelled mid-run: the clock had advanced"
        );
        assert!(!ra.cached);

        // The session (and the server) keep working after the cancel.
        let follow = c2
            .submit(CheckKernel::Cnk, MODES[0], &small_program(0xF0))
            .expect("follow-up");
        assert_eq!(follow.outcome, "completed");
        let status = c2.status().expect("status");
        assert_eq!(status.path_num(&["cancelled"]), Some(1.0));
        c2.shutdown().expect("shutdown");
    });
    handle.join().expect("join");
}

#[test]
fn client_disconnect_auto_cancels_in_flight_jobs() {
    let ep = sock("disconnect");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    let handle = spawn(opts).expect("spawn");

    // Raw protocol: submit a huge job (with progress streaming, so the
    // server also has mid-run writes aimed at us), read `accepted`,
    // then vanish.
    {
        use std::io::{BufRead, BufReader, Write};
        let stream = ep.connect().expect("connect");
        let mut w = stream.try_clone().expect("clone");
        let mut r = BufReader::new(stream);
        let line = bgserve::proto::submit_line_live(
            CheckKernel::Fwk,
            MODES[LIVE_MODE],
            &long_program(0xD15C, 1_000_000_000_000),
            LiveReq {
                timeout_wall_ms: Some(20_000), // backstop only
                progress_cycles: Some(50_000_000),
                ..Default::default()
            },
        );
        writeln!(w, "{line}").expect("write");
        w.flush().expect("flush");
        let mut reply = String::new();
        r.read_line(&mut reply).expect("read");
        let v = bench::monitor::parse_json(reply.trim()).expect("parse");
        assert_eq!(v.get("event").and_then(|e| e.str()), Some("accepted"));
    } // both halves drop here: the peer is gone

    // The server must notice, cancel the job, and count one session
    // drop — well before the 20 s wall backstop.
    let mut c2 = Client::connect(&ep).expect("connect c2");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
    loop {
        let status = c2.status().expect("status");
        let cancelled = status.path_num(&["cancelled"]).unwrap_or(0.0);
        let drops = status.path_num(&["session_drops"]).unwrap_or(0.0);
        if cancelled >= 1.0 && drops >= 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "disconnect never auto-cancelled (cancelled={cancelled}, drops={drops})"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    c2.shutdown().expect("shutdown");
    drop(c2);
    handle.join().expect("join");
}

#[test]
fn progress_streaming_is_digest_neutral_end_to_end() {
    let ep = sock("progress");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    let p = long_program(0x9806, 1_000_000_000);
    let live = LiveReq {
        progress_cycles: Some(100_000_000),
        ..Default::default()
    };
    let mut c = Client::connect(&ep).expect("connect");
    let r = c
        .submit_live(CheckKernel::Fwk, MODES[LIVE_MODE], &p, live)
        .expect("submit");
    assert_eq!(r.outcome, "completed");
    assert!(
        r.progress.len() >= 2,
        "a 1e9-cycle run at a 1e8 interval must stream several reports, got {}",
        r.progress.len()
    );
    let mut last = 0u64;
    for ev in &r.progress {
        let cycle: u64 = ev
            .get("cycle")
            .and_then(|x| x.str())
            .and_then(|s| s.parse().ok())
            .expect("progress cycle");
        assert!(cycle > last, "progress cycles must be strictly increasing");
        last = cycle;
    }

    // The streamed run's triple matches a hook-free in-process run: the
    // progress hook is observability, not physics.
    let oracle = run_mode(&p, CheckKernel::Fwk, MODES[LIVE_MODE]).expect("oracle");
    assert_eq!(r.triple(), oracle.triple());

    // And a completed streamed run still lands in the cache.
    let replay = c
        .submit(CheckKernel::Fwk, MODES[LIVE_MODE], &p)
        .expect("replay");
    assert!(replay.cached);

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn persistent_cache_survives_a_server_restart() {
    let ep = sock("persist");
    let dir = std::env::temp_dir().join(format!("bgserve-test-{}-cache", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = small_program(0x5151);

    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    opts.cache_dir = Some(dir.clone());
    let handle = spawn(opts).expect("spawn");
    let mut c = Client::connect(&ep).expect("connect");
    let first = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("first");
    assert!(!first.cached);
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");

    // A brand-new server over the same cache dir answers from disk.
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    opts.cache_dir = Some(dir.clone());
    opts.paranoid = true;
    let handle = spawn(opts).expect("respawn");
    let mut c = Client::connect(&ep).expect("connect");
    let second = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("second");
    assert!(second.cached, "disk tier must survive the restart");
    assert_eq!(second.paranoid, "ok");
    assert_eq!(second.triple(), first.triple());
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}
