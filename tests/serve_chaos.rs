//! Network-level chaos matrix for the `matc serve` daemon (DESIGN.md
//! §9).
//!
//! Fifty seed-derived [`FaultPlan`]s from `FaultPlan::net_from_seed` —
//! covering injected accept failures, mid-frame disconnects,
//! slow-loris stalls, torn responses, and (for a quarter of the seeds)
//! unit panics crossed with the network faults — are fired at a live
//! in-process daemon under concurrent client load. For every seed the
//! daemon must:
//!
//! * never wedge: every client call returns (a response or a transport
//!   error), and [`matc::serve::ServerHandle::shutdown`] always
//!   completes its drain;
//! * never serve a torn frame as an answer: every `Ok` client result
//!   parses as a complete JSON object;
//! * never poison the cache: a quiet daemon started afterwards on the
//!   same cache directory serves only byte-correct artifacts,
//!   regardless of what panicked, stalled or tore during the chaos run.
//!
//! A separate test drives the per-unit circuit breaker through its
//! full quarantine → cooldown → half-open probe → recovery cycle using
//! the daemon's `set_faults` hook.

use matc::batch::{compile_unit, Unit};
use matc::gctd::{BreakerConfig, FaultPlan, GctdOptions};
use matc::json::Json;
use matc::serve::{send_once, start, RequestOptions, ServeConfig};
use matc::sys::Clock;
use std::time::Duration;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("matc-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Four tiny units: cheap enough for a 50-seed live-daemon matrix in
/// debug builds, distinct enough to occupy four cache keys and four
/// breaker keys.
fn chaos_units() -> Vec<Unit> {
    (0..4)
        .map(|i| {
            Unit::new(
                format!("cu{i}"),
                vec![format!(
                    "function f()\ns = 0;\nfor i = 1:{}\ns = s + i;\nend\nfprintf('%d\\n', s);\n",
                    7 + i
                )],
            )
        })
        .collect()
}

fn compile_frame(unit: &Unit, emit: bool) -> String {
    let mut members = vec![
        ("op".to_string(), Json::str("compile")),
        ("name".to_string(), Json::str(unit.name.as_str())),
        (
            "sources".to_string(),
            Json::Arr(unit.sources.iter().map(Json::str).collect()),
        ),
        ("deadline_ms".to_string(), Json::num(30_000)),
    ];
    if emit {
        members.push(("emit".to_string(), Json::Bool(true)));
    }
    Json::Obj(members).render()
}

#[test]
fn fifty_seed_network_chaos_never_wedges_and_never_poisons_the_cache() {
    let units = chaos_units();
    let reference: Vec<String> = units
        .iter()
        .map(|u| {
            compile_unit(u, GctdOptions::default(), None)
                .artifact
                .expect("chaos units are healthy")
                .c_code
                .clone()
        })
        .collect();

    // Aggregate fate counters across the whole matrix: the matrix must
    // actually exercise both the happy path and the injected failures.
    let mut ok_responses = 0u64;
    let mut rejections = 0u64;
    let mut transport_errors = 0u64;
    let mut torn_detected = 0u64;

    for seed in 0..50u64 {
        let plan = FaultPlan::net_from_seed(seed);
        let dir = fresh_dir(&format!("seed{seed}"));
        let handle = start(ServeConfig {
            jobs: 2,
            queue_cap: 6,
            high_water: 3,
            drain_ms: 5_000,
            idle_timeout_ms: 2_000,
            breaker: BreakerConfig {
                threshold: 2,
                cooldown: Duration::from_millis(50),
            },
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            faults: Some(plan),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();

        // Concurrent client load: 6 threads, each sending one request
        // per unit over its own connection. Every call must RETURN —
        // a wedged daemon hangs these joins and times the test out.
        let fates: Vec<Result<String, String>> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..6 {
                let addr = &addr;
                let units = &units;
                handles.push(s.spawn(move || {
                    let mut fates = Vec::new();
                    // Rotate which unit goes first so breaker and
                    // queue pressure differ per thread.
                    for k in 0..units.len() {
                        let unit = &units[(k + t) % units.len()];
                        let frame = compile_frame(unit, false);
                        fates.push(send_once(addr, &frame, Duration::from_secs(20)));
                    }
                    fates
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread must not panic"))
                .collect()
        });

        for fate in &fates {
            match fate {
                Ok(line) => {
                    // Never a torn frame served as an answer: whatever
                    // came back with a terminator must be complete JSON.
                    let resp = Json::parse(line).unwrap_or_else(|e| {
                        panic!("seed {seed}: torn/garbled response {line:?}: {e}")
                    });
                    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                        ok_responses += 1;
                    } else {
                        let code = resp.get("code").and_then(Json::as_str).unwrap_or("");
                        assert!(
                            matches!(
                                code,
                                "overloaded" | "quarantined" | "shutting_down" | "timeout"
                            ),
                            "seed {seed}: unexpected rejection {line}"
                        );
                        rejections += 1;
                    }
                }
                Err(e) => {
                    if e.contains("torn") {
                        torn_detected += 1;
                    }
                    transport_errors += 1;
                }
            }
        }

        // The daemon always drains: shutdown() returning at all is the
        // no-wedge proof; nothing was left queued past the deadline.
        let summary = handle.shutdown();
        assert!(
            summary.drained_cleanly,
            "seed {seed}: drain deadline exceeded with {} queued rejection(s)",
            summary.shutdown_rejected
        );

        // Cache soundness: a quiet daemon over the same directory must
        // serve only byte-correct artifacts — nothing degraded, torn
        // or panic-recovered may have been published by the chaos run.
        let quiet = start(ServeConfig {
            jobs: 2,
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        })
        .unwrap();
        let quiet_addr = quiet.addr().to_string();
        for (unit, want_c) in units.iter().zip(&reference) {
            let line = send_once(
                &quiet_addr,
                &compile_frame(unit, true),
                Duration::from_secs(30),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: quiet daemon failed on {}: {e}", unit.name));
            let resp = Json::parse(&line).unwrap();
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "seed {seed}/{}: {line}",
                unit.name
            );
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("ok"),
                "seed {seed}/{}: degraded artifact after chaos run: {line}",
                unit.name
            );
            assert_eq!(
                resp.get("c").and_then(Json::as_str),
                Some(want_c.as_str()),
                "seed {seed}/{}: cache served wrong C after chaos run",
                unit.name
            );
        }
        quiet.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The matrix is only meaningful if it covered both worlds.
    assert!(ok_responses > 0, "no request ever succeeded");
    assert!(
        transport_errors > 0,
        "no injected network fault ever surfaced"
    );
    assert!(torn_detected > 0, "no torn response was ever injected");
    let _ = rejections; // load-dependent; any count (incl. zero) is lawful
}

/// Reads one `"key":<uint>` out of a stats/server JSON line.
fn stat_u64(resp: &Json, path: &[&str]) -> u64 {
    let mut v = Some(resp);
    for key in path {
        v = v.and_then(|j| j.get(key));
    }
    v.and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn breaker_quarantines_a_panicking_unit_then_half_open_recovers_it() {
    let unit = chaos_units().remove(0);
    // The daemon runs on a virtual clock: the breaker cooldown elapses
    // only when this test advances time, never by wall-clock accident —
    // microsecond-deterministic on any machine.
    let clock = Clock::simulated();
    let handle = start(ServeConfig {
        jobs: 1,
        breaker: BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(200),
        },
        clock: clock.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let send = |frame: &str| -> Json {
        let line = send_once(&addr, frame, Duration::from_secs(20)).unwrap();
        Json::parse(&line).unwrap()
    };

    // Make every compile of this unit panic inside the pipeline.
    let resp = send(
        &Json::Obj(vec![
            ("op".to_string(), Json::str("set_faults")),
            ("spec".to_string(), Json::str("seed=1,panic=100")),
        ])
        .render(),
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    // Three consecutive panics: each is an isolated structured error
    // (the worker survives), and the third opens the breaker.
    for i in 0..3 {
        let resp = send(&compile_frame(&unit, false));
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "attempt {i}"
        );
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("error"),
            "attempt {i}: panic must surface as a structured error"
        );
    }

    // Open: requests for this unit are rejected without compiling.
    let resp = send(&compile_frame(&unit, false));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.get("code").and_then(Json::as_str), Some("quarantined"));

    // Clear the fault; the breaker stays open until the cooldown runs
    // out (an immediate retry is still quarantined).
    let resp = send(
        &Json::Obj(vec![
            ("op".to_string(), Json::str("set_faults")),
            ("spec".to_string(), Json::str("")),
        ])
        .render(),
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let resp = send(&compile_frame(&unit, false));
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("quarantined"),
        "breaker must stay open inside the cooldown"
    );

    // After the cooldown the next request is the half-open probe; the
    // now-healthy unit compiles and the breaker closes for good. The
    // cooldown passes by advancing virtual time, not by sleeping.
    clock.advance(Duration::from_millis(400));
    let resp = send(&compile_frame(&unit, false));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "probe");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    let resp = send(&compile_frame(&unit, false));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    // The stats document agrees: one closed breaker, nothing open.
    let stats = send(&Json::Obj(vec![("op".to_string(), Json::str("stats"))]).render());
    assert_eq!(stat_u64(&stats, &["server", "breakers", "closed"]), 1);
    assert_eq!(stat_u64(&stats, &["server", "breakers", "open"]), 0);
    assert!(stat_u64(&stats, &["server", "breaker_rejected"]) >= 2);

    handle.shutdown();
}

#[test]
fn draining_daemon_finishes_inflight_work_and_rejects_newcomers() {
    let units = chaos_units();
    let handle = start(ServeConfig {
        jobs: 1,
        drain_ms: 10_000,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // Fill the single worker with real work from concurrent clients,
    // then shut down mid-flight. Every client must get either a real
    // response or a clean structured rejection — never a hang.
    let results: Vec<Result<String, String>> = std::thread::scope(|s| {
        let mut client_handles = Vec::new();
        for round in 0..3 {
            for unit in &units {
                let addr = &addr;
                let frame = compile_frame(unit, false);
                client_handles.push(s.spawn(move || {
                    let _ = round;
                    send_once(addr, &frame, Duration::from_secs(30))
                }));
            }
        }
        // Let some requests get queued, then start the drain via the
        // network-facing shutdown op (the SIGTERM path sets the same
        // flag).
        std::thread::sleep(Duration::from_millis(20));
        let _ = send_once(
            &addr,
            &Json::Obj(vec![("op".to_string(), Json::str("shutdown"))]).render(),
            Duration::from_secs(10),
        );
        client_handles
            .into_iter()
            .map(|h| h.join().expect("client must not panic"))
            .collect()
    });

    let mut served = 0u64;
    let mut rejected = 0u64;
    for r in results {
        match r {
            Ok(line) => {
                let resp = Json::parse(&line).unwrap();
                if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                    assert!(matches!(
                        resp.get("status").and_then(Json::as_str),
                        Some("ok") | Some("degraded")
                    ));
                    served += 1;
                } else {
                    assert_eq!(
                        resp.get("code").and_then(Json::as_str),
                        Some("shutting_down"),
                        "{line}"
                    );
                    rejected += 1;
                }
            }
            // A connection the draining server closed before the
            // request landed is also a clean rejection.
            Err(_) => rejected += 1,
        }
    }
    let summary = handle.shutdown();
    assert!(summary.drained_cleanly, "in-flight work must drain");
    assert!(served > 0, "nothing was served before the drain");
    assert_eq!(served, summary.completed);
    let _ = rejected; // timing-dependent; zero is lawful on a fast box
}

#[test]
fn client_retries_through_chaos_with_deadline_propagation() {
    // A daemon dropping 30% of connections at accept and tearing 30%
    // of responses: the retrying client must still land every request
    // within its deadline.
    let unit = chaos_units().remove(0);
    let plan = FaultPlan::quiet(11).net_accepts(30).net_torn(30);
    let handle = start(ServeConfig {
        jobs: 1,
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .unwrap();
    // The retry loop's backoff and deadline arithmetic run on a
    // virtual clock: every backoff advances simulated time instead of
    // sleeping, so the budget math is deterministic to the microsecond
    // and the test never waits on a real timer.
    let opts = RequestOptions {
        addr: handle.addr().to_string(),
        retries: 12,
        deadline_ms: Some(20_000),
        backoff_base_ms: 1,
        backoff_cap_ms: 20,
        clock: Clock::simulated(),
        ..RequestOptions::default()
    };
    let payload = Json::Obj(vec![
        ("op".to_string(), Json::str("compile")),
        ("name".to_string(), Json::str(unit.name.as_str())),
        (
            "sources".to_string(),
            Json::Arr(unit.sources.iter().map(Json::str).collect()),
        ),
    ]);
    for i in 0..10 {
        let resp = matc::serve::request_with_retries(&opts, &payload)
            .unwrap_or_else(|e| panic!("request {i} lost to chaos: {e}"));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{i}");
        // Deadline propagation: the server-side deadline the retry loop
        // attaches must never exceed the client's overall budget.
        let sent = resp.get("unit").and_then(Json::as_str);
        assert_eq!(sent, Some(unit.name.as_str()));
    }
    handle.shutdown();
}

#[test]
fn expired_deadline_is_a_structured_failure_not_a_hang() {
    let unit = chaos_units().remove(0);
    let handle = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    // deadline_ms: 0 of an admitted request expires before any phase
    // runs: the pipeline fast-fails with a deadline budget error.
    let frame = Json::Obj(vec![
        ("op".to_string(), Json::str("compile")),
        ("name".to_string(), Json::str(unit.name.as_str())),
        (
            "sources".to_string(),
            Json::Arr(unit.sources.iter().map(Json::str).collect()),
        ),
        ("deadline_ms".to_string(), Json::num(0)),
    ])
    .render();
    let line = send_once(&addr, &frame, Duration::from_secs(20)).unwrap();
    let resp = Json::parse(&line).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .contains("deadline"),
        "{line}"
    );
    // And the failed attempt published nothing: a clean retry compiles
    // fresh (miss), proving no deadline-tripped artifact was cached.
    let frame = compile_frame(&unit, false);
    let line = send_once(&addr, &frame, Duration::from_secs(20)).unwrap();
    let resp = Json::parse(&line).unwrap();
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(resp.get("cached").and_then(Json::as_str), Some("miss"));
    handle.shutdown();
}

#[test]
fn torn_frame_mid_pipeline_kills_only_that_connection() {
    use matc::gctd::FaultSite;
    use matc::serve::send_pipelined;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::TcpStream;

    // fires() is deterministic per (plan, key) and connection serials
    // are assigned in accept order, so we can pick a seed where the
    // victim connection's first request tears while the bystander
    // connection's whole pipeline stays clean.
    let plan = (0..10_000u64)
        .find_map(|seed| {
            let p = FaultPlan::quiet(seed).net_torn(40);
            let victim_tears = p.fires(FaultSite::NetTorn, "conn1/req1");
            let bystander_clean =
                (1..=4).all(|r| !p.fires(FaultSite::NetTorn, &format!("conn0/req{r}")));
            (victim_tears && bystander_clean).then_some(p)
        })
        .expect("some seed tears conn1/req1 and spares conn0");

    let units = chaos_units();
    let handle = start(ServeConfig {
        jobs: 2,
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // Bystander connects first (serial 0) and pipelines two compiles
    // down its persistent connection without reading yet.
    let mut bystander = TcpStream::connect(&addr).unwrap();
    bystander
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut wire = String::new();
    wire.push_str(&compile_frame(&units[0], false));
    wire.push('\n');
    wire.push_str(&compile_frame(&units[1], false));
    wire.push('\n');
    bystander.write_all(wire.as_bytes()).unwrap();

    // Victim connects second (serial 1) and pipelines three requests;
    // its first response tears mid-frame and the connection dies,
    // dropping the rest of its pipeline.
    let healthz = "{\"op\":\"healthz\"}".to_string();
    let frames = vec![healthz.clone(), healthz.clone(), healthz];
    let err = send_pipelined(&addr, &frames, Duration::from_secs(20))
        .expect_err("the victim's first response must tear");
    assert!(err.contains("torn"), "{err}");

    // The bystander's queued responses still flush, in order, complete.
    let mut reader = BufReader::new(&bystander);
    for unit in &units[..2] {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim())
            .unwrap_or_else(|e| panic!("bystander got a garbled frame {line:?}: {e}"));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        assert_eq!(
            resp.get("unit").and_then(Json::as_str),
            Some(unit.name.as_str()),
            "responses out of order: {line}"
        );
    }

    let summary = handle.shutdown();
    assert!(summary.drained_cleanly);
    assert_eq!(summary.completed, 2, "both bystander compiles finished");
}

#[cfg(target_os = "linux")]
#[test]
fn stalled_reader_is_disconnected_at_the_write_buffer_cap() {
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::time::Instant;

    let unit = chaos_units().remove(0);
    // Tiny kernel send buffer + tiny userspace cap: a reader that
    // never drains jams within kilobytes instead of megabytes.
    let handle = start(ServeConfig {
        jobs: 2,
        queue_cap: 1_000,
        high_water: 1_000,
        max_write_buf: 64 * 1024,
        sndbuf: Some(8 * 1024),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // A stalled reader: pipeline hundreds of emit requests (the
    // response carries the whole C artifact) and never read a byte.
    let stalled = TcpStream::connect(&addr).unwrap();
    stalled
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = String::new();
    for _ in 0..400 {
        wire.push_str(&compile_frame(&unit, true));
        wire.push('\n');
    }
    let mut s = &stalled;
    // The server may kill the connection while we are still writing;
    // an EPIPE/reset here just means the cap already tripped.
    let _ = s.write_all(wire.as_bytes());

    // From a second connection, watch the reactor census until the
    // overflow disconnect is recorded.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut overflows = 0;
    while Instant::now() < deadline {
        let line = send_once(&addr, "{\"op\":\"stats\"}", Duration::from_secs(10))
            .expect("a stalled bystander must never wedge the reactor");
        let resp = Json::parse(&line).unwrap();
        overflows = stat_u64(&resp, &["server", "reactor", "write_overflow_disconnects"]);
        if overflows >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        overflows >= 1,
        "write-buffer cap never tripped for the stalled reader"
    );
    drop(stalled);
    handle.shutdown();
}

#[test]
fn poll_backend_serves_pipelined_requests_end_to_end() {
    use matc::serve::send_pipelined;

    // The default daemon runs on poll(2): pipelined responses come back
    // in request order and the census names the backend.
    let units = chaos_units();
    let handle = start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let frames: Vec<String> = units.iter().map(|u| compile_frame(u, false)).collect();
    let lines = send_pipelined(&addr, &frames, Duration::from_secs(30)).unwrap();
    assert_eq!(lines.len(), units.len());
    for (unit, line) in units.iter().zip(&lines) {
        let resp = Json::parse(line).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        assert_eq!(
            resp.get("unit").and_then(Json::as_str),
            Some(unit.name.as_str()),
            "poll backend broke response ordering: {line}"
        );
    }
    let stats = send_once(&addr, "{\"op\":\"stats\"}", Duration::from_secs(10)).unwrap();
    let resp = Json::parse(&stats).unwrap();
    assert_eq!(
        resp.get("server")
            .and_then(|s| s.get("reactor"))
            .and_then(|r| r.get("backend"))
            .and_then(Json::as_str),
        Some("poll")
    );
    assert!(
        stat_u64(&resp, &["server", "reactor", "pipelined_peak"]) >= 2,
        "{stats}"
    );
    handle.shutdown();
}
