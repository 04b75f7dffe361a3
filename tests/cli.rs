//! Integration tests for the `matc` command-line driver.

use std::io::Write as _;
use std::process::Command;

fn matc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_matc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("matc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

#[test]
fn run_executes_a_program() {
    let p = write_temp("run1.m", "function f\nx = 6 * 7;\nfprintf('%d\\n', x);\n");
    let out = matc().args(["run"]).arg(&p).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "42\n");
}

#[test]
fn run_backends_agree() {
    let p = write_temp(
        "run2.m",
        "function f\na = rand(5, 5);\nfprintf('%.8f\\n', sum(sum(a * a)));\n",
    );
    let planned = matc().args(["run"]).arg(&p).output().unwrap();
    let mcc = matc().args(["run", "--mcc"]).arg(&p).output().unwrap();
    let interp = matc().args(["run", "--interp"]).arg(&p).output().unwrap();
    let nogctd = matc().args(["run", "--no-gctd"]).arg(&p).output().unwrap();
    assert_eq!(planned.stdout, mcc.stdout);
    assert_eq!(planned.stdout, interp.stdout);
    assert_eq!(planned.stdout, nogctd.stdout);
}

#[test]
fn seed_changes_random_streams() {
    let p = write_temp("run3.m", "function f\nfprintf('%.12f\\n', rand(1, 1));\n");
    let a = matc()
        .args(["run", "--seed", "1"])
        .arg(&p)
        .output()
        .unwrap();
    let b = matc()
        .args(["run", "--seed", "2"])
        .arg(&p)
        .output()
        .unwrap();
    let a2 = matc()
        .args(["run", "--seed", "1"])
        .arg(&p)
        .output()
        .unwrap();
    assert_ne!(a.stdout, b.stdout);
    assert_eq!(a.stdout, a2.stdout);
}

#[test]
fn emit_c_and_plan_and_stats() {
    let p = write_temp(
        "run4.m",
        "function f\na = rand(4, 4);\nb = a + 1;\nfprintf('%g\\n', sum(sum(b)));\n",
    );
    let c = matc().args(["emit-c"]).arg(&p).output().unwrap();
    assert!(String::from_utf8_lossy(&c.stdout).contains("int main(void)"));
    let plan = matc().args(["plan"]).arg(&p).output().unwrap();
    assert!(String::from_utf8_lossy(&plan.stdout).contains("slot"));
    let stats = matc().args(["stats"]).arg(&p).output().unwrap();
    assert!(String::from_utf8_lossy(&stats.stdout).contains("static subsumed"));
}

#[test]
fn plan_prints_a_benchmarks_golden_plan() {
    // `matc plan` (the whole-unit `compile`) and the batch artifact's
    // plan text (the per-function pipeline behind `tests/golden`) must
    // render the same plan, byte for byte.
    let unit = matc::batch::bench_units(matc::benchsuite::Preset::Test)
        .into_iter()
        .find(|u| u.name == "capr")
        .expect("capr is a benchsuite program");
    let files: Vec<_> = unit
        .sources
        .iter()
        .enumerate()
        .map(|(i, s)| write_temp(&format!("plan_capr{i}.m"), s))
        .collect();
    let out = matc().arg("plan").args(&files).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/capr.plan"),
    )
    .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

#[test]
fn parse_errors_are_reported_with_position() {
    let p = write_temp("bad.m", "function f\nx = (1 + ;\n");
    let out = matc().args(["run"]).arg(&p).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("parse error"), "{err}");
    assert!(err.contains("2:"), "line number expected: {err}");
}

#[test]
fn runtime_errors_exit_nonzero() {
    // The failing read must be observable: dead code (and its errors)
    // is eliminated by the optimizer, as in any optimizing compiler.
    let p = write_temp("rt.m", "function f\na = [1 2];\nfprintf('%g\\n', a(9));\n");
    let out = matc().args(["run"]).arg(&p).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("runtime error"));
}

#[test]
fn a_function_defined_twice_is_a_lowering_error() {
    // Two files defining `g`: a structured error naming the function
    // and its second definition's header, not a panic.
    let d = write_temp("dup_d1.m", "function d1()\ng();\n");
    let g1 = write_temp("dup_d2.m", "function g()\ndisp(1);\n");
    let g2 = write_temp("dup_d3.m", "function g()\ndisp(2);\n");
    let out = matc().arg("run").args([&d, &g1, &g2]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("duplicate function `g` at 0..13"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    let unit = format!("{},{},{}", d.display(), g1.display(), g2.display());
    let out = matc().args(["batch", &unit]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(
        text.contains("error: duplicate function `g` at 0..13"),
        "{text}"
    );
    assert!(!text.contains("panic"), "{text}");
}

#[test]
fn multiple_files_form_one_program() {
    let d = write_temp("multi_driver.m", "function f\nfprintf('%d\\n', g(5));\n");
    let g = write_temp("multi_helper.m", "function y = g(x)\ny = x * x;\n");
    let out = matc().args(["run"]).arg(&d).arg(&g).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "25\n");
}

#[test]
fn batch_compiles_units_with_cache_and_matches_emit_c() {
    let dir = std::env::temp_dir().join("matc-cli-batch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let a = write_temp("batch_a.m", "function f\nfprintf('%d\\n', g(6));\n");
    let helper = write_temp("batch_a_helper.m", "function y = g(x)\ny = x * 7;\n");
    let b = write_temp(
        "batch_b.m",
        "function f\nm = rand(4, 4);\nfprintf('%.6f\\n', sum(sum(m)));\n",
    );
    let spec_a = format!("{},{}", a.display(), helper.display());

    let cold = matc()
        .args(["batch", "--jobs", "2"])
        .args(["--cache-dir"])
        .arg(dir.join("cache"))
        .args(["--emit-dir"])
        .arg(dir.join("out"))
        .args(["--stats"])
        .arg(dir.join("stats.json"))
        .arg(&spec_a)
        .arg(&b)
        .output()
        .unwrap();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let table = String::from_utf8_lossy(&cold.stdout);
    assert!(table.contains("2 unit(s), 0 failed"), "{table}");
    assert!(table.contains("miss"), "{table}");

    // The batch-emitted C is byte-identical to `matc emit-c`.
    let direct = matc()
        .args(["emit-c"])
        .arg(&a)
        .arg(&helper)
        .output()
        .unwrap();
    let emitted = std::fs::read(dir.join("out/batch_a.c")).unwrap();
    assert_eq!(emitted, direct.stdout);

    // The stats document has the advertised shape. The schema-v9
    // prefix (with its `"kind"` discriminator), the always-present
    // per-unit fault-tolerance arrays, and the dataflow-engine counters
    // inside `interference` are a stability contract (DESIGN.md
    // §6/§7/§8/§9): downstream tooling keys on them, so this assert
    // must only ever change together with a schema-version bump.
    let stats = std::fs::read_to_string(dir.join("stats.json")).unwrap();
    assert!(
        stats.starts_with("{\"schema\":9,\"kind\":\"batch\","),
        "{stats}"
    );
    assert!(stats.contains("\"jobs\":2"), "{stats}");
    assert!(stats.contains("\"phase_totals_micros\""), "{stats}");
    assert!(stats.contains("\"unit\":\"batch_a\""), "{stats}");
    assert!(stats.contains("\"status\":\"ok\""), "{stats}");
    assert!(stats.contains("\"degradations\":[]"), "{stats}");
    assert!(stats.contains("\"budget_exceeded\":[]"), "{stats}");
    assert!(stats.contains("\"dataflow_iters\":"), "{stats}");
    assert!(stats.contains("\"peak_live_words\":"), "{stats}");
    assert!(stats.contains("\"dataflow_micros\":"), "{stats}");
    // Schema v7: the artifact store's counters in the cache object.
    assert!(stats.contains("\"partial_hits\":0"), "{stats}");
    assert!(stats.contains("\"frag_misses\":"), "{stats}");
    assert!(stats.contains("\"quarantined\":0"), "{stats}");

    // A second process over the same cache dir hits every unit and
    // emits identical bytes.
    let warm = matc()
        .args(["batch", "--jobs", "2"])
        .args(["--cache-dir"])
        .arg(dir.join("cache"))
        .args(["--emit-dir"])
        .arg(dir.join("out2"))
        .arg(&spec_a)
        .arg(&b)
        .output()
        .unwrap();
    assert!(warm.status.success());
    let table = String::from_utf8_lossy(&warm.stdout);
    assert!(table.contains("cache 2 hit(s) / 0 miss(es)"), "{table}");
    assert_eq!(
        std::fs::read(dir.join("out2/batch_a.c")).unwrap(),
        emitted,
        "cross-process cache hit changed the emitted C"
    );
}

#[test]
fn batch_selfcheck_passes_and_failures_exit_nonzero() {
    let good = write_temp("batch_ok.m", "function f\nfprintf('%d\\n', 3 * 3);\n");
    let out = matc()
        .args(["batch", "--selfcheck", "--jobs", "4"])
        .arg(&good)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("selfcheck ok"));

    // A unit that fails to compile fails the batch.
    let bad = write_temp("batch_bad.m", "function f\nx = (1 + ;\n");
    let out = matc().args(["batch"]).arg(&bad).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 failed"));
}

#[test]
fn batch_faults_flag_degrades_units_and_exits_three() {
    let dir = std::env::temp_dir().join("matc-cli-faults");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = write_temp(
        "faulty.m",
        "function f\na = rand(3, 3);\nb = a * a;\nfprintf('%.6f\\n', sum(sum(b)));\n",
    );

    // 100% synthetic audit violations: every unit compiles, but only
    // after falling back to the conservative plan — exit code 3.
    let out = matc()
        .args([
            "batch",
            "--faults",
            "seed=1,read=0,write=0,panic=0,audit=100",
        ])
        .args(["--stats"])
        .arg(dir.join("stats.json"))
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("degraded"), "{table}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fault injection active"), "{err}");
    let stats = std::fs::read_to_string(dir.join("stats.json")).unwrap();
    assert!(stats.contains("\"status\":\"degraded\""), "{stats}");
    assert!(stats.contains("\"stage\":"), "{stats}");

    // Injected unit panics become structured failures: exit code 1.
    let out = matc()
        .args([
            "batch",
            "--faults",
            "seed=1,read=0,write=0,panic=100,audit=0",
        ])
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("injected fault"));

    // A malformed spec is a usage error.
    let out = matc()
        .args(["batch", "--faults", "seed=1,bogus=9"])
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --faults spec"));
}

#[test]
fn usage_on_bad_invocation() {
    let out = matc().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn runtime_subcommand_enables_native_builds() {
    let dir = std::env::temp_dir().join("matc-cli-native");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = matc().args(["runtime"]).arg(&dir).output().unwrap();
    assert!(out.status.success());
    assert!(dir.join("mrt.h").exists());
    assert!(dir.join("mrt.c").exists());

    // If a C compiler is present, drive the full native workflow.
    let cc_ok = Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !cc_ok {
        return;
    }
    let prog = write_temp(
        "native.m",
        "function f\ns = 0;\nfor i = 1:100\ns = s + i;\nend\nfprintf('%d\\n', s);\n",
    );
    let c = matc().args(["emit-c"]).arg(&prog).output().unwrap();
    std::fs::write(dir.join("prog.c"), &c.stdout).unwrap();
    let build = Command::new("cc")
        .args(["-O1", "-std=c99", "-w", "-o"])
        .arg(dir.join("prog"))
        .arg(dir.join("prog.c"))
        .arg(dir.join("mrt.c"))
        .arg("-lm")
        .output()
        .unwrap();
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let run = Command::new(dir.join("prog")).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&run.stdout), "5050\n");
}

#[test]
fn serve_and_request_round_trip_over_the_wire() {
    use std::io::{BufRead as _, BufReader};

    let prog = write_temp(
        "serve1.m",
        "function f\ns = 0;\nfor i = 1:12\ns = s + i;\nend\nfprintf('%d\\n', s);\n",
    );
    // Ephemeral port: the daemon prints `matc: serving on ADDR` as its
    // first stdout line; read it back to learn the address.
    let mut daemon = matc()
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(daemon.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_string();
    assert!(banner.starts_with("matc: serving on "), "{banner}");

    // Cold compile, then a warm cache hit, via the client subcommand.
    let cold = matc()
        .args(["request", "--addr", &addr, "--deadline-ms", "30000"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_line = String::from_utf8_lossy(&cold.stdout);
    assert!(cold_line.contains("\"status\":\"ok\""), "{cold_line}");
    assert!(cold_line.contains("\"cached\":\"miss\""), "{cold_line}");

    let warm = matc()
        .args(["request", "--addr", &addr])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(warm.status.success());
    assert!(
        String::from_utf8_lossy(&warm.stdout).contains("\"cached\":\"hit\""),
        "{}",
        String::from_utf8_lossy(&warm.stdout)
    );

    // --emit ships the artifact text inline.
    let emit = matc()
        .args(["request", "--addr", &addr, "--op", "audit", "--emit"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(emit.status.success());
    let emit_line = String::from_utf8_lossy(&emit.stdout);
    assert!(emit_line.contains("\"findings\""), "{emit_line}");
    assert!(emit_line.contains("int main(void)"), "{emit_line}");

    // healthz and schema-v9 serve stats.
    let health = matc()
        .args(["request", "--addr", &addr, "--op", "healthz"])
        .output()
        .unwrap();
    assert!(health.status.success());
    assert!(
        String::from_utf8_lossy(&health.stdout).contains("\"status\":\"ok\""),
        "{}",
        String::from_utf8_lossy(&health.stdout)
    );
    let stats = matc()
        .args(["request", "--addr", &addr, "--op", "stats"])
        .output()
        .unwrap();
    let stats_line = String::from_utf8_lossy(&stats.stdout);
    assert!(
        stats_line.starts_with("{\"schema\":9,\"kind\":\"serve\",\"server\":{"),
        "{stats_line}"
    );

    // Graceful shutdown over the wire; the daemon exits 0 (clean drain).
    let down = matc()
        .args(["request", "--addr", &addr, "--op", "shutdown"])
        .output()
        .unwrap();
    assert!(down.status.success());
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exit: {status:?}");
}

#[test]
fn request_pipeline_preserves_response_order() {
    use std::io::{BufRead as _, BufReader};
    use std::time::Duration;

    let prog = write_temp(
        "serve_pipe.m",
        "function f\ns = 0;\nfor i = 1:30\ns = s + i * i;\nend\nfprintf('%d\\n', s);\n",
    );
    let mut daemon = matc()
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(daemon.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner.trim().rsplit(' ').next().unwrap().to_string();

    // The CLI flag: 3 copies of one compile request down a single
    // persistent connection, responses printed in request order.
    let out = matc()
        .args(["request", "--addr", &addr, "--pipeline", "3"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    for line in &lines {
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(line.contains("\"unit\":\"serve_pipe\""), "{line}");
    }

    // Ordering under mixed latencies: a slow compile pipelined ahead
    // of instant healthz ops must still answer first — responses
    // leave in request order, not completion order.
    let src = std::fs::read_to_string(&prog).unwrap();
    let compile = matc::json::Json::Obj(vec![
        ("op".to_string(), matc::json::Json::str("compile")),
        ("name".to_string(), matc::json::Json::str("ordered")),
        (
            "sources".to_string(),
            matc::json::Json::Arr(vec![matc::json::Json::str(src)]),
        ),
    ])
    .render();
    let healthz = "{\"op\":\"healthz\"}".to_string();
    let frames = vec![compile, healthz.clone(), healthz];
    let lines = matc::serve::send_pipelined(&addr, &frames, Duration::from_secs(30)).unwrap();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"unit\":\"ordered\""), "{}", lines[0]);
    assert!(lines[1].contains("\"uptime_ms\""), "{}", lines[1]);
    assert!(lines[2].contains("\"uptime_ms\""), "{}", lines[2]);

    let down = matc()
        .args(["request", "--addr", &addr, "--op", "shutdown"])
        .output()
        .unwrap();
    assert!(down.status.success());
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exit: {status:?}");
}

#[test]
fn request_against_a_dead_daemon_fails_after_bounded_retries() {
    let prog = write_temp("serve2.m", "function f\nfprintf('%d\\n', 1);\n");
    // Port 1 is never listening; two retries with small deadline must
    // fail fast with exit 1 — not hang.
    let out = matc()
        .args([
            "request",
            "--addr",
            "127.0.0.1:1",
            "--retries",
            "2",
            "--deadline-ms",
            "2000",
        ])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("matc:"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_usage_errors_exit_2() {
    let out = matc()
        .args(["serve", "--queue-cap", "zero"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = matc().args(["request", "--op"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn shadow_usage_errors_exit_2() {
    // No units at all → usage.
    let out = matc().args(["shadow"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("shadow"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Unknown flag → usage.
    let out = matc().args(["shadow", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // --seed without a value → usage.
    let out = matc().args(["shadow", "--seed"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn shadow_reports_a_clean_unit_and_exits_zero() {
    let p = write_temp(
        "shadow1.m",
        "function f\na = rand(5, 5);\nb = a + 1;\nfprintf('%.8f\\n', sum(sum(b)));\n",
    );
    let out = matc().args(["shadow"]).arg(&p).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("== shadow1 =="), "{stdout}");
    assert!(stdout.contains("S100=0 S101=0 S102=0"), "{stdout}");
    assert!(stdout.contains("eq2: observed="), "{stdout}");
    assert!(stdout.contains("1 unit(s): 0 S101, 0 S102,"), "{stdout}");
}

#[test]
fn shadow_failing_unit_exits_one() {
    // Out-of-bounds read: both executors fail, the unit is an error.
    let p = write_temp(
        "shadow2.m",
        "function f\na = rand(2, 2);\nfprintf('%g\\n', a(9));\n",
    );
    let out = matc().args(["shadow"]).arg(&p).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error:"), "{stdout}");
}

#[test]
fn shadow_stats_documents_are_schema_v9() {
    let p = write_temp("shadow3.m", "function f\nfprintf('%d\\n', 2 + 2);\n");
    let stats_path = std::env::temp_dir()
        .join("matc-cli-tests")
        .join("shadow3.stats.json");
    let out = matc()
        .args(["shadow", "--json", "--stats"])
        .arg(&stats_path)
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    // The same document goes to stdout (--json) and the file (--stats),
    // pinned to the schema-v9 `shadow{}` shape.
    let prefix = "{\"schema\":9,\"kind\":\"shadow\",\"shadow\":{\"units\":1,";
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().last().unwrap().starts_with(prefix),
        "{stdout}"
    );
    let doc = std::fs::read_to_string(&stats_path).unwrap();
    assert!(doc.starts_with(prefix), "{doc}");
    assert!(doc.contains("\"plan_violations\":0"), "{doc}");
    assert!(doc.contains("\"s105\":0"), "{doc}");
}

#[test]
fn shadow_seed_is_deterministic() {
    let p = write_temp(
        "shadow4.m",
        "function f\nfprintf('%.12f\\n', rand(1, 1));\n",
    );
    let a = matc()
        .args(["shadow", "--seed", "7"])
        .arg(&p)
        .output()
        .unwrap();
    let b = matc()
        .args(["shadow", "--seed", "7"])
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(a.stdout, b.stdout);
}
