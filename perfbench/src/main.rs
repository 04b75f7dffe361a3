//! `benchmark` — the matc benchmark (see `BENCHMARK.md`).
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark [--seed N] [--seconds S] [--trace 0|1]    every workload, each in its own process
//! benchmark --bless-expected                           regenerate expected/ with the interpreter
//! ```
//!
//! A single-workload run prints its report, writes
//! `target/benchmark/result-<workload>-seed<N>-trace<T>.json`, and ends
//! its output with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}` — the end-to-end metrics, or with `--trace 1` the
//! per-layer ones.

use matc::json::Json;
use matc_benchmark::corpus;
use matc_benchmark::registry::registry;
use matc_benchmark::workloads::{self, Args};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] | --bless-expected";

struct Cli {
    workload: Option<String>,
    args: Args,
    bless: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: Args {
            seed: 1,
            seconds: registry().run_seconds as f64,
            trace: false,
        },
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless-expected" {
            cli.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.args.seed = value.parse().map_err(|_| bad("want an integer"))?,
            "--seconds" => {
                cli.args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("want seconds in (0, 3600]"))?;
            }
            "--trace" => {
                cli.args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cli)
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let result = match workloads::run(name, args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = result.validate(args.trace) {
        eprintln!("benchmark: {name}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", result.render(name, args.trace));
    let file = corpus::out_dir().join(format!(
        "result-{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let doc = result.to_file_json(name, args.seed, args.seconds, args.trace);
    if let Err(e) =
        std::fs::create_dir_all(corpus::out_dir()).and_then(|()| std::fs::write(&file, doc))
    {
        eprintln!("benchmark: cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result.contract_line(args.trace));
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own, so that each
/// one's peak RSS is its own, and prints a summary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("host: {}", matc_benchmark::host::stamp(args.seed).render());
    let mut summary = Vec::new();
    let mut ok = true;
    for name in &registry().workloads {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let line = match out {
            Ok(o) if o.status.success() => {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let mut lines: Vec<&str> = text.lines().collect();
                let last = lines.pop().unwrap_or("").to_string();
                for l in lines {
                    println!("{l}");
                }
                last
            }
            Ok(o) => {
                print!("{}", String::from_utf8_lossy(&o.stdout));
                format!("exited with {}", o.status)
            }
            Err(e) => format!("cannot start: {e}"),
        };
        let doc = Json::parse(&line).ok();
        let field = |k: &str| doc.as_ref().and_then(|d| d.get(k)).map(Json::render);
        let correct = field("correct").as_deref() == Some("true");
        ok &= correct;
        summary.push(match (field("attempted"), field("failed")) {
            (Some(a), Some(f)) => format!("{name:14} correct={correct} attempted={a} failed={f}"),
            _ => format!("{name:14} FAILED: {line}"),
        });
    }
    println!("== summary");
    for s in summary {
        println!("   {s}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "benchmark: refusing to run a debug build — debug builds re-audit every plan and \
             verify the IR after every pass, so their timings describe neither release code \
             nor its regressions; use `cargo run --release`"
        );
        return ExitCode::from(2);
    }
    if cli.bless {
        return match corpus::bless_expected() {
            Ok(files) => {
                for f in files {
                    println!("wrote {}", f.display());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match &cli.workload {
        Some(name) => run_one(name, &cli.args),
        None => run_all(&cli.args),
    }
}
