//! `run-paper`: the paper's own §4 measurement — what the compiled
//! programs do at run time.
//!
//! Set-up compiles the 11 programs at the Paper preset, emits their C
//! and builds each with `cc -O2` against the `mrt` runtime. Each round
//! then runs every program once in the GCTD-planned VM and once as a
//! native binary, in a seeded order; one operation is one program run
//! and each round is one slice. Latency is reported per round: the
//! programs' run times span three orders of magnitude, so a percentile
//! over single runs would jump from one program to another. Outputs are
//! compared with files the reference interpreter blessed (`expected/`):
//! exactly for the VM, within a last-digit tolerance for native code.
//! The mcc model is left out — it takes longer than every other
//! workload together.
//!
//! Native binaries run with the stack limit raised: at the Paper preset
//! `fiff`'s planned stack slots exceed the usual 8 MiB default. The
//! traced run counts the programs that crash under that default.

use super::{seeded_order, zero_all_layers, Args};
use crate::corpus;
use crate::host;
use crate::outputs::outputs_agree;
use crate::result::{end_to_end, host_note, latency_percentiles, RunResult, Slice, Tally};
use crate::stats;
use crate::trace::{Tracer, NO_FUNC};
use crate::yardstick::{time_once, Ruler, NOMINAL_SECS};
use matc::benchsuite::{all, Preset};
use matc::codegen::{emit_program, MRT_C, MRT_H};
use matc::frontend::parse_program;
use matc::gctd::GctdOptions;
use matc::vm::{compile::compile, Compiled, PlannedVm};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Set-ups repeated per run (`setup_s` is their median).
const SETUPS: usize = 3;

/// Runs a binary with the stack limit raised as far as the host allows.
const RAISED_STACK: &str =
    "ulimit -s unlimited 2>/dev/null || ulimit -s \"$(ulimit -H -s)\"; exec \"$0\"";

/// Runs a binary under the common 8 MiB default stack limit.
const DEFAULT_STACK: &str = "ulimit -s 8192; exec \"$0\"";

/// Rounds a run makes at least.
const MIN_ROUNDS: usize = 3;

/// The two executors, in operation-index order.
const EXECUTORS: [&str; 2] = ["vm", "native"];

struct Program {
    name: &'static str,
    compiled: Compiled,
    exe: PathBuf,
    expected: String,
}

fn cc(dir: &Path) -> Command {
    let mut c = Command::new("cc");
    // cc's temporary files stay inside the build directory.
    c.env("TMPDIR", dir.join("tmp"))
        .args(["-O2", "-std=c99", "-w"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    c
}

fn wait_ok(child: Child, what: &str) -> Result<(), String> {
    let out = child
        .wait_with_output()
        .map_err(|e| format!("{what}: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "{what}: cc failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ))
    }
}

/// Compiles, emits and builds every program; returns them with the
/// seconds spent in `cc`.
fn build(dir: &Path, tr: &mut Tracer) -> Result<(Vec<Program>, f64), String> {
    std::fs::create_dir_all(dir.join("tmp")).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: &str| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
    };
    write("mrt.h", MRT_H)?;
    write("mrt.c", MRT_C)?;
    let mut programs = Vec::new();
    for bench in all() {
        let u = tr.unit(bench.name);
        let sources = bench.sources(Preset::Paper);
        let ast = parse_program(sources.iter().map(String::as_str))
            .map_err(|e| format!("{}: {}", bench.name, e.render(&sources[0])))?;
        let compiled = tr
            .time("vm.compile", u, NO_FUNC, || {
                compile(&ast, GctdOptions::default())
            })
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let code = tr.time("codegen.emit", u, NO_FUNC, || emit_program(&compiled));
        write(&format!("{}.c", bench.name), &code)?;
        programs.push(Program {
            name: bench.name,
            compiled,
            exe: dir.join(format!("{}.exe", bench.name)),
            expected: corpus::expected_output(bench.name)?,
        });
    }

    let t = Instant::now();
    let u = tr.unit("cc");
    let span = tr.begin("codegen.cc", u, NO_FUNC);
    let mrt = cc(dir)
        .arg("-c")
        .arg("-o")
        .arg(dir.join("mrt.o"))
        .arg(dir.join("mrt.c"))
        .spawn()
        .map_err(|e| format!("cannot run cc: {e}"))?;
    wait_ok(mrt, "mrt.c")?;
    for p in &programs {
        let link = cc(dir)
            .arg("-o")
            .arg(&p.exe)
            .arg(dir.join(format!("{}.c", p.name)))
            .arg(dir.join("mrt.o"))
            .arg("-lm")
            .spawn()
            .map_err(|e| format!("cannot run cc: {e}"))?;
        wait_ok(link, p.name)?;
    }
    tr.end(span);
    Ok((programs, t.elapsed().as_secs_f64()))
}

/// One program run's measurements, kept even when a check fails.
struct RunOut {
    ms: f64,
    eq2: Option<(f64, f64)>,
    violations: u64,
    check: Result<(), String>,
}

fn run_vm(p: &Program) -> RunOut {
    let t = Instant::now();
    let mut vm = PlannedVm::new(&p.compiled);
    let out = vm.run();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let check = match out {
        Err(e) => Err(format!("{} (vm): {e}", p.name)),
        Ok(out) if out != p.expected => Err(format!(
            "{} (vm): output differs from the interpreter's",
            p.name
        )),
        Ok(_) => Ok(()),
    };
    RunOut {
        ms,
        eq2: Some((vm.mem.avg_stack() / 1024.0, vm.mem.avg_heap() / 1024.0)),
        violations: vm.plan_violations,
        check,
    }
}

fn run_native(p: &Program, script: &str) -> RunOut {
    let t = Instant::now();
    let out = Command::new("sh")
        .args(["-c", script])
        .arg(&p.exe)
        .stdin(Stdio::null())
        .output();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let check = match out {
        Err(e) => Err(format!("{} (native): {e}", p.name)),
        Ok(o) if !o.status.success() => {
            Err(format!("{} (native): exited with {}", p.name, o.status))
        }
        Ok(o) if !outputs_agree(&String::from_utf8_lossy(&o.stdout), &p.expected) => Err(format!(
            "{} (native): output differs from the interpreter's",
            p.name
        )),
        Ok(_) => Ok(()),
    };
    RunOut {
        ms,
        eq2: None,
        violations: 0,
        check,
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when a program cannot be built, an expected output is
/// missing, or nothing could be measured.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let dir = corpus::out_dir().join("run-paper");
    let mut tr = Tracer::new(Instant::now());
    let mut setups = Vec::new();
    let mut cc_secs = Vec::new();
    let mut programs = Vec::new();
    let mut factors = Vec::new();
    for _ in 0..SETUPS {
        let mut ruler = Ruler::new(1);
        ruler.sample(2);
        let t = Instant::now();
        let (p, cc_s) = build(&dir, &mut tr)?;
        let secs = t.elapsed().as_secs_f64();
        ruler.sample(2);
        let f = ruler.factor();
        factors.push(f);
        setups.push(secs / f);
        cc_secs.push(cc_s / f);
        programs = p;
    }

    let inputs = programs.len() * EXECUTORS.len();
    let mut tally = Tally::default();
    let mut slices: Vec<Slice> = Vec::new();
    let mut eq2: Vec<Option<(f64, f64)>> = vec![None; programs.len()];
    let mut violations = 0u64;
    let units: Vec<u32> = programs.iter().map(|p| tr.unit(p.name)).collect();
    let mut rng = args.seed;
    let mut rounds = 1usize;
    let start = Instant::now();
    while slices.len() < rounds {
        let round_start = Instant::now();
        let mut slice = Slice::default();
        // Runs last up to two seconds, long enough for the host's speed
        // to change within a round, so each run is scaled by the
        // yardstick timed just before and just after it.
        let mut before = time_once();
        for op in seeded_order(inputs, &mut rng) {
            let (pi, exec) = (op / EXECUTORS.len(), op % EXECUTORS.len());
            let p = &programs[pi];
            let name = if exec == 0 {
                "vm.run"
            } else {
                "codegen.native"
            };
            let out = tr.time(name, units[pi], NO_FUNC, || {
                if exec == 0 {
                    run_vm(p)
                } else {
                    run_native(p, RAISED_STACK)
                }
            });
            violations += out.violations;
            let mut check = out.check;
            if let Some(now) = out.eq2 {
                match eq2[pi] {
                    Some(first) if first != now && check.is_ok() => {
                        check = Err(format!(
                            "{}: Equation 2 averages differ between rounds",
                            p.name
                        ));
                    }
                    Some(_) => {}
                    None => eq2[pi] = Some(now),
                }
            }
            let after = time_once();
            let factor = (before + after) / 2.0 / NOMINAL_SECS;
            before = after;
            factors.push(factor);
            slice.ops += 1;
            slice.latencies.push((op as u32, (out.ms / factor) as f32));
            tally.record(check);
        }
        // The round's time is its runs', without the yardstick's.
        slice.secs = slice.latencies.iter().map(|l| f64::from(l.1)).sum::<f64>() / 1e3;
        if slices.is_empty() {
            // Whole rounds only, as many as fit the window, and at
            // least three so that each program has a median run.
            let wall = round_start.elapsed().as_secs_f64();
            rounds = ((args.seconds / wall).round() as usize).max(MIN_ROUNDS);
        }
        slices.push(slice);
    }
    let rss = host::peak_rss_mb()?;
    let mut result = RunResult {
        tally,
        ..RunResult::default()
    };
    result.notes.push(format!(
        "{} round(s) of {} program runs in {:.1} s",
        slices.len(),
        inputs,
        start.elapsed().as_secs_f64()
    ));
    result.notes.push(host_note(&factors));
    if !args.trace {
        result.metrics = end_to_end(&setups, &slices, inputs, rss)?;
        // The programs' run times span three orders of magnitude, so a
        // percentile over single runs would jump between programs. The
        // latency a user of the suite waits for is that of a round.
        let round_ms: Vec<Vec<f64>> = slices
            .iter()
            .map(|s| vec![s.latencies.iter().map(|l| f64::from(l.1)).sum()])
            .collect();
        result.metrics.extend(latency_percentiles(&round_ms));
        return Ok(result);
    }

    zero_all_layers(&mut result);
    let mut runs: Vec<Vec<f64>> = vec![Vec::new(); inputs];
    for &(op, ms) in slices.iter().flat_map(|s| &s.latencies) {
        runs[op as usize].push(f64::from(ms));
    }
    let median_ms = |op: usize| {
        if runs[op].is_empty() {
            0.0
        } else {
            stats::median(&runs[op])
        }
    };
    let (mut vm_s, mut native_s, mut dyn_kb) = (Vec::new(), Vec::new(), Vec::new());
    let mut crashes = 0u64;
    let mut slots = 0u64;
    for (pi, p) in programs.iter().enumerate() {
        let (vm, native) = (median_ms(pi * 2), median_ms(pi * 2 + 1));
        result.set(format!("vm.run_ms.{}", p.name), vm);
        result.set(format!("codegen.native_ms.{}", p.name), native);
        vm_s.push(vm / 1e3);
        native_s.push(native / 1e3);
        let (stack, heap) = eq2[pi].unwrap_or((0.0, 0.0));
        result.set(format!("runtime.eq2_stack_kb.{}", p.name), stack);
        result.set(format!("runtime.eq2_heap_kb.{}", p.name), heap);
        dyn_kb.push(stack + heap);
        slots += p.compiled.plans.total_stats().slots as u64;
        let u = units[pi];
        if tr
            .time("codegen.native_default_stack", u, NO_FUNC, || {
                run_native(p, DEFAULT_STACK)
            })
            .check
            .is_err()
        {
            crashes += 1;
        }
    }
    result.set("vm.run_s", stats::geomean(&vm_s).unwrap_or(0.0));
    result.set(
        "codegen.native_run_s",
        stats::geomean(&native_s).unwrap_or(0.0),
    );
    result.set("runtime.eq2_dyn_kb", stats::geomean(&dyn_kb).unwrap_or(0.0));
    result.set("vm.plan_violations", violations as f64);
    result.set("gctd.slots", slots as f64);
    result.set("codegen.cc_s", stats::median(&cc_secs));
    result.set("codegen.default_stack_crashes", crashes as f64);
    tr.write_jsonl(&corpus::out_dir().join("trace-run-paper.jsonl"), usize::MAX)
        .map_err(|e| format!("cannot write the span file: {e}"))?;
    Ok(result)
}
