//! End-to-end validation of the C backend: every benchmark's generated
//! C is **compiled with the host C compiler, linked against the `mrt`
//! support runtime, executed, and its stdout compared with the reference
//! interpreter's output**. The RNG streams are aligned, so outputs match
//! exactly up to libm rounding in the last printed digit (compared with
//! a tight numeric tolerance). The runtime's result convention is also
//! checked directly (`mrt_contract.c`), growth shapes against the
//! interpreter, and the benchmarks once more under ASan + UBSan.
//!
//! Skipped silently when no C compiler exists on the host (the
//! sanitizer pass also when `cc` cannot build sanitized programs).

use matc_benchsuite::{all, Preset};
use matc_codegen::{emit_program, MRT_C, MRT_H};
use matc_frontend::parser::parse_program;
use matc_gctd::GctdOptions;
use matc_vm::compile::compile;
use matc_vm::Interp;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn find_cc() -> Option<&'static str> {
    ["cc", "gcc", "clang"]
        .into_iter()
        .find(|&cc| {
            Command::new(cc)
                .arg("--version")
                .output()
                .map(|o| o.status.success())
                .unwrap_or(false)
        })
        .map(|v| v as _)
}

/// A fresh directory under the system temp dir holding the runtime
/// sources.
fn runtime_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("mrt.h"), MRT_H).unwrap();
    std::fs::write(dir.join("mrt.c"), MRT_C).unwrap();
    dir
}

/// Writes `code` to `dir/<name>.c`, builds it against the runtime with
/// `-O1 -std=c99 -w` plus `flags`, and returns the executable.
fn build_c(cc: &str, dir: &Path, name: &str, code: &str, flags: &[&str]) -> PathBuf {
    let c_path = dir.join(format!("{name}.c"));
    let exe = dir.join(format!("{name}.exe"));
    std::fs::write(&c_path, code).unwrap();
    let build = Command::new(cc)
        .args(["-O1", "-std=c99", "-w"])
        .args(flags)
        .arg("-o")
        .arg(&exe)
        .arg(&c_path)
        .arg(dir.join("mrt.c"))
        .arg("-lm")
        .output()
        .unwrap();
    assert!(
        build.status.success(),
        "{name}: C compilation failed:\n{}",
        String::from_utf8_lossy(&build.stderr)
    );
    exe
}

/// Runs an executable, asserting a clean exit.
fn run_ok(exe: &Path) -> Output {
    let run = Command::new(exe).output().unwrap();
    assert!(
        run.status.success(),
        "{}: binary failed (status {:?}):\n{}",
        exe.display(),
        run.status.code(),
        String::from_utf8_lossy(&run.stderr)
    );
    run
}

/// Token-level comparison: exact match, or numeric tokens within a
/// relative tolerance (libm vs Rust std can differ in the final ulp,
/// which a fixed-precision print can surface).
fn outputs_agree(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let ta: Vec<&str> = a.split_whitespace().collect();
    let tb: Vec<&str> = b.split_whitespace().collect();
    if ta.len() != tb.len() {
        return false;
    }
    for (x, y) in ta.iter().zip(&tb) {
        if x == y {
            continue;
        }
        match (x.parse::<f64>(), y.parse::<f64>()) {
            (Ok(u), Ok(v)) => {
                let scale = u.abs().max(v.abs()).max(1.0);
                if (u - v).abs() / scale > 1e-9 {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

/// The interpreter's output and the planned C for one program.
fn interp_and_c(sources: &[&str]) -> (String, String) {
    let ast = parse_program(sources.iter().copied()).unwrap();
    let want = Interp::new(&ast).run().unwrap();
    let compiled = compile(&ast, GctdOptions::default()).unwrap();
    (want, emit_program(&compiled))
}

#[test]
fn generated_c_compiles_and_matches_interpreter() {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let dir = runtime_dir("matc-c-run");
    for bench in all() {
        let sources = bench.sources(Preset::Test);
        let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        let (want, code) = interp_and_c(&refs);
        let exe = build_c(cc, &dir, bench.name, &code, &[]);
        let run = run_ok(&exe);
        let got = String::from_utf8_lossy(&run.stdout);
        assert!(
            outputs_agree(&got, &want),
            "{}: C output diverged\n--- C:\n{}\n--- interpreter:\n{}",
            bench.name,
            got,
            want
        );
    }
}

/// Whether `cc` can build and run a program under AddressSanitizer and
/// UndefinedBehaviorSanitizer. The runtime libraries are optional, and
/// on some kernels a sanitized binary faults or spins at start-up, so
/// the probe gets ten seconds to exit cleanly.
fn sanitizers_work(cc: &str, dir: &Path) -> bool {
    let src = dir.join("probe.c");
    let exe = dir.join("probe.exe");
    std::fs::write(&src, "int main(void) { return 0; }\n").unwrap();
    let built = Command::new(cc)
        .args(["-fsanitize=address,undefined", "-o"])
        .arg(&exe)
        .arg(&src)
        .output()
        .is_ok_and(|o| o.status.success());
    if !built {
        return false;
    }
    let Ok(mut probe) = Command::new(&exe)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
    else {
        return false;
    };
    for _ in 0..100 {
        if let Ok(Some(status)) = probe.try_wait() {
            return status.success();
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = probe.kill();
    let _ = probe.wait();
    false
}

const SANITIZE: &[&str] = &[
    "-g",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
];

/// The runtime writes results straight into fixed frame buffers, so the
/// benchmarks run under ASan + UBSan: any out-of-bounds write, leak or
/// undefined operation aborts the binary. Skipped silently when the
/// host cannot build sanitized programs.
#[test]
fn generated_c_is_clean_under_sanitizers() {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let dir = runtime_dir("matc-c-run-sanitize");
    if !sanitizers_work(cc, &dir) {
        eprintln!("{cc} cannot build sanitized programs; skipping");
        return;
    }
    for bench in all() {
        let sources = bench.sources(Preset::Test);
        let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        let (want, code) = interp_and_c(&refs);
        let exe = build_c(cc, &dir, bench.name, &code, SANITIZE);
        let run = run_ok(&exe);
        let got = String::from_utf8_lossy(&run.stdout);
        assert!(
            outputs_agree(&got, &want),
            "{}: sanitized C output diverged\n--- C:\n{}\n--- interpreter:\n{}",
            bench.name,
            got,
            want
        );
    }
}

/// The runtime's result convention, driven through its public interface
/// by `mrt_contract.c`: results written into a distinct dst (heap or
/// fixed) equal results computed in place over operand 0 (same handle
/// or same buffer); a dst that held a complex or char value gets a
/// clean real result; the real fast paths compute the complex kernels'
/// real parts bit for bit; `mrt_concat` row lengths shape a literal;
/// aliased results (`r = r*r`, `x = x(idx)`) through the reused
/// scratch equal distinct-dst results; mrt.h's scalar kernels and
/// element accessors equal the ops they stand for; index plans
/// (DESIGN.md §17) gather and scatter the hand-computed elements for
/// colons, ranges of every step, repeated, permuted and empty
/// subscripts, 3-D and partial indexing, growth and an overlapping
/// shift. The error paths must exit 70 with their messages, subscript
/// errors in the Rust runtime's order. Built under the sanitizers when
/// the host supports them, so the run copies are checked by ASan and
/// UBSan.
#[test]
fn runtime_contract_holds() {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let dir = runtime_dir("matc-c-run-contract");
    let flags = if sanitizers_work(cc, &dir) {
        SANITIZE
    } else {
        &[]
    };
    let exe = build_c(cc, &dir, "contract", include_str!("mrt_contract.c"), flags);
    let run = Command::new(&exe).output().unwrap();
    let out = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success() && out.contains(", 0 failure(s)"),
        "runtime contract broken:\n{out}{}",
        String::from_utf8_lossy(&run.stderr)
    );

    for (mode, message) in [
        ("plan", "storage plan violation"),
        ("unknown", "mrt: unimplemented operation #"),
        ("order", "mrt: subscript must be a positive integer"),
        ("asgnorder", "mrt: subscript must be a positive integer"),
        ("extent", "mrt: index exceeds array extent"),
    ] {
        let run = Command::new(&exe).arg(mode).output().unwrap();
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(70), "{mode}: wrong exit\n{err}");
        assert!(
            err.contains(message),
            "{mode}: stderr lacks `{message}`:\n{err}"
        );
    }
}

/// `subsasgn` growth (§2.3.3.1) against the interpreter: appends to a
/// row and a column, column growth of a matrix (nothing moves), row
/// growth (elements move, also with an imaginary part) and 3-D growth.
#[test]
fn generated_c_grows_arrays_like_the_interpreter() {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let dir = runtime_dir("matc-c-run-grow");
    let programs: &[(&str, &str)] = &[
        (
            "row_append",
            "x = [];\nfor i = 1:6\n  x(i) = i * 2;\nend\ndisp(x);\nx(9) = 1;\ndisp(x);\n",
        ),
        (
            "column_append",
            "y = zeros(3, 1);\nfor i = 4:6\n  y(i) = i;\nend\ndisp(y);\n",
        ),
        (
            "matrix_columns",
            "m = [1 2; 3 4];\nm(:, 3) = [5; 6];\ndisp(m);\nm(2, 5) = 9;\ndisp(m);\n",
        ),
        (
            "matrix_rows",
            "m = [1 2; 3 4];\nm(3, :) = [5 6];\ndisp(m);\nm(4, 3) = 7;\ndisp(m);\nz = [1+2i 3];\nz(2, 3) = 4;\ndisp(z);\n",
        ),
        (
            "three_d",
            "a = zeros(2, 2);\na(:, :, 2) = [1 2; 3 4];\ndisp(a);\na(3, 1, 2) = 5;\ndisp(a);\na(2, 3, 3) = 6;\ndisp(a);\ndisp(size(a));\nfprintf('%d\\n', numel(a));\n",
        ),
    ];
    for (name, src) in programs {
        let (want, code) = interp_and_c(&[src]);
        let exe = build_c(cc, &dir, name, &code, &[]);
        let got = String::from_utf8_lossy(&run_ok(&exe).stdout).into_owned();
        assert_eq!(got, want, "{name}: C growth diverged");
    }
}

/// Display/formatting paths the numeric benchmarks never exercise:
/// matrix-literal concatenation (including block concat), `disp` of
/// matrices and strings, variable echo, complex rendering, and
/// MATLAB-style `NaN`/`Inf`/`-Inf` in every fprintf conversion. These
/// must match the interpreter **byte for byte** (no libm involved).
#[test]
fn generated_c_matches_display_and_concat_paths() {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let dir = runtime_dir("matc-c-run-disp");
    let programs: &[(&str, &str)] = &[
        (
            "concat",
            "a = [1 2; 3 4];\nb = [a [5; 6]];\ndisp(b);\nc = [a; 7 8];\ndisp(c);\nd = [[] 1 2];\ndisp(d);\n",
        ),
        (
            "echo",
            "y = [1.5 2; 3 4.25]\nz = 7\ndisp(5.5);\ndisp('hello');\ndisp([]);\n",
        ),
        (
            "nonfinite",
            "x = 1/0;\ndisp(x);\ndisp(-1/0);\ndisp(0/0);\nfprintf('%f %d %e %g\\n', 0/0, 1/0, -1/0, 0/0);\ndisp([1/0 2; 0/0 4]);\n",
        ),
        (
            "complex_disp",
            "disp([1+2i 3-4i]);\ndisp(sqrt(-4));\nw = 1 - 1i\n",
        ),
        (
            "nan_minmax",
            "a = [2 0/0];\nb = [0/0 5];\nfprintf('%g %g | %g %g\\n', max(a, b), min(a, b));\nfprintf('%g %g\\n', max(2, 0/0), min(0/0, 7));\n",
        ),
    ];
    for (name, src) in programs {
        let (want, code) = interp_and_c(&[src]);
        let exe = build_c(cc, &dir, name, &code, &[]);
        let got = String::from_utf8_lossy(&run_ok(&exe).stdout).into_owned();
        assert_eq!(got, want, "{name}: C display output diverged");
    }
}

/// Values a typed slot must not hold, against the interpreter byte for
/// byte: a variable that is 1x1 on one path and 1x3 on the other, a
/// square root that goes complex, `[]` in a slot sized for a scalar,
/// and a loop counter read after its loop (the φ of its `[]` start and
/// the counter). Inferred shapes join to `1 x 1` in some of these, so
/// the C must stay on the runtime's generic path for them.
#[test]
fn generated_c_keeps_values_that_are_not_real_scalars_generic() {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let dir = runtime_dir("matc-c-run-untyped");
    let programs: &[(&str, &str, &[&str])] = &[
        (
            "scalar_or_row",
            "for t = 1:2\n  if t == 1\n    x = 5;\n  else\n    x = [1 2 3];\n  end\n  y = x + 1;\n  disp(y);\n  disp(x(1) * 2);\nend\n",
            &["/*y.", "/*x.3*/"],
        ),
        (
            "goes_complex",
            "r = sqrt(-1);\ndisp(r);\ns = r * 2;\ndisp(s);\ndisp(abs(s) + 1);\n",
            &["/*r.", "/*s."],
        ),
        (
            "empty_in_scalar_slot",
            "for t = 1:2\n  z = [];\n  if t == 2\n    z = 3;\n  end\n  disp(isempty(z));\n  disp(z);\n  disp(numel(z));\nend\n",
            &["/*z.5*/"],
        ),
        (
            "counter_after_loop",
            "for i = 1:3\nend\ndisp(i);\nk = i + 1;\ndisp(k);\n",
            &["/*i.2*/", "/*k."],
        ),
    ];
    for (name, src, untyped) in programs {
        let (want, code) = interp_and_c(&[&format!("function f()\n{src}")]);
        for var in *untyped {
            assert!(code.contains(var), "{name}: no {var}\n{code}");
            assert!(
                !code.lines().any(
                    |l| l.contains(var) && (l.contains("mrt_put(") || l.contains("mrt_copy1("))
                ),
                "{name}: {var} was typed as a real scalar\n{code}"
            );
        }
        let exe = build_c(cc, &dir, name, &code, &[]);
        let got = String::from_utf8_lossy(&run_ok(&exe).stdout).into_owned();
        assert_eq!(got, want, "{name}: C output diverged");
    }
}

/// The `--no-gctd` baseline emits all-heap C (every variable its own
/// slot); it must still reproduce the interpreter bit for bit on
/// representative benchmarks (Figure 6's baseline is *correct*, just
/// wasteful).
#[test]
fn generated_c_without_gctd_matches_interpreter() {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let dir = runtime_dir("matc-c-run-nogctd");
    let opts = GctdOptions {
        coalesce: false,
        ..GctdOptions::default()
    };
    for name in ["fiff", "crni", "edit"] {
        let bench = matc_benchsuite::by_name(name).unwrap();
        let sources = bench.sources(Preset::Test);
        let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        let ast = parse_program(refs).unwrap();
        let mut interp = Interp::new(&ast);
        let want = interp.run().unwrap();

        let compiled = compile(&ast, opts).unwrap();
        let exe = build_c(cc, &dir, name, &emit_program(&compiled), &[]);
        let got = String::from_utf8_lossy(&run_ok(&exe).stdout).into_owned();
        assert!(
            outputs_agree(&got, &want),
            "{name}: no-GCTD C diverged\n--- C:\n{got}\n--- interpreter:\n{want}"
        );
    }
}

/// Matrix literals pass their operands to `mrt_concat` as an array, so
/// width is no limit; the wrapped-immediate pool must hold every
/// element of the widest row simultaneously.
#[test]
fn generated_c_handles_wide_matrix_literals() {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let dir = runtime_dir("matc-c-run-wide");

    let mut src = String::from("w = [");
    for i in 0..150 {
        src.push_str(&format!("{} ", i % 7 + 1));
    }
    src.push_str("];\ndisp(sum(w));\nm = [");
    for r in 0..4 {
        for c in 0..30 {
            src.push_str(&format!("{} ", (r * 13 + c) % 9 + 1));
        }
        src.push(';');
    }
    src.push_str("];\ndisp(sum(sum(m)));\ndisp(m(2, 17));\n");

    let (want, code) = interp_and_c(&[src.as_str()]);
    assert!(
        code.contains("mrt_concat("),
        "wide literal not emitted via mrt_concat"
    );
    let exe = build_c(cc, &dir, "wide", &code, &[]);
    assert_eq!(String::from_utf8_lossy(&run_ok(&exe).stdout), want);
}

/// The probe-instrumented C (DESIGN.md §11) must be a pure observer:
/// same stdout as the uninstrumented binary on a representative
/// benchmark, with the `mrt_probe_report()` table on stderr carrying
/// the per-slot counters.
#[test]
fn generated_c_with_probes_matches_and_reports() {
    use matc_codegen::{emit_program_with, EmitOptions};

    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let dir = runtime_dir("matc-c-run-probes");

    let bench = matc_benchsuite::by_name("edit").unwrap();
    let sources = bench.sources(Preset::Test);
    let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
    let ast = parse_program(refs).unwrap();
    let compiled = compile(&ast, GctdOptions::default()).unwrap();

    let mut outputs = Vec::new();
    for (name, probes) in [("plain", false), ("probed", true)] {
        let code = emit_program_with(&compiled, EmitOptions { probes });
        let run = run_ok(&build_c(cc, &dir, name, &code, &[]));
        outputs.push((
            run.stdout.clone(),
            String::from_utf8_lossy(&run.stderr).into_owned(),
        ));
    }

    let (plain_out, plain_err) = &outputs[0];
    let (probed_out, probed_err) = &outputs[1];
    assert_eq!(plain_out, probed_out, "probes changed program output");
    assert!(
        !plain_err.contains("mrt probes:"),
        "uninstrumented binary printed a probe report:\n{plain_err}"
    );
    assert!(
        probed_err.contains("mrt probes:"),
        "probed binary printed no report:\n{probed_err}"
    );
    // At least one slot row was counted (edit has heap and stack slots).
    assert!(
        probed_err.lines().count() > 1,
        "probe report carries no rows:\n{probed_err}"
    );
}
