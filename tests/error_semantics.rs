//! Runtime-error parity: programs that fail must fail under the
//! reference interpreter, the planned VM, the mcc VM AND as native C
//! (optimizations may not erase an *observable* error — design note
//! 12 permits eliding only dead failing computations; a typed scalar
//! fast path may not drop one either). The edge values that decide
//! between a real and a complex result (NaN) are held to one output
//! the same way.

use matc::frontend::parse_program;
use matc::gctd::GctdOptions;
use matc::vm::compile::{compile, lower_for_mcc, Compiled};
use matc::vm::{Interp, MccVm, PlannedVm};
use std::fmt::Write as _;
use std::process::{Command, Output};

/// Runs `body` (as the entry function `f`) under the three Rust
/// executors, asserts every one errors, the planned VM with the
/// interpreter's message (its typed steps leave every error to the
/// generic path), and returns the compiled program.
fn assert_vm_errors(body: &str) -> Compiled {
    let src = format!("function f()\n{body}\n");
    let ast = parse_program([src.as_str()]).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let mut interp = Interp::new(&ast);
    let i = interp.run();
    assert!(i.is_err(), "interp succeeded on:\n{src}\n{:?}", i.unwrap());
    let compiled = compile(&ast, GctdOptions::default()).unwrap();
    let mut vm = PlannedVm::new(&compiled);
    let p = vm.run();
    assert!(p.is_err(), "planned VM succeeded on:\n{src}");
    assert_eq!(p.unwrap_err().message, i.unwrap_err().message, "{src}");
    // The mcc model runs the unplanned program (as `matc run --mcc`
    // does): the planned IR leaves out the copies between coalesced
    // variables, so under mcc a loop counter would never advance.
    let unplanned = lower_for_mcc(&ast).unwrap();
    let m = MccVm::new(&unplanned).run();
    assert!(m.is_err(), "mcc VM succeeded on:\n{src}");
    compiled
}

fn find_cc() -> Option<&'static str> {
    ["cc", "gcc", "clang"].into_iter().find(|cc| {
        Command::new(cc)
            .arg("--version")
            .output()
            .is_ok_and(|o| o.status.success())
    })
}

/// Runs every program as native C, all built into one binary with one
/// `cc` call: each program's functions and `main` are renamed by the
/// preprocessor, and the binary's own `main` runs program `argv[1]`.
/// Returns each run's output, or `None` without a C compiler.
fn run_native(programs: &[Compiled]) -> Option<Vec<Output>> {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping the native runs");
        return None;
    };
    let mut code = String::from("#include <stdlib.h>\n");
    for (k, compiled) in programs.iter().enumerate() {
        let names: Vec<&str> = compiled
            .ir
            .functions
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        for n in &names {
            let _ = writeln!(code, "#define f_{n} p{k}_f_{n}");
        }
        let _ = writeln!(code, "#define main p{k}_main");
        code.push_str(&matc::codegen::emit_program(compiled));
        for n in &names {
            let _ = writeln!(code, "#undef f_{n}");
        }
        code.push_str("#undef main\n");
    }
    code.push_str(
        "int main(int argc, char **argv)\n{\n    switch (argc > 1 ? atoi(argv[1]) : -1) {\n",
    );
    for k in 0..programs.len() {
        let _ = writeln!(code, "    case {k}: return p{k}_main();");
    }
    code.push_str("    }\n    return 2;\n}\n");

    let dir = std::env::temp_dir().join(format!(
        "matc-error-native-{}-{}",
        std::process::id(),
        programs.as_ptr() as usize
    ));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("mrt.h"), matc::codegen::MRT_H).unwrap();
    std::fs::write(dir.join("mrt.c"), matc::codegen::MRT_C).unwrap();
    std::fs::write(dir.join("p.c"), &code).unwrap();
    let exe = dir.join("p.exe");
    let build = Command::new(cc)
        .args(["-O1", "-std=c99", "-w", "-o"])
        .arg(&exe)
        .arg(dir.join("p.c"))
        .arg(dir.join("mrt.c"))
        .arg("-lm")
        .output()
        .unwrap();
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let runs = (0..programs.len())
        .map(|k| Command::new(&exe).arg(k.to_string()).output().unwrap())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    Some(runs)
}

/// Asserts every body errors in every executor, native C included.
fn assert_all_error(bodies: &[&str]) {
    let programs: Vec<Compiled> = bodies.iter().map(|b| assert_vm_errors(b)).collect();
    for (run, body) in run_native(&programs).into_iter().flatten().zip(bodies) {
        assert!(
            !run.status.success(),
            "native C succeeded on:\n{body}\nstdout:\n{}",
            String::from_utf8_lossy(&run.stdout)
        );
    }
}

#[test]
fn out_of_bounds_read_errors() {
    assert_all_error(&[
        "a = [1 2 3];\ndisp(a(7));",
        "a = zeros(2, 2);\ndisp(a(3, 1));",
        "a = [1 2 3];\ndisp(a(0));",
    ]);
}

/// Scalar subscripts are where typed native code reads an element
/// directly; its bounds and integer checks must still raise.
#[test]
fn scalar_index_errors() {
    assert_all_error(&[
        "a = [1 2 3];\nj = 0;\ndisp(a(j));",
        "a = [1 2 3];\nk = 0;\nfor i = 1:7\n  k = k + a(i);\nend\ndisp(k);",
        "a = [1 2 3];\nj = 1.5;\ndisp(a(j));",
        "a = [1 2 3];\ndisp(a(1.5));",
        "a = zeros(2, 3);\nk = 0;\nfor i = 1:3\n  k = k + a(i, i);\nend\ndisp(k);",
        "a = [1 2 3];\nfor i = 0:1\n  a(i) = 5;\nend\ndisp(a);",
    ]);
}

#[test]
fn shape_mismatch_errors() {
    assert_all_error(&[
        "a = zeros(2, 3);\nb = zeros(3, 2);\ndisp(a + b);",
        "a = zeros(2, 3);\nb = zeros(2, 3);\ndisp(a * b);",
        "disp([1 2; 3 4 5]);",
        "disp([zeros(2, 2) zeros(3, 3)]);",
    ]);
}

#[test]
fn explicit_error_builtin() {
    assert_all_error(&[
        "error('boom');",
        "x = 1;\nif x > 0\n  error('conditional');\nend\ndisp(x);",
    ]);
}

#[test]
fn undefined_function_rejected_at_compile_time() {
    // The compiler catches unknown callees during lowering; the AST
    // interpreter surfaces the same failure at evaluation.
    let src = "function f()\ndisp(no_such_function(3));\n";
    let ast = parse_program([src]).unwrap();
    let err = compile(&ast, GctdOptions::default()).unwrap_err();
    assert!(
        format!("{err}").contains("no_such_function"),
        "unhelpful: {err}"
    );
    let mut interp = Interp::new(&ast);
    assert!(interp.run().is_err());
}

#[test]
fn recursion_limit_errors() {
    // MATLAB's RecursionLimit (100) in every executor: emitted C counts
    // every frame in `mrt_enter`. Debug-build Rust frames are large, so
    // give the checker a roomy stack.
    let compiled = on_big_stack(|| {
        let body = "disp(down(200));\n\nfunction r = down(k)\nif k <= 0\n  r = 0;\nelse\n  r = down(k - 1);\nend";
        assert_vm_errors(body)
    });
    let Some(runs) = run_native(&[compiled]) else {
        return;
    };
    assert_recursion_limit(&runs[0]);
}

/// Runs `f` on a thread with a 64 MiB stack (debug-build interpreter
/// frames are large).
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// Asserts a native run stopped at the recursion limit.
fn assert_recursion_limit(run: &Output) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(70), "{stderr}");
    assert!(
        stderr.contains("mrt: maximum recursion depth exceeded"),
        "{stderr}"
    );
}

/// Runs `src` in the three Rust executors; returns the common output,
/// or `None` when all three fail with the recursion limit.
fn run_vms_to_the_limit(src: &str) -> (Option<String>, Compiled) {
    let ast = parse_program([src]).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let compiled = compile(&ast, GctdOptions::default()).unwrap();
    let runs = [
        Interp::new(&ast).run(),
        PlannedVm::new(&compiled).run(),
        MccVm::new(&lower_for_mcc(&ast).unwrap()).run(),
    ];
    let out = match &runs[0] {
        Ok(out) => Some(out.clone()),
        Err(e) => {
            assert_eq!(e.message, "maximum recursion depth exceeded", "{src}");
            None
        }
    };
    for r in &runs[1..] {
        assert_eq!(r.as_ref().ok(), out.as_ref(), "{src}");
        if let Err(e) = r {
            assert_eq!(e.message, "maximum recursion depth exceeded", "{src}");
        }
    }
    (out, compiled)
}

/// Every frame counts, the entry function's included, in all four
/// executors: `down(98)` runs in 100 frames and `down(99)` needs 101,
/// and a chain of 100 distinct non-recursive functions runs while one
/// of 101 fails.
#[test]
fn recursion_limit_counts_every_frame_in_every_executor() {
    let down = |k: u32| {
        format!("function f()\ndisp(down({k}));\nend\nfunction r = down(k)\nif k <= 0\n  r = 0;\nelse\n  r = down(k - 1);\nend\nend\n")
    };
    // `f` calls `g1`, and each `g<i>` calls `g<i + 1>`: `n` functions.
    let chain = |n: u32| {
        let mut src = String::from("function f()\ndisp(g1(0));\nend\n");
        for i in 1..n - 1 {
            let _ = write!(src, "function y = g{i}(x)\ny = g{}(x + 1);\nend\n", i + 1);
        }
        let _ = write!(src, "function y = g{}(x)\ny = x + 1;\nend\n", n - 1);
        src
    };
    let cases = [
        (down(98), true),
        (down(99), false),
        (chain(100), true),
        (chain(101), false),
    ];
    let (outs, programs): (Vec<Option<String>>, Vec<Compiled>) = on_big_stack(move || {
        cases
            .iter()
            .map(|(src, runs)| {
                let (out, compiled) = run_vms_to_the_limit(src);
                assert_eq!(out.is_some(), *runs, "{src}");
                (out, compiled)
            })
            .unzip()
    });
    assert_eq!(outs[0].as_deref(), Some("    0\n"));
    assert_eq!(outs[2].as_deref(), Some("    99\n"));
    let Some(runs) = run_native(&programs) else {
        return;
    };
    for (run, out) in runs.iter().zip(&outs) {
        match out {
            Some(out) => {
                assert!(
                    run.status.success(),
                    "{}",
                    String::from_utf8_lossy(&run.stderr)
                );
                assert_eq!(&String::from_utf8_lossy(&run.stdout), out);
            }
            None => assert_recursion_limit(run),
        }
    }
}

/// A real NaN is not negative: `sqrt` and `log` keep it a real NaN,
/// and every executor, native C included, prints the same.
#[test]
fn sqrt_and_log_keep_nan_real() {
    let bodies = [
        "x = 0/0;\ndisp(sqrt([x 4]));",
        "x = 0/0;\ndisp(log([x 2]));",
        "x = 0/0;\ndisp(sqrt(x));\ndisp(log(x));",
    ];
    let mut programs = Vec::new();
    let mut outputs = Vec::new();
    for body in bodies {
        let src = format!("function f()\n{body}\n");
        let ast = parse_program([src.as_str()]).unwrap();
        let want = Interp::new(&ast).run().unwrap();
        assert!(want.contains("NaN") && !want.contains('i'), "{want}");
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        assert_eq!(PlannedVm::new(&compiled).run().unwrap(), want, "{src}");
        let mcc = MccVm::new(&lower_for_mcc(&ast).unwrap()).run().unwrap();
        assert_eq!(mcc, want, "{src}");
        programs.push(compiled);
        outputs.push(want);
    }
    for (run, want) in run_native(&programs).into_iter().flatten().zip(&outputs) {
        assert!(run.status.success());
        assert_eq!(&String::from_utf8_lossy(&run.stdout), want);
    }
}

#[test]
fn transpose_of_nd_errors() {
    assert_all_error(&["a = zeros(2, 2, 2);\ndisp(a');"]);
}

#[test]
fn error_after_output_preserves_prefix() {
    // The interpreter surfaces output produced before the failure;
    // executors agree on the prefix they emitted.
    let src = "function f()\nfprintf('before\\n');\na = [1 2];\ndisp(a(9));\n";
    let ast = parse_program([src]).unwrap();
    let mut interp = Interp::new(&ast);
    let err = interp.run().unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("index") || msg.contains("bounds") || msg.contains("exceeds"),
        "unhelpful message: {msg}"
    );
}

/// Subscript errors come in one order in every executor, native C
/// included: every subscript must be a positive integer before any is
/// checked against its extent, so `a(5, 0.5)` on a 2x2 array reports
/// the fractional subscript, not the out-of-range one (DESIGN.md §17).
#[test]
fn subscript_errors_check_every_subscript_before_extents() {
    let src = "function f()\na = zeros(2, 2);\ndisp(a(5, 0.5));\n";
    let want = "subscript must be a positive integer, got 0.5";
    let ast = parse_program([src]).unwrap();
    let compiled = compile(&ast, GctdOptions::default()).unwrap();
    let errors = [
        Interp::new(&ast).run().unwrap_err(),
        PlannedVm::new(&compiled).run().unwrap_err(),
        MccVm::new(&lower_for_mcc(&ast).unwrap()).run().unwrap_err(),
    ];
    for e in errors {
        assert_eq!(e.message, want);
    }

    // Native C, when the host has a C compiler.
    let Some(runs) = run_native(&[compiled]) else {
        return;
    };
    let run = &runs[0];
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(70), "{stderr}");
    assert!(
        stderr.contains("mrt: subscript must be a positive integer"),
        "{stderr}"
    );
}
