//! Runtime-error parity: programs that fail must fail under the
//! reference interpreter AND the planned VM (optimizations may not
//! erase an *observable* error — design note 12 permits eliding only
//! dead failing computations).

use matc::frontend::parse_program;
use matc::gctd::GctdOptions;
use matc::vm::compile::compile;
use matc::vm::{Interp, MccVm, PlannedVm};

/// Runs under all three executors and asserts every one errors.
fn assert_all_error(body: &str) {
    let src = format!("function f()\n{body}\n");
    let ast = parse_program([src.as_str()]).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let mut interp = Interp::new(&ast);
    let i = interp.run();
    assert!(i.is_err(), "interp succeeded on:\n{src}\n{:?}", i.unwrap());
    let compiled = compile(&ast, GctdOptions::default()).unwrap();
    let mut vm = PlannedVm::new(&compiled);
    let p = vm.run();
    assert!(p.is_err(), "planned VM succeeded on:\n{src}");
    let mut mcc = MccVm::new(&compiled.ir);
    let m = mcc.run();
    assert!(m.is_err(), "mcc VM succeeded on:\n{src}");
}

#[test]
fn out_of_bounds_read_errors() {
    assert_all_error("a = [1 2 3];\ndisp(a(7));");
    assert_all_error("a = zeros(2, 2);\ndisp(a(3, 1));");
    assert_all_error("a = [1 2 3];\ndisp(a(0));");
}

#[test]
fn shape_mismatch_errors() {
    assert_all_error("a = zeros(2, 3);\nb = zeros(3, 2);\ndisp(a + b);");
    assert_all_error("a = zeros(2, 3);\nb = zeros(2, 3);\ndisp(a * b);");
    assert_all_error("disp([1 2; 3 4 5]);");
    assert_all_error("disp([zeros(2, 2) zeros(3, 3)]);");
}

#[test]
fn explicit_error_builtin() {
    assert_all_error("error('boom');");
    assert_all_error("x = 1;\nif x > 0\n  error('conditional');\nend\ndisp(x);");
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
    // MATLAB's RecursionLimit (100) in every executor. Debug-build
    // native frames are large, so give the checker a roomy stack.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let body = "disp(down(200));\n\nfunction r = down(k)\nif k <= 0\n  r = 0;\nelse\n  r = down(k - 1);\nend";
            assert_all_error(body);
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn transpose_of_nd_errors() {
    assert_all_error("a = zeros(2, 2, 2);\ndisp(a');");
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
        MccVm::new(&compiled.ir).run().unwrap_err(),
    ];
    for e in errors {
        assert_eq!(e.message, want);
    }

    // Native C, when the host has a C compiler.
    let Some(cc) = ["cc", "gcc", "clang"].into_iter().find(|cc| {
        std::process::Command::new(cc)
            .arg("--version")
            .output()
            .is_ok_and(|o| o.status.success())
    }) else {
        eprintln!("no C compiler found; skipping the native run");
        return;
    };
    let dir = std::env::temp_dir().join(format!("matc-error-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("mrt.h"), matc::codegen::MRT_H).unwrap();
    std::fs::write(dir.join("mrt.c"), matc::codegen::MRT_C).unwrap();
    std::fs::write(dir.join("p.c"), matc::codegen::emit_program(&compiled)).unwrap();
    let exe = dir.join("p.exe");
    let build = std::process::Command::new(cc)
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
    let run = std::process::Command::new(&exe).output().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(70), "{stderr}");
    assert!(
        stderr.contains("mrt: subscript must be a positive integer"),
        "{stderr}"
    );
}
