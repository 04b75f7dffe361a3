//! # matc-benchsuite
//!
//! The 11-program benchmark corpus of *Static Array Storage Optimization
//! in MATLAB* (PLDI 2003), Table 1, reimplemented in the `matc` MATLAB
//! subset. Each program keeps the original FALCON-style organization
//! (a driver M-file invoking the kernel) and the original numerical
//! method; problem sizes are parameterized by [`Preset`] — `Paper` for
//! evaluation-scale runs (e.g. `fiff` on 451 × 451 grids), `Test` for
//! fast CI-scale runs.
//!
//! The published suites are not redistributable; these are faithful
//! reimplementations from the algorithm descriptions (see DESIGN.md §1).
//!
//! ```
//! use matc_benchsuite::{all, by_name, Preset};
//!
//! assert_eq!(all().len(), 11);
//! let fiff = by_name("fiff").unwrap();
//! let sources = fiff.sources(Preset::Test);
//! assert!(sources[0].contains("fiff_driver"));
//! ```

#![warn(missing_docs)]

/// Problem-size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Small sizes for fast differential tests.
    Test,
    /// Evaluation-scale sizes comparable to the paper's runs.
    Paper,
}

/// One benchmark program.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Short name (the paper's Table 1 identifier).
    pub name: &'static str,
    /// One-line synopsis (Table 1).
    pub synopsis: &'static str,
    /// Source suite (Table 1).
    pub origin: &'static str,
    /// Whether the benchmark manipulates three-dimensional arrays
    /// (Table 1's • marker).
    pub three_dimensional: bool,
    /// `(file name, template text)` pairs; the driver comes first.
    files: &'static [(&'static str, &'static str)],
    /// `@TOKEN@` substitutions for the test preset.
    test_subst: &'static [(&'static str, &'static str)],
    /// `@TOKEN@` substitutions for the paper preset.
    paper_subst: &'static [(&'static str, &'static str)],
}

impl Benchmark {
    /// The M-file sources with sizes substituted, driver first.
    pub fn sources(&self, preset: Preset) -> Vec<String> {
        let subst = match preset {
            Preset::Test => self.test_subst,
            Preset::Paper => self.paper_subst,
        };
        self.files
            .iter()
            .map(|(_, text)| {
                let mut s = (*text).to_string();
                for (token, value) in subst {
                    s = s.replace(token, value);
                }
                debug_assert!(!s.contains('@'), "unsubstituted token in {}", self.name);
                s
            })
            .collect()
    }

    /// The M-file names, driver first.
    pub fn file_names(&self) -> Vec<&'static str> {
        self.files.iter().map(|(n, _)| *n).collect()
    }

    /// The number of M-files (Table 1).
    pub fn m_files(&self) -> usize {
        self.files.len()
    }

    /// Nonempty, noncomment source lines across all M-files (Table 1's
    /// "Lines" column).
    pub fn source_lines(&self) -> usize {
        self.files
            .iter()
            .flat_map(|(_, text)| text.lines())
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with('%')
            })
            .count()
    }
}

macro_rules! files {
    ($dir:literal, $($f:literal),+ $(,)?) => {
        &[$(($f, include_str!(concat!("../matlab/", $dir, "/", $f)))),+]
    };
}

static BENCHMARKS: &[Benchmark] = &[
    Benchmark {
        name: "adpt",
        synopsis: "Adaptive Quadrature by Simpson's Rule",
        origin: "FALCON",
        three_dimensional: false,
        files: files!("adpt", "adpt_driver.m", "adpt.m"),
        test_subst: &[("@TOL@", "1e-4")],
        paper_subst: &[("@TOL@", "1e-12")],
    },
    Benchmark {
        name: "capr",
        synopsis: "Transmission Line Capacitance",
        origin: "Chalmers University of Technology, Sweden",
        three_dimensional: false,
        files: files!(
            "capr",
            "capr_driver.m",
            "capacitor.m",
            "setedge.m",
            "seidel.m",
            "gquad.m"
        ),
        test_subst: &[("@N@", "10")],
        paper_subst: &[("@N@", "40")],
    },
    Benchmark {
        name: "clos",
        synopsis: "Transitive Closure",
        origin: "OTTER",
        three_dimensional: false,
        files: files!("clos", "clos_driver.m", "closure.m"),
        test_subst: &[("@N@", "16")],
        paper_subst: &[("@N@", "180")],
    },
    Benchmark {
        name: "crni",
        synopsis: "Crank-Nicholson Heat Equation Solver",
        origin: "FALCON",
        three_dimensional: false,
        files: files!("crni", "crni_driver.m", "crnich.m", "trisolve.m"),
        test_subst: &[("@NX@", "33"), ("@NT@", "16")],
        paper_subst: &[("@NX@", "321"), ("@NT@", "128")],
    },
    Benchmark {
        name: "diff",
        synopsis: "Young's Two-Slit Diffraction Experiment",
        origin: "The MathWorks Central File Exchange",
        three_dimensional: false,
        files: files!("diff", "diff_driver.m", "young.m"),
        test_subst: &[("@N@", "128")],
        paper_subst: &[("@N@", "8192")],
    },
    Benchmark {
        name: "dich",
        synopsis: "Dirichlet Solution to Laplace's Equation",
        origin: "FALCON",
        three_dimensional: false,
        files: files!("dich", "dich_driver.m", "dirich.m"),
        test_subst: &[("@N@", "16"), ("@ITERS@", "20")],
        paper_subst: &[("@N@", "72"), ("@ITERS@", "240")],
    },
    Benchmark {
        name: "edit",
        synopsis: "Edit Distance",
        origin: "The MathWorks Central File Exchange",
        three_dimensional: false,
        files: files!("edit", "edit_driver.m", "editdist.m"),
        test_subst: &[("@N@", "12")],
        paper_subst: &[("@N@", "110")],
    },
    Benchmark {
        name: "fdtd",
        synopsis: "Finite Difference Time Domain (FDTD) Technique",
        origin: "Chalmers University of Technology, Sweden",
        three_dimensional: true,
        files: files!("fdtd", "fdtd_driver.m", "fdtd.m"),
        test_subst: &[("@N@", "8"), ("@STEPS@", "4")],
        paper_subst: &[("@N@", "28"), ("@STEPS@", "24")],
    },
    Benchmark {
        name: "fiff",
        synopsis: "Finite-Difference Solution to the Wave Equation",
        origin: "FALCON",
        three_dimensional: false,
        files: files!("fiff", "fiff_driver.m", "fiff.m"),
        test_subst: &[("@N@", "24"), ("@STEPS@", "8")],
        paper_subst: &[("@N@", "451"), ("@STEPS@", "32")],
    },
    Benchmark {
        name: "nb1d",
        synopsis: "One-Dimensional N-Body Simulation",
        origin: "OTTER",
        three_dimensional: false,
        files: files!("nb1d", "nb1d_driver.m", "nbody1d.m"),
        test_subst: &[("@N@", "12"), ("@STEPS@", "8")],
        paper_subst: &[("@N@", "96"), ("@STEPS@", "80")],
    },
    Benchmark {
        name: "nb3d",
        synopsis: "Three-Dimensional N-Body Simulation",
        origin: "Modified nb1d",
        three_dimensional: true,
        files: files!("nb3d", "nb3d_driver.m", "nbody3d.m"),
        test_subst: &[("@N@", "8"), ("@STEPS@", "6")],
        paper_subst: &[("@N@", "56"), ("@STEPS@", "48")],
    },
];

/// All 11 benchmarks in Table 1 order.
pub fn all() -> &'static [Benchmark] {
    BENCHMARKS
}

/// Stage count used by the `paper_scale` unit in the benchmark corpus.
pub const PAPER_SCALE_STAGES: usize = 80;

/// Generates the `paper_scale` stress program: a single M-function whose
/// CFG grows linearly with `stages` (each stage contributes an `if`/`else`
/// diamond, whole-array updates over a rotating window of 12 arrays, and
/// every fourth stage a small indexing loop). The point is not numerics
/// but analysis load: hundreds of blocks and SSA names with long, heavily
/// overlapping live ranges, so the liveness/interference phase dominates
/// compile time the way the paper's Phase 1 does (§2).
///
/// The output is deterministic in `stages` — the benchmark relies on the
/// same text being regenerated run over run so timings are comparable.
pub fn paper_scale_source(stages: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str("function paper_scale_driver\n");
    s.push_str("% Synthetic analysis-load generator for the perf gate; not a\n");
    s.push_str("% paper benchmark. See DESIGN.md section 8.\n");
    s.push_str("n = 8;\n");
    for v in 0..12 {
        let _ = writeln!(s, "x{v} = zeros(n, n);");
    }
    s.push_str("s0 = 0;\ns1 = 0;\n");
    for i in 0..stages {
        let a = (i * 5 + 1) % 12;
        let b = (i * 7 + 2) % 12;
        let c = i % 9 + 1;
        let d = (i * 3 + 5) % 12;
        let e = (i * 11 + 4) % 12;
        let f = (i + 6) % 12;
        let t = i % 5;
        let _ = writeln!(s, "% stage {i}");
        let _ = writeln!(s, "if s0 > {t}");
        let _ = writeln!(s, "  x{a} = x{b} + {c} * x{d};");
        let _ = writeln!(s, "  s1 = s1 + sum(sum(x{a}));");
        let _ = writeln!(s, "else");
        let _ = writeln!(s, "  x{a} = x{b} - x{d};");
        let _ = writeln!(s, "  s1 = s1 - 1;");
        let _ = writeln!(s, "end");
        let _ = writeln!(s, "x{e} = x{a} .* x{f} + s1;");
        if i % 4 == 3 {
            let g = (i * 13 + 7) % 12;
            let _ = writeln!(s, "for k = 1:4");
            let _ = writeln!(s, "  x{g}(k, k) = x{g}(k, k) + k;");
            let _ = writeln!(s, "end");
        }
        s.push_str("s0 = s0 + 1;\n");
    }
    s.push_str("r = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11;\n");
    s.push_str("fprintf('checksum = %.8f\\n', sum(sum(abs(r))));\n");
    s
}

/// Leaf-function count in the multi-function `paper_scale` unit (the
/// unit compiles to `PAPER_SCALE_MULTI_LEAVES + 1` functions including
/// the driver).
pub const PAPER_SCALE_MULTI_LEAVES: usize = 8;

/// Generates the multi-function `paper_scale` variant used by the
/// incremental-compilation gate: a driver plus
/// [`PAPER_SCALE_MULTI_LEAVES`] leaf functions, each a self-contained
/// analysis-load kernel carrying an equal share of `stages`. `tweak`
/// perturbs one numeric constant inside leaf 0 *without* changing any
/// function's signature, return type or shape — so recompiling an
/// edited unit over a warm fragment store must re-plan exactly one
/// function and reuse every other function's cached fragment
/// (`tweak == 0` is the pristine baseline). Sources come back
/// driver-first, one function per M-file, deterministic in both
/// arguments.
pub fn paper_scale_multi_sources(stages: usize, tweak: u32) -> Vec<String> {
    use std::fmt::Write as _;
    let leaves = PAPER_SCALE_MULTI_LEAVES;
    let per = stages.div_ceil(leaves).max(1);
    let mut out = Vec::with_capacity(leaves + 1);
    let mut d = String::new();
    d.push_str("function paper_scale_multi_driver\n");
    d.push_str("% Incremental-compilation gate driver; see DESIGN.md section 12.\n");
    d.push_str("n = 8;\nacc = 0;\n");
    for l in 0..leaves {
        let _ = writeln!(d, "acc = acc + ps_leaf_{l}(n);");
    }
    d.push_str("fprintf('checksum = %.8f\\n', acc);\n");
    out.push(d);
    for l in 0..leaves {
        let mut s = String::new();
        let _ = writeln!(s, "function out = ps_leaf_{l}(n)");
        let _ = writeln!(s, "% Leaf kernel {l} of the incremental paper_scale unit.");
        for v in 0..6 {
            let _ = writeln!(s, "y{v} = zeros(n, n);");
        }
        s.push_str("s0 = 0;\ns1 = 0;\n");
        for i in 0..per {
            let base = l * per + i;
            let a = (base * 5 + 1) % 6;
            let b = (base * 7 + 2) % 6;
            let c = base % 9 + 1;
            let w = (base * 3 + 5) % 6;
            let e = (base * 11 + 4) % 6;
            let f = (base + 6) % 6;
            let t = base % 5;
            let _ = writeln!(s, "if s0 > {t}");
            let _ = writeln!(s, "  y{a} = y{b} + {c} * y{w};");
            let _ = writeln!(s, "  s1 = s1 + sum(sum(y{a}));");
            let _ = writeln!(s, "else");
            let _ = writeln!(s, "  y{a} = y{b} - y{w};");
            let _ = writeln!(s, "  s1 = s1 - 1;");
            let _ = writeln!(s, "end");
            let _ = writeln!(s, "y{e} = y{a} .* y{f} + s1;");
            if i % 4 == 3 {
                let g = (base * 13 + 7) % 6;
                let _ = writeln!(s, "for k = 1:4");
                let _ = writeln!(s, "  y{g}(k, k) = y{g}(k, k) + k;");
                let _ = writeln!(s, "end");
            }
            s.push_str("s0 = s0 + 1;\n");
        }
        // The "single-function edit" knob: a scalar bias folded into a
        // dynamic accumulator, so it survives constant propagation and
        // branch folding (a tweak hidden in a statically-dead branch
        // would optimize away and the edited leaf's post-optimization
        // IR — hence its fragment key — would not change). Invisible to
        // every other function's type facts.
        let bias = if l == 0 { 1 + tweak as usize } else { 1 };
        let _ = writeln!(
            s,
            "out = s1 + {bias} + sum(sum(y0 + y1 + y2 + y3 + y4 + y5));"
        );
        out.push(s);
    }
    out
}

/// Lookup by Table 1 name.
pub fn by_name(name: &str) -> Option<&'static Benchmark> {
    BENCHMARKS.iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_benchmarks_in_table_order() {
        let names: Vec<&str> = all().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "adpt", "capr", "clos", "crni", "diff", "dich", "edit", "fdtd", "fiff", "nb1d",
                "nb3d"
            ]
        );
    }

    #[test]
    fn substitution_removes_all_tokens() {
        for b in all() {
            for preset in [Preset::Test, Preset::Paper] {
                for src in b.sources(preset) {
                    assert!(!src.contains('@'), "{}: unsubstituted token", b.name);
                }
            }
        }
    }

    #[test]
    fn m_file_counts_match_table1_structure() {
        assert_eq!(by_name("capr").unwrap().m_files(), 5);
        assert_eq!(by_name("crni").unwrap().m_files(), 3);
        assert_eq!(by_name("clos").unwrap().m_files(), 2);
    }

    #[test]
    fn three_dimensional_markers() {
        assert!(by_name("fdtd").unwrap().three_dimensional);
        assert!(by_name("nb3d").unwrap().three_dimensional);
        assert!(!by_name("fiff").unwrap().three_dimensional);
    }

    #[test]
    fn line_counts_are_plausible() {
        for b in all() {
            let lines = b.source_lines();
            assert!(
                (10..140).contains(&lines),
                "{}: {} lines out of Table 1's ballpark",
                b.name,
                lines
            );
        }
    }

    #[test]
    fn paper_scale_is_deterministic_and_grows_with_stages() {
        let a = paper_scale_source(10);
        let b = paper_scale_source(10);
        assert_eq!(a, b, "generator must be deterministic");
        let big = paper_scale_source(40);
        assert!(big.len() > a.len());
        assert!(a.starts_with("function paper_scale_driver\n"));
        assert!(a.contains("% stage 9"));
        assert!(!a.contains("% stage 10"));
    }

    #[test]
    fn paper_scale_multi_tweak_touches_exactly_one_leaf() {
        let base = paper_scale_multi_sources(80, 0);
        assert_eq!(base, paper_scale_multi_sources(80, 0));
        assert_eq!(base.len(), PAPER_SCALE_MULTI_LEAVES + 1);
        assert!(base[0].starts_with("function paper_scale_multi_driver\n"));
        let edited = paper_scale_multi_sources(80, 3);
        let differing: Vec<usize> = base
            .iter()
            .zip(&edited)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            differing,
            vec![1],
            "tweak must edit leaf 0 and nothing else"
        );
    }

    #[test]
    fn drivers_come_first() {
        for b in all() {
            assert!(b.file_names()[0].contains("driver"), "{}", b.name);
        }
    }
}
