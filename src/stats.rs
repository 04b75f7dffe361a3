//! The stats documents and the audit report: every JSON document
//! `matc` writes about a compile, built as a [`Json`] tree and
//! rendered by [`Json::render`].
//!
//! The three stats documents — `matc batch --stats`
//! ([`batch_document`]), the `matc serve` `stats` op
//! ([`serve_document`]) and `matc shadow --stats`
//! ([`shadow_document`]) — share one envelope: `schema` first, then
//! `kind`, then the kind's members (DESIGN.md §6 lists them). Every
//! value in them is an integer counter far below 2^53, which
//! [`Json::num`] renders exactly. [`audit_json`] renders the audit
//! findings.

use crate::json::Json;
use matc_analysis::Diagnostics;
use matc_gctd::{BatchReport, Phase, ShadowStats, UnitMetrics};

/// The stats documents' schema version (`"schema"`, always the first
/// key). Bumped from 1 to 2 when per-unit `degradations` and
/// `budget_exceeded` arrays and the `"degraded"` status were added;
/// from 2 to 3 when the bitset dataflow engine's `dataflow_iters`,
/// `peak_live_words` and `dataflow_micros` joined each unit's
/// `interference` object; from 3 to 4 when the `"kind"` discriminator
/// (`"batch"` vs `"serve"`) was added so the `matc serve` daemon can
/// emit the same document extended with a `server` object
/// (DESIGN.md §9); from 4 to 5 when the bitset audit engine's `edges`
/// counter joined each unit's `audit` object; from 5 to 6 when
/// `matc shadow --stats` began emitting `"kind":"shadow"` with a
/// top-level `shadow` object of plan-vs-reality replay counters; from
/// 6 to 7 when the artifact store's `partial_hits`, `frag_misses` and
/// `quarantined` joined the top-level `cache` object and the per-unit
/// `cache` value gained `"partial"`; from 7 to 8 when the serve
/// reactor's counters joined the `server` object as a nested
/// `reactor` object; from 8 to 9 when `accept_errors` joined
/// `server.reactor` and `swept` joined `server.cache`.
pub const SCHEMA_VERSION: u32 = 9;

/// A stats document: `{"schema":9,"kind":<kind>,…members}`.
fn envelope<'a>(kind: &str, members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    let head = [
        ("schema", Json::num(SCHEMA_VERSION.into())),
        ("kind", Json::str(kind)),
    ];
    Json::obj(head.into_iter().chain(members))
}

/// The `matc batch --stats` document, `"kind":"batch"`.
pub fn batch_document(report: &BatchReport) -> String {
    envelope("batch", report_members(report)).render()
}

/// The serve daemon's `stats` response, `"kind":"serve"`: the batch
/// document's members over the daemon's recent units, led by its
/// `server` object.
pub fn serve_document(report: &BatchReport, server: Json) -> String {
    let members = std::iter::once(("server", server)).chain(report_members(report));
    envelope("serve", members).render()
}

/// The `matc shadow --stats` document, `"kind":"shadow"`.
pub fn shadow_document(s: &ShadowStats) -> String {
    let shadow = Json::obj([
        ("units", count(s.units)),
        ("frames", Json::num(s.frames)),
        ("defs", Json::num(s.defs)),
        ("reads", Json::num(s.reads)),
        ("heap_events", Json::num(s.heap_events)),
        ("plan_violations", Json::num(s.plan_violations)),
        ("s100", count(s.s100)),
        ("s101", count(s.s101)),
        ("s102", count(s.s102)),
        ("s103", count(s.s103)),
        ("s104", count(s.s104)),
        ("s105", count(s.s105)),
    ]);
    envelope("shadow", [("shadow", shadow)]).render()
}

/// One element of a report's `units` array.
pub fn unit_json(m: &UnitMetrics) -> Json {
    let mut members = vec![
        ("unit", Json::str(&m.unit)),
        ("status", Json::str(m.status())),
    ];
    if let Some(e) = &m.error {
        members.push(("error", Json::str(e)));
    }
    let degradations = m.degradations.iter().map(|d| {
        Json::obj([
            ("unit", Json::str(&d.unit)),
            ("func", Json::str(&d.func)),
            ("stage", Json::str(d.stage)),
            ("reason", Json::str(&d.reason)),
        ])
    });
    let budget_exceeded = m
        .budget_exceeded
        .iter()
        .map(|b| Json::obj([("phase", Json::str(&b.phase)), ("kind", Json::str(&b.kind))]));
    let plan = &m.plan;
    members.extend([
        ("degradations", Json::Arr(degradations.collect())),
        ("budget_exceeded", Json::Arr(budget_exceeded.collect())),
        ("cache", Json::str(m.cache.name())),
        ("phases_micros", phases(|p| m.phase_micros(p))),
        (
            "ast",
            Json::obj([
                ("functions", count(m.ast_functions)),
                ("statements", count(m.ast_statements)),
                ("expressions", count(m.ast_expressions)),
            ]),
        ),
        (
            "ir",
            Json::obj([
                ("functions", count(m.ir_functions)),
                ("blocks", count(m.ir_blocks)),
                ("instrs", count(m.ir_instrs)),
                ("vars", count(m.ir_vars)),
            ]),
        ),
        ("opt", Json::obj([("rewrites", count(m.opt_removed))])),
        (
            "typeinf",
            Json::obj([
                ("facts", count(m.typeinf_facts)),
                ("scalars", count(m.typeinf_scalars)),
            ]),
        ),
        (
            "interference",
            Json::obj([
                ("nodes", count(m.interference_nodes)),
                ("edges", count(m.interference_edges)),
                ("dataflow_iters", Json::num(m.dataflow_iters)),
                ("peak_live_words", Json::num(m.peak_live_words)),
                ("dataflow_micros", Json::num(m.dataflow_nanos / 1_000)),
            ]),
        ),
        (
            "plan",
            Json::obj([
                ("original_vars", count(plan.original_vars)),
                ("static_subsumed", count(plan.static_subsumed)),
                ("dynamic_subsumed", count(plan.dynamic_subsumed)),
                ("stack_bytes_saved", Json::num(plan.stack_bytes_saved)),
                ("stack_bytes_total", Json::num(plan.stack_bytes_total)),
                ("colors", Json::num(plan.colors.into())),
                ("coalesced_phis", count(plan.coalesced_phis)),
                ("op_conflicts", count(plan.op_conflicts)),
                ("slots", count(plan.slots)),
            ]),
        ),
        (
            "audit",
            Json::obj([
                ("errors", count(m.audit_errors)),
                ("warnings", count(m.audit_warnings)),
                ("edges", Json::num(m.audit_edges)),
            ]),
        ),
        (
            "c",
            Json::obj([("bytes", count(m.c_bytes)), ("lines", count(m.c_lines))]),
        ),
    ]);
    Json::obj(members)
}

/// The audit findings as a JSON array with one compact finding per
/// line — the output of `matc audit --json`, the `audit_json` the
/// artifact store keeps, and so the `findings` of a serve `audit`
/// response:
///
/// ```json
/// [
///   {"code":"L001","severity":"warning","func":"f","message":"…","span":{"start":12,"end":20}}
/// ]
/// ```
pub fn audit_json(diags: &Diagnostics) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        let span = d.span.map_or(Json::Null, |s| {
            Json::obj([
                ("start", Json::num(s.start.into())),
                ("end", Json::num(s.end.into())),
            ])
        });
        Json::obj([
            ("code", Json::str(d.code)),
            ("severity", Json::str(d.severity.to_string())),
            ("func", Json::str(&d.func)),
            ("message", Json::str(&d.message)),
            ("span", span),
        ])
        .render_to(&mut out);
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// The members the batch and serve documents share, after `kind` (and
/// serve's `server`).
fn report_members(r: &BatchReport) -> [(&'static str, Json); 5] {
    [
        ("jobs", count(r.jobs)),
        ("wall_micros", Json::num(r.wall_micros)),
        (
            "cache",
            Json::obj([
                ("hits", Json::num(r.cache_hits)),
                ("misses", Json::num(r.cache_misses)),
                ("partial_hits", Json::num(r.cache_partial_hits)),
                ("frag_misses", Json::num(r.cache_frag_misses)),
                ("quarantined", Json::num(r.cache_quarantined)),
            ]),
        ),
        ("phase_totals_micros", phases(|p| r.phase_total_micros(p))),
        ("units", Json::Arr(r.units.iter().map(unit_json).collect())),
    ]
}

/// One member per [`Phase`], in pipeline order.
fn phases(micros: impl Fn(Phase) -> u64) -> Json {
    Json::obj(Phase::ALL.map(|p| (p.name(), Json::num(micros(p)))))
}

/// A `usize` counter.
fn count(n: usize) -> Json {
    Json::num(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::span::Span;
    use matc_gctd::{BudgetEvent, CacheOutcome, DegradationEvent, Phase, UnitMetrics};
    use std::time::Duration;

    /// A unit with every counter nonzero; `base` keeps the two units'
    /// values apart.
    fn busy_unit(name: &str, base: usize, cache: CacheOutcome) -> UnitMetrics {
        let mut m = UnitMetrics::new(name);
        for (i, p) in Phase::ALL.iter().enumerate() {
            m.record(*p, Duration::from_micros((base * 100 + i + 1) as u64));
        }
        let n = |k: usize| base * 100 + k;
        m.ast_functions = n(11);
        m.ast_statements = n(12);
        m.ast_expressions = n(13);
        m.ir_functions = n(14);
        m.ir_blocks = n(15);
        m.ir_instrs = n(16);
        m.ir_vars = n(17);
        m.opt_removed = n(18);
        m.typeinf_facts = n(19);
        m.typeinf_scalars = n(20);
        m.interference_nodes = n(21);
        m.interference_edges = n(22);
        m.dataflow_iters = n(23) as u64;
        m.peak_live_words = n(24) as u64;
        m.dataflow_nanos = n(25) as u64 * 1_000 + 999;
        m.plan.original_vars = n(26);
        m.plan.static_subsumed = n(27);
        m.plan.dynamic_subsumed = n(28);
        m.plan.stack_bytes_saved = n(29) as u64;
        m.plan.stack_bytes_total = n(30) as u64;
        m.plan.colors = n(31) as u32;
        m.plan.coalesced_phis = n(32);
        m.plan.op_conflicts = n(33);
        m.plan.slots = n(34);
        m.audit_errors = n(35);
        m.audit_warnings = n(36);
        m.audit_edges = n(37) as u64;
        m.c_bytes = n(38);
        m.c_lines = n(39);
        m.cache = cache;
        m
    }

    /// One degraded unit (with a budget event) and one failed unit
    /// whose error needs every kind of escape.
    fn report() -> BatchReport {
        let mut degraded = busy_unit("wobbly", 1, CacheOutcome::Partial);
        degraded.degradations.push(DegradationEvent {
            unit: "wobbly".to_string(),
            func: "kernel".to_string(),
            stage: "audit",
            reason: "A101: slot clobbered".to_string(),
        });
        degraded.budget_exceeded.push(BudgetEvent {
            phase: "coloring".to_string(),
            kind: "fuel".to_string(),
        });
        let mut failed = busy_unit("broken", 2, CacheOutcome::Miss);
        failed.error = Some("parse error: \"x\" at C:\\m\nnext \u{1} line".to_string());
        BatchReport {
            jobs: 2,
            wall_micros: 4321,
            cache_hits: 1,
            cache_misses: 2,
            cache_partial_hits: 3,
            cache_frag_misses: 4,
            cache_quarantined: 5,
            units: vec![degraded, failed],
        }
    }

    fn shadow_stats() -> ShadowStats {
        ShadowStats {
            units: 11,
            frames: 12,
            defs: 13,
            reads: 14,
            heap_events: 15,
            plan_violations: 16,
            s101: 17,
            s102: 18,
            s103: 19,
            s104: 20,
            s105: 21,
            s100: 22,
        }
    }

    fn findings() -> Diagnostics {
        let mut d = Diagnostics::new();
        d.error(
            "A101",
            "f",
            "slot \"s1\" clash\tat\\x\n",
            Some(Span::new(3, 9)),
        );
        d.warning("L001", "g\u{1}", "unused `x`", None);
        d
    }

    /// The members after `kind` of the batch and serve documents,
    /// pinned byte for byte: the stats schema may change only together
    /// with a `SCHEMA_VERSION` bump.
    macro_rules! pinned_report_members {
        () => {
            concat!(
            r#""jobs":2,"wall_micros":4321,"cache":{"hits":1,"misses":2,"partial_hits":3"#,
            r#","frag_misses":4,"quarantined":5},"phase_totals_micros":{"parse":302,"ssa_build":304"#,
            r#","optimize":306,"type_infer":308,"interference":310,"coloring":312,"decompose":314"#,
            r#","audit":316,"ssa_invert":318,"codegen":320},"units":[{"unit":"wobbly""#,
            r#","status":"degraded","degradations":[{"unit":"wobbly","func":"kernel","stage":"audit""#,
            r#","reason":"A101: slot clobbered"}],"budget_exceeded":[{"phase":"coloring""#,
            r#","kind":"fuel"}],"cache":"partial","phases_micros":{"parse":101,"ssa_build":102"#,
            r#","optimize":103,"type_infer":104,"interference":105,"coloring":106,"decompose":107"#,
            r#","audit":108,"ssa_invert":109,"codegen":110},"ast":{"functions":111,"statements":112"#,
            r#","expressions":113},"ir":{"functions":114,"blocks":115,"instrs":116,"vars":117}"#,
            r#","opt":{"rewrites":118},"typeinf":{"facts":119,"scalars":120}"#,
            r#","interference":{"nodes":121,"edges":122,"dataflow_iters":123,"peak_live_words":124"#,
            r#","dataflow_micros":125},"plan":{"original_vars":126,"static_subsumed":127"#,
            r#","dynamic_subsumed":128,"stack_bytes_saved":129,"stack_bytes_total":130,"colors":131"#,
            r#","coalesced_phis":132,"op_conflicts":133,"slots":134},"audit":{"errors":135"#,
            r#","warnings":136,"edges":137},"c":{"bytes":138,"lines":139}},{"unit":"broken""#,
            r#","status":"error","error":"parse error: \"x\" at C:\\m\nnext \u0001 line""#,
            r#","degradations":[],"budget_exceeded":[],"cache":"miss","phases_micros":{"parse":201"#,
            r#","ssa_build":202,"optimize":203,"type_infer":204,"interference":205,"coloring":206"#,
            r#","decompose":207,"audit":208,"ssa_invert":209,"codegen":210},"ast":{"functions":211"#,
            r#","statements":212,"expressions":213},"ir":{"functions":214,"blocks":215,"instrs":216"#,
            r#","vars":217},"opt":{"rewrites":218},"typeinf":{"facts":219,"scalars":220}"#,
            r#","interference":{"nodes":221,"edges":222,"dataflow_iters":223,"peak_live_words":224"#,
            r#","dataflow_micros":225},"plan":{"original_vars":226,"static_subsumed":227"#,
            r#","dynamic_subsumed":228,"stack_bytes_saved":229,"stack_bytes_total":230,"colors":231"#,
            r#","coalesced_phis":232,"op_conflicts":233,"slots":234},"audit":{"errors":235"#,
            r#","warnings":236,"edges":237},"c":{"bytes":238,"lines":239}}]}"#,
            )
        };
    }

    #[test]
    fn batch_document_bytes_are_pinned() {
        assert_eq!(
            batch_document(&report()),
            concat!(r#"{"schema":9,"kind":"batch","#, pinned_report_members!())
        );
    }

    #[test]
    fn serve_document_puts_the_server_member_first() {
        let server = Json::obj([
            ("draining", Json::Bool(false)),
            ("queue_depth", Json::num(3)),
        ]);
        assert_eq!(
            serve_document(&report(), server),
            concat!(
                r#"{"schema":9,"kind":"serve","server":{"draining":false,"queue_depth":3},"#,
                pinned_report_members!()
            )
        );
    }

    #[test]
    fn shadow_document_bytes_are_pinned() {
        assert_eq!(
            shadow_document(&shadow_stats()),
            concat!(
                r#"{"schema":9,"kind":"shadow","shadow":{"units":11,"frames":12,"defs":13"#,
                r#","reads":14,"heap_events":15,"plan_violations":16,"s100":22,"s101":17"#,
                r#","s102":18,"s103":19,"s104":20,"s105":21}}"#
            )
        );
    }

    #[test]
    fn audit_findings_keep_one_finding_per_line() {
        assert_eq!(
            audit_json(&findings()),
            concat!(
                "[\n",
                r#"  {"code":"A101","severity":"error","func":"f""#,
                r#","message":"slot \"s1\" clash\tat\\x\n","span":{"start":3,"end":9}},"#,
                "\n",
                r#"  {"code":"L001","severity":"warning","func":"g\u0001","message":"unused `x`""#,
                r#","span":null}"#,
                "\n]"
            )
        );
        assert_eq!(audit_json(&Diagnostics::new()), "[]");
        // The copy the benchmark package still times renders the same
        // bytes.
        assert_eq!(audit_json(&findings()), findings().to_json());
    }
}
