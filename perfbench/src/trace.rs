//! In-memory spans for the traced run (`--trace 1`).
//!
//! A span is `{id, parent, name, unit, func, start_ns, end_ns}`; `name`
//! is `<layer>.<operation>` using the repository's module names, so the
//! per-layer numbers are sums of span self times. Spans are recorded by
//! the benchmark around its own calls into each layer's public
//! functions — nothing inside the program under test is instrumented —
//! kept in memory, and written as JSON lines when the run ends.

use matc::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// `func` value of a span that belongs to no particular function.
pub const NO_FUNC: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within its [`Tracer`]; never 0.
    pub id: u32,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u32,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Index into the tracer's unit labels.
    pub unit: u32,
    /// Function index within the unit, or [`NO_FUNC`].
    pub func: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans with a stack of open parents. Unit and function names
/// are interned once per unit so that recording a span allocates
/// nothing beyond its slot in the span vector.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    units: Vec<(String, Vec<String>)>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Registers a unit label and returns its index.
    pub fn unit(&mut self, name: &str) -> u32 {
        self.units.push((name.to_string(), Vec::new()));
        (self.units.len() - 1) as u32
    }

    /// Records the function names of a unit (for the span file).
    pub fn set_funcs(&mut self, unit: u32, names: Vec<String>) {
        self.units[unit as usize].1 = names;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, unit: u32, func: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            unit,
            func,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        unit: u32,
        func: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, unit, func);
        let r = f();
        self.end(id);
        r
    }

    /// Adds an already-measured span (client-side request timings).
    pub fn record(
        &mut self,
        name: &'static str,
        unit: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            unit,
            func: NO_FUNC,
            start_ns,
            end_ns,
        });
        id
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes spans as JSON lines (`{id, parent, name, unit, func,
    /// start_ns, end_ns}`, unit and function by name). At most `cap`
    /// spans are written; a final `{"truncated": n}` line says how many
    /// were left out.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(cap) {
            let (unit, funcs) = &self.units[s.unit as usize];
            let func = funcs.get(s.func as usize).map_or("", String::as_str);
            let line = Json::Obj(vec![
                ("id".into(), Json::num(u64::from(s.id))),
                ("parent".into(), Json::num(u64::from(s.parent))),
                ("name".into(), Json::str(s.name)),
                ("unit".into(), Json::str(unit.as_str())),
                ("func".into(), Json::str(func)),
                ("start_ns".into(), Json::num(s.start_ns)),
                ("end_ns".into(), Json::num(s.end_ns)),
            ])
            .render();
            writeln!(out, "{line}")?;
        }
        if self.spans.len() > cap {
            writeln!(out, "{{\"truncated\":{}}}", self.spans.len() - cap)?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children (the union of their
/// intervals, clipped to the parent, so nested grandchildren are not
/// subtracted twice and abutting or overlapping children are counted
/// once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            unit: 0,
            func: NO_FUNC,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_once() {
        // root [0,100] > child [10,60] > grandchild [20,50]
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 50)];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn abutting_and_overlapping_children_are_a_union() {
        // Abutting [0,5] and [5,10] inside [0,12]: 10 covered.
        let spans = [span(1, 0, 0, 12), span(2, 1, 0, 5), span(3, 1, 5, 10)];
        assert_eq!(self_times(&spans), vec![2, 5, 5]);
        // Overlapping [2,8] and [6,9] inside [0,10]: union [2,9].
        let spans = [span(1, 0, 0, 10), span(2, 1, 2, 8), span(3, 1, 6, 9)];
        assert_eq!(self_times(&spans)[0], 3);
        // A child running past its parent is clipped to the parent.
        let spans = [span(1, 0, 0, 10), span(2, 1, 8, 15)];
        assert_eq!(self_times(&spans)[0], 8);
    }

    #[test]
    fn tracer_nests_by_open_stack() {
        let mut tr = Tracer::new(Instant::now());
        let u = tr.unit("u");
        let root = tr.begin("batch.unit", u, NO_FUNC);
        tr.time("frontend.parse", u, NO_FUNC, || ());
        let inner = tr.begin("gctd.plan", u, 0);
        tr.time("gctd.dataflow", u, 0, || ());
        tr.end(inner);
        tr.end(root);
        let parents: Vec<u32> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![0, 1, 1, 3]);
        let by_name = self_time_by_name(tr.spans());
        assert_eq!(by_name.len(), 4);
    }
}
