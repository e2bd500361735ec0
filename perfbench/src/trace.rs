//! In-memory spans for the traced run.
//!
//! A span records a name, start, end, its parent span and the operation it
//! belongs to. Spans are recorded from the benchmark's side, around the
//! public calls into each layer; they are written out when the run ends.
//! A span's self time is its duration minus the durations of its direct
//! children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span; `f` gets the tracer back so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time in milliseconds, summed per operation, for each span name:
    /// `name → [one value per operation that has such a span]`.
    pub fn self_ms_per_op(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut per: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *per.entry(s.name).or_default().entry(s.op).or_default() += ns as f64 / 1e6;
        }
        per.into_iter()
            .map(|(name, ops)| (name, ops.into_values().collect()))
            .collect()
    }

    /// Write every span as one tab-separated line:
    /// `op  span  parent  name  start_ns  end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new();
        tr.set_op(1);
        tr.span("root", |tr| {
            spin(2);
            tr.span("child", |tr| {
                spin(3);
                tr.span("leaf", |_| spin(4));
            });
        });
        tr.set_op(2);
        tr.span("child", |_| spin(1));
        let st = tr.self_ms_per_op();
        let (root, child, leaf) = (&st["root"], &st["child"], &st["leaf"]);
        assert_eq!((root.len(), child.len(), leaf.len()), (1, 2, 1));
        assert!(root[0] >= 2.0 && child[0] >= 3.0 && leaf[0] >= 4.0);
        assert!(child[1] >= 1.0, "{child:?}");
        let total = tr.durations_ms("root")[0];
        assert!((root[0] + child[0] + leaf[0] - total).abs() < 1e-6);
        assert!(
            root[0] <= total - 7.0,
            "children not subtracted: {root:?} of {total}"
        );
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut tr = Tracer::new();
        tr.span("a", |tr| tr.span("b", |_| ()));
        tr.span("c", |_| ());
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, None);
    }
}
