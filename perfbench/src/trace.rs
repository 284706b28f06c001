//! In-memory spans recorded by the benchmark around its calls into each
//! layer of the simulator.  Nothing inside the engine is instrumented: a
//! span covers one public call (or one batch of calls) made from here.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One closed span: host seconds since the tracer was created.
#[derive(Debug)]
pub struct Span {
    /// Layer call, named `<module>.<function>`.
    pub name: &'static str,
    /// Start, host seconds since the tracer's origin.
    pub start: f64,
    /// End, host seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which workload run (set-up pass or timed iteration) it belongs to.
    pub run: u32,
}

/// Span recorder.  When disabled, [`begin`](Tracer::begin) and
/// [`end`](Tracer::end) do nothing, so the untraced runs pay for one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tags the spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`begin`](Tracer::begin); spans close in
    /// reverse order of opening.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            assert_eq!(
                self.open.pop(),
                Some(idx),
                "spans must close innermost first"
            );
            self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span, in order of opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines:
    /// `index  parent  run  name  start_s  end_s` (parent `-` for a root).
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "index\tparent\trun\tname\tstart_s\tend_s")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.run, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Total self time per span name: each span's duration minus the time its
/// direct children cover (children nest inside their parent and do not
/// overlap one another, because all spans come from one thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut totals = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        *totals.entry(s.name).or_insert(0.0) += (s.end - s.start) - children;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("workload.iteration", 0.0, 10.0, None),
            span("runner.run_with_stats", 1.0, 4.0, Some(0)),
            span("inner", 2.0, 3.0, Some(1)),
            span("runner.run_with_stats", 5.0, 6.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["workload.iteration"], 6.0);
        assert_eq!(t["runner.run_with_stats"], 2.0 + 1.0);
        assert_eq!(t["inner"], 1.0);
        // Self times partition the root span.
        assert_eq!(t.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn tracer_nests_spans_and_records_runs() {
        let mut tr = Tracer::new(true);
        tr.set_run(3);
        let outer = tr.begin("outer");
        let v = tr.span("inner", || 7);
        tr.end(outer);
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.run == 3 && s.end >= s.start));
        let mut tsv = Vec::new();
        tr.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.begin("outer");
        tr.span("inner", || ());
        tr.end(open);
        assert!(tr.spans().is_empty());
    }
}
