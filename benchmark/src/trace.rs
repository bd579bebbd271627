//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its own calls into each layer, kept in memory and
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::self_time;

/// One timed interval, in nanoseconds since the trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the trace origin for an instant taken elsewhere.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Records a finished span and returns its id.
    pub fn push(&mut self, name: &str, parent: Option<usize>, start: u64, end: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span { id, parent, name: name.to_string(), start, end: end.max(start) });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Self time of one span in seconds: its duration minus what its
    /// children cover.
    pub fn self_s(&self, span: &Span) -> f64 {
        let kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .map(|s| (s.start, s.end))
            .collect();
        self_time((span.start, span.end), &kids) as f64 * 1e-9
    }

    /// Summed self time of the spans called `name`, in seconds.
    pub fn self_total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| self.self_s(s)).sum()
    }

    /// Writes one JSON object per span, then a final line with `footer`.
    pub fn write(&self, path: &Path, footer: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}}}",
                s.id, s.name, s.start, s.end
            );
        }
        out.push_str(footer);
        out.push('\n');
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
