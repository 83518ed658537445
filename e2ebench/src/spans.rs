//! In-memory spans around the calls into each layer, written out when
//! the benchmark ends.

use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of the traced passes. Disabled logs record nothing.
pub struct SpanLog {
    pub enabled: bool,
    origin: Instant,
    next: u64,
    open: Vec<(u64, &'static str, u64)>,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            enabled: false,
            origin: Instant::now(),
            next: 1,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span whose children are recorded before it closes.
    /// Returns its id (0 when disabled).
    pub fn open(&mut self, name: &'static str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        let parent = self.open.last().map_or(0, |o| o.0);
        self.open.push((id, name, parent));
        id
    }

    /// Close span `id`, opened with [`SpanLog::open`].
    pub fn close(&mut self, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (open_id, name, parent) = self.open.pop().expect("span close without open");
        assert_eq!(open_id, id, "spans must close in order");
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Record a leaf span under `parent`.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next;
        self.next += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Write one JSON object per span to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}
