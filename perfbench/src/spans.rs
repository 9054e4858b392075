//! A bounded in-memory span log, written out as JSONL when the run ends.
//!
//! Exact per-(layer, variant) sums live in the callers' totals; this log
//! only keeps a sample of individual spans (each with its parent) so a
//! reader can see how the layers nest. It never holds more than its
//! capacity, however many spans are offered.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    capacity: usize,
    kept: Vec<Span>,
    /// Spans offered once the log was full.
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(capacity: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            next_id: 0,
            capacity,
            kept: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// A fresh id, for a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Record a span under a fresh id; returns the id.
    pub fn record(
        &mut self,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, parent, layer, name, start, dur);
        id
    }

    /// Record a span under an id from [`SpanLog::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) {
        if self.kept.len() == self.capacity {
            self.dropped += 1;
            return;
        }
        self.kept.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    pub fn len(&self) -> usize {
        self.kept.len()
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{},"parent":{},"layer":"{}","name":"{}","start_ns":{},"dur_ns":{}}}"#,
                s.id, parent, s.layer, s.name, s.start_ns, s.dur_ns
            )?;
        }
        w.flush()
    }
}
