//! In-memory span recording for the traced run.
//!
//! Spans are taken by the benchmark around its own calls into the
//! program's public functions (decode, canonicalize, submit, wait,
//! encode, graph ops, engine). Each client thread owns a [`SpanLog`];
//! the logs are merged and written out as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's spans. Ids are unique across logs because each log
/// owns the id range `thread << 40 ..`.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, thread: u64) -> SpanLog {
        SpanLog {
            epoch,
            next_id: thread << 40,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span; `f` receives the new span's id, to
    /// parent nested spans on.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce(&mut SpanLog, u64) -> R,
    ) -> R {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self, id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Per-name self times (span duration minus the time its children
/// cover), in milliseconds, over every merged log.
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        out.entry(s.name).or_default().push(own as f64 / 1e6);
    }
    out
}

/// Median self time of spans named `name`, 0 when there are none.
pub fn median_self_ms(self_times: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    self_times.get(name).map_or(0.0, |v| stats::median(v))
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                request: 0,
                name: "outer",
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                id: 2,
                parent: Some(1),
                request: 0,
                name: "inner",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
            },
        ];
        let t = self_times_ms(&spans);
        assert_eq!(t["outer"], vec![7.0]);
        assert_eq!(t["inner"], vec![3.0]);
    }
}
