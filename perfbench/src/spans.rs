//! Spans the benchmark records around its own calls into each layer,
//! kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` is 0 for an op's root span.
#[derive(Debug)]
pub struct Span {
    pub op: u64,
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Root-span layer names: the op's class decides which end-to-end
/// percentile it belongs to.
pub const OP_READ: &str = "op.read";
pub const OP_WRITE: &str = "op.write";

/// Per-client span buffer. Ids are unique across clients because each
/// client numbers from its own base.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, client: usize) -> Recorder {
        Recorder {
            epoch,
            next: (client as u64 + 1) << 40,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh id, for a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Record a finished span under a reserved id; returns its
    /// duration in µs.
    pub fn close(
        &mut self,
        id: u64,
        op: u64,
        parent: u64,
        layer: &'static str,
        start_ns: u64,
    ) -> f64 {
        let span = Span {
            op,
            id,
            parent,
            layer,
            start_ns,
            end_ns: self.now(),
        };
        let us = span.us();
        self.spans.push(span);
        us
    }

    /// Record a finished span that started at `start_ns` and ends now.
    pub fn span(&mut self, op: u64, parent: u64, layer: &'static str, start_ns: u64) -> u64 {
        let id = self.reserve();
        self.close(id, op, parent, layer, start_ns);
        id
    }
}

/// Per-op view of a span set: root class, root duration, and the summed
/// duration of each layer's spans within the op.
pub struct OpTimes {
    pub class: &'static str,
    pub total_us: f64,
    /// Time covered by the root's direct children (they run one after
    /// another inside the root, so their durations add).
    pub covered_us: f64,
    pub layers: BTreeMap<&'static str, f64>,
}

pub fn per_op(spans: &[Span]) -> Vec<OpTimes> {
    let mut roots: BTreeMap<u64, (u64, OpTimes)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == 0) {
        roots.insert(
            s.op,
            (
                s.id,
                OpTimes {
                    class: s.layer,
                    total_us: s.us(),
                    covered_us: 0.0,
                    layers: BTreeMap::new(),
                },
            ),
        );
    }
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some((root_id, op)) = roots.get_mut(&s.op) {
            *op.layers.entry(s.layer).or_default() += s.us();
            if s.parent == *root_id {
                op.covered_us += s.us();
            }
        }
    }
    roots.into_values().map(|(_, op)| op).collect()
}

/// Write every span as a tab-separated line, times in µs since the run's
/// epoch.
pub fn dump(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tspan\tparent\tlayer\tstart_us\tend_us")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{:.3}\t{:.3}",
            s.op,
            s.id,
            s.parent,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        )?;
    }
    out.flush()
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}
