//! Spans around every call the benchmark makes into a layer.
//!
//! The workloads never call a layer directly: each call goes through
//! [`Tracer::span`] with the [`Boundary`] it crosses. Untraced, a span
//! only counts the call. Traced, it also times the call; calls made
//! inside an op feed the per-layer aggregates (`calls`, `self_s`,
//! `us_p99`), and every [`SAMPLE_EVERY`]th op keeps its raw spans for
//! the Chrome trace. Boundaries never nest — the workloads call the layers
//! one after another — so a boundary span's self time is its duration,
//! and `bench.self` is the part of an op no boundary span covers.

use std::time::Instant;

/// A layer boundary the workloads call across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    MachineRun,
    MachineRunEpoch,
    KernelHandleExit,
    KernelSpawn,
    KernelReap,
    LzHandleCustom,
    LzHandleVeExit,
    LzScheduleTo,
    LzReap,
    FleetRecord,
}

/// Every boundary in report order, then the harness's own time.
pub const NAMES: [&str; 11] = [
    "lz-machine.run",
    "lz-machine.run_epoch",
    "lz-kernel.handle_exit",
    "lz-kernel.spawn",
    "lz-kernel.reap",
    "lightzone.handle_custom",
    "lightzone.handle_ve_exit",
    "lightzone.schedule_to",
    "lightzone.reap",
    "lz-fleet.record",
    "bench.self",
];

const BENCH_SELF: usize = NAMES.len() - 1;

/// Raw spans are kept for one op in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// Log-linear histogram of nanosecond durations: 16 sub-buckets per
/// power of two, so a quantile is exact to within 1/16.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NsHist {
    counts: Vec<u64>,
}

const SUB: u32 = 4;

impl NsHist {
    fn bucket(ns: u64) -> usize {
        if ns < (1 << SUB) {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let sub = (ns >> (msb - SUB)) & ((1 << SUB) - 1);
        (((msb - SUB + 1) << SUB) as u64 + sub) as usize
    }

    fn floor(bucket: usize) -> u64 {
        let b = bucket as u64;
        if b < (1 << SUB) {
            return b;
        }
        let exp = (b >> SUB) + SUB as u64 - 1;
        let sub = b & ((1 << SUB) - 1);
        (1 << exp) | (sub << (exp - SUB as u64))
    }

    pub fn record(&mut self, ns: u64) {
        let b = Self::bucket(ns);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
    }

    pub fn merge(&mut self, other: &NsHist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The `q` quantile (0..=1), as the midpoint of its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return (Self::floor(b) + Self::floor(b + 1)) as f64 / 2.0;
            }
        }
        0.0
    }

    /// `bucket:count` pairs of the nonzero buckets.
    pub fn encode(&self) -> String {
        let parts: Vec<String> =
            self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(b, c)| format!("{b}:{c}")).collect();
        if parts.is_empty() {
            "-".into()
        } else {
            parts.join(",")
        }
    }

    pub fn decode(s: &str) -> Option<NsHist> {
        let mut h = NsHist::default();
        if s == "-" {
            return Some(h);
        }
        for part in s.split(',') {
            let (b, c) = part.split_once(':')?;
            let (b, c): (usize, u64) = (b.parse().ok()?, c.parse().ok()?);
            if h.counts.len() <= b {
                h.counts.resize(b + 1, 0);
            }
            h.counts[b] += c;
        }
        Some(h)
    }
}

/// Per-boundary aggregate over the spans inside ops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Agg {
    pub calls: u64,
    pub self_ns: u64,
    pub hist: NsHist,
}

impl Agg {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.self_ns += ns;
        self.hist.record(ns);
    }

    pub fn merge(&mut self, other: &Agg) {
        self.calls += other.calls;
        self.self_ns += other.self_ns;
        self.hist.merge(&other.hist);
    }
}

/// One raw span of a sampled op. The op's own span is named
/// `bench.op` and has no parent; every boundary span's parent is it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    in_op: bool,
    op_index: u64,
    op_children_ns: u64,
    /// Every call, traced or not, in the measured phase and outside it.
    pub calls_total: [u64; NAMES.len() - 1],
    pub agg: Vec<Agg>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, base: Instant) -> Self {
        Tracer {
            on,
            base,
            in_op: false,
            op_index: 0,
            op_children_ns: 0,
            calls_total: [0; NAMES.len() - 1],
            agg: vec![Agg::default(); NAMES.len()],
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn sampled(&self) -> bool {
        self.on && self.in_op && self.op_index.is_multiple_of(SAMPLE_EVERY)
    }

    fn ns_since_base(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    /// Call `f` across boundary `b`.
    #[inline]
    pub fn span<R>(&mut self, b: Boundary, f: impl FnOnce() -> R) -> R {
        self.calls_total[b as usize] += 1;
        if !(self.on && self.in_op) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.agg[b as usize].add(ns);
        self.op_children_ns += ns;
        if self.sampled() {
            self.spans.push(Span {
                op: self.op_index,
                name: NAMES[b as usize],
                start_ns: self.ns_since_base(t0),
                end_ns: self.ns_since_base(t1),
                parent: Some(self.op_index),
            });
        }
        r
    }

    pub(crate) fn begin_op(&mut self) {
        self.in_op = true;
        self.op_children_ns = 0;
    }

    pub(crate) fn end_op(&mut self, start: Instant, end: Instant) {
        if self.on {
            let op_ns = end.duration_since(start).as_nanos() as u64;
            self.agg[BENCH_SELF].add(op_ns.saturating_sub(self.op_children_ns));
            if self.sampled() {
                self.spans.push(Span {
                    op: self.op_index,
                    name: "bench.op",
                    start_ns: self.ns_since_base(start),
                    end_ns: self.ns_since_base(end),
                    parent: None,
                });
            }
        }
        self.in_op = false;
        self.op_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_a_sixteenth() {
        let mut h = NsHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 37);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = (q * 10_000.0) * 37.0;
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 1.0 / 16.0, "q={q}: {got} vs {exact}");
        }
        assert_eq!(NsHist::decode(&h.encode()), Some(h));
    }

    #[test]
    fn bucket_floors_are_monotonic() {
        let mut prev = 0;
        for b in 1..800 {
            let f = NsHist::floor(b);
            assert!(f > prev, "bucket {b}");
            assert_eq!(NsHist::bucket(f), b);
            prev = f;
        }
    }
}
