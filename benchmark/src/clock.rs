//! The op clock of a round, and the host-speed probe that op times are
//! scaled by.
//!
//! On a 2-vCPU KVM guest (Intel Xeon), host speed moves between
//! regimes that last from under a second to minutes: in the slow one
//! every workload takes 1.5–2.2x as long per op. A fixed piece of
//! general-purpose host work — formatting, hashing strings into a map,
//! parsing floats, sorting — slows by about as much, so it tracks the
//! regimes. Each round runs
//! that probe every [`PROBE_EVERY_NS`], between ops, and every op's host
//! time is scaled by `r / p`, where `r` is the probe's time at a
//! reference host speed and `p` the median probe time within
//! [`PROBE_WINDOW_NS`] of the op.
//!
//! `fleet_smp` waits on the second vCPU as well: every epoch starts a
//! host thread. Its cost follows how fast a thread starts on the other
//! vCPU, which moves on its own. That workload's probe starts and joins
//! scoped threads as `Machine::run_epoch` does ([`ProbeKind::Wake`]);
//! the epoch time of a two-core fleet stayed within 3% of 1.5x the
//! probe's per-thread time while both moved by 45%.

use crate::trace::Tracer;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// A probe runs before the first op and then at most this often.
pub const PROBE_EVERY_NS: u64 = 20_000_000;
/// Probes within this distance of an op set its scale.
pub const PROBE_WINDOW_NS: u64 = 250_000_000;
/// Probes run before set-up and after the last op.
const PROBES_AT_EDGES: usize = 5;

/// Which host resource a round's probe measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// General-purpose work on the calling thread.
    Cpu,
    /// Starting and joining scoped threads.
    Wake,
}

impl ProbeKind {
    /// Probe time, in ns, at the reference host speed (the fast regime
    /// of a 2-vCPU Xeon guest): scaled times read as host time at that
    /// speed.
    pub const fn reference_ns(self) -> f64 {
        match self {
            ProbeKind::Cpu => 250_000.0,
            ProbeKind::Wake => 256_000.0,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ProbeKind::Cpu => "cpu",
            ProbeKind::Wake => "wake",
        }
    }

    pub fn from_name(s: &str) -> Option<ProbeKind> {
        [ProbeKind::Cpu, ProbeKind::Wake].into_iter().find(|k| k.name() == s)
    }
}

/// Threads one wake probe starts and joins, one after another.
const WAKES: usize = 16;

/// The probe. The general-purpose work keeps its buffers from one run to
/// the next, so that after the first run it allocates nothing new from
/// the OS and page-fault costs stay out of it.
#[derive(Debug, Default)]
pub struct Probe {
    map: HashMap<String, u64, BuildHasherDefault<DefaultHasher>>,
    sorted: Vec<u64>,
    text: String,
}

impl Probe {
    /// The fixed work. Deterministic: the map hashes with fixed keys. A
    /// dependent multiply chain takes about 6% of it. The chain alone
    /// does not follow the regimes (it slowed by under 5% in some and
    /// by up to 3x in others), but without it the probe tracked
    /// `alu_jit`, `fleet_smp` and `ve_churn` less well.
    pub fn work(&mut self) -> u64 {
        let mut chain = 1u64;
        for _ in 0..15_000 {
            chain = black_box(chain).wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        self.map.clear();
        self.sorted.clear();
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        for i in 0..1_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            self.text.clear();
            let _ = write!(self.text, "k{}-{:x}", x % 977, i & 7);
            *self.map.entry(self.text.clone()).or_insert(0) += 1;
            self.sorted.push(x >> 3);
            if self.sorted.len() == 512 {
                self.sorted.sort_unstable();
                acc ^= self.sorted[256];
                self.sorted.clear();
            }
            self.text.clear();
            let _ = write!(self.text, "{:.6e}", (x >> 11) as f64 / 3.7);
            acc = acc.wrapping_add(self.text.parse::<f64>().unwrap_or(0.0) as u64);
        }
        acc ^ self.map.len() as u64 ^ chain
    }

    /// One run's host time, in ns.
    pub fn time(&mut self, kind: ProbeKind) -> u64 {
        let t = Instant::now();
        match kind {
            ProbeKind::Cpu => {
                black_box(self.work());
            }
            ProbeKind::Wake => {
                for i in 0..WAKES {
                    std::thread::scope(|s| black_box(s.spawn(move || black_box(i)).join().is_ok()));
                }
            }
        }
        t.elapsed().as_nanos() as u64
    }
}

/// One timed op: when it started (ns since the round's clock base),
/// its host time, and the guest instructions it retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub at_ns: u64,
    pub ns: u64,
    pub insns: u64,
}

/// The op clock of one round, plus the tracer every layer call goes
/// through.
#[derive(Debug)]
pub struct Bench {
    base: Instant,
    start_ns: u64,
    first_op_ns: Option<u64>,
    last_op_end_ns: u64,
    op_start: Option<Instant>,
    op_insns: u64,
    probe: Probe,
    kind: ProbeKind,
    last_probe: Instant,
    pub ops: Vec<Op>,
    /// `(kind, ns since the clock base, probe ns)`.
    pub probes: Vec<(ProbeKind, u64, u64)>,
    pub tr: Tracer,
}

impl Bench {
    /// Probe the host, then start the set-up clock. Set-up is scaled by
    /// the general-purpose probe, ops by `kind`.
    pub fn new(traced: bool, kind: ProbeKind) -> Self {
        let base = Instant::now();
        let mut b = Bench {
            base,
            start_ns: 0,
            first_op_ns: None,
            last_op_end_ns: 0,
            op_start: None,
            op_insns: 0,
            probe: Probe::default(),
            kind,
            last_probe: base,
            ops: Vec::new(),
            probes: Vec::new(),
            tr: Tracer::new(traced, base),
        };
        for _ in 0..PROBES_AT_EDGES {
            b.run_probe(ProbeKind::Cpu);
            if kind != ProbeKind::Cpu {
                b.run_probe(kind);
            }
        }
        b.start_ns = b.since_base(Instant::now());
        b
    }

    fn since_base(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    fn run_probe(&mut self, kind: ProbeKind) {
        let at = self.since_base(Instant::now());
        let ns = self.probe.time(kind);
        self.probes.push((kind, at, ns));
        self.last_probe = Instant::now();
    }

    /// Start timing an op; `insns` is the retired-instruction counter now.
    pub fn op_begin(&mut self, insns: u64) {
        debug_assert!(self.op_start.is_none(), "ops do not nest");
        let due = self.last_probe.elapsed().as_nanos() as u64 >= PROBE_EVERY_NS;
        if self.first_op_ns.is_none() || due {
            self.run_probe(self.kind);
        }
        let now = Instant::now();
        self.first_op_ns.get_or_insert(self.since_base(now));
        self.op_insns = insns;
        self.tr.begin_op();
        self.op_start = Some(now);
    }

    /// Stop timing the current op; `insns` is the retired-instruction
    /// counter now.
    pub fn op_end(&mut self, insns: u64) {
        let now = Instant::now();
        let start = self.op_start.take().expect("op_end without op_begin");
        let at_ns = self.since_base(start);
        self.ops.push(Op { at_ns, ns: now.duration_since(start).as_nanos() as u64, insns: insns - self.op_insns });
        self.tr.end_op(start, now);
        self.last_op_end_ns = self.since_base(now);
    }

    pub fn in_op(&self) -> bool {
        self.op_start.is_some()
    }

    /// Probe the host once more after the last op.
    pub fn finish(&mut self) {
        for _ in 0..PROBES_AT_EDGES {
            self.run_probe(self.kind);
        }
    }

    /// `(start, end)` of set-up in ns since the clock base: from the end
    /// of the first probes to the first op.
    pub fn setup_span(&self) -> (u64, u64) {
        (self.start_ns, self.first_op_ns.unwrap_or(self.start_ns))
    }

    /// Host time from the first op's start to the last op's end.
    pub fn measured_ns(&self) -> u64 {
        self.first_op_ns.map_or(0, |f| self.last_op_end_ns.saturating_sub(f))
    }
}

/// Scale factors from a round's probes.
#[derive(Debug)]
pub struct Scaler {
    probes: Vec<(u64, u64)>,
    reference_ns: f64,
}

impl Scaler {
    /// From the probes of `kind` among a round's probes.
    pub fn new(round_probes: &[(ProbeKind, u64, u64)], kind: ProbeKind) -> Self {
        let mut probes: Vec<(u64, u64)> =
            round_probes.iter().filter(|p| p.0 == kind).map(|&(_, at, ns)| (at, ns)).collect();
        probes.sort_unstable();
        Scaler { probes, reference_ns: kind.reference_ns() }
    }

    /// The probe's reference time over the median probe time within the
    /// window around `[from, to]` (the nearest probe if none is that
    /// close).
    pub fn scale(&self, from: u64, to: u64) -> f64 {
        let lo = self.probes.partition_point(|p| p.0 + PROBE_WINDOW_NS < from);
        let hi = self.probes.partition_point(|p| p.0 <= to + PROBE_WINDOW_NS);
        let mut near: Vec<u64> = if lo < hi {
            self.probes[lo..hi].iter().map(|p| p.1).collect()
        } else {
            let nearest = self.probes.iter().min_by_key(|p| p.0.abs_diff(from));
            nearest.map(|p| p.1).into_iter().collect()
        };
        if near.is_empty() {
            return 1.0;
        }
        near.sort_unstable();
        self.reference_ns / near[near.len() / 2].max(1) as f64
    }

    /// Every op's host time, scaled.
    pub fn scaled_ns(&self, ops: &[Op]) -> Vec<f64> {
        let mut cache: Option<(usize, f64)> = None;
        ops.iter()
            .map(|op| {
                // Ops sharing the nearest probe share a scale.
                let i = self.probes.partition_point(|p| p.0 <= op.at_ns);
                let s = match cache {
                    Some((j, s)) if j == i => s,
                    _ => {
                        let s = self.scale(op.at_ns, op.at_ns);
                        cache = Some((i, s));
                        s
                    }
                };
                op.ns as f64 * s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_probes_near_an_op() {
        let s = ProbeKind::Cpu.reference_ns() as u64;
        let probes = [(0, s), (100_000_000, s), (2_000_000_000, 2 * s), (2_100_000_000, 2 * s)];
        let mut tagged: Vec<_> = probes.iter().map(|&(at, ns)| (ProbeKind::Cpu, at, ns)).collect();
        // Probes of another kind do not count.
        tagged.push((ProbeKind::Wake, 50_000_000, 9 * s));
        let sc = Scaler::new(&tagged, ProbeKind::Cpu);
        assert_eq!(sc.scale(50_000_000, 50_000_000), 1.0);
        assert_eq!(sc.scale(2_050_000_000, 2_050_000_000), 0.5);
        // Nothing within the window: the nearest probe.
        assert_eq!(sc.scale(1_000_000_000, 1_000_000_000), 1.0);
        let ops = [Op { at_ns: 10, ns: 100, insns: 1 }, Op { at_ns: 2_050_000_000, ns: 100, insns: 1 }];
        assert_eq!(sc.scaled_ns(&ops), vec![100.0, 50.0]);
    }

    #[test]
    fn probe_work_is_deterministic() {
        let mut p = Probe::default();
        assert_eq!(p.work(), Probe::default().work());
        assert_eq!(p.work(), Probe::default().work());
    }
}
