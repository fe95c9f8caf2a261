//! Outside-in benchmark of the LightZone simulator.
//!
//! Five workloads drive the simulator's public functions from outside,
//! each call into a layer (`lz-machine`, `lz-kernel`, `lightzone`,
//! `lz-fleet`) wrapped in a [`trace::Tracer`] span. A round runs one
//! workload's fixed, seeded amount of work in its own process and
//! reports per-op host timings, the modelled outputs the run produced,
//! output-check failures, and per-layer counters. See `README.md`.

pub mod alu;
pub mod churn;
pub mod clock;
pub mod fleet;
pub mod harness;
pub mod json;
pub mod nvm;
pub mod stats;
pub mod trace;

use clock::{Bench, ProbeKind};

/// The benchmark seed the golden outputs are recorded for.
pub const DEFAULT_SEED: u64 = 1;

/// What one round reports besides its op timings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// Modelled outputs: deterministic for a seed, in a fixed order.
    pub outputs: Vec<(String, u64)>,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Exact per-layer counters of the measured phase.
    pub counters: Vec<(String, f64)>,
}

impl Round {
    pub fn output(&mut self, name: &str, value: u64) {
        self.outputs.push((name.to_string(), value));
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AluJit,
    NvmScan,
    FleetServe,
    FleetSmp,
    VeChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] =
        [Workload::AluJit, Workload::NvmScan, Workload::FleetServe, Workload::FleetSmp, Workload::VeChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AluJit => "alu_jit",
            Workload::NvmScan => "nvm_scan",
            Workload::FleetServe => "fleet_serve",
            Workload::FleetSmp => "fleet_smp",
            Workload::VeChurn => "ve_churn",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The host resource whose speed this workload's op times follow.
    pub fn probe_kind(self) -> ProbeKind {
        match self {
            Workload::FleetSmp => ProbeKind::Wake,
            _ => ProbeKind::Cpu,
        }
    }

    /// Run one round at benchmark size.
    pub fn run(self, seed: u64, bench: &mut Bench) -> Round {
        match self {
            Workload::AluJit => alu::run(&alu::AluConfig::BENCH, seed, bench),
            Workload::NvmScan => nvm::run(&nvm::NvmConfig::BENCH, seed, bench),
            Workload::FleetServe => fleet::run(&fleet::FleetConfig::SERVE, seed, bench),
            Workload::FleetSmp => fleet::run(&fleet::FleetConfig::SMP, seed, bench),
            Workload::VeChurn => churn::run(&churn::ChurnConfig::BENCH, seed, bench),
        }
    }
}
