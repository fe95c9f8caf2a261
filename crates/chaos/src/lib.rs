//! Deterministic chaos harness for the LightZone isolation stack.
//!
//! The injection engine itself lives in [`lz_machine::chaos`]: a
//! [`lz_machine::FaultPlan`] derives one decision stream per
//! [`lz_machine::FaultSite`] from its seed, and every hook in the
//! machine/kernel/module consults the engine only at *modelled* events
//! (trap boundaries, interpreted TLBIs, shootdown round trips,
//! scheduling slices), so a run under a given plan is byte-reproducible
//! and independent of the execution engine (`LZ_ACCEL`).
//!
//! This crate is the harness around that engine:
//!
//! * [`programs`] — the seeded program generators (shared with
//!   `tests/differential.rs`) and the four chaos scenarios built from
//!   them: plain randomized programs, self-modifying programs with EL1
//!   TLB maintenance, the LightZone domain-switching composite, and the
//!   SMP clone/futex/munmap workload.
//! * [`invariants`] — [`invariants::ChaosInvariants`]: the fail-closed
//!   checks run after every scenario (TLB coherence against a
//!   fresh-walk oracle, W^X and stage-2 containment for LightZone
//!   VMIDs, fake-physical bijectivity, journal boundedness).
//! * [`soak`] — the clean-vs-chaos containment differential, the soak
//!   driver that accumulates a target number of injected faults with
//!   zero invariant violations, and the ddmin schedule shrinker that
//!   reduces a failing plan to a 1-minimal replayed fault schedule.
//! * [`attacks`] — the shared attack-primitive library: the §7.2
//!   penetration-test bodies (domain setups, W^X double views,
//!   sensitive-instruction payloads) plus composable gate-abuse,
//!   kernel-context and layout-probe primitives.
//! * [`synth`] — the seeded attack synthesizer: composes primitives
//!   into candidate exploits, sweeps them over every defense ablation
//!   polarity on 1- and 4-core machines, asserts the defeat/escape
//!   oracle, and ddmin-shrinks every escape to a minimal exploit.

pub mod attacks;
pub mod invariants;
pub mod programs;
pub mod soak;
pub mod synth;

pub use invariants::ChaosInvariants;
pub use programs::{run_scenario, Scenario, ScenarioRun, ALL_SCENARIOS};
pub use soak::{ddmin_set, run_soak, shrink_plan, verify_plan, SoakReport};
pub use synth::{run_synthesis, AttackCorpusReport, SynthConfig};
