//! Simulated ARM64 machine for the LightZone reproduction.
//!
//! The machine implements the *architectural* rules LightZone's security
//! argument depends on:
//!
//! * sparse physical memory with a frame allocator ([`mem`]),
//! * 4-level stage-1 and 3-level stage-2 translation with real descriptor
//!   bit layouts, hierarchical permission intersection, and `PSTATE.PAN`
//!   enforcement ([`pte`], [`walk`]),
//! * a TLB tagged by `(VMID, ASID, page)` with global entries and
//!   capacity-bounded eviction ([`tlb`]), carrying a compiled-block fetch
//!   cache that lets the accelerated engine skip host-side walk + decode
//!   work without changing modelled cycles ([`icache`]),
//! * a CPU interpreter over the `lz-arch` instruction subset with
//!   exception levels, vectored exception entry, `HCR_EL2` trap controls,
//!   hardware watchpoints, and cycle accounting ([`cpu`]),
//! * an observability layer — per-subsystem counters, a bounded
//!   cycle-stamped event journal, and a JSON/text report assembler — that
//!   never feeds back into the modelled domain ([`metrics`]).
//!
//! Code that an in-process attacker can influence (application code, the
//! secure call gate, attack payloads) executes here as real instructions;
//! trusted kernel and hypervisor paths are modelled by the `lz-kernel`
//! and `lightzone` crates, which mutate machine state directly and charge
//! the corresponding cycle costs.

pub mod chaos;
pub mod cpu;
pub mod fxhash;
mod helpers;
pub mod icache;
pub mod jit;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod pte;
pub mod rng;
pub mod smp;
pub mod tlb;
pub mod trace;
pub mod walk;

pub use chaos::{ChaosState, FaultPlan, FaultSite, LzFault, ALL_SITES};
pub use cpu::{default_accel, default_parallel, set_default_accel, set_default_parallel, Exit, Machine};
#[doc(hidden)]
pub use cpu::{set_default_fastpath, set_default_fetch_cache, set_default_jit};
pub use icache::ICache;
pub use mem::PhysMem;
pub use metrics::{Event, EventKind, Journal, Report, Section};
pub use smp::{CoreCtx, SmpState, MAX_CORES};
pub use tlb::Tlb;
pub use walk::{Access, Fault, FaultKind, Stage};
