//! Kernel substrate for the LightZone reproduction.
//!
//! A minimal Linux-like kernel that is *modelled* (Rust code mutating the
//! simulated machine and charging cycles) rather than interpreted:
//!
//! * [`vma`] — virtual memory areas with demand paging,
//! * [`process`] — processes, saved user contexts, programs,
//! * [`syscall`] — the syscall numbers and dispatch results,
//! * [`idalloc`] — the generation-tagged recycling allocator behind
//!   VMIDs and ASIDs (rollover-correct: recycled IDs force TLB
//!   invalidation at reuse),
//! * [`kvm`] — the KVM-like virtualization layer: the world-switch
//!   cost paths (full switches for conventional VMs; the
//!   partial, optimized switches LightZone uses are in the `lightzone`
//!   crate),
//! * [`kernel`] — the [`Kernel`] itself, in host (VHE, EL2) or guest
//!   (EL1) mode, with the trap-path cost accounting that Table 4 measures.
//!
//! LightZone's kernel module and Lowvisor (the `lightzone` crate) sit on
//! top of this crate exactly as the paper's patches sit on Linux/KVM.

pub mod idalloc;
pub mod kernel;
pub mod kvm;
pub mod process;
pub mod sched;
pub mod syscall;
pub mod vma;

pub use idalloc::{IdAlloc, IdExhausted, IdGrant};
pub use kernel::{Event, Kernel, KernelMode, SysOutcome};
pub use process::{Pid, Process, Program, Segment, UserContext};
pub use sched::{SmpConfig, SmpRun};
pub use syscall::Sysno;
pub use vma::{Mm, VmProt, Vma, VmaSource};
