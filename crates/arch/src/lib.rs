//! ARMv8-A (A64) architectural model for the LightZone reproduction.
//!
//! This crate defines the *architecture-level* vocabulary shared by the rest
//! of the workspace:
//!
//! * [`sysreg`] — system-register identifiers and their `(op0, op1, CRn,
//!   CRm, op2)` encodings, exactly as used by `MSR`/`MRS`.
//! * [`pstate`] — the process state (exception level, `PAN`, `NZCV`, …).
//! * [`insn`] — a decoder/encoder for the A64 subset executed by the
//!   simulator: loads/stores (including the unprivileged `LDTR`/`STTR`
//!   family), moves, arithmetic, logical ops, branches, exception
//!   generation/return, barriers, and `MSR`/`MRS` in both register and
//!   immediate (`MSR PAN, #imm`) forms.
//! * [`asm`] — a tiny assembler used by tests, the secure call gate
//!   emitter, and the example programs to build real machine code.
//! * [`sensitive`] — the sensitive-instruction classifier of the paper's
//!   Table 3, operating on raw 32-bit encodings.
//! * [`cycles`] — the per-platform cycle cost model (NVIDIA Carmel and
//!   Cortex-A55 presets) from which every reported number is derived.
//! * [`esr`] — exception syndrome (ESR_ELx) encodings used when routing
//!   traps.
//!
//! # Example
//!
//! ```
//! use lz_arch::asm::Asm;
//! use lz_arch::insn::Insn;
//!
//! let mut a = Asm::new(0x40_0000);
//! a.movz(0, 42, 0); // mov x0, #42
//! a.svc(0);
//! let words = a.words();
//! assert_eq!(
//!     Insn::decode(words[0]),
//!     Insn::Movz { rd: 0, imm16: 42, hw: 0 }
//! );
//! ```

// Bit-field literals are grouped to mirror architectural field
// boundaries, not nibbles.
#![allow(clippy::unusual_byte_groupings)]

pub mod asm;
pub mod bits;
pub mod cycles;
pub mod esr;
pub mod insn;
pub mod pstate;
pub mod sensitive;
pub mod sysreg;
pub mod tlbi;

pub use cycles::{CycleModel, Platform};
pub use insn::Insn;
pub use pstate::{ExceptionLevel, PState};
pub use sensitive::{InsnClass, SanitizeMode};
pub use sysreg::SysReg;

/// Size of the smallest translation granule used throughout the workspace.
pub const PAGE_SIZE: u64 = 4096;

/// Bit shift corresponding to [`PAGE_SIZE`].
pub const PAGE_SHIFT: u64 = 12;

/// Mask selecting the offset-within-page bits of an address.
pub const PAGE_MASK: u64 = PAGE_SIZE - 1;

/// Align an address down to the start of its page.
///
/// ```
/// assert_eq!(lz_arch::page_align_down(0x1fff), 0x1000);
/// ```
pub const fn page_align_down(addr: u64) -> u64 {
    addr & !PAGE_MASK
}

/// Align an address up to the next page boundary (identity on aligned
/// addresses).
///
/// ```
/// assert_eq!(lz_arch::page_align_up(0x1001), 0x2000);
/// assert_eq!(lz_arch::page_align_up(0x2000), 0x2000);
/// ```
pub const fn page_align_up(addr: u64) -> u64 {
    (addr + PAGE_MASK) & !PAGE_MASK
}

/// Returns `true` if `addr` is page-aligned.
pub const fn is_page_aligned(addr: u64) -> bool {
    addr & PAGE_MASK == 0
}
