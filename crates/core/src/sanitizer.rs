//! The sensitive-instruction sanitizer and its W^X / break-before-make
//! enforcement (paper §6.3).
//!
//! The classifier itself ([`lz_arch::sensitive`]) is pure; this module
//! adds what the kernel module needs around it:
//!
//! * scanning a *physical page* before it becomes executable, with the
//!   cycle cost of the scan,
//! * the per-page **W^X state machine**: a page is mapped writable or
//!   executable, never both. An instruction fault on a writable page
//!   first *unmaps* it (break-before-make: the PTE is zeroed and the TLB
//!   entry invalidated before the scan), then scans, then maps it
//!   executable-not-writable — closing the TOCTTOU window where an
//!   attacker could inject sensitive instructions after the scan.

use lz_arch::sensitive::{scan_code, InsnClass, SanitizeMode, Sensitivity};
use lz_arch::{CycleModel, PAGE_SIZE};
use lz_machine::PhysMem;
use std::collections::HashMap;

/// Mutually exclusive mapping states of a page under W^X.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WxState {
    /// Mapped writable (and readable), not executable.
    Writable,
    /// Scanned and mapped executable (and readable), not writable.
    Executable,
}

/// Result of asking the tracker how to map a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WxDecision {
    /// Map it with these (write, exec) bits; no scan needed.
    Map { write: bool, exec: bool },
    /// The page must be scanned before being mapped executable. The
    /// caller must *first* unmap + TLBI any writable mapping (break-
    /// before-make), then call [`WxTracker::commit_exec`].
    ScanThenExec,
}

/// Per-process W^X state.
#[derive(Debug, Default)]
pub struct WxTracker {
    states: HashMap<u64, WxState>,
}

impl WxTracker {
    pub fn new() -> Self {
        WxTracker::default()
    }

    /// Current state of a page, if it has been mapped at all.
    pub fn state(&self, page_va: u64) -> Option<WxState> {
        self.states.get(&page_va).copied()
    }

    /// Decide how to satisfy a fault on `page_va` whose VMA allows
    /// `(vma_write, vma_exec)`; `is_fetch` marks instruction faults.
    pub fn on_fault(&self, page_va: u64, vma_write: bool, vma_exec: bool, is_fetch: bool) -> WxDecision {
        if is_fetch && vma_exec {
            match self.state(page_va) {
                Some(WxState::Executable) => WxDecision::Map { write: false, exec: true },
                _ => WxDecision::ScanThenExec,
            }
        } else if vma_write && vma_exec {
            // Data access to a W+X VMA: map writable, drop exec.
            WxDecision::Map { write: true, exec: false }
        } else {
            WxDecision::Map { write: vma_write, exec: false }
        }
    }

    /// Record that `page_va` passed the scan and is now mapped
    /// executable-not-writable.
    pub fn commit_exec(&mut self, page_va: u64) {
        self.states.insert(page_va, WxState::Executable);
    }

    /// Record that `page_va` is now mapped writable-not-executable —
    /// any previous scan result is void.
    pub fn commit_write(&mut self, page_va: u64) {
        self.states.insert(page_va, WxState::Writable);
    }

    /// Forget a page (unmapped).
    pub fn forget(&mut self, page_va: u64) {
        self.states.remove(&page_va);
    }
}

/// Scan the physical page at `pa` (page-aligned) for sensitive
/// instructions, in place.
///
/// Returns the cycle cost of the scan on success, or the byte offset and
/// class of the first offending word.
pub fn sanitize_page(
    mem: &PhysMem,
    pa: u64,
    mode: SanitizeMode,
    model: &CycleModel,
) -> Result<u64, (usize, InsnClass)> {
    debug_assert_eq!(pa & (PAGE_SIZE - 1), 0, "sanitize_page scans whole pages");
    // Fail closed: a page that cannot be read cannot be proven clean,
    // so it is rejected outright (it will never become executable)
    // rather than panicking the host on a guest-reachable path.
    let Some(frame) = mem.frame(pa) else {
        return Err((0, InsnClass::Forbidden(Sensitivity::PrivilegedSysreg)));
    };
    scan_code(frame, mode)?;
    Ok(scan_cost(model))
}

/// Cycle cost of scanning one page: ~3 instructions per word plus the
/// cache-line reads.
pub fn scan_cost(model: &CycleModel) -> u64 {
    model.path_cost(1024 * 3) + (PAGE_SIZE / 64) * model.mem_access
}

#[cfg(test)]
mod tests {
    use super::*;
    use lz_arch::asm::Asm;
    use lz_arch::Platform;

    #[test]
    fn fetch_on_fresh_page_requires_scan() {
        let t = WxTracker::new();
        assert_eq!(t.on_fault(0x1000, true, true, true), WxDecision::ScanThenExec);
    }

    #[test]
    fn fetch_on_scanned_page_maps_exec() {
        let mut t = WxTracker::new();
        t.commit_exec(0x1000);
        assert_eq!(t.on_fault(0x1000, true, true, true), WxDecision::Map { write: false, exec: true });
    }

    #[test]
    fn write_after_exec_revokes_scan() {
        let mut t = WxTracker::new();
        t.commit_exec(0x1000);
        // A data fault on the W+X VMA flips the page to writable…
        assert_eq!(t.on_fault(0x1000, true, true, false), WxDecision::Map { write: true, exec: false });
        t.commit_write(0x1000);
        // …and the next fetch must rescan.
        assert_eq!(t.on_fault(0x1000, true, true, true), WxDecision::ScanThenExec);
    }

    #[test]
    fn read_only_vma_never_executable_or_writable() {
        let t = WxTracker::new();
        assert_eq!(t.on_fault(0x1000, false, false, false), WxDecision::Map { write: false, exec: false });
    }

    #[test]
    fn sanitize_accepts_clean_page() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let mut a = Asm::new(0);
        a.movz(0, 1, 0);
        a.ret();
        mem.write_bytes(pa, &a.bytes());
        let model = Platform::CortexA55.model();
        let cost = sanitize_page(&mem, pa, SanitizeMode::Both, &model).unwrap();
        assert!(cost > 0);
    }

    #[test]
    fn sanitize_rejects_planted_eret() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let mut a = Asm::new(0);
        a.nop();
        a.eret();
        mem.write_bytes(pa, &a.bytes());
        let model = Platform::CortexA55.model();
        let err = sanitize_page(&mem, pa, SanitizeMode::Both, &model).unwrap_err();
        assert_eq!(err.0, 4);
    }

    #[test]
    fn sanitize_scans_to_the_last_word_and_fails_closed_when_unbacked() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        assert!(mem.write(pa + PAGE_SIZE - 4, 0xD69F_03E0, 4)); // eret
        let model = Platform::CortexA55.model();
        let err = sanitize_page(&mem, pa, SanitizeMode::Ttbr, &model).unwrap_err();
        assert_eq!(err.0, PAGE_SIZE as usize - 4);
        mem.free_frame(pa);
        assert!(sanitize_page(&mem, pa, SanitizeMode::Ttbr, &model).is_err(), "an unbacked page is never clean");
    }

    #[test]
    fn sanitize_rejects_ldtr_only_in_pan_mode() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let mut a = Asm::new(0);
        a.ldtr(0, 1, 0);
        mem.write_bytes(pa, &a.bytes());
        let model = Platform::CortexA55.model();
        assert!(sanitize_page(&mem, pa, SanitizeMode::Ttbr, &model).is_ok());
        assert!(sanitize_page(&mem, pa, SanitizeMode::Pan, &model).is_err());
    }

    #[test]
    fn scan_cost_scales_with_platform() {
        let carmel = scan_cost(&Platform::Carmel.model());
        let a55 = scan_cost(&Platform::CortexA55.model());
        assert!(carmel < a55, "wide OoO core scans faster per page");
    }
}
