//! NVM data isolation (paper §9.3, Figure 5) — run as *real programs*.
//!
//! Following Merr, unrelated persistent-memory objects are isolated to
//! shrink their exposure window: N buffers of 2 MB each, one isolation
//! domain per buffer; every operation switches into the owning domain,
//! performs a fixed-complexity substring search (~7,000–8,500 cycles),
//! and switches back out. DRAM stands in for NVM exactly as in the paper.
//!
//! Everything here executes on the simulated CPU: the searches are
//! assembled byte-scan loops, the switches are the real mechanisms
//! (PAN toggles, call gates, watchpoint ioctls, lwC switches). Buffers
//! are mapped with 2 MiB huge pages as in the paper. The
//! search count is scaled down from the paper's 5,000,000 (wall-clock
//! statistics on real hardware) because the simulator is deterministic;
//! the two-point slope cancels setup costs.

use crate::deploy::{Deployment, Mechanism};
use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_PAN, SAN_TTBR, USER};
use lightzone::pgt::PGT_ALL;
use lightzone::LightZone;
use lz_arch::asm::Asm;
use lz_arch::Platform;
use lz_baselines::Baselines;
use lz_kernel::syscall::custom;
use lz_kernel::{Program, Sysno, VmProt};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CODE: u64 = 0x40_0000;
const SEQ_BASE: u64 = 0x2000_0000;
/// Buffers start here, 2 MB each, contiguous.
const BUF_BASE: u64 = 0x8000_0000;
/// Buffer size: 2 MB, as in the paper.
pub const BUF_BYTES: u64 = 2 << 20;
/// Bytes scanned per search — calibrated per platform so one search
/// costs ~7,000–8,500 cycles (paper §9.3): the interpreter charges the
/// Carmel memory path more per byte, so its window is shorter.
pub const fn scan_bytes(platform: Platform) -> u64 {
    match platform {
        Platform::Carmel => 700,
        Platform::CortexA55 => 860,
    }
}

const RUN_LIMIT: u64 = 3_000_000_000;
const SEED: u64 = 0x9e37_79b9;
/// Search count: scaled down further in debug builds so `cargo test`
/// (unoptimized interpreter) stays quick; release keeps the full size.
const N_MAX: usize = if cfg!(debug_assertions) { 400 } else { 2_000 };

/// Result of one Figure 5 cell.
#[derive(Debug, Clone, Copy)]
pub struct NvmResult {
    /// Average cycles per search operation (switches included).
    pub cycles_per_op: f64,
    /// Overhead relative to the vanilla run, as a fraction.
    pub overhead: f64,
}

/// Strings per buffer: each search targets one of 64 fixed string slots
/// ("multiple 2MB-sized buffers filled with strings … a substring search
/// on a randomly selected string", §9.3), which gives the same page
/// locality as the paper's string set.
const STRINGS_PER_BUF: u64 = 64;

/// The random `(buffer index, scan address)` pair sequence.
fn search_sequence(buffers: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut bytes = Vec::with_capacity(N_MAX * 16);
    let slot_bytes = BUF_BYTES / STRINGS_PER_BUF;
    for _ in 0..N_MAX {
        let b = rng.random_range(0..buffers);
        let slot = rng.random_range(0..STRINGS_PER_BUF);
        bytes.extend_from_slice(&(b as u64).to_le_bytes());
        bytes.extend_from_slice(&(BUF_BASE + b as u64 * BUF_BYTES + slot * slot_bytes).to_le_bytes());
    }
    bytes
}

/// Emit the fixed-complexity search: scan `[x19, x19+SCAN_BYTES)` for a
/// byte that never occurs (buffers are zero-filled, needle is 0xff), so
/// every search walks the full window. Clobbers x24–x26.
fn emit_search(a: &mut Asm, platform: Platform) {
    a.mov_imm64(24, scan_bytes(platform));
    a.mov_reg(25, 19);
    let found = a.label();
    let scan = a.label();
    a.bind(scan);
    a.ldrb(26, 25, 0);
    a.add_imm(25, 25, 1);
    a.cmp_imm(26, 0xff);
    a.b_eq(found);
    a.subs_imm(24, 24, 1);
    a.b_ne(scan);
    a.bind(found);
}

/// Emit the warm-up + measurement loops: the body sees the buffer index
/// in x18 and the scan address in x19. A full pass over all `N_MAX`
/// sequence entries runs first (the paper's warm-up phase — it demand-
/// faults every page the measured loop will touch, in every domain),
/// then the measured pass runs `n` entries from the same sequence.
fn emit_loop(a: &mut Asm, n: usize, mut body: impl FnMut(&mut Asm, usize)) {
    for (pass, pass_n) in [N_MAX, n].into_iter().enumerate() {
        a.mov_imm64(21, SEQ_BASE);
        a.mov_imm64(23, pass_n as u64);
        let top = a.label();
        a.bind(top);
        a.ldr(18, 21, 0);
        a.ldr(19, 21, 8);
        a.add_imm(21, 21, 16);
        body(a, pass);
        a.subs_imm(23, 23, 1);
        a.b_ne(top);
    }
    a.mov_imm64(0, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
}

/// Average cycles per search operation for one Figure 5 cell.
///
/// # Panics
///
/// Panics if `mechanism` is [`Mechanism::Watchpoint`] with more than 16
/// buffers (the prototype's hard limit).
pub fn nvm_cycles_per_op(platform: Platform, deploy: Deployment, mechanism: Mechanism, buffers: usize) -> f64 {
    assert!(buffers >= 1);
    if mechanism == Mechanism::Watchpoint {
        assert!(buffers <= 16, "watchpoint prototype supports at most 16 domains");
    }
    let run = |n: usize| match mechanism {
        Mechanism::Vanilla => run_plain(platform, deploy, buffers, n, false),
        Mechanism::Watchpoint => run_plain(platform, deploy, buffers, n, true),
        Mechanism::Lwc => run_lwc(platform, deploy, buffers, n),
        Mechanism::LzPan => run_lz(platform, deploy, buffers, n, true),
        Mechanism::LzTtbr => run_lz(platform, deploy, buffers, n, false),
    };
    (run(N_MAX) as f64 - run(N_MAX / 2) as f64) / (N_MAX / 2) as f64
}

/// Overhead of `mechanism` over vanilla for one cell.
pub fn nvm_overhead(platform: Platform, deploy: Deployment, mechanism: Mechanism, buffers: usize) -> NvmResult {
    let base = nvm_cycles_per_op(platform, deploy, Mechanism::Vanilla, buffers);
    nvm_overhead_over(base, platform, deploy, mechanism, buffers)
}

/// Overhead of `mechanism` for one cell over `base`, the vanilla cycles
/// per op of the same platform, deployment and buffer count: callers
/// that compare several mechanisms compute the baseline once.
pub fn nvm_overhead_over(
    base: f64,
    platform: Platform,
    deploy: Deployment,
    mechanism: Mechanism,
    buffers: usize,
) -> NvmResult {
    let prot = nvm_cycles_per_op(platform, deploy, mechanism, buffers);
    NvmResult { cycles_per_op: prot, overhead: (prot - base) / base }
}

fn run_baseline_prog(platform: Platform, deploy: Deployment, prog: Program) -> u64 {
    let mut bl = match deploy {
        Deployment::Host => Baselines::new_host(platform),
        Deployment::Guest => Baselines::new_guest(platform),
    };
    let pid = bl.spawn(&prog);
    bl.enter_process(pid);
    assert_eq!(bl.run(RUN_LIMIT), lz_kernel::Event::Exited(0));
    bl.kernel.machine.cpu.cycles
}

/// Vanilla and Watchpoint variants (EL0 process under the base kernel).
fn run_plain(platform: Platform, deploy: Deployment, buffers: usize, n: usize, protect: bool) -> u64 {
    let mut a = Asm::new(CODE);
    if protect {
        a.mov_imm64(8, custom::WP_ENTER);
        a.svc(0);
        for b in 0..buffers as u64 {
            a.mov_imm64(0, BUF_BASE + b * BUF_BYTES);
            a.mov_imm64(1, BUF_BYTES);
            a.mov_imm64(8, custom::WP_PROT);
            a.svc(0);
        }
    }
    emit_loop(&mut a, n, |a, _| {
        if protect {
            a.mov_reg(0, 18);
            a.mov_imm64(8, custom::WP_SWITCH);
            a.svc(0);
        }
        emit_search(a, platform);
        if protect {
            a.mov_imm64(0, u64::MAX); // leave the domain
            a.mov_imm64(8, custom::WP_SWITCH);
            a.svc(0);
        }
    });
    let prog = Program::from_code(CODE, a.bytes())
        .with_segment(SEQ_BASE, search_sequence(buffers), VmProt::R)
        .with_huge_segment(BUF_BASE, buffers as u64 * BUF_BYTES, VmProt::RW);
    run_baseline_prog(platform, deploy, prog)
}

/// lwC variant: one context per buffer, kernel switch around each search.
fn run_lwc(platform: Platform, deploy: Deployment, buffers: usize, n: usize) -> u64 {
    let mut a = Asm::new(CODE);
    for _ in 0..=buffers {
        a.mov_imm64(8, custom::LWC_CREATE);
        a.svc(0);
    }
    emit_loop(&mut a, n, |a, _| {
        a.add_imm(0, 18, 1); // context of buffer d is d + 1
        a.mov_imm64(8, custom::LWC_SWITCH);
        a.svc(0);
        emit_search(a, platform);
        a.mov_imm64(0, 0); // back to the root context
        a.mov_imm64(8, custom::LWC_SWITCH);
        a.svc(0);
    });
    let prog = Program::from_code(CODE, a.bytes())
        .with_segment(SEQ_BASE, search_sequence(buffers), VmProt::R)
        .with_huge_segment(BUF_BASE, buffers as u64 * BUF_BYTES, VmProt::RW);
    run_baseline_prog(platform, deploy, prog)
}

/// LightZone variants: PAN (all buffers in the single protected domain)
/// or TTBR (one table per buffer; per-buffer gates in, gate `buffers`
/// back out to the default table — Listing 1 style).
fn run_lz(platform: Platform, deploy: Deployment, buffers: usize, n: usize, pan: bool) -> u64 {
    let mut b = LzProgramBuilder::new(CODE);
    b.with_segment(SEQ_BASE, search_sequence(buffers), VmProt::R);
    b.with_huge_segment(BUF_BASE, buffers as u64 * BUF_BYTES, VmProt::RW);
    // Two call sites (warm-up pass, measured pass) need disjoint gate
    // sets: gate ENTRY values are per-site (§6.2). Pass p uses gates
    // [p*(buffers+1), p*(buffers+1)+buffers]; the last gate of each set
    // exits to the default table.
    let set = (buffers + 1) as u64;
    if pan {
        b.asm.lz_enter(false, SAN_PAN);
        b.asm.lz_prot_imm(BUF_BASE, buffers as u64 * BUF_BYTES, PGT_ALL, RW | USER);
    } else {
        b.asm.lz_enter(true, SAN_TTBR);
        for d in 0..buffers as u64 {
            b.asm.lz_alloc(); // deterministic: returns d + 1
            b.asm.lz_prot_imm(BUF_BASE + d * BUF_BYTES, BUF_BYTES, d + 1, RW);
            for pass in 0..2u64 {
                b.asm.lz_map_gate_pgt_imm(d + 1, pass * set + d);
            }
        }
        for pass in 0..2u64 {
            b.asm.lz_map_gate_pgt_imm(0, pass * set + buffers as u64);
        }
    }
    let gate_base = lightzone::gate::layout::GATE_BASE;
    let stride = lightzone::gate::layout::GATE_STRIDE;
    let stride_shift = stride.trailing_zeros() as u8;
    let mut enter_entries = [0u64; 2];
    let mut exit_entries = [0u64; 2];
    {
        let a = &mut b.asm;
        emit_loop(a, n, |a, pass| {
            if pan {
                a.set_pan(0);
                emit_search(a, platform);
                a.set_pan(1);
            } else {
                // Gate in: x17 = GATE_BASE + (pass_base + index) * stride.
                a.mov_imm64(17, gate_base + pass as u64 * set * stride);
                a.lsl_imm(16, 18, stride_shift);
                a.add_reg(17, 17, 16);
                a.blr(17);
                enter_entries[pass] = a.here();
                emit_search(a, platform);
                // Gate out through this pass's exit gate.
                a.mov_imm64(17, gate_base + (pass as u64 * set + buffers as u64) * stride);
                a.blr(17);
                exit_entries[pass] = a.here();
            }
        });
    }
    if !pan {
        for pass in 0..2u64 {
            for g in 0..buffers as u64 {
                b.register_gate_entry((pass * set + g) as u16, enter_entries[pass as usize]);
            }
            b.register_gate_entry((pass * set + buffers as u64) as u16, exit_entries[pass as usize]);
        }
    }
    let prog = b.build();
    let mut lz = match deploy {
        Deployment::Host => LightZone::new_host(platform),
        Deployment::Guest => LightZone::new_guest(platform),
    };
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    assert_eq!(lz.run(RUN_LIMIT), lz_kernel::Event::Exited(0));
    lz.kernel.machine.cpu.cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_search_in_paper_cycle_band() {
        // §9.3: "each search is about 7,000-8,500 cycles".
        for p in Platform::ALL {
            let c = nvm_cycles_per_op(p, Deployment::Host, Mechanism::Vanilla, 2);
            assert!((6_000.0..9_500.0).contains(&c), "{p:?} search = {c}");
        }
    }

    #[test]
    fn pan_overhead_small() {
        let r = nvm_overhead(Platform::CortexA55, Deployment::Host, Mechanism::LzPan, 2);
        assert!(r.overhead < 0.02, "A55 PAN overhead = {}", r.overhead);
    }

    #[test]
    fn ttbr_overhead_in_band_cortex() {
        // Paper: <3.8% on Cortex.
        let r = nvm_overhead(Platform::CortexA55, Deployment::Host, Mechanism::LzTtbr, 4);
        assert!((0.005..0.06).contains(&r.overhead), "A55 TTBR overhead = {}", r.overhead);
    }

    #[test]
    fn watchpoint_worse_than_ttbr() {
        let wp = nvm_overhead(Platform::CortexA55, Deployment::Host, Mechanism::Watchpoint, 4);
        let ttbr = nvm_overhead(Platform::CortexA55, Deployment::Host, Mechanism::LzTtbr, 4);
        assert!(wp.overhead > 3.0 * ttbr.overhead, "wp {} vs ttbr {}", wp.overhead, ttbr.overhead);
    }
}
