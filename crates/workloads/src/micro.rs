//! Microbenchmarks: real assembled programs measured on the simulator.
//!
//! Costs are extracted with a two-point slope (run the loop with N and
//! 2N iterations on fresh machines; divide the cycle difference by N),
//! which cancels boot, demand-paging, and warm-up costs exactly like the
//! paper's warm-up phase does.

use crate::deploy::Deployment;
use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_PAN, SAN_TTBR};
use lightzone::LightZone;
use lz_arch::asm::Asm;
use lz_arch::{Platform, PAGE_SIZE};
use lz_baselines::Baselines;
use lz_kernel::syscall::custom;
use lz_kernel::{Program, Sysno};
use lz_machine::Machine;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CODE: u64 = 0x40_0000;
/// Per-domain 4 KB pages live here.
const DOM_BASE: u64 = 0x3000_0000;
/// The random switch sequence (pairs of 8-byte words) lives here.
const SEQ_BASE: u64 = 0x2000_0000;

const RUN_LIMIT: u64 = 400_000_000;

/// Deterministic seed for the random switch sequences (§8.2 "randomly
/// switches between the page tables").
const SEED: u64 = 0x11a5_77a0;

// ---------------------------------------------------------------------
// Table 4: trap round trips.
// ---------------------------------------------------------------------

/// All rows of Table 4 for one platform, in cycles.
#[derive(Debug, Clone)]
pub struct Table4 {
    pub host_user_to_host_hyp: f64,
    pub guest_user_to_guest_kernel: f64,
    pub lz_to_host_hyp: f64,
    pub lz_to_guest_kernel: f64,
    pub kvm_vhe_hypercall: f64,
    pub update_hcr_el2: f64,
    pub update_vttbr_el2: f64,
}

/// Measure every Table 4 row on `platform`.
pub fn table4(platform: Platform) -> Table4 {
    let model = platform.model();
    Table4 {
        host_user_to_host_hyp: vanilla_syscall_cycles(platform, Deployment::Host),
        guest_user_to_guest_kernel: vanilla_syscall_cycles(platform, Deployment::Guest),
        lz_to_host_hyp: lz_syscall_cycles(platform, Deployment::Host),
        lz_to_guest_kernel: lz_syscall_cycles(platform, Deployment::Guest),
        kvm_vhe_hypercall: kvm_hypercall_cycles(platform) as f64,
        update_hcr_el2: model.hcr_el2_write as f64,
        update_vttbr_el2: model.vttbr_el2_write as f64,
    }
}

fn yield_loop(n: u64) -> Program {
    let mut a = Asm::new(CODE);
    a.mov_imm64(23, n);
    a.mov_imm64(8, Sysno::Yield.nr());
    let top = a.label();
    a.bind(top);
    a.svc(0);
    a.subs_imm(23, 23, 1);
    a.b_ne(top);
    a.mov_imm64(0, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    Program::from_code(CODE, a.bytes())
}

/// Empty-syscall round trip for an ordinary process (Table 4 rows 1–2).
pub fn vanilla_syscall_cycles(platform: Platform, deploy: Deployment) -> f64 {
    let run = |n: u64| {
        let mut k = match deploy {
            Deployment::Host => lz_kernel::Kernel::new_host(platform),
            Deployment::Guest => lz_kernel::Kernel::new_guest(platform),
        };
        let pid = k.spawn(&yield_loop(n));
        k.enter_process(pid);
        assert_eq!(k.run(RUN_LIMIT), lz_kernel::Event::Exited(0));
        k.machine.cpu.cycles
    };
    slope(run(1000), run(2000), 1000)
}

/// Empty-syscall round trip for a LightZone process (Table 4 rows 3–4).
pub fn lz_syscall_cycles(platform: Platform, deploy: Deployment) -> f64 {
    lz_syscall_cycles_with(platform, deploy, lightzone::AblationConfig::default())
}

/// Same, with ablation knobs (used by the ablation bench).
pub fn lz_syscall_cycles_with(platform: Platform, deploy: Deployment, ablation: lightzone::AblationConfig) -> f64 {
    let run = |n: u64| {
        let mut b = LzProgramBuilder::new(CODE);
        b.asm.lz_enter(true, SAN_TTBR);
        b.asm.mov_imm64(23, n);
        b.asm.mov_imm64(8, Sysno::Yield.nr());
        let top = b.asm.label();
        b.asm.bind(top);
        b.asm.svc(0);
        b.asm.subs_imm(23, 23, 1);
        b.asm.b_ne(top);
        b.asm.exit_imm(0);
        let prog = b.build();
        let mut lz = LightZone::with_ablation(platform, deploy == Deployment::Guest, ablation);
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run(RUN_LIMIT), lz_kernel::Event::Exited(0));
        lz.kernel.machine.cpu.cycles
    };
    slope(run(1000), run(2000), 1000)
}

/// A conventional KVM (VHE) hypercall: full world switch out and back
/// (Table 4 row 5). The guest kernel is modelled, so this composes the
/// same charges the world-switch path makes.
pub fn kvm_hypercall_cycles(platform: Platform) -> u64 {
    let mut m = Machine::new(platform);
    m.charge(m.model.exception_entry_el2);
    lz_kernel::kvm::charge_full_world_switch(&mut m);
    let handler = m.model.path_cost(54);
    m.charge(handler);
    m.charge(m.model.exception_return_el2);
    m.cpu.cycles
}

// ---------------------------------------------------------------------
// Table 5: domain switching.
// ---------------------------------------------------------------------

/// Build the random `(target, page)` sequence shared by the switch
/// benchmarks: `n` pairs over `domains` domains.
fn switch_sequence(domains: usize, n: usize, target: impl Fn(usize) -> u64) -> (Vec<u8>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut bytes = Vec::with_capacity(n * 16);
    let mut picks = Vec::with_capacity(n);
    for _ in 0..n {
        let d = rng.random_range(0..domains);
        picks.push(d);
        bytes.extend_from_slice(&target(d).to_le_bytes());
        bytes.extend_from_slice(&(DOM_BASE + d as u64 * PAGE_SIZE).to_le_bytes());
    }
    (bytes, picks)
}

/// Average cycles of a PAN domain switch + 8-byte access (Table 5 column
/// "1 (PAN)"): `set_pan(0); load; set_pan(1)`.
pub fn pan_switch_cycles(platform: Platform, deploy: Deployment) -> f64 {
    let run = |n: u64| {
        let mut b = LzProgramBuilder::new(CODE);
        b.with_segment(DOM_BASE, vec![0u8; PAGE_SIZE as usize], lz_kernel::VmProt::RW);
        b.asm.lz_enter(false, SAN_PAN);
        b.asm.lz_prot_imm(DOM_BASE, PAGE_SIZE, lightzone::pgt::PGT_ALL, RW | lightzone::pgt::perm::USER);
        b.asm.mov_imm64(19, DOM_BASE);
        b.asm.mov_imm64(23, n);
        let top = b.asm.label();
        b.asm.bind(top);
        b.asm.set_pan(0);
        b.asm.ldr(1, 19, 0);
        b.asm.set_pan(1);
        b.asm.subs_imm(23, 23, 1);
        b.asm.b_ne(top);
        b.asm.exit_imm(0);
        let prog = b.build();
        let mut lz = match deploy {
            Deployment::Host => LightZone::new_host(platform),
            Deployment::Guest => LightZone::new_guest(platform),
        };
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run(RUN_LIMIT), lz_kernel::Event::Exited(0));
        lz.kernel.machine.cpu.cycles
    };
    slope(run(4000), run(8000), 4000)
}

/// Average cycles of a TTBR domain switch (secure call gate) + 8-byte
/// access, over `domains` randomly-switched 4 KB domains (Table 5).
pub fn ttbr_switch_cycles(platform: Platform, deploy: Deployment, domains: usize) -> f64 {
    ttbr_switch_cycles_with(platform, deploy, domains, lightzone::AblationConfig::default())
}

/// Same, with ablation knobs (used by the ablation bench).
pub fn ttbr_switch_cycles_with(
    platform: Platform,
    deploy: Deployment,
    domains: usize,
    ablation: lightzone::AblationConfig,
) -> f64 {
    assert!(domains >= 1 && domains <= u16::MAX as usize);
    // One sequence image sized for the longest run, so both slope points
    // fault the identical set of sequence pages during warm-up.
    const N_MAX: usize = 10_000;
    let (seq, _) = switch_sequence(domains, N_MAX, |d| lightzone::gate::layout::gate_va(d as u16));
    let run = |n: usize| {
        assert!(n <= N_MAX);
        let mut b = LzProgramBuilder::new(CODE);
        b.with_segment(SEQ_BASE, seq.clone(), lz_kernel::VmProt::R);
        b.with_segment(DOM_BASE, vec![0u8; (domains as u64 * PAGE_SIZE) as usize], lz_kernel::VmProt::RW);
        b.asm.lz_enter(true, SAN_TTBR);
        // Setup: one table + gate + 4 KB domain per d. lz_alloc returns
        // deterministic ids 1..=domains.
        for d in 0..domains as u64 {
            b.asm.lz_alloc();
            b.asm.lz_map_gate_pgt_imm(d + 1, d);
            b.asm.lz_prot_imm(DOM_BASE + d * PAGE_SIZE, PAGE_SIZE, d + 1, RW);
        }
        // Prefault the sequence pages so the measured loop sees no
        // cold demand-paging traps (the paper's warm-up phase).
        let seq_pages = (N_MAX * 16).div_ceil(PAGE_SIZE as usize) as u64;
        b.asm.mov_imm64(21, SEQ_BASE);
        b.asm.mov_imm64(23, seq_pages);
        let warm = b.asm.label();
        b.asm.bind(warm);
        b.asm.ldr(1, 21, 0);
        b.asm.add_imm(21, 21, 4095);
        b.asm.add_imm(21, 21, 1);
        b.asm.subs_imm(23, 23, 1);
        b.asm.b_ne(warm);
        b.asm.mov_imm64(21, SEQ_BASE);
        b.asm.mov_imm64(23, n as u64);
        let top = b.asm.label();
        b.asm.bind(top);
        b.asm.ldr(17, 21, 0); // gate address
        b.asm.ldr(19, 21, 8); // domain page
        b.asm.add_imm(21, 21, 16);
        b.asm.blr(17);
        let entry = b.here(); // ENTRY for every gate: the insn after blr
        b.asm.ldr(1, 19, 0); // 8-byte access in the new domain
        b.asm.subs_imm(23, 23, 1);
        b.asm.b_ne(top);
        b.asm.exit_imm(0);
        for g in 0..domains as u16 {
            b.register_gate_entry(g, entry);
        }
        let prog = b.build();
        let mut lz = lightzone::LightZone::with_ablation(platform, deploy == Deployment::Guest, ablation);
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run(RUN_LIMIT), lz_kernel::Event::Exited(0));
        lz.kernel.machine.cpu.cycles
    };
    // 10,000 switches as in the paper (quartered in debug builds),
    // slope over the second half.
    if cfg!(debug_assertions) {
        slope(run(1_250), run(2_500), 1_250)
    } else {
        slope(run(5_000), run(10_000), 5_000)
    }
}

/// Average cycles of a Watchpoint (ioctl) domain switch + access.
///
/// # Panics
///
/// Panics if `domains > 16` — the prototype's hard limit.
pub fn wp_switch_cycles(platform: Platform, deploy: Deployment, domains: usize) -> f64 {
    assert!(domains <= 16, "watchpoint prototype supports at most 16 domains");
    const N_MAX: usize = 4_000;
    let (seq, _) = switch_sequence(domains, N_MAX, |d| d as u64);
    let run = |n: usize| {
        assert!(n <= N_MAX);
        let seq = seq.clone();
        let mut a = Asm::new(CODE);
        let prog_data: Vec<(u64, Vec<u8>)> =
            vec![(SEQ_BASE, seq), (DOM_BASE, vec![0u8; (domains as u64 * PAGE_SIZE) as usize])];
        a.mov_imm64(8, custom::WP_ENTER);
        a.svc(0);
        for d in 0..domains as u64 {
            a.mov_imm64(0, DOM_BASE + d * PAGE_SIZE);
            a.mov_imm64(1, PAGE_SIZE);
            a.mov_imm64(8, custom::WP_PROT);
            a.svc(0);
        }
        let seq_pages = (N_MAX * 16).div_ceil(PAGE_SIZE as usize) as u64;
        a.mov_imm64(21, SEQ_BASE);
        a.mov_imm64(23, seq_pages);
        let warm = a.label();
        a.bind(warm);
        a.ldr(1, 21, 0);
        a.add_imm(21, 21, 4095);
        a.add_imm(21, 21, 1);
        a.subs_imm(23, 23, 1);
        a.b_ne(warm);
        a.mov_imm64(21, SEQ_BASE);
        a.mov_imm64(23, n as u64);
        let top = a.label();
        a.bind(top);
        a.ldr(0, 21, 0); // domain index
        a.ldr(19, 21, 8); // domain page
        a.add_imm(21, 21, 16);
        a.mov_imm64(8, custom::WP_SWITCH);
        a.svc(0);
        a.ldr(1, 19, 0);
        a.subs_imm(23, 23, 1);
        a.b_ne(top);
        a.mov_imm64(0, 0);
        a.mov_imm64(8, Sysno::Exit.nr());
        a.svc(0);
        let mut prog = Program::from_code(CODE, a.bytes());
        for (va, data) in prog_data {
            prog = prog.with_segment(va, data, lz_kernel::VmProt::RW);
        }
        let mut bl = match deploy {
            Deployment::Host => Baselines::new_host(platform),
            Deployment::Guest => Baselines::new_guest(platform),
        };
        let pid = bl.spawn(&prog);
        bl.enter_process(pid);
        assert_eq!(bl.run(RUN_LIMIT), lz_kernel::Event::Exited(0));
        bl.kernel.machine.cpu.cycles
    };
    slope(run(2_000), run(4_000), 2_000)
}

/// Average cycles of an lwC domain switch + access.
pub fn lwc_switch_cycles(platform: Platform, deploy: Deployment, domains: usize) -> f64 {
    const N_MAX: usize = 4_000;
    let (seq, _) = switch_sequence(domains, N_MAX, |d| d as u64);
    let run =
        |n: usize| {
            assert!(n <= N_MAX);
            let seq = seq.clone();
            let mut a = Asm::new(CODE);
            for _ in 0..domains {
                a.mov_imm64(8, custom::LWC_CREATE);
                a.svc(0);
            }
            let seq_pages = (N_MAX * 16).div_ceil(PAGE_SIZE as usize) as u64;
            a.mov_imm64(21, SEQ_BASE);
            a.mov_imm64(23, seq_pages);
            let warm = a.label();
            a.bind(warm);
            a.ldr(1, 21, 0);
            a.add_imm(21, 21, 4095);
            a.add_imm(21, 21, 1);
            a.subs_imm(23, 23, 1);
            a.b_ne(warm);
            a.mov_imm64(21, SEQ_BASE);
            a.mov_imm64(23, n as u64);
            let top = a.label();
            a.bind(top);
            a.ldr(0, 21, 0);
            a.ldr(19, 21, 8);
            a.add_imm(21, 21, 16);
            a.mov_imm64(8, custom::LWC_SWITCH);
            a.svc(0);
            a.ldr(1, 19, 0);
            a.subs_imm(23, 23, 1);
            a.b_ne(top);
            a.mov_imm64(0, 0);
            a.mov_imm64(8, Sysno::Exit.nr());
            a.svc(0);
            let prog = Program::from_code(CODE, a.bytes())
                .with_segment(SEQ_BASE, seq, lz_kernel::VmProt::R)
                .with_segment(DOM_BASE, vec![0u8; (domains as u64 * PAGE_SIZE) as usize], lz_kernel::VmProt::RW);
            let mut bl = match deploy {
                Deployment::Host => Baselines::new_host(platform),
                Deployment::Guest => Baselines::new_guest(platform),
            };
            let pid = bl.spawn(&prog);
            bl.enter_process(pid);
            assert_eq!(bl.run(RUN_LIMIT), lz_kernel::Event::Exited(0));
            bl.kernel.machine.cpu.cycles
        };
    slope(run(2_000), run(4_000), 2_000)
}

fn slope(c1: u64, c2: u64, dn: u64) -> f64 {
    (c2.saturating_sub(c1)) as f64 / dn as f64
}

// ---------------------------------------------------------------------
// Primitives for the application-workload models.
// ---------------------------------------------------------------------

/// Measured cost primitives for one `(platform, deployment)` cell, used
/// by the Figure 3–5 workload models.
#[derive(Debug, Clone)]
pub struct Primitives {
    pub platform: Platform,
    pub deploy: Deployment,
    /// Empty syscall round trip, ordinary process.
    pub vanilla_syscall: f64,
    /// Empty syscall round trip, LightZone process.
    pub lz_syscall: f64,
    /// PAN switch + access.
    pub pan_switch: f64,
    /// TTBR gate switch + access at the given domain count.
    pub ttbr_switch: f64,
    /// Watchpoint ioctl switch + access.
    pub wp_switch: f64,
    /// lwC switch + access.
    pub lwc_switch: f64,
    /// Extra walk cost a stage-2-backed TLB miss pays over a host miss.
    pub stage2_extra_walk: f64,
}

impl Primitives {
    /// Measure everything for one cell. `ttbr_domains` sets the domain
    /// count for the TTBR measurement (and is clamped to 16 for the
    /// watchpoint prototype).
    pub fn measure(platform: Platform, deploy: Deployment, ttbr_domains: usize) -> Self {
        let model = platform.model();
        Primitives {
            platform,
            deploy,
            vanilla_syscall: vanilla_syscall_cycles(platform, deploy),
            lz_syscall: lz_syscall_cycles(platform, deploy),
            pan_switch: pan_switch_cycles(platform, deploy),
            ttbr_switch: ttbr_switch_cycles(platform, deploy, ttbr_domains),
            wp_switch: wp_switch_cycles(platform, deploy, ttbr_domains.min(16)),
            lwc_switch: lwc_switch_cycles(platform, deploy, ttbr_domains),
            stage2_extra_walk: (model.nested_walk() - model.stage1_walk()) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Microbenchmarks interpret tens of thousands of instructions; keep
    // the unit-test variants small and leave full sizes to the bench
    // harness.

    #[test]
    fn host_syscall_near_table4() {
        let c = vanilla_syscall_cycles(Platform::Carmel, Deployment::Host);
        assert!((3000.0..4700.0).contains(&c), "carmel host syscall = {c}");
        let a = vanilla_syscall_cycles(Platform::CortexA55, Deployment::Host);
        assert!((200.0..450.0).contains(&a), "a55 host syscall = {a}");
    }

    #[test]
    fn guest_syscall_near_table4() {
        let c = vanilla_syscall_cycles(Platform::Carmel, Deployment::Guest);
        assert!((1000.0..1900.0).contains(&c), "carmel guest syscall = {c}");
    }

    #[test]
    fn lz_host_trap_cheaper_than_host_syscall_on_carmel() {
        let host = vanilla_syscall_cycles(Platform::Carmel, Deployment::Host);
        let lz = lz_syscall_cycles(Platform::Carmel, Deployment::Host);
        assert!(lz < host, "Table 4 headline: {lz} < {host}");
    }

    #[test]
    fn lz_host_trap_pricier_than_host_syscall_on_a55() {
        let host = vanilla_syscall_cycles(Platform::CortexA55, Deployment::Host);
        let lz = lz_syscall_cycles(Platform::CortexA55, Deployment::Host);
        assert!(lz > host, "A55 inverts: {lz} > {host}");
    }

    #[test]
    fn pan_switch_is_tens_of_cycles() {
        let c = pan_switch_cycles(Platform::Carmel, Deployment::Host);
        assert!((10.0..40.0).contains(&c), "carmel pan switch = {c}");
        let a = pan_switch_cycles(Platform::CortexA55, Deployment::Host);
        assert!((5.0..25.0).contains(&a), "a55 pan switch = {a}");
    }

    #[test]
    fn ttbr_switch_small_domain_count() {
        let a = ttbr_switch_cycles(Platform::CortexA55, Deployment::Host, 2);
        assert!((40.0..120.0).contains(&a), "a55 ttbr switch = {a}");
    }

    #[test]
    fn wp_switch_dwarfs_ttbr() {
        let wp = wp_switch_cycles(Platform::CortexA55, Deployment::Host, 2);
        let ttbr = ttbr_switch_cycles(Platform::CortexA55, Deployment::Host, 2);
        assert!(wp > 5.0 * ttbr, "wp {wp} vs ttbr {ttbr}");
    }

    #[test]
    fn kvm_hypercall_in_band() {
        let c = kvm_hypercall_cycles(Platform::Carmel);
        assert!((22_000..36_000).contains(&c), "carmel hypercall = {c}");
        let a = kvm_hypercall_cycles(Platform::CortexA55);
        assert!((900..1_800).contains(&a), "a55 hypercall = {a}");
    }
}
