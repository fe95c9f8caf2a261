//! SMP: an N-core machine with TLBI broadcast and IPI shootdown.
//!
//! Each core owns its architectural CPU state ([`Cpu`]) and its private
//! translation caches ([`Tlb`], which embeds the compiled-block icache);
//! all cores share one [`PhysMem`](crate::PhysMem). Outside an epoch
//! exactly one core — the **active** core, whose state lives directly
//! in [`Machine::cpu`]/[`Machine::tlb`] — executes, and
//! [`Machine::switch_core`] swaps which one that is. This keeps every
//! existing single-core call site working unchanged. N-core runs are
//! byte-reproducible: for a fixed schedule of epochs (below) a run is a
//! pure function of the initial state.
//!
//! # Coherence model
//!
//! Three propagation mechanisms are modelled (see DESIGN.md §9):
//!
//! * **DVM broadcast** — an interpreted Inner Shareable TLBI
//!   (`TLBI VAE1IS`, …) invalidates the matching entries in *every*
//!   core's TLB, as the interconnect's distributed-virtual-memory
//!   messages would. Local forms (`TLBI VAE1`) touch only the issuing
//!   core. No extra cycles are charged: DVM completion is absorbed in
//!   the `DSB` the issuer already pays.
//! * **IPI shootdown** — modelled kernel software uses
//!   [`Machine::shootdown_va`] (and the vmid/asid variants) for
//!   break-before-make, `munmap`, and `mprotect`. Each remote core
//!   charges the issuer one `dsb`-equivalent round trip (doorbell +
//!   wait-for-ack) and bumps the `shootdowns_sent`/`shootdowns_acked`
//!   counters; journal events `Ipi` and `Shootdown` record the traffic.
//!   On a single-core machine there are no remote cores, so these calls
//!   degenerate to exactly the pre-SMP local invalidate — cycle counts
//!   of existing single-core workloads are unchanged.
//! * **Physical-write icache invalidation** — the compiled-block icache
//!   validates entries against the shared `PhysMem` write generation
//!   and per-frame versions on every block lookup, so a store on core A
//!   retires (by content check) stale compiled blocks on core B
//!   without any explicit message. This holds by construction; see
//!   `icache::PageEntry` and the `smp` integration tests.
//!
//! What is *not* modelled: weak-memory reordering. Interleaved
//! execution is sequentially consistent at instruction granularity.
//!
//! # Epochs: true parallel host execution
//!
//! [`Machine::run_epoch`] runs one quantum on every core at once: each
//! core with a nonzero budget runs in a private *shell* machine (its
//! own `Cpu`/`Tlb`/icache/JIT cache plus a copy-on-write
//! [`PhysMem`](crate::PhysMem) view), and all cross-core effects
//! commit at the quantum barrier in core order — shared-memory write
//! overlays merge with deterministically re-stamped write generations,
//! deferred Inner-Shareable TLBIs reach the other cores' TLBs, chaos
//! deltas and journal/trace/metric streams fold into the globals. With
//! [`Machine::set_parallel`] on (`LZ_PARALLEL`, the default) the
//! calling thread runs the first shell while the machine's parked
//! helper threads claim the others; a shell no helper has claimed by
//! the time the caller is free runs on the caller (the caller-runs
//! protocol of `helpers.rs`). Off, the same loop runs without helpers:
//! every shell on the caller, in core order — the deterministic-replay
//! verification mode. The schedule of epochs and the commit order are
//! the same in both modes, so cycles, journals, and counters are
//! byte-identical (CI runs both and compares; see DESIGN.md §15).
//! The budgets come from the epoch drivers outside this crate: the
//! kernel's thread scheduler (`Kernel::run_smp`), and the fleet's wave
//! drain (on every core count) and the crash-recovery soak, which commit
//! each core's exit through one barrier call, `LightZone::dispatch_on`.

use crate::cpu::{Cpu, Exit, Machine};
use crate::helpers::{Helpers, Task};
use crate::metrics::{EventKind, MachineMetrics, Section};
use crate::tlb::Tlb;
use lz_arch::tlbi::{self, TlbiOp, TlbiScope};

/// Hard cap on the number of cores (per-core metric section names are
/// static strings).
pub const MAX_CORES: usize = 8;

/// Static names for the per-core metric sections.
pub(crate) const CORE_NAMES: [&str; MAX_CORES] =
    ["core0", "core1", "core2", "core3", "core4", "core5", "core6", "core7"];

/// A parked core: the architectural state and private translation
/// caches of a core that is not currently executing.
#[derive(Debug)]
pub struct CoreCtx {
    pub cpu: Cpu,
    pub tlb: Tlb,
}

/// An Inner-Shareable TLBI issued in a shell: `(op, vmid, xt)`.
pub(crate) type DeferredTlbi = (TlbiOp, u16, u64);

/// Per-shell epoch context: the cross-core effects one shell deferred
/// to the barrier.
#[derive(Debug, Default)]
pub(crate) struct EpochCtx {
    /// Inner-Shareable TLBIs issued in-shell. The issuing core's local
    /// invalidate already happened inside the shell; the DVM half
    /// (remote cores) commits at the barrier.
    pub(crate) deferred_tlbi: Vec<DeferredTlbi>,
}

/// SMP bookkeeping embedded in [`Machine`]: the parked cores plus the
/// cross-core traffic counters.
#[derive(Debug)]
pub struct SmpState {
    /// One slot per core; the active core's slot is `None` (its state
    /// lives directly in `Machine::{cpu,tlb}`).
    pub(crate) cores: Vec<Option<CoreCtx>>,
    pub(crate) active: usize,
    /// Cached per-core chaos forks for epoch shells (cores > 0; core 0
    /// uses the global engine). Tagged with the plan-installation
    /// generation so a new plan re-forks lazily.
    pub(crate) chaos_forks: Vec<Option<(u64, crate::chaos::ChaosState)>>,
    /// IPI shootdown requests sent to remote cores.
    pub shootdowns_sent: u64,
    /// IPI shootdown acknowledgements received (the model acks
    /// synchronously, so this always equals `shootdowns_sent`).
    pub shootdowns_acked: u64,
    /// Total inter-processor interrupts sent.
    pub ipis_sent: u64,
    /// Remote-core invalidations performed by Inner Shareable TLBIs
    /// (hardware DVM, no IPI involved).
    pub tlbi_broadcasts: u64,
    /// Epochs executed (each [`Machine::run_epoch`] call, including
    /// single-active-core epochs that bypass the shell machinery).
    pub epochs: u64,
    /// Core-epochs spent idle: cores with a zero budget while at least
    /// one other core ran (scheduler had no work to hand them).
    pub epoch_waits: u64,
    /// Epochs a core ended early (non-`Limit` exit): the barrier
    /// committed before the quantum was exhausted, stalling the other
    /// shells at the commit point.
    pub barrier_stalls: u64,
    /// Frames written by more than one core in the same epoch (the
    /// last core in commit order wins; see `PhysMem::merge_epoch`).
    pub phys_merge_conflicts: u64,
    /// Host panics caught at the epoch-shell boundary and converted
    /// into [`Exit::HostPanic`] (each kills exactly the VE that was
    /// running on the panicking core; the other shells commit
    /// normally).
    pub shell_panics: u64,
    /// Host threads that run epoch shells beside the caller; empty (no
    /// allocation, no thread) until the first parallel epoch with two
    /// or more shells, joined when this state drops.
    pub(crate) helpers: Helpers<ShellTask>,
}

impl Default for SmpState {
    fn default() -> Self {
        SmpState {
            cores: vec![None],
            active: 0,
            chaos_forks: vec![None],
            shootdowns_sent: 0,
            shootdowns_acked: 0,
            ipis_sent: 0,
            tlbi_broadcasts: 0,
            epochs: 0,
            epoch_waits: 0,
            barrier_stalls: 0,
            phys_merge_conflicts: 0,
            shell_panics: 0,
            helpers: Helpers::default(),
        }
    }
}

/// Run one core's epoch quantum behind a host-panic firewall: a panic
/// anywhere inside `shell.run` is caught at the shell boundary,
/// journaled as a priority `Violation` event, and surfaced as
/// [`Exit::HostPanic`] so the layer owning the running VE can convert
/// it into a typed [`crate::chaos::LzFault::HostPanic`] kill. The
/// shell's state up to the panic point commits at the barrier like any
/// other early exit; panics never cross the barrier, so the other
/// shells commit normally and the process stays up.
///
/// Every shell runs only through this helper — on the caller or a
/// helper thread, in parallel epochs or in replay — so a deterministic
/// panic (e.g. the [`Machine::set_panic_after`] hook) produces
/// byte-identical results whichever thread ran the shell.
fn run_shell_contained(shell: &mut Machine, budget: u64) -> (Exit, u64) {
    let before = shell.cpu.insns;
    let exit = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shell.run(budget))) {
        Ok(exit) => exit,
        Err(_) => {
            shell.record_event(EventKind::Violation { reason: crate::chaos::LzFault::HostPanic.reason() });
            Exit::HostPanic
        }
    };
    (exit, shell.cpu.insns - before)
}

/// One core's share of an epoch: its shell machine and instruction
/// budget. Runs on the caller or on a helper thread.
pub(crate) struct ShellTask {
    core: usize,
    shell: Machine,
    budget: u64,
}

impl Task for ShellTask {
    /// The task after its quantum, with the shell's exit and the
    /// instructions it retired.
    type Output = (ShellTask, Exit, u64);

    fn run(mut self) -> Self::Output {
        let (exit, used) = run_shell_contained(&mut self.shell, self.budget);
        (self, exit, used)
    }
}

/// Apply one decoded TLBI operation to a single core's TLB.
pub(crate) fn apply_tlbi(tlb: &mut Tlb, op: TlbiOp, vmid: u16, xt: u64) {
    match op.scope {
        // Stage-2 and all-of-EL1 scopes collapse to a VMID flush: the
        // TLB is tagged (vmid, asid, va) without separate IPA entries.
        TlbiScope::AllE1 | TlbiScope::AllS12 | TlbiScope::Ipa => tlb.invalidate_vmid(vmid),
        TlbiScope::Va | TlbiScope::VaAllAsid => tlb.invalidate_va(vmid, tlbi::xt_va(xt)),
        TlbiScope::Asid => tlb.invalidate_asid(vmid, tlbi::xt_asid(xt)),
    }
}

impl Machine {
    /// Bring `n` cores online. The currently-active architectural state
    /// becomes core 0; secondary cores boot with a copy of core 0's
    /// system registers (the modelled firmware programs every core
    /// identically) and cold private caches. Resets the SMP counters.
    pub fn configure_smp(&mut self, n: usize) {
        assert!((1..=MAX_CORES).contains(&n), "1..={MAX_CORES} cores supported");
        let mut cores: Vec<Option<CoreCtx>> = Vec::with_capacity(n);
        cores.push(None); // this core is core 0 and stays active
        for _ in 1..n {
            let mut tlb = Tlb::with_l1(self.model.tlb_l1_entries, self.model.tlb_entries);
            tlb.set_accel(self.tlb.accel());
            cores.push(Some(CoreCtx { cpu: self.cpu.fork_boot_state(), tlb }));
        }
        let chaos_forks = (0..n).map(|_| None).collect();
        self.smp = SmpState { cores, chaos_forks, ..SmpState::default() };
    }

    /// Number of cores online (1 unless [`Machine::configure_smp`] ran).
    pub fn num_cores(&self) -> usize {
        self.smp.cores.len()
    }

    /// Index of the core whose state is live in `Machine::{cpu,tlb}`.
    pub fn active_core(&self) -> usize {
        self.smp.active
    }

    /// The SMP counters.
    pub fn smp(&self) -> &SmpState {
        &self.smp
    }

    /// Make core `i` the active core, parking the current one; its
    /// system registers, and so its translation regime, become live.
    pub fn switch_core(&mut self, i: usize) {
        assert!(i < self.smp.cores.len(), "core {i} not configured");
        if i == self.smp.active {
            return;
        }
        let target = self.smp.cores[i].take().expect("inactive core is parked");
        let cpu = std::mem::replace(&mut self.cpu, target.cpu);
        let tlb = std::mem::replace(&mut self.tlb, target.tlb);
        let prev = self.smp.active;
        self.smp.cores[prev] = Some(CoreCtx { cpu, tlb });
        self.smp.active = i;
    }

    /// A core's architectural state (active or parked).
    pub fn core_cpu(&self, i: usize) -> &Cpu {
        if i == self.smp.active {
            &self.cpu
        } else {
            &self.smp.cores[i].as_ref().expect("inactive core is parked").cpu
        }
    }

    /// A core's TLB (active or parked).
    pub fn core_tlb(&self, i: usize) -> &Tlb {
        if i == self.smp.active {
            &self.tlb
        } else {
            &self.smp.cores[i].as_ref().expect("inactive core is parked").tlb
        }
    }

    /// DVM propagation of an interpreted Inner Shareable TLBI: apply
    /// the same invalidation to every remote core's TLB. Inside an
    /// epoch shell the remote TLBs belong to other shells, so the
    /// broadcast is deferred and commits at the barrier instead.
    pub(crate) fn dvm_broadcast(&mut self, op: TlbiOp, vmid: u16, xt: u64) {
        if let Some(epoch) = self.epoch.as_mut() {
            epoch.deferred_tlbi.push((op, vmid, xt));
            return;
        }
        let active = self.smp.active;
        let mut n = 0;
        for (i, slot) in self.smp.cores.iter_mut().enumerate() {
            if i == active {
                continue;
            }
            let core = slot.as_mut().expect("inactive core is parked");
            apply_tlbi(&mut core.tlb, op, vmid, xt);
            n += 1;
        }
        self.smp.tlbi_broadcasts += n;
    }

    /// Cross-core TLB shootdown of one page: local invalidate plus an
    /// IPI round trip to every remote core. See the module docs for the
    /// cost and counter model.
    pub fn shootdown_va(&mut self, vmid: u16, va: u64) {
        self.tlb.invalidate_va(vmid, va);
        self.shootdown_remote(vmid, va, |tlb| tlb.invalidate_va(vmid, va));
    }

    /// Cross-core shootdown of a whole VMID.
    pub fn shootdown_vmid(&mut self, vmid: u16) {
        self.tlb.invalidate_vmid(vmid);
        self.shootdown_remote(vmid, 0, |tlb| tlb.invalidate_vmid(vmid));
    }

    /// Cross-core shootdown of one ASID.
    pub fn shootdown_asid(&mut self, vmid: u16, asid: u16) {
        self.tlb.invalidate_asid(vmid, asid);
        self.shootdown_remote(vmid, 0, |tlb| tlb.invalidate_asid(vmid, asid));
    }

    fn shootdown_remote(&mut self, vmid: u16, page: u64, f: impl Fn(&mut Tlb)) {
        use crate::chaos::FaultSite;
        let active = self.smp.active;
        let remotes: Vec<usize> = (0..self.smp.cores.len()).filter(|&i| i != active).collect();
        if remotes.is_empty() {
            return; // single core: exactly the pre-SMP local invalidate
        }
        let mut extra_cycles = 0u64;
        let mut extra_ipis = 0u64;
        for &i in &remotes {
            // Injected doorbell faults. All three fail closed because
            // the shootdown protocol is synchronous: the issuing core
            // waits for every ack, so a *dropped* doorbell is detected
            // by the ack timeout and re-sent (the invalidation below
            // still runs before we return), a *duplicated* one re-runs
            // an idempotent invalidation, and a *delayed* ack only
            // stretches the wait. None of them can leave a remote TLB
            // holding a translation this shootdown was meant to kill.
            if self.chaos_fire(FaultSite::ShootdownDrop).is_some() {
                extra_cycles += self.model.dsb;
                extra_ipis += 1;
                self.record_event(EventKind::Ipi { from: active as u8, to: i as u8 });
                self.chaos.contained();
            }
            let dup = self.chaos_fire(FaultSite::ShootdownDup).is_some();
            if self.chaos_fire(FaultSite::ShootdownDelay).is_some() {
                extra_cycles += self.model.dsb;
                self.chaos.contained();
            }
            let core = self.smp.cores[i].as_mut().expect("inactive core is parked");
            f(&mut core.tlb);
            if dup {
                f(&mut core.tlb);
                self.chaos.contained();
            }
        }
        let n = remotes.len() as u64;
        self.smp.ipis_sent += n + extra_ipis;
        self.smp.shootdowns_sent += n;
        self.smp.shootdowns_acked += n;
        // One doorbell + wait-for-ack round trip per remote core,
        // charged to the issuing core (plus any injected retries and
        // delays).
        self.charge(n * self.model.dsb + extra_cycles);
        for &i in &remotes {
            self.record_event(EventKind::Ipi { from: active as u8, to: i as u8 });
        }
        self.record_event(EventKind::Shootdown { vmid, page, targets: n as u8 });
    }

    /// Execute one epoch: every core with a nonzero budget runs up to
    /// that many instructions in a private shell (its own `Cpu`/`Tlb`
    /// and a copy-on-write view of physical memory); all cross-core
    /// effects commit at the barrier in core order. Returns each
    /// core's `(exit, instructions_retired)`; zero-budget cores report
    /// `(Exit::Limit, 0)` without running.
    ///
    /// The epoch schedule *is* the SMP semantics, wherever a shell
    /// runs: with [`Machine::set_parallel`] on, the calling thread runs
    /// the first shell and this machine's parked helper threads (started
    /// on the first such epoch, up to `cores − 1`) claim the rest; the
    /// caller then runs every shell no helper has claimed yet and blocks
    /// until the claimed ones finish. Off, the same loop runs with no
    /// helpers: every shell on the caller in core order —
    /// deterministic replay. Because the shells are isolated and the
    /// barrier commits in core order either way, every modelled
    /// quantity is byte-identical across modes.
    ///
    /// Epochs with at most one active core bypass the shell machinery
    /// and run in place — exactly the pre-epoch single-core path, so
    /// serial workloads see no allocation or bookkeeping overhead.
    pub fn run_epoch(&mut self, budgets: &[u64]) -> Vec<(Exit, u64)> {
        let n = self.num_cores();
        assert_eq!(budgets.len(), n, "one budget per core");
        let mut results = vec![(Exit::Limit, 0u64); n];
        let order: Vec<usize> = (0..n).filter(|&c| budgets[c] > 0).collect();
        self.smp.epochs += 1;
        if !order.is_empty() {
            self.smp.epoch_waits += (n - order.len()) as u64;
        }
        if order.len() <= 1 {
            if let Some(&c) = order.first() {
                self.switch_core(c);
                let (exit, used) = run_shell_contained(self, budgets[c]);
                results[c] = (exit, used);
                if exit != Exit::Limit {
                    self.smp.barrier_stalls += 1;
                }
                if exit == Exit::HostPanic {
                    self.smp.shell_panics += 1;
                }
            }
            return results;
        }

        // Refresh per-core chaos forks (cores > 0) while the global
        // engine is still in place; core 0's shell takes the global
        // engine itself, so single-core fault streams are exactly the
        // pre-epoch schedules.
        let chaos_gen = self.chaos.install_gen();
        for &c in &order {
            if c == 0 {
                continue;
            }
            let fresh = matches!(&self.smp.chaos_forks[c], Some((g, _)) if *g == chaos_gen);
            if !fresh {
                self.smp.chaos_forks[c] = Some((chaos_gen, self.chaos.fork_for_core(c)));
            }
        }

        // Park the active core so every core is uniformly in its slot.
        let active = self.smp.active;
        let parked_cpu = std::mem::replace(&mut self.cpu, Cpu::new());
        let parked_tlb = std::mem::replace(&mut self.tlb, Tlb::with_l1(1, 1));
        self.smp.cores[active] = Some(CoreCtx { cpu: parked_cpu, tlb: parked_tlb });

        // Assemble one shell machine per active core.
        let mut work: Vec<ShellTask> = Vec::with_capacity(order.len());
        for &c in &order {
            let Some(ctx) = self.smp.cores[c].take() else { continue };
            let chaos = if c == 0 {
                std::mem::take(&mut self.chaos)
            } else {
                match self.smp.chaos_forks[c].take() {
                    Some((_, fork)) => fork,
                    None => crate::chaos::ChaosState::default(),
                }
            };
            work.push(ShellTask {
                core: c,
                budget: budgets[c],
                shell: Machine {
                    mem: self.mem.epoch_view(),
                    tlb: ctx.tlb,
                    cpu: ctx.cpu,
                    model: self.model.clone(),
                    trace: self.trace.fork(),
                    journal: self.journal.fork(),
                    metrics: MachineMetrics::default(),
                    el1_external: self.el1_external,
                    parallel: false,
                    epoch: Some(EpochCtx::default()),
                    smp: SmpState::default(),
                    chaos,
                    panic_after: self.panic_after,
                },
            });
        }

        // Run the shells: the caller takes the first and whatever no
        // helper claims; without helpers (replay) it runs them all in
        // core order. Shells share nothing mutable, so which thread ran
        // which shell changes nothing, and the results come back in core
        // order either way.
        let done = self.smp.helpers.run(work, self.parallel);

        // Barrier: dismantle shells and commit cross-core effects in
        // core order — memory overlays first (exit handlers such as
        // futex re-read user memory through the merged view), then
        // deferred TLBI broadcasts, chaos deltas, and the
        // journal/trace/metric streams.
        let mut overlays = Vec::with_capacity(done.len());
        let mut deferred: Vec<(usize, Vec<DeferredTlbi>)> = Vec::new();
        for (ShellTask { core: c, mut shell, .. }, exit, used) in done {
            results[c] = (exit, used);
            if exit != Exit::Limit {
                self.smp.barrier_stalls += 1;
            }
            if exit == Exit::HostPanic {
                self.smp.shell_panics += 1;
            }
            if let Some(part) = shell.mem.take_epoch_overlay() {
                overlays.push(part);
            }
            if let Some(ctx) = shell.epoch.take() {
                if !ctx.deferred_tlbi.is_empty() {
                    deferred.push((c, ctx.deferred_tlbi));
                }
            }
            self.smp.cores[c] = Some(CoreCtx { cpu: shell.cpu, tlb: shell.tlb });
            if c == 0 {
                self.chaos = shell.chaos;
            } else {
                let delta = shell.chaos.drain_delta();
                self.chaos.absorb_delta(delta);
                self.smp.chaos_forks[c] = Some((chaos_gen, shell.chaos));
            }
            self.journal.absorb(shell.journal);
            self.trace.absorb(shell.trace);
            self.metrics.absorb(shell.metrics);
        }
        self.smp.phys_merge_conflicts += self.mem.merge_epoch(overlays);

        // Deferred Inner-Shareable TLBIs: the issuer already
        // invalidated its own TLB in-shell; the DVM half reaches every
        // other core's TLB now, in commit order.
        for (issuer, ops) in deferred {
            for (op, vmid, xt) in ops {
                for (i, slot) in self.smp.cores.iter_mut().enumerate() {
                    if i == issuer {
                        continue;
                    }
                    if let Some(core) = slot.as_mut() {
                        apply_tlbi(&mut core.tlb, op, vmid, xt);
                    }
                }
                self.smp.tlbi_broadcasts += (n - 1) as u64;
            }
        }

        // Reinstate the active core's architectural state.
        if let Some(ctx) = self.smp.cores[active].take() {
            self.cpu = ctx.cpu;
            self.tlb = ctx.tlb;
        }
        results
    }

    /// Per-core metric sections (only emitted with more than one core):
    /// steps, cycles, TLB and icache hit/miss counts.
    pub(crate) fn per_core_sections(&self) -> Vec<Section> {
        let n = self.num_cores();
        if n <= 1 {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let cpu = self.core_cpu(i);
                let tlb = self.core_tlb(i);
                let (hits, misses) = tlb.stats();
                let (ihits, imisses) = tlb.icache().stats();
                let fast = tlb.fast_stats();
                Section::new(CORE_NAMES[i])
                    .with("steps", cpu.insns)
                    .with("cycles", cpu.cycles)
                    .with("tlb_hits", hits)
                    .with("tlb_misses", misses)
                    .with("icache_hits", ihits)
                    .with("icache_misses", imisses)
                    .with("dtlb_hits", fast.dtlb_hits)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lz_arch::Platform;

    #[test]
    fn default_machine_is_single_core() {
        let m = Machine::new(Platform::CortexA55);
        assert_eq!(m.num_cores(), 1);
        assert_eq!(m.active_core(), 0);
    }

    #[test]
    fn switch_core_swaps_architectural_state() {
        let mut m = Machine::new(Platform::CortexA55);
        m.configure_smp(2);
        m.cpu.x[0] = 111;
        m.cpu.pc = 0x1000;
        m.switch_core(1);
        assert_eq!(m.active_core(), 1);
        assert_eq!(m.cpu.x[0], 0, "secondary core boots with fresh registers");
        m.cpu.x[0] = 222;
        m.switch_core(0);
        assert_eq!(m.cpu.x[0], 111);
        assert_eq!(m.cpu.pc, 0x1000);
        assert_eq!(m.core_cpu(1).x[0], 222);
    }

    #[test]
    fn secondary_cores_inherit_boot_sysregs() {
        use lz_arch::sysreg::SysReg;
        let mut m = Machine::new(Platform::CortexA55);
        m.set_sysreg(SysReg::HCR_EL2, 0xabcd);
        m.configure_smp(3);
        m.switch_core(2);
        assert_eq!(m.sysreg(SysReg::HCR_EL2), 0xabcd);
    }

    #[test]
    fn shootdown_va_reaches_remote_tlbs() {
        use crate::pte::S1Perms;
        use crate::tlb::TlbEntry;
        let mut m = Machine::new(Platform::CortexA55);
        m.configure_smp(2);
        let entry = TlbEntry {
            asid: Some(7),
            pa_page: 0x10_0000,
            s1: S1Perms { read: true, write: false, user_exec: true, priv_exec: true, el0: true, global: false },
            s2: None,
        };
        m.tlb.insert(0, 0x40_0000, entry);
        m.switch_core(1);
        m.tlb.insert(0, 0x40_0000, entry);
        // A local invalidate on core 1 must not touch core 0.
        m.tlb.invalidate_va(0, 0x40_0000);
        assert!(m.core_tlb(0).peek(0, 7, 0x40_0000).is_some());
        // Re-insert and shoot down from core 1: both cores flushed.
        m.tlb.insert(0, 0x40_0000, entry);
        m.shootdown_va(0, 0x40_0000);
        assert!(m.core_tlb(0).peek(0, 7, 0x40_0000).is_none());
        assert!(m.core_tlb(1).peek(0, 7, 0x40_0000).is_none());
        assert_eq!(m.smp().shootdowns_sent, 1);
        assert_eq!(m.smp().shootdowns_acked, 1);
        assert_eq!(m.smp().ipis_sent, 1);
    }

    #[test]
    fn single_core_shootdown_is_free() {
        let mut m = Machine::new(Platform::CortexA55);
        let before = m.cpu.cycles;
        m.shootdown_va(0, 0x40_0000);
        m.shootdown_vmid(0);
        m.shootdown_asid(0, 1);
        assert_eq!(m.cpu.cycles, before, "no remote cores, no IPI cost");
        assert_eq!(m.smp().shootdowns_sent, 0);
    }
}
