//! The kernel proper: process lifecycle, trap handling, syscalls.
//!
//! One [`Kernel`] instance models either a **VHE host kernel running at
//! EL2** (so EL0 exceptions of host processes arrive via `HCR_EL2.TGE`)
//! or a **guest kernel running at EL1** inside a KVM VM (EL0 exceptions
//! arrive at EL1; the machine's `el1_external` flag routes them out of
//! the interpreter). The trap-path cost accounting in this module is what
//! the paper's Table 4 measures for rows 1 ("host user mode to host
//! hypervisor mode") and 2 ("guest user mode to guest kernel mode").

use crate::idalloc::IdAlloc;
use crate::process::{Pid, Process, Program, UserContext};
use crate::syscall::{self, Sysno, CUSTOM_BASE};
use crate::vma::{user_range, VmProt, Vma, VmaSource};
use lz_arch::esr::{self, ExceptionClass};
use lz_arch::pstate::{ExceptionLevel, PState};
use lz_arch::sysreg::{hcr, sctlr, ttbr, vttbr, SysReg};
use lz_arch::Platform;
use lz_machine::pte::S2Perms;
use lz_machine::walk::s2_map_block;
use lz_machine::{Exit, Machine};
use std::collections::BTreeMap;

/// Instruction count of the common syscall entry/dispatch/exit path.
const SYSCALL_PATH_INSNS: u64 = 54;
/// Instruction count of the page-fault handling path.
const FAULT_PATH_INSNS: u64 = 260;

/// Whether this kernel is the VHE host or a guest kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// VHE host kernel at EL2.
    Host,
    /// Guest kernel at EL1 in a KVM VM with this VMID and stage-2 root.
    Guest { vmid: u16, s2_root: u64 },
}

/// Counters exposed for the evaluation.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    pub syscalls: u64,
    pub page_faults: u64,
    pub ctx_switches: u64,
    pub written_bytes: u64,
    /// Processes torn down and recycled by [`Kernel::reap`].
    pub reaps: u64,
    /// TLB shoot-downs performed because a recycled process ASID was
    /// granted again (rollover hygiene: the reuse path invalidates).
    pub rollover_shootdowns: u64,
}

/// Why [`Kernel::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The current process exited with this code.
    Exited(i64),
    /// A syscall in the custom range (≥ `CUSTOM_BASE`): `nr` plus x0–x5.
    /// The user context has been saved; the upper layer resolves it and
    /// resumes via [`Kernel::resume_syscall`].
    Custom { nr: u64, args: [u64; 6] },
    /// A machine exit the base kernel does not handle (LightZone VE
    /// traps, watchpoint hits, trapped system registers).
    Raw(Exit),
    /// Instruction budget exhausted.
    Limit,
}

/// The modelled kernel.
#[derive(Debug)]
pub struct Kernel {
    pub machine: Machine,
    pub mode: KernelMode,
    pub(crate) procs: BTreeMap<Pid, Process>,
    next_pid: Pid,
    /// Process (kernel-managed table) ASIDs, recycled with rollover
    /// hygiene: a recycled grant forces `shootdown_asid` before reuse.
    pub asids: IdAlloc,
    pub(crate) cur: Option<Pid>,
    /// VMIDs, recycled with rollover hygiene; VMID 0 stays reserved for
    /// the host. A recycled grant's previous life may still tag live TLB
    /// entries, so the caller must `invalidate_vmid`/`shootdown_vmid`
    /// before programming it into `VTTBR_EL2`: invalidation happens at
    /// reuse, not at free (see [`IdAlloc`]).
    pub vmids: IdAlloc,
    pub stats: Stats,
    /// Set while [`Kernel::run_smp`] drives the machine: in-kernel
    /// thread rotation is suppressed (the SMP scheduler owns placement)
    /// and descheduling is signalled via [`Kernel::descheduled`].
    pub(crate) smp_mode: bool,
    /// Set by the trap path when the current thread left the CPU
    /// (futex park, thread exit) under [`Kernel::run_smp`]; the
    /// scheduler consumes and clears it.
    pub(crate) descheduled: bool,
}

impl Kernel {
    /// A VHE host kernel.
    pub fn new_host(platform: Platform) -> Self {
        let mut machine = Machine::new(platform);
        machine.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        Kernel {
            machine,
            mode: KernelMode::Host,
            procs: BTreeMap::new(),
            next_pid: 1,
            asids: IdAlloc::new(),
            cur: None,
            vmids: IdAlloc::new(),
            stats: Stats::default(),
            smp_mode: false,
            descheduled: false,
        }
    }

    /// A guest kernel inside a KVM VM: stage-2 identity-maps the VM's RAM
    /// window eagerly (the host's fault path is not under test), EL1
    /// exceptions exit the interpreter to this modelled kernel.
    pub fn new_guest(platform: Platform) -> Self {
        let mut machine = Machine::new(platform);
        let mut vmids = IdAlloc::new();
        let vmid = match vmids.alloc() {
            Ok(grant) => grant.id,
            // A fresh allocator's first grant cannot fail.
            Err(e) => panic!("fresh VMID allocator: {e}"),
        };
        let s2_root = lz_machine::walk::alloc_table(&mut machine.mem);
        // Identity-map PA 0..8 GiB with 2 MiB blocks. Unbacked frames
        // still bus-error at the PhysMem level, so this hides nothing.
        let mut pa = 0u64;
        while pa < 8 << 30 {
            s2_map_block(&mut machine.mem, s2_root, pa, pa, S2Perms::rwx());
            pa += 2 << 20;
        }
        machine.set_sysreg(SysReg::HCR_EL2, hcr::VM);
        machine.set_sysreg(SysReg::VTTBR_EL2, vttbr::pack(vmid, s2_root));
        machine.set_el1_external(true);
        Kernel {
            machine,
            mode: KernelMode::Guest { vmid, s2_root },
            procs: BTreeMap::new(),
            next_pid: 1,
            asids: IdAlloc::new(),
            cur: None,
            vmids,
            stats: Stats::default(),
            smp_mode: false,
            descheduled: false,
        }
    }

    /// The platform this kernel runs on.
    pub fn platform(&self) -> Platform {
        self.machine.model.platform
    }

    /// The VMID tagging this kernel's own (stage-1) translations: 0 for
    /// the VHE host, the VM's VMID for a guest kernel.
    pub fn kernel_vmid(&self) -> u16 {
        match self.mode {
            KernelMode::Host => 0,
            KernelMode::Guest { vmid, .. } => vmid,
        }
    }

    /// Load a program as a new process (pages fault in on demand).
    ///
    /// # Panics
    ///
    /// Panics when 65,535 processes are simultaneously live — a host
    /// resource limit (with recycling there is nothing left to recycle),
    /// not the seed's bump-allocator overflow at 65,535 *cumulative*
    /// spawns.
    pub fn spawn(&mut self, program: &Program) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        let grant = match self.asids.alloc() {
            Ok(g) => g,
            Err(e) => panic!("process ASID space: {e}"),
        };
        if grant.recycled {
            // Rollover hygiene: the previous owner's kernel-managed
            // translations may still be TLB-resident under this ASID on
            // any core. Invalidate at reuse, on every core.
            self.machine.shootdown_asid(self.kernel_vmid(), grant.id);
            self.stats.rollover_shootdowns += 1;
        }
        let proc = Process::load(pid, grant.id, &mut self.machine.mem, program);
        self.procs.insert(pid, proc);
        pid
    }

    /// Tear down an exited process: free every resident frame and its
    /// kernel-managed page-table tree, then recycle its ASID. Returns
    /// `false` (and does nothing) unless `pid` exists and has exited.
    ///
    /// TLB entries tagged with the dead ASID are deliberately left
    /// resident — they are unreachable until the ASID is granted again,
    /// and [`Kernel::spawn`] shoots them down at that point (invalidation
    /// at reuse, not at free).
    pub fn reap(&mut self, pid: Pid) -> bool {
        let exited = self.procs.get(&pid).is_some_and(|p| p.exit_code.is_some());
        if !exited {
            return false;
        }
        let Some(mut p) = self.procs.remove(&pid) else { return false };
        p.mm.release_all(&mut self.machine.mem);
        self.asids.free(p.mm.asid);
        if self.cur == Some(pid) {
            self.cur = None;
        }
        self.stats.reaps += 1;
        true
    }

    /// Access a process.
    pub fn process(&self, pid: Pid) -> &Process {
        &self.procs[&pid]
    }

    /// Mutable access to a process.
    pub fn process_mut(&mut self, pid: Pid) -> &mut Process {
        self.procs.get_mut(&pid).expect("no such pid")
    }

    /// Split borrow: a process's address space plus the machine (for
    /// callers that fault pages in while holding machine state).
    pub fn mm_and_machine(&mut self, pid: Pid) -> (&mut crate::vma::Mm, &mut Machine) {
        let p = self.procs.get_mut(&pid).expect("no such pid");
        (&mut p.mm, &mut self.machine)
    }

    /// The currently entered process, if any.
    pub fn current(&self) -> Option<Pid> {
        self.cur
    }

    /// The current process, split-borrowed with the machine, or `None`
    /// when no process is current or its pid is gone. Callers fail
    /// closed on `None`.
    fn current_mut(&mut self) -> Option<(&mut Process, &mut Machine)> {
        let p = self.procs.get_mut(&self.cur?)?;
        Some((p, &mut self.machine))
    }

    /// Make `pid` the running process: program the translation regime and
    /// load its user context into the CPU. Charges nothing (initial
    /// setup); use [`Self::schedule_to`] for a costed context switch.
    pub fn enter_process(&mut self, pid: Pid) {
        let (root, asid, ctx) = {
            let p = &self.procs[&pid];
            (p.mm.root, p.mm.asid, p.ctx().clone())
        };
        self.machine.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(asid, root));
        self.machine.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        self.machine.cpu.x = ctx.x;
        self.machine.cpu.sp_el0 = ctx.sp;
        self.machine.cpu.pc = ctx.pc;
        self.machine.cpu.pstate = ctx.pstate;
        self.cur = Some(pid);
    }

    /// Costed context switch: saves the current process, enters `pid`,
    /// charging the scheduler path and register switching.
    pub fn schedule_to(&mut self, pid: Pid) {
        self.save_current();
        let m = &self.machine.model;
        let cost = m.path_cost(400) // scheduler + switch_to
            + m.gpregs_roundtrip(31)
            + m.ttbr0_el1_write
            + m.isb
            + 4 * m.sysreg_write; // TPIDRs, SP_EL0, CONTEXTIDR
        self.machine.charge(cost);
        self.stats.ctx_switches += 1;
        self.enter_process(pid);
    }

    /// Save the machine's user-visible state into the current process's
    /// context.
    pub fn save_current(&mut self) {
        let (pc, pstate) = (self.machine.cpu.pc, self.machine.cpu.pstate);
        self.save_thread_at(pc, pstate);
    }

    /// Make `pid` current without loading any machine state (the caller
    /// — e.g. the LightZone module restoring a VE — programs the machine
    /// itself).
    pub fn set_current(&mut self, pid: Pid) {
        assert!(self.procs.contains_key(&pid), "no such pid");
        self.cur = Some(pid);
    }

    /// Detach the current process *without* saving its context. Epoch-
    /// style drivers (the SMP scheduler, the fleet wave drain) keep many
    /// processes live on different cores at once; between per-core
    /// commits the machine's active register state does not belong to
    /// `cur`, so a stray [`Self::save_current`] must find nothing to
    /// save.
    pub fn clear_current(&mut self) {
        self.cur = None;
    }

    /// Run the current process, handling base-kernel traps internally,
    /// until something interesting happens.
    pub fn run(&mut self, insn_limit: u64) -> Event {
        loop {
            let exit = self.machine.run(insn_limit);
            match self.handle_exit(exit) {
                Some(event) => return event,
                None => continue,
            }
        }
    }

    /// Handle one machine exit. `None` means handled — keep running.
    pub fn handle_exit(&mut self, exit: Exit) -> Option<Event> {
        // Traps of LightZone processes belong to the LightZone module,
        // not the base kernel (§4.1.1): surface them untouched.
        if let Some(pid) = self.cur {
            if self.procs[&pid].in_lightzone && exit != Exit::Limit {
                return Some(Event::Raw(exit));
            }
        }
        match (self.mode, exit) {
            (_, Exit::Limit) => Some(Event::Limit),
            (KernelMode::Host, Exit::El2(class)) => self.handle_trap(class, true),
            (KernelMode::Guest { .. }, Exit::El1(class)) => self.handle_trap(class, false),
            // Anything else (EL2 exits in guest mode = stage-2/hvc, EL1
            // exits in host mode = LightZone VE activity) is for an upper
            // layer.
            (_, e) => Some(Event::Raw(e)),
        }
    }

    fn trap_regs(&self, host: bool) -> (u64, u64, u64, u64) {
        if host {
            (
                self.machine.sysreg(SysReg::ESR_EL2),
                self.machine.sysreg(SysReg::FAR_EL2),
                self.machine.sysreg(SysReg::ELR_EL2),
                self.machine.sysreg(SysReg::SPSR_EL2),
            )
        } else {
            (
                self.machine.sysreg(SysReg::ESR_EL1),
                self.machine.sysreg(SysReg::FAR_EL1),
                self.machine.sysreg(SysReg::ELR_EL1),
                self.machine.sysreg(SysReg::SPSR_EL1),
            )
        }
    }

    /// Return to the interrupted user context at `pc`.
    fn user_return(&mut self, host: bool, pc: u64, spsr: u64) {
        let ps = user_pstate(spsr);
        debug_assert_eq!(ps.el, ExceptionLevel::El0);
        if host {
            self.machine.enter(ps, pc);
        } else {
            self.machine.enter_from_el1(ps, pc);
        }
    }

    fn handle_trap(&mut self, class: ExceptionClass, host: bool) -> Option<Event> {
        let (esr_v, far, elr, spsr) = self.trap_regs(host);
        match class {
            ExceptionClass::Svc => {
                self.charge_syscall_path(host);
                self.stats.syscalls += 1;
                let nr = self.machine.cpu.reg(8);
                let args = [
                    self.machine.cpu.reg(0),
                    self.machine.cpu.reg(1),
                    self.machine.cpu.reg(2),
                    self.machine.cpu.reg(3),
                    self.machine.cpu.reg(4),
                    self.machine.cpu.reg(5),
                ];
                if nr >= CUSTOM_BASE {
                    // Save context at the post-syscall pc so the upper
                    // layer can resume with `resume_syscall`.
                    self.save_thread_at(elr, user_pstate(spsr));
                    return Some(Event::Custom { nr, args });
                }
                match self.do_syscall(nr, args) {
                    SysOutcome::Ret(v) => {
                        self.machine.cpu.set_reg(0, v);
                        if self.deliver_signal(host, elr, spsr) {
                            return None;
                        }
                        // sched_yield rotates among live threads — but
                        // not under the SMP scheduler, which owns
                        // thread placement (yield then just returns and
                        // the core runs out its quantum).
                        let multi = self.cur.map(|pid| self.procs[&pid].live_threads() > 1).unwrap_or(false);
                        if nr == Sysno::Yield.nr() && multi && !self.smp_mode {
                            self.rotate_thread(host, elr, spsr);
                        } else {
                            self.user_return(host, elr, spsr);
                        }
                        None
                    }
                    SysOutcome::Park => {
                        // Futex wait: the thread is already marked
                        // parked and enqueued; it observes 0 in x0 when
                        // it eventually resumes.
                        self.machine.cpu.set_reg(0, 0);
                        if self.smp_mode {
                            self.save_thread_at(elr, user_pstate(spsr));
                            self.descheduled = true;
                        } else {
                            // Cooperative mode: another runnable thread
                            // exists (the park precondition), switch to
                            // it.
                            self.rotate_thread(host, elr, spsr);
                        }
                        None
                    }
                    SysOutcome::Sigreturn => {
                        if !self.sigreturn(host) {
                            self.finish_process(-4);
                            return Some(Event::Exited(-4));
                        }
                        None
                    }
                    SysOutcome::Exit(code) => {
                        // `exit` ends the calling thread; the process ends
                        // with the last thread's code.
                        let last = self.current_mut().map(|(p, _)| p.exit_current_thread()).unwrap_or(true);
                        if last {
                            self.finish_process(code);
                            Some(Event::Exited(code))
                        } else if self.smp_mode {
                            self.descheduled = true;
                            None
                        } else {
                            self.switch_to_next_thread(host);
                            None
                        }
                    }
                }
            }
            ExceptionClass::DataAbortLower | ExceptionClass::InsnAbortLower => {
                let is_fetch = class == ExceptionClass::InsnAbortLower;
                let Some((fault, wnr, _)) = esr::esr_abort_info(esr_v) else {
                    self.finish_process(-11);
                    return Some(Event::Exited(-11));
                };
                self.charge_fault_path(host);
                self.stats.page_faults += 1;
                let resolved = matches!(fault, esr::FaultStatus::Translation(_) | esr::FaultStatus::AccessFlag(_))
                    && self.fault_in_current(far, wnr, is_fetch);
                if resolved {
                    // Retry the faulting instruction.
                    self.user_return(host, elr, spsr);
                    None
                } else {
                    self.finish_process(-11);
                    Some(Event::Exited(-11))
                }
            }
            ExceptionClass::Brk => {
                // BRK is the "test program finished" convention for raw
                // programs: the immediate is the exit code.
                let code = esr::esr_imm(esr_v) as i64;
                self.finish_process(code);
                Some(Event::Exited(code))
            }
            ExceptionClass::Unknown | ExceptionClass::IllegalState => {
                // SIGILL.
                self.finish_process(-4);
                Some(Event::Exited(-4))
            }
            ExceptionClass::PcAlignment => {
                // SIGBUS.
                self.finish_process(-7);
                Some(Event::Exited(-7))
            }
            // Watchpoints, HVC, trapped sysregs: upper layers.
            _ => Some(Event::Raw(if host { Exit::El2(class) } else { Exit::El1(class) })),
        }
    }

    /// Demand-page the current process at `far` (huge regions fault in
    /// whole 2 MiB blocks).
    fn fault_in_current(&mut self, far: u64, is_write: bool, is_fetch: bool) -> bool {
        let Some((p, m)) = self.current_mut() else { return false };
        if p.mm.is_huge(far) {
            return !is_fetch && p.mm.fault_in_block(&mut m.mem, far, is_write).is_some();
        }
        p.mm.fault_in(&mut m.mem, far, is_write, is_fetch).is_some()
    }

    fn finish_process(&mut self, code: i64) {
        if let Some((p, _)) = self.current_mut() {
            p.exit_code = Some(code);
        }
        self.cur = None;
    }

    /// Resume the current process after an upper layer handled a custom
    /// syscall, delivering `ret` in x0.
    pub fn resume_syscall(&mut self, ret: u64) {
        let pid = self.cur.expect("a process is current");
        let host = self.mode == KernelMode::Host;
        let (pc, mut ctx_x) = {
            let p = &self.procs[&pid];
            (p.ctx().pc, p.ctx().x)
        };
        ctx_x[0] = ret;
        self.machine.cpu.x = ctx_x;
        self.user_return(host, pc, PState::user().to_spsr());
    }

    /// Save the current thread's context as interrupted at `pc` with
    /// `pstate` (see [`thread_frame`]).
    fn save_thread_at(&mut self, pc: u64, pstate: PState) {
        let Some((p, m)) = self.current_mut() else { return };
        let frame = thread_frame(p, m, pc, pstate);
        *p.ctx_mut() = frame;
    }

    /// Save the current thread at `(pc, spsr)` and run the next runnable
    /// thread of the same process.
    fn rotate_thread(&mut self, host: bool, pc: u64, spsr: u64) {
        if self.cur.is_none() {
            return;
        }
        self.save_thread_at(pc, user_pstate(spsr));
        self.switch_to_next_thread(host);
    }

    /// Load the next runnable thread (after the current one) onto the
    /// CPU. Charges the in-process thread-switch path.
    fn switch_to_next_thread(&mut self, host: bool) {
        let Some((p, _)) = self.current_mut() else { return };
        let Some(next) = p.next_runnable() else {
            // Every surviving thread is parked or exited — a
            // guest-driven deadlock the park precondition should rule
            // out. Fail closed: end the process (the run loop then
            // winds down) rather than panicking the host.
            self.finish_process(-11);
            return;
        };
        p.cur_thread = next;
        let ctx = p.ctx().clone();
        let m = &self.machine.model;
        let cost = m.path_cost(300) + m.gpregs_roundtrip(31);
        self.machine.charge(cost);
        self.machine.cpu.x = ctx.x;
        self.machine.cpu.sp_el0 = ctx.sp;
        // Same address space: TTBR0 changes only if this thread recorded
        // one (LightZone per-thread domains).
        if ctx.ttbr0 != 0 {
            self.machine.write_sysreg_charged(SysReg::TTBR0_EL1, ctx.ttbr0);
        }
        self.stats.ctx_switches += 1;
        self.user_return(host, ctx.pc, ctx.pstate.to_spsr());
    }

    /// Raise a signal on a process (the harness-side `kill`).
    pub fn send_signal(&mut self, pid: Pid, sig: u64) {
        self.procs.get_mut(&pid).expect("no such pid").sig_pending.push_back(sig);
    }

    /// If the current process has a deliverable pending signal, push a
    /// signal frame (full context including TTBR0 and PSTATE/PAN — the
    /// §6 extension) and enter the handler. Returns whether a handler
    /// was entered.
    fn deliver_signal(&mut self, host: bool, pc: u64, spsr: u64) -> bool {
        let Some((p, m)) = self.current_mut() else { return false };
        let Some((sig, handler)) = p.take_signal() else { return false };
        p.sig_frame = Some(thread_frame(p, m, pc, user_pstate(spsr)));
        // Signal-delivery path cost: frame setup + ucontext writes.
        let m = &self.machine.model;
        let cost = m.path_cost(500) + 40 * m.mem_access;
        self.machine.charge(cost);
        self.machine.cpu.set_reg(0, sig);
        self.user_return(host, handler, PState::user().to_spsr());
        true
    }

    /// Restore the signal frame on `rt_sigreturn`. Returns false if no
    /// frame is active (a stray sigreturn — fatal to the caller).
    fn sigreturn(&mut self, host: bool) -> bool {
        let Some(frame) = self.current_mut().and_then(|(p, _)| p.sig_frame.take()) else { return false };
        let m = &self.machine.model;
        let cost = m.path_cost(400) + 40 * m.mem_access;
        self.machine.charge(cost);
        self.machine.cpu.x = frame.x;
        self.machine.cpu.sp_el0 = frame.sp;
        // TTBR0 (the interrupted domain) is part of the frame (§6).
        self.machine.write_sysreg_charged(SysReg::TTBR0_EL1, frame.ttbr0);
        self.user_return(host, frame.pc, frame.pstate.to_spsr());
        true
    }

    /// Kill the current process (used by isolation layers on violations:
    /// "we detect unauthorized access … and terminate the compromised
    /// process", §4.2).
    pub fn kill_current(&mut self, code: i64) -> Event {
        self.finish_process(code);
        Event::Exited(code)
    }

    /// Snapshot the kernel counters as an observability report section.
    pub fn metrics_section(&self) -> lz_machine::Section {
        lz_machine::Section::new("kernel")
            .with("syscalls", self.stats.syscalls)
            .with("page_faults", self.stats.page_faults)
            .with("ctx_switches", self.stats.ctx_switches)
            .with("written_bytes", self.stats.written_bytes)
            .with("processes", self.procs.len() as u64)
            .with("reaps", self.stats.reaps)
    }

    /// Dispatch a base-kernel syscall on behalf of the current process.
    /// Public so the LightZone module can forward syscalls from kernel-
    /// mode processes (§5.1.3: "the kernel module further forwards them
    /// to the OS kernel by managing a syscall table similar to the
    /// kernel's").
    pub fn do_syscall(&mut self, nr: u64, args: [u64; 6]) -> SysOutcome {
        let Some(sys) = Sysno::from_nr(nr) else {
            return SysOutcome::Ret(u64::MAX); // -ENOSYS
        };
        match sys {
            Sysno::Write => {
                let len = args[2];
                // Copy cost: the kernel reads the user buffer through the
                // kernel-managed tables.
                let copy = (len / 8 + 1) * self.machine.model.mem_access * 2;
                self.machine.charge(copy);
                self.stats.written_bytes += len;
                SysOutcome::Ret(len)
            }
            Sysno::Exit => SysOutcome::Exit(args[0] as i64),
            Sysno::ClockGettime => SysOutcome::Ret(self.machine.cpu.cycles),
            Sysno::Yield => SysOutcome::Ret(0),
            Sysno::Getpid => SysOutcome::Ret(self.cur.unwrap_or(0) as u64),
            Sysno::Gettid => {
                let Some(pid) = self.cur else { return SysOutcome::Ret(0) };
                SysOutcome::Ret(self.procs[&pid].current_tid() as u64)
            }
            Sysno::Clone => {
                let (entry, stack, arg) = (args[0], args[1], args[2]);
                let Some((p, m)) = self.current_mut() else { return SysOutcome::Ret(u64::MAX) };
                let cost = m.model.path_cost(1200) + 20 * m.model.mem_access; // task_struct setup
                m.charge(cost);
                SysOutcome::Ret(p.spawn_thread(entry, stack, arg) as u64)
            }
            Sysno::Futex => self.do_futex(args),
            Sysno::Kill => {
                let (target, sig) = (args[0] as Pid, args[1]);
                let me = self.cur.unwrap_or(0);
                // Self-signalling only (enough for the evaluation). The
                // pid-0 fallback never names a real process, so resolve
                // gracefully instead of indexing.
                match self.procs.get_mut(&me) {
                    Some(p) if target == me || target == 0 => {
                        p.sig_pending.push_back(sig);
                        SysOutcome::Ret(0)
                    }
                    _ => SysOutcome::Ret(u64::MAX),
                }
            }
            Sysno::Sigaction => {
                let (sig, handler) = (args[0], args[1]);
                let Some((p, _)) = self.current_mut() else { return SysOutcome::Ret(u64::MAX) };
                if handler == 0 {
                    p.sig_handlers.remove(&sig);
                } else {
                    p.sig_handlers.insert(sig, handler);
                }
                SysOutcome::Ret(0)
            }
            Sysno::Sigreturn => SysOutcome::Sigreturn,
            Sysno::Mmap => {
                let Some(range) = user_range(args[0], args[1]) else { return SysOutcome::Ret(u64::MAX) };
                let prot = VmProt {
                    read: args[2] & syscall::prot::READ != 0,
                    write: args[2] & syscall::prot::WRITE != 0,
                    exec: args[2] & syscall::prot::EXEC != 0,
                };
                let Some((p, _)) = self.current_mut() else { return SysOutcome::Ret(u64::MAX) };
                let end = lz_arch::page_align_up(range.end);
                match p.mm.add_vma(Vma { start: range.start, end, prot, source: VmaSource::Anon }) {
                    Ok(()) => SysOutcome::Ret(range.start),
                    Err(_) => SysOutcome::Ret(u64::MAX),
                }
            }
            Sysno::Munmap => {
                let Some(range) = user_range(args[0], args[1]) else { return SysOutcome::Ret(u64::MAX) };
                let Some((p, m)) = self.current_mut() else { return SysOutcome::Ret(u64::MAX) };
                let vmid = m.walk_config().vmid();
                let freed = p.mm.unmap(&mut m.mem, range);
                // Cross-core shootdown: a stale entry on a remote core
                // would keep the freed frame reachable.
                for va in &freed {
                    m.shootdown_va(vmid, *va);
                }
                let c = m.model.dsb + freed.len() as u64 * m.model.insn_base * 2;
                m.charge(c);
                SysOutcome::Ret(0)
            }
            Sysno::Mprotect => {
                let Some(range) = user_range(args[0], args[1]) else { return SysOutcome::Ret(u64::MAX) };
                let prot = VmProt {
                    read: args[2] & syscall::prot::READ != 0,
                    write: args[2] & syscall::prot::WRITE != 0,
                    exec: args[2] & syscall::prot::EXEC != 0,
                };
                let Some((p, m)) = self.current_mut() else { return SysOutcome::Ret(u64::MAX) };
                let vmid = m.walk_config().vmid();
                let touched = p.mm.protect(&mut m.mem, range, prot);
                // Cross-core shootdown: permissions must tighten on
                // every core, not just the calling one.
                for va in &touched {
                    m.shootdown_va(vmid, *va);
                }
                let c = m.model.dsb + touched.len() as u64 * m.model.insn_base * 2;
                m.charge(c);
                SysOutcome::Ret(0)
            }
        }
    }

    /// `futex(uaddr, op, val)`.
    ///
    /// `WAIT` atomically re-checks `*uaddr` against `val` (atomicity is
    /// trivial: the interleaver never splits a syscall) and parks the
    /// calling thread on a mismatch-free check. Because the modelled
    /// kernel has no timer interrupt, a thread may only park while
    /// another runnable thread exists in the process; otherwise the
    /// call returns 0 immediately — a legal spurious wakeup under the
    /// futex contract, and callers loop anyway.
    fn do_futex(&mut self, args: [u64; 6]) -> SysOutcome {
        const EAGAIN: u64 = -11i64 as u64;
        let (uaddr, op, val) = (args[0], args[1], args[2] as u32);
        let Some(pid) = self.cur else { return SysOutcome::Ret(u64::MAX) };
        // The kernel reads the futex word through the kernel-managed
        // tables (get_user).
        self.machine.charge(2 * self.machine.model.mem_access);
        match op {
            syscall::futex::WAIT => {
                let Some(cur_val) = self.read_user_u32(pid, uaddr) else {
                    return SysOutcome::Ret(u64::MAX); // -EFAULT-ish
                };
                if cur_val != val {
                    return SysOutcome::Ret(EAGAIN);
                }
                let Some((p, _)) = self.current_mut() else { return SysOutcome::Ret(u64::MAX) };
                if p.runnable_threads() <= 1 {
                    return SysOutcome::Ret(0); // spurious wakeup, see above
                }
                let i = p.cur_thread;
                let tid = p.threads[i].tid;
                p.threads[i].parked = true;
                p.futex_waiters.entry(uaddr).or_default().push_back(tid);
                SysOutcome::Park
            }
            syscall::futex::WAKE => {
                // Wake-path cost: walk the hash bucket, mark wakeups.
                self.machine.charge(self.machine.model.path_cost(80));
                let Some((p, _)) = self.current_mut() else { return SysOutcome::Ret(u64::MAX) };
                let mut woken = 0u64;
                while woken < val as u64 {
                    let Some(tid) = p.futex_waiters.get_mut(&uaddr).and_then(|q| q.pop_front()) else {
                        break;
                    };
                    if let Some(t) = p.threads.iter_mut().find(|t| t.tid == tid) {
                        if t.parked && !t.exited {
                            t.parked = false;
                            woken += 1;
                        }
                    }
                }
                if let Some(q) = p.futex_waiters.get(&uaddr) {
                    if q.is_empty() {
                        p.futex_waiters.remove(&uaddr);
                    }
                }
                SysOutcome::Ret(woken)
            }
            _ => SysOutcome::Ret(u64::MAX), // -ENOSYS-ish: unmodelled op
        }
    }

    /// Read a `u32` from the process's address space through the
    /// kernel-managed tables, faulting the page in if needed.
    fn read_user_u32(&mut self, pid: Pid, va: u64) -> Option<u32> {
        let p = self.procs.get_mut(&pid)?;
        let page = lz_arch::page_align_down(va);
        let pa_page = match lz_machine::walk::s1_lookup(&self.machine.mem, p.mm.root, page) {
            Some((pa, _, _)) => pa,
            None => lz_arch::page_align_down(p.mm.fault_in(&mut self.machine.mem, va, false, false)?),
        };
        self.machine.mem.read_u32(pa_page + (va & lz_arch::PAGE_MASK))
    }

    /// Table 4 rows 1–2: the software side of a syscall round trip
    /// (hardware entry/return costs are charged by the machine itself).
    ///
    /// The host (VHE) path touches more system registers than a guest
    /// kernel's (`SP_EL0`/`TPIDR` juggling plus VHE's `ELR_EL2`/`SPSR_EL2`
    /// save-restore around re-enabling exceptions); on Carmel those writes
    /// dominate and make host syscalls *more* expensive than guest ones.
    fn charge_syscall_path(&mut self, host: bool) {
        let m = &self.machine.model;
        let mut cost = m.gpregs_roundtrip(31) + m.path_cost(SYSCALL_PATH_INSNS) + m.trap_cache_pollution;
        if host {
            cost += 3 * m.sysreg_read + 3 * m.sysreg_write;
        } else {
            cost += 2 * m.sysreg_read;
        }
        self.machine.charge(cost);
    }

    /// The software side of a page-fault round trip.
    fn charge_fault_path(&mut self, host: bool) {
        let m = &self.machine.model;
        let mut cost =
            m.gpregs_roundtrip(31) + m.path_cost(FAULT_PATH_INSNS) + m.trap_cache_pollution + 8 * m.mem_access;
        if host {
            cost += 3 * m.sysreg_read + 3 * m.sysreg_write;
        } else {
            cost += 3 * m.sysreg_read;
        }
        self.machine.charge(cost);
    }
}

/// `p`'s running thread as interrupted at `pc` with `pstate`: registers,
/// the thread's own stack pointer and its domain (`TTBR0_EL1`, §6). A VE
/// thread runs at EL1 on `SP_EL1`, any other thread at EL0 on `SP_EL0`,
/// whichever EL the CPU trapped to.
fn thread_frame(p: &Process, m: &Machine, pc: u64, pstate: PState) -> UserContext {
    let sp = if p.in_lightzone { m.cpu.sp_el1 } else { m.cpu.sp_el0 };
    UserContext { x: m.cpu.x, sp, pc, pstate, ttbr0: m.sysreg(SysReg::TTBR0_EL1) }
}

/// The user PSTATE a trap saved in `spsr` (a malformed value reads as
/// plain EL0).
fn user_pstate(spsr: u64) -> PState {
    PState::from_spsr(spsr).unwrap_or(PState::user())
}

/// Result of a base-kernel syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysOutcome {
    /// Deliver this value in x0.
    Ret(u64),
    /// The process exited.
    Exit(i64),
    /// `rt_sigreturn`: the caller must restore the signal frame.
    Sigreturn,
    /// `futex(WAIT)` parked the calling thread: it is marked parked and
    /// enqueued; the caller must switch it off the CPU and deliver 0 in
    /// x0 when it is eventually woken.
    Park,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lz_arch::asm::Asm;

    const CODE: u64 = 0x40_0000;

    fn exit_prog(code: u16) -> Program {
        let mut a = Asm::new(CODE);
        a.movz(0, code, 0);
        a.movz(8, Sysno::Exit.nr() as u16, 0);
        a.svc(0);
        Program::from_code(CODE, a.bytes())
    }

    #[test]
    fn host_process_runs_and_exits() {
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&exit_prog(42));
        k.enter_process(pid);
        assert_eq!(k.run(100_000), Event::Exited(42));
        assert_eq!(k.process(pid).exit_code, Some(42));
        assert!(k.stats.page_faults >= 1, "code page demand-faulted");
    }

    #[test]
    fn guest_process_runs_and_exits() {
        let mut k = Kernel::new_guest(Platform::CortexA55);
        let pid = k.spawn(&exit_prog(7));
        k.enter_process(pid);
        assert_eq!(k.run(100_000), Event::Exited(7));
    }

    #[test]
    fn getpid_returns_pid() {
        let mut a = Asm::new(CODE);
        a.movz(8, Sysno::Getpid.nr() as u16, 0);
        a.svc(0);
        a.mov_reg(20, 0);
        a.movz(8, Sysno::Exit.nr() as u16, 0);
        a.svc(0);
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&Program::from_code(CODE, a.bytes()));
        k.enter_process(pid);
        k.run(100_000);
        assert_eq!(k.machine.cpu.reg(20), pid as u64);
    }

    #[test]
    fn stack_faults_in_on_demand() {
        let mut a = Asm::new(CODE);
        // Store to the stack, then exit with the loaded-back value.
        a.mov_imm64(1, 0x1234);
        a.str(1, 31, 8); // str x1, [sp, #8]
        a.ldr(0, 31, 8);
        a.movz(8, Sysno::Exit.nr() as u16, 0);
        a.svc(0);
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&Program::from_code(CODE, a.bytes()));
        k.enter_process(pid);
        assert_eq!(k.run(100_000), Event::Exited(0x1234));
    }

    #[test]
    fn wild_access_is_segv() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, 0xdead_0000);
        a.ldr(1, 0, 0);
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&Program::from_code(CODE, a.bytes()));
        k.enter_process(pid);
        assert_eq!(k.run(100_000), Event::Exited(-11));
    }

    #[test]
    fn store_to_code_page_is_segv() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, CODE);
        a.str(0, 0, 0);
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&Program::from_code(CODE, a.bytes()));
        k.enter_process(pid);
        assert_eq!(k.run(100_000), Event::Exited(-11));
    }

    #[test]
    fn illegal_insn_is_sigill() {
        let mut a = Asm::new(CODE);
        a.raw(0xffff_ffff);
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&Program::from_code(CODE, a.bytes()));
        k.enter_process(pid);
        assert_eq!(k.run(100_000), Event::Exited(-4));
    }

    #[test]
    fn custom_syscall_surfaces_and_resumes() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(8, syscall::custom::LZ_ALLOC);
        a.movz(0, 11, 0);
        a.svc(0);
        a.mov_reg(20, 0); // capture return value
        a.movz(8, Sysno::Exit.nr() as u16, 0);
        a.movz(0, 0, 0);
        a.svc(0);
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&Program::from_code(CODE, a.bytes()));
        k.enter_process(pid);
        match k.run(100_000) {
            Event::Custom { nr, args } => {
                assert_eq!(nr, syscall::custom::LZ_ALLOC);
                assert_eq!(args[0], 11);
            }
            other => panic!("expected custom syscall, got {other:?}"),
        }
        k.resume_syscall(99);
        assert_eq!(k.run(100_000), Event::Exited(0));
        assert_eq!(k.machine.cpu.reg(20), 99);
    }

    #[test]
    fn mmap_munmap_cycle() {
        let mut a = Asm::new(CODE);
        // mmap(0x9000_0000, 0x2000, RW)
        a.mov_imm64(0, 0x9000_0000);
        a.mov_imm64(1, 0x2000);
        a.movz(2, 3, 0);
        a.movz(8, Sysno::Mmap.nr() as u16, 0);
        a.svc(0);
        // touch it
        a.mov_imm64(3, 0x9000_0100);
        a.mov_imm64(4, 0x77);
        a.str(4, 3, 0);
        // munmap
        a.mov_imm64(0, 0x9000_0000);
        a.mov_imm64(1, 0x2000);
        a.movz(8, Sysno::Munmap.nr() as u16, 0);
        a.svc(0);
        // touching again must SIGSEGV
        a.str(4, 3, 0);
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&Program::from_code(CODE, a.bytes()));
        k.enter_process(pid);
        assert_eq!(k.run(100_000), Event::Exited(-11));
        assert!(k.stats.syscalls >= 2);
    }

    #[test]
    fn mprotect_revokes_write() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, 0x9000_0000);
        a.mov_imm64(1, 0x1000);
        a.movz(2, 3, 0); // RW
        a.movz(8, Sysno::Mmap.nr() as u16, 0);
        a.svc(0);
        a.mov_imm64(3, 0x9000_0000);
        a.str(3, 3, 0); // fault in, writable
        a.mov_imm64(0, 0x9000_0000);
        a.mov_imm64(1, 0x1000);
        a.movz(2, 1, 0); // R
        a.movz(8, Sysno::Mprotect.nr() as u16, 0);
        a.svc(0);
        a.str(3, 3, 0); // now faults
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&Program::from_code(CODE, a.bytes()));
        k.enter_process(pid);
        assert_eq!(k.run(100_000), Event::Exited(-11));
    }

    #[test]
    fn guest_syscall_cheaper_than_host_on_carmel() {
        // Table 4: guest user->guest kernel (1,423) is far cheaper than
        // host user->host hypervisor (3,848) on Carmel.
        let measure = |mut k: Kernel| {
            let pid = k.spawn(&{
                let mut a = Asm::new(CODE);
                a.movz(8, Sysno::Yield.nr() as u16, 0);
                a.svc(0); // warm
                a.svc(0); // measured
                a.movz(8, Sysno::Exit.nr() as u16, 0);
                a.svc(0);
                Program::from_code(CODE, a.bytes())
            });
            k.enter_process(pid);
            k.run(100_000);
            k.machine.cpu.cycles
        };
        let host = measure(Kernel::new_host(Platform::Carmel));
        let guest = measure(Kernel::new_guest(Platform::Carmel));
        assert!(guest < host, "guest {guest} must be < host {host} on Carmel");
    }

    #[test]
    fn schedule_to_switches_context() {
        let mut k = Kernel::new_host(Platform::CortexA55);
        let p1 = k.spawn(&exit_prog(1));
        let p2 = k.spawn(&exit_prog(2));
        k.enter_process(p1);
        let c0 = k.machine.cpu.cycles;
        k.schedule_to(p2);
        assert!(k.machine.cpu.cycles > c0);
        assert_eq!(k.current(), Some(p2));
        assert_eq!(k.run(100_000), Event::Exited(2));
        assert_eq!(k.stats.ctx_switches, 1);
    }
}
