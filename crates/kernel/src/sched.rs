//! SMP scheduler: per-core run queues, work stealing, deterministic
//! epoch-sliced execution.
//!
//! [`Kernel::run_smp`] drives an N-core [`lz_machine`] machine the way
//! a real kernel's per-CPU schedulers would. Guest execution happens in
//! *epochs* ([`lz_machine::Machine::run_epoch`]): every busy core runs
//! its remaining quantum concurrently (host threads under
//! `LZ_PARALLEL`, sequential deterministic replay otherwise), and all
//! kernel work — trap handling, futex parks and wakes, thread
//! placement, shootdowns — happens barrier-side in core order, so runs
//! are byte-reproducible on either executor:
//!
//! * every core has its own FIFO run queue of `(pid, thread)` entries;
//! * `clone` places the new thread on the least-loaded *other* core;
//! * an idle core steals from the longest remote queue;
//! * the schedule/commit visiting origin rotates each round under a
//!   seedable LCG, so different seeds produce different (but each
//!   fully deterministic) interleavings.
//!
//! While `run_smp` is active the base kernel's cooperative intra-
//! process thread rotation is suppressed (`Kernel::smp_mode`): `yield`
//! simply returns (the thread runs out its quantum), and futex parks /
//! thread exits signal the scheduler through `Kernel::descheduled`
//! instead of switching in place.

use crate::kernel::{Event, Kernel, KernelMode};
use crate::process::Pid;
use lz_arch::pstate::ExceptionLevel;
use lz_arch::sysreg::{sctlr, ttbr, SysReg};
use lz_machine::Exit;
use std::collections::{BTreeSet, VecDeque};

/// Configuration for [`Kernel::run_smp`].
#[derive(Debug, Clone, Copy)]
pub struct SmpConfig {
    /// Number of cores to bring online (1..=[`lz_machine::MAX_CORES`]).
    pub cores: usize,
    /// Instructions per scheduling quantum.
    pub quantum: u64,
    /// Seed for the round-rotation schedule.
    pub seed: u64,
}

impl Default for SmpConfig {
    fn default() -> Self {
        SmpConfig { cores: 2, quantum: 64, seed: 0x5eed }
    }
}

/// Result of an [`Kernel::run_smp`] run.
#[derive(Debug, Clone, Default)]
pub struct SmpRun {
    /// Processes that exited, in exit order, with their codes.
    pub exited: Vec<(Pid, i64)>,
    /// Total instructions retired across all cores.
    pub steps: u64,
    /// The run ended before every process exited (instruction limit
    /// reached, a deadlock of parked threads, or a foreign event).
    pub stalled: bool,
}

impl Kernel {
    /// Run every spawned process across `cfg.cores` cores until all
    /// exit, `limit` total instructions retire, or nothing is runnable.
    ///
    /// Only base-kernel workloads are supported: a custom syscall or a
    /// raw machine exit aborts the run (`stalled = true`).
    pub fn run_smp(&mut self, cfg: SmpConfig, limit: u64) -> SmpRun {
        assert!(cfg.cores >= 1 && cfg.quantum > 0);
        let n = cfg.cores;
        let host = self.mode == KernelMode::Host;
        self.machine.configure_smp(n);
        self.smp_mode = true;
        self.descheduled = false;

        let mut queues: Vec<VecDeque<(Pid, usize)>> = vec![VecDeque::new(); n];
        // Threads currently queued or on a CPU (BTreeSet keeps every
        // auxiliary structure deterministic).
        let mut scheduled: BTreeSet<(Pid, usize)> = BTreeSet::new();
        // Initial placement: round-robin across cores, so the threads
        // of one process land on distinct cores.
        let mut slot = 0usize;
        for (&pid, p) in &self.procs {
            if p.exit_code.is_some() {
                continue;
            }
            for (i, t) in p.threads.iter().enumerate() {
                if !t.exited && !t.parked {
                    queues[slot % n].push_back((pid, i));
                    scheduled.insert((pid, i));
                    slot += 1;
                }
            }
        }

        let mut run = SmpRun::default();
        let mut lcg = cfg.seed;
        // What each core is executing: `(pid, thread, instructions left
        // in its quantum)`. A thread survives here across epochs when a
        // syscall returns mid-quantum — it resumes without paying the
        // activation path again, exactly like the pre-epoch scheduler's
        // in-slice continuation.
        let mut running: Vec<Option<(Pid, usize, u64)>> = vec![None; n];
        loop {
            if self.procs.values().all(|p| p.exit_code.is_some()) {
                break;
            }
            if run.steps >= limit {
                run.stalled = true;
                break;
            }
            // Schedule phase: fill idle cores, visiting cores from a
            // rotated origin (seedable schedule). Injected preemption
            // draws from the global chaos engine here, barrier-side, so
            // the schedule itself is fixed before the epoch runs.
            lcg = lz_machine::rng::lcg(lcg);
            let start = ((lcg >> 33) as usize) % n;
            for k in 0..n {
                let c = (start + k) % n;
                if running[c].is_some() {
                    continue;
                }
                let Some((pid, t)) = Self::pick_work(&mut queues, &mut scheduled, &self.procs, c) else {
                    continue;
                };
                self.machine.switch_core(c);
                self.activate_thread(host, pid, t);
                // Injected preemption: the slice ends at an adversarially
                // chosen instruction boundary instead of the full
                // quantum. Fail closed by construction — the thread is
                // re-queued exactly as on a normal quantum expiry, so the
                // fault only perturbs the interleaving.
                let quantum = match self.machine.chaos_fire(lz_machine::FaultSite::SchedPreempt) {
                    Some(draw) => {
                        self.machine.chaos.contained();
                        1 + draw % cfg.quantum
                    }
                    None => cfg.quantum,
                };
                running[c] = Some((pid, t, quantum));
            }
            let mut budgets = vec![0u64; n];
            for (c, slot) in running.iter().enumerate() {
                if let Some((_, _, left)) = slot {
                    budgets[c] = *left;
                }
            }
            if budgets.iter().all(|&b| b == 0) {
                // Every queue drained while processes remain: all
                // surviving threads are parked (deadlock) — bail out.
                run.stalled = true;
                break;
            }

            // Run phase: every busy core executes its budget; cross-core
            // effects commit at the barrier inside `run_epoch`.
            let results = self.machine.run_epoch(&budgets);

            // Commit phase: handle each core's exit in core order. All
            // kernel state mutation happens here, serially, so the
            // parallel and replay executors observe identical schedules.
            let mut foreign = false;
            for c in 0..n {
                let Some((pid, t, left)) = running[c] else {
                    continue;
                };
                let (exit, used) = results[c];
                run.steps += used;
                // The process may have exited on a core committed
                // earlier in this loop: its slice is stale, discard it.
                if self.procs[&pid].exit_code.is_some() {
                    running[c] = None;
                    continue;
                }
                self.machine.switch_core(c);
                // Several cores commit between activations: re-assert
                // which thread this core's register state belongs to
                // before any save/trap path consults `cur`.
                self.cur = Some(pid);
                if let Some(p) = self.procs.get_mut(&pid) {
                    p.cur_thread = t;
                }
                if exit == Exit::Limit {
                    // Quantum exhausted; the thread stays runnable.
                    self.save_current();
                    queues[c].push_back((pid, t));
                    running[c] = None;
                } else {
                    match self.handle_exit(exit) {
                        None => {
                            if self.descheduled {
                                // The thread left the CPU (futex park or
                                // thread exit).
                                self.descheduled = false;
                                scheduled.remove(&(pid, t));
                                running[c] = None;
                            } else {
                                // Syscall handled, thread resumes with
                                // the remainder of its quantum.
                                let left = left - used;
                                if left == 0 {
                                    self.save_current();
                                    queues[c].push_back((pid, t));
                                    running[c] = None;
                                } else {
                                    running[c] = Some((pid, t, left));
                                }
                            }
                        }
                        Some(Event::Exited(code)) => {
                            run.exited.push((pid, code));
                            for q in queues.iter_mut() {
                                q.retain(|e| e.0 != pid);
                            }
                            scheduled.retain(|e| e.0 != pid);
                            running[c] = None;
                            // Slices of this pid still pending on later
                            // cores are discarded by the exit_code
                            // re-check above.
                        }
                        Some(_) => {
                            // An event the SMP scheduler does not handle
                            // (custom syscall, LightZone trap): fatal.
                            foreign = true;
                        }
                    }
                }
                if foreign {
                    run.stalled = true;
                    self.smp_mode = false;
                    return run;
                }
                // Admit threads that became runnable during the commit
                // (clone, futex wake) onto the least-loaded other core.
                self.admit_new(&mut queues, &mut scheduled, c);
            }
        }
        self.smp_mode = false;
        run
    }

    /// Pop the next valid entry for core `c`, stealing from the longest
    /// remote queue when the local one is empty.
    fn pick_work(
        queues: &mut [VecDeque<(Pid, usize)>],
        scheduled: &mut BTreeSet<(Pid, usize)>,
        procs: &std::collections::BTreeMap<Pid, crate::process::Process>,
        c: usize,
    ) -> Option<(Pid, usize)> {
        loop {
            let entry = if let Some(e) = queues[c].pop_front() {
                Some(e)
            } else {
                // Work stealing: victim is the longest queue (lowest
                // index on ties); steal from the back (coldest work).
                // A queue of one is stealable only while at least two
                // entries are queued system-wide: with several runnable
                // threads an idle core must not starve just because each
                // victim queue holds exactly one (the `repro smp`
                // imbalance where core 0 retired almost nothing), but a
                // lone thread on an N-core machine stays put — stealing
                // it would ping-pong the thread across cold TLBs and
                // change single-thread cycle counts.
                let total_queued: usize = queues.iter().map(VecDeque::len).sum();
                let min_victim = if total_queued >= 2 { 1 } else { 2 };
                let victim = (0..queues.len())
                    .filter(|&i| i != c && queues[i].len() >= min_victim)
                    .max_by_key(|&i| (queues[i].len(), std::cmp::Reverse(i)))?;
                queues[victim].pop_back()
            };
            let (pid, t) = entry?;
            // Entries can go stale (process exited, thread parked by a
            // remote wake race): validate before running.
            let p = &procs[&pid];
            if p.exit_code.is_some() || p.threads[t].exited || p.threads[t].parked {
                scheduled.remove(&(pid, t));
                continue;
            }
            return Some((pid, t));
        }
    }

    /// Load thread `t` of `pid` onto the active core, charging the
    /// scheduler pick + register restore path.
    fn activate_thread(&mut self, host: bool, pid: Pid, t: usize) {
        let (root, asid, ctx) = {
            let p = self.procs.get_mut(&pid).expect("pid exists");
            p.cur_thread = t;
            (p.mm.root, p.mm.asid, p.ctx().clone())
        };
        self.cur = Some(pid);
        let m = &self.machine.model;
        let cost = m.path_cost(300) + m.gpregs_roundtrip(31);
        self.machine.charge(cost);
        self.stats.ctx_switches += 1;
        self.machine.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        let t0 = if ctx.ttbr0 != 0 { ctx.ttbr0 } else { ttbr::pack(asid, root) };
        self.machine.write_sysreg_charged(SysReg::TTBR0_EL1, t0);
        self.machine.cpu.x = ctx.x;
        if ctx.pstate.el == ExceptionLevel::El0 {
            self.machine.cpu.sp_el0 = ctx.sp;
        } else {
            self.machine.cpu.sp_el1 = ctx.sp;
        }
        if host {
            self.machine.enter(ctx.pstate, ctx.pc);
        } else {
            self.machine.enter_from_el1(ctx.pstate, ctx.pc);
        }
    }

    /// Enqueue threads that are runnable but not scheduled anywhere —
    /// the output side of `clone` and `futex(WAKE)`. The target is the
    /// least-loaded core, preferring any core other than `from` on
    /// ties, so cloned threads land on distinct cores.
    fn admit_new(
        &mut self,
        queues: &mut [VecDeque<(Pid, usize)>],
        scheduled: &mut BTreeSet<(Pid, usize)>,
        from: usize,
    ) {
        let n = queues.len();
        for (&pid, p) in &self.procs {
            if p.exit_code.is_some() {
                continue;
            }
            for (i, t) in p.threads.iter().enumerate() {
                if t.exited || t.parked || scheduled.contains(&(pid, i)) {
                    continue;
                }
                let target = (0..n).min_by_key(|&c| (queues[c].len(), c == from, c)).expect("at least one core");
                queues[target].push_back((pid, i));
                scheduled.insert((pid, i));
            }
        }
    }
}
