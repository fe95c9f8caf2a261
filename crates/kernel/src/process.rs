//! Processes, programs, and saved user contexts.

use crate::vma::{Mm, VmProt, Vma, VmaSource};
use lz_arch::pstate::PState;
use lz_machine::PhysMem;
use std::sync::Arc;

/// Process identifier.
pub type Pid = u32;

/// A loadable segment of a program image.
#[derive(Debug, Clone)]
pub struct Segment {
    pub va: u64,
    pub data: Vec<u8>,
    pub prot: VmProt,
}

/// A program image: segments plus entry point and stack geometry.
///
/// Programs are built with [`lz_arch::asm::Asm`]; there is no ELF loader
/// because nothing in the evaluation needs one.
#[derive(Debug, Clone)]
pub struct Program {
    pub segments: Vec<Segment>,
    /// Anonymous zero-filled regions `(va, len, prot)` — used for large
    /// buffers that should fault in lazily rather than carry bytes.
    pub anon_segments: Vec<(u64, u64, VmProt)>,
    /// Anonymous regions backed by 2 MiB huge pages (2 MiB-aligned).
    pub huge_segments: Vec<(u64, u64, VmProt)>,
    pub entry: u64,
    /// Top of the initial stack (grows down).
    pub stack_top: u64,
    pub stack_size: u64,
}

impl Program {
    /// Convenience: one code segment plus a default 64 KiB stack at
    /// `0x7fff_0000`.
    pub fn from_code(entry: u64, code: Vec<u8>) -> Self {
        Program {
            segments: vec![Segment { va: entry, data: code, prot: VmProt::RX }],
            anon_segments: Vec::new(),
            huge_segments: Vec::new(),
            entry,
            stack_top: 0x7fff_0000,
            stack_size: 0x1_0000,
        }
    }

    /// Add a data segment, builder-style.
    pub fn with_segment(mut self, va: u64, data: Vec<u8>, prot: VmProt) -> Self {
        self.segments.push(Segment { va, data, prot });
        self
    }

    /// Add an anonymous zero-filled segment, builder-style.
    pub fn with_anon_segment(mut self, va: u64, len: u64, prot: VmProt) -> Self {
        self.anon_segments.push((va, len, prot));
        self
    }

    /// Add a huge-page-backed anonymous segment (2 MiB aligned).
    pub fn with_huge_segment(mut self, va: u64, len: u64, prot: VmProt) -> Self {
        self.huge_segments.push((va, len, prot));
        self
    }
}

/// Saved user-mode register context (the kernel's `pt_regs`).
#[derive(Debug, Clone)]
pub struct UserContext {
    pub x: [u64; 31],
    pub sp: u64,
    pub pc: u64,
    pub pstate: PState,
    /// Saved `TTBR0_EL1` value — LightZone adds TTBR0 (and PAN, which
    /// lives in `pstate`) to the context so signal delivery and scheduling
    /// restore the correct domain (§6).
    pub ttbr0: u64,
}

impl UserContext {
    /// Fresh EL0 context at `entry` with the given stack pointer.
    pub fn user_at(entry: u64, sp: u64) -> Self {
        UserContext { x: [0; 31], sp, pc: entry, pstate: PState::user(), ttbr0: 0 }
    }
}

/// One thread of a process.
#[derive(Debug, Clone)]
pub struct Thread {
    pub tid: u32,
    pub ctx: UserContext,
    pub exited: bool,
    /// Parked on a futex: live but not runnable until woken.
    pub parked: bool,
}

/// A kernel-visible process.
#[derive(Debug)]
pub struct Process {
    pub pid: Pid,
    pub mm: Mm,
    /// Threads; index 0 is the initial thread.
    pub threads: Vec<Thread>,
    /// Index of the thread currently (or last) on the CPU.
    pub cur_thread: usize,
    next_tid: u32,
    pub exit_code: Option<i64>,
    /// Marked by the LightZone module once the process has entered a
    /// virtual environment (one-way ticket, §4.1.1); the base kernel then
    /// routes its traps to the module.
    pub in_lightzone: bool,
    /// Registered signal handlers: signal number → handler VA.
    pub sig_handlers: std::collections::HashMap<u64, u64>,
    /// Signals raised but not yet delivered.
    pub sig_pending: std::collections::VecDeque<u64>,
    /// Futex wait queues: user address → tids parked on it, in arrival
    /// order (FIFO wake).
    pub futex_waiters: std::collections::BTreeMap<u64, std::collections::VecDeque<u32>>,
    /// The interrupted context while a handler runs. The saved
    /// [`UserContext`] carries TTBR0 and (via PSTATE) PAN — the
    /// LightZone-extended signal context of §6 ("PAN and TTBR0 are added
    /// in the signal contexts of the kernel for correct signal
    /// handling"). One level; no nested delivery while a handler runs.
    pub sig_frame: Option<UserContext>,
}

impl Process {
    /// Create a process from a program image: registers VMAs (including
    /// the stack) and prepares the entry context. Pages fault in lazily.
    ///
    /// # Panics
    ///
    /// Panics on an image whose segments are empty, unaligned or overlap
    /// — a bug in the host code that built it; no guest input reaches
    /// here.
    pub fn load(pid: Pid, asid: u16, mem: &mut PhysMem, program: &Program) -> Self {
        fn add(mm: &mut Mm, vma: Vma) {
            let (start, end) = (vma.start, vma.end);
            if let Err(e) = mm.add_vma(vma) {
                panic!("program image segment {start:#x}..{end:#x}: {e:?}");
            }
        }
        let mut mm = Mm::new(mem, asid);
        for seg in &program.segments {
            let start = lz_arch::page_align_down(seg.va);
            let end = lz_arch::page_align_up(seg.va + seg.data.len().max(1) as u64);
            add(&mut mm, Vma { start, end, prot: seg.prot, source: VmaSource::Bytes(Arc::new(seg.data.clone())) });
        }
        for &(va, len, prot) in &program.anon_segments {
            let (start, end) = (lz_arch::page_align_down(va), lz_arch::page_align_up(va + len));
            add(&mut mm, Vma { start, end, prot, source: VmaSource::Anon });
        }
        for &(va, len, prot) in &program.huge_segments {
            add(&mut mm, Vma { start: va, end: va + len, prot, source: VmaSource::Anon });
            mm.mark_huge(va, va + len);
        }
        let stack = program.stack_top - program.stack_size;
        add(&mut mm, Vma { start: stack, end: program.stack_top, prot: VmProt::RW, source: VmaSource::Anon });
        let ctx = UserContext::user_at(program.entry, program.stack_top - 16);
        Process {
            pid,
            mm,
            threads: vec![Thread { tid: 1, ctx, exited: false, parked: false }],
            cur_thread: 0,
            next_tid: 2,
            exit_code: None,
            in_lightzone: false,
            sig_handlers: std::collections::HashMap::new(),
            sig_pending: std::collections::VecDeque::new(),
            futex_waiters: std::collections::BTreeMap::new(),
            sig_frame: None,
        }
    }

    /// The current thread's saved context.
    pub fn ctx(&self) -> &UserContext {
        &self.threads[self.cur_thread].ctx
    }

    /// Mutable access to the current thread's saved context.
    pub fn ctx_mut(&mut self) -> &mut UserContext {
        let i = self.cur_thread;
        &mut self.threads[i].ctx
    }

    /// The current thread's id.
    pub fn current_tid(&self) -> u32 {
        self.threads[self.cur_thread].tid
    }

    /// Create a new thread starting at `entry` with the given stack
    /// pointer and `arg` in x0; returns its tid. The caller provides the
    /// stack (a real `pthread_create` maps one first).
    pub fn spawn_thread(&mut self, entry: u64, sp: u64, arg: u64) -> u32 {
        let tid = self.next_tid;
        self.next_tid += 1;
        let mut ctx = UserContext::user_at(entry, sp);
        ctx.x[0] = arg;
        self.threads.push(Thread { tid, ctx, exited: false, parked: false });
        tid
    }

    /// Mark the current thread exited. Returns `true` when it was the
    /// last runnable thread (the process is done).
    pub fn exit_current_thread(&mut self) -> bool {
        let i = self.cur_thread;
        self.threads[i].exited = true;
        self.threads.iter().all(|t| t.exited)
    }

    /// Index of the next runnable thread after the current one
    /// (round-robin), if any. Parked (futex-waiting) threads are
    /// skipped — they are live but not runnable.
    pub fn next_runnable(&self) -> Option<usize> {
        let n = self.threads.len();
        (1..=n).map(|d| (self.cur_thread + d) % n).find(|&i| !self.threads[i].exited && !self.threads[i].parked)
    }

    /// Number of live threads.
    pub fn live_threads(&self) -> usize {
        self.threads.iter().filter(|t| !t.exited).count()
    }

    /// Number of runnable (live and not futex-parked) threads.
    pub fn runnable_threads(&self) -> usize {
        self.threads.iter().filter(|t| !t.exited && !t.parked).count()
    }

    /// The next signal to deliver and its handler, popped from the
    /// pending queue: `None` while a handler runs (no nested delivery)
    /// or when nothing is pending. A pending signal with no handler is
    /// dropped (its default action is the caller's business).
    pub fn take_signal(&mut self) -> Option<(u64, u64)> {
        if self.sig_frame.is_some() {
            return None;
        }
        let sig = self.sig_pending.pop_front()?;
        self.sig_handlers.get(&sig).map(|&handler| (sig, handler))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_registers_vmas() {
        let mut mem = PhysMem::new();
        let prog = Program::from_code(0x40_0000, vec![0u8; 100]).with_segment(0x50_0000, vec![1, 2, 3], VmProt::RW);
        let p = Process::load(7, 3, &mut mem, &prog);
        assert_eq!(p.pid, 7);
        assert_eq!(p.mm.asid, 3);
        assert!(p.mm.vma_at(0x40_0000).is_some());
        assert!(p.mm.vma_at(0x50_0000).is_some());
        assert!(p.mm.vma_at(0x7ffe_8000).is_some(), "stack VMA");
        assert_eq!(p.ctx().pc, 0x40_0000);
        assert_eq!(p.ctx().sp, 0x7fff_0000 - 16);
    }

    #[test]
    fn code_vma_is_rx() {
        let mut mem = PhysMem::new();
        let prog = Program::from_code(0x40_0000, vec![0u8; 100]);
        let p = Process::load(1, 1, &mut mem, &prog);
        let vma = p.mm.vma_at(0x40_0000).unwrap();
        assert!(vma.prot.exec && !vma.prot.write);
    }
}
