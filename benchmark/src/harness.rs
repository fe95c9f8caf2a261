//! What every workload shares: the engine switches, the split exit
//! dispatch, guest read-back, and the layer counters.

use crate::trace::{Boundary, Tracer};
use lightzone::LightZone;
use lz_arch::esr::ExceptionClass;
use lz_arch::sysreg::SysReg;
use lz_arch::PAGE_SIZE;
use lz_kernel::{Event, Pid};
use lz_machine::{Exit, Machine};
use std::collections::BTreeMap;

/// The engine switches every measured machine runs with, pinned to the
/// repository defaults so that no `LZ_*` variable changes what is
/// measured: fetch cache, fast path, JIT, parallel epochs, journal.
pub const ENGINE: [(&str, bool); 5] =
    [("fetch_cache", true), ("fastpath", true), ("jit", true), ("parallel", true), ("journal", true)];

/// Set the process-wide engine defaults. Call before building machines.
pub fn pin_engine_defaults() {
    lz_machine::set_default_fetch_cache(ENGINE[0].1);
    lz_machine::set_default_fastpath(ENGINE[1].1);
    lz_machine::set_default_jit(ENGINE[2].1);
    lz_machine::set_default_parallel(ENGINE[3].1);
    lz_machine::metrics::set_default_metrics(ENGINE[4].1);
}

/// Set the engine switches on one machine and check they took.
pub fn pin_engine(m: &mut Machine) {
    m.set_fetch_cache(ENGINE[0].1);
    m.set_fastpath(ENGINE[1].1);
    m.set_jit(ENGINE[2].1);
    m.set_parallel(ENGINE[3].1);
    m.set_metrics(ENGINE[4].1);
    let live = [m.fetch_cache(), m.fastpath(), m.jit(), m.parallel(), m.journal.is_enabled()];
    for ((name, want), got) in ENGINE.iter().zip(live) {
        assert_eq!(*want, got, "engine switch {name} did not take");
    }
}

/// `LightZone::dispatch_exit`, re-implemented so each layer's share is
/// its own span: the kernel's trap handler first, then the module's
/// custom-syscall or VE-exit handler. `None` means handled.
pub fn dispatch(lz: &mut LightZone, tr: &mut Tracer, exit: Exit) -> Option<Event> {
    match tr.span(Boundary::KernelHandleExit, || lz.kernel.handle_exit(exit))? {
        Event::Custom { nr, args } => {
            tr.span(Boundary::LzHandleCustom, || lz.module.handle_custom(&mut lz.kernel, nr, args))
        }
        Event::Raw(exit) => {
            let in_lz = lz.kernel.current().is_some_and(|pid| lz.kernel.process(pid).in_lightzone);
            if in_lz {
                tr.span(Boundary::LzHandleVeExit, || lz.module.handle_ve_exit(&mut lz.kernel, exit))
            } else {
                Some(Event::Raw(exit))
            }
        }
        other => Some(other),
    }
}

/// `LightZone::spawn`, with the kernel's part as its own span.
pub fn spawn(lz: &mut LightZone, tr: &mut Tracer, prog: &lightzone::LzProgram) -> Pid {
    let pid = tr.span(Boundary::KernelSpawn, || lz.kernel.spawn(&prog.program));
    lz.module.register_entries(pid, prog.gate_entries.clone());
    pid
}

/// `LightZone::run`: enter the machine and dispatch until an event the
/// caller must see.
pub fn run_to_event(lz: &mut LightZone, tr: &mut Tracer, limit: u64) -> Event {
    loop {
        let exit = tr.span(Boundary::MachineRun, || lz.kernel.machine.run(limit));
        if let Some(ev) = dispatch(lz, tr, exit) {
            return ev;
        }
    }
}

/// Whether `exit` is a LightZone VE's `svc` with syscall number `nr`
/// (a VE syscall leaves the machine as an HVC from the EL1 stub, with
/// the original class in `ESR_EL1` and the number still in x8).
pub fn is_ve_syscall(m: &Machine, exit: Exit, nr: u64) -> bool {
    exit == Exit::El2(ExceptionClass::Hvc)
        && ExceptionClass::from_esr(m.sysreg(SysReg::ESR_EL1)) == Some(ExceptionClass::Svc)
        && m.cpu.x[8] == nr
}

/// One u64 of a (live or exited, unreaped) guest's memory; 0 if the
/// page was never populated.
pub fn read_guest_u64(lz: &LightZone, pid: Pid, va: u64) -> u64 {
    let Some(pa) = lz.kernel.process(pid).mm.page_at(va & !(PAGE_SIZE - 1)) else {
        return 0;
    };
    lz.kernel.machine.mem.read_u64(pa + (va & (PAGE_SIZE - 1))).unwrap_or(0)
}

/// FNV-1a over 64-bit words, for compact digests of guest state.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: derives independent input seeds from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Raw layer counters at one instant. Machine counters are summed over
/// every core.
pub type Raw = BTreeMap<&'static str, u64>;

pub fn raw_machine(m: &Machine) -> Raw {
    let mut r = Raw::new();
    for i in 0..m.num_cores() {
        let (cpu, tlb) = (m.core_cpu(i), m.core_tlb(i));
        let (hits, misses) = tlb.stats();
        let (ihits, imisses) = tlb.icache().stats();
        let w = tlb.walk_stats();
        let f = tlb.fast_stats();
        for (k, v) in [
            ("insns", cpu.insns),
            ("cycles", cpu.cycles),
            ("tlb_hits", hits),
            ("tlb_misses", misses),
            ("icache_hits", ihits),
            ("icache_misses", imisses),
            ("s1_walks", w.s1_walks),
            ("s2_walks", w.s2_walks),
            ("walkcache_hits", f.walkcache_hits),
            ("dtlb_hits", f.dtlb_hits),
            ("jit_compiled", f.jit_compiled),
            ("jit_blocks", f.jit_blocks),
            ("superblock_exits", f.superblock_exits),
        ] {
            *r.entry(k).or_insert(0) += v;
        }
    }
    let smp = m.smp();
    r.insert("traps", m.metrics.traps.values().sum());
    r.insert("gate_switches", m.metrics.domain_switches);
    r.insert("epochs", smp.epochs);
    r.insert("epoch_waits", smp.epoch_waits);
    r.insert("barrier_stalls", smp.barrier_stalls);
    r.insert("phys_merge_conflicts", smp.phys_merge_conflicts);
    r.insert("shootdowns_sent", smp.shootdowns_sent);
    r.insert("journal_events", m.journal.len() as u64 + m.journal.dropped());
    r
}

pub fn raw_lz(lz: &LightZone) -> Raw {
    let mut r = raw_machine(&lz.kernel.machine);
    let rep = lz.metrics_report();
    let get = |section: &str, key: &str| rep.section(section).and_then(|s| s.get(key)).unwrap_or(0);
    r.insert("syscalls", get("kernel", "syscalls"));
    r.insert("page_faults", get("kernel", "page_faults"));
    r.insert("processes", get("kernel", "processes"));
    r.insert("ve_traps", get("lz", "ve_traps"));
    r.insert("ve_syscalls", get("lz", "ve_syscalls"));
    r.insert("stage2_faults", get("stage2", "faults"));
    r.insert("domains", get("lz", "domains"));
    r.insert("vmid_recycles", get("fleet", "vmid_recycles"));
    r.insert("vmid_rollovers", get("fleet", "vmid_rollovers"));
    r.insert("rollover_shootdowns", get("fleet", "rollover_shootdowns"));
    r.insert("ve_reaps", get("fleet", "ve_reaps"));
    r
}

/// The per-layer counters of the measured phase, from raw counters at
/// its start and end plus the machine entries made in between.
pub fn layer_counters(before: &Raw, after: &Raw, entries: u64) -> Vec<(String, f64)> {
    let d = |k: &str| after.get(k).copied().unwrap_or(0).saturating_sub(before.get(k).copied().unwrap_or(0)) as f64;
    let level = |k: &str| after.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = vec![
        ("lz-machine.insns_per_entry", ratio(d("insns"), entries as f64)),
        ("lz-machine.cpi", ratio(d("cycles"), d("insns"))),
        ("lz-machine.tlb.hit_ratio", ratio(d("tlb_hits"), d("tlb_hits") + d("tlb_misses"))),
        ("lz-machine.tlb.misses", d("tlb_misses")),
        ("lz-machine.icache.hit_ratio", ratio(d("icache_hits"), d("icache_hits") + d("icache_misses"))),
        ("lz-machine.walk.s1_walks", d("s1_walks")),
        ("lz-machine.walk.s2_walks", d("s2_walks")),
        ("lz-machine.walk.walkcache_hits", d("walkcache_hits")),
        ("lz-machine.walk.dtlb_hits", d("dtlb_hits")),
        ("lz-machine.jit.compiled", d("jit_compiled")),
        ("lz-machine.jit.blocks", d("jit_blocks")),
        // Over the whole round: blocks compiled during set-up run later.
        ("lz-machine.jit.reuse", ratio(level("jit_blocks"), level("jit_compiled"))),
        ("lz-machine.superblock_exits", d("superblock_exits")),
        ("lz-machine.traps.total", d("traps")),
        ("lz-machine.gate.switches", d("gate_switches")),
        ("lz-machine.smp.epochs", d("epochs")),
        ("lz-machine.smp.epoch_waits", d("epoch_waits")),
        ("lz-machine.smp.barrier_stalls", d("barrier_stalls")),
        ("lz-machine.smp.phys_merge_conflicts", d("phys_merge_conflicts")),
        ("lz-machine.smp.shootdowns_sent", d("shootdowns_sent")),
        ("lz-machine.journal_events", d("journal_events")),
        ("lz-kernel.syscalls", d("syscalls")),
        ("lz-kernel.page_faults", d("page_faults")),
        ("lightzone.ve_traps", d("ve_traps")),
        ("lightzone.ve_syscalls", d("ve_syscalls")),
        ("lightzone.stage2_faults", d("stage2_faults")),
        // A level, not a flow: live domains at the end of the phase.
        ("lightzone.domains", level("domains")),
        ("lightzone.fleet.vmid_recycles", d("vmid_recycles")),
        ("lightzone.fleet.vmid_rollovers", d("vmid_rollovers")),
        ("lightzone.fleet.rollover_shootdowns", d("rollover_shootdowns")),
        ("lightzone.fleet.ve_reaps", d("ve_reaps")),
    ];
    out.sort_by(|a, b| a.0.cmp(b.0));
    out.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Machine entries made so far (calls of `Machine::run` and
/// `Machine::run_epoch`, traced or not).
pub fn entries(tr: &Tracer) -> u64 {
    tr.calls_total[Boundary::MachineRun as usize] + tr.calls_total[Boundary::MachineRunEpoch as usize]
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
