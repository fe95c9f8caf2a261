//! `repro` — regenerate every table and figure of the LightZone paper.
//!
//! ```text
//! repro table1        Table 1: qualitative framework comparison
//! repro table3        Table 3: sensitive-instruction rules (verified
//!                     against the live classifier)
//! repro table4        Table 4: trap round-trip cycles
//! repro table5        Table 5: domain-switch cycles
//! repro fig3          Figure 3: Nginx HTTPS throughput
//! repro fig4          Figure 4: MySQL OLTP throughput
//! repro fig5          Figure 5: NVM data-structure overhead
//! repro pentest       §7.2 penetration tests (128 domains)
//! repro memory        §9.1–9.3 memory overheads
//! repro ablation      Design-choice ablations (DESIGN.md §6)
//! repro throughput    Host-side simulator MIPS on both engines
//! repro stats         Observability report for a composite workload
//!                     (TLB, icache, walks, gates, W^X, stage-2, kernel)
//! repro smp           SMP scaling: a clone/futex/munmap workload on
//!                     1, 2, and 4 cores with shootdown traffic
//! repro chaos         Deterministic fault-injection soak: ≥10k faults
//!                     across the four chaos scenarios, zero tolerated
//!                     invariant or containment violations
//! repro attacks       Attack-synthesis corpus: seeded exploits swept
//!                     over every defense ablation, escapes shrunk to
//!                     minimal exploits (zero escapes defenses-on)
//! repro fleet         Fleet-scale serving: 64 tenants x 33 domains,
//!                     open-loop p50/p99/p999 latency on 1 and 4 cores,
//!                     churn through a full VMID-space rollover
//! repro recovery      Crash-recovery soak: ≥10k chaos faults against a
//!                     supervised fleet, warm restarts from snapshots,
//!                     watchdog kills, quarantines, recovery-latency
//!                     percentiles, zero invariant violations
//! repro all           Everything above except throughput (whose output
//!                     is wall-clock and so not byte-reproducible)
//! repro fig5 --full   Full domain sweep (slower)
//! repro stats --stats-json   Emit the metrics registry as JSON
//! repro smp --json    Emit the scaling results as JSON
//! repro chaos --json  Emit the soak report as JSON
//! repro attacks --json   Emit the attack corpus as JSON
//! repro fleet --json  Emit the fleet latency/churn results as JSON
//! repro recovery --json  Emit the recovery soak results as JSON
//! ```

use lz_arch::Platform;
use lz_bench::paper;
use lz_bench::table::{cyc, pct, Table};
use lz_workloads::micro;
use lz_workloads::{httpd, nvm, oltp, Deployment, Mechanism};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let full = args.iter().any(|a| a == "--full");
    match cmd {
        "table1" => table1(),
        "table3" => table3(),
        "table4" => table4(),
        "table5" => table5(full),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(full),
        "pentest" => pentest(),
        "memory" => memory(),
        "ablation" => ablation(),
        "throughput" => throughput(),
        "stats" => stats(args.iter().any(|a| a == "--stats-json" || a == "--json")),
        "smp" => smp(args.iter().any(|a| a == "--json")),
        "chaos" => chaos(args.iter().any(|a| a == "--json")),
        "attacks" => attacks(args.iter().any(|a| a == "--json")),
        "fleet" => fleet(args.iter().any(|a| a == "--json")),
        "recovery" => recovery(args.iter().any(|a| a == "--json")),
        "all" => {
            table1();
            table3();
            table4();
            table5(full);
            fig3();
            fig4();
            fig5(full);
            pentest();
            memory();
            ablation();
            smp(false);
            chaos(false);
            attacks(false);
            fleet(false);
            recovery(false);
        }
        other => {
            eprintln!("unknown command `{other}`; see the crate docs for usage");
            std::process::exit(2);
        }
    }
}

fn table1() {
    println!("\n== Table 1: in-process isolation frameworks for ARM64 ==\n");
    let mut t = Table::new(&["framework", "scalability", "efficiency", "security", "PCB"]);
    // Qualitative rows from the paper; the quantitative claims behind the
    // LightZone and Watchpoint rows are regenerated by table5/fig3-5.
    for (fw, sc, ef, sec, pcb) in [
        ("Watchpoint", "x (16)", "~", "ok", "ok"),
        ("PANIC", "x (2)", "ok", "x", "ok"),
        ("Capacity", "x (16)", "x", "ok", "x"),
        ("LFI", "ok (2^16)", "~", "ok", "x"),
        ("LightZone (this)", "ok (2^16)", "ok", "ok", "ok"),
        ("SFI", "~", "x", "ok", "~"),
        ("SFI w/o load sandboxing", "~", "~", "x", "~"),
        ("TDI", "# of data types", "~", "ok", "x"),
        ("lwC", "ok (unbounded)", "x", "ok", "ok"),
    ] {
        t.row(&[fw.into(), sc.into(), ef.into(), sec.into(), pcb.into()]);
    }
    print!("{}", t.render());
    // Back the LightZone row's scalability cell with the implementation
    // constant.
    println!("(LightZone max domains: {} — lightzone::MAX_DOMAINS)", lightzone::MAX_DOMAINS);
}

fn table3() {
    use lz_arch::insn::Insn;
    use lz_arch::sensitive::{classify, InsnClass, SanitizeMode};
    use lz_arch::sysreg::SysReg;
    println!("\n== Table 3: sensitive instructions (live classifier output) ==\n");
    let mut t = Table::new(&["type", "instruction", "TTBR (1)", "PAN (2)"]);
    let verdict = |w: u32, m: SanitizeMode| match classify(w, m) {
        InsnClass::Allowed => "allowed",
        InsnClass::GateOnly => "gate-only",
        InsnClass::Forbidden(_) => "forbidden",
    };
    let rows: Vec<(&str, &str, u32)> = vec![
        ("Exception", "eret", Insn::Eret.encode()),
        ("Unpriv", "ldtr x0, [x1]", Insn::Ldtr { rt: 0, rn: 1, offset: 0, size: lz_arch::insn::MemSize::X }.encode()),
        ("Unpriv", "sttr x0, [x1]", Insn::Sttr { rt: 0, rn: 1, offset: 0, size: lz_arch::insn::MemSize::X }.encode()),
        ("System", "msr spsel, #1 (op0=00 CRn=0100 op2!=PAN)", Insn::MsrImm { op1: 0, crm: 1, op2: 0b101 }.encode()),
        ("System", "msr pan, #1 (op0=00 CRn=0100 op2=PAN)", Insn::MsrImm { op1: 0, crm: 1, op2: 0b100 }.encode()),
        ("System", "dc civac, x0 (op0=01 CRn=7)", 0xD50B_7E20),
        ("System", "msr elr_el1, x0 (op0=11 CRn=4)", Insn::MsrReg { enc: SysReg::ELR_EL1.encoding(), rt: 0 }.encode()),
        ("System", "mrs x0, nzcv (op0=11 CRn=4, NZCV)", Insn::MrsReg { enc: SysReg::NZCV.encoding(), rt: 0 }.encode()),
        (
            "System",
            "msr vbar_el1, x0 (op0=11 CRn!=4 op1!=3)",
            Insn::MsrReg { enc: SysReg::VBAR_EL1.encoding(), rt: 0 }.encode(),
        ),
        (
            "System",
            "msr tpidr_el0, x0 (op0=11 op1=3)",
            Insn::MsrReg { enc: SysReg::TPIDR_EL0.encoding(), rt: 0 }.encode(),
        ),
        (
            "System",
            "msr ttbr0_el1, x0 (target TTBR0_EL1)",
            Insn::MsrReg { enc: SysReg::TTBR0_EL1.encoding(), rt: 0 }.encode(),
        ),
    ];
    for (ty, name, w) in rows {
        t.row(&[ty.into(), name.into(), verdict(w, SanitizeMode::Ttbr).into(), verdict(w, SanitizeMode::Pan).into()]);
    }
    print!("{}", t.render());
}

fn table4() {
    print!("{}", lz_bench::report::table4_report());
}

fn table5(full: bool) {
    print!("{}", lz_bench::report::table5_report(full));
}

fn throughput() {
    let r = lz_bench::throughput::run(20_000_000);
    println!("\n== Simulator throughput: compiled blocks vs the reference interpreter ==\n");
    println!("ALU hot loop, {} instructions:", r.alu.insns);
    println!("  accel on      {:>8.2} MIPS  ({} modelled cycles)", r.alu.mips_on(), r.alu.cycles_on);
    println!("  accel off     {:>8.2} MIPS  ({} modelled cycles)", r.alu.mips_off(), r.alu.cycles_off);
    println!("  speedup       {:>8.2}x", r.alu.speedup());
    println!("mixed ALU + load/store loop, {} instructions:", r.mem.insns);
    println!("  accel on      {:>8.2} MIPS  ({} modelled cycles)", r.mem.mips_on(), r.mem.cycles_on);
    println!("  accel off     {:>8.2} MIPS  ({} modelled cycles)", r.mem.mips_off(), r.mem.cycles_off);
    println!("  speedup       {:>8.2}x", r.mem.speedup());
    println!("cycles match (both workloads): {}", r.cycles_match());
}

fn loss_cell(series: &[(Mechanism, Vec<(u64, f64)>)], m: Mechanism) -> f64 {
    // Loss at the saturated tail of the sweep.
    let base = series.iter().find(|(mm, _)| *mm == Mechanism::Vanilla).expect("vanilla series");
    let mech = series.iter().find(|(mm, _)| *mm == m).expect("mechanism series");
    let b = base.1.last().expect("points").1;
    let v = mech.1.last().expect("points").1;
    (b - v) / b
}

fn fig3() {
    println!("\n== Figure 3: Nginx HTTPS throughput (1 worker, 1 KB file) ==\n");
    let sweep = [1u64, 2, 4, 8, 16, 32, 64, 128];
    let mut t = Table::new(&["cell", "LZ PAN loss", "LZ TTBR loss", "Watchpoint loss", "lwC loss"]);
    let cells = [
        ("Carmel Host", Platform::Carmel, Deployment::Host, paper::fig3::CARMEL_HOST),
        ("Carmel Guest", Platform::Carmel, Deployment::Guest, paper::fig3::CARMEL_GUEST),
        ("Cortex Host", Platform::CortexA55, Deployment::Host, paper::fig3::CORTEX_HOST),
        ("Cortex Guest", Platform::CortexA55, Deployment::Guest, paper::fig3::CORTEX_GUEST),
    ];
    for (name, p, d, (r_pan, r_ttbr, r_wp, r_lwc)) in cells {
        let series = httpd::figure3(p, d, &sweep);
        t.row(&[
            name.into(),
            format!("{} (paper {r_pan:.2}%)", pct(loss_cell(&series, Mechanism::LzPan))),
            format!("{} (paper {r_ttbr:.2}%)", pct(loss_cell(&series, Mechanism::LzTtbr))),
            format!("{} (paper {r_wp:.2}%)", pct(loss_cell(&series, Mechanism::Watchpoint))),
            format!("{} (paper {r_lwc:.2}%)", pct(loss_cell(&series, Mechanism::Lwc))),
        ]);
        // Also print the throughput curves (the figure's series).
        println!("[{name}] throughput (req/s) by concurrency:");
        for (m, pts) in &series {
            let line: Vec<String> = pts.iter().map(|(c, v)| format!("{c}:{v:.0}")).collect();
            println!("  {:<15} {}", m.name(), line.join(" "));
        }
    }
    print!("{}", t.render());
}

fn fig4() {
    println!("\n== Figure 4: MySQL OLTP read-write throughput ==\n");
    let sweep = [1u64, 2, 4, 8, 16, 32, 64];
    let mut t = Table::new(&["cell", "LZ PAN loss", "LZ TTBR loss", "Watchpoint loss", "lwC loss"]);
    let cells = [
        ("Carmel Host", Platform::Carmel, Deployment::Host, paper::fig4::CARMEL_HOST),
        (
            "Carmel Guest",
            Platform::Carmel,
            Deployment::Guest,
            (
                paper::fig4::CARMEL_GUEST_ALL,
                paper::fig4::CARMEL_GUEST_ALL,
                paper::fig4::CARMEL_GUEST_ALL,
                paper::fig4::CARMEL_GUEST_ALL,
            ),
        ),
        ("Cortex Host", Platform::CortexA55, Deployment::Host, paper::fig4::CORTEX_HOST),
        ("Cortex Guest", Platform::CortexA55, Deployment::Guest, paper::fig4::CORTEX_GUEST),
    ];
    for (name, p, d, (r_pan, r_ttbr, r_wp, r_lwc)) in cells {
        let series = oltp::figure4(p, d, &sweep);
        t.row(&[
            name.into(),
            format!("{} (paper {r_pan:.2}%)", pct(loss_cell(&series, Mechanism::LzPan))),
            format!("{} (paper {r_ttbr:.2}%)", pct(loss_cell(&series, Mechanism::LzTtbr))),
            format!("{} (paper {r_wp:.2}%)", pct(loss_cell(&series, Mechanism::Watchpoint))),
            format!("{} (paper {r_lwc:.2}%)", pct(loss_cell(&series, Mechanism::Lwc))),
        ]);
        println!("[{name}] throughput (txn/s) by threads:");
        for (m, pts) in &series {
            let line: Vec<String> = pts.iter().map(|(c, v)| format!("{c}:{v:.0}")).collect();
            println!("  {:<15} {}", m.name(), line.join(" "));
        }
    }
    print!("{}", t.render());
}

fn fig5(full: bool) {
    println!("\n== Figure 5: NVM data-structure benchmark time overhead ==\n");
    let buffers: &[usize] = if full { &[1, 2, 4, 8, 16, 32, 64, 128] } else { &[2, 16, 64] };
    let mut t = Table::new(&["cell", "mechanism", "buffers", "overhead", "paper (avg)"]);
    let cells = [
        (
            "Carmel Host",
            Platform::Carmel,
            Deployment::Host,
            paper::fig5::CARMEL_HOST_PAN,
            paper::fig5::CARMEL_HOST_TTBR,
        ),
        (
            "Carmel Guest",
            Platform::Carmel,
            Deployment::Guest,
            paper::fig5::CARMEL_GUEST_PAN,
            paper::fig5::CARMEL_GUEST_TTBR,
        ),
        (
            "Cortex Host",
            Platform::CortexA55,
            Deployment::Host,
            paper::fig5::CORTEX_HOST_PAN,
            paper::fig5::CORTEX_HOST_TTBR,
        ),
        (
            "Cortex Guest",
            Platform::CortexA55,
            Deployment::Guest,
            paper::fig5::CORTEX_GUEST_PAN,
            paper::fig5::CORTEX_GUEST_TTBR,
        ),
    ];
    for (name, p, d, r_pan, r_ttbr) in cells {
        for &m in &[Mechanism::LzPan, Mechanism::LzTtbr, Mechanism::Watchpoint, Mechanism::Lwc] {
            for &b in buffers {
                if m == Mechanism::Watchpoint && b > 16 {
                    continue;
                }
                let r = nvm::nvm_overhead(p, d, m, b);
                let paper_note = match m {
                    Mechanism::LzPan => format!("{r_pan:.2}%"),
                    Mechanism::LzTtbr => format!("{r_ttbr:.2}%"),
                    _ => "-".into(),
                };
                t.row(&[name.into(), m.name().into(), b.to_string(), pct(r.overhead), paper_note]);
            }
        }
    }
    print!("{}", t.render());
}

fn pentest() {
    println!("\n== §7.2 penetration tests (128 protected domains) ==\n");
    // The integration suite in tests/penetration.rs runs the full attack
    // matrix; here we run the two headline configurations inline.
    let results = lz_workloads_pentest();
    let mut t = Table::new(&["attack", "mechanism", "outcome"]);
    for (attack, mech, outcome) in results {
        t.row(&[attack.into(), mech.into(), outcome]);
    }
    print!("{}", t.render());
}

/// Run the §7.2 attacks and report outcomes.
/// `repro stats` — run a composite workload that touches every
/// instrumented subsystem (TLB, icache, page-table walks, call gates,
/// W^X/sanitizer, stage-2, syscalls) and dump the metrics registry,
/// either as a text report or as JSON (`--stats-json`).
fn stats(json: bool) {
    use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_TTBR};
    use lightzone::module::AblationConfig;
    use lightzone::LightZone;
    const CODE: u64 = 0x40_0000;
    const ARENA: u64 = 0x5000_0000;
    const JIT: u64 = 0x61_0000;

    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(ARENA, 8 * 4096, lz_kernel::VmProt::RW);
    let mut seed = lz_arch::asm::Asm::new(JIT);
    seed.nop();
    seed.ret();
    b.with_segment(JIT, seed.bytes(), lz_kernel::VmProt::RWX);
    b.asm.lz_enter(true, SAN_TTBR);
    // Four TTBR domains over the arena; one call gate per switch site
    // (gate ids are single-use), cycling through the domains twice.
    for d in 0..4u64 {
        b.asm.lz_alloc();
        b.asm.lz_prot_imm(ARENA + d * 4096, 4096, d + 1, RW);
    }
    for round in 0..8u64 {
        b.asm.lz_map_gate_pgt_imm(round % 4 + 1, round);
    }
    // Gate-switch loop: touch each domain's page from inside it.
    for round in 0..8u64 {
        let d = round % 4;
        b.lz_switch_to_ttbr_gate(round as u16);
        b.asm.mov_imm64(1, ARENA + d * 4096);
        b.asm.ldr(2, 1, 0);
        b.asm.add_imm(2, 2, 1);
        b.asm.str(2, 1, 0);
    }
    // W^X cycle on the jit page: execute (scan), rewrite through the
    // writable flip (break-before-make), execute again (rescan).
    b.asm.mov_imm64(17, JIT);
    b.asm.blr(17);
    b.asm.mov_imm64(1, JIT);
    b.asm.mov_imm64(2, lz_arch::insn::Insn::Movz { rd: 9, imm16: 7, hw: 0 }.encode() as u64);
    b.asm.emit(lz_arch::insn::Insn::StrImm { rt: 2, rn: 1, offset: 0, size: lz_arch::insn::MemSize::W });
    b.asm.mov_imm64(17, JIT);
    b.asm.blr(17);
    // A few syscalls for the kernel/trap counters.
    b.asm.mov_imm64(23, 16);
    b.asm.mov_imm64(8, lz_kernel::Sysno::Yield.nr());
    let top = b.asm.label();
    b.asm.bind(top);
    b.asm.svc(0);
    b.asm.subs_imm(23, 23, 1);
    b.asm.b_ne(top);
    b.asm.exit_imm(0);
    let prog = b.build();

    // Guest deployment with lazy stage-2 so stage-2 faults are exercised.
    let ablation = AblationConfig { eager_stage2: false, ..AblationConfig::default() };
    let mut lz = LightZone::with_ablation(Platform::CortexA55, true, ablation);
    lz.kernel.machine.set_metrics(true);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let exit = lz.run_to_exit();
    assert_eq!(exit, 0, "stats workload must exit cleanly, got {exit}");

    let report = lz.metrics_report();
    if json {
        println!("{}", report.to_json());
    } else {
        println!("\n== Observability report: composite workload ==\n");
        print!("{}", report.to_text());
        let journal = &lz.kernel.machine.journal;
        println!("\nevent journal ({} events, newest last):", journal.len());
        let text = journal.dump_text();
        let tail: Vec<&str> = text.lines().rev().take(12).collect();
        for line in tail.iter().rev() {
            println!("  {line}");
        }
    }
}

/// SMP scaling: a clone/futex/munmap workload driven by the per-core
/// scheduler on 1, 2, and 4 cores. Every number is a pure function of
/// the config, so two invocations emit byte-identical output (the CI
/// determinism leg re-runs and compares).
fn smp(json: bool) {
    use lz_kernel::syscall::futex;
    use lz_kernel::{Kernel, Program, SmpConfig, Sysno};
    const CODE: u64 = 0x40_0000;
    const SHARED: u64 = 0x50_0000;
    const ARENA: u64 = 0x5100_0000;
    const STACKS: u64 = 0x7000_0000;
    const WORKERS: u64 = 3;
    const ITERS: u16 = 600;

    // main: clone WORKERS workers, futex-join each, exit with the slot
    // sum. worker i: pound its own arena page, munmap it (IPI shootdown
    // traffic on a multi-core machine), post slot i, futex-wake.
    let mut a = lz_arch::asm::Asm::new(CODE);
    let worker = a.label();
    for i in 0..WORKERS {
        a.adr(0, worker);
        a.mov_imm64(1, STACKS + (i + 1) * 0x4000);
        a.mov_imm64(2, i);
        a.mov_imm64(8, Sysno::Clone.nr());
        a.svc(0);
    }
    for i in 0..WORKERS {
        a.mov_imm64(11, SHARED + i * 8);
        let wait = a.label();
        let done = a.label();
        a.bind(wait);
        a.ldr(4, 11, 0);
        a.cbnz(4, done);
        a.mov_reg(0, 11);
        a.mov_imm64(1, futex::WAIT);
        a.movz(2, 0, 0);
        a.mov_imm64(8, Sysno::Futex.nr());
        a.svc(0);
        a.b(wait);
        a.bind(done);
    }
    a.movz(3, 0, 0);
    for i in 0..WORKERS {
        a.mov_imm64(11, SHARED + i * 8);
        a.ldr(4, 11, 0);
        a.add_reg(3, 3, 4);
    }
    a.mov_reg(0, 3);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    a.bind(worker);
    a.mov_reg(19, 0); // worker index
    a.mov_imm64(9, ARENA);
    a.lsl_imm(10, 19, 12);
    a.add_reg(9, 9, 10);
    a.movz(1, ITERS, 0);
    let top = a.label();
    a.bind(top);
    a.ldr(2, 9, 0);
    a.add_imm(2, 2, 1);
    a.str(2, 9, 0);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, top);
    a.mov_reg(0, 9);
    a.mov_imm64(1, 4096);
    a.mov_imm64(8, Sysno::Munmap.nr());
    a.svc(0);
    a.mov_imm64(12, SHARED);
    a.lsl_imm(11, 19, 3);
    a.add_reg(11, 12, 11);
    a.movz(13, 1, 0);
    a.str(13, 11, 0);
    a.mov_reg(0, 11);
    a.mov_imm64(1, futex::WAKE);
    a.movz(2, 1, 0);
    a.mov_imm64(8, Sysno::Futex.nr());
    a.svc(0);
    // Workers exit with the join sum too: the process code is the last
    // thread's, and under epoch scheduling a worker's post-wake exit
    // can commit after the main thread's.
    a.movz(0, WORKERS as u16, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    let prog = Program::from_code(CODE, a.bytes())
        .with_anon_segment(SHARED, 4096, lz_kernel::VmProt::RW)
        .with_anon_segment(ARENA, WORKERS * 4096, lz_kernel::VmProt::RW)
        .with_anon_segment(STACKS, (WORKERS + 1) * 0x4000, lz_kernel::VmProt::RW);

    let quantum = 64u64;
    let seed = 0x5eed_u64;
    struct Row {
        cores: usize,
        steps: u64,
        makespan: u64,
        sent: u64,
        ipis: u64,
        ctx: u64,
        epochs: u64,
        epoch_waits: u64,
        barrier_stalls: u64,
        merge_conflicts: u64,
        per_core: Vec<(u64, u64)>,
    }
    let mut rows = Vec::new();
    for cores in [1usize, 2, 4, 8] {
        let mut k = Kernel::new_host(Platform::CortexA55);
        k.spawn(&prog);
        let run = k.run_smp(SmpConfig { cores, quantum, seed }, 10_000_000);
        assert!(!run.stalled, "smp workload stalled on {cores} cores");
        assert_eq!(run.exited.first().map(|e| e.1), Some(WORKERS as i64), "workers must all join");
        let m = &k.machine;
        let makespan = (0..cores).map(|i| m.core_cpu(i).cycles).max().unwrap();
        let per_core: Vec<(u64, u64)> = (0..cores).map(|i| (m.core_cpu(i).insns, m.core_cpu(i).cycles)).collect();
        rows.push(Row {
            cores,
            steps: run.steps,
            makespan,
            sent: m.smp().shootdowns_sent,
            ipis: m.smp().ipis_sent,
            ctx: k.stats.ctx_switches,
            epochs: m.smp().epochs,
            epoch_waits: m.smp().epoch_waits,
            barrier_stalls: m.smp().barrier_stalls,
            merge_conflicts: m.smp().phys_merge_conflicts,
            per_core,
        });
    }
    let host = smp_host_scaling();

    if json {
        let runs: Vec<String> = rows
            .iter()
            .map(|r| {
                let pc: Vec<String> = r
                    .per_core
                    .iter()
                    .enumerate()
                    .map(|(i, (insns, cycles))| format!(r#"{{"core":{i},"insns":{insns},"cycles":{cycles}}}"#))
                    .collect();
                format!(
                    concat!(
                        r#"{{"cores":{},"steps":{},"makespan_cycles":{},"shootdowns_sent":{},"ipis_sent":{},"#,
                        r#""ctx_switches":{},"epochs":{},"epoch_waits":{},"barrier_stalls":{},"#,
                        r#""phys_merge_conflicts":{},"per_core":[{}]}}"#
                    ),
                    r.cores,
                    r.steps,
                    r.makespan,
                    r.sent,
                    r.ipis,
                    r.ctx,
                    r.epochs,
                    r.epoch_waits,
                    r.barrier_stalls,
                    r.merge_conflicts,
                    pc.join(",")
                )
            })
            .collect();
        println!(
            concat!(
                r#"{{"benchmark":"smp_scaling","workers":{},"quantum":{},"seed":{},"runs":[{}],"#,
                r#""host":{}}}"#
            ),
            WORKERS,
            quantum,
            seed,
            runs.join(","),
            host.json(),
        );
    } else {
        println!("\n== SMP scaling: clone/futex/munmap workload, {WORKERS} workers ==\n");
        let mut t = Table::new(&[
            "cores",
            "steps",
            "makespan cyc",
            "speedup",
            "shootdowns",
            "ctx switches",
            "epochs",
            "conflicts",
        ]);
        let base = rows[0].makespan as f64;
        for r in &rows {
            t.row(&[
                r.cores.to_string(),
                r.steps.to_string(),
                cyc(r.makespan as f64),
                format!("{:.2}x", base / r.makespan as f64),
                r.sent.to_string(),
                r.ctx.to_string(),
                r.epochs.to_string(),
                r.merge_conflicts.to_string(),
            ]);
        }
        print!("{}", t.render());
        // Host timing goes to stderr, like sim_throughput's human line:
        // stdout must stay byte-reproducible so `repro all` can be
        // `cmp`'d across reruns.
        eprintln!(
            "\nhost executor ({} hw threads): parallel {:.1} ms vs replay {:.1} ms = {:.2}x, {:.2} host MIPS",
            host.host_parallelism,
            host.parallel_ns as f64 / 1e6,
            host.replay_ns as f64 / 1e6,
            host.speedup_milli as f64 / 1e3,
            host.mips_milli as f64 / 1e3,
        );
    }
}

/// Host wall-clock scaling of the parallel epoch executor: `HOST_CORES`
/// independent compute-bound processes (hot JIT-able ALU loops, ~4M
/// instructions each) driven by `run_smp` with a coarse quantum, timed
/// once on the parallel backend and once on sequential replay.
///
/// Everything in this struct except the *modelled* totals is host
/// timing — nondeterministic by nature. The CI determinism legs strip
/// the `host` object before byte-comparing.
struct HostScaling {
    host_parallelism: u64,
    cores: u64,
    quantum: u64,
    steps: u64,
    parallel_ns: u64,
    replay_ns: u64,
    /// `replay_ns / parallel_ns`, in thousandths.
    speedup_milli: u64,
    /// Guest instructions per host wall-clock second on the parallel
    /// backend, in thousandths of a MIPS.
    mips_milli: u64,
}

impl HostScaling {
    fn json(&self) -> String {
        format!(
            concat!(
                r#"{{"host_parallelism":{},"cores":{},"quantum":{},"steps":{},"parallel_ns":{},"#,
                r#""replay_ns":{},"speedup_milli":{},"mips_milli":{}}}"#
            ),
            self.host_parallelism,
            self.cores,
            self.quantum,
            self.steps,
            self.parallel_ns,
            self.replay_ns,
            self.speedup_milli,
            self.mips_milli,
        )
    }
}

fn smp_host_scaling() -> HostScaling {
    use lz_kernel::{Kernel, Program, SmpConfig, Sysno};
    const CODE: u64 = 0x40_0000;
    const HOST_CORES: usize = 4;
    const QUANTUM: u64 = 65_536;
    const ITERS: u64 = 1_333_334; // 3 insns/iter: ~4M instructions per process

    let mut a = lz_arch::asm::Asm::new(CODE);
    a.mov_imm64(1, ITERS);
    let top = a.label();
    a.bind(top);
    a.add_imm(2, 2, 3);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, top);
    a.movz(0, 0x2a, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    let prog = Program::from_code(CODE, a.bytes());

    let drive = |parallel: bool| {
        let mut k = Kernel::new_host(Platform::CortexA55);
        k.machine.set_parallel(parallel);
        for _ in 0..HOST_CORES {
            k.spawn(&prog);
        }
        let start = std::time::Instant::now();
        let run = k.run_smp(SmpConfig { cores: HOST_CORES, quantum: QUANTUM, seed: 0x5eed }, 100_000_000);
        let ns = start.elapsed().as_nanos() as u64;
        assert!(!run.stalled, "host-scaling workload stalled");
        assert_eq!(run.exited.len(), HOST_CORES, "every compute process exits");
        (run.steps, ns.max(1))
    };
    let (steps, parallel_ns) = drive(true);
    let (replay_steps, replay_ns) = drive(false);
    assert_eq!(steps, replay_steps, "parallel and replay retired different instruction counts");

    HostScaling {
        host_parallelism: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
        cores: HOST_CORES as u64,
        quantum: QUANTUM,
        steps,
        parallel_ns,
        replay_ns,
        speedup_milli: replay_ns.saturating_mul(1000) / parallel_ns,
        mips_milli: steps.saturating_mul(1_000_000) / parallel_ns,
    }
}

fn chaos(json: bool) {
    const SEED: u64 = 0x1297_5EED;
    const RATE: u64 = 8;
    const TARGET_FAULTS: u64 = 10_000;
    let report = lz_chaos::run_soak(SEED, RATE, TARGET_FAULTS, 2_000);
    if json {
        println!("{}", report.to_json(SEED, RATE));
    } else {
        println!("\n== Chaos soak: deterministic fault injection, seed {SEED:#x}, rate 1/{RATE} ==\n");
        let mut t = Table::new(&["runs", "faults injected", "contained", "ve kills", "journal drops", "violations"]);
        t.row(&[
            report.runs.to_string(),
            report.faults_injected.to_string(),
            report.faults_contained.to_string(),
            report.ve_kills.to_string(),
            report.journal_dropped.to_string(),
            report.problems.len().to_string(),
        ]);
        print!("{}", t.render());
    }
    if !report.ok() {
        for p in &report.problems {
            eprintln!("chaos: {p}");
        }
        if let Some((scenario, seed, plan)) = &report.first_failure {
            if let Some((schedule, problems)) = lz_chaos::shrink_plan(*scenario, *seed, plan) {
                eprintln!(
                    "chaos: first failure shrunk to {} fault(s) at seq {:?}: {}",
                    schedule.len(),
                    schedule,
                    problems.join("; ")
                );
            }
        }
        std::process::exit(1);
    }
}

/// `repro attacks` — run the seeded attack-synthesis corpus over the
/// full ablation matrix on 1 and 4 cores and report
/// per-defense escapes with their shrunk minimal exploits. The run is a
/// pure function of the seed: `--json` output is byte-deterministic and
/// the CI corpus gate re-runs and compares.
fn attacks(json: bool) {
    const SEED: u64 = 0x1297_5EED;
    let report = lz_chaos::run_synthesis(&lz_chaos::SynthConfig::full(SEED));
    if json {
        println!("{}", report.to_json());
    } else {
        println!(
            "\n== Attack-synthesis corpus: seed {SEED:#x}, {} candidates, {} runs ==\n",
            report.candidates, report.runs
        );
        let mut fam = Table::new(&["family", "candidates"]);
        for (name, n) in &report.families {
            fam.row(&[(*name).into(), n.to_string()]);
        }
        print!("{}", fam.render());
        println!();
        let mut t = Table::new(&["ablated defense", "runs", "escapes", "distinct attacks", "shrunk exploits"]);
        let col = |t: &mut Table, o: &lz_chaos::synth::AblationOutcome| {
            let shrunk: Vec<String> =
                o.shrunk.iter().map(|s| format!("{} ({}→{})", s.attack, s.steps, s.shrunk_steps)).collect();
            t.row(&[
                o.defense.into(),
                o.runs.to_string(),
                o.escapes.to_string(),
                o.distinct_attacks.join(" "),
                shrunk.join(" "),
            ]);
        };
        col(&mut t, &report.defenses_on);
        for o in &report.ablations {
            col(&mut t, o);
        }
        print!("{}", t.render());
    }
    if !report.ok() {
        for p in report.problems() {
            eprintln!("attacks: {p}");
        }
        std::process::exit(1);
    }
}

/// `repro fleet` — the fleet-scale serving benchmark: a resident pool
/// of 64 tenants x (32 + 1) domains serving gate-switching requests, an
/// open-loop latency overlay, and enough VE churn on the 1-core leg to
/// roll the full 16-bit VMID space over. Pure function of the seed:
/// `--json` output is byte-deterministic and the CI fleet gate re-runs
/// and compares.
fn fleet(json: bool) {
    use lz_fleet::{run_fleet, FleetConfig};
    let runs: Vec<lz_fleet::FleetRun> =
        [1usize, 4, 8].iter().map(|&cores| run_fleet(&FleetConfig::paper(Platform::Carmel, cores))).collect();
    let seed = FleetConfig::paper(Platform::Carmel, 1).seed;
    if json {
        let bodies: Vec<String> = runs.iter().map(|r| r.json()).collect();
        println!("{{\"benchmark\": \"fleet\", \"seed\": {seed}, \"runs\": [{}]}}", bodies.join(", "));
    } else {
        println!("\n== Fleet-scale serving: open-loop latency + VMID rollover churn ==\n");
        let mut t = Table::new(&[
            "cores",
            "domains",
            "switch p50/p99/p999",
            "request p50/p99/p999",
            "vmid recycles",
            "rollovers",
            "shootdowns",
        ]);
        for r in &runs {
            t.row(&[
                r.cores.to_string(),
                r.domains_live_peak.to_string(),
                format!("{}/{}/{}", r.switch_cycles.p50, r.switch_cycles.p99, r.switch_cycles.p999),
                format!("{}/{}/{}", r.request_latency.p50, r.request_latency.p99, r.request_latency.p999),
                r.vmid_recycles.to_string(),
                r.vmid_rollovers.to_string(),
                r.rollover_shootdowns.to_string(),
            ]);
        }
        print!("{}", t.render());
        let rollovers: u64 = runs.iter().map(|r| r.vmid_rollovers).sum();
        println!(
            "(churn: {} VE reaps total, {rollovers} full VMID-space rollover(s))",
            runs.iter().map(|r| r.ve_reaps).sum::<u64>()
        );
    }
}

/// `repro recovery` — the chaos-driven crash-recovery soak: a
/// supervised 12-slot fleet on 2 cores absorbs ≥10k injected faults
/// (`ve_crash`, `snapshot_corrupt`, `restart_storm`); every death is
/// killed, backed off, and warm-restarted from its last request-boundary
/// snapshot (or quarantined after three strikes), with per-restart
/// invariant oracles. Pure function of the seed: `--json` output is
/// byte-deterministic and the CI recovery gate re-runs and compares.
fn recovery(json: bool) {
    use lz_fleet::{run_recovery, RecoveryConfig};
    let cfg = RecoveryConfig::paper(Platform::Carmel, 2);
    let run = run_recovery(&cfg);
    if json {
        println!("{{\"benchmark\": \"recovery\", \"seed\": {}, \"run\": {}}}", cfg.seed, run.json());
    } else {
        println!("\n== Crash-recovery soak: supervised fleet under chaos injection ==\n");
        let mut t = Table::new(&[
            "faults",
            "crashes",
            "watchdog",
            "warm restarts",
            "cold restarts",
            "denials",
            "quarantines",
            "recovery p50/p99 (epochs)",
            "violations",
        ]);
        t.row(&[
            run.faults_injected.to_string(),
            run.ve_crashes.to_string(),
            run.watchdog_kills.to_string(),
            run.warm_restarts.to_string(),
            run.cold_restarts.to_string(),
            run.denials.to_string(),
            run.quarantines.to_string(),
            format!("{}/{}", run.recovery_epochs.p50, run.recovery_epochs.p99),
            run.invariant_violations.to_string(),
        ]);
        print!("{}", t.render());
        println!(
            "(containment: {}/{} faults contained, {} snapshots, {} VMID recycles all shot down)",
            run.faults_contained, run.faults_injected, run.snapshots_taken, run.vmid_recycles
        );
    }
    if run.invariant_violations != 0 {
        eprintln!("recovery: {} invariant violation(s)", run.invariant_violations);
        std::process::exit(1);
    }
}

fn lz_workloads_pentest() -> Vec<(&'static str, &'static str, String)> {
    use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_PAN, SAN_TTBR, USER};
    use lightzone::pgt::PGT_ALL;
    use lightzone::{LightZone, SECURITY_KILL};
    const CODE: u64 = 0x40_0000;
    const ARENA: u64 = 0x5000_0000;
    let mut out = Vec::new();

    // PAN: 128 domains as user pages; random illegal direct access.
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(ARENA, 128 * 4096, lz_kernel::VmProt::RW);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.lz_prot_imm(ARENA, 128 * 4096, PGT_ALL, RW | USER);
    b.asm.mov_imm64(1, ARENA + 77 * 4096);
    b.asm.ldr(2, 1, 0); // PAN set: illegal
    b.asm.exit_imm(0);
    let prog = b.build();
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let code = lz.run_to_exit();
    out.push((
        "direct access, 128 PAN domains",
        "LightZone PAN",
        if code == SECURITY_KILL { "terminated (caught)".into() } else { format!("MISSED (exit {code})") },
    ));

    // TTBR: 128 domains in separate tables; access from the wrong one.
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(ARENA, 128 * 4096, lz_kernel::VmProt::RW);
    b.asm.lz_enter(true, SAN_TTBR);
    for d in 0..128u64 {
        b.asm.lz_alloc();
        b.asm.lz_map_gate_pgt_imm(d + 1, d);
        b.asm.lz_prot_imm(ARENA + d * 4096, 4096, d + 1, RW);
    }
    b.lz_switch_to_ttbr_gate(3);
    b.asm.mov_imm64(1, ARENA + 99 * 4096); // belongs to domain 99, not 3
    b.asm.ldr(2, 1, 0);
    b.asm.exit_imm(0);
    let prog = b.build();
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let code = lz.run_to_exit();
    out.push((
        "cross-domain access, 128 TTBR domains",
        "LightZone TTBR",
        if code == SECURITY_KILL { "terminated (caught)".into() } else { format!("MISSED (exit {code})") },
    ));

    // Sensitive-instruction injection.
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.eret();
    let prog = b.build();
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let code = lz.run_to_exit();
    out.push((
        "sensitive-instruction injection (eret)",
        "LightZone",
        if code == SECURITY_KILL { "terminated (caught)".into() } else { format!("MISSED (exit {code})") },
    ));

    out
}

fn memory() {
    println!("\n== §9 memory overheads ==\n");
    let mut t = Table::new(&["benchmark", "metric", "reproduced", "paper"]);
    let h = httpd::memory_overhead(100);
    t.row(&[
        "Nginx".into(),
        "fragmentation".into(),
        pct(h.fragmentation),
        format!("{}%", paper::fig3::MEM_FRAGMENTATION),
    ]);
    t.row(&[
        "Nginx".into(),
        "PAN page tables".into(),
        pct(h.pan_page_tables),
        format!("{}%", paper::fig3::MEM_PAN_TABLES),
    ]);
    t.row(&[
        "Nginx".into(),
        "TTBR page tables".into(),
        pct(h.ttbr_page_tables),
        format!("up to {}%", paper::fig3::MEM_TTBR_TABLES),
    ]);
    let o = oltp::memory_overhead(64);
    t.row(&["MySQL".into(), "application".into(), pct(o.app_overhead), format!("{}%", paper::fig4::MEM_APP)]);
    t.row(&[
        "MySQL".into(),
        "PAN page tables".into(),
        pct(o.pan_page_tables),
        format!("{}%", paper::fig4::MEM_PAN_TABLES),
    ]);
    t.row(&[
        "MySQL".into(),
        "TTBR page tables".into(),
        pct(o.ttbr_page_tables),
        format!("{}%", paper::fig4::MEM_TTBR_TABLES),
    ]);
    print!("{}", t.render());
}

fn ablation() {
    println!("\n== Design-choice ablations (DESIGN.md §6) ==\n");
    let mut t = Table::new(&["design choice", "platform", "with (cycles)", "without (cycles)"]);

    // 1. HCR/VTTBR retention (paper §5.2.1) on the LZ->host trap.
    for p in Platform::ALL {
        let with = micro::lz_syscall_cycles(p, Deployment::Host);
        // Without: switch HCR_EL2 + VTTBR_EL2 on every trap.
        let m = p.model();
        let without = with + 2.0 * (m.hcr_el2_write + m.vttbr_el2_write) as f64;
        t.row(&["retain HCR/VTTBR across traps".into(), p.name().into(), cyc(with), cyc(without)]);
    }

    // 2. Per-table ASIDs vs TLBI on switch (paper §4.1.2).
    for p in Platform::ALL {
        let with = micro::ttbr_switch_cycles(p, Deployment::Host, 16);
        let abl = lightzone::AblationConfig {
            gate_flavor: lightzone::gate::GateFlavor { check_phase: true, tlbi_after_switch: true },
            ..Default::default()
        };
        let without = micro::ttbr_switch_cycles_with(p, Deployment::Host, 16, abl);
        t.row(&["per-table ASIDs (vs TLBI per switch)".into(), p.name().into(), cyc(with), cyc(without)]);
    }

    // 3. Gate check phase (security; cost shown for completeness).
    for p in Platform::ALL {
        let with = micro::ttbr_switch_cycles(p, Deployment::Host, 16);
        let abl = lightzone::AblationConfig {
            gate_flavor: lightzone::gate::GateFlavor { check_phase: false, tlbi_after_switch: false },
            ..Default::default()
        };
        let without = micro::ttbr_switch_cycles_with(p, Deployment::Host, 16, abl);
        t.row(&["gate check phase (2)".into(), p.name().into(), cyc(with), cyc(without)]);
    }

    // 4. Lowvisor optimizations vs conventional nested virtualization.
    for p in Platform::ALL {
        let with = micro::lz_syscall_cycles(p, Deployment::Guest);
        let abl =
            lightzone::AblationConfig { shared_pt_regs: false, deferred_sysreg_page: false, ..Default::default() };
        let without = lz_syscall_cycles_with(p, abl);
        t.row(&["Lowvisor optimizations (vs 2 full switches)".into(), p.name().into(), cyc(with), cyc(without)]);
    }
    print!("{}", t.render());
}

/// LZ guest syscall cost under an ablation config.
fn lz_syscall_cycles_with(platform: Platform, ablation: lightzone::AblationConfig) -> f64 {
    use lightzone::api::{LzAsm, LzProgramBuilder, SAN_TTBR};
    const CODE: u64 = 0x40_0000;
    let run = |n: u64| {
        let mut b = LzProgramBuilder::new(CODE);
        b.asm.lz_enter(true, SAN_TTBR);
        b.asm.mov_imm64(23, n);
        b.asm.mov_imm64(8, lz_kernel::Sysno::Yield.nr());
        let top = b.asm.label();
        b.asm.bind(top);
        b.asm.svc(0);
        b.asm.subs_imm(23, 23, 1);
        b.asm.b_ne(top);
        b.asm.exit_imm(0);
        let prog = b.build();
        let mut lz = lightzone::LightZone::with_ablation(platform, true, ablation.clone());
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run(400_000_000), lz_kernel::Event::Exited(0));
        lz.kernel.machine.cpu.cycles
    };
    (run(2000) as f64 - run(1000) as f64) / 1000.0
}
