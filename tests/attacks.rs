//! Integration gate over the attack-synthesis harness
//! ([`lz_chaos::synth`]): a fixed-seed corpus must (a) never escape
//! with every defense on, (b) demonstrably escape under each ablated
//! *security* defense (the corpus has teeth), (c) shrink every escape
//! to a no-larger exploit, and (d) be byte-deterministic — the same
//! seed yields the same JSON, which is what the CI corpus gate replays.
//!
//! Also here: the journal drop-oldest boundary test (satellite of the
//! same PR) — the bounded event ring must evict oldest-first, count
//! every eviction, and never perturb the metrics counters.

use lightzone::{AblationConfig, LightZone};
use lz_chaos::synth::{run_synthesis, SynthConfig, ESCAPE_FLOOR, SECURITY_DEFENSES};
use lz_machine::json::Json;
use lz_machine::metrics::Journal;

const SEED: u64 = 0x1297_5EED;

#[test]
fn synthesized_corpus_has_teeth_and_is_deterministic() {
    let cfg = SynthConfig::full(SEED);
    let report = run_synthesis(&cfg);

    // (a) + floors: `problems()` encodes the acceptance criteria —
    // zero defenses-on escapes, >= 5 families, >= ESCAPE_FLOOR distinct
    // escapes per ablated security defense, zero escapes under the
    // cost-model ablations.
    assert!(report.ok(), "corpus gate failed:\n{}", report.problems().join("\n"));
    assert!(report.families.len() >= 5, "families: {:?}", report.families);
    assert_eq!(report.defenses_on.escapes, 0, "defenses-on escapes");

    // (b) the security ablations each let >= ESCAPE_FLOOR distinct
    // attacks through, and every escape was shrunk to a minimal exploit
    // no larger than the original.
    for d in SECURITY_DEFENSES {
        let col = report
            .ablations
            .iter()
            .find(|a| a.defense == d.name())
            .unwrap_or_else(|| panic!("missing ablation column {}", d.name()));
        assert!(col.distinct_attacks.len() >= ESCAPE_FLOOR, "{}: only {:?} escaped", d.name(), col.distinct_attacks);
        assert!(!col.shrunk.is_empty(), "{}: no shrunk exploits", d.name());
        for s in &col.shrunk {
            assert!(s.shrunk_steps >= 1, "{}: {} shrunk to nothing", d.name(), s.attack);
            assert!(
                s.shrunk_steps <= s.steps,
                "{}: {} grew under shrinking ({} -> {})",
                d.name(),
                s.attack,
                s.steps,
                s.shrunk_steps
            );
        }
    }

    // (d) byte-determinism: an independent second run of the same
    // config must serialize identically.
    let again = run_synthesis(&cfg);
    assert_eq!(report.to_json(), again.to_json(), "corpus JSON must be byte-deterministic");
}

/// Drive a workload that emits plenty of journal events (gate switches,
/// W^X transitions, traps) under `capacity`, returning the journal's
/// recorded events, the dropped count, and the cycle/insn counters.
fn journal_run(capacity: Option<usize>) -> (Vec<lz_machine::metrics::Event>, u64, u64, u64) {
    use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_TTBR};
    use lz_arch::{Platform, PAGE_SIZE};
    const CODE: u64 = 0x40_0000;
    const ARENA: u64 = 0x5000_0000;

    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(ARENA, 8 * PAGE_SIZE, lz_kernel::VmProt::RW);
    b.asm.lz_enter(true, SAN_TTBR);
    for d in 0..4u64 {
        b.asm.lz_alloc();
        b.asm.lz_map_gate_pgt_imm(d + 1, d);
        b.asm.lz_prot_imm(ARENA + d * PAGE_SIZE, PAGE_SIZE, d + 1, RW);
    }
    for d in 0..4u64 {
        b.lz_switch_to_ttbr_gate(d as u16);
        b.asm.mov_imm64(1, ARENA + d * PAGE_SIZE);
        b.asm.ldr(2, 1, 0);
    }
    b.asm.exit_imm(0);
    let prog = b.build();

    let mut lz = LightZone::with_ablation(Platform::CortexA55, false, AblationConfig::default());
    if let Some(cap) = capacity {
        lz.kernel.machine.journal = Journal::new(cap);
    }
    lz.kernel.machine.set_metrics(true);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    assert_eq!(lz.run_to_exit(), 0);
    let m = &lz.kernel.machine;
    let events: Vec<_> = m.journal.events().copied().collect();
    (events, m.journal.dropped(), m.cpu.cycles, m.cpu.insns)
}

#[test]
fn journal_drops_oldest_at_capacity_without_touching_counters() {
    const SMALL: usize = 16;
    let (full, full_dropped, full_cycles, full_insns) = journal_run(None);
    assert_eq!(full_dropped, 0, "reference run must fit in the default ring");
    assert!(full.len() > SMALL, "workload must overflow the small ring ({} events)", full.len());

    let (kept, dropped, cycles, insns) = journal_run(Some(SMALL));

    // The ring holds exactly its capacity, the dropped counter accounts
    // for every evicted event, and what remains is the *newest* tail of
    // the full event stream, oldest-first and in order.
    assert_eq!(kept.len(), SMALL);
    assert_eq!(dropped, (full.len() - SMALL) as u64);
    assert_eq!(kept.as_slice(), &full[full.len() - SMALL..], "ring must keep the newest events in order");

    // Journal bounding is pure observability: the architectural and
    // cost counters are untouched by the capacity choice.
    assert_eq!(cycles, full_cycles);
    assert_eq!(insns, full_insns);
}
