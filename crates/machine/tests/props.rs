//! Property-based tests for translation, permissions, and TLB coherence.

use lz_arch::pstate::ExceptionLevel;
use lz_arch::sysreg::ttbr;
use lz_arch::Platform;
use lz_machine::pte::S1Perms;
use lz_machine::tlb::TlbEntry;
use lz_machine::walk::{
    alloc_table, fetch, s1_lookup, s1_map_page, s1_unmap, translate, Access, AccessCtx, FaultKind, WalkConfig,
};
use lz_machine::{PhysMem, Tlb};
use proptest::prelude::*;

fn any_perms() -> impl Strategy<Value = S1Perms> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(write, user_exec, priv_exec, el0, global)| S1Perms { read: true, write, user_exec, priv_exec, el0, global },
    )
}

fn any_page_va() -> impl Strategy<Value = u64> {
    // Low-half, 48-bit, page-aligned.
    (0u64..(1 << 36)).prop_map(|p| p << 12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// translate() agrees with s1_lookup() on address and reachability for
    /// arbitrary map sequences.
    #[test]
    fn translate_matches_lookup(vas in proptest::collection::vec(any_page_va(), 1..20), probe in any_page_va()) {
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let model = Platform::CortexA55.model();
        let root = alloc_table(&mut mem);
        let perms = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
        for &va in &vas {
            let pa = mem.alloc_frame();
            s1_map_page(&mut mem, root, va, pa, perms);
        }
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let actx = AccessCtx { el: ExceptionLevel::El0, pan: false, unpriv: false };
        let walked = translate(&mem, &mut tlb, &model, &cfg, probe, Access::Read, &actx);
        let looked = s1_lookup(&mem, root, probe);
        match (walked, looked) {
            (Ok(t), Some((pa, _, _))) => prop_assert_eq!(t.pa, pa),
            (Err(f), None) => prop_assert_eq!(f.kind, FaultKind::Translation),
            (w, l) => prop_assert!(false, "mismatch: {:?} vs {:?}", w, l),
        }
    }

    /// Permission outcomes are exactly what the leaf bits say, for every
    /// combination of EL, PAN, and access kind.
    #[test]
    fn permissions_honored(perms in any_perms(), el0 in any::<bool>(), pan in any::<bool>(), wr in any::<bool>()) {
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let model = Platform::CortexA55.model();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        let va = 0x40_0000u64;
        s1_map_page(&mut mem, root, va, frame, perms);
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let el = if el0 { ExceptionLevel::El0 } else { ExceptionLevel::El1 };
        let actx = AccessCtx { el, pan, unpriv: false };
        let access = if wr { Access::Write } else { Access::Read };
        let res = translate(&mem, &mut tlb, &model, &cfg, va, access, &actx);
        let expect_ok = if el0 {
            perms.el0 && (!wr || perms.write)
        } else {
            (!pan || !perms.el0) && (!wr || perms.write)
        };
        prop_assert_eq!(res.is_ok(), expect_ok, "perms={:?} el0={} pan={} wr={}", perms, el0, pan, wr);
    }

    /// After unmapping, translation faults — provided the TLB entry for
    /// that page is invalidated (break-before-make contract).
    #[test]
    fn unmap_with_tlbi_faults(vas in proptest::collection::vec(any_page_va(), 1..10)) {
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let model = Platform::CortexA55.model();
        let root = alloc_table(&mut mem);
        let perms = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
        for &va in &vas {
            let pa = mem.alloc_frame();
            s1_map_page(&mut mem, root, va, pa, perms);
        }
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let actx = AccessCtx { el: ExceptionLevel::El0, pan: false, unpriv: false };
        let victim = vas[0];
        // Touch it (fills the TLB)…
        prop_assert!(translate(&mem, &mut tlb, &model, &cfg, victim, Access::Read, &actx).is_ok());
        // …unmap + invalidate…
        s1_unmap(&mut mem, root, victim);
        tlb.invalidate_va(cfg.vmid(), victim);
        // …and it faults.
        prop_assert!(translate(&mem, &mut tlb, &model, &cfg, victim, Access::Read, &actx).is_err());
    }

    /// A stale TLB entry keeps translating after the tables change — the
    /// architectural hazard that motivates break-before-make (§6.3).
    #[test]
    fn stale_tlb_entry_survives_table_edit(va in any_page_va()) {
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let model = Platform::CortexA55.model();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        let perms = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
        s1_map_page(&mut mem, root, va, frame, perms);
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let actx = AccessCtx { el: ExceptionLevel::El0, pan: false, unpriv: false };
        prop_assert!(translate(&mem, &mut tlb, &model, &cfg, va, Access::Read, &actx).is_ok());
        s1_unmap(&mut mem, root, va);
        // No TLBI: the stale entry still hits.
        let t = translate(&mem, &mut tlb, &model, &cfg, va, Access::Read, &actx).unwrap();
        prop_assert!(t.tlb_hit);
        prop_assert_eq!(t.pa, frame);
    }

    /// Every TLB invalidation variant also evicts the matching
    /// fetch-cache entries: the icache must never outlive the
    /// TLBI that software issued for the page.
    #[test]
    fn tlbi_variants_evict_decoded_blocks(
        vmid in 0u16..4,
        asid in 1u16..100,
        va in any_page_va(),
        variant in 0u8..4,
    ) {
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let pa = mem.alloc_frame();
        tlb.icache_mut().seed_entry(&mem, vmid, Some(asid), va, pa);
        prop_assert!(tlb.icache().contains(vmid, Some(asid), va));
        match variant {
            0 => tlb.invalidate_all(),
            1 => tlb.invalidate_vmid(vmid),
            2 => tlb.invalidate_asid(vmid, asid),
            _ => tlb.invalidate_va(vmid, va),
        }
        prop_assert!(
            !tlb.icache().contains(vmid, Some(asid), va),
            "variant {} left a page entry behind", variant
        );
    }

    /// Invalidations scoped to *other* tags leave the entry alone, in the
    /// TLB and the fetch cache alike.
    #[test]
    fn scoped_tlbi_spares_unrelated_blocks(
        vmid in 0u16..4,
        asid in 1u16..100,
        va in any_page_va(),
        other_va in any_page_va(),
        variant in 0u8..3,
    ) {
        prop_assume!(va >> 12 != other_va >> 12);
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let pa = mem.alloc_frame();
        tlb.icache_mut().seed_entry(&mem, vmid, Some(asid), va, pa);
        match variant {
            0 => tlb.invalidate_vmid(vmid + 1),
            1 => tlb.invalidate_asid(vmid, asid + 1),
            _ => tlb.invalidate_va(vmid, other_va),
        }
        prop_assert!(
            tlb.icache().contains(vmid, Some(asid), va),
            "variant {} evicted an unrelated page entry", variant
        );
    }

    /// Global (nG=0) entries survive `TLBI ASIDE1` in both structures —
    /// the behaviour LightZone's unprotected mappings rely on across
    /// domain switches.
    #[test]
    fn globals_survive_asid_invalidate_in_both(
        vmid in 0u16..4,
        asid in 1u16..100,
        va_g in any_page_va(),
        va_ng in any_page_va(),
    ) {
        prop_assume!(va_g >> 12 != va_ng >> 12);
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let pa_g = mem.alloc_frame();
        let pa_ng = mem.alloc_frame();
        let global = TlbEntry { asid: None, pa_page: pa_g, s1: S1Perms::kernel_data(), s2: None };
        let nonglobal = TlbEntry { asid: Some(asid), pa_page: pa_ng, s1: S1Perms::kernel_data(), s2: None };
        tlb.insert(vmid, va_g, global);
        tlb.insert(vmid, va_ng, nonglobal);
        tlb.icache_mut().seed_entry(&mem, vmid, None, va_g, pa_g);
        tlb.icache_mut().seed_entry(&mem, vmid, Some(asid), va_ng, pa_ng);
        tlb.invalidate_asid(vmid, asid);
        // TLB: global survives, non-global gone.
        prop_assert!(tlb.lookup(vmid, asid, va_g).is_some());
        prop_assert!(tlb.lookup(vmid, asid, va_ng).is_none());
        // Decoded blocks: same fate.
        prop_assert!(tlb.icache().contains(vmid, None, va_g));
        prop_assert!(!tlb.icache().contains(vmid, Some(asid), va_ng));
    }

    /// A recorded fetch arms its page for compiled blocks, and a write
    /// into the code frame retires the arm, no matter which of the
    /// frame's bytes was touched.
    #[test]
    fn frame_write_invalidates_decoded_block(va in any_page_va(), off in 0u64..4096) {
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        tlb.set_accel(true);
        let model = Platform::CortexA55.model();
        let root = alloc_table(&mut mem);
        let pa = mem.alloc_frame();
        let code = S1Perms { read: true, write: false, user_exec: true, priv_exec: false, el0: true, global: false };
        s1_map_page(&mut mem, root, va, pa, code);
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        prop_assert!(fetch(&mem, &mut tlb, &model, &cfg, va, ExceptionLevel::El0).is_ok());
        let gen = tlb.generation();
        prop_assert!(tlb.icache_mut().serves(&mem, 0, 1, ExceptionLevel::El0, va, true, false, gen));
        mem.write(pa + (off & !7), 0xffff_ffff_ffff_ffff, 8);
        prop_assert!(!tlb.icache_mut().serves(&mem, 0, 1, ExceptionLevel::El0, va, true, false, gen));
    }

    /// Different ASIDs never observe each other's non-global mappings.
    #[test]
    fn asid_isolation(asid_a in 1u16..100, asid_b in 101u16..200, va in any_page_va()) {
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let model = Platform::CortexA55.model();
        let root_a = alloc_table(&mut mem);
        let root_b = alloc_table(&mut mem);
        let fa = mem.alloc_frame();
        let perms = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
        s1_map_page(&mut mem, root_a, va, fa, perms);
        // root_b maps nothing.
        let actx = AccessCtx { el: ExceptionLevel::El0, pan: false, unpriv: false };
        let cfg_a = WalkConfig { ttbr0: ttbr::pack(asid_a, root_a), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let cfg_b = WalkConfig { ttbr0: ttbr::pack(asid_b, root_b), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        prop_assert!(translate(&mem, &mut tlb, &model, &cfg_a, va, Access::Read, &actx).is_ok());
        // Domain B must fault even though A's entry is in the TLB.
        prop_assert!(translate(&mem, &mut tlb, &model, &cfg_b, va, Access::Read, &actx).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Metrics invariant: every `translate()` call resolves to exactly one
    /// TLB hit or one TLB miss — `hits + misses` equals the number of
    /// translated accesses, for arbitrary probe sequences over mapped and
    /// unmapped pages with invalidations interleaved.
    #[test]
    fn tlb_hits_plus_misses_equals_translated_accesses(
        vas in proptest::collection::vec(any_page_va(), 1..12),
        probes in proptest::collection::vec((0usize..24, any::<bool>()), 1..64),
    ) {
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let model = Platform::CortexA55.model();
        let root = alloc_table(&mut mem);
        let perms = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
        for &va in &vas {
            let pa = mem.alloc_frame();
            s1_map_page(&mut mem, root, va, pa, perms);
        }
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let actx = AccessCtx { el: ExceptionLevel::El0, pan: false, unpriv: false };
        let mut calls = 0u64;
        let mut invals = 0u64;
        for &(idx, flush) in &probes {
            // Mix of mapped VAs, unmapped VAs, and full invalidations.
            let va = vas[idx % vas.len()] ^ (((idx >= vas.len()) as u64) << 40);
            let _ = translate(&mem, &mut tlb, &model, &cfg, va, Access::Read, &actx);
            calls += 1;
            if flush {
                tlb.invalidate_asid(0, 1);
                invals += 1;
            }
        }
        let (hits, misses) = tlb.stats();
        prop_assert_eq!(hits + misses, calls);
        prop_assert_eq!(tlb.inval_stats().asid, invals);
        prop_assert_eq!(tlb.inval_stats().total(), invals);
    }

    /// Metrics invariant: TLBI scope counters record exactly one tick per
    /// maintenance operation, and every page entry dropped from the
    /// icache by an invalidation shows up in `invalidation_count()`.
    #[test]
    fn icache_invalidations_track_tlbi(
        vas in proptest::collection::vec(any_page_va(), 1..16),
        by_vmid in any::<bool>(),
    ) {
        let mut mem = PhysMem::new();
        let mut tlb = Tlb::new(64);
        let mut seeded = std::collections::HashSet::new();
        for &va in &vas {
            let pa = mem.alloc_frame();
            tlb.icache_mut().seed_entry(&mem, 3, Some(1), va, pa);
            seeded.insert(va);
        }
        let live = tlb.icache_mut().len() as u64;
        prop_assert_eq!(live, seeded.len() as u64);
        prop_assert_eq!(tlb.icache_mut().invalidation_count(), 0);
        if by_vmid {
            tlb.icache_mut().invalidate_vmid(3);
        } else {
            tlb.icache_mut().invalidate_asid(3, 1);
        }
        prop_assert_eq!(tlb.icache_mut().len(), 0);
        prop_assert_eq!(tlb.icache_mut().invalidation_count(), live);
        // A second pass over an already-empty cache must not overcount.
        tlb.icache_mut().invalidate_vmid(3);
        prop_assert_eq!(tlb.icache_mut().invalidation_count(), live);
    }
}
