//! Page-table teardown order. `walk::free_table_tree` and
//! `LzTable::free_tree` look each table frame up once and re-read a
//! descriptor only just before descending; on every tree, well formed or
//! corrupted, they must free exactly the frames the per-descriptor walks
//! they replaced free, in the same order, with the same side effects.

use lightzone::fakephys::FakePhys;
use lightzone::pgt::LzTable;
use lz_machine::pte::{self, S1Perms, S2Perms};
use lz_machine::walk::{alloc_table, free_table_tree, s2_unmap};
use lz_machine::walk::{try_s1_map_block, try_s1_map_page, try_s2_map_block, try_s2_map_page};
use lz_machine::PhysMem;
use proptest::prelude::*;

/// A real frame no allocation ever reaches.
const UNBACKED: u64 = 0x10_0000_0000;

/// The per-descriptor walk `free_table_tree` replaced.
fn free_table_tree_per_descriptor(mem: &mut PhysMem, root: u64, root_level: u8) {
    fn walk(mem: &mut PhysMem, table: u64, level: u8) {
        if level < 3 {
            for idx in 0..512u64 {
                let desc = mem.read_u64(table + idx * 8).unwrap_or(0);
                if pte::is_valid(desc) && pte::is_table(desc, level) {
                    walk(mem, pte::desc_oa(desc), level + 1);
                }
            }
        }
        mem.try_free_frame(table);
    }
    walk(mem, root, root_level);
}

/// The per-descriptor walk `LzTable::free_tree` replaced.
fn lz_free_tree_per_descriptor(t: LzTable, mem: &mut PhysMem, fake: &mut FakePhys, s2_root: u64) {
    fn walk(mem: &mut PhysMem, fake: &mut FakePhys, s2_root: u64, table_real: u64, level: u8) {
        if level < 3 {
            for idx in 0..512u64 {
                let desc = mem.read_u64(table_real + idx * 8).unwrap_or(0);
                if pte::is_valid(desc) && pte::is_table(desc, level) {
                    if let Some(next_real) = fake.real_of(pte::desc_oa(desc)) {
                        walk(mem, fake, s2_root, next_real, level + 1);
                    }
                }
            }
        }
        if let Some(fake_pa) = fake.fake_of(table_real) {
            s2_unmap(mem, s2_root, fake_pa);
            fake.release(table_real);
        }
        mem.try_free_frame(table_real);
    }
    walk(mem, fake, s2_root, t.root_real, 0);
}

/// What a teardown leaves behind. `realloc` reads the free order back:
/// the allocator hands freed frames out last-freed first, then fresh ones.
#[derive(Debug, PartialEq, Eq)]
struct Aftermath {
    write_gen: u64,
    allocated: usize,
    fake_len: usize,
    realloc: Vec<u64>,
}

fn aftermath(mem: &mut PhysMem, fake_len: usize, frames_before: usize) -> Aftermath {
    let write_gen = mem.write_gen();
    let allocated = mem.allocated_frames();
    let realloc = (0..=frames_before).map(|_| mem.alloc_frame()).collect();
    Aftermath { write_gen, allocated, fake_len, realloc }
}

/// Damage planted into a tree before teardown. Every shape points a spare
/// slot (508–511; the trees below only use slots 0–3 above the last
/// level) somewhere a well-formed tree never does.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// A level-1-below-root table points at itself.
    SelfLoop,
    /// The level-2 table on the first path points back at the root, so
    /// the root is freed (as a level-3 table) in the middle of its own
    /// walk and its later slots must read as empty.
    Ancestor,
    /// A second root slot shares the first slot's child.
    SharedChild,
    /// A level-1-below-root table points into an unbacked frame.
    Unbacked,
    /// The first path's level-2 table loses its fake address (`LzTable`
    /// only; a no-op on real-address trees).
    Unresolved,
}

const CORRUPTIONS: [Corruption; 5] =
    [Corruption::SelfLoop, Corruption::Ancestor, Corruption::SharedChild, Corruption::Unbacked, Corruption::Unresolved];

/// One mapping of a random tree: table indices above the last level stay
/// in 0..4 so paths share tables; `block` maps 2 MiB at level 2 instead.
type Mapping = (u64, u64, u64, u64, bool);

fn va_of((l0, l1, l2, l3, block): Mapping) -> u64 {
    l0 << 39 | l1 << 30 | l2 << 21 | if block { 0 } else { l3 << 12 }
}

/// The first valid table descriptor's slot in `table` (a level above 3).
fn first_table_slot(mem: &PhysMem, table: u64) -> Option<u64> {
    (0..512).find(|idx| mem.read_u64(table + idx * 8).is_some_and(|d| pte::is_valid(d) && d & pte::TABLE_OR_PAGE != 0))
}

/// The table-frame path from `root` through each table's first table slot.
fn first_path(mem: &PhysMem, root: u64, root_level: u8, resolve: impl Fn(u64) -> Option<u64>) -> Vec<u64> {
    let mut path = vec![root];
    for _ in root_level..3 {
        let table = path[path.len() - 1];
        let Some(idx) = first_table_slot(mem, table) else { break };
        let Some(next) = mem.read_u64(table + idx * 8).and_then(|d| resolve(pte::desc_oa(d))) else { break };
        path.push(next);
    }
    path
}

/// Plant `corruptions` into the tree at `root`. `fake_of` gives the
/// address a descriptor names for a table frame, `resolve` the reverse.
fn corrupt(
    mem: &mut PhysMem,
    root: u64,
    root_level: u8,
    corruptions: &[Corruption],
    fake_of: impl Fn(u64) -> u64,
    resolve: impl Fn(u64) -> Option<u64>,
) -> Vec<u64> {
    let path = first_path(mem, root, root_level, resolve);
    let level2 = path.get(2 - root_level as usize).copied();
    let mut released = Vec::new();
    for &c in corruptions {
        match (c, path.get(1).copied(), level2) {
            (Corruption::SelfLoop, Some(t1), _) => {
                mem.write_u64(t1 + 511 * 8, pte::table_desc(fake_of(t1)));
            }
            (Corruption::Ancestor, _, Some(t2)) => {
                mem.write_u64(t2 + 510 * 8, pte::table_desc(fake_of(root)));
            }
            (Corruption::SharedChild, _, _) => {
                if let Some(idx) = first_table_slot(mem, root) {
                    let desc = mem.read_u64(root + idx * 8).unwrap_or(0);
                    mem.write_u64(root + 509 * 8, desc);
                }
            }
            (Corruption::Unbacked, Some(t1), _) => {
                mem.write_u64(t1 + 508 * 8, pte::table_desc(fake_of(UNBACKED)));
            }
            (Corruption::Unresolved, _, Some(t2)) => released.push(t2),
            _ => {}
        }
    }
    released
}

/// Build a real-address stage-1 (root level 0) or stage-2 (root level 1)
/// tree; returns the root.
fn build_tree(mem: &mut PhysMem, stage2: bool, maps: &[Mapping], corruptions: &[Corruption]) -> u64 {
    let root = alloc_table(mem);
    let s1 = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
    for &m in maps {
        let va = va_of(m);
        // A page under an existing block is a shape error the fallible
        // mappers report; a block over a table orphans that table, which
        // both walks then leak alike.
        let _ = match (stage2, m.4) {
            (false, false) => try_s1_map_page(mem, root, va, 0x8000_0000, s1),
            (false, true) => try_s1_map_block(mem, root, va, 0x8000_0000, s1),
            (true, false) => try_s2_map_page(mem, root, va, 0x8000_0000, S2Perms::rwx()),
            (true, true) => try_s2_map_block(mem, root, va, 0x8000_0000, S2Perms::rwx()),
        };
    }
    corrupt(mem, root, u8::from(stage2), corruptions, |pa| pa, Some);
    root
}

/// Build and tear down one real-address tree with `free`.
fn real_teardown(
    stage2: bool,
    maps: &[Mapping],
    corruptions: &[Corruption],
    free: fn(&mut PhysMem, u64, u8),
) -> Aftermath {
    let mut mem = PhysMem::new();
    let root = build_tree(&mut mem, stage2, maps, corruptions);
    let frames = mem.allocated_frames();
    free(&mut mem, root, u8::from(stage2));
    aftermath(&mut mem, 0, frames)
}

/// Build and tear down one `LzTable` (fake-address stage-1 tree with its
/// table frames mapped read-only at stage 2), freeing it with the new
/// walk or the per-descriptor reference.
fn lz_teardown(maps: &[Mapping], corruptions: &[Corruption], reference: bool) -> Aftermath {
    let mut mem = PhysMem::new();
    let mut fake = FakePhys::new();
    let s2 = alloc_table(&mut mem);
    let mut t = LzTable::new(&mut mem, &mut fake, s2, 1);
    let perms = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
    for &m in maps {
        let _ = if m.4 {
            t.try_map_block(&mut mem, &mut fake, s2, va_of(m), 0x4000_0000, perms)
        } else {
            t.try_map_page(&mut mem, &mut fake, s2, va_of(m), 0x7000_0000, perms)
        };
    }
    let unbacked_fake = fake.assign(UNBACKED);
    let fake_of = |real: u64| if real == UNBACKED { unbacked_fake } else { fake.fake_of(real).unwrap_or(0) };
    for real in corrupt(&mut mem, t.root_real, 0, corruptions, fake_of, |f| fake.real_of(f)) {
        fake.release(real);
    }
    let frames = mem.allocated_frames();
    if reference {
        lz_free_tree_per_descriptor(t, &mut mem, &mut fake, s2);
    } else {
        t.free_tree(&mut mem, &mut fake, s2);
    }
    aftermath(&mut mem, fake.len(), frames)
}

fn any_mapping() -> impl Strategy<Value = Mapping> {
    (0u64..4, 0u64..4, 0u64..4, 0u64..512, 0u8..8).prop_map(|(l0, l1, l2, l3, b)| (l0, l1, l2, l3, b == 0))
}

fn any_corruptions() -> impl Strategy<Value = Vec<Corruption>> {
    proptest::collection::vec(proptest::sample::select(CORRUPTIONS.to_vec()), 0..4)
}

/// Two paths under different root slots, the first one cyclic: its
/// level-2 table points back at the root. The root is freed as a level-3
/// table before the walk reaches its second slot, so that subtree is
/// never reached — a walk that descended from its one scan without
/// re-reading would free it.
const CYCLIC: [Mapping; 2] = [(0, 0, 2, 0, false), (1, 0, 0, 0, false)];

#[test]
fn cyclic_stage1_tree_frees_like_the_per_descriptor_walk() {
    let new = real_teardown(false, &CYCLIC, &[Corruption::Ancestor], free_table_tree);
    let reference = real_teardown(false, &CYCLIC, &[Corruption::Ancestor], free_table_tree_per_descriptor);
    assert_eq!(new, reference);
    // The root and the first path's three tables are freed; the second
    // path's three tables leak.
    assert_eq!(reference.allocated, 3, "the second root slot's subtree is unreachable");
}

#[test]
fn cyclic_lz_table_frees_like_the_per_descriptor_walk() {
    let new = lz_teardown(&CYCLIC, &[Corruption::Ancestor], false);
    let reference = lz_teardown(&CYCLIC, &[Corruption::Ancestor], true);
    assert_eq!(new, reference);
    // The stage-2 tree (3 frames) stays, plus the leaked subtree.
    assert_eq!(reference.allocated, 3 + 3, "the second root slot's subtree is unreachable");
}

#[test]
fn every_corruption_alone_frees_like_the_per_descriptor_walk() {
    let maps = [(0, 0, 0, 5, false), (0, 1, 2, 7, false), (2, 3, 1, 0, true), (3, 0, 0, 9, false)];
    for c in CORRUPTIONS {
        for stage2 in [false, true] {
            let new = real_teardown(stage2, &maps, &[c], free_table_tree);
            let reference = real_teardown(stage2, &maps, &[c], free_table_tree_per_descriptor);
            assert_eq!(new, reference, "{c:?}, stage2 {stage2}");
        }
        assert_eq!(lz_teardown(&maps, &[c], false), lz_teardown(&maps, &[c], true), "{c:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random stage-1 and stage-2 trees with random damage free the same
    /// frames in the same order as the per-descriptor walk.
    #[test]
    fn real_address_teardown_matches_per_descriptor_walk(
        maps in proptest::collection::vec(any_mapping(), 0..24),
        corruptions in any_corruptions(),
        stage2 in any::<bool>(),
    ) {
        let new = real_teardown(stage2, &maps, &corruptions, free_table_tree);
        let reference = real_teardown(stage2, &maps, &corruptions, free_table_tree_per_descriptor);
        prop_assert_eq!(new, reference);
    }

    /// The same for `LzTable` trees, whose walk also releases each table's
    /// fake address and clears its stage-2 mapping.
    #[test]
    fn lz_table_teardown_matches_per_descriptor_walk(
        maps in proptest::collection::vec(any_mapping(), 0..24),
        corruptions in any_corruptions(),
    ) {
        prop_assert_eq!(lz_teardown(&maps, &corruptions, false), lz_teardown(&maps, &corruptions, true));
    }
}
