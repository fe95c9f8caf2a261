//! The one page-table descent on damaged trees, on each kind of tree it
//! edits: a kernel stage-1 tree, a stage-2 tree and an `LzTable`.
//!
//! Its teardown (`walk::free_tree`) looks each table frame up once and
//! re-reads a descriptor only just before descending; on every tree, well
//! formed or corrupted, it must free exactly the frames the
//! per-descriptor walk it replaced frees, in the same order, with the same
//! side effects. Its growing walk and leaf search must refuse a damaged
//! path with the same typed fault on every kind, and write nothing.

use lightzone::fakephys::FakePhys;
use lightzone::pgt::LzTable;
use lz_machine::pte::{self, S1Perms, S2Perms};
use lz_machine::walk::{alloc_table, find_leaf, free_table_tree, map_leaf, s1_lookup, s1_unmap, s2_lookup, s2_unmap};
use lz_machine::walk::{try_s1_map_block, try_s2_map_block, Frames};
use lz_machine::{LzFault, PhysMem};
use proptest::prelude::*;

/// A real frame no allocation ever reaches.
const UNBACKED: u64 = 0x10_0000_0000;
/// The output address of every page and block mapped.
const DATA: u64 = 0x8000_0000;

/// The three kinds of tree the descent edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    KernelS1,
    Stage2,
    Lz,
}

const KINDS: [Kind; 3] = [Kind::KernelS1, Kind::Stage2, Kind::Lz];

/// A tree of one kind in a memory of its own, behind one interface.
struct Tree {
    kind: Kind,
    mem: PhysMem,
    /// How table descriptors name table frames: an `LzTable`'s fake
    /// map, which also names `UNBACKED` so damage can point a descriptor
    /// at it, or the identity.
    fake: FakePhys,
    /// The stage-2 tree an `LzTable` maps its table frames in.
    s2: u64,
    /// The real root frame.
    root: u64,
    lz: Option<LzTable>,
}

impl Tree {
    fn new(kind: Kind) -> Self {
        let mut mem = PhysMem::new();
        let (mut fake, mut s2, mut lz) = (FakePhys::identity(), 0, None);
        if kind == Kind::Lz {
            fake = FakePhys::new();
            s2 = alloc_table(&mut mem);
            lz = Some(LzTable::new(&mut mem, &mut fake, s2, 1));
            fake.assign(UNBACKED);
        }
        let root = lz.as_ref().map_or_else(|| alloc_table(&mut mem), |t| t.root_real);
        Tree { kind, mem, fake, s2, root, lz }
    }

    fn root_level(&self) -> u8 {
        u8::from(self.kind == Kind::Stage2)
    }

    /// The address a table descriptor names the table at `real` by.
    fn name_of(&self, real: u64) -> u64 {
        self.fake.fake_of(real).unwrap_or(0)
    }

    /// Map a page at `va`, or a 2 MiB block if `block`.
    fn map(&mut self, va: u64, block: bool) -> Result<(), LzFault> {
        let (mem, root, s1, rwx) = (&mut self.mem, self.root, S1Perms::kernel_data(), S2Perms::rwx());
        match (self.kind, self.lz.as_mut(), block) {
            (Kind::Lz, Some(t), false) => t.try_map_page(mem, &mut self.fake, self.s2, va, DATA, s1),
            (Kind::Lz, Some(t), true) => t.try_map_block(mem, &mut self.fake, self.s2, va, DATA, s1),
            (Kind::Stage2, _, false) => {
                map_leaf(mem, &mut Frames, root, 1, va, 3, pte::s2_page_desc(DATA, rwx)).map(drop)
            }
            (Kind::Stage2, _, true) => try_s2_map_block(mem, root, va, DATA, rwx).map(drop),
            (_, _, false) => map_leaf(mem, &mut Frames, root, 0, va, 3, pte::s1_page_desc(DATA, s1)).map(drop),
            (_, _, true) => try_s1_map_block(mem, root, va, DATA, s1).map(drop),
        }
    }

    /// Look `va` up, then unmap it.
    fn lookup_and_unmap(&mut self, va: u64) -> (Option<u64>, Option<u64>) {
        let (mem, root) = (&mut self.mem, self.root);
        match (self.kind, self.lz.as_mut()) {
            (Kind::Lz, Some(t)) => (t.lookup(mem, &self.fake, va).map(|l| l.0), t.unmap_page(mem, &self.fake, va)),
            (Kind::Stage2, _) => (s2_lookup(mem, root, va).map(|l| l.0), s2_unmap(mem, root, va)),
            _ => (s1_lookup(mem, root, va).map(|l| l.0), s1_unmap(mem, root, va)),
        }
    }
}

/// The per-descriptor teardown `walk::free_tree` replaced.
fn free_per_descriptor(tree: &mut Tree, table: u64, level: u8) {
    if level < 3 {
        for idx in 0..512u64 {
            let desc = tree.mem.read_u64(table + idx * 8).unwrap_or(0);
            if pte::is_valid(desc) && pte::is_table(desc, level) {
                if let Some(next) = tree.fake.real_of(pte::desc_oa(desc)) {
                    free_per_descriptor(tree, next, level + 1);
                }
            }
        }
    }
    if let Some(fake_pa) = tree.fake.fake_of(table).filter(|_| tree.kind == Kind::Lz) {
        s2_unmap(&mut tree.mem, tree.s2, fake_pa);
        tree.fake.release(table);
    }
    tree.mem.try_free_frame(table);
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

/// Damage planted into a tree before teardown. Every shape points a spare
/// slot (508–511 of a table on the first path, which the trees below
/// leave empty) somewhere a well-formed tree never does.
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

/// The table-frame path from the root through each table's first table slot.
fn first_path(tree: &Tree) -> Vec<u64> {
    let mut path = vec![tree.root];
    for _ in tree.root_level()..3 {
        let table = path[path.len() - 1];
        let Some(idx) = first_table_slot(&tree.mem, table) else { break };
        let Some(next) = tree.mem.read_u64(table + idx * 8).and_then(|d| tree.fake.real_of(pte::desc_oa(d))) else {
            break;
        };
        path.push(next);
    }
    path
}

/// Plant `corruptions` into the tree.
fn corrupt(tree: &mut Tree, corruptions: &[Corruption]) {
    let path = first_path(tree);
    let level2 = path.get(2 - tree.root_level() as usize).copied();
    for &c in corruptions {
        let (slot, desc) = match (c, path.get(1).copied(), level2) {
            (Corruption::SelfLoop, Some(t1), _) => (t1 + 511 * 8, pte::table_desc(tree.name_of(t1))),
            (Corruption::Ancestor, _, Some(t2)) => (t2 + 510 * 8, pte::table_desc(tree.name_of(tree.root))),
            (Corruption::SharedChild, _, _) => match first_table_slot(&tree.mem, tree.root) {
                Some(idx) => (tree.root + 509 * 8, tree.mem.read_u64(tree.root + idx * 8).unwrap_or(0)),
                None => continue,
            },
            (Corruption::Unbacked, Some(t1), _) => (t1 + 508 * 8, pte::table_desc(tree.name_of(UNBACKED))),
            (Corruption::Unresolved, _, Some(t2)) if tree.kind == Kind::Lz => {
                tree.fake.release(t2);
                continue;
            }
            _ => continue,
        };
        tree.mem.write_u64(slot, desc);
    }
}

/// Build a tree of `kind` from `maps`, damage it, and tear it down with
/// the descent or, if `reference`, with the per-descriptor walk.
fn teardown(kind: Kind, maps: &[Mapping], corruptions: &[Corruption], reference: bool) -> Aftermath {
    let mut tree = Tree::new(kind);
    for &m in maps {
        // A page under an existing block is a shape error the fallible
        // mappers report; a block over a table orphans that table, which
        // both walks then leak alike.
        let _ = tree.map(va_of(m), m.4);
    }
    corrupt(&mut tree, corruptions);
    let frames = tree.mem.allocated_frames();
    let (root, level) = (tree.root, tree.root_level());
    match tree.lz.take() {
        _ if reference => free_per_descriptor(&mut tree, root, level),
        Some(t) => t.free_tree(&mut tree.mem, &mut tree.fake, tree.s2),
        None => free_table_tree(&mut tree.mem, root, level),
    }
    let write_gen = tree.mem.write_gen();
    let allocated = tree.mem.allocated_frames();
    let realloc = (0..=frames).map(|_| tree.mem.alloc_frame()).collect();
    Aftermath { write_gen, allocated, fake_len: tree.fake.len(), realloc }
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
    let new = teardown(Kind::KernelS1, &CYCLIC, &[Corruption::Ancestor], false);
    let reference = teardown(Kind::KernelS1, &CYCLIC, &[Corruption::Ancestor], true);
    assert_eq!(new, reference);
    // The root and the first path's three tables are freed; the second
    // path's three tables leak.
    assert_eq!(reference.allocated, 3, "the second root slot's subtree is unreachable");
}

#[test]
fn cyclic_lz_table_frees_like_the_per_descriptor_walk() {
    let new = teardown(Kind::Lz, &CYCLIC, &[Corruption::Ancestor], false);
    let reference = teardown(Kind::Lz, &CYCLIC, &[Corruption::Ancestor], true);
    assert_eq!(new, reference);
    // The stage-2 tree (3 frames) stays, plus the leaked subtree.
    assert_eq!(reference.allocated, 3 + 3, "the second root slot's subtree is unreachable");
}

#[test]
fn every_corruption_alone_frees_like_the_per_descriptor_walk() {
    // The last mapping runs through slot 511 of tables no damage touches.
    let maps =
        [(0, 0, 0, 5, false), (0, 1, 2, 7, false), (2, 3, 1, 0, true), (3, 0, 0, 9, false), (3, 511, 511, 9, false)];
    for c in CORRUPTIONS {
        for kind in KINDS {
            assert_eq!(teardown(kind, &maps, &[c], false), teardown(kind, &maps, &[c], true), "{c:?}, {kind:?}");
        }
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
        let kind = if stage2 { Kind::Stage2 } else { Kind::KernelS1 };
        prop_assert_eq!(teardown(kind, &maps, &corruptions, false), teardown(kind, &maps, &corruptions, true));
    }

    /// The same for `LzTable` trees, whose walk also releases each table's
    /// fake address and clears its stage-2 mapping.
    #[test]
    fn lz_table_teardown_matches_per_descriptor_walk(
        maps in proptest::collection::vec(any_mapping(), 0..24),
        corruptions in any_corruptions(),
    ) {
        prop_assert_eq!(teardown(Kind::Lz, &maps, &corruptions, false), teardown(Kind::Lz, &maps, &corruptions, true));
    }
}

/// Where a typed-fault case maps: slot 1 at every level.
const VA: u64 = 1 << 39 | 1 << 30 | 1 << 21 | 1 << 12;

/// A refused map: a bad request, or damage planted on `VA`'s path.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    /// A block map at `VA`, which is not 2 MiB aligned.
    MisalignedBlock,
    /// A 2 MiB block over `VA` where a page map needs a level-2 table.
    BlockInTheWay,
    /// The root's slot points at a table in an unbacked frame.
    UnbackedTable,
    /// The root's slot holds a fake address that no longer resolves
    /// (`LzTable` only: the other kinds resolve every address).
    UnresolvedFake,
}

/// Set `tree` up for `case`: the fault the refused map must return, and
/// whether `VA`'s path is damaged, so that lookup and unmap find nothing.
fn plant(tree: &mut Tree, case: Refusal) -> Option<(LzFault, bool)> {
    let root_slot = tree.root + 8;
    Some(match case {
        Refusal::MisalignedBlock => (LzFault::Misaligned { addr: VA | DATA }, false),
        Refusal::BlockInTheWay => {
            tree.map(VA & !0x1f_ffff, true).expect("an aligned block maps");
            let block = find_leaf(&tree.mem, |name| tree.fake.real_of(name), tree.root, tree.root_level(), VA);
            let block = block.expect("the block is found");
            assert_eq!(block.level, 2);
            (LzFault::BadDescriptor { pa: block.pa, desc: block.desc }, false)
        }
        Refusal::UnbackedTable => {
            tree.map(VA, false).expect("a page maps");
            tree.mem.write_u64(root_slot, pte::table_desc(tree.name_of(UNBACKED)));
            (LzFault::UnbackedFrame { pa: UNBACKED + 8 }, true)
        }
        Refusal::UnresolvedFake if tree.kind == Kind::Lz => {
            tree.map(VA, false).expect("a page maps");
            let fake = pte::desc_oa(tree.mem.read_u64(root_slot).expect("the root is backed"));
            tree.fake.release(tree.fake.real_of(fake).expect("the level-1 table resolves"));
            (LzFault::UnresolvedFake { fake }, true)
        }
        Refusal::UnresolvedFake => return None,
    })
}

/// Every refused map returns the same typed fault on every kind of tree
/// and writes nothing; on a damaged path, lookup and unmap find nothing
/// and write nothing either.
#[test]
fn refused_maps_return_the_same_typed_fault_on_every_tree_kind() {
    let cases = [Refusal::MisalignedBlock, Refusal::BlockInTheWay, Refusal::UnbackedTable, Refusal::UnresolvedFake];
    for kind in KINDS {
        for case in cases {
            let mut tree = Tree::new(kind);
            let Some((fault, damaged)) = plant(&mut tree, case) else { continue };
            let gen = tree.mem.write_gen();
            let refused = tree.map(VA, matches!(case, Refusal::MisalignedBlock));
            assert_eq!(refused, Err(fault), "{kind:?}, {case:?}");
            if damaged {
                assert_eq!(tree.lookup_and_unmap(VA), (None, None), "{kind:?}, {case:?}");
            }
            assert_eq!(tree.mem.write_gen(), gen, "{kind:?}, {case:?}: nothing written");
        }
    }
}
