//! Per-domain stage-1 page tables for LightZone processes (paper §6.1).
//!
//! Every LightZone stage-1 tree is built in terms of **fake physical
//! addresses** (see [`crate::fakephys`]): table descriptors and leaf PTEs
//! both hold fake pages, and stage-2 maps fake → real, with table frames
//! mapped read-only so the process cannot edit its own translations even
//! though it can point `TTBR0_EL1` at them.

use crate::fakephys::FakePhys;
use lz_arch::PAGE_SIZE;
use lz_machine::pte::{self, S1Perms, S2Perms};
use lz_machine::walk::{self, find_leaf, map_leaf, Frames, Tables};
use lz_machine::{LzFault, PhysMem};

/// One stage-1 tree of a LightZone process (one isolation domain view).
#[derive(Debug)]
pub struct LzTable {
    /// Real frame of the root table.
    pub root_real: u64,
    /// Fake address of the root — the value that goes into `TTBR0_EL1`
    /// (with the ASID) and into `TTBRTab`.
    pub root_fake: u64,
    /// Per-table ASID: switching tables never requires TLB invalidation
    /// (paper §4.1.2).
    pub asid: u16,
    /// Number of table frames backing this tree (root + intermediate) —
    /// reported as page-table memory overhead in §9.
    pub table_frames: u64,
}

/// LightZone's table policy for `walk`'s descent: a table descriptor
/// holds the table's fake address, a new table is allocated, given a
/// fake address and mapped read-only at stage 2 (§5.1.2), and a freed
/// table gives its stage-2 mapping and fake address back.
struct Fakes<'a> {
    fake: &'a mut FakePhys,
    s2_root: u64,
    /// The tree's `table_frames`, which counts every table grown.
    table_frames: &'a mut u64,
}

#[deny(clippy::panic, clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
impl Tables for Fakes<'_> {
    fn frame_of(&self, oa: u64) -> Option<u64> {
        self.fake.real_of(oa)
    }

    fn grow(&mut self, mem: &mut PhysMem) -> Result<(u64, u64), LzFault> {
        let real = mem.alloc_frame();
        let fake = self.fake.assign(real);
        map_leaf(mem, &mut Frames, self.s2_root, 1, fake, 3, pte::s2_page_desc(real, S2Perms::ro()))?;
        *self.table_frames += 1;
        Ok((real, fake))
    }

    fn release(&mut self, mem: &mut PhysMem, table: u64) {
        if let Some(fake) = self.fake.fake_of(table) {
            walk::s2_unmap(mem, self.s2_root, fake);
            self.fake.release(table);
        }
    }
}

impl LzTable {
    /// Allocate an empty tree: the root is grown like every other table
    /// of the tree, so it gets a fake address and a read-only stage-2
    /// mapping immediately.
    pub fn new(mem: &mut PhysMem, fake: &mut FakePhys, s2_root: u64, asid: u16) -> Self {
        let mut table_frames = 0;
        let mut fakes = Fakes { fake, s2_root, table_frames: &mut table_frames };
        let (root_real, root_fake) = fakes.grow(mem).unwrap_or_else(|e| panic!("LzTable::new: {e}"));
        LzTable { root_real, root_fake, asid, table_frames }
    }

    /// The `TTBR0_EL1` value selecting this table.
    pub fn ttbr0(&self) -> u64 {
        lz_arch::sysreg::ttbr::pack(self.asid, self.root_fake)
    }

    /// Fallible [`LzTable::map_page`], for guest-reachable callers: these
    /// trees describe guest-corruptible state (the VE can point
    /// `TTBR0_EL1` anywhere and chaos can corrupt descriptors), so a bad
    /// shape returns the `LzFault` that kills the VE, never a panic.
    pub fn try_map_page(
        &mut self,
        mem: &mut PhysMem,
        fake: &mut FakePhys,
        s2_root: u64,
        va: u64,
        leaf_fake: u64,
        perms: S1Perms,
    ) -> Result<(), LzFault> {
        let fakes = &mut Fakes { fake, s2_root, table_frames: &mut self.table_frames };
        map_leaf(mem, fakes, self.root_real, 0, va, 3, pte::s1_page_desc(leaf_fake, perms)).map(drop)
    }

    /// Map one 4 KB page at `va` to `leaf_fake` (a fake address that
    /// stage-2 must separately resolve), creating intermediate tables.
    ///
    /// Intermediate tables get fake addresses and read-only stage-2
    /// mappings as they are created.
    ///
    /// # Panics
    ///
    /// Panics on a malformed tree — host setup paths only; guest-
    /// reachable callers use [`LzTable::try_map_page`].
    pub fn map_page(
        &mut self,
        mem: &mut PhysMem,
        fake: &mut FakePhys,
        s2_root: u64,
        va: u64,
        leaf_fake: u64,
        perms: S1Perms,
    ) {
        self.try_map_page(mem, fake, s2_root, va, leaf_fake, perms).unwrap_or_else(|e| panic!("LZ map_page: {e}"))
    }

    /// Map a fresh frame at `va`: allocate it, give it a fake address,
    /// map that at stage 2 with `s2` and at `va` with `s1`, creating
    /// intermediate tables. Returns the real frame, which
    /// [`free_mapped_frame`] gives back. The module's own TTBR1 pages
    /// (the exception stub, gate stubs, `TTBRTab` and `GateTab`) are
    /// built this way.
    ///
    /// # Panics
    ///
    /// As [`LzTable::map_page`]: host setup paths only.
    pub fn map_fresh_frame(
        &mut self,
        mem: &mut PhysMem,
        fake: &mut FakePhys,
        s2_root: u64,
        va: u64,
        s2: S2Perms,
        s1: S1Perms,
    ) -> u64 {
        let real = mem.alloc_frame();
        let leaf_fake = fake.assign(real);
        walk::s2_map_page(mem, s2_root, leaf_fake, real, s2);
        self.map_page(mem, fake, s2_root, va, leaf_fake, s1);
        real
    }

    /// Map one 2 MiB block at level 2 ("we use huge pages to map the
    /// 2MB-sized buffers", §9.3). `leaf_fake` must be a block-aligned
    /// fake base from [`FakePhys::assign_block`]; a misaligned `va` or
    /// `leaf_fake` is `Misaligned`.
    pub fn try_map_block(
        &mut self,
        mem: &mut PhysMem,
        fake: &mut FakePhys,
        s2_root: u64,
        va: u64,
        leaf_fake: u64,
        perms: S1Perms,
    ) -> Result<(), LzFault> {
        if va & 0x1f_ffff != 0 || leaf_fake & 0x1f_ffff != 0 {
            return Err(LzFault::Misaligned { addr: va | leaf_fake });
        }
        let fakes = &mut Fakes { fake, s2_root, table_frames: &mut self.table_frames };
        map_leaf(mem, fakes, self.root_real, 0, va, 2, pte::s1_block_desc(leaf_fake, perms)).map(drop)
    }

    /// Clear the leaf descriptor for `va` (page or block). Returns the
    /// removed descriptor.
    pub fn unmap_page(&mut self, mem: &mut PhysMem, fake: &FakePhys, va: u64) -> Option<u64> {
        find_leaf(mem, |oa| fake.real_of(oa), self.root_real, 0, va).map(|leaf| leaf.clear(mem))
    }

    /// Read back the leaf mapping for `va` (page or block):
    /// `(leaf_fake, perms)`.
    pub fn lookup(&self, mem: &PhysMem, fake: &FakePhys, va: u64) -> Option<(u64, S1Perms)> {
        find_leaf(mem, |oa| fake.real_of(oa), self.root_real, 0, va)
            .map(|leaf| (leaf.page_of(va), S1Perms::from_bits(leaf.desc)))
    }

    /// Page-table memory in bytes (for §9's overhead numbers).
    pub fn table_bytes(&self) -> u64 {
        self.table_frames * PAGE_SIZE
    }

    /// Destroy the tree: free every table frame, release its fake
    /// address, and clear its stage-2 mapping. Leaf *data* frames belong
    /// to the process and are not touched (`lz_free` destroys the view,
    /// not the memory). Teardown is `walk::free_tree`, tolerant of a
    /// tree the VE or an injected fault corrupted; it visits only frames
    /// reached through the process's own fake-address space.
    pub fn free_tree(mut self, mem: &mut PhysMem, fake: &mut FakePhys, s2_root: u64) {
        walk::free_tree(mem, &mut Fakes { fake, s2_root, table_frames: &mut self.table_frames }, self.root_real, 0);
    }
}

/// Free a frame [`LzTable::map_fresh_frame`] mapped: clear its stage-2
/// mapping and release its fake address, as a freed table's are, then
/// free the frame. The stage-1 leaf goes with its tree.
pub fn free_mapped_frame(mem: &mut PhysMem, fake: &mut FakePhys, s2_root: u64, real: u64) {
    Fakes { fake, s2_root, table_frames: &mut 0 }.release(mem, real);
    mem.try_free_frame(real);
}

/// Permission overlay carried by `lz_prot` (Table 2: readable, writable,
/// executable, and user).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overlay {
    pub read: bool,
    pub write: bool,
    pub exec: bool,
    /// The `USER` bit: mark the page as a user page so PAN guards it.
    pub user: bool,
}

impl Overlay {
    /// Decode from the syscall's permission bits.
    pub fn from_bits(bits: u64) -> Self {
        Overlay {
            read: bits & perm::READ != 0,
            write: bits & perm::WRITE != 0,
            exec: bits & perm::EXEC != 0,
            user: bits & perm::USER != 0,
        }
    }

    /// Encode to syscall permission bits.
    pub fn to_bits(self) -> u64 {
        let mut b = 0;
        if self.read {
            b |= perm::READ;
        }
        if self.write {
            b |= perm::WRITE;
        }
        if self.exec {
            b |= perm::EXEC;
        }
        if self.user {
            b |= perm::USER;
        }
        b
    }
}

/// `lz_prot` permission bits.
pub mod perm {
    pub const READ: u64 = 1;
    pub const WRITE: u64 = 2;
    pub const EXEC: u64 = 4;
    /// Mark as user page (PAN-guarded domain).
    pub const USER: u64 = 8;
}

/// `pgt` argument value meaning "attach to every page table of the
/// process" (Listing 1's `PGT_ALL`, used for PAN-protected data).
pub const PGT_ALL: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use lz_machine::walk::{alloc_table, s2_lookup, s2_map_page};

    fn setup() -> (PhysMem, FakePhys, u64) {
        let mut mem = PhysMem::new();
        let fake = FakePhys::new();
        let s2 = alloc_table(&mut mem);
        (mem, fake, s2)
    }

    fn kperms() -> S1Perms {
        S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: false, global: true }
    }

    #[test]
    fn descriptors_hold_fake_addresses() {
        let (mut mem, mut fake, s2) = setup();
        let mut t = LzTable::new(&mut mem, &mut fake, s2, 7);
        let data_real = mem.alloc_frame();
        let data_fake = fake.assign(data_real);
        s2_map_page(&mut mem, s2, data_fake, data_real, S2Perms::rwx());
        t.map_page(&mut mem, &mut fake, s2, 0x40_0000, data_fake, kperms());

        // Walk the tree manually through *real* frames and confirm no
        // descriptor contains a real address.
        let (leaf_fake, _) = t.lookup(&mem, &fake, 0x40_0000).unwrap();
        assert_eq!(leaf_fake, data_fake);
        assert_ne!(leaf_fake, data_real, "PTE must not leak the real frame");
        // Root fake too.
        assert_ne!(t.root_fake, t.root_real);
    }

    #[test]
    fn table_frames_are_s2_readonly() {
        let (mut mem, mut fake, s2) = setup();
        let mut t = LzTable::new(&mut mem, &mut fake, s2, 1);
        let data_real = mem.alloc_frame();
        let data_fake = fake.assign(data_real);
        t.map_page(&mut mem, &mut fake, s2, 0x40_0000, data_fake, kperms());
        // Every table frame's fake address maps RO at stage 2.
        let (pa, perms, _) = s2_lookup(&mem, s2, t.root_fake).unwrap();
        assert_eq!(pa, t.root_real);
        assert!(!perms.write, "stage-1 tables are read-only in stage-2 (§5.1.2)");
    }

    #[test]
    fn map_unmap_roundtrip() {
        let (mut mem, mut fake, s2) = setup();
        let mut t = LzTable::new(&mut mem, &mut fake, s2, 1);
        let f = fake.assign(mem.alloc_frame());
        t.map_page(&mut mem, &mut fake, s2, 0x1234_5000, f, kperms());
        assert!(t.lookup(&mem, &fake, 0x1234_5000).is_some());
        assert!(t.unmap_page(&mut mem, &fake, 0x1234_5000).is_some());
        assert!(t.lookup(&mem, &fake, 0x1234_5000).is_none());
        assert!(t.unmap_page(&mut mem, &fake, 0x1234_5000).is_none());
    }

    #[test]
    fn table_frames_counted() {
        let (mut mem, mut fake, s2) = setup();
        let mut t = LzTable::new(&mut mem, &mut fake, s2, 1);
        assert_eq!(t.table_frames, 1);
        let f = fake.assign(mem.alloc_frame());
        t.map_page(&mut mem, &mut fake, s2, 0x40_0000, f, kperms());
        assert_eq!(t.table_frames, 4, "root + 3 intermediate levels");
        // A second page in the same 2 MiB region reuses tables.
        let f2 = fake.assign(mem.alloc_frame());
        t.map_page(&mut mem, &mut fake, s2, 0x40_1000, f2, kperms());
        assert_eq!(t.table_frames, 4);
        assert_eq!(t.table_bytes(), 4 * PAGE_SIZE);
    }

    #[test]
    fn ttbr0_packs_asid_and_fake_root() {
        let (mut mem, mut fake, s2) = setup();
        let t = LzTable::new(&mut mem, &mut fake, s2, 42);
        let v = t.ttbr0();
        assert_eq!(lz_arch::sysreg::ttbr::asid(v), 42);
        assert_eq!(lz_arch::sysreg::ttbr::baddr(v), t.root_fake);
    }

    #[test]
    fn overlay_bits_roundtrip() {
        for bits in 0..16u64 {
            assert_eq!(Overlay::from_bits(bits).to_bits(), bits);
        }
    }
}
