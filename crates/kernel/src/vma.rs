//! Virtual memory areas and per-process address spaces.

use lz_arch::{is_page_aligned, PAGE_SIZE};
use lz_machine::pte::S1Perms;
use lz_machine::walk::{s1_map_page, s1_unmap};
use lz_machine::PhysMem;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// The end of the TTBR0 half of the VA space: user mappings live below
/// it.
pub const USER_VA_END: u64 = 1 << 48;

/// The range `[addr, addr + len)` of a memory syscall (`mmap`, `munmap`,
/// `mprotect`, `lz_prot`), or `None` unless `addr` is page-aligned,
/// `len` is nonzero, and the range neither wraps nor ends above
/// [`USER_VA_END`]. Each of those calls fails a refused range closed,
/// returning `u64::MAX` before it touches any state.
pub fn user_range(addr: u64, len: u64) -> Option<Range<u64>> {
    let end = addr.checked_add(len).filter(|&end| end <= USER_VA_END)?;
    (is_page_aligned(addr) && len != 0).then_some(addr..end)
}

/// Why [`Mm::add_vma`] refused a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaError {
    /// A bound is not page-aligned, or the range is empty.
    BadRange,
    /// The range overlaps an existing VMA.
    Overlap,
}

/// Access protection of a VMA (the `PROT_*` triple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmProt {
    pub read: bool,
    pub write: bool,
    pub exec: bool,
}

impl VmProt {
    /// Read-only.
    pub const R: VmProt = VmProt { read: true, write: false, exec: false };
    /// Read-write.
    pub const RW: VmProt = VmProt { read: true, write: true, exec: false };
    /// Read-execute.
    pub const RX: VmProt = VmProt { read: true, write: false, exec: true };
    /// Read-write-execute (rejected for user mappings when the kernel
    /// enforces W^X).
    pub const RWX: VmProt = VmProt { read: true, write: true, exec: true };

    /// Lower to stage-1 PTE permissions for an EL0 user page.
    pub fn to_user_s1(self) -> S1Perms {
        S1Perms { read: self.read, write: self.write, user_exec: self.exec, priv_exec: false, el0: true, global: false }
    }
}

/// Backing contents of a VMA.
#[derive(Debug, Clone)]
pub enum VmaSource {
    /// Zero-filled anonymous memory.
    Anon,
    /// File-like backing: bytes copied in at fault time, zero-padded.
    Bytes(Arc<Vec<u8>>),
}

/// One contiguous mapping `[start, end)`.
#[derive(Debug, Clone)]
pub struct Vma {
    pub start: u64,
    pub end: u64,
    pub prot: VmProt,
    pub source: VmaSource,
}

impl Vma {
    /// Bytes to place at page `va` (page-aligned, within the VMA).
    pub fn content_for(&self, va: u64) -> Option<&[u8]> {
        match &self.source {
            VmaSource::Anon => None,
            VmaSource::Bytes(b) => {
                let off = (va - self.start) as usize;
                if off >= b.len() {
                    None
                } else {
                    Some(&b[off..b.len().min(off + PAGE_SIZE as usize)])
                }
            }
        }
    }
}

/// A process address space: the VMA list plus the kernel-managed ("Linux")
/// stage-1 page table and its ASID.
///
/// LightZone duplicates and overlays *this* table for its kernel-mode
/// processes; the kernel keeps accessing user memory through it (§7.1.2).
#[derive(Debug)]
pub struct Mm {
    /// Root of the kernel-managed stage-1 tree.
    pub root: u64,
    /// ASID assigned to this address space.
    pub asid: u16,
    vmas: BTreeMap<u64, Vma>,
    /// Pages currently faulted in: `va -> pa`.
    resident: BTreeMap<u64, u64>,
    /// Pages whose PTE the kernel has zeroed pending re-fault (used by
    /// break-before-make flows).
    unmapped_hint: BTreeSet<u64>,
    /// Ranges backed by 2 MiB huge pages (the paper's §9.3 NVM buffers).
    huge_ranges: Vec<(u64, u64)>,
    /// Resident huge blocks: 2 MiB-aligned VA → 2 MiB-aligned PA.
    resident_blocks: BTreeMap<u64, u64>,
}

/// Size of a level-2 block mapping.
pub const BLOCK_SIZE: u64 = 2 << 20;

impl Mm {
    /// Create an address space with a fresh table root.
    pub fn new(mem: &mut PhysMem, asid: u16) -> Self {
        Mm {
            root: lz_machine::walk::alloc_table(mem),
            asid,
            vmas: BTreeMap::new(),
            resident: BTreeMap::new(),
            unmapped_hint: BTreeSet::new(),
            huge_ranges: Vec::new(),
            resident_blocks: BTreeMap::new(),
        }
    }

    /// Mark `[start, end)` as huge-page backed (2 MiB aligned).
    ///
    /// # Panics
    ///
    /// Panics on unaligned bounds.
    pub fn mark_huge(&mut self, start: u64, end: u64) {
        assert!(start.is_multiple_of(BLOCK_SIZE) && end.is_multiple_of(BLOCK_SIZE), "huge range must be 2 MiB aligned");
        self.huge_ranges.push((start, end));
    }

    /// Is `va` inside a huge-page range?
    pub fn is_huge(&self, va: u64) -> bool {
        self.huge_ranges.iter().any(|&(s, e)| va >= s && va < e)
    }

    /// Fault in the whole 2 MiB block containing `va`: allocates an
    /// aligned contiguous region and maps it as a level-2 block in the
    /// kernel-managed table. Returns the block's physical base.
    pub fn fault_in_block(&mut self, mem: &mut PhysMem, va: u64, is_write: bool) -> Option<u64> {
        let block = va & !(BLOCK_SIZE - 1);
        if !self.is_huge(va) {
            return None;
        }
        let vma = self.vma_at(va)?.clone();
        if is_write && !vma.prot.write {
            return None;
        }
        if let Some(&pa) = self.resident_blocks.get(&block) {
            return Some(pa);
        }
        let pa = mem.alloc_contiguous(BLOCK_SIZE / PAGE_SIZE);
        lz_machine::walk::s1_map_block(mem, self.root, block, pa, vma.prot.to_user_s1());
        self.resident_blocks.insert(block, pa);
        Some(pa)
    }

    /// Register a mapping (mmap). Pages fault in on first touch. Refuses,
    /// changing nothing, unaligned or empty bounds and an overlap with an
    /// existing VMA.
    pub fn add_vma(&mut self, vma: Vma) -> Result<(), VmaError> {
        if !(is_page_aligned(vma.start) && is_page_aligned(vma.end) && vma.start < vma.end) {
            return Err(VmaError::BadRange);
        }
        if self.vmas.range(..vma.end).next_back().is_some_and(|(_, prev)| prev.end > vma.start) {
            return Err(VmaError::Overlap);
        }
        self.vmas.insert(vma.start, vma);
        Ok(())
    }

    /// The VMA containing `va`, if any.
    pub fn vma_at(&self, va: u64) -> Option<&Vma> {
        self.vmas.range(..=va).next_back().map(|(_, v)| v).filter(|v| va < v.end)
    }

    /// Iterate all VMAs.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Resident (faulted-in) pages as `(va, pa)` pairs.
    pub fn resident(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.resident.iter().map(|(&va, &pa)| (va, pa))
    }

    /// The physical page backing `va`, if resident (4 KB pages and huge
    /// blocks alike).
    pub fn page_at(&self, va: u64) -> Option<u64> {
        if let Some(pa) = self.resident.get(&(va & !(PAGE_SIZE - 1))) {
            return Some(*pa);
        }
        let block = va & !(BLOCK_SIZE - 1);
        self.resident_blocks.get(&block).map(|pa| pa + (va & (BLOCK_SIZE - 1) & !(PAGE_SIZE - 1)))
    }

    /// The physical base of the resident huge block containing `va`.
    pub fn block_at(&self, va: u64) -> Option<u64> {
        self.resident_blocks.get(&(va & !(BLOCK_SIZE - 1))).copied()
    }

    /// Fault a page in: allocate a frame, copy backing bytes, map it.
    ///
    /// Returns the physical frame, or `None` if `va` is outside any VMA
    /// or the access kind is not permitted by the VMA (a real SIGSEGV).
    pub fn fault_in(&mut self, mem: &mut PhysMem, va: u64, is_write: bool, is_fetch: bool) -> Option<u64> {
        let page = va & !(PAGE_SIZE - 1);
        let vma = self.vma_at(va)?.clone();
        if (is_write && !vma.prot.write) || (is_fetch && !vma.prot.exec) || (!is_write && !is_fetch && !vma.prot.read) {
            return None;
        }
        if let Some(&pa) = self.resident.get(&page) {
            // Already resident (e.g. PTE was zeroed for break-before-make):
            // re-map with the VMA permissions.
            s1_map_page(mem, self.root, page, pa, vma.prot.to_user_s1());
            self.unmapped_hint.remove(&page);
            return Some(pa);
        }
        let pa = mem.alloc_frame();
        if let Some(content) = vma.content_for(page) {
            mem.write_bytes(pa, content);
        }
        s1_map_page(mem, self.root, page, pa, vma.prot.to_user_s1());
        self.resident.insert(page, pa);
        Some(pa)
    }

    /// Unmap `range`: zero PTEs, free frames, forget VMAs fully inside
    /// the range (partial unmaps split nothing — the range must cover
    /// whole VMAs, as all our callers do).
    pub fn unmap(&mut self, mem: &mut PhysMem, range: Range<u64>) -> Vec<u64> {
        let Range { start, end } = range;
        let mut freed = Vec::new();
        let pages: Vec<u64> = self.resident.range(start..end).map(|(&va, _)| va).collect();
        for va in pages {
            if let Some(pa) = self.resident.remove(&va) {
                s1_unmap(mem, self.root, va);
                mem.free_frame(pa);
                freed.push(va);
            }
        }
        self.vmas.retain(|_, v| !(v.start >= start && v.end <= end));
        freed
    }

    /// Change protection on `range` (must cover whole VMAs). Updates
    /// resident PTEs in place and returns the affected pages.
    pub fn protect(&mut self, mem: &mut PhysMem, range: Range<u64>, prot: VmProt) -> Vec<u64> {
        let Range { start, end } = range;
        for (_, v) in self.vmas.range_mut(..end) {
            if v.start >= start && v.end <= end {
                v.prot = prot;
            }
        }
        let mut touched = Vec::new();
        for (&va, &pa) in self.resident.range(start..end) {
            s1_map_page(mem, self.root, va, pa, prot.to_user_s1());
            touched.push(va);
        }
        touched
    }

    /// Zero the PTE for one resident page without freeing the frame
    /// (break-before-make step 1). The page re-faults on next touch.
    pub fn zap_pte(&mut self, mem: &mut PhysMem, va: u64) -> bool {
        let page = va & !(PAGE_SIZE - 1);
        if self.resident.contains_key(&page) {
            s1_unmap(mem, self.root, page);
            self.unmapped_hint.insert(page);
            true
        } else {
            false
        }
    }

    /// Total resident memory in bytes (for the paper's memory-overhead
    /// numbers).
    pub fn resident_bytes(&self) -> u64 {
        self.resident.len() as u64 * PAGE_SIZE + self.resident_blocks.len() as u64 * BLOCK_SIZE
    }

    /// Tear the whole address space down: free every resident frame
    /// (4 KB pages and huge blocks) and the kernel-managed page-table
    /// tree itself. Used by process reaping — without it, fleet-scale
    /// churn (65k+ process lifecycles) leaks every dead process's
    /// memory. The TLB is *not* touched here: dead-ASID entries are
    /// unreachable and are shot down when the ASID is recycled.
    pub fn release_all(&mut self, mem: &mut PhysMem) {
        for (_, pa) in std::mem::take(&mut self.resident) {
            mem.free_frame(pa);
        }
        for (_, pa) in std::mem::take(&mut self.resident_blocks) {
            let mut off = 0;
            while off < BLOCK_SIZE {
                mem.free_frame(pa + off);
                off += PAGE_SIZE;
            }
        }
        self.vmas.clear();
        self.unmapped_hint.clear();
        self.huge_ranges.clear();
        lz_machine::walk::free_table_tree(mem, self.root, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> (PhysMem, Mm) {
        let mut mem = PhysMem::new();
        let mm = Mm::new(&mut mem, 1);
        (mem, mm)
    }

    fn anon(start: u64, end: u64, prot: VmProt) -> Vma {
        Vma { start, end, prot, source: VmaSource::Anon }
    }

    #[test]
    fn vma_lookup() {
        let (_, mut m) = mm();
        m.add_vma(anon(0x1000, 0x3000, VmProt::RW)).unwrap();
        assert!(m.vma_at(0x1000).is_some());
        assert!(m.vma_at(0x2fff).is_some());
        assert!(m.vma_at(0x3000).is_none());
        assert!(m.vma_at(0x0fff).is_none());
    }

    #[test]
    fn overlap_rejected() {
        let (_, mut m) = mm();
        assert_eq!(m.add_vma(anon(0x1000, 0x3000, VmProt::RW)), Ok(()));
        assert_eq!(m.add_vma(anon(0x2000, 0x4000, VmProt::RW)), Err(VmaError::Overlap));
        assert_eq!(m.add_vma(anon(0x0000, 0x2000, VmProt::RW)), Err(VmaError::Overlap));
        assert_eq!(m.vmas().count(), 1, "a refused mapping changes nothing");
        assert!(m.vma_at(0x3000).is_none());
    }

    #[test]
    fn bad_bounds_rejected() {
        let (_, mut m) = mm();
        for (start, end) in [(0x1800, 0x3000), (0x1000, 0x2800), (0x2000, 0x2000), (0x3000, 0x2000)] {
            assert_eq!(m.add_vma(anon(start, end, VmProt::RW)), Err(VmaError::BadRange), "{start:#x}..{end:#x}");
        }
        assert_eq!(m.vmas().count(), 0);
    }

    #[test]
    fn user_ranges_are_checked() {
        assert_eq!(user_range(0x1000, 0x1800), Some(0x1000..0x2800));
        assert_eq!(user_range(USER_VA_END - 0x1000, 0x1000), Some(USER_VA_END - 0x1000..USER_VA_END));
        for (addr, len) in [
            (0x1001, 0x1000),                // unaligned start
            (0x1000, 0),                     // empty
            (0x1000, u64::MAX),              // wraps
            (USER_VA_END - 0x1000, 0x2000),  // ends in the TTBR1 half
            (0xffff_0000_0000_0000, 0x1000), // starts there
        ] {
            assert_eq!(user_range(addr, len), None, "{addr:#x} + {len:#x}");
        }
    }

    #[test]
    fn fault_in_and_permissions() {
        let (mut mem, mut m) = mm();
        m.add_vma(anon(0x1000, 0x2000, VmProt::R)).unwrap();
        assert!(m.fault_in(&mut mem, 0x1234, false, false).is_some());
        assert!(m.fault_in(&mut mem, 0x1234, true, false).is_none(), "write to RO VMA is SIGSEGV");
        assert!(m.fault_in(&mut mem, 0x5000, false, false).is_none(), "outside any VMA");
    }

    #[test]
    fn fault_in_copies_backing_bytes() {
        let (mut mem, mut m) = mm();
        let data = Arc::new(vec![0xaa; 100]);
        m.add_vma(Vma { start: 0x1000, end: 0x2000, prot: VmProt::R, source: VmaSource::Bytes(data) }).unwrap();
        let pa = m.fault_in(&mut mem, 0x1000, false, false).unwrap();
        assert_eq!(mem.read(pa + 50, 1), Some(0xaa));
        assert_eq!(mem.read(pa + 100, 1), Some(0), "zero padded past content");
    }

    #[test]
    fn second_fault_reuses_frame() {
        let (mut mem, mut m) = mm();
        m.add_vma(anon(0x1000, 0x2000, VmProt::RW)).unwrap();
        let pa1 = m.fault_in(&mut mem, 0x1000, true, false).unwrap();
        let pa2 = m.fault_in(&mut mem, 0x1008, false, false).unwrap();
        assert_eq!(pa1, pa2);
    }

    #[test]
    fn unmap_frees_and_forgets() {
        let (mut mem, mut m) = mm();
        m.add_vma(anon(0x1000, 0x3000, VmProt::RW)).unwrap();
        m.fault_in(&mut mem, 0x1000, false, false).unwrap();
        m.fault_in(&mut mem, 0x2000, false, false).unwrap();
        let freed = m.unmap(&mut mem, 0x1000..0x3000);
        assert_eq!(freed.len(), 2);
        assert!(m.vma_at(0x1000).is_none());
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn protect_updates_ptes() {
        let (mut mem, mut m) = mm();
        m.add_vma(anon(0x1000, 0x2000, VmProt::RW)).unwrap();
        m.fault_in(&mut mem, 0x1000, true, false).unwrap();
        m.protect(&mut mem, 0x1000..0x2000, VmProt::R);
        let (_, perms, _) = lz_machine::walk::s1_lookup(&mem, m.root, 0x1000).unwrap();
        assert!(!perms.write);
        assert!(m.fault_in(&mut mem, 0x1000, true, false).is_none(), "VMA prot also updated");
    }

    #[test]
    fn zap_pte_then_refault_same_frame() {
        let (mut mem, mut m) = mm();
        m.add_vma(anon(0x1000, 0x2000, VmProt::RW)).unwrap();
        let pa = m.fault_in(&mut mem, 0x1000, true, false).unwrap();
        assert!(m.zap_pte(&mut mem, 0x1000));
        assert!(lz_machine::walk::s1_lookup(&mem, m.root, 0x1000).is_none());
        let pa2 = m.fault_in(&mut mem, 0x1000, true, false).unwrap();
        assert_eq!(pa, pa2, "frame preserved across break-before-make");
    }

    #[test]
    fn exec_fault_requires_exec_prot() {
        let (mut mem, mut m) = mm();
        m.add_vma(anon(0x1000, 0x2000, VmProt::RW)).unwrap();
        assert!(m.fault_in(&mut mem, 0x1000, false, true).is_none());
    }
}
