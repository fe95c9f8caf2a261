//! Sparse physical memory with a frame allocator.

use crate::fxhash::FxHashMap;
use lz_arch::insn::MemSize;
use lz_arch::{page_align_down, PAGE_SHIFT, PAGE_SIZE};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// One physical frame plus the generation of its last mutation.
#[derive(Debug, Clone)]
struct Frame {
    data: Box<[u8; PAGE_SIZE as usize]>,
    /// `PhysMem::write_gen` at the time of the last write/alloc/zero.
    /// Consumers (the compiled-block fetch cache) snapshot this to detect stale
    /// cached views of frame *contents* without scanning the frame.
    version: u64,
}

/// The frame table: frames indexed by frame number, plus the number of
/// live ones. Frame numbers are handed out densely from 1 MiB up (a
/// contiguous allocation may skip to its alignment), so the table holds
/// few holes and a lookup is one bounds check and one load. Only
/// allocation and the epoch merge insert; a lookup past the end is a bus
/// error and never grows the table.
#[derive(Debug, Clone, Default)]
struct FrameTable {
    slots: Vec<Option<Frame>>,
    live: usize,
}

impl FrameTable {
    #[inline]
    fn get(&self, frame: u64) -> Option<&Frame> {
        self.slots.get(usize::try_from(frame).ok()?)?.as_ref()
    }

    #[inline]
    fn get_mut(&mut self, frame: u64) -> Option<&mut Frame> {
        self.slots.get_mut(usize::try_from(frame).ok()?)?.as_mut()
    }

    /// Install `f` as frame `frame`, an allocator-issued number.
    fn insert(&mut self, frame: u64, f: Frame) {
        let i = frame as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].replace(f).is_none() {
            self.live += 1;
        }
    }

    fn remove(&mut self, frame: u64) -> Option<Frame> {
        let f = self.slots.get_mut(usize::try_from(frame).ok()?)?.take()?;
        self.live -= 1;
        Some(f)
    }
}

/// Dirty frames written by one core during an epoch, plus the shell-local
/// generation they reached. Produced by [`PhysMem::take_epoch_overlay`],
/// consumed by [`PhysMem::merge_epoch`] at the barrier.
#[derive(Debug)]
pub struct EpochWrites {
    dirty: FxHashMap<u64, Frame>,
    local_gen: u64,
}

impl EpochWrites {
    /// Number of frames this core dirtied during the epoch.
    pub fn dirty_frames(&self) -> usize {
        self.dirty.len()
    }
}

/// Simulated physical memory.
///
/// Frames are allocated lazily; reading an unpopulated-but-allocated frame
/// sees zeros. Accessing physical addresses outside any allocated frame is
/// a *bus error* — the walker turns it into a translation fault, and direct
/// kernel accesses return `None` so substrate bugs surface immediately.
///
/// Every mutation bumps a global monotonic `write_gen` and stamps the frame
/// it touched, so content caches can validate in O(1): if the global
/// generation hasn't moved since the cache entry was last checked, no frame
/// anywhere has changed; otherwise compare the single frame's version.
///
/// # Epoch sharding
///
/// For parallel SMP execution ([`crate::smp`]), [`Self::epoch_view`]
/// produces a copy-on-write view sharing the frame table via `Arc`: writes
/// land in a private overlay with shell-local generation stamps, and the
/// overlays merge back deterministically in core order at the epoch
/// barrier ([`Self::merge_epoch`]). Frame allocation and freeing never
/// happen inside an epoch — only the kernel allocates, and it runs
/// barrier-side — so the shared base is immutable while views exist.
#[derive(Debug, Default)]
pub struct PhysMem {
    frames: Arc<FrameTable>,
    /// Epoch write overlay: `Some` only inside a per-core epoch view.
    /// Reads check it before the shared base; writes copy the frame up.
    overlay: Option<FxHashMap<u64, Frame>>,
    /// Next frame number to hand out.
    next_frame: u64,
    /// Recycled frames.
    free: Vec<u64>,
    /// Monotonic count of mutations (writes, allocs, frees, zeroing).
    write_gen: u64,
}

impl PhysMem {
    /// Create an empty physical memory. The first allocated frame starts
    /// at 1 MiB so that physical address 0 never aliases a real frame
    /// (null-PA bugs fault loudly).
    pub fn new() -> Self {
        PhysMem {
            frames: Arc::new(FrameTable::default()),
            overlay: None,
            next_frame: (1 << 20) >> PAGE_SHIFT,
            free: Vec::new(),
            write_gen: 1,
        }
    }

    /// A per-core copy-on-write view for one epoch: shares the frame table,
    /// writes go to a private overlay stamped with shell-local generations.
    pub fn epoch_view(&self) -> PhysMem {
        PhysMem {
            frames: Arc::clone(&self.frames),
            overlay: Some(FxHashMap::default()),
            next_frame: self.next_frame,
            free: Vec::new(),
            write_gen: self.write_gen,
        }
    }

    /// Detach this epoch view's dirty frames for the barrier merge.
    /// Returns `None` if this is not an epoch view.
    pub fn take_epoch_overlay(&mut self) -> Option<EpochWrites> {
        let dirty = self.overlay.take()?;
        Some(EpochWrites { dirty, local_gen: self.write_gen })
    }

    /// Merge per-core epoch writes back into the shared base, in the core
    /// order the caller supplies. The merge is *byte-granular*: each dirty
    /// frame copy is diffed against the pre-epoch original and only the
    /// changed bytes are applied, so cores writing disjoint words of the
    /// same page (per-thread slots in a shared frame, futex flags next to
    /// each other) all land. Returns the number of write conflicts —
    /// copies whose changed bytes overlap an earlier core's changes; for
    /// those bytes the last core in commit order wins, matching the
    /// replay schedule's commit order.
    ///
    /// The global generation is first raised to the maximum shell-local
    /// generation, then bumped once per merged frame copy. Every
    /// shell-local bump implies at least one dirty frame, so after the
    /// merge the global `write_gen` strictly exceeds every generation any
    /// shell observed — a stale shell-side snapshot can therefore never
    /// validate against post-merge state.
    pub fn merge_epoch(&mut self, parts: Vec<EpochWrites>) -> u64 {
        debug_assert!(self.overlay.is_none(), "merge targets the shared base, not a view");
        let mut gen = self.write_gen;
        for part in &parts {
            gen = gen.max(part.local_gen);
        }
        // Group the dirty copies by frame, keeping commit order within
        // each group; iterate frames in ascending number order.
        let mut by_frame: FxHashMap<u64, Vec<Frame>> = FxHashMap::default();
        let mut keys: Vec<u64> = Vec::new();
        for part in parts {
            for (key, frame) in part.dirty {
                let copies = by_frame.entry(key).or_default();
                if copies.is_empty() {
                    keys.push(key);
                }
                copies.push(frame);
            }
        }
        keys.sort_unstable();
        let mut conflicts = 0u64;
        let frames = Arc::make_mut(&mut self.frames);
        for key in keys {
            let copies = by_frame.remove(&key).unwrap_or_default();
            // The shared base is immutable while views exist, so the
            // base frame (zeros if the frame vanished) is the pre-epoch
            // original every copy descended from.
            let orig: Box<[u8; PAGE_SIZE as usize]> = match frames.get(key) {
                Some(f) => f.data.clone(),
                None => Box::new([0u8; PAGE_SIZE as usize]),
            };
            let mut merged = orig.clone();
            let mut touched = [0u64; (PAGE_SIZE as usize) / 64];
            for copy in copies {
                gen += 1;
                let mut overlapped = false;
                for (i, (&new, &old)) in copy.data.iter().zip(orig.iter()).enumerate() {
                    if new != old {
                        if touched[i / 64] >> (i % 64) & 1 == 1 {
                            overlapped = true;
                        }
                        touched[i / 64] |= 1 << (i % 64);
                        merged[i] = new;
                    }
                }
                if overlapped {
                    conflicts += 1;
                }
            }
            frames.insert(key, Frame { data: merged, version: gen });
        }
        self.write_gen = gen;
        conflicts
    }

    /// Whether this is an epoch view (writes shard into an overlay).
    pub fn is_epoch_view(&self) -> bool {
        self.overlay.is_some()
    }

    /// Mutable access to the shared frame table outside epochs. All
    /// views are merged and dropped before allocator paths run, so the
    /// `Arc` is unshared and this never copies.
    fn base_mut(&mut self) -> &mut FrameTable {
        debug_assert!(self.overlay.is_none(), "allocator paths never run inside an epoch");
        Arc::make_mut(&mut self.frames)
    }

    fn fresh_frame(&mut self) -> Frame {
        self.write_gen += 1;
        Frame { data: Box::new([0u8; PAGE_SIZE as usize]), version: self.write_gen }
    }

    /// Allocate a zeroed frame; returns its physical base address.
    pub fn alloc_frame(&mut self) -> u64 {
        let frame = self.free.pop().unwrap_or_else(|| {
            let f = self.next_frame;
            self.next_frame += 1;
            f
        });
        let fresh = self.fresh_frame();
        self.base_mut().insert(frame, fresh);
        frame << PAGE_SHIFT
    }

    /// Allocate `n` *contiguous* zeroed frames (for 2 MiB blocks); returns
    /// the physical base address of the first, aligned to `n` frames so
    /// block descriptors can map it directly.
    pub fn alloc_contiguous(&mut self, n: u64) -> u64 {
        let start = self.next_frame.div_ceil(n) * n;
        self.next_frame = start + n;
        for f in start..start + n {
            let fresh = self.fresh_frame();
            self.base_mut().insert(f, fresh);
        }
        start << PAGE_SHIFT
    }

    /// Free a frame previously returned by [`Self::alloc_frame`].
    ///
    /// # Panics
    ///
    /// Panics if the frame is not currently allocated (double free).
    /// Guest-driven teardown paths use [`Self::try_free_frame`] instead.
    pub fn free_frame(&mut self, pa: u64) {
        let frame = pa >> PAGE_SHIFT;
        assert!(self.try_free_frame(pa), "double free of frame {frame:#x}");
    }

    /// Fallible [`Self::free_frame`]: `false` if the frame is not
    /// currently allocated. Teardown of guest-corruptible structures
    /// (page-table trees a VE may have damaged) uses this so a double
    /// free degrades to a leak instead of killing the host.
    pub fn try_free_frame(&mut self, pa: u64) -> bool {
        let frame = pa >> PAGE_SHIFT;
        if self.base_mut().remove(frame).is_none() {
            return false;
        }
        self.write_gen += 1;
        self.free.push(frame);
        true
    }

    /// Global mutation counter. Strictly increases on every write, alloc,
    /// free, or zeroing anywhere in physical memory. Inside an epoch view
    /// this is the shell-local generation.
    pub fn write_gen(&self) -> u64 {
        self.write_gen
    }

    /// The mutation generation of the frame backing `pa`, or `None` on a
    /// bus error. Reallocation after a free changes the version, so a stale
    /// snapshot can never validate against a recycled frame.
    pub fn frame_version(&self, pa: u64) -> Option<u64> {
        let key = pa >> PAGE_SHIFT;
        if let Some(overlay) = &self.overlay {
            if let Some(frame) = overlay.get(&key) {
                return Some(frame.version);
            }
        }
        self.frames.get(key).map(|f| f.version)
    }

    /// Is this physical address backed by an allocated frame? (Epoch
    /// overlays only ever hold frames copied up from the base, so the
    /// base alone answers this.)
    pub fn is_mapped(&self, pa: u64) -> bool {
        self.frames.get(pa >> PAGE_SHIFT).is_some()
    }

    /// Number of allocated frames (for memory-overhead accounting).
    pub fn allocated_frames(&self) -> usize {
        self.frames.live
    }

    /// Read-only view of the whole frame containing `pa`, or `None` on a
    /// bus error. Page-sized host scans (page-table teardown, the code
    /// sanitizer) use it to look the frame up once instead of once per
    /// word.
    #[inline]
    pub fn frame(&self, pa: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        let key = pa >> PAGE_SHIFT;
        if let Some(overlay) = &self.overlay {
            if let Some(frame) = overlay.get(&key) {
                return Some(&*frame.data);
            }
        }
        self.frames.get(key).map(|f| &*f.data)
    }

    /// Mutable frame access; bumps the generation stamps because every
    /// caller is about to write. Inside an epoch view the frame is copied
    /// up into the overlay and stamped with the shell-local generation.
    fn frame_mut(&mut self, pa: u64) -> Option<&mut [u8; PAGE_SIZE as usize]> {
        let key = pa >> PAGE_SHIFT;
        let gen = self.write_gen + 1;
        if let Some(overlay) = self.overlay.as_mut() {
            let frame = match overlay.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(self.frames.get(key)?.clone()),
            };
            self.write_gen = gen;
            frame.version = gen;
            return Some(&mut *frame.data);
        }
        let frame = Arc::make_mut(&mut self.frames).get_mut(key)?;
        self.write_gen = gen;
        frame.version = gen;
        Some(&mut *frame.data)
    }

    /// Read `N`-byte little-endian value. `None` on a bus error.
    /// The access must not cross a page boundary (callers are aligned).
    pub fn read(&self, pa: u64, size: u64) -> Option<u64> {
        debug_assert!(size <= 8 && page_align_down(pa) == page_align_down(pa + size - 1));
        let frame = self.frame(pa)?;
        let off = (pa & (PAGE_SIZE - 1)) as usize;
        let mut buf = [0u8; 8];
        buf[..size as usize].copy_from_slice(&frame[off..off + size as usize]);
        Some(u64::from_le_bytes(buf))
    }

    /// Write `size`-byte little-endian value. `false` on a bus error.
    pub fn write(&mut self, pa: u64, value: u64, size: u64) -> bool {
        debug_assert!(size <= 8 && page_align_down(pa) == page_align_down(pa + size - 1));
        let Some(frame) = self.frame_mut(pa) else { return false };
        let off = (pa & (PAGE_SIZE - 1)) as usize;
        frame[off..off + size as usize].copy_from_slice(&value.to_le_bytes()[..size as usize]);
        true
    }

    /// Load the `size`-wide little-endian value at `pa` with one
    /// fixed-width frame access: the load of a translated data access,
    /// which must not cross a page boundary (callers split those; in
    /// release builds one that would is a bus error). `None` on a bus
    /// error.
    #[inline(always)]
    pub fn load(&self, pa: u64, size: MemSize) -> Option<u64> {
        debug_assert!((pa & (PAGE_SIZE - 1)) + size.bytes() <= PAGE_SIZE, "a fixed-width load crosses its page");
        let bytes = &self.frame(pa)?[(pa & (PAGE_SIZE - 1)) as usize..];
        Some(match size {
            MemSize::B => u64::from(u8::from_le_bytes(*bytes.first_chunk()?)),
            MemSize::H => u64::from(u16::from_le_bytes(*bytes.first_chunk()?)),
            MemSize::W => u64::from(u32::from_le_bytes(*bytes.first_chunk()?)),
            MemSize::X => u64::from_le_bytes(*bytes.first_chunk()?),
        })
    }

    /// Store the low `size` bytes of `value` at `pa`, little-endian, with
    /// one fixed-width frame access (the store of [`Self::load`], under
    /// the same page rule). `false` on a bus error.
    #[inline(always)]
    pub fn store(&mut self, pa: u64, size: MemSize, value: u64) -> bool {
        debug_assert!((pa & (PAGE_SIZE - 1)) + size.bytes() <= PAGE_SIZE, "a fixed-width store crosses its page");
        let Some(frame) = self.frame_mut(pa) else { return false };
        let bytes = &mut frame[(pa & (PAGE_SIZE - 1)) as usize..];
        match size {
            MemSize::B => bytes.first_chunk_mut().map(|b| *b = (value as u8).to_le_bytes()),
            MemSize::H => bytes.first_chunk_mut().map(|b| *b = (value as u16).to_le_bytes()),
            MemSize::W => bytes.first_chunk_mut().map(|b| *b = (value as u32).to_le_bytes()),
            MemSize::X => bytes.first_chunk_mut().map(|b| *b = value.to_le_bytes()),
        }
        .is_some()
    }

    /// Read a 64-bit word (page-table descriptors).
    pub fn read_u64(&self, pa: u64) -> Option<u64> {
        self.read(pa, 8)
    }

    /// Write a 64-bit word.
    pub fn write_u64(&mut self, pa: u64, value: u64) -> bool {
        self.write(pa, value, 8)
    }

    /// Read a 32-bit word (instruction fetch).
    pub fn read_u32(&self, pa: u64) -> Option<u32> {
        self.read(pa, 4).map(|v| v as u32)
    }

    /// Copy bytes out of physical memory; `None` if any page is unbacked.
    pub fn read_bytes(&self, pa: u64, len: usize) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        let mut cur = pa;
        let end = pa + len as u64;
        while cur < end {
            let frame = self.frame(cur)?;
            let off = (cur & (PAGE_SIZE - 1)) as usize;
            let take = ((PAGE_SIZE - (cur & (PAGE_SIZE - 1))) as usize).min((end - cur) as usize);
            out.extend_from_slice(&frame[off..off + take]);
            cur += take as u64;
        }
        Some(out)
    }

    /// Copy bytes into physical memory; `false` if any page is unbacked.
    pub fn write_bytes(&mut self, pa: u64, data: &[u8]) -> bool {
        let mut cur = pa;
        let mut src = data;
        while !src.is_empty() {
            let Some(frame) = self.frame_mut(cur) else { return false };
            let off = (cur & (PAGE_SIZE - 1)) as usize;
            let take = ((PAGE_SIZE as usize) - off).min(src.len());
            frame[off..off + take].copy_from_slice(&src[..take]);
            cur += take as u64;
            src = &src[take..];
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_distinct_zeroed_frames() {
        let mut m = PhysMem::new();
        let a = m.alloc_frame();
        let b = m.alloc_frame();
        assert_ne!(a, b);
        assert_eq!(m.read_u64(a), Some(0));
        assert_eq!(m.read_u64(b + 4088), Some(0));
    }

    #[test]
    fn read_write_roundtrip_all_sizes() {
        let mut m = PhysMem::new();
        let pa = m.alloc_frame();
        for (size, value) in [(1, 0xab), (2, 0xabcd), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)] {
            assert!(m.write(pa, value, size));
            assert_eq!(m.read(pa, size), Some(value));
        }
    }

    const WIDTHS: [MemSize; 4] = [MemSize::B, MemSize::H, MemSize::W, MemSize::X];

    #[test]
    fn fixed_width_access_at_both_ends_of_a_page() {
        let mut m = PhysMem::new();
        let pa = m.alloc_frame();
        let value = 0x8877_6655_4433_2211u64;
        for size in WIDTHS {
            let n = size.bytes();
            for off in [0, PAGE_SIZE - n] {
                assert!(m.store(pa + off, size, value));
                // Only the low `size` bytes move, zero-extended on load.
                assert_eq!(m.load(pa + off, size), Some(value & (u64::MAX >> (64 - 8 * n))), "{size:?} at {off:#x}");
                assert_eq!(m.read(pa + off, n), m.load(pa + off, size), "{size:?} at {off:#x}: load agrees with read");
            }
        }
    }

    #[test]
    fn fixed_width_access_is_little_endian() {
        let mut m = PhysMem::new();
        let pa = m.alloc_frame();
        assert!(m.store(pa, MemSize::X, 0x0807_0605_0403_0201));
        assert_eq!(m.read_bytes(pa, 8), Some(vec![1, 2, 3, 4, 5, 6, 7, 8]));
        let loads = WIDTHS.map(|size| m.load(pa + 1, size));
        assert_eq!(loads, [Some(0x02), Some(0x0302), Some(0x0504_0302), Some(0x0008_0706_0504_0302)]);
        // A narrow store leaves the neighbouring bytes alone.
        assert!(m.store(pa + 2, MemSize::H, 0xbbaa));
        assert_eq!(m.read_bytes(pa, 8), Some(vec![1, 2, 0xaa, 0xbb, 5, 6, 7, 8]));
    }

    #[test]
    fn fixed_width_store_in_an_epoch_view_copies_the_frame_up() {
        let mut m = PhysMem::new();
        let pa = m.alloc_frame();
        assert!(m.store(pa + 8, MemSize::W, 0x1111_1111));
        let base_version = m.frame_version(pa);
        let mut view = m.epoch_view();
        for size in WIDTHS {
            assert!(view.store(pa + 8, size, 0x2222_2222_2222_2222));
        }
        assert_eq!(view.load(pa + 8, MemSize::X), Some(0x2222_2222_2222_2222), "the view sees its stores");
        assert_eq!(m.load(pa + 8, MemSize::X), Some(0x1111_1111), "the base frame is untouched");
        assert_eq!(m.frame_version(pa), base_version);
        assert_eq!(view.take_epoch_overlay().map(|p| p.dirty_frames()), Some(1), "one frame copied up");
    }

    #[test]
    fn fixed_width_access_past_the_frame_table_is_a_bus_error() {
        let mut m = PhysMem::new();
        let pa = m.alloc_frame();
        let gen = m.write_gen();
        for far in [pa + PAGE_SIZE, 0x10_0000_0000, !0xfff] {
            for size in WIDTHS {
                assert_eq!(m.load(far, size), None, "{size:?} at {far:#x}");
                assert!(!m.store(far, size, 1), "{size:?} at {far:#x}");
            }
            let mut view = m.epoch_view();
            assert!(!view.store(far, MemSize::X, 1));
            assert_eq!(view.take_epoch_overlay().map(|p| p.dirty_frames()), Some(0));
        }
        assert_eq!(m.write_gen(), gen, "bus errors write nothing");
    }

    #[test]
    fn unbacked_access_is_bus_error() {
        let mut m = PhysMem::new();
        assert_eq!(m.read_u64(0x10_0000_0000), None);
        assert!(!m.write_u64(0x10_0000_0000, 1));
        assert_eq!(m.read(0, 8), None, "PA 0 must never be backed");
    }

    #[test]
    fn free_recycles_frames() {
        let mut m = PhysMem::new();
        let a = m.alloc_frame();
        m.write_u64(a, 0x42);
        m.free_frame(a);
        assert!(!m.is_mapped(a));
        let b = m.alloc_frame();
        assert_eq!(b, a, "freed frame is recycled");
        assert_eq!(m.read_u64(b), Some(0), "recycled frame is zeroed");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = PhysMem::new();
        let a = m.alloc_frame();
        m.free_frame(a);
        m.free_frame(a);
    }

    #[test]
    fn try_free_reports_instead_of_panicking() {
        let mut m = PhysMem::new();
        let a = m.alloc_frame();
        assert!(m.try_free_frame(a));
        assert!(!m.try_free_frame(a), "second free reports false");
        assert!(!m.try_free_frame(0x10_0000_0000), "never-allocated frame");
    }

    #[test]
    fn contiguous_alloc_is_contiguous() {
        let mut m = PhysMem::new();
        let base = m.alloc_contiguous(512); // 2 MiB
        for i in 0..512 {
            assert!(m.is_mapped(base + i * PAGE_SIZE));
        }
        assert!(m.write_u64(base + 511 * PAGE_SIZE, 7));
    }

    #[test]
    fn bytes_roundtrip_across_pages() {
        let mut m = PhysMem::new();
        let base = m.alloc_contiguous(2);
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        assert!(m.write_bytes(base + 100, &data));
        assert_eq!(m.read_bytes(base + 100, 6000).unwrap(), data);
    }

    #[test]
    fn write_gen_tracks_mutations() {
        let mut m = PhysMem::new();
        let g0 = m.write_gen();
        let pa = m.alloc_frame();
        assert!(m.write_gen() > g0, "alloc bumps the generation");
        let g1 = m.write_gen();
        let v1 = m.frame_version(pa).unwrap();
        assert!(m.write_u64(pa, 7));
        assert!(m.write_gen() > g1);
        assert!(m.frame_version(pa).unwrap() > v1, "write stamps the frame");
        let g2 = m.write_gen();
        assert_eq!(m.read_u64(pa), Some(7));
        assert_eq!(m.write_gen(), g2, "reads do not bump the generation");
        assert!(!m.write_u64(0x10_0000_0000, 1));
        assert_eq!(m.write_gen(), g2, "bus-error writes do not bump");
    }

    #[test]
    fn frame_version_changes_on_recycle() {
        let mut m = PhysMem::new();
        let a = m.alloc_frame();
        let v0 = m.frame_version(a).unwrap();
        m.free_frame(a);
        assert_eq!(m.frame_version(a), None);
        let b = m.alloc_frame();
        assert_eq!(b, a, "frame is recycled");
        assert!(m.frame_version(b).unwrap() > v0, "recycled frame gets a fresh version");
    }

    #[test]
    fn epoch_view_shards_writes_until_merge() {
        let mut m = PhysMem::new();
        let pa = m.alloc_frame();
        m.write_u64(pa, 1);
        let mut view = m.epoch_view();
        assert!(view.is_epoch_view());
        assert_eq!(view.read_u64(pa), Some(1), "view sees base contents");
        assert!(view.write_u64(pa, 2));
        assert_eq!(view.read_u64(pa), Some(2), "view sees its own write");
        assert_eq!(m.read_u64(pa), Some(1), "base unchanged until merge");
        let part = view.take_epoch_overlay().unwrap();
        assert_eq!(part.dirty_frames(), 1);
        let conflicts = m.merge_epoch(vec![part]);
        assert_eq!(conflicts, 0);
        assert_eq!(m.read_u64(pa), Some(2), "merge installs the write");
    }

    #[test]
    fn merge_counts_conflicts_and_last_core_wins() {
        let mut m = PhysMem::new();
        let a = m.alloc_frame();
        let b = m.alloc_frame();
        let mut v0 = m.epoch_view();
        let mut v1 = m.epoch_view();
        assert!(v0.write_u64(a, 10));
        assert!(v1.write_u64(a, 11));
        assert!(v1.write_u64(b, 21));
        let parts = vec![v0.take_epoch_overlay().unwrap(), v1.take_epoch_overlay().unwrap()];
        let conflicts = m.merge_epoch(parts);
        assert_eq!(conflicts, 1, "one frame written by both cores");
        assert_eq!(m.read_u64(a), Some(11), "last core in commit order wins");
        assert_eq!(m.read_u64(b), Some(21));
    }

    #[test]
    fn merged_write_gen_exceeds_every_shell_generation() {
        let mut m = PhysMem::new();
        let a = m.alloc_frame();
        let b = m.alloc_frame();
        let mut v0 = m.epoch_view();
        let mut v1 = m.epoch_view();
        for i in 0..17 {
            assert!(v0.write_u64(a, i));
        }
        assert!(v1.write_u64(b, 99));
        let g0 = v0.write_gen();
        let g1 = v1.write_gen();
        let base_before = m.write_gen();
        let parts = vec![v0.take_epoch_overlay().unwrap(), v1.take_epoch_overlay().unwrap()];
        m.merge_epoch(parts);
        assert!(m.write_gen() > g0 && m.write_gen() > g1 && m.write_gen() > base_before);
        assert!(m.frame_version(a).unwrap() <= m.write_gen());
        assert!(m.frame_version(b).unwrap() <= m.write_gen());
    }

    #[test]
    fn epoch_view_bus_errors_do_not_dirty() {
        let mut m = PhysMem::new();
        let pa = m.alloc_frame();
        let mut view = m.epoch_view();
        assert!(!view.write_u64(0x10_0000_0000, 1));
        assert_eq!(view.read_u64(0x10_0000_0000), None);
        assert_eq!(view.read_u64(pa), Some(0));
        let part = view.take_epoch_overlay().unwrap();
        assert_eq!(part.dirty_frames(), 0);
        assert_eq!(m.merge_epoch(vec![part]), 0);
    }

    #[test]
    fn allocated_frames_counts() {
        let mut m = PhysMem::new();
        assert_eq!(m.allocated_frames(), 0);
        let a = m.alloc_frame();
        m.alloc_frame();
        assert_eq!(m.allocated_frames(), 2);
        m.free_frame(a);
        assert_eq!(m.allocated_frames(), 1);
        // Live frames, not table slots: a contiguous block's alignment gap
        // and a failed free count nothing.
        m.alloc_contiguous(512);
        assert!(!m.try_free_frame(a));
        assert_eq!(m.allocated_frames(), 513);
        assert_eq!(m.alloc_frame(), a, "the freed frame is recycled first");
        assert_eq!(m.allocated_frames(), 514);
    }

    #[test]
    fn recycled_frame_comes_back_zeroed_at_every_word() {
        let mut m = PhysMem::new();
        let a = m.alloc_frame();
        assert!(m.write_bytes(a, &[0xa5; PAGE_SIZE as usize]));
        assert!(m.try_free_frame(a));
        assert_eq!(m.alloc_frame(), a);
        assert_eq!(m.frame(a), Some(&[0u8; PAGE_SIZE as usize]));
    }

    #[test]
    fn contiguous_alloc_leaves_an_alignment_gap() {
        let mut m = PhysMem::new();
        let first = m.alloc_frame(); // frame 256, at 1 MiB
        let block = m.alloc_contiguous(512);
        assert_eq!(block, 2 << 20, "a 2 MiB block starts on a 2 MiB boundary");
        for pa in (first + PAGE_SIZE..block).step_by(PAGE_SIZE as usize) {
            assert!(!m.is_mapped(pa) && m.read_u64(pa).is_none(), "{pa:#x} lies in the gap");
        }
        assert!(m.is_mapped(block) && m.is_mapped(block + 511 * PAGE_SIZE));
        assert_eq!(m.alloc_frame(), block + 512 * PAGE_SIZE, "single frames continue after the block");
    }

    #[test]
    fn lookup_past_the_table_is_a_bus_error_and_never_grows_it() {
        let mut m = PhysMem::new();
        let pa = m.alloc_frame();
        let len = m.frames.slots.len();
        for far in [pa + PAGE_SIZE, 0x10_0000_0000, !0xfff] {
            assert_eq!((m.read_u64(far), m.frame_version(far), m.is_mapped(far)), (None, None, false));
            assert!(!m.write_u64(far, 1) && !m.try_free_frame(far));
            let mut view = m.epoch_view();
            assert!(!view.write_u64(far, 1));
            assert_eq!(view.take_epoch_overlay().map(|p| p.dirty_frames()), Some(0));
        }
        assert_eq!(m.frames.slots.len(), len, "lookups never grow the table");
    }

    #[test]
    fn merge_lands_in_the_indexed_table() {
        // Writes at both ends of the table — its first frame and the last
        // frame of a contiguous block — merge without adding a frame.
        let mut m = PhysMem::new();
        let low = m.alloc_frame();
        let high = m.alloc_contiguous(512) + 511 * PAGE_SIZE;
        let frames = m.allocated_frames();
        let mut v0 = m.epoch_view();
        let mut v1 = m.epoch_view();
        assert!(v0.write_u64(low, 1) && v1.write_u64(high + 8, 2) && v1.write_u64(low + 8, 3));
        let parts = vec![v0.take_epoch_overlay().unwrap(), v1.take_epoch_overlay().unwrap()];
        assert_eq!(m.merge_epoch(parts), 0, "disjoint bytes of one frame do not conflict");
        assert_eq!([m.read_u64(low), m.read_u64(low + 8), m.read_u64(high + 8)], [Some(1), Some(3), Some(2)]);
        assert_eq!(m.allocated_frames(), frames);
    }
}
