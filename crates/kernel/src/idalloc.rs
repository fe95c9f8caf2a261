//! Generation-tagged recycling allocator for 16-bit hardware IDs
//! (VMIDs, ASIDs).
//!
//! The seed repo's allocators were bump allocators that panicked (VMIDs)
//! or silently wrapped (ASIDs) at 2^16 allocations — fine for a handful
//! of experiments, fatal for fleet-scale churn where millions of
//! connections each take a domain. This allocator follows the shape of
//! Linux's ASID allocator:
//!
//! * IDs are handed out from a fresh bump cursor until the 16-bit space
//!   is exhausted (id 0 stays reserved for the host/global context).
//! * Freed IDs collect on a FIFO free list. They are **not** recycled
//!   while fresh IDs remain — every allocation before the first rollover
//!   is guaranteed unique, which keeps the seed experiments byte-for-byte
//!   identical.
//! * When the fresh space runs dry the allocator *rolls over*: the
//!   generation counter bumps and allocation switches to the free list.
//!   A recycled ID may still tag live TLB entries from its previous
//!   life, so every recycled grant carries `recycled: true` and the
//!   caller **must** invalidate (`invalidate_vmid`/`shootdown_vmid` for
//!   VMIDs, `invalidate_asid`/`shootdown_asid` for ASIDs) before the ID
//!   reaches hardware again. Invalidation happens at *reuse* time, not
//!   free time — freeing is O(1), and entries tagged with a parked ID
//!   are unreachable until the ID is granted again.
//!
//! Allocation only truly fails when every ID in the space is live.

use std::collections::VecDeque;

/// One granted ID plus the provenance the caller needs for TLB hygiene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdGrant {
    pub id: u16,
    /// Allocator generation the grant belongs to (0 until the first
    /// rollover, then bumped per full pass over the space).
    pub generation: u64,
    /// `true` when the ID had a previous owner: the caller must
    /// invalidate all TLB entries tagged with it before use.
    pub recycled: bool,
}

/// Typed exhaustion error: every ID in the space is simultaneously live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdExhausted {
    /// Size of the space that is fully live.
    pub space: u16,
}

impl std::fmt::Display for IdExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all {} ids live, nothing to recycle", self.space)
    }
}

impl std::error::Error for IdExhausted {}

/// Generation-tagged recycling allocator over ids `1..=space`.
#[derive(Debug, Clone)]
pub struct IdAlloc {
    /// Next never-used id; `> space` once the fresh range is exhausted.
    next: u32,
    /// Highest allocatable id (`u16::MAX` for real hardware spaces;
    /// tests shrink it to reach rollover quickly).
    space: u16,
    /// Freed ids, oldest first (FIFO maximises the time between an ID's
    /// death and its reuse, like Linux's round-robin ASID sweep).
    free: VecDeque<u16>,
    generation: u64,
    recycles: u64,
    rollovers: u64,
}

impl IdAlloc {
    /// Full 16-bit space; id 0 reserved.
    pub fn new() -> Self {
        Self::with_space(u16::MAX)
    }

    /// Restricted space `1..=space` — lets tests and harnesses reach
    /// rollover in a handful of allocations instead of 65,535.
    pub fn with_space(space: u16) -> Self {
        assert!(space >= 1, "id space needs at least one allocatable id");
        IdAlloc { next: 1, space, free: VecDeque::new(), generation: 0, recycles: 0, rollovers: 0 }
    }

    /// Allocate an ID. Errors only when all `space` ids are live.
    pub fn alloc(&mut self) -> Result<IdGrant, IdExhausted> {
        if self.next <= self.space as u32 {
            let id = self.next as u16;
            self.next += 1;
            return Ok(IdGrant { id, generation: self.generation, recycled: false });
        }
        let Some(id) = self.free.pop_front() else {
            return Err(IdExhausted { space: self.space });
        };
        // Generation bumps on the first recycled grant (fresh space
        // exhausted) and again on every full recycled pass over the
        // space — each bump is one rollover.
        if self.recycles.is_multiple_of(self.space as u64) {
            self.generation += 1;
            self.rollovers += 1;
        }
        self.recycles += 1;
        Ok(IdGrant { id, generation: self.generation, recycled: true })
    }

    /// Return an ID to the free list. The caller guarantees no live user
    /// still holds it; TLB entries tagged with it may remain resident
    /// (they are invalidated when the ID is next granted).
    pub fn free(&mut self, id: u16) {
        debug_assert!(id != 0 && id <= self.space, "freed id {id} outside space 1..={}", self.space);
        debug_assert!(!self.free.contains(&id), "double free of id {id}");
        self.free.push_back(id);
    }

    /// IDs currently live (granted and not yet freed).
    pub fn live(&self) -> u64 {
        (self.next as u64 - 1).saturating_sub(self.free.len() as u64)
    }

    /// Current generation (0 until the first rollover).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total recycled grants (each one forced a TLB invalidation at the
    /// caller before the ID was reused).
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Times the allocator wrapped the space (fresh exhaustion plus each
    /// subsequent full recycled pass).
    pub fn rollovers(&self) -> u64 {
        self.rollovers
    }
}

impl Default for IdAlloc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_unique_and_nonzero() {
        let mut a = IdAlloc::with_space(100);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let g = a.alloc().unwrap();
            assert_ne!(g.id, 0);
            assert!(!g.recycled);
            assert_eq!(g.generation, 0);
            assert!(seen.insert(g.id));
        }
        assert_eq!(a.live(), 100);
        assert_eq!(a.rollovers(), 0);
    }

    #[test]
    fn exhaustion_with_all_live_is_typed_error() {
        let mut a = IdAlloc::with_space(3);
        for _ in 0..3 {
            a.alloc().unwrap();
        }
        let err = a.alloc().unwrap_err();
        assert_eq!(err, IdExhausted { space: 3 });
        // Still usable afterwards: freeing un-wedges it.
        a.free(2);
        assert_eq!(a.alloc().unwrap().id, 2);
    }

    #[test]
    fn rollover_recycles_oldest_freed_first_with_generation_tag() {
        let mut a = IdAlloc::with_space(4);
        for _ in 0..4 {
            a.alloc().unwrap();
        }
        a.free(3);
        a.free(1);
        let g = a.alloc().unwrap();
        assert_eq!((g.id, g.recycled, g.generation), (3, true, 1), "FIFO reuse, generation bumped");
        let g = a.alloc().unwrap();
        assert_eq!((g.id, g.recycled, g.generation), (1, true, 1));
        assert_eq!(a.recycles(), 2);
        assert_eq!(a.rollovers(), 1);
    }

    #[test]
    fn free_list_is_not_recycled_while_fresh_ids_remain() {
        let mut a = IdAlloc::with_space(10);
        let g1 = a.alloc().unwrap();
        a.free(g1.id);
        // Next grant is fresh id 2, not recycled id 1: pre-rollover
        // allocations stay unique (seed-compatible behavior).
        let g2 = a.alloc().unwrap();
        assert_eq!((g2.id, g2.recycled), (2, false));
    }

    #[test]
    fn generation_bumps_once_per_full_recycled_pass() {
        let mut a = IdAlloc::with_space(2);
        let g1 = a.alloc().unwrap();
        let g2 = a.alloc().unwrap();
        let mut gens = Vec::new();
        let (mut x, mut y) = (g1.id, g2.id);
        for _ in 0..3 {
            a.free(x);
            a.free(y);
            let r1 = a.alloc().unwrap();
            let r2 = a.alloc().unwrap();
            assert!(r1.recycled && r2.recycled);
            assert_eq!(r1.generation, r2.generation);
            gens.push(r1.generation);
            (x, y) = (r1.id, r2.id);
        }
        assert_eq!(gens, vec![1, 2, 3], "one generation per wrap");
        assert_eq!(a.rollovers(), 3);
        assert_eq!(a.recycles(), 6);
    }

    #[test]
    fn live_tracks_grants_minus_frees() {
        let mut a = IdAlloc::with_space(5);
        let g = a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.live(), 2);
        a.free(g.id);
        assert_eq!(a.live(), 1);
    }
}
