//! Execution tracing: a bounded ring buffer of retired instructions.
//!
//! Disabled by default (zero overhead beyond a branch); when enabled the
//! machine records `(pc, word, EL)` per retired instruction — the first
//! tool to reach for when a guest program or an attack payload
//! misbehaves.

use lz_arch::pstate::ExceptionLevel;
use std::collections::VecDeque;

/// One retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    pub pc: u64,
    pub word: u32,
    pub el: ExceptionLevel,
}

/// Bounded instruction trace.
#[derive(Debug)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    enabled: bool,
}

impl Trace {
    /// A disabled trace with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Trace { entries: VecDeque::with_capacity(capacity.min(4096)), capacity, enabled: false }
    }

    /// An empty trace with this trace's capacity and enablement (the
    /// per-core shell trace for one epoch; see [`crate::smp`]).
    pub fn fork(&self) -> Trace {
        Trace {
            entries: VecDeque::with_capacity(self.capacity.min(4096)),
            capacity: self.capacity,
            enabled: self.enabled,
        }
    }

    /// Append an epoch shell's entries (oldest first) with normal ring
    /// semantics (barrier-side merge in deterministic core order).
    pub fn absorb(&mut self, other: Trace) {
        for e in other.entries {
            if self.entries.len() >= self.capacity {
                self.entries.pop_front();
            }
            self.entries.push_back(e);
        }
    }

    /// Turn recording on or off (buffer contents are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one retired instruction (no-op while disabled).
    #[inline]
    pub fn record(&mut self, pc: u64, word: u32, el: ExceptionLevel) {
        if !self.enabled {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(TraceEntry { pc, word, el });
    }

    /// The recorded tail, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop all recorded entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::new(8);
        t.record(0x1000, 0xD503_201F, ExceptionLevel::El0);
        assert!(t.is_empty());
    }

    #[test]
    fn ring_drops_oldest() {
        let mut t = Trace::new(3);
        t.set_enabled(true);
        for i in 0..5u64 {
            t.record(0x1000 + i * 4, 0xD503_201F, ExceptionLevel::El1);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.entries().next().unwrap().pc, 0x1008);
    }

    #[test]
    fn clear_empties() {
        let mut t = Trace::new(8);
        t.set_enabled(true);
        t.record(0, 0, ExceptionLevel::El0);
        t.clear();
        assert!(t.is_empty());
    }
}
