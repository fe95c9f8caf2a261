//! Syscall numbers and dispatch results.
//!
//! Numbers follow the AArch64 Linux ABI where one exists. The custom
//! range (≥ [`CUSTOM_BASE`]) carries the LightZone API (`lz_*`), the
//! Watchpoint baseline's ioctl equivalents, and the simulated-lwC
//! operations — all of which the base kernel forwards to the layer above.

/// First syscall number the base kernel does not handle itself.
pub const CUSTOM_BASE: u64 = 0x1000;

/// Syscalls known to the base kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sysno {
    /// `write(fd, buf, len)` — byte-counts into the kernel's sink.
    Write,
    /// `exit(code)`.
    Exit,
    /// `clock_gettime` — returns the cycle counter.
    ClockGettime,
    /// `sched_yield`.
    Yield,
    /// `getpid`.
    Getpid,
    /// `gettid`.
    Gettid,
    /// `munmap(addr, len)`.
    Munmap,
    /// `mmap(addr, len, prot, …)` — fixed-address, anonymous.
    Mmap,
    /// `mprotect(addr, len, prot)`.
    Mprotect,
    /// `kill(pid, sig)` — self-signalling only in this kernel.
    Kill,
    /// `rt_sigaction(sig, handler)` — simplified: handler address only.
    Sigaction,
    /// `rt_sigreturn()` — restore the signal frame.
    Sigreturn,
    /// `clone(entry, stack_top, arg)` — simplified thread creation: the
    /// new thread starts at `entry` with `arg` in x0 on the given stack.
    Clone,
    /// `futex(uaddr, op, val)` — [`futex::WAIT`] parks the calling
    /// thread while `*uaddr == val`; [`futex::WAKE`] wakes up to `val`
    /// waiters on `uaddr`.
    Futex,
}

impl Sysno {
    /// The AArch64 Linux syscall number.
    pub const fn nr(self) -> u64 {
        match self {
            Sysno::Write => 64,
            Sysno::Exit => 93,
            Sysno::ClockGettime => 113,
            Sysno::Yield => 124,
            Sysno::Getpid => 172,
            Sysno::Gettid => 178,
            Sysno::Munmap => 215,
            Sysno::Mmap => 222,
            Sysno::Mprotect => 226,
            Sysno::Kill => 129,
            Sysno::Sigaction => 134,
            Sysno::Sigreturn => 139,
            Sysno::Clone => 220,
            Sysno::Futex => 98,
        }
    }

    /// Reverse-map a number.
    pub fn from_nr(nr: u64) -> Option<Sysno> {
        Some(match nr {
            64 => Sysno::Write,
            93 => Sysno::Exit,
            113 => Sysno::ClockGettime,
            124 => Sysno::Yield,
            172 => Sysno::Getpid,
            178 => Sysno::Gettid,
            215 => Sysno::Munmap,
            222 => Sysno::Mmap,
            226 => Sysno::Mprotect,
            129 => Sysno::Kill,
            134 => Sysno::Sigaction,
            139 => Sysno::Sigreturn,
            220 => Sysno::Clone,
            98 => Sysno::Futex,
            _ => return None,
        })
    }
}

/// `futex` operation codes (Linux values, no flag bits modelled).
pub mod futex {
    /// Park while `*uaddr == val`.
    pub const WAIT: u64 = 0;
    /// Wake up to `val` waiters.
    pub const WAKE: u64 = 1;
}

/// `mmap`/`mprotect` prot bits (Linux values).
pub mod prot {
    pub const READ: u64 = 1;
    pub const WRITE: u64 = 2;
    pub const EXEC: u64 = 4;
}

/// Custom syscall numbers forwarded to the isolation layers.
pub mod custom {
    use super::CUSTOM_BASE;

    // LightZone API (Table 2 of the paper).
    pub const LZ_ENTER: u64 = CUSTOM_BASE;
    pub const LZ_ALLOC: u64 = CUSTOM_BASE + 1;
    pub const LZ_FREE: u64 = CUSTOM_BASE + 2;
    pub const LZ_PROT: u64 = CUSTOM_BASE + 3;
    pub const LZ_MAP_GATE_PGT: u64 = CUSTOM_BASE + 4;

    // Watchpoint baseline (ioctl-based prototype, §8).
    pub const WP_ENTER: u64 = CUSTOM_BASE + 0x10;
    pub const WP_PROT: u64 = CUSTOM_BASE + 0x11;
    pub const WP_SWITCH: u64 = CUSTOM_BASE + 0x12;

    // Simulated lwC baseline (§8).
    pub const LWC_CREATE: u64 = CUSTOM_BASE + 0x20;
    pub const LWC_SWITCH: u64 = CUSTOM_BASE + 0x21;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nr_roundtrip() {
        for s in [
            Sysno::Write,
            Sysno::Exit,
            Sysno::ClockGettime,
            Sysno::Yield,
            Sysno::Getpid,
            Sysno::Gettid,
            Sysno::Munmap,
            Sysno::Mmap,
            Sysno::Mprotect,
            Sysno::Kill,
            Sysno::Sigaction,
            Sysno::Sigreturn,
            Sysno::Clone,
            Sysno::Futex,
        ] {
            assert_eq!(Sysno::from_nr(s.nr()), Some(s));
        }
        assert_eq!(Sysno::from_nr(9999), None);
    }

    #[test]
    fn custom_range_is_disjoint() {
        assert!(Sysno::from_nr(custom::LZ_ENTER).is_none());
        const { assert!(custom::LZ_ENTER >= CUSTOM_BASE) };
    }
}
