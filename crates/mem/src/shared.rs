//! The shared back end: LLC + DRAM, shareable between cores.
//!
//! The paper places EVE in a chip multi-processor: every core owns its
//! private L1s and L2 (and can turn half that L2 into an engine), while
//! the last-level cache and the memory channel are shared. This module
//! owns that shared tail. A single-core system simply holds the sole
//! reference.

use crate::cache::Cache;
use crate::config::{CacheConfig, DramConfig};
use crate::dram::Dram;
use crate::hierarchy::{Access, Level};
use eve_common::{Cycle, Stats};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug)]
struct LlcDram {
    llc: Cache,
    dram: Dram,
}

impl LlcDram {
    fn access(&mut self, addr: u64, store: bool, now: Cycle) -> Access {
        let out = self.llc.lookup(addr, store, now);
        if out.hit {
            return Access {
                complete: out.ready,
                hit_level: Level::Llc,
                mshr_wait: out.mshr_wait,
            };
        }
        let slot = out.mshr_slot.expect("a miss claims an MSHR");
        let done = self.dram.access(out.ready);
        if self.llc.fill_slot(addr, store, done, slot).is_some() {
            self.dram.writeback(done);
        }
        Access {
            complete: done,
            hit_level: Level::Dram,
            mshr_wait: out.mshr_wait,
        }
    }

    fn writeback(&mut self, addr: u64, now: Cycle) {
        // A dirty line arriving from a private L2: allocate in the LLC,
        // charging banks/DRAM bandwidth but nobody's latency.
        let out = self.llc.lookup(addr, true, now);
        if let Some(slot) = out.mshr_slot {
            if self.llc.fill_slot(addr, true, out.ready, slot).is_some() {
                self.dram.writeback(out.ready);
            }
        }
    }
}

/// A handle to the shared LLC + DRAM. Clones share state: give every
/// core's [`Hierarchy`](crate::Hierarchy) a clone to build a CMP.
///
/// # Examples
///
/// ```
/// use eve_common::Cycle;
/// use eve_mem::{Hierarchy, HierarchyConfig, Level, SharedLlc};
///
/// let cfg = HierarchyConfig::table_iii();
/// let shared = SharedLlc::new(cfg.llc.clone(), cfg.dram);
/// let mut core0 = Hierarchy::with_shared(cfg.clone(), shared.clone());
/// let mut core1 = Hierarchy::with_shared(cfg, shared);
/// // Core 0 pulls a line through the shared LLC...
/// let a = core0.access(Level::L1D, 0x4000, false, Cycle(0));
/// assert_eq!(a.hit_level, Level::Dram);
/// // ...and core 1 finds it there (its private levels still miss).
/// let b = core1.access(Level::L1D, 0x4000, false, a.complete);
/// assert_eq!(b.hit_level, Level::Llc);
/// ```
#[derive(Debug, Clone)]
pub struct SharedLlc {
    inner: Rc<RefCell<LlcDram>>,
}

impl SharedLlc {
    /// Creates a shared LLC + DRAM pair.
    ///
    /// # Panics
    ///
    /// Panics if the cache configuration is invalid.
    #[must_use]
    pub fn new(llc: CacheConfig, dram: DramConfig) -> Self {
        Self {
            inner: Rc::new(RefCell::new(LlcDram {
                llc: Cache::new(llc),
                dram: Dram::new(dram),
            })),
        }
    }

    /// One access entering at the LLC.
    pub fn access(&self, addr: u64, store: bool, now: Cycle) -> Access {
        self.inner.borrow_mut().access(addr, store, now)
    }

    /// Absorbs a dirty writeback from a private L2.
    pub fn writeback(&self, addr: u64, now: Cycle) {
        self.inner.borrow_mut().writeback(addr, now);
    }

    /// Charges DRAM bandwidth for lines flushed during an EVE spawn.
    pub fn spawn_flush(&self, dirty_lines: u64, now: Cycle) {
        let mut inner = self.inner.borrow_mut();
        for _ in 0..dirty_lines {
            inner.dram.writeback(now);
        }
    }

    /// Whether the LLC has no free MSHR at `now` (the Fig 8 probe).
    #[must_use]
    pub fn mshr_full_at(&self, now: Cycle) -> bool {
        self.inner.borrow().llc.mshr_full_at(now)
    }

    /// LLC + DRAM statistics under `llc.` / `dram.` prefixes.
    #[must_use]
    pub fn collect_stats(&self) -> Stats {
        let inner = self.inner.borrow();
        let mut s = Stats::new();
        inner.llc.write_stats(&mut s, "llc.");
        inner.dram.write_stats(&mut s, "dram.");
        s
    }

    /// Number of distinct owners (cores) currently sharing this LLC.
    #[must_use]
    pub fn owners(&self) -> usize {
        Rc::strong_count(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> SharedLlc {
        SharedLlc::new(CacheConfig::llc(), DramConfig::ddr4_2400())
    }

    #[test]
    fn miss_then_hit_through_handle() {
        let s = shared();
        let a = s.access(0x8000, false, Cycle(0));
        assert_eq!(a.hit_level, Level::Dram);
        let b = s.access(0x8000, false, a.complete);
        assert_eq!(b.hit_level, Level::Llc);
    }

    #[test]
    fn clones_share_state() {
        let s = shared();
        let t = s.clone();
        s.access(0x4000, false, Cycle(0));
        let hit = t.access(0x4000, false, Cycle(500));
        assert_eq!(hit.hit_level, Level::Llc);
        assert_eq!(t.collect_stats().get("llc.hits"), 1);
        assert_eq!(s.owners(), 2);
    }

    #[test]
    fn contention_shows_in_bank_and_channel_times() {
        let s = shared();
        // Two "cores" slam the same cycle: completions serialize.
        let a = s.access(0x1_0000, false, Cycle(0));
        let b = s.access(0x2_0000, false, Cycle(0));
        assert!(b.complete > a.complete);
    }
}
