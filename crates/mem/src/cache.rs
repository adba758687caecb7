//! One cache level: tags, LRU, banks, and MSHRs.

use crate::config::CacheConfig;
use crate::line_of;
use eve_common::{counter_slots, Counters, Cycle, Stats};
use std::collections::HashMap;

counter_slots! {
    enum Ctr {
        Hits => "hits",
        Misses => "misses",
        MshrCoalesced => "mshr_coalesced",
        MshrWaitCycles => "mshr_wait_cycles",
        Writebacks => "writebacks",
    }
}

#[derive(Debug, Clone, Copy)]
struct TagEntry {
    line: u64,
    dirty: bool,
    last_used: u64,
}

/// Outcome of a tag lookup plus resource accounting at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// When this level can deliver (hit) or start the downstream miss
    /// (miss): request time + bank wait + hit latency.
    pub ready: Cycle,
    /// Cycles spent waiting for a free MSHR (misses only).
    pub mshr_wait: Cycle,
    /// The MSHR slot this miss claimed; the caller must release it via
    /// [`Cache::fill_slot`].
    pub mshr_slot: Option<usize>,
}

/// One cache level.
///
/// The cache tracks *timing state* (tags, bank busy times, MSHR busy
/// times, in-flight fills) but no data — the functional interpreter
/// owns the bytes. This mirrors the paper's split between functional
/// execution and timing (§VII-A).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    tags: Vec<Vec<Option<TagEntry>>>,
    banks: Vec<Cycle>,
    mshrs: Vec<Cycle>,
    /// Lines currently being filled: line -> fill completion time.
    inflight: HashMap<u64, Cycle>,
    use_clock: u64,
    ctr: Counters<Ctr>,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (checked by presets and
    /// tests; see [`CacheConfig::sets`]).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets().expect("valid cache configuration");
        Self {
            tags: vec![vec![None; cfg.ways as usize]; sets as usize],
            banks: vec![Cycle::ZERO; cfg.banks as usize],
            mshrs: vec![Cycle::ZERO; cfg.mshrs as usize],
            inflight: HashMap::new(),
            use_clock: 0,
            sets,
            cfg,
            ctr: Counters::new(),
        }
    }

    /// The level's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics (`hits`, `misses`, `mshr_wait_cycles`,
    /// `writebacks`, ...).
    #[must_use]
    pub fn stats(&self) -> Stats {
        self.ctr.to_stats()
    }

    /// Adds the accumulated statistics to `stats`, each key under
    /// `prefix`.
    pub fn write_stats(&self, stats: &mut Stats, prefix: &str) {
        self.ctr.write_to(stats, prefix);
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets) as usize
    }

    fn bank_of(&self, line: u64) -> usize {
        (line % u64::from(self.cfg.banks)) as usize
    }

    /// Claims the line's bank from `now`, returning when the access can
    /// proceed (each access occupies its bank for one cycle).
    fn claim_bank(&mut self, line: u64, now: Cycle) -> Cycle {
        let b = self.bank_of(line);
        let start = now.max(self.banks[b]);
        self.banks[b] = start + Cycle(1);
        start
    }

    /// Looks up `addr` at time `now`. On a hit the line's LRU state and
    /// dirtiness are updated. On a miss an MSHR is claimed (waiting for
    /// a free one if needed); the caller must later call
    /// [`Cache::fill_slot`] with the claimed slot and the downstream
    /// completion time.
    ///
    /// A miss to a line already in flight coalesces: reported as a miss
    /// with `ready` equal to the in-flight completion and zero MSHR
    /// cost; the caller must treat it as already handled downstream.
    pub fn lookup(&mut self, addr: u64, store: bool, now: Cycle) -> LevelOutcome {
        let line = line_of(addr);
        let start = self.claim_bank(line, now);
        let set = self.set_of(line);
        self.use_clock += 1;
        let clock = self.use_clock;
        if let Some(entry) = self.tags[set].iter_mut().flatten().find(|e| e.line == line) {
            entry.last_used = clock;
            entry.dirty |= store;
            self.ctr.incr(Ctr::Hits);
            // A line whose fill is still in flight cannot deliver until
            // the fill lands.
            let pending = self.inflight.get(&line).copied().unwrap_or(Cycle::ZERO);
            return LevelOutcome {
                hit: true,
                ready: (start + Cycle(self.cfg.hit_latency)).max(pending),
                mshr_wait: Cycle::ZERO,
                mshr_slot: None,
            };
        }
        self.ctr.incr(Ctr::Misses);
        let lookup_done = start + Cycle(self.cfg.hit_latency);
        if let Some(&fill_done) = self.inflight.get(&line) {
            if fill_done > lookup_done {
                // Genuinely in flight: coalesce onto the pending fill.
                // Reported as a hit — this level supplies the data
                // when the outstanding fill lands, and the request
                // must not propagate downstream again.
                self.ctr.incr(Ctr::MshrCoalesced);
                return LevelOutcome {
                    hit: true,
                    ready: fill_done,
                    mshr_wait: Cycle::ZERO,
                    mshr_slot: None,
                };
            }
            // The old fill completed long ago (and the line has since
            // been evicted): this is a fresh miss.
            self.inflight.remove(&line);
        }
        // Claim the earliest-free MSHR; it stays held until `fill_slot`
        // releases it at the downstream completion time.
        let (slot, &free_at) = self
            .mshrs
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .expect("mshrs nonzero");
        let issue = lookup_done.max(free_at);
        let wait = issue.saturating_since(lookup_done);
        self.ctr.add(Ctr::MshrWaitCycles, wait.0);
        self.mshrs[slot] = Cycle(u64::MAX); // held until fill
        LevelOutcome {
            hit: false,
            ready: issue,
            mshr_wait: wait,
            mshr_slot: Some(slot),
        }
    }

    /// Whether a request arriving `now` would have to wait for an MSHR
    /// (used by vector memory units to count issue stalls without
    /// side effects).
    #[must_use]
    pub fn mshr_full_at(&self, now: Cycle) -> bool {
        self.mshrs.iter().all(|&c| c > now)
    }

    /// Completes a miss: installs `addr`'s line, releases the MSHR
    /// `slot` its [`Cache::lookup`] claimed at `fill_done`, and returns
    /// the evicted dirty line (if any) that must be written back
    /// downstream.
    pub fn fill_slot(
        &mut self,
        addr: u64,
        store: bool,
        fill_done: Cycle,
        slot: usize,
    ) -> Option<u64> {
        let line = line_of(addr);
        let set = self.set_of(line);
        self.inflight.insert(line, fill_done);
        self.mshrs[slot] = fill_done;
        self.use_clock += 1;
        let clock = self.use_clock;
        // Install: prefer an invalid way, else evict true-LRU.
        let ways = &mut self.tags[set];
        let victim = match ways.iter().position(Option::is_none) {
            Some(i) => i,
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.as_ref().map_or(0, |t| t.last_used))
                .map(|(i, _)| i)
                .expect("ways nonzero"),
        };
        let evicted = ways[victim].filter(|e| e.dirty).map(|e| e.line);
        ways[victim] = Some(TagEntry {
            line,
            dirty: store,
            last_used: clock,
        });
        if evicted.is_some() {
            self.ctr.incr(Ctr::Writebacks);
        }
        evicted
    }

    /// Invalidates every line, returning `(clean, dirty)` line counts —
    /// the §V-E reconfiguration cost drivers.
    pub fn invalidate_all(&mut self) -> (u64, u64) {
        let mut clean = 0;
        let mut dirty = 0;
        for set in &mut self.tags {
            for way in set.iter_mut() {
                if let Some(e) = way.take() {
                    if e.dirty {
                        dirty += 1;
                    } else {
                        clean += 1;
                    }
                }
            }
        }
        self.inflight.clear();
        (clean, dirty)
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> u64 {
        self.tags
            .iter()
            .map(|s| s.iter().flatten().count() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            name: "t".into(),
            size_bytes: 4 * 2 * 64, // 4 sets? no: sets = size/(ways*64) = 4
            ways: 2,
            hit_latency: 2,
            mshrs: 2,
            banks: 1,
        })
    }

    /// Looks `addr` up at `now` and, on a miss, fills it at `done`
    /// through the slot the miss claimed.
    fn miss_fill(c: &mut Cache, addr: u64, store: bool, now: Cycle, done: Cycle) -> Option<u64> {
        let out = c.lookup(addr, store, now);
        c.fill_slot(
            addr,
            store,
            done,
            out.mshr_slot.expect("a miss claims an MSHR"),
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let m = c.lookup(0x1000, false, Cycle(0));
        assert!(!m.hit);
        c.fill_slot(0x1000, false, Cycle(50), m.mshr_slot.unwrap());
        let h = c.lookup(0x1008, false, Cycle(60));
        assert!(h.hit);
        assert_eq!(h.ready, Cycle(62));
        assert_eq!(c.stats().get("hits"), 1);
        assert_eq!(c.stats().get("misses"), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // 4 sets; lines 0, 4, 8 map to set 0 (line % 4).
        for (i, line) in [0u64, 4, 8].iter().enumerate() {
            let addr = line * 64;
            miss_fill(
                &mut c,
                addr,
                false,
                Cycle(i as u64 * 10),
                Cycle(i as u64 * 10 + 5),
            );
        }
        // Line 0 (oldest) must be gone; 4 and 8 resident.
        assert!(!c.lookup(0, false, Cycle(100)).hit);
        assert!(c.lookup(4 * 64, false, Cycle(101)).hit);
        assert!(c.lookup(8 * 64, false, Cycle(102)).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        miss_fill(&mut c, 0, true, Cycle(0), Cycle(5));
        miss_fill(&mut c, 4 * 64, false, Cycle(10), Cycle(15));
        let evicted = miss_fill(&mut c, 8 * 64, false, Cycle(20), Cycle(25));
        assert_eq!(evicted, Some(0));
        assert_eq!(c.stats().get("writebacks"), 1);
    }

    #[test]
    fn mshr_exhaustion_delays() {
        let mut c = small();
        // Two MSHRs: the third simultaneous miss must wait.
        let a = c.lookup(0, false, Cycle(0));
        c.fill_slot(0, false, Cycle(100), a.mshr_slot.unwrap());
        let b = c.lookup(64, false, Cycle(0));
        c.fill_slot(64, false, Cycle(100), b.mshr_slot.unwrap());
        let third = c.lookup(128, false, Cycle(0));
        assert!(third.mshr_wait > Cycle::ZERO, "{third:?}");
        assert!(a.mshr_wait == Cycle::ZERO && b.mshr_wait == Cycle::ZERO);
        assert!(c.stats().get("mshr_wait_cycles") > 0);
    }

    #[test]
    fn second_access_to_inflight_line_waits_for_fill() {
        let mut c = small();
        miss_fill(&mut c, 0x40, false, Cycle(0), Cycle(80));
        // The line is tagged but its fill lands at 80: an access at
        // t=1 "hits" yet cannot complete before the data arrives.
        let co = c.lookup(0x48, false, Cycle(1));
        assert!(co.hit);
        assert_eq!(co.ready, Cycle(80));
        assert_eq!(co.mshr_wait, Cycle::ZERO);
        let h = c.lookup(0x40, false, Cycle(200));
        assert_eq!(h.ready, Cycle(202));
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut c = small();
        miss_fill(&mut c, 0, false, Cycle(0), Cycle(2));
        miss_fill(&mut c, 4 * 64, false, Cycle(10), Cycle(12));
        // Two hits in the same cycle to the single bank: second starts
        // a cycle later.
        let h1 = c.lookup(0, false, Cycle(20));
        let h2 = c.lookup(4 * 64, false, Cycle(20));
        assert_eq!(h1.ready, Cycle(22));
        assert_eq!(h2.ready, Cycle(23));
    }

    #[test]
    fn invalidate_counts_clean_and_dirty() {
        let mut c = small();
        miss_fill(&mut c, 0, true, Cycle(0), Cycle(2));
        miss_fill(&mut c, 64, false, Cycle(5), Cycle(7));
        assert_eq!(c.resident_lines(), 2);
        let (clean, dirty) = c.invalidate_all();
        assert_eq!((clean, dirty), (1, 1));
        assert_eq!(c.resident_lines(), 0);
    }
}
