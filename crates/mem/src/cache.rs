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

/// One way of a set, in 24 bytes: the line address with the dirty flag
/// in its top bit (line addresses never reach it), the LRU stamp, and
/// when the fill that installed the line lands.
#[derive(Debug, Clone, Copy)]
struct TagEntry {
    word: u64,
    last_used: u64,
    fill_done: Cycle,
}

impl TagEntry {
    const DIRTY: u64 = 1 << 63;

    /// An empty way. Its line never matches a real one, and its LRU
    /// stamp of 0 is older than any valid way's, so the victim search
    /// picks the first empty way before evicting.
    const INVALID: Self = Self {
        word: u64::MAX,
        last_used: 0,
        fill_done: Cycle::ZERO,
    };

    fn is_valid(self) -> bool {
        self.word != u64::MAX
    }

    fn line(self) -> u64 {
        self.word & !Self::DIRTY
    }

    fn is_dirty(self) -> bool {
        self.word & Self::DIRTY != 0
    }
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
///
/// A resident line's tag holds its fill completion, so a hit reads it
/// there. A line evicted before its fill lands keeps that time in the
/// `evicted` table until it can no longer matter: a miss stamped
/// before the fill lands (O3 lookups are not time-ordered) coalesces
/// onto it.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    set_mask: u64,
    bank_mask: u64,
    ways: usize,
    /// `sets * ways` entries, set by set.
    tags: Vec<TagEntry>,
    banks: Vec<Cycle>,
    mshrs: Vec<Cycle>,
    /// Evicted lines whose fill may still be pending for some future
    /// lookup: line -> fill completion time.
    evicted: HashMap<u64, Cycle>,
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
        let ways = cfg.ways as usize;
        Self {
            set_mask: sets - 1,
            bank_mask: u64::from(cfg.banks) - 1,
            ways,
            tags: vec![TagEntry::INVALID; sets as usize * ways],
            banks: vec![Cycle::ZERO; cfg.banks as usize],
            mshrs: vec![Cycle::ZERO; cfg.mshrs as usize],
            evicted: HashMap::new(),
            use_clock: 0,
            cfg,
            ctr: Counters::new(),
        }
    }

    /// Rebuilds the level for `cfg` — every way invalid, banks and
    /// MSHRs idle — keeping its accumulated statistics: a reconfigured
    /// L2 still reports the traffic it served before.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CacheConfig::sets`]).
    pub fn reconfigure(&mut self, cfg: CacheConfig) {
        let ctr = std::mem::take(&mut self.ctr);
        *self = Self {
            ctr,
            ..Self::new(cfg)
        };
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

    /// The ways of `line`'s set.
    fn set_of(&mut self, line: u64) -> &mut [TagEntry] {
        let first = (line & self.set_mask) as usize * self.ways;
        &mut self.tags[first..first + self.ways]
    }

    /// Claims the line's bank from `now`, returning when the access can
    /// proceed (each access occupies its bank for one cycle).
    fn claim_bank(&mut self, line: u64, now: Cycle) -> Cycle {
        let bank = &mut self.banks[(line & self.bank_mask) as usize];
        let start = now.max(*bank);
        *bank = start + Cycle(1);
        start
    }

    /// Looks up `addr` at time `now`. On a hit the line's LRU state and
    /// dirtiness are updated. On a miss an MSHR is claimed (waiting for
    /// a free one if needed); the caller must call [`Cache::fill_slot`]
    /// with the claimed slot and the downstream completion time before
    /// its next lookup here.
    ///
    /// A miss to a line already in flight coalesces: reported as a miss
    /// with `ready` equal to the in-flight completion and zero MSHR
    /// cost; the caller must treat it as already handled downstream.
    pub fn lookup(&mut self, addr: u64, store: bool, now: Cycle) -> LevelOutcome {
        let line = line_of(addr);
        let start = self.claim_bank(line, now);
        let lookup_done = start + Cycle(self.cfg.hit_latency);
        self.use_clock += 1;
        let clock = self.use_clock;
        if let Some(entry) = self.set_of(line).iter_mut().find(|e| e.line() == line) {
            entry.last_used = clock;
            if store {
                entry.word |= TagEntry::DIRTY;
            }
            // A line whose fill is still in flight cannot deliver until
            // the fill lands.
            let ready = lookup_done.max(entry.fill_done);
            self.ctr.incr(Ctr::Hits);
            return LevelOutcome {
                hit: true,
                ready,
                mshr_wait: Cycle::ZERO,
                mshr_slot: None,
            };
        }
        self.ctr.incr(Ctr::Misses);
        if let Some(&fill_done) = self.evicted.get(&line) {
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
            // The old fill completed long ago: this is a fresh miss.
            self.evicted.remove(&line);
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
        self.mshrs[slot] = fill_done;
        self.use_clock += 1;
        let installed = TagEntry {
            word: if store { line | TagEntry::DIRTY } else { line },
            last_used: self.use_clock,
            fill_done,
        };
        // Install: prefer an invalid way, else evict true-LRU.
        let victim = self
            .set_of(line)
            .iter_mut()
            .min_by_key(|e| e.last_used)
            .expect("ways nonzero");
        let old = std::mem::replace(victim, installed);
        if !old.is_valid() {
            return None;
        }
        // Every later lookup of a line starts at or after its bank's
        // busy time, which never goes back: a fill landing within a hit
        // latency of it can no longer be coalesced onto.
        let (banks, mask, hit) = (&self.banks, self.bank_mask, Cycle(self.cfg.hit_latency));
        let pending = |line: u64, fill_done: Cycle| fill_done > banks[(line & mask) as usize] + hit;
        if pending(old.line(), old.fill_done) {
            // Drop what no longer matters before the table grows.
            if self.evicted.len() == self.evicted.capacity() {
                self.evicted.retain(|&line, &mut done| pending(line, done));
            }
            self.evicted.insert(old.line(), old.fill_done);
        }
        if !old.is_dirty() {
            return None;
        }
        self.ctr.incr(Ctr::Writebacks);
        Some(old.line())
    }

    /// Invalidates every line, returning `(clean, dirty)` line counts —
    /// the §V-E reconfiguration cost drivers.
    pub fn invalidate_all(&mut self) -> (u64, u64) {
        let mut clean = 0;
        let mut dirty = 0;
        for way in &mut self.tags {
            let e = std::mem::replace(way, TagEntry::INVALID);
            if e.is_valid() {
                if e.is_dirty() {
                    dirty += 1;
                } else {
                    clean += 1;
                }
            }
        }
        self.evicted.clear();
        (clean, dirty)
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> u64 {
        self.tags.iter().filter(|e| e.is_valid()).count() as u64
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
    fn reconfigure_resets_state_but_keeps_stats() {
        let mut c = small();
        miss_fill(&mut c, 0, true, Cycle(0), Cycle(900));
        assert!(c.lookup(0, false, Cycle(10)).hit);
        let mut wide = c.config().clone();
        wide.ways = 4;
        wide.size_bytes *= 2;
        c.reconfigure(wide.clone());
        assert_eq!(c.config(), &wide);
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.mshr_full_at(Cycle(0)));
        let fresh = c.lookup(0, false, Cycle(0));
        assert!(!fresh.hit);
        assert_eq!(fresh.ready, Cycle(2), "banks and MSHRs start idle");
        let s = c.stats();
        assert_eq!((s.get("hits"), s.get("misses")), (1, 2));
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

    /// The cache with one `line -> fill completion` map holding every
    /// line ever filled, probed on hits and misses alike: the timing
    /// semantics [`Cache`] must keep, as a differential oracle.
    struct Reference {
        cfg: CacheConfig,
        sets: u64,
        tags: Vec<Vec<Option<(u64, bool, u64)>>>,
        banks: Vec<Cycle>,
        mshrs: Vec<Cycle>,
        inflight: HashMap<u64, Cycle>,
        use_clock: u64,
        ctr: Counters<Ctr>,
    }

    impl Reference {
        fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.sets().unwrap();
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

        fn lookup(&mut self, addr: u64, store: bool, now: Cycle) -> LevelOutcome {
            let line = line_of(addr);
            let b = (line % u64::from(self.cfg.banks)) as usize;
            let start = now.max(self.banks[b]);
            self.banks[b] = start + Cycle(1);
            let set = (line % self.sets) as usize;
            self.use_clock += 1;
            let clock = self.use_clock;
            if let Some(e) = self.tags[set].iter_mut().flatten().find(|e| e.0 == line) {
                e.2 = clock;
                e.1 |= store;
                self.ctr.incr(Ctr::Hits);
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
                    self.ctr.incr(Ctr::MshrCoalesced);
                    return LevelOutcome {
                        hit: true,
                        ready: fill_done,
                        mshr_wait: Cycle::ZERO,
                        mshr_slot: None,
                    };
                }
                self.inflight.remove(&line);
            }
            let (slot, &free_at) = self
                .mshrs
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .unwrap();
            let issue = lookup_done.max(free_at);
            let wait = issue.saturating_since(lookup_done);
            self.ctr.add(Ctr::MshrWaitCycles, wait.0);
            self.mshrs[slot] = Cycle(u64::MAX);
            LevelOutcome {
                hit: false,
                ready: issue,
                mshr_wait: wait,
                mshr_slot: Some(slot),
            }
        }

        fn fill_slot(
            &mut self,
            addr: u64,
            store: bool,
            fill_done: Cycle,
            slot: usize,
        ) -> Option<u64> {
            let line = line_of(addr);
            let set = (line % self.sets) as usize;
            self.inflight.insert(line, fill_done);
            self.mshrs[slot] = fill_done;
            self.use_clock += 1;
            let clock = self.use_clock;
            let ways = &mut self.tags[set];
            let victim = match ways.iter().position(Option::is_none) {
                Some(i) => i,
                None => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.map_or(0, |t| t.2))
                    .map(|(i, _)| i)
                    .unwrap(),
            };
            let evicted = ways[victim].filter(|e| e.1).map(|e| e.0);
            ways[victim] = Some((line, store, clock));
            if evicted.is_some() {
                self.ctr.incr(Ctr::Writebacks);
            }
            evicted
        }

        fn invalidate_all(&mut self) -> (u64, u64) {
            let mut counts = (0, 0);
            for e in self.tags.iter_mut().flatten().filter_map(Option::take) {
                if e.1 {
                    counts.1 += 1;
                } else {
                    counts.0 += 1;
                }
            }
            self.inflight.clear();
            counts
        }

        fn resident_lines(&self) -> u64 {
            self.tags.iter().flatten().flatten().count() as u64
        }
    }

    /// Random streams over a few tiny geometries, driven the way the
    /// hierarchy drives a level: every miss is filled before the next
    /// lookup, its fill lands at a random later cycle, and `now`
    /// wanders backwards as an O3 core's lookups do. Lines get evicted
    /// before their fill lands and are missed again before it does, so
    /// the coalesce-onto-an-evicted-line path runs.
    #[test]
    fn matches_the_fill_map_reference_on_random_streams() {
        let mut coalesced = 0;
        for seed in 0..300u64 {
            let mut rng = eve_common::SplitMix64::new(seed);
            let sets = 2 << rng.below(2);
            let cfg = CacheConfig {
                name: "diff".into(),
                size_bytes: sets * 2 * 64,
                ways: 2,
                hit_latency: 1 + rng.below(3),
                mshrs: 1 + rng.below(3) as u32,
                banks: 1 << rng.below(2),
            };
            let lines = sets * 2 * (2 + rng.below(3));
            // Lookups that mostly run ahead of the banks, or queue
            // behind them.
            let drift = if rng.chance(0.5) { 24 } else { 16 };
            let mut dut = Cache::new(cfg.clone());
            let mut oracle = Reference::new(cfg);
            let mut now = 0u64;
            for step in 0..400 {
                now = (now + rng.below(drift)).saturating_sub(rng.below(20));
                let addr = rng.below(lines) * 64 + rng.below(64);
                let store = rng.chance(0.3);
                let at = Cycle(now);
                assert_eq!(
                    dut.mshr_full_at(at),
                    oracle.mshrs.iter().all(|&c| c > at),
                    "seed {seed} step {step}"
                );
                let got = dut.lookup(addr, store, at);
                assert_eq!(
                    got,
                    oracle.lookup(addr, store, at),
                    "seed {seed} step {step}"
                );
                if let Some(slot) = got.mshr_slot {
                    let span = if rng.chance(0.5) { 8 } else { 300 };
                    let done = got.ready + Cycle(rng.below(span));
                    assert_eq!(
                        dut.fill_slot(addr, store, done, slot),
                        oracle.fill_slot(addr, store, done, slot),
                        "seed {seed} step {step}"
                    );
                }
                if rng.chance(0.004) {
                    assert_eq!(dut.invalidate_all(), oracle.invalidate_all());
                }
                assert_eq!(dut.resident_lines(), oracle.resident_lines());
            }
            assert_eq!(dut.stats(), oracle.ctr.to_stats(), "seed {seed}");
            coalesced += dut.stats().get("mshr_coalesced");
        }
        assert!(coalesced > 100, "only {coalesced} coalesced misses");
    }
}
