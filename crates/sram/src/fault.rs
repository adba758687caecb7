//! Deterministic, seed-driven fault injection for the EVE SRAM.
//!
//! EVE computes inside live L2 ways, so a flipped cell or a glitched
//! sense amplifier during a bit-line compute silently corrupts
//! architectural vector state. This module models that failure class
//! at the two layers where §III's circuits actually touch bits:
//!
//! * **Bit-line compute (sense) layer** — the single-ended sense
//!   amplifiers mis-read an operand bit while two wordlines are
//!   asserted. The corrupted operand flows through the logic/add
//!   layers and is written back with *self-consistent* parity, so the
//!   array cannot detect it: a potential silent data corruption.
//! * **Writeback layer** — the bus-logic drivers (or the cell itself)
//!   corrupt a bit *after* the row's parity was generated, so the next
//!   μprogram read of that row sees a parity mismatch and raises an
//!   alarm.
//!
//! Three fault populations are supported, all drawn from one
//! [`SplitMix64`] stream so a `(seed, execution)` pair reproduces the
//! exact same corruptions on every run and every machine:
//!
//! * **Stuck-at cells** — sampled per cell at arm time with
//!   probability `stuck_rate`; the cell forces one bit to 0 or 1 on
//!   every write, forever (manufacturing defects, worn cells).
//! * **Random transients** — each writeback event (per lane) flips
//!   one random bit with probability `transient_write_rate`; each
//!   bit-line-compute operand read likewise with
//!   `transient_sense_rate` (particle strikes, droop glitches).
//! * **Scripted faults** — explicit [`Fault`] records scoped to a
//!   row, lane, bit, and cycle window, for targeted experiments and
//!   unit tests. Scripted transients fire at most once.

use eve_common::SplitMix64;

/// The circuit layer a scripted transient strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLayer {
    /// Operand corruption during a bit-line compute — undetectable by
    /// parity (the corrupt result is written back self-consistently).
    Sense,
    /// Corruption between parity generation and the cell latch —
    /// detectable on the next parity-checked read of the row.
    Writeback,
}

/// What a scripted fault does to its target bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The cell reads/writes 0 at the target bit on every write.
    StuckAt0,
    /// The cell reads/writes 1 at the target bit on every write.
    StuckAt1,
    /// A one-shot bit flip at `layer`, armed inside the cycle window.
    Transient(FaultLayer),
}

/// One scripted fault, scoped to a cell and a cycle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What happens to the bit.
    pub kind: FaultKind,
    /// Target logical row.
    pub row: u32,
    /// Target lane (column group).
    pub lane: u32,
    /// Bit position within the lane's `n`-bit segment.
    pub bit: u8,
    /// First μprogram cycle (inclusive) the fault is live.
    pub from_cycle: u64,
    /// Last μprogram cycle (inclusive) the fault is live.
    pub until_cycle: u64,
}

impl Fault {
    /// A permanently stuck cell (live on every cycle).
    #[must_use]
    pub fn stuck_at(row: u32, lane: u32, bit: u8, value: bool) -> Self {
        Self {
            kind: if value {
                FaultKind::StuckAt1
            } else {
                FaultKind::StuckAt0
            },
            row,
            lane,
            bit,
            from_cycle: 0,
            until_cycle: u64::MAX,
        }
    }

    /// A one-shot transient at `layer`, live in `[from, until]`.
    #[must_use]
    pub fn transient(
        layer: FaultLayer,
        row: u32,
        lane: u32,
        bit: u8,
        from: u64,
        until: u64,
    ) -> Self {
        Self {
            kind: FaultKind::Transient(layer),
            row,
            lane,
            bit,
            from_cycle: from,
            until_cycle: until,
        }
    }
}

/// Rates and scripted faults describing one injection campaign point.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for all random draws.
    pub seed: u64,
    /// Per-cell probability of a stuck bit, sampled once at arm time.
    pub stuck_rate: f64,
    /// Per-writeback-event, per-lane probability of one flipped bit.
    pub transient_write_rate: f64,
    /// Per-bit-line-compute operand, per-lane probability of one
    /// flipped bit.
    pub transient_sense_rate: f64,
    /// Explicit scripted faults.
    pub scripted: Vec<Fault>,
}

impl FaultConfig {
    /// A configuration that injects nothing (the zero-fault control).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            stuck_rate: 0.0,
            transient_write_rate: 0.0,
            transient_sense_rate: 0.0,
            scripted: Vec::new(),
        }
    }

    /// A uniform-rate configuration: `rate` for both transient layers
    /// and `rate / 10` for stuck cells (permanent faults are rarer
    /// than particle strikes).
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            stuck_rate: rate / 10.0,
            transient_write_rate: rate,
            transient_sense_rate: rate,
            scripted: Vec::new(),
        }
    }

    /// A writeback-transient-only configuration: single-bit flips in
    /// the cell/latch path at `rate`, sense amps and cells healthy.
    /// This is the population SECDED corrects completely — the CI
    /// resilience gate's zero-SDC sweep uses it.
    #[must_use]
    pub fn write_transients(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            stuck_rate: 0.0,
            transient_write_rate: rate,
            transient_sense_rate: 0.0,
            scripted: Vec::new(),
        }
    }

    /// True when no fault source is armed.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.stuck_rate == 0.0
            && self.transient_write_rate == 0.0
            && self.transient_sense_rate == 0.0
            && self.scripted.is_empty()
    }
}

/// Counters describing what an injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Stuck cells sampled at arm time (plus scripted stuck-ats).
    pub stuck_cells: u64,
    /// Writes where a stuck cell forced a bit away from its intended
    /// value (writes matching the stuck value are *masked*).
    pub stuck_perturbed_writes: u64,
    /// Random bit flips applied at the writeback layer.
    pub write_flips: u64,
    /// Random bit flips applied at the sense (bit-line compute) layer.
    pub sense_flips: u64,
    /// Scripted transients that fired.
    pub scripted_fired: u64,
}

impl FaultStats {
    /// Total corruption events of any kind.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.stuck_perturbed_writes + self.write_flips + self.sense_flips + self.scripted_fired
    }
}

/// A deterministic fault injector bound to one [`EveArray`].
///
/// Create one from a [`FaultConfig`], attach it with
/// [`crate::EveArray::attach_injector`], and read the damage back via
/// [`FaultInjector::stats`] after execution.
///
/// Every random draw depends only on the sequence of corruption
/// events, never on the data: a write or sense draws once per lane, in
/// ascending lane order, whether it arrives per lane
/// ([`Self::corrupt_write`], [`Self::corrupt_sense`]) or as whole
/// bit-planes ([`Self::corrupt_write_planes`],
/// [`Self::corrupt_sense_planes`]). Both forms therefore consume the
/// same RNG stream and make the same corruptions.
///
/// [`EveArray`]: crate::EveArray
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SplitMix64,
    /// Stuck-at-0 and stuck-at-1 bit-planes of the armed rows, laid out
    /// like `EveArray` storage: row `r`, bit `b`, word `w` lives at
    /// `(r * seg_bits + b) * words + w`. A cell has at most one stuck
    /// bit; rows past the armed ones (spares) have none.
    stuck0: Vec<u64>,
    stuck1: Vec<u64>,
    /// Armed array dimensions.
    rows: u32,
    lanes: u32,
    /// Packed words per bit-plane: `lanes.div_ceil(64)`.
    words: usize,
    /// Tracks which scripted transients already fired.
    fired: Vec<bool>,
    cycle: u64,
    seg_bits: u32,
    armed: bool,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector for `config`; call [`Self::arm`] (done by
    /// `attach_injector`) before use.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        let rng = SplitMix64::new(config.seed);
        let fired = vec![false; config.scripted.len()];
        Self {
            config,
            rng,
            stuck0: Vec::new(),
            stuck1: Vec::new(),
            rows: 0,
            lanes: 0,
            words: 0,
            fired,
            cycle: 0,
            seg_bits: 32,
            armed: false,
            stats: FaultStats::default(),
        }
    }

    /// Samples the stuck-cell population for an array of
    /// `rows × lanes` cells with `seg_bits`-bit segments. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics, naming the fault, if a scripted fault targets a bit at
    /// or above `seg_bits`, or a scripted stuck-at targets a cell
    /// outside the `rows × lanes` array.
    pub fn arm(&mut self, rows: u32, lanes: u32, seg_bits: u32) {
        if self.armed {
            return;
        }
        for f in &self.config.scripted {
            assert!(
                u32::from(f.bit) < seg_bits,
                "scripted fault {f:?}: bit {} is outside the {seg_bits}-bit segment",
                f.bit
            );
            assert!(
                matches!(f.kind, FaultKind::Transient(_)) || (f.row < rows && f.lane < lanes),
                "scripted fault {f:?}: cell outside the {rows}-row, {lanes}-lane array"
            );
        }
        self.armed = true;
        self.seg_bits = seg_bits;
        self.rows = rows;
        self.lanes = lanes;
        self.words = (lanes as usize).div_ceil(64);
        let len = rows as usize * seg_bits as usize * self.words;
        self.stuck0 = vec![0; len];
        self.stuck1 = vec![0; len];
        if self.config.stuck_rate > 0.0 {
            // Row-major scan with one Bernoulli draw per cell: the
            // sampled population depends only on (seed, dimensions).
            for row in 0..rows {
                for lane in 0..lanes {
                    if self.rng.chance(self.config.stuck_rate) {
                        let bit = self.rng.below(u64::from(seg_bits)) as u8;
                        let value = self.rng.chance(0.5);
                        self.set_stuck(row, lane, bit, value);
                    }
                }
            }
        }
        for f in self.config.scripted.clone() {
            match f.kind {
                FaultKind::StuckAt0 => self.set_stuck(f.row, f.lane, f.bit, false),
                FaultKind::StuckAt1 => self.set_stuck(f.row, f.lane, f.bit, true),
                FaultKind::Transient(_) => {}
            }
        }
    }

    /// Makes `bit` of cell `(row, lane)` stuck at `value`, replacing
    /// any stuck bit the cell already had.
    fn set_stuck(&mut self, row: u32, lane: u32, bit: u8, value: bool) {
        let (w, m) = (lane as usize / 64, 1u64 << (lane % 64));
        let base = row as usize * self.seg_bits as usize;
        let mut had = false;
        for b in 0..self.seg_bits as usize {
            let i = (base + b) * self.words + w;
            had |= (self.stuck0[i] | self.stuck1[i]) & m != 0;
            self.stuck0[i] &= !m;
            self.stuck1[i] &= !m;
        }
        let i = (base + usize::from(bit)) * self.words + w;
        if value {
            self.stuck1[i] |= m;
        } else {
            self.stuck0[i] |= m;
        }
        if !had {
            self.stats.stuck_cells += 1;
        }
    }

    /// Advances the μprogram cycle counter (one call per tuple).
    pub fn tick(&mut self) {
        self.cycle += 1;
    }

    /// The current μprogram cycle (for scripted windows).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The configuration this injector was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// What the injector has done so far.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Corrupts a value on its way into cell `(row, lane)` at the
    /// writeback layer. Parity for the row was already generated from
    /// the intended value, so any change here is detectable.
    #[must_use]
    pub fn corrupt_write(&mut self, row: u32, lane: u32, value: u32) -> u32 {
        let mut v = value;
        if let Some(bit) = self.draw_flip(self.config.transient_write_rate) {
            v ^= 1 << bit;
            self.stats.write_flips += 1;
        }
        self.fire_scripted(
            FaultLayer::Writeback,
            row,
            |l| l == lane,
            |_, bit| v ^= 1 << bit,
        );
        let (s0, s1) = self.stuck_lane(row, lane);
        let forced = (v & !s0) | s1;
        if forced != v {
            self.stats.stuck_perturbed_writes += 1;
        }
        forced
    }

    /// Corrupts an operand read by the bit-line compute layer. The
    /// downstream result is written back with consistent parity, so
    /// these faults are silent at the array level.
    #[must_use]
    pub fn corrupt_sense(&mut self, row: u32, lane: u32, value: u32) -> u32 {
        let mut v = value;
        if let Some(bit) = self.draw_flip(self.config.transient_sense_rate) {
            v ^= 1 << bit;
            self.stats.sense_flips += 1;
        }
        self.fire_scripted(
            FaultLayer::Sense,
            row,
            |l| l == lane,
            |_, bit| v ^= 1 << bit,
        );
        v
    }

    /// Bit-plane form of [`Self::corrupt_write`] for a whole row write.
    ///
    /// `planes` holds the row's `seg_bits` bit-planes of `sel.len()`
    /// words each (the `EveArray` storage layout), already carrying the
    /// intended values; `sel` selects the written lanes. The result is
    /// exactly what `corrupt_write` would make of each selected lane,
    /// called in ascending lane order: the same draws, flips, scripted
    /// firings and stats. Unselected lanes are left alone. Returns
    /// whether any bit may have changed (a flip, a fired transient or a
    /// perturbing stuck cell).
    pub fn corrupt_write_planes(&mut self, row: u32, sel: &[u64], planes: &mut [u64]) -> bool {
        let words = sel.len();
        debug_assert_eq!(planes.len(), self.seg_bits as usize * words);
        let mut changed = false;
        let rate = self.config.transient_write_rate;
        if rate > 0.0 {
            for_each_lane(sel, |w, m| {
                if let Some(bit) = self.draw_flip(rate) {
                    planes[bit as usize * words + w] ^= m;
                    self.stats.write_flips += 1;
                    changed = true;
                }
            });
        }
        changed |= self.fire_scripted(
            FaultLayer::Writeback,
            row,
            |l| lane_selected(sel, l),
            |l, bit| planes[usize::from(bit) * words + l as usize / 64] ^= 1 << (l % 64),
        );
        if self.stats.stuck_cells > 0 && row < self.rows {
            let base = row as usize * planes.len();
            for (w, &m) in sel.iter().enumerate() {
                let mut perturbed = 0u64;
                for b in 0..self.seg_bits as usize {
                    let i = b * words + w;
                    let s0 = self.stuck0[base + i] & m;
                    let s1 = self.stuck1[base + i] & m;
                    let v = planes[i];
                    perturbed |= (v & s0) | (!v & s1);
                    planes[i] = (v & !s0) | s1;
                }
                self.stats.stuck_perturbed_writes += u64::from(perturbed.count_ones());
                changed |= perturbed != 0;
            }
        }
        changed
    }

    /// Bit-plane form of [`Self::corrupt_sense`] for one bit-line
    /// compute: `pa` and `pb` hold the operand rows `ra` and `rb` as
    /// sensed. Each lane in `sel`, ascending, draws for `a` then for
    /// `b` — the call order of the per-lane form — so the stream and
    /// every flip match it exactly.
    pub fn corrupt_sense_planes(
        &mut self,
        ra: u32,
        rb: u32,
        sel: &[u64],
        pa: &mut [u64],
        pb: &mut [u64],
    ) {
        let words = sel.len();
        let rate = self.config.transient_sense_rate;
        if rate > 0.0 {
            for_each_lane(sel, |w, m| {
                for p in [&mut *pa, &mut *pb] {
                    if let Some(bit) = self.draw_flip(rate) {
                        p[bit as usize * words + w] ^= m;
                        self.stats.sense_flips += 1;
                    }
                }
            });
        }
        for (row, p) in [(ra, pa), (rb, pb)] {
            self.fire_scripted(
                FaultLayer::Sense,
                row,
                |l| lane_selected(sel, l),
                |l, bit| p[usize::from(bit) * words + l as usize / 64] ^= 1 << (l % 64),
            );
        }
    }

    /// One Bernoulli trial at `rate`; on a hit, the segment bit to
    /// flip. A zero rate draws nothing.
    fn draw_flip(&mut self, rate: f64) -> Option<u32> {
        if rate > 0.0 && self.rng.chance(rate) {
            Some(self.rng.below(u64::from(self.seg_bits)) as u32)
        } else {
            None
        }
    }

    /// The stuck-at-0 and stuck-at-1 bits of cell `(row, lane)` as
    /// segment masks.
    fn stuck_lane(&self, row: u32, lane: u32) -> (u32, u32) {
        if self.stats.stuck_cells == 0 || row >= self.rows || lane >= self.lanes {
            return (0, 0);
        }
        let (w, s) = (lane as usize / 64, lane % 64);
        let base = row as usize * self.seg_bits as usize;
        let (mut s0, mut s1) = (0u32, 0u32);
        for b in 0..self.seg_bits as usize {
            let i = (base + b) * self.words + w;
            s0 |= (((self.stuck0[i] >> s) & 1) as u32) << b;
            s1 |= (((self.stuck1[i] >> s) & 1) as u32) << b;
        }
        (s0, s1)
    }

    /// Fires every unfired scripted transient at `layer` on `row` that
    /// is live this cycle and whose lane `hits` accepts, calling
    /// `flip(lane, bit)` for each. Returns whether any fired.
    fn fire_scripted(
        &mut self,
        layer: FaultLayer,
        row: u32,
        hits: impl Fn(u32) -> bool,
        mut flip: impl FnMut(u32, u8),
    ) -> bool {
        let mut any = false;
        for (i, f) in self.config.scripted.iter().enumerate() {
            if self.fired[i]
                || f.kind != FaultKind::Transient(layer)
                || f.row != row
                || self.cycle < f.from_cycle
                || self.cycle > f.until_cycle
                || !hits(f.lane)
            {
                continue;
            }
            flip(f.lane, f.bit);
            self.fired[i] = true;
            self.stats.scripted_fired += 1;
            any = true;
        }
        any
    }
}

/// Calls `f(word, lane_bit)` for every lane set in `sel`, ascending.
#[inline]
fn for_each_lane(sel: &[u64], mut f: impl FnMut(usize, u64)) {
    for (w, &word) in sel.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let m = rest & rest.wrapping_neg();
            f(w, m);
            rest ^= m;
        }
    }
}

/// Whether lane `lane` is set in the lane mask `sel`.
#[inline]
fn lane_selected(sel: &[u64], lane: u32) -> bool {
    sel.get(lane as usize / 64)
        .is_some_and(|w| (w >> (lane % 64)) & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(config: FaultConfig) -> FaultInjector {
        let mut inj = FaultInjector::new(config);
        inj.arm(64, 8, 8);
        inj
    }

    #[test]
    fn zero_config_corrupts_nothing() {
        let mut inj = armed(FaultConfig::none(1));
        for row in 0..64 {
            for lane in 0..8 {
                assert_eq!(inj.corrupt_write(row, lane, 0xA5), 0xA5);
                assert_eq!(inj.corrupt_sense(row, lane, 0x5A), 0x5A);
            }
        }
        assert!(inj.config().is_zero());
        assert_eq!(inj.stats().total_events(), 0);
    }

    #[test]
    fn same_seed_same_corruptions() {
        let run = || {
            let mut inj = armed(FaultConfig::uniform(77, 0.05));
            let out: Vec<u32> = (0..2000)
                .map(|i| inj.corrupt_write(i % 64, i % 8, i.wrapping_mul(0x9E37)))
                .collect();
            (out, *inj.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = armed(FaultConfig::uniform(1, 0.05));
        let mut b = armed(FaultConfig::uniform(2, 0.05));
        let va: Vec<u32> = (0..2000).map(|i| a.corrupt_write(i % 64, 0, 0)).collect();
        let vb: Vec<u32> = (0..2000).map(|i| b.corrupt_write(i % 64, 0, 0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn stuck_cells_force_their_bit_on_every_write() {
        let mut cfg = FaultConfig::none(3);
        cfg.scripted.push(Fault::stuck_at(5, 2, 3, true));
        cfg.scripted.push(Fault::stuck_at(6, 1, 0, false));
        let mut inj = armed(cfg);
        assert_eq!(inj.corrupt_write(5, 2, 0x00), 0x08);
        assert_eq!(inj.corrupt_write(5, 2, 0x08), 0x08); // masked: no change
        assert_eq!(inj.corrupt_write(6, 1, 0xFF), 0xFE);
        assert_eq!(inj.corrupt_write(7, 7, 0xAA), 0xAA); // other cells clean
        assert_eq!(inj.stats().stuck_perturbed_writes, 2);
        assert_eq!(inj.stats().stuck_cells, 2);
    }

    #[test]
    fn scripted_transient_fires_once_inside_its_window() {
        let mut cfg = FaultConfig::none(4);
        cfg.scripted
            .push(Fault::transient(FaultLayer::Writeback, 9, 0, 4, 10, 20));
        let mut inj = armed(cfg);
        // Before the window: clean.
        assert_eq!(inj.corrupt_write(9, 0, 0), 0);
        for _ in 0..15 {
            inj.tick();
        }
        // Inside the window: flips bit 4, exactly once.
        assert_eq!(inj.corrupt_write(9, 0, 0), 0x10);
        assert_eq!(inj.corrupt_write(9, 0, 0), 0);
        assert_eq!(inj.stats().scripted_fired, 1);
    }

    #[test]
    fn sense_and_writeback_layers_are_independent() {
        let mut cfg = FaultConfig::none(5);
        cfg.scripted
            .push(Fault::transient(FaultLayer::Sense, 3, 1, 0, 0, u64::MAX));
        let mut inj = armed(cfg);
        // A sense-layer fault never perturbs writes.
        assert_eq!(inj.corrupt_write(3, 1, 6), 6);
        assert_eq!(inj.corrupt_sense(3, 1, 6), 7);
    }

    #[test]
    #[should_panic(expected = "bit 30 is outside the 8-bit segment")]
    fn arm_rejects_a_scripted_bit_outside_the_segment() {
        let mut cfg = FaultConfig::none(0);
        cfg.scripted.push(Fault::stuck_at(4, 0, 30, true));
        let _ = armed(cfg);
    }

    #[test]
    #[should_panic(expected = "cell outside the 64-row, 8-lane array")]
    fn arm_rejects_a_stuck_cell_outside_the_array() {
        let mut cfg = FaultConfig::none(0);
        cfg.scripted.push(Fault::stuck_at(2, 8, 0, false));
        let _ = armed(cfg);
    }

    /// Lane `lane`'s segment out of bit-planes of `words` words each.
    fn lane_value(planes: &[u64], words: usize, lane: u32) -> u32 {
        let (w, s) = (lane as usize / 64, lane % 64);
        (0..planes.len() / words).fold(0, |v, b| {
            v | (((planes[b * words + w] >> s) & 1) as u32) << b
        })
    }

    /// Per-lane values packed into `bits` bit-planes of `words` words.
    fn pack(values: &[u32], bits: u32, words: usize) -> Vec<u64> {
        let mut planes = vec![0u64; bits as usize * words];
        for (lane, &v) in values.iter().enumerate() {
            for b in 0..bits as usize {
                planes[b * words + lane / 64] |= u64::from((v >> b) & 1) << (lane % 64);
            }
        }
        planes
    }

    /// Twin injectors from one config, one taking the plane calls and
    /// one the per-lane calls for each selected lane in ascending order
    /// (`a` then `b` for senses), must agree on every value and stat
    /// after every call, and on 1,000 further per-lane calls — their
    /// RNG streams stay aligned.
    #[test]
    fn plane_calls_match_per_lane_calls() {
        const ROWS: u32 = 6;
        const BITS: u32 = 8;
        let mut rng = SplitMix64::new(0x91A7E);
        let mut overrides = 0;
        for lanes in [1u32, 63, 64, 67, 130] {
            let words = (lanes as usize).div_ceil(64);
            let full: Vec<u64> = (0..words)
                .map(|w| match lanes as usize - w * 64 {
                    n if n >= 64 => u64::MAX,
                    n => (1 << n) - 1,
                })
                .collect();
            for rate in [0.0, 1e-3, 0.3] {
                let mut cfg = FaultConfig {
                    stuck_rate: if rate > 0.0 { 0.05 } else { 0.0 },
                    ..FaultConfig::uniform(rng.next_u64(), rate)
                };
                let last = lanes - 1;
                cfg.scripted.push(Fault::transient(
                    FaultLayer::Writeback,
                    1,
                    last,
                    3,
                    0,
                    u64::MAX,
                ));
                cfg.scripted
                    .push(Fault::transient(FaultLayer::Sense, 2, last, 5, 0, u64::MAX));
                cfg.scripted
                    .push(Fault::transient(FaultLayer::Sense, 3, 0, 1, 9, u64::MAX));
                // A scripted stuck-at on a sampled cell replaces it.
                let mut probe = FaultInjector::new(cfg.clone());
                probe.arm(ROWS, lanes, BITS);
                let sampled = (0..ROWS)
                    .flat_map(|row| (0..lanes).map(move |lane| (row, lane)))
                    .find(|&(row, lane)| probe.stuck_lane(row, lane) != (0, 0));
                if let Some((row, lane)) = sampled {
                    let (s0, s1) = probe.stuck_lane(row, lane);
                    let bit = ((s0 | s1).trailing_zeros() + 1) % BITS;
                    cfg.scripted
                        .push(Fault::stuck_at(row, lane, bit as u8, s1 == 0));
                    overrides += 1;
                }
                let twin = || {
                    let mut inj = FaultInjector::new(cfg.clone());
                    inj.arm(ROWS, lanes, BITS);
                    inj
                };
                let (mut by_plane, mut by_lane) = (twin(), twin());
                assert_eq!(by_plane.stats().stuck_cells, probe.stats().stuck_cells);
                for step in 0..40u32 {
                    let ctx = format!("lanes {lanes} rate {rate} step {step}");
                    by_plane.tick();
                    by_lane.tick();
                    let sel: Vec<u64> = if step % 5 < 2 {
                        full.clone()
                    } else {
                        full.iter().map(|&m| rng.next_u64() & m).collect()
                    };
                    let values = |rng: &mut SplitMix64| -> Vec<u32> {
                        (0..lanes).map(|_| rng.next_u32() & 0xFF).collect()
                    };
                    if step % 2 == 0 {
                        let row = if step == 0 {
                            1
                        } else {
                            rng.below(u64::from(ROWS)) as u32
                        };
                        let v = values(&mut rng);
                        let mut planes = pack(&v, BITS, words);
                        let _ = by_plane.corrupt_write_planes(row, &sel, &mut planes);
                        for lane in 0..lanes {
                            let want = if lane_selected(&sel, lane) {
                                by_lane.corrupt_write(row, lane, v[lane as usize])
                            } else {
                                v[lane as usize]
                            };
                            assert_eq!(lane_value(&planes, words, lane), want, "{ctx} lane {lane}");
                        }
                    } else {
                        // Step 1 senses one row as both operands.
                        let ra = if step == 1 {
                            2
                        } else {
                            rng.below(u64::from(ROWS)) as u32
                        };
                        let rb = if step % 3 == 1 {
                            ra
                        } else {
                            rng.below(u64::from(ROWS)) as u32
                        };
                        let (va, vb) = (values(&mut rng), values(&mut rng));
                        let (mut pa, mut pb) = (pack(&va, BITS, words), pack(&vb, BITS, words));
                        by_plane.corrupt_sense_planes(ra, rb, &sel, &mut pa, &mut pb);
                        for lane in 0..lanes {
                            let (mut a, mut b) = (va[lane as usize], vb[lane as usize]);
                            if lane_selected(&sel, lane) {
                                a = by_lane.corrupt_sense(ra, lane, a);
                                b = by_lane.corrupt_sense(rb, lane, b);
                            }
                            assert_eq!(lane_value(&pa, words, lane), a, "{ctx} a lane {lane}");
                            assert_eq!(lane_value(&pb, words, lane), b, "{ctx} b lane {lane}");
                        }
                    }
                    assert_eq!(by_plane.stats(), by_lane.stats(), "{ctx}");
                }
                assert!(by_plane.stats().scripted_fired > 0);
                for i in 0..1000u32 {
                    let (row, lane, v) = (i % ROWS, i % lanes, i.wrapping_mul(0x9E37) & 0xFF);
                    assert_eq!(
                        by_plane.corrupt_write(row, lane, v),
                        by_lane.corrupt_write(row, lane, v)
                    );
                    assert_eq!(
                        by_plane.corrupt_sense(row, lane, v),
                        by_lane.corrupt_sense(row, lane, v)
                    );
                }
                assert_eq!(by_plane.stats(), by_lane.stats());
            }
        }
        assert!(
            overrides > 0,
            "no scripted stuck-at overrode a sampled cell"
        );
    }

    #[test]
    fn stuck_population_scales_with_rate() {
        let small = armed(FaultConfig {
            stuck_rate: 0.01,
            ..FaultConfig::none(9)
        });
        let large = armed(FaultConfig {
            stuck_rate: 0.2,
            ..FaultConfig::none(9)
        });
        assert!(small.stats().stuck_cells < large.stats().stuck_cells);
        assert!(large.stats().stuck_cells > 0);
    }
}
