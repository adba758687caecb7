//! The bit-accurate EVE SRAM array and μprogram executor.
//!
//! [`EveArray`] models one array's storage *and* the peripheral circuit
//! stacks of §III at bit granularity. The lane dimension is *bitsliced*:
//! bit `b` of every lane's segment lives in one packed bit-plane of
//! `lanes/64` words, so a μop that touches all lanes becomes a handful
//! of word-wide boolean ops instead of a per-lane loop. The Manchester
//! carry chain turns into the word-parallel carry recurrence
//! `carry' = (a & b) | (carry & (a ^ b))` evaluated once per bit
//! position. See DESIGN.md, "Lane-bitsliced data layout".
//!
//! The executor runs complete μprograms: [`eve_uop::walk`] sequences
//! the counter and control μops like the VSU, and each arithmetic μop
//! acts on the cells like the circuits. One tuple takes one cycle,
//! every μop in a tuple reads start-of-cycle state, and only the fused
//! control μop observes its counter update.
//!
//! An attached `FaultInjector` keeps the same word-parallel data path.
//! Row writes blend whole bit-planes, derive the check planes (parity
//! or SECDED) from the intended values, and hand the row to
//! [`FaultInjector::corrupt_write_planes`]; bit-line computes hand both
//! sensed operands to [`FaultInjector::corrupt_sense_planes`]. The
//! injector still draws once per selected lane in ascending order —
//! the scalar reference executor's ([`crate::scalar`]) call order — so
//! its RNG stream, and every campaign artifact, is unchanged. Checks
//! are word-parallel too, and only rows the injector has changed since
//! their last clean check (suspect rows) are checked at all.

use crate::ecc::{SecdedCode, SecdedVerdict};
use crate::fault::FaultInjector;
use crate::geometry::DEFAULT_SPARE_ROWS;
use eve_common::bits::{deposit_bits, extract_bits};
use eve_common::Cycle;
use eve_uop::{
    ArithUop, CarryIn, ComputeSrc, CounterFile, HybridConfig, MaskSrc, MicroProgram, Operand,
    SegSel, VSlot, WbDest,
};

/// Number of architectural vector registers (RVV: `v0`–`v31`).
pub const ARCH_VREGS: u32 = 32;
/// Scratch registers reserved for μprograms (see `eve_uop::library`).
pub const SCRATCH_VREGS: u32 = 6;

/// Lanes per packed storage word.
const WORD_BITS: usize = 64;

/// How an attached injector's detection machinery checks rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionMode {
    /// Per-row interleaved parity (PR 1): detects writeback-layer
    /// corruption, corrects nothing.
    Parity,
    /// Hamming-plus-parity SECDED per lane segment: single-bit faults
    /// corrected in place on the read port, double-bit faults flagged
    /// uncorrectable. The check runs word-parallel on syndrome planes.
    Secded,
}

/// What one background scrub pass over the array found and fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct ScrubStats {
    /// Logical rows scanned.
    pub rows: u64,
    /// Single-bit errors corrected in place (SECDED only).
    pub corrected: u64,
    /// Errors detected but not correctable (parity mismatches, or
    /// SECDED double-bit syndromes).
    pub uncorrectable: u64,
}

/// Binds the abstract μprogram slots to physical vector registers.
///
/// # Examples
///
/// ```
/// use eve_sram::Binding;
/// let b = Binding::new(3, 1, 2); // d = v3, s1 = v1, s2 = v2
/// assert_eq!(b.d(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    d: u8,
    s1: u8,
    s2: u8,
}

impl Binding {
    /// Binds destination and sources. The RVV mask register is always
    /// `v0`.
    ///
    /// # Panics
    ///
    /// Panics if any register index is 32 or above.
    #[must_use]
    pub fn new(d: u8, s1: u8, s2: u8) -> Self {
        assert!(
            u32::from(d) < ARCH_VREGS && u32::from(s1) < ARCH_VREGS && u32::from(s2) < ARCH_VREGS,
            "register index out of range"
        );
        Self { d, s1, s2 }
    }

    /// Destination register index.
    #[must_use]
    pub fn d(&self) -> u8 {
        self.d
    }

    /// First source register index.
    #[must_use]
    pub fn s1(&self) -> u8 {
        self.s1
    }

    /// Second source register index.
    #[must_use]
    pub fn s2(&self) -> u8 {
        self.s2
    }
}

/// Fault-injection state: the attached injector plus the detection
/// machinery (per-row parity or SECDED check planes) and the
/// spare-row remap table the recovery ladder drives.
#[derive(Debug, Clone)]
struct FaultState {
    inj: FaultInjector,
    mode: DetectionMode,
    /// Odd-parity planes, one of `words` words per physical row: lane
    /// `l`'s bit is the parity of its intended value (the XOR of the
    /// row's bit-planes), generated at write time *before* the
    /// writeback layer can corrupt the latch. Parity mode only.
    parity: Vec<u64>,
    /// SECDED check-bit planes, `phys_rows * check_bits * words`
    /// packed words, generated from intended values at write time.
    /// Layout mirrors `storage`: plane `j` of physical row `r` starts
    /// at `(r * check_bits + j) * words`. Secded mode only.
    check: Vec<u64>,
    /// The per-segment SECDED code (Secded mode).
    code: SecdedCode,
    /// Syndrome scratch planes (`check_bits * words`), reused per
    /// checked row — no per-check allocation.
    scr_s: Vec<u64>,
    /// Per physical row: the injector has changed a stored bit since
    /// the row's last clean check. A row that is not suspect still
    /// matches its check bits, so checks skip it.
    suspect: Vec<bool>,
    /// Remap table: logical row → physical row. Identity until the
    /// recovery controller retires rows to spares.
    remap: Vec<usize>,
    /// Spare rows handed out so far.
    spares_used: usize,
    /// Rows retired to spares over the array's lifetime.
    remapped: u64,
    /// Per-logical-row count of detection/correction events since the
    /// last remap of that row — the "this row keeps faulting" signal
    /// the remap stage keys off.
    row_events: Vec<u64>,
    /// Uncorrectable detections (parity mismatches, SECDED double-bit
    /// syndromes) observed on μprogram reads.
    alarms: u64,
    /// SECDED single-bit errors corrected in place.
    corrected: u64,
}

#[inline]
fn odd_parity(v: u32) -> bool {
    v.count_ones() & 1 == 1
}

/// The XOR of packed word `w` over every bit-plane of a row (`planes`,
/// `words` words per plane): each live lane's odd parity.
#[inline]
fn xor_planes(planes: &[u64], words: usize, w: usize) -> u64 {
    let mut p = 0;
    let mut i = w;
    while i < planes.len() {
        p ^= planes[i];
        i += words;
    }
    p
}

/// SECDED check planes for packed word `w` of a row's bit-planes,
/// handed to `put(j, plane)` in order: Hamming check `j` (the XOR of
/// its [`SecdedCode::group_mask`] planes) for `j < hamming_bits`, then
/// the overall parity over the data and Hamming planes.
#[inline(always)]
fn secded_word(
    code: &SecdedCode,
    planes: &[u64],
    words: usize,
    w: usize,
    mut put: impl FnMut(usize, u64),
) {
    let r = code.hamming_bits() as usize;
    let mut overall = xor_planes(planes, words, w);
    for j in 0..r {
        let mut c = 0u64;
        let mut g = code.group_mask(j as u32);
        while g != 0 {
            c ^= planes[g.trailing_zeros() as usize * words + w];
            g &= g - 1;
        }
        overall ^= c;
        put(j, c);
    }
    put(r, overall);
}

impl FaultState {
    /// Word-parallel check-bit generation for physical row `phys` from
    /// `planes` (its bit-planes), for the lanes set in `sel`.
    fn encode(&mut self, phys: usize, sel: &[u64], planes: &[u64]) {
        let words = sel.len();
        match self.mode {
            DetectionMode::Parity => {
                for (w, &m) in sel.iter().enumerate() {
                    let i = phys * words + w;
                    self.parity[i] = blend(self.parity[i], xor_planes(planes, words, w), m);
                }
            }
            DetectionMode::Secded => {
                let cb = self.code.check_bits() as usize;
                let chk = &mut self.check[phys * cb * words..(phys + 1) * cb * words];
                for (w, &m) in sel.iter().enumerate() {
                    secded_word(&self.code, planes, words, w, |j, c| {
                        chk[j * words + w] = blend(chk[j * words + w], c, m);
                    });
                }
            }
        }
    }

    /// Live lanes of physical row `phys` whose stored parity disagrees
    /// with `planes`, the row's bit-planes.
    fn parity_mismatches(&self, phys: usize, planes: &[u64], full: &[u64]) -> u64 {
        let words = full.len();
        full.iter()
            .enumerate()
            .map(|(w, &live)| {
                let p = self.parity[phys * words + w] ^ xor_planes(planes, words, w);
                u64::from((p & live).count_ones())
            })
            .sum()
    }

    /// Fills `scr_s` with physical row `phys`'s SECDED syndrome planes
    /// against `planes` and returns whether any live lane's syndrome is
    /// nonzero. Each syndrome is a stored check plane XORed with the
    /// recomputed one; the overall one also folds in every Hamming
    /// syndrome, which makes it the parity of the whole received
    /// codeword.
    fn syndromes(&mut self, phys: usize, planes: &[u64], full: &[u64]) -> bool {
        let words = full.len();
        let r = self.code.hamming_bits() as usize;
        let cb = r + 1;
        let chk = &self.check[phys * cb * words..(phys + 1) * cb * words];
        let scr = &mut self.scr_s;
        let mut dirty = false;
        for (w, &live) in full.iter().enumerate() {
            let (mut any, mut hamming) = (0u64, 0u64);
            secded_word(&self.code, planes, words, w, |j, c| {
                let mut s = chk[j * words + w] ^ c;
                if j < r {
                    hamming ^= s;
                } else {
                    s ^= hamming;
                }
                scr[j * words + w] = s;
                any |= s;
            });
            dirty |= any & live != 0;
        }
        dirty
    }
}

/// Gathers one lane's segment value out of a bit-plane group
/// (`bits` planes of `words` words each).
#[inline]
fn lane_get(planes: &[u64], words: usize, bits: usize, lane: usize) -> u32 {
    let (w, s) = (lane / WORD_BITS, lane % WORD_BITS);
    let mut v = 0u32;
    for b in 0..bits {
        v |= (((planes[b * words + w] >> s) & 1) as u32) << b;
    }
    v
}

/// Scatters one lane's segment value into a bit-plane group.
#[inline]
fn lane_set(planes: &mut [u64], words: usize, bits: usize, lane: usize, value: u32) {
    let (w, s) = (lane / WORD_BITS, lane % WORD_BITS);
    let m = 1u64 << s;
    for b in 0..bits {
        let i = b * words + w;
        if (value >> b) & 1 == 1 {
            planes[i] |= m;
        } else {
            planes[i] &= !m;
        }
    }
}

/// One lane's bit of a single-plane latch (mask, carry, spare).
#[inline]
fn word_bit(plane: &[u64], lane: usize) -> bool {
    (plane[lane / WORD_BITS] >> (lane % WORD_BITS)) & 1 == 1
}

/// Mask-gated blend: lanes set in `m` take `src`, the rest keep `dst`.
#[inline]
fn blend(dst: u64, src: u64, m: u64) -> u64 {
    dst ^ ((dst ^ src) & m)
}

/// Latched outputs of the last bit-line compute, as lane bit-planes.
///
/// Only the positive-polarity layers are stored; `nand`/`nor`/`xnor`
/// are exact complements over the live lanes and are derived at read
/// time. `valid` is false until the first `blc`, when every source
/// (including the complements) must still read as zero — matching the
/// scalar latch's empty state.
#[derive(Debug, Clone, Default)]
struct BlcLatch {
    and: Vec<u64>,
    or: Vec<u64>,
    xor: Vec<u64>,
    sum: Vec<u64>,
    valid: bool,
}

/// One bit-accurate EVE SRAM array, lane-bitsliced.
///
/// Rows are addressed logically: register `v` occupies rows
/// `v * segments .. (v+1) * segments`, architectural registers first,
/// then the μprogram scratch registers. (Physically registers beyond a
/// column group's capacity spill into repurposed column stacks — see
/// DESIGN.md; the logical view is bit- and cycle-equivalent.)
///
/// Storage layout: row `r`, bit `b`, word `w` lives at
/// `storage[(r * bits + b) * words + w]`; bit `l % 64` of that word is
/// lane `w * 64 + l`'s bit `b`. Bits at positions `>= lanes` in the
/// last word of every plane are kept zero (the tail invariant), so
/// complements are computed as `x ^ full[w]` against the live-lane
/// mask rather than `!x`.
#[derive(Debug, Clone)]
pub struct EveArray {
    cfg: HybridConfig,
    lanes: usize,
    rows: usize,
    /// Spare rows fabricated past `rows`, reachable only through the
    /// remap table (mirrors `SramGeometry`'s repair budget).
    spare_rows: usize,
    /// Bits per segment (planes per row).
    bits: usize,
    /// Packed words per bit-plane: `lanes.div_ceil(64)`.
    words: usize,
    seg_mask: u32,
    /// Live-lane mask per word (all ones except the tail of the last
    /// word).
    full: Vec<u64>,
    /// Row bit-planes: `rows * bits * words` packed words.
    storage: Vec<u64>,
    /// XRegister bit-planes (`bits * words`).
    xreg: Vec<u64>,
    /// Constant shifter bit-planes (`bits * words`).
    shifter: Vec<u64>,
    /// Add-logic carry, one bit per lane (§III-C spare-shifter FF).
    carry: Vec<u64>,
    /// Mask latches, one bit per lane.
    mask: Vec<u64>,
    /// Spare shifter's cross-segment bit per lane.
    spare: Vec<u64>,
    /// Latched outputs of the last `blc`.
    blc: BlcLatch,
    /// Data driven out by the last `Read` μop.
    data_out: Vec<u32>,
    /// Data presented on the data-in port for `WriteDataIn`.
    data_in: Vec<u32>,
    /// Fault injection and parity tracking; `None` in healthy runs so
    /// the hot path pays nothing.
    fault: Option<FaultState>,
    /// Scratch planes for armed arrays' sensed operands (reused across
    /// cycles — no per-cycle allocation).
    scr_a: Vec<u64>,
    scr_b: Vec<u64>,
    /// Scratch word-plane for shifter rotations.
    scr_c: Vec<u64>,
}

impl EveArray {
    /// Creates an array for configuration `cfg` with `lanes` column
    /// groups, zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub fn new(cfg: HybridConfig, lanes: usize) -> Self {
        assert!(lanes > 0, "an array needs at least one lane");
        let segs = cfg.segments() as usize;
        let rows = (ARCH_VREGS + SCRATCH_VREGS) as usize * segs;
        let bits = cfg.segment_bits() as usize;
        let seg_mask = if bits == 32 {
            u32::MAX
        } else {
            (1 << bits) - 1
        };
        let words = lanes.div_ceil(WORD_BITS);
        let mut full = vec![u64::MAX; words];
        let tail = lanes % WORD_BITS;
        if tail != 0 {
            full[words - 1] = (1u64 << tail) - 1;
        }
        let plane = bits * words;
        let spare_rows = DEFAULT_SPARE_ROWS as usize;
        Self {
            cfg,
            lanes,
            rows,
            spare_rows,
            bits,
            words,
            seg_mask,
            full,
            storage: vec![0; (rows + spare_rows) * plane],
            xreg: vec![0; plane],
            shifter: vec![0; plane],
            carry: vec![0; words],
            mask: vec![0; words],
            spare: vec![0; words],
            blc: BlcLatch {
                and: vec![0; plane],
                or: vec![0; plane],
                xor: vec![0; plane],
                sum: vec![0; plane],
                valid: false,
            },
            data_out: vec![0; lanes],
            data_in: vec![0; lanes],
            fault: None,
            scr_a: vec![0; plane],
            scr_b: vec![0; plane],
            scr_c: vec![0; words],
        }
    }

    /// Packed words per bit-plane group of one row.
    #[inline]
    fn plane_len(&self) -> usize {
        self.bits * self.words
    }

    /// Index range of `row`'s bit-planes in `storage`.
    #[inline]
    fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        let pl = self.plane_len();
        row * pl..(row + 1) * pl
    }

    /// Attaches a fault injector with parity detection (PR 1
    /// behavior): the current contents get fresh parity, and every
    /// later write regenerates its row's parity from the intended
    /// value.
    pub fn attach_injector(&mut self, inj: FaultInjector) {
        self.attach_injector_with(inj, DetectionMode::Parity);
    }

    /// Attaches a fault injector with an explicit detection mode.
    ///
    /// In [`DetectionMode::Secded`], every row grows per-lane SECDED
    /// check bits generated from intended values; μprogram reads run a
    /// word-parallel syndrome check that corrects single-bit faults in
    /// place and flags double-bit faults uncorrectable.
    ///
    /// The injector is armed over the *addressable* rows only: spare
    /// rows model the fuse-tested-good redundancy real macros ship, so
    /// the stuck-cell population (and hence the RNG stream) is
    /// identical to the scalar reference executor's.
    pub fn attach_injector_with(&mut self, mut inj: FaultInjector, mode: DetectionMode) {
        inj.arm(self.rows as u32, self.lanes as u32, self.cfg.segment_bits());
        let words = self.words;
        let pl = self.plane_len();
        let phys_rows = self.rows + self.spare_rows;
        let code = SecdedCode::new(self.bits as u32);
        let cb = code.check_bits() as usize;
        let (parity, check) = match mode {
            DetectionMode::Parity => (vec![0u64; phys_rows * words], Vec::new()),
            DetectionMode::Secded => (Vec::new(), vec![0u64; phys_rows * cb * words]),
        };
        let mut f = FaultState {
            inj,
            mode,
            parity,
            check,
            code,
            scr_s: vec![0u64; cb * words],
            suspect: vec![false; phys_rows],
            remap: (0..self.rows).collect(),
            spares_used: 0,
            remapped: 0,
            row_events: vec![0; self.rows],
            alarms: 0,
            corrected: 0,
        };
        for phys in 0..phys_rows {
            f.encode(phys, &self.full, &self.storage[phys * pl..(phys + 1) * pl]);
        }
        self.fault = Some(f);
    }

    /// Detaches and returns the injector, switching detection off.
    pub fn detach_injector(&mut self) -> Option<FaultInjector> {
        self.fault.take().map(|f| f.inj)
    }

    /// The attached injector, if any.
    #[must_use]
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref().map(|f| &f.inj)
    }

    /// The active detection mode, if an injector is attached.
    #[must_use]
    pub fn detection_mode(&self) -> Option<DetectionMode> {
        self.fault.as_ref().map(|f| f.mode)
    }

    /// Uncorrectable detections (parity mismatches or SECDED
    /// double-bit syndromes) observed on μprogram reads so far.
    #[must_use]
    pub fn parity_alarms(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.alarms)
    }

    /// Returns and clears the uncorrectable-alarm counter (the
    /// recovery controller's acknowledge).
    pub fn take_parity_alarms(&mut self) -> u64 {
        match &mut self.fault {
            Some(f) => std::mem::take(&mut f.alarms),
            None => 0,
        }
    }

    /// SECDED single-bit errors corrected in place so far.
    #[must_use]
    pub fn corrected_events(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.corrected)
    }

    /// Returns and clears the corrected-error counter.
    pub fn take_corrected_events(&mut self) -> u64 {
        match &mut self.fault {
            Some(f) => std::mem::take(&mut f.corrected),
            None => 0,
        }
    }

    /// Rows retired to spares over the array's lifetime.
    #[must_use]
    pub fn remapped_rows(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.remapped)
    }

    /// Spare rows still available for remapping.
    #[must_use]
    pub fn spares_free(&self) -> usize {
        self.fault
            .as_ref()
            .map_or(self.spare_rows, |f| self.spare_rows - f.spares_used)
    }

    /// Logical rows whose detection/correction event count since their
    /// last remap is at least `threshold` — the candidates the remap
    /// stage retires (repeated events mean a permanent fault, not a
    /// transient).
    #[must_use]
    pub fn hot_rows(&self, threshold: u64) -> Vec<u32> {
        let Some(f) = &self.fault else {
            return Vec::new();
        };
        f.row_events
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n >= threshold)
            .map(|(row, _)| row as u32)
            .collect()
    }

    /// Physical row backing a logical row (identity until remapped).
    #[inline]
    fn phys_row(&self, row: usize) -> usize {
        match &self.fault {
            Some(f) => f.remap[row],
            None => row,
        }
    }

    /// Writes one segment cell, generating parity/ECC from the
    /// intended value and then letting the injector corrupt the latch.
    /// The element-fill path stores one lane at a time, so it stays
    /// scalar: a one-lane plane write costs more than it saves.
    #[inline]
    fn store_cell(&mut self, row: usize, lane: usize, value: u32) {
        let (bits, words) = (self.bits, self.words);
        let (phys, value) = match &mut self.fault {
            None => (row, value),
            Some(f) => {
                let phys = f.remap[row];
                match f.mode {
                    DetectionMode::Parity => {
                        let p = u64::from(odd_parity(value)) << (lane % WORD_BITS);
                        let i = phys * words + lane / WORD_BITS;
                        f.parity[i] = blend(f.parity[i], p, 1 << (lane % WORD_BITS));
                    }
                    DetectionMode::Secded => {
                        let cb = f.code.check_bits() as usize;
                        let chk = &mut f.check[phys * cb * words..(phys + 1) * cb * words];
                        lane_set(chk, words, cb, lane, f.code.encode(value));
                    }
                }
                let stored = f.inj.corrupt_write(phys as u32, lane as u32, value);
                if stored != value {
                    f.suspect[phys] = true;
                }
                (phys, stored)
            }
        };
        let range = self.row_range(phys);
        lane_set(&mut self.storage[range], words, bits, lane, value);
    }

    /// With an injector attached, seals a row write that has blended
    /// its intended planes into physical row `phys`: check bits from the
    /// intended values of the written lanes (`mask` if `masked`, else
    /// all), then the injector corrupts the latch.
    #[inline]
    fn seal_row(&mut self, phys: usize, masked: bool) {
        let pl = self.plane_len();
        if let Some(f) = &mut self.fault {
            let sel = if masked { &self.mask } else { &self.full };
            let planes = &mut self.storage[phys * pl..(phys + 1) * pl];
            f.encode(phys, sel, planes);
            if f.inj.corrupt_write_planes(phys as u32, sel, planes) {
                f.suspect[phys] = true;
            }
        }
    }

    /// Checks a row on a μprogram read: word-parallel parity compare in
    /// parity mode, word-parallel SECDED syndrome audit (with in-place
    /// correction) in SECDED mode.
    #[inline]
    fn check_row(&mut self, row: usize) {
        match self.fault.as_ref().map(|f| f.mode) {
            None => {}
            Some(DetectionMode::Parity) => {
                let _ = self.check_row_parity(row);
            }
            Some(DetectionMode::Secded) => {
                let _ = self.secded_audit_row(row);
            }
        }
    }

    /// Parity-checks every lane of a row (the row is read as one wide
    /// word, parity bits interleaved lane by lane), raising an alarm
    /// per mismatch. Returns the mismatch count.
    fn check_row_parity(&mut self, row: usize) -> u64 {
        let pl = self.plane_len();
        let Some(f) = &mut self.fault else {
            return 0;
        };
        let phys = f.remap[row];
        let planes = &self.storage[phys * pl..(phys + 1) * pl];
        if !f.suspect[phys] {
            debug_assert_eq!(
                f.parity_mismatches(phys, planes, &self.full),
                0,
                "row {row} skipped with a parity mismatch"
            );
            return 0;
        }
        let hits = f.parity_mismatches(phys, planes, &self.full);
        if hits == 0 {
            f.suspect[phys] = false;
        }
        f.alarms += hits;
        f.row_events[row] += hits;
        hits
    }

    /// Word-parallel SECDED audit of one logical row, correcting
    /// single-bit errors in place and flagging double-bit errors.
    ///
    /// The fast path never leaves word algebra
    /// ([`FaultState::syndromes`]). Only lanes inside a nonzero
    /// syndrome word fall back to per-lane decode and repair, and rows
    /// that are not suspect are not checked at all.
    ///
    /// The repair models the ECC pipeline on the read port: the
    /// corrected value is both delivered downstream and written back,
    /// so a transient is healed for good while a stuck cell re-arms on
    /// its next write — the row's event counter keeps climbing with
    /// write traffic until the remap stage retires it, exactly the
    /// repeated-fault signal sparing needs.
    fn secded_audit_row(&mut self, row: usize) -> (u64, u64) {
        let (bits, words, lanes) = (self.bits, self.words, self.lanes);
        let pl = bits * words;
        let Some(f) = &mut self.fault else {
            return (0, 0);
        };
        let phys = f.remap[row];
        let data_base = phys * pl;
        let planes = &self.storage[data_base..data_base + pl];
        if !f.suspect[phys] {
            debug_assert!(
                !f.syndromes(phys, planes, &self.full),
                "row {row} skipped with a nonzero SECDED syndrome"
            );
            return (0, 0);
        }
        if !f.syndromes(phys, planes, &self.full) {
            f.suspect[phys] = false;
            return (0, 0);
        }
        let code = f.code;
        let cb = code.check_bits() as usize;
        let chk_base = phys * cb * words;
        let (mut corrected, mut uncorrectable) = (0u64, 0u64);
        for w in 0..words {
            let mut dirty = 0u64;
            for j in 0..cb {
                dirty |= f.scr_s[j * words + w];
            }
            dirty &= self.full[w];
            while dirty != 0 {
                let lane = w * WORD_BITS + dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                if lane >= lanes {
                    continue;
                }
                let data = &self.storage[data_base..data_base + pl];
                let chk = &f.check[chk_base..chk_base + cb * words];
                let mut d = lane_get(data, words, bits, lane);
                let mut c = lane_get(chk, words, cb, lane);
                match code.correct(&mut d, &mut c) {
                    SecdedVerdict::Clean => {}
                    SecdedVerdict::CorrectedData(_) => {
                        lane_set(
                            &mut self.storage[data_base..data_base + pl],
                            words,
                            bits,
                            lane,
                            d,
                        );
                        corrected += 1;
                    }
                    SecdedVerdict::CorrectedCheck(_) => {
                        let chk_mut = &mut f.check[chk_base..chk_base + cb * words];
                        lane_set(chk_mut, words, cb, lane, c);
                        corrected += 1;
                    }
                    SecdedVerdict::Uncorrectable => uncorrectable += 1,
                }
            }
        }
        if uncorrectable == 0 {
            f.suspect[phys] = false;
        }
        f.corrected += corrected;
        f.alarms += uncorrectable;
        f.row_events[row] += corrected + uncorrectable;
        (corrected, uncorrectable)
    }

    /// Audits every segment row of an architectural register through
    /// the active detection mode — the ECC-on-read pipeline the drain
    /// path applies before values leave the engine. SECDED corrects
    /// single-bit errors in place; parity only detects (raising
    /// alarms). Returns `(corrected, uncorrectable)` event counts; the
    /// same events also accumulate into the array's counters.
    pub fn audit_register(&mut self, vreg: u32) -> (u64, u64) {
        let Some(mode) = self.fault.as_ref().map(|f| f.mode) else {
            return (0, 0);
        };
        let segs = self.cfg.segments();
        let (mut corrected, mut uncorrectable) = (0u64, 0u64);
        for seg in 0..segs {
            let row = self.reg_row(vreg, seg);
            match mode {
                DetectionMode::Parity => uncorrectable += self.check_row_parity(row),
                DetectionMode::Secded => {
                    let (c, u) = self.secded_audit_row(row);
                    corrected += c;
                    uncorrectable += u;
                }
            }
        }
        (corrected, uncorrectable)
    }

    /// Retires a logical row to the next free spare, copying its
    /// (ECC-corrected, where possible) contents and updating the remap
    /// table. Returns `false` when no injector is attached or the
    /// spare budget is exhausted.
    ///
    /// The copy is a controller-internal latch-to-latch transfer, not
    /// architectural write traffic: the spare row gets fresh
    /// parity/ECC generated from the copied values and the injector's
    /// RNG stream is left untouched, so seeded campaigns stay
    /// deterministic whether or not a remap fired. (Spare rows are
    /// fuse-tested-good — they carry no stuck cells by construction.)
    pub fn remap_row(&mut self, row: usize) -> bool {
        assert!(row < self.rows, "cannot remap row {row}");
        let (bits, words, lanes) = (self.bits, self.words, self.lanes);
        let pl = bits * words;
        let Some(f) = &self.fault else {
            return false;
        };
        if f.spares_used >= self.spare_rows {
            return false;
        }
        let old_phys = f.remap[row];
        let code = f.code;
        let cb = code.check_bits() as usize;
        let secded = f.mode == DetectionMode::Secded;
        let values: Vec<u32> = (0..lanes)
            .map(|lane| {
                let data = &self.storage[old_phys * pl..(old_phys + 1) * pl];
                let mut d = lane_get(data, words, bits, lane);
                if secded {
                    let chk = &f.check[old_phys * cb * words..(old_phys + 1) * cb * words];
                    let mut c = lane_get(chk, words, cb, lane);
                    let _ = code.correct(&mut d, &mut c);
                }
                d
            })
            .collect();
        let f = self.fault.as_mut().expect("fault state present");
        let new_phys = self.rows + f.spares_used;
        f.remap[row] = new_phys;
        f.spares_used += 1;
        f.remapped += 1;
        f.row_events[row] = 0;
        let planes = &mut self.storage[new_phys * pl..(new_phys + 1) * pl];
        for (lane, v) in values.into_iter().enumerate() {
            lane_set(planes, words, bits, lane, v);
        }
        f.encode(new_phys, &self.full, planes);
        f.suspect[new_phys] = false;
        true
    }

    /// One background scrub pass: audits every logical row through the
    /// active detection mode. In SECDED mode single-bit errors are
    /// corrected in place (cleaning latent damage before a second flip
    /// can pair with it); in parity mode mismatches are detected and
    /// alarmed but not repaired.
    pub fn scrub(&mut self) -> ScrubStats {
        let mut stats = ScrubStats::default();
        let Some(mode) = self.fault.as_ref().map(|f| f.mode) else {
            return stats;
        };
        for row in 0..self.rows {
            stats.rows += 1;
            match mode {
                DetectionMode::Parity => stats.uncorrectable += self.check_row_parity(row),
                DetectionMode::Secded => {
                    let (c, u) = self.secded_audit_row(row);
                    stats.corrected += c;
                    stats.uncorrectable += u;
                }
            }
        }
        stats
    }

    /// The configuration this array was built for.
    #[must_use]
    pub fn config(&self) -> HybridConfig {
        self.cfg
    }

    /// Number of lanes (in-situ ALUs).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Writes a 32-bit element into lane `lane` of register `vreg`
    /// (the memory-fill path, normally fed by a DTU).
    ///
    /// # Panics
    ///
    /// Panics if `vreg` or `lane` is out of range.
    pub fn write_element(&mut self, vreg: u32, lane: usize, value: u32) {
        let segs = self.cfg.segments();
        let bits = self.cfg.segment_bits();
        for s in 0..segs {
            let row = self.reg_row(vreg, s);
            let seg = extract_bits(value, s * bits, bits);
            self.store_cell(row, lane, seg);
        }
    }

    /// Reads lane `lane` of register `vreg` back as a 32-bit element.
    ///
    /// # Panics
    ///
    /// Panics if `vreg` or `lane` is out of range.
    #[must_use]
    pub fn read_element(&self, vreg: u32, lane: usize) -> u32 {
        let segs = self.cfg.segments();
        let bits = self.cfg.segment_bits();
        let mut value = 0;
        for s in 0..segs {
            let row = self.phys_row(self.reg_row(vreg, s));
            let seg = lane_get(
                &self.storage[self.row_range(row)],
                self.words,
                self.bits,
                lane,
            );
            value = deposit_bits(value, s * bits, bits, seg);
        }
        value
    }

    /// Reads the mask bit register `vreg` holds for `lane` (bit 0 of the
    /// register's first row — how compare results are stored).
    #[must_use]
    pub fn read_mask_bit(&self, vreg: u32, lane: usize) -> bool {
        let row = self.phys_row(self.reg_row(vreg, 0));
        let base = row * self.plane_len();
        word_bit(&self.storage[base..base + self.words], lane)
    }

    /// Writes a mask bit into register `vreg` for `lane`.
    pub fn write_mask_bit(&mut self, vreg: u32, lane: usize, value: bool) {
        let row = self.reg_row(vreg, 0);
        self.store_cell(row, lane, u32::from(value));
    }

    /// Presents per-lane data on the data-in port (consumed by
    /// `WriteDataIn` μops).
    pub fn set_data_in(&mut self, data: Vec<u32>) {
        assert_eq!(data.len(), self.lanes, "data-in width mismatch");
        self.data_in = data;
    }

    /// The data driven out by the most recent `Read` μop.
    #[must_use]
    pub fn data_out(&self) -> &[u32] {
        &self.data_out
    }

    /// Executes a μprogram against this array with `binding`, returning
    /// the cycles it took (identical to `eve_uop::count_cycles`).
    ///
    /// # Panics
    ///
    /// Panics on malformed programs (runaway loops, out-of-range rows) —
    /// generator bugs, not user errors.
    pub fn execute(&mut self, prog: &MicroProgram, binding: &Binding) -> Cycle {
        eve_uop::walk(prog, |arith, counters| {
            if let Some(f) = &mut self.fault {
                f.inj.tick();
            }
            self.exec_arith(arith, binding, counters);
        })
    }

    #[inline]
    fn reg_row(&self, vreg: u32, seg: u32) -> usize {
        assert!(
            vreg < ARCH_VREGS + SCRATCH_VREGS,
            "register {vreg} out of range"
        );
        let segs = self.cfg.segments();
        assert!(seg < segs, "segment {seg} out of range");
        (vreg * segs + seg) as usize
    }

    #[inline]
    fn resolve(&self, op: &Operand, binding: &Binding, counters: &CounterFile) -> usize {
        let vreg = match op.slot {
            VSlot::D => u32::from(binding.d),
            VSlot::S1 => u32::from(binding.s1),
            VSlot::S2 => u32::from(binding.s2),
            VSlot::Mask => 0,
            VSlot::Scratch(k) => {
                assert!(u32::from(k) < SCRATCH_VREGS, "scratch {k} out of range");
                ARCH_VREGS + u32::from(k)
            }
        };
        let seg = match op.seg {
            SegSel::Up(ctr) => counters.seg_up(ctr),
            SegSel::Down(ctr) => counters.seg_down(ctr),
            SegSel::At(k) => u32::from(k),
        };
        self.reg_row(vreg, seg)
    }

    /// One packed word of a writeback source: bit-plane `b`, word `w`.
    ///
    /// Complement sources derive from the stored positive planes over
    /// the live lanes; before the first `blc` they read zero like every
    /// other latch output.
    #[inline]
    fn src_word(&self, src: ComputeSrc, b: usize, w: usize) -> u64 {
        let i = b * self.words + w;
        match src {
            ComputeSrc::And => self.blc.and[i],
            ComputeSrc::Nand => {
                if self.blc.valid {
                    self.blc.and[i] ^ self.full[w]
                } else {
                    0
                }
            }
            ComputeSrc::Or => self.blc.or[i],
            ComputeSrc::Nor => {
                if self.blc.valid {
                    self.blc.or[i] ^ self.full[w]
                } else {
                    0
                }
            }
            ComputeSrc::Xor => self.blc.xor[i],
            ComputeSrc::Xnor => {
                if self.blc.valid {
                    self.blc.xor[i] ^ self.full[w]
                } else {
                    0
                }
            }
            ComputeSrc::Add => self.blc.sum[i],
            ComputeSrc::Shift => self.shifter[i],
            ComputeSrc::Mask => {
                if b == 0 {
                    self.mask[w]
                } else {
                    0
                }
            }
        }
    }

    /// Writes a computed source into a row: one pass blending whole
    /// bit-planes (mask-gated if `masked`), then, with an injector
    /// attached, [`Self::seal_row`].
    fn write_row(&mut self, row: usize, src: ComputeSrc, masked: bool) {
        let (bits, words) = (self.bits, self.words);
        let phys = self.phys_row(row);
        let base = phys * self.plane_len();
        for b in 0..bits {
            for w in 0..words {
                let v = self.src_word(src, b, w);
                let i = base + b * words + w;
                if masked {
                    self.storage[i] = blend(self.storage[i], v, self.mask[w]);
                } else {
                    self.storage[i] = v;
                }
            }
        }
        self.seal_row(phys, masked);
    }

    fn exec_arith(&mut self, uop: &ArithUop, binding: &Binding, counters: &CounterFile) {
        match *uop {
            ArithUop::Nop => {}
            ArithUop::Read { op } => {
                let row = self.resolve(&op, binding, counters);
                self.check_row(row);
                let phys = self.phys_row(row);
                let this = &mut *self;
                let planes = &this.storage[phys * this.bits * this.words..];
                for (lane, out) in this.data_out.iter_mut().enumerate() {
                    *out = lane_get(planes, this.words, this.bits, lane);
                }
            }
            ArithUop::WriteConst { op, value, masked } => {
                let row = self.resolve(&op, binding, counters);
                let (bits, words) = (self.bits, self.words);
                let phys = self.phys_row(row);
                let base = phys * self.plane_len();
                for b in 0..bits {
                    for w in 0..words {
                        let v = if (value >> b) & 1 == 1 {
                            self.full[w]
                        } else {
                            0
                        };
                        let i = base + b * words + w;
                        if masked {
                            self.storage[i] = blend(self.storage[i], v, self.mask[w]);
                        } else {
                            self.storage[i] = v;
                        }
                    }
                }
                self.seal_row(phys, masked);
            }
            ArithUop::WriteDataIn { op } => {
                let row = self.resolve(&op, binding, counters);
                let phys = self.phys_row(row);
                let range = self.row_range(phys);
                let this = &mut *self;
                let planes = &mut this.storage[range];
                planes.fill(0);
                for (lane, &d) in this.data_in.iter().enumerate() {
                    let (w, s) = (lane / WORD_BITS, lane % WORD_BITS);
                    let mut rest = d & this.seg_mask;
                    while rest != 0 {
                        let b = rest.trailing_zeros() as usize;
                        planes[b * this.words + w] |= 1u64 << s;
                        rest &= rest - 1;
                    }
                }
                self.seal_row(phys, false);
            }
            ArithUop::Blc { a, b, carry_in } => {
                let ra = self.resolve(&a, binding, counters);
                let rb = self.resolve(&b, binding, counters);
                self.do_blc(ra, rb, carry_in);
            }
            ArithUop::Writeback { dst, src, masked } => match dst {
                WbDest::Row(op) => {
                    let row = self.resolve(&op, binding, counters);
                    self.write_row(row, src, masked);
                }
                WbDest::MaskReg => {
                    // The mask latch takes bit 0 of the source; the old
                    // mask is both the predication gate and the kept
                    // value.
                    for w in 0..self.words {
                        let v = self.src_word(src, 0, w);
                        self.mask[w] = if masked {
                            blend(self.mask[w], v, self.mask[w])
                        } else {
                            v
                        };
                    }
                }
                WbDest::XReg => {
                    let (bits, words) = (self.bits, self.words);
                    for b in 0..bits {
                        for w in 0..words {
                            let v = self.src_word(src, b, w);
                            let i = b * words + w;
                            if masked {
                                self.xreg[i] = blend(self.xreg[i], v, self.mask[w]);
                            } else {
                                self.xreg[i] = v;
                            }
                        }
                    }
                }
            },
            ArithUop::LoadShifter { op } => {
                let row = self.resolve(&op, binding, counters);
                self.check_row(row);
                let range = self.row_range(self.phys_row(row));
                let this = &mut *self;
                this.shifter.copy_from_slice(&this.storage[range]);
            }
            ArithUop::StoreShifter { op, masked } => {
                let row = self.resolve(&op, binding, counters);
                self.write_row(row, ComputeSrc::Shift, masked);
            }
            ArithUop::LoadXReg { op } => {
                let row = self.resolve(&op, binding, counters);
                self.check_row(row);
                let range = self.row_range(self.phys_row(row));
                let this = &mut *self;
                this.xreg.copy_from_slice(&this.storage[range]);
            }
            ArithUop::ShiftLeft { masked } => self.shift_left(masked, false),
            ArithUop::ShiftRight { masked } => self.shift_right(masked, false),
            ArithUop::RotateLeft { masked } => self.shift_left(masked, true),
            ArithUop::RotateRight { masked } => self.shift_right(masked, true),
            ArithUop::MaskShift => {
                let (bits, words) = (self.bits, self.words);
                for b in 0..bits - 1 {
                    for w in 0..words {
                        self.xreg[b * words + w] = self.xreg[(b + 1) * words + w];
                    }
                }
                self.xreg[(bits - 1) * words..].fill(0);
            }
            ArithUop::SetMask { src, invert } => {
                let msb = (self.bits - 1) * self.words;
                for w in 0..self.words {
                    let bit = match src {
                        MaskSrc::XRegLsb => self.xreg[w],
                        MaskSrc::XRegMsb => self.xreg[msb + w],
                        MaskSrc::AddMsb => self.blc.sum[msb + w],
                        MaskSrc::Carry => self.carry[w],
                        MaskSrc::AllOnes => self.full[w],
                    };
                    self.mask[w] = if invert { bit ^ self.full[w] } else { bit };
                }
            }
            ArithUop::SetCarry { value } => {
                if value {
                    let this = &mut *self;
                    this.carry.copy_from_slice(&this.full);
                } else {
                    self.carry.fill(0);
                }
            }
            ArithUop::ClearSpare => {
                self.spare.fill(0);
            }
        }
    }

    /// Bit-line compute: senses rows `ra` and `rb` and latches every
    /// logic layer's output, one packed word at a time. Carry
    /// propagation across bit positions is the word-parallel recurrence
    /// `carry' = (a & b) | (carry & (a ^ b))` — all lanes advance one
    /// bit per iteration, replacing the per-lane Manchester chain.
    fn do_blc(&mut self, ra: usize, rb: usize, carry_in: CarryIn) {
        self.check_row(ra);
        self.check_row(rb);
        let (bits, words) = (self.bits, self.words);
        let pl = bits * words;
        let (pra, prb) = (self.phys_row(ra), self.phys_row(rb));
        let this = &mut *self;
        let (row_a, row_b) = (pra * pl..(pra + 1) * pl, prb * pl..(prb + 1) * pl);
        let (pa, pb): (&[u64], &[u64]) = match &mut this.fault {
            // Sense-amp glitches corrupt the operands *before* the
            // logic layers latch them.
            Some(f) => {
                this.scr_a.copy_from_slice(&this.storage[row_a]);
                this.scr_b.copy_from_slice(&this.storage[row_b]);
                f.inj.corrupt_sense_planes(
                    pra as u32,
                    prb as u32,
                    &this.full,
                    &mut this.scr_a,
                    &mut this.scr_b,
                );
                (&this.scr_a, &this.scr_b)
            }
            None => (&this.storage[row_a], &this.storage[row_b]),
        };
        match carry_in {
            CarryIn::Stored => {}
            CarryIn::Zero => this.carry.fill(0),
            CarryIn::One => this.carry.copy_from_slice(&this.full),
        }
        for b in 0..bits {
            let o = b * words;
            for w in 0..words {
                let av = pa[o + w];
                let bv = pb[o + w];
                let and = av & bv;
                let xor = av ^ bv;
                let c = this.carry[w];
                this.blc.and[o + w] = and;
                this.blc.or[o + w] = av | bv;
                this.blc.xor[o + w] = xor;
                this.blc.sum[o + w] = xor ^ c;
                this.carry[w] = and | (c & xor);
            }
        }
        this.blc.valid = true;
    }

    /// Shift (or rotate) the constant shifter left one bit: bit-plane
    /// `b` takes plane `b-1`, plane 0 takes the spare shifter (shift)
    /// or the outgoing MSB plane (rotate), and the spare catches the
    /// outgoing MSB (shift only).
    fn shift_left(&mut self, masked: bool, rotate: bool) {
        let (bits, words) = (self.bits, self.words);
        let this = &mut *self;
        this.scr_c
            .copy_from_slice(&this.shifter[(bits - 1) * words..bits * words]);
        for b in (1..bits).rev() {
            for w in 0..words {
                let v = this.shifter[(b - 1) * words + w];
                let i = b * words + w;
                this.shifter[i] = if masked {
                    blend(this.shifter[i], v, this.mask[w])
                } else {
                    v
                };
            }
        }
        for w in 0..words {
            let v = if rotate { this.scr_c[w] } else { this.spare[w] };
            this.shifter[w] = if masked {
                blend(this.shifter[w], v, this.mask[w])
            } else {
                v
            };
        }
        if !rotate {
            for w in 0..words {
                this.spare[w] = if masked {
                    blend(this.spare[w], this.scr_c[w], this.mask[w])
                } else {
                    this.scr_c[w]
                };
            }
        }
    }

    /// Shift (or rotate) the constant shifter right one bit: bit-plane
    /// `b` takes plane `b+1`, the MSB plane takes the spare shifter
    /// (shift) or the outgoing LSB plane (rotate), and the spare
    /// catches the outgoing LSB (shift only).
    fn shift_right(&mut self, masked: bool, rotate: bool) {
        let (bits, words) = (self.bits, self.words);
        let this = &mut *self;
        this.scr_c.copy_from_slice(&this.shifter[..words]);
        for b in 0..bits - 1 {
            for w in 0..words {
                let v = this.shifter[(b + 1) * words + w];
                let i = b * words + w;
                this.shifter[i] = if masked {
                    blend(this.shifter[i], v, this.mask[w])
                } else {
                    v
                };
            }
        }
        let msb = (bits - 1) * words;
        for w in 0..words {
            let v = if rotate { this.scr_c[w] } else { this.spare[w] };
            this.shifter[msb + w] = if masked {
                blend(this.shifter[msb + w], v, this.mask[w])
            } else {
                v
            };
        }
        if !rotate {
            for w in 0..words {
                this.spare[w] = if masked {
                    blend(this.spare[w], this.scr_c[w], this.mask[w])
                } else {
                    this.scr_c[w]
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_uop::{MacroOpKind, ProgramLibrary};

    fn run(cfg: HybridConfig, kind: MacroOpKind, a: u32, b: u32) -> u32 {
        let mut arr = EveArray::new(cfg, 2);
        arr.write_element(1, 0, a);
        arr.write_element(2, 0, b);
        // Lane 1 gets swapped operands as a free second test point.
        arr.write_element(1, 1, b);
        arr.write_element(2, 1, a);
        let prog = ProgramLibrary::new(cfg).program(kind);
        arr.execute(&prog, &Binding::new(3, 1, 2));
        arr.read_element(3, 0)
    }

    #[test]
    fn add_is_wrapping_add_on_every_config() {
        for cfg in HybridConfig::all() {
            assert_eq!(run(cfg, MacroOpKind::Add, 7, 8), 15, "{cfg}");
            assert_eq!(
                run(cfg, MacroOpKind::Add, u32::MAX, 1),
                0,
                "{cfg} wraparound"
            );
            assert_eq!(
                run(cfg, MacroOpKind::Add, 0xDEAD_BEEF, 0x1234_5678),
                0xDEAD_BEEFu32.wrapping_add(0x1234_5678),
                "{cfg}"
            );
        }
    }

    #[test]
    fn sub_borrows_across_segments() {
        for cfg in HybridConfig::all() {
            assert_eq!(run(cfg, MacroOpKind::Sub, 1000, 1), 999, "{cfg}");
            assert_eq!(
                run(cfg, MacroOpKind::Sub, 0, 1),
                u32::MAX,
                "{cfg} borrow chain"
            );
        }
    }

    #[test]
    fn logic_ops() {
        let a = 0xF0F0_A5A5;
        let b = 0x0FF0_5AA5;
        for cfg in HybridConfig::all() {
            assert_eq!(run(cfg, MacroOpKind::And, a, b), a & b, "{cfg}");
            assert_eq!(run(cfg, MacroOpKind::Or, a, b), a | b, "{cfg}");
            assert_eq!(run(cfg, MacroOpKind::Xor, a, b), a ^ b, "{cfg}");
            assert_eq!(run(cfg, MacroOpKind::Not, a, b), !a, "{cfg}");
            assert_eq!(run(cfg, MacroOpKind::Mv, a, b), a, "{cfg}");
        }
    }

    #[test]
    fn mul_matches_wrapping_mul() {
        for cfg in HybridConfig::all() {
            assert_eq!(run(cfg, MacroOpKind::Mul, 1000, 1001), 1_001_000, "{cfg}");
            assert_eq!(
                run(cfg, MacroOpKind::Mul, 0x1234_5678, 0x9ABC_DEF0),
                0x1234_5678u32.wrapping_mul(0x9ABC_DEF0),
                "{cfg}"
            );
        }
    }

    #[test]
    fn divu_remu_including_by_zero() {
        for cfg in HybridConfig::all() {
            assert_eq!(run(cfg, MacroOpKind::Divu, 100, 7), 14, "{cfg}");
            assert_eq!(run(cfg, MacroOpKind::Remu, 100, 7), 2, "{cfg}");
            // RVV semantics: x / 0 = all ones, x % 0 = x.
            assert_eq!(run(cfg, MacroOpKind::Divu, 5, 0), u32::MAX, "{cfg}");
            assert_eq!(run(cfg, MacroOpKind::Remu, 5, 0), 5, "{cfg}");
        }
    }

    #[test]
    fn lanes_are_independent() {
        for cfg in HybridConfig::all() {
            let mut arr = EveArray::new(cfg, 8);
            for lane in 0..8 {
                arr.write_element(1, lane, lane as u32 * 3 + 1);
                arr.write_element(2, lane, lane as u32 * 7 + 11);
            }
            let prog = ProgramLibrary::new(cfg).program(MacroOpKind::Mul);
            arr.execute(&prog, &Binding::new(4, 1, 2));
            for lane in 0..8 {
                let a = lane as u32 * 3 + 1;
                let b = lane as u32 * 7 + 11;
                assert_eq!(arr.read_element(4, lane), a.wrapping_mul(b), "{cfg}");
            }
        }
    }

    #[test]
    fn shifts_by_immediate() {
        let x = 0xDEAD_BEEF;
        for cfg in HybridConfig::all() {
            for k in [0u8, 1, 3, 8, 13, 16, 31] {
                assert_eq!(
                    run(cfg, MacroOpKind::SllI(k), x, 0),
                    x << k,
                    "{cfg} sll {k}"
                );
                assert_eq!(
                    run(cfg, MacroOpKind::SrlI(k), x, 0),
                    x >> k,
                    "{cfg} srl {k}"
                );
                assert_eq!(
                    run(cfg, MacroOpKind::SraI(k), x, 0),
                    ((x as i32) >> k) as u32,
                    "{cfg} sra {k}"
                );
            }
        }
    }

    #[test]
    fn variable_shifts() {
        let x = 0x8001_7FFE;
        for cfg in HybridConfig::all() {
            for k in [0u32, 1, 5, 12, 20, 31] {
                assert_eq!(run(cfg, MacroOpKind::SllV, x, k), x << k, "{cfg} sllv {k}");
                assert_eq!(run(cfg, MacroOpKind::SrlV, x, k), x >> k, "{cfg} srlv {k}");
                assert_eq!(
                    run(cfg, MacroOpKind::SraV, x, k),
                    ((x as i32) >> k) as u32,
                    "{cfg} srav {k}"
                );
            }
        }
    }

    #[test]
    fn compares_set_mask_rows() {
        let cases: [(u32, u32); 6] = [
            (5, 9),
            (9, 5),
            (7, 7),
            (0, u32::MAX),
            (0x8000_0000, 1),
            (u32::MAX, u32::MAX),
        ];
        for cfg in HybridConfig::all() {
            for &(a, b) in &cases {
                assert_eq!(
                    run(cfg, MacroOpKind::CmpLtu, a, b) & 1,
                    u32::from(a < b),
                    "{cfg} ltu {a} {b}"
                );
                assert_eq!(
                    run(cfg, MacroOpKind::CmpLt, a, b) & 1,
                    u32::from((a as i32) < (b as i32)),
                    "{cfg} lt {a} {b}"
                );
                assert_eq!(
                    run(cfg, MacroOpKind::CmpEq, a, b) & 1,
                    u32::from(a == b),
                    "{cfg} eq"
                );
                assert_eq!(
                    run(cfg, MacroOpKind::CmpNe, a, b) & 1,
                    u32::from(a != b),
                    "{cfg} ne"
                );
            }
        }
    }

    #[test]
    fn min_max_signed_and_unsigned() {
        let cases: [(u32, u32); 4] = [(5, 9), (0x8000_0000, 1), (u32::MAX, 0), (42, 42)];
        for cfg in HybridConfig::all() {
            for &(a, b) in &cases {
                assert_eq!(run(cfg, MacroOpKind::Minu, a, b), a.min(b), "{cfg} minu");
                assert_eq!(run(cfg, MacroOpKind::Maxu, a, b), a.max(b), "{cfg} maxu");
                assert_eq!(
                    run(cfg, MacroOpKind::Min, a, b),
                    (a as i32).min(b as i32) as u32,
                    "{cfg} min"
                );
                assert_eq!(
                    run(cfg, MacroOpKind::Max, a, b),
                    (a as i32).max(b as i32) as u32,
                    "{cfg} max"
                );
            }
        }
    }

    #[test]
    fn merge_selects_by_v0() {
        for cfg in HybridConfig::all() {
            let mut arr = EveArray::new(cfg, 4);
            for lane in 0..4 {
                arr.write_element(1, lane, 111);
                arr.write_element(2, lane, 222);
                arr.write_mask_bit(0, lane, lane % 2 == 0);
            }
            let prog = ProgramLibrary::new(cfg).program(MacroOpKind::Merge);
            arr.execute(&prog, &Binding::new(3, 1, 2));
            for lane in 0..4 {
                let want = if lane % 2 == 0 { 111 } else { 222 };
                assert_eq!(arr.read_element(3, lane), want, "{cfg} lane {lane}");
            }
        }
    }

    #[test]
    fn mask_register_ops() {
        for cfg in HybridConfig::all() {
            let mut arr = EveArray::new(cfg, 4);
            let a = [true, true, false, false];
            let b = [true, false, true, false];
            for lane in 0..4 {
                arr.write_mask_bit(1, lane, a[lane]);
                arr.write_mask_bit(2, lane, b[lane]);
            }
            let lib = ProgramLibrary::new(cfg);
            for (kind, f) in [
                (
                    MacroOpKind::MaskAnd,
                    (|x, y| x && y) as fn(bool, bool) -> bool,
                ),
                (MacroOpKind::MaskOr, |x, y| x || y),
                (MacroOpKind::MaskXor, |x, y| x != y),
            ] {
                let prog = lib.program(kind);
                arr.execute(&prog, &Binding::new(3, 1, 2));
                for lane in 0..4 {
                    assert_eq!(
                        arr.read_mask_bit(3, lane),
                        f(a[lane], b[lane]),
                        "{cfg} {kind:?} lane {lane}"
                    );
                }
            }
            let prog = lib.program(MacroOpKind::MaskNot);
            arr.execute(&prog, &Binding::new(3, 1, 2));
            for (lane, &av) in a.iter().enumerate() {
                assert_eq!(arr.read_mask_bit(3, lane), !av, "{cfg} not");
            }
        }
    }

    #[test]
    fn splat_broadcasts() {
        for cfg in HybridConfig::all() {
            let mut arr = EveArray::new(cfg, 4);
            let prog = ProgramLibrary::new(cfg).program(MacroOpKind::Splat(0xCAFE_BABE));
            arr.execute(&prog, &Binding::new(5, 0, 0));
            for lane in 0..4 {
                assert_eq!(arr.read_element(5, lane), 0xCAFE_BABE, "{cfg}");
            }
        }
    }

    #[test]
    fn element_roundtrip() {
        for cfg in HybridConfig::all() {
            let mut arr = EveArray::new(cfg, 3);
            arr.write_element(17, 2, 0x8765_4321);
            assert_eq!(arr.read_element(17, 2), 0x8765_4321);
            assert_eq!(arr.read_element(17, 0), 0);
        }
    }

    #[test]
    fn execution_cycle_counts_match_counting_executor() {
        use eve_uop::count_cycles;
        for cfg in HybridConfig::all() {
            let lib = ProgramLibrary::new(cfg);
            for kind in [
                MacroOpKind::Add,
                MacroOpKind::Mul,
                MacroOpKind::Sub,
                MacroOpKind::SllI(5),
                MacroOpKind::Minu,
            ] {
                let prog = lib.program(kind);
                let mut arr = EveArray::new(cfg, 2);
                let real = arr.execute(&prog, &Binding::new(3, 1, 2));
                let counted = count_cycles(&prog, cfg);
                assert_eq!(real, counted, "{cfg} {kind:?}");
            }
        }
    }
}

#[cfg(test)]
mod fault_integration_tests {
    use super::*;
    use crate::fault::{Fault, FaultConfig, FaultInjector, FaultLayer};
    use eve_uop::{MacroOpKind, ProgramLibrary};

    /// EVE-32: one segment per register, so register `v` is row `v`.
    fn cfg32() -> HybridConfig {
        HybridConfig::new(32).unwrap()
    }

    #[test]
    fn zero_fault_injector_is_bit_exact_and_silent() {
        for cfg in HybridConfig::all() {
            let lib = ProgramLibrary::new(cfg);
            let mut clean = EveArray::new(cfg, 4);
            let mut faulty = EveArray::new(cfg, 4);
            faulty.attach_injector(FaultInjector::new(FaultConfig::none(1234)));
            for lane in 0..4 {
                let (a, b) = (lane as u32 * 0x1357 + 11, lane as u32 * 0x2468 + 7);
                clean.write_element(1, lane, a);
                clean.write_element(2, lane, b);
                faulty.write_element(1, lane, a);
                faulty.write_element(2, lane, b);
            }
            for kind in [MacroOpKind::Add, MacroOpKind::Mul, MacroOpKind::Divu] {
                let prog = lib.program(kind);
                clean.execute(&prog, &Binding::new(3, 1, 2));
                faulty.execute(&prog, &Binding::new(3, 1, 2));
                for lane in 0..4 {
                    assert_eq!(
                        clean.read_element(3, lane),
                        faulty.read_element(3, lane),
                        "{cfg} {kind:?}"
                    );
                }
            }
            assert_eq!(faulty.parity_alarms(), 0, "{cfg}");
        }
    }

    #[test]
    fn writeback_fault_raises_parity_alarm_on_next_read() {
        let cfg = cfg32();
        let mut arr = EveArray::new(cfg, 2);
        let mut fc = FaultConfig::none(0);
        // Row 3 = register v3 (the destination). Flip bit 7 at the
        // writeback layer, any cycle.
        fc.scripted.push(Fault::transient(
            FaultLayer::Writeback,
            3,
            0,
            7,
            0,
            u64::MAX,
        ));
        arr.attach_injector(FaultInjector::new(fc));
        arr.write_element(1, 0, 100);
        arr.write_element(2, 0, 23);
        let lib = ProgramLibrary::new(cfg);
        arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
        // The corrupted row hasn't been re-read yet; the stored value
        // is wrong but the alarm hasn't fired.
        assert_eq!(arr.read_element(3, 0), 123 ^ 0x80);
        let before = arr.parity_alarms();
        // Any μprogram reading v3 must see the mismatch.
        arr.execute(&lib.program(MacroOpKind::Mv), &Binding::new(4, 3, 3));
        assert!(arr.parity_alarms() > before, "parity must catch the flip");
    }

    #[test]
    fn sense_fault_corrupts_result_but_stays_silent() {
        let cfg = cfg32();
        let mut arr = EveArray::new(cfg, 2);
        let mut fc = FaultConfig::none(0);
        // Row 1 = source v1. Glitch bit 0 as the bit-line compute
        // senses it, exactly once.
        fc.scripted
            .push(Fault::transient(FaultLayer::Sense, 1, 0, 0, 0, u64::MAX));
        arr.attach_injector(FaultInjector::new(fc));
        arr.write_element(1, 0, 100);
        arr.write_element(2, 0, 23);
        let lib = ProgramLibrary::new(cfg);
        arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
        assert_eq!(arr.read_element(3, 0), 101 + 23, "operand bit 0 flipped");
        // Read everything back: parity is self-consistent everywhere.
        arr.execute(&lib.program(MacroOpKind::Mv), &Binding::new(4, 3, 3));
        assert_eq!(arr.parity_alarms(), 0, "sense faults are undetectable");
    }

    #[test]
    fn stuck_cell_is_masked_when_value_matches() {
        let cfg = cfg32();
        let lib = ProgramLibrary::new(cfg);
        let mut fc = FaultConfig::none(0);
        fc.scripted.push(Fault::stuck_at(3, 0, 0, true)); // v3 bit 0 stuck at 1
        let mut arr = EveArray::new(cfg, 1);
        arr.attach_injector(FaultInjector::new(fc));
        arr.write_element(1, 0, 100);
        arr.write_element(2, 0, 23);
        // 100 + 23 = 123 has bit 0 set: the stuck bit agrees, the
        // fault is architecturally masked and parity stays clean.
        arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
        assert_eq!(arr.read_element(3, 0), 123);
        arr.execute(&lib.program(MacroOpKind::Mv), &Binding::new(4, 3, 3));
        assert_eq!(arr.parity_alarms(), 0);

        // 100 + 24 = 124 has bit 0 clear: now the stuck bit perturbs
        // the stored value and the next read alarms.
        arr.write_element(2, 0, 24);
        arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
        assert_eq!(arr.read_element(3, 0), 125);
        arr.execute(&lib.program(MacroOpKind::Mv), &Binding::new(4, 3, 3));
        assert!(arr.parity_alarms() > 0);
    }

    #[test]
    fn detach_returns_stats_and_restores_clean_operation() {
        let cfg = cfg32();
        let mut arr = EveArray::new(cfg, 1);
        let mut fc = FaultConfig::none(0);
        fc.scripted.push(Fault::transient(
            FaultLayer::Writeback,
            3,
            0,
            2,
            0,
            u64::MAX,
        ));
        arr.attach_injector(FaultInjector::new(fc));
        arr.write_element(1, 0, 8);
        arr.write_element(2, 0, 8);
        let lib = ProgramLibrary::new(cfg);
        arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
        let inj = arr.detach_injector().expect("injector attached");
        assert_eq!(inj.stats().scripted_fired, 1);
        assert!(arr.injector().is_none());
        // With the injector gone, writes are clean again.
        arr.write_element(3, 0, 16);
        assert_eq!(arr.read_element(3, 0), 16);
    }

    #[test]
    fn random_rates_eventually_corrupt_and_alarm() {
        let cfg = cfg32();
        let lib = ProgramLibrary::new(cfg);
        let mut arr = EveArray::new(cfg, 8);
        arr.attach_injector(FaultInjector::new(FaultConfig {
            seed: 42,
            stuck_rate: 0.0,
            transient_write_rate: 0.02,
            transient_sense_rate: 0.0,
            scripted: Vec::new(),
        }));
        for lane in 0..8 {
            arr.write_element(1, lane, lane as u32);
            arr.write_element(2, lane, lane as u32 * 3);
        }
        for _ in 0..50 {
            arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
            arr.execute(&lib.program(MacroOpKind::Mv), &Binding::new(4, 3, 3));
        }
        let stats = *arr.injector().unwrap().stats();
        assert!(stats.write_flips > 0, "2% over thousands of writes");
        assert!(arr.parity_alarms() > 0, "writeback flips must be caught");
    }
}

#[cfg(test)]
mod rotate_tests {
    use super::*;
    use eve_uop::{MacroOpKind, ProgramLibrary};

    #[test]
    fn rotates_match_u32_semantics_on_every_config() {
        let x = 0x8123_4567u32;
        for cfg in HybridConfig::all() {
            let lib = ProgramLibrary::new(cfg);
            for k in [0u8, 1, 5, 13, 31] {
                for (kind, want) in [
                    (MacroOpKind::RotlI(k), x.rotate_left(u32::from(k))),
                    (MacroOpKind::RotrI(k), x.rotate_right(u32::from(k))),
                ] {
                    let mut arr = EveArray::new(cfg, 2);
                    arr.write_element(1, 0, x);
                    arr.execute(&lib.program(kind), &Binding::new(3, 1, 2));
                    assert_eq!(arr.read_element(3, 0), want, "{cfg} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn bit_parallel_rotate_uses_the_rotate_uops() {
        // EVE-32's rotate must be the Table II lrotate path: load,
        // k rotates, store — no shift passes.
        let cfg = HybridConfig::new(32).unwrap();
        let prog = ProgramLibrary::new(cfg).program(MacroOpKind::RotlI(5));
        assert_eq!(prog.len(), 1 + 5 + 1 + 1); // load + 5 rotates + store + ret
    }
}

#[cfg(test)]
mod mulacc_tests {
    use super::*;
    use eve_uop::{MacroOpKind, ProgramLibrary};

    #[test]
    fn mulacc_accumulates_into_existing_destination() {
        for cfg in HybridConfig::all() {
            let mut arr = EveArray::new(cfg, 2);
            arr.write_element(1, 0, 123);
            arr.write_element(2, 0, 456);
            arr.write_element(3, 0, 1_000_000); // pre-existing acc
            let prog = ProgramLibrary::new(cfg).program(MacroOpKind::MulAcc);
            arr.execute(&prog, &Binding::new(3, 1, 2));
            assert_eq!(
                arr.read_element(3, 0),
                1_000_000u32.wrapping_add(123 * 456),
                "{cfg}"
            );
        }
    }

    #[test]
    fn mulacc_costs_one_extra_seed_pass() {
        // MulAcc seeds the accumulator by copying `d` (2S+1 tuples)
        // where Mul zero-fills it (S+1): one pass of difference.
        use eve_uop::{count_cycles, HybridConfig};
        for cfg in HybridConfig::all() {
            let lib = ProgramLibrary::new(cfg);
            let mul = count_cycles(&lib.program(MacroOpKind::Mul), cfg).0;
            let macc = count_cycles(&lib.program(MacroOpKind::MulAcc), cfg).0;
            assert_eq!(macc, mul + u64::from(cfg.segments()), "{cfg}");
        }
    }
}

#[cfg(test)]
mod secded_tests {
    use super::*;
    use crate::fault::{Fault, FaultConfig, FaultInjector, FaultLayer};
    use eve_uop::{MacroOpKind, ProgramLibrary};

    /// EVE-32: one segment per register, so register `v` is row `v`.
    fn cfg32() -> HybridConfig {
        HybridConfig::new(32).unwrap()
    }

    fn secded_array(cfg: HybridConfig, lanes: usize, fc: FaultConfig) -> EveArray {
        let mut arr = EveArray::new(cfg, lanes);
        arr.attach_injector_with(FaultInjector::new(fc), DetectionMode::Secded);
        arr
    }

    #[test]
    fn writeback_transient_is_corrected_on_next_read() {
        let cfg = cfg32();
        let mut fc = FaultConfig::none(0);
        // Corrupt source v1's stored bit 7 at the writeback layer.
        fc.scripted.push(Fault::transient(
            FaultLayer::Writeback,
            1,
            0,
            7,
            0,
            u64::MAX,
        ));
        let mut arr = secded_array(cfg, 2, fc);
        arr.write_element(1, 0, 100);
        arr.write_element(2, 0, 23);
        let lib = ProgramLibrary::new(cfg);
        // The bit-line compute re-reads v1; the SECDED check corrects
        // the stored bit before the sense, so the result is exact.
        arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
        assert_eq!(arr.read_element(3, 0), 123);
        assert_eq!(arr.corrected_events(), 1);
        assert_eq!(arr.parity_alarms(), 0, "single-bit faults never alarm");
    }

    #[test]
    fn scrub_heals_rows_no_microprogram_rereads() {
        let cfg = cfg32();
        let mut fc = FaultConfig::none(0);
        // Corrupt the *destination* row: nothing re-reads v3, so only
        // a scrub pass (the drain-path check) can repair it.
        fc.scripted.push(Fault::transient(
            FaultLayer::Writeback,
            3,
            0,
            4,
            0,
            u64::MAX,
        ));
        let mut arr = secded_array(cfg, 2, fc);
        arr.write_element(1, 0, 100);
        arr.write_element(2, 0, 23);
        let lib = ProgramLibrary::new(cfg);
        arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
        assert_eq!(arr.read_element(3, 0), 123 ^ 0x10, "latent corruption");
        let s = arr.scrub();
        assert_eq!((s.corrected, s.uncorrectable), (1, 0));
        assert_eq!(arr.read_element(3, 0), 123, "scrub repaired the row");
        // A second pass finds nothing: the repair is persistent.
        let s2 = arr.scrub();
        assert_eq!((s2.corrected, s2.uncorrectable), (0, 0));
    }

    #[test]
    fn double_flip_is_flagged_uncorrectable() {
        let cfg = cfg32();
        let mut fc = FaultConfig::none(0);
        for bit in [2u8, 9] {
            fc.scripted.push(Fault::transient(
                FaultLayer::Writeback,
                1,
                0,
                bit,
                0,
                u64::MAX,
            ));
        }
        let mut arr = secded_array(cfg, 2, fc);
        arr.write_element(1, 0, 0xABCD);
        let s = arr.scrub();
        assert_eq!((s.corrected, s.uncorrectable), (0, 1));
        assert!(arr.parity_alarms() > 0, "double-bit faults alarm");
        assert_eq!(arr.corrected_events(), 0);
    }

    #[test]
    fn stuck_row_goes_hot_and_remap_retires_it() {
        let cfg = cfg32();
        let mut fc = FaultConfig::none(0);
        fc.scripted.push(Fault::stuck_at(3, 0, 0, true));
        let mut arr = secded_array(cfg, 1, fc);
        let lib = ProgramLibrary::new(cfg);
        arr.write_element(1, 0, 100);
        // Every write of an even value re-perturbs the stuck cell and
        // every following scrub corrects it again: the row keeps
        // generating events.
        for i in 0..3u32 {
            arr.write_element(2, 0, 24 + 2 * i);
            arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
            let _ = arr.scrub();
        }
        assert_eq!(arr.hot_rows(3), vec![3], "row 3 is repeatedly faulting");
        assert_eq!(arr.spares_free(), DEFAULT_SPARE_ROWS as usize);
        assert!(arr.remap_row(3));
        assert_eq!(arr.remapped_rows(), 1);
        assert_eq!(arr.spares_free(), DEFAULT_SPARE_ROWS as usize - 1);
        // The spare took the corrected contents...
        assert_eq!(arr.read_element(3, 0), 128);
        // ...and the stuck cell is out of the data path for good.
        arr.write_element(2, 0, 30);
        arr.execute(&lib.program(MacroOpKind::Add), &Binding::new(3, 1, 2));
        assert_eq!(arr.read_element(3, 0), 130);
        let s = arr.scrub();
        assert_eq!(s.corrected, 0, "no more events from the retired row");
        assert!(arr.hot_rows(1).is_empty());
    }

    #[test]
    fn remap_exhausts_at_the_spare_budget() {
        let cfg = cfg32();
        let mut arr = secded_array(cfg, 1, FaultConfig::none(7));
        for row in 0..DEFAULT_SPARE_ROWS as usize {
            assert!(arr.remap_row(row), "spare {row} available");
        }
        assert!(!arr.remap_row(10), "budget exhausted");
        assert_eq!(arr.spares_free(), 0);
    }

    #[test]
    fn secded_zero_fault_stays_bit_exact_on_every_config() {
        for cfg in HybridConfig::all() {
            let lib = ProgramLibrary::new(cfg);
            let mut clean = EveArray::new(cfg, 5);
            let mut prot = secded_array(cfg, 5, FaultConfig::none(42));
            for lane in 0..5 {
                let (a, b) = (lane as u32 * 0x9E37 + 3, lane as u32 * 0x85EB + 1);
                clean.write_element(1, lane, a);
                clean.write_element(2, lane, b);
                prot.write_element(1, lane, a);
                prot.write_element(2, lane, b);
            }
            for kind in [MacroOpKind::Add, MacroOpKind::Mul, MacroOpKind::SllI(3)] {
                let prog = lib.program(kind);
                clean.execute(&prog, &Binding::new(3, 1, 2));
                prot.execute(&prog, &Binding::new(3, 1, 2));
                for lane in 0..5 {
                    assert_eq!(
                        clean.read_element(3, lane),
                        prot.read_element(3, lane),
                        "{cfg} {kind:?}"
                    );
                }
            }
            assert_eq!(prot.parity_alarms(), 0, "{cfg}");
            assert_eq!(prot.corrected_events(), 0, "{cfg}");
            let s = prot.scrub();
            assert_eq!((s.corrected, s.uncorrectable), (0, 0), "{cfg}");
        }
    }
}
