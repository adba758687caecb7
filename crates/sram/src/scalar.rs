//! The scalar (lane-serial) reference executor.
//!
//! This is the original bit-accurate μprogram executor, preserved
//! verbatim as the *reference oracle* for the lane-bitsliced executor
//! in [`crate::array`]: every per-lane state element is a separate
//! scalar (`Vec<u32>` segments, `Vec<bool>` latches) and every μop
//! iterates the lanes one by one. It is deliberately simple and slow —
//! `tests/bitslice_equiv.rs` fuzzes it against [`crate::EveArray`]
//! (random μprograms × every `HybridConfig`, with and without armed
//! fault injectors) to prove the packed executor bit-exact, and
//! `hotpath_timing` measures the speedup against it.

// Lane loops index several parallel per-lane state vectors in lock-step,
// mirroring the physical column groups; iterator zips would obscure that.
#![allow(clippy::needless_range_loop)]

use crate::array::{Binding, ARCH_VREGS, SCRATCH_VREGS};
use crate::fault::FaultInjector;
use eve_common::bits::{deposit_bits, extract_bits};
use eve_common::Cycle;
use eve_uop::{
    ArithUop, CarryIn, ComputeSrc, ControlUop, CounterFile, CounterUop, HybridConfig, MaskSrc,
    MicroProgram, Operand, SegSel, VSlot, WbDest,
};

/// Fault-injection state: the attached injector plus the per-row
/// interleaved parity bits (one per lane segment) the detection model
/// checks on μprogram reads.
#[derive(Debug, Clone)]
struct FaultState {
    inj: FaultInjector,
    /// `parity[row][lane]`: odd parity of the cell's intended value,
    /// generated at write time *before* the writeback layer can
    /// corrupt the latch.
    parity: Vec<Vec<bool>>,
    /// Parity mismatches observed on μprogram reads.
    alarms: u64,
}

fn odd_parity(v: u32) -> bool {
    v.count_ones() & 1 == 1
}

/// Combinational outputs of the last bit-line compute, latched for the
/// following writeback (per lane).
#[derive(Debug, Clone, Default)]
struct BlcLatch {
    and: Vec<u32>,
    nand: Vec<u32>,
    or: Vec<u32>,
    nor: Vec<u32>,
    xor: Vec<u32>,
    xnor: Vec<u32>,
    sum: Vec<u32>,
}

/// One bit-accurate EVE SRAM array.
///
/// Rows are addressed logically: register `v` occupies rows
/// `v * segments .. (v+1) * segments`, architectural registers first,
/// then the μprogram scratch registers. (Physically registers beyond a
/// column group's capacity spill into repurposed column stacks — see
/// DESIGN.md; the logical view is bit- and cycle-equivalent.)
#[derive(Debug, Clone)]
pub struct ScalarArray {
    cfg: HybridConfig,
    lanes: usize,
    seg_mask: u32,
    /// `storage[row][lane]`: the `n`-bit segment of each lane.
    storage: Vec<Vec<u32>>,
    /// XRegister: `n`-bit shift-right register per lane.
    xreg: Vec<u32>,
    /// Add-logic carry, held in a spare-shifter flip-flop (§III-C).
    carry: Vec<bool>,
    /// Mask latches, one per lane.
    mask: Vec<bool>,
    /// Constant shifter contents per lane.
    shifter: Vec<u32>,
    /// Spare shifter's cross-segment bit per lane.
    spare: Vec<bool>,
    /// Latched outputs of the last `blc`.
    blc: BlcLatch,
    /// Data driven out by the last `Read` μop.
    data_out: Vec<u32>,
    /// Data presented on the data-in port for `WriteDataIn`.
    data_in: Vec<u32>,
    /// Fault injection and parity tracking; `None` in healthy runs so
    /// the hot path pays nothing.
    fault: Option<FaultState>,
}

impl ScalarArray {
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
        let bits = cfg.segment_bits();
        let seg_mask = if bits == 32 {
            u32::MAX
        } else {
            (1 << bits) - 1
        };
        Self {
            cfg,
            lanes,
            seg_mask,
            storage: vec![vec![0; lanes]; rows],
            xreg: vec![0; lanes],
            carry: vec![false; lanes],
            mask: vec![false; lanes],
            shifter: vec![0; lanes],
            spare: vec![false; lanes],
            blc: BlcLatch::default(),
            data_out: vec![0; lanes],
            data_in: vec![0; lanes],
            fault: None,
        }
    }

    /// Attaches a fault injector and switches on parity tracking: the
    /// current contents get fresh parity, and every later write
    /// regenerates its row's parity from the intended value.
    pub fn attach_injector(&mut self, mut inj: FaultInjector) {
        let rows = self.storage.len();
        inj.arm(rows as u32, self.lanes as u32, self.cfg.segment_bits());
        let parity = self
            .storage
            .iter()
            .map(|row| row.iter().map(|&v| odd_parity(v)).collect())
            .collect();
        self.fault = Some(FaultState {
            inj,
            parity,
            alarms: 0,
        });
    }

    /// Detaches and returns the injector, switching parity checking
    /// off.
    pub fn detach_injector(&mut self) -> Option<FaultInjector> {
        self.fault.take().map(|f| f.inj)
    }

    /// The attached injector, if any.
    #[must_use]
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref().map(|f| &f.inj)
    }

    /// Parity mismatches observed on μprogram reads so far.
    #[must_use]
    pub fn parity_alarms(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.alarms)
    }

    /// Returns and clears the parity alarm counter (the recovery
    /// controller's acknowledge).
    pub fn take_parity_alarms(&mut self) -> u64 {
        match &mut self.fault {
            Some(f) => std::mem::take(&mut f.alarms),
            None => 0,
        }
    }

    /// Writes one segment cell, generating parity from the intended
    /// value and then letting the injector corrupt the latch.
    #[inline]
    fn store_cell(&mut self, row: usize, lane: usize, value: u32) {
        match &mut self.fault {
            None => self.storage[row][lane] = value,
            Some(f) => {
                f.parity[row][lane] = odd_parity(value);
                self.storage[row][lane] = f.inj.corrupt_write(row as u32, lane as u32, value);
            }
        }
    }

    /// Checks a cell's parity on a μprogram read, raising an alarm on
    /// mismatch.
    #[inline]
    fn check_parity(&mut self, row: usize, lane: usize) {
        if let Some(f) = &mut self.fault {
            if f.parity[row][lane] != odd_parity(self.storage[row][lane]) {
                f.alarms += 1;
            }
        }
    }

    /// Parity-checks every lane of a row (the row is read as one wide
    /// word, parity bits interleaved lane by lane).
    #[inline]
    fn check_row_parity(&mut self, row: usize) {
        if self.fault.is_some() {
            for lane in 0..self.lanes {
                self.check_parity(row, lane);
            }
        }
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
            let row = self.reg_row(vreg, s);
            value = deposit_bits(value, s * bits, bits, self.storage[row][lane]);
        }
        value
    }

    /// Reads the mask bit register `vreg` holds for `lane` (bit 0 of the
    /// register's first row — how compare results are stored).
    #[must_use]
    pub fn read_mask_bit(&self, vreg: u32, lane: usize) -> bool {
        let row = self.reg_row(vreg, 0);
        self.storage[row][lane] & 1 == 1
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
        let mut counters = CounterFile::new();
        let mut pc: usize = 0;
        let mut cycles: u64 = 0;
        let tuples = prog.tuples();
        loop {
            assert!(pc < tuples.len(), "{}: pc {pc} off the end", prog.name());
            let tuple = &tuples[pc];
            cycles += 1;
            assert!(cycles < 2_000_000, "{}: runaway program", prog.name());
            if let Some(f) = &mut self.fault {
                f.inj.tick();
            }
            // Arithmetic resolves rows against start-of-cycle counters.
            self.exec_arith(&tuple.arith, binding, &counters);
            match tuple.counter {
                CounterUop::Nop => {}
                CounterUop::Init { ctr, value } => counters.init(ctr, value),
                CounterUop::Decr(ctr) => counters.decr(ctr),
                CounterUop::Incr(ctr) => counters.incr(ctr),
            }
            match tuple.control {
                ControlUop::Nop => pc += 1,
                ControlUop::Bnz { ctr, target } => {
                    if counters.take_zero_flag(ctr) {
                        pc += 1;
                    } else {
                        pc = target as usize;
                    }
                }
                ControlUop::BnzRet { ctr, target } => {
                    if counters.take_zero_flag(ctr) {
                        return Cycle(cycles);
                    }
                    pc = target as usize;
                }
                ControlUop::Bnd { ctr, target } => {
                    if counters.take_decade_flag(ctr) {
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                }
                ControlUop::Jump { target } => pc = target as usize,
                ControlUop::Ret => return Cycle(cycles),
            }
        }
    }

    fn reg_row(&self, vreg: u32, seg: u32) -> usize {
        assert!(
            vreg < ARCH_VREGS + SCRATCH_VREGS,
            "register {vreg} out of range"
        );
        let segs = self.cfg.segments();
        assert!(seg < segs, "segment {seg} out of range");
        (vreg * segs + seg) as usize
    }

    fn resolve(&self, op: &Operand, binding: &Binding, counters: &CounterFile) -> usize {
        let vreg = match op.slot {
            VSlot::D => u32::from(binding.d()),
            VSlot::S1 => u32::from(binding.s1()),
            VSlot::S2 => u32::from(binding.s2()),
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

    fn exec_arith(&mut self, uop: &ArithUop, binding: &Binding, counters: &CounterFile) {
        match *uop {
            ArithUop::Nop => {}
            ArithUop::Read { op } => {
                let row = self.resolve(&op, binding, counters);
                self.check_row_parity(row);
                self.data_out.copy_from_slice(&self.storage[row]);
            }
            ArithUop::WriteConst { op, value, masked } => {
                let row = self.resolve(&op, binding, counters);
                for lane in 0..self.lanes {
                    if !masked || self.mask[lane] {
                        self.store_cell(row, lane, value & self.seg_mask);
                    }
                }
            }
            ArithUop::WriteDataIn { op } => {
                let row = self.resolve(&op, binding, counters);
                for lane in 0..self.lanes {
                    let v = self.data_in[lane] & self.seg_mask;
                    self.store_cell(row, lane, v);
                }
            }
            ArithUop::Blc { a, b, carry_in } => {
                let ra = self.resolve(&a, binding, counters);
                let rb = self.resolve(&b, binding, counters);
                self.do_blc(ra, rb, carry_in);
            }
            ArithUop::Writeback { dst, src, masked } => {
                let value: Vec<u32> = (0..self.lanes)
                    .map(|lane| self.compute_value(src, lane))
                    .collect();
                match dst {
                    WbDest::Row(op) => {
                        let row = self.resolve(&op, binding, counters);
                        for lane in 0..self.lanes {
                            if !masked || self.mask[lane] {
                                self.store_cell(row, lane, value[lane]);
                            }
                        }
                    }
                    WbDest::MaskReg => {
                        for lane in 0..self.lanes {
                            if !masked || self.mask[lane] {
                                self.mask[lane] = value[lane] & 1 == 1;
                            }
                        }
                    }
                    WbDest::XReg => {
                        for lane in 0..self.lanes {
                            if !masked || self.mask[lane] {
                                self.xreg[lane] = value[lane];
                            }
                        }
                    }
                }
            }
            ArithUop::LoadShifter { op } => {
                let row = self.resolve(&op, binding, counters);
                self.check_row_parity(row);
                self.shifter.copy_from_slice(&self.storage[row]);
            }
            ArithUop::StoreShifter { op, masked } => {
                let row = self.resolve(&op, binding, counters);
                for lane in 0..self.lanes {
                    if !masked || self.mask[lane] {
                        let v = self.shifter[lane];
                        self.store_cell(row, lane, v);
                    }
                }
            }
            ArithUop::LoadXReg { op } => {
                let row = self.resolve(&op, binding, counters);
                self.check_row_parity(row);
                self.xreg.copy_from_slice(&self.storage[row]);
            }
            ArithUop::ShiftLeft { masked } => {
                let msb = self.cfg.segment_bits() - 1;
                for lane in 0..self.lanes {
                    if masked && !self.mask[lane] {
                        continue;
                    }
                    let out = (self.shifter[lane] >> msb) & 1 == 1;
                    self.shifter[lane] =
                        ((self.shifter[lane] << 1) | u32::from(self.spare[lane])) & self.seg_mask;
                    self.spare[lane] = out;
                }
            }
            ArithUop::ShiftRight { masked } => {
                let msb = self.cfg.segment_bits() - 1;
                for lane in 0..self.lanes {
                    if masked && !self.mask[lane] {
                        continue;
                    }
                    let out = self.shifter[lane] & 1 == 1;
                    self.shifter[lane] =
                        (self.shifter[lane] >> 1) | (u32::from(self.spare[lane]) << msb);
                    self.spare[lane] = out;
                }
            }
            ArithUop::RotateLeft { masked } => {
                let msb = self.cfg.segment_bits() - 1;
                for lane in 0..self.lanes {
                    if masked && !self.mask[lane] {
                        continue;
                    }
                    let out = (self.shifter[lane] >> msb) & 1;
                    self.shifter[lane] = ((self.shifter[lane] << 1) | out) & self.seg_mask;
                }
            }
            ArithUop::RotateRight { masked } => {
                let msb = self.cfg.segment_bits() - 1;
                for lane in 0..self.lanes {
                    if masked && !self.mask[lane] {
                        continue;
                    }
                    let out = self.shifter[lane] & 1;
                    self.shifter[lane] = (self.shifter[lane] >> 1) | (out << msb);
                }
            }
            ArithUop::MaskShift => {
                for lane in 0..self.lanes {
                    self.xreg[lane] >>= 1;
                }
            }
            ArithUop::SetMask { src, invert } => {
                let msb = self.cfg.segment_bits() - 1;
                for lane in 0..self.lanes {
                    let bit = match src {
                        MaskSrc::XRegLsb => self.xreg[lane] & 1 == 1,
                        MaskSrc::XRegMsb => (self.xreg[lane] >> msb) & 1 == 1,
                        MaskSrc::AddMsb => {
                            let sum = self.blc.sum.get(lane).copied().unwrap_or(0);
                            (sum >> msb) & 1 == 1
                        }
                        MaskSrc::Carry => self.carry[lane],
                        MaskSrc::AllOnes => true,
                    };
                    self.mask[lane] = bit != invert;
                }
            }
            ArithUop::SetCarry { value } => {
                self.carry.iter_mut().for_each(|c| *c = value);
            }
            ArithUop::ClearSpare => {
                self.spare.iter_mut().for_each(|s| *s = false);
            }
        }
    }

    fn do_blc(&mut self, ra: usize, rb: usize, carry_in: CarryIn) {
        self.check_row_parity(ra);
        self.check_row_parity(rb);
        let lanes = self.lanes;
        let mut latch = BlcLatch {
            and: Vec::with_capacity(lanes),
            nand: Vec::with_capacity(lanes),
            or: Vec::with_capacity(lanes),
            nor: Vec::with_capacity(lanes),
            xor: Vec::with_capacity(lanes),
            xnor: Vec::with_capacity(lanes),
            sum: Vec::with_capacity(lanes),
        };
        for lane in 0..lanes {
            let mut a = self.storage[ra][lane];
            let mut b = self.storage[rb][lane];
            if let Some(f) = &mut self.fault {
                // Sense-amp glitches corrupt the operands *before* the
                // logic layers latch them.
                a = f.inj.corrupt_sense(ra as u32, lane as u32, a);
                b = f.inj.corrupt_sense(rb as u32, lane as u32, b);
            }
            let and = a & b;
            let or = a | b;
            let nand = !and & self.seg_mask;
            let nor = !or & self.seg_mask;
            // XOR/XNOR logic layer: derived from nand and or (§III).
            let xor = nand & or;
            let xnor = !xor & self.seg_mask;
            let cin = match carry_in {
                CarryIn::Stored => u32::from(self.carry[lane]),
                CarryIn::Zero => 0,
                CarryIn::One => 1,
            };
            // Manchester carry chain over the n-bit segment.
            let wide = u64::from(a) + u64::from(b) + u64::from(cin);
            let sum = (wide as u32) & self.seg_mask;
            let cout = wide >> self.cfg.segment_bits() != 0;
            self.carry[lane] = cout;
            latch.and.push(and);
            latch.nand.push(nand);
            latch.or.push(or);
            latch.nor.push(nor);
            latch.xor.push(xor);
            latch.xnor.push(xnor);
            latch.sum.push(sum);
        }
        self.blc = latch;
    }

    fn compute_value(&self, src: ComputeSrc, lane: usize) -> u32 {
        let pick = |v: &Vec<u32>| v.get(lane).copied().unwrap_or(0);
        match src {
            ComputeSrc::And => pick(&self.blc.and),
            ComputeSrc::Nand => pick(&self.blc.nand),
            ComputeSrc::Or => pick(&self.blc.or),
            ComputeSrc::Nor => pick(&self.blc.nor),
            ComputeSrc::Xor => pick(&self.blc.xor),
            ComputeSrc::Xnor => pick(&self.blc.xnor),
            ComputeSrc::Add => pick(&self.blc.sum),
            ComputeSrc::Shift => self.shifter[lane],
            ComputeSrc::Mask => u32::from(self.mask[lane]),
        }
    }
}
