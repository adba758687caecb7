//! Energy model (§VI.B power analysis, §VII energy discussion).
//!
//! The paper's extracted-netlist analysis established relative SRAM
//! operation energies: reads and writes match a vanilla SRAM; the
//! extra EVE operations cost far less (no sense amps or bit-line
//! precharge); `blc` costs ~20 % more than a read, the most expensive
//! vanilla operation. EVE's efficiency then comes from *counting*:
//! vector execution in place eliminates the H-tree round trips and the
//! multi-ported vector register file accesses a decoupled engine pays.
//!
//! Energies are expressed in *read-equivalents* (1.0 = one vanilla
//! SRAM array read), so the model stays technology-independent.

use eve_uop::{ArithUop, HybridConfig, MacroOpKind, MicroProgram, ProgramLibrary};

/// Relative energy of one SRAM-level operation, in read-equivalents.
#[must_use]
pub fn uop_energy(uop: &ArithUop) -> f64 {
    match uop {
        // Bit-line compute: both wordlines up, single-ended sensing —
        // ~20% over a read (§VI.B).
        ArithUop::Blc { .. } => 1.20,
        // Native read/write match the vanilla SRAM.
        ArithUop::Read { .. } | ArithUop::WriteDataIn { .. } => 1.00,
        ArithUop::WriteConst { .. } => 1.00,
        // Writebacks drive the bus logic and a row write.
        ArithUop::Writeback { .. } | ArithUop::StoreShifter { .. } => 1.00,
        ArithUop::LoadShifter { .. } | ArithUop::LoadXReg { .. } => 1.00,
        // Pure peripheral toggles: no sense amps, no precharge.
        ArithUop::ShiftLeft { .. }
        | ArithUop::ShiftRight { .. }
        | ArithUop::RotateLeft { .. }
        | ArithUop::RotateRight { .. }
        | ArithUop::MaskShift
        | ArithUop::SetMask { .. }
        | ArithUop::SetCarry { .. }
        | ArithUop::ClearSpare => 0.10,
        ArithUop::Nop => 0.0,
    }
}

/// Total energy of one μprogram execution, in read-equivalents per
/// active array (sums the arithmetic μops actually executed).
///
/// # Panics
///
/// Panics on malformed programs, like [`eve_uop::walk`].
#[must_use]
pub fn program_energy(prog: &MicroProgram, _cfg: HybridConfig) -> f64 {
    let mut energy = 0.0;
    eve_uop::walk(prog, |arith, _| energy += uop_energy(arith));
    energy
}

/// Per-element energy of a macro-operation at a design point: program
/// energy divided by the lanes computing in parallel.
#[must_use]
pub fn energy_per_element(kind: MacroOpKind, cfg: HybridConfig, lanes: u32) -> f64 {
    let prog = ProgramLibrary::new(cfg).program(kind);
    program_energy(&prog, cfg) / f64::from(lanes.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_sram::{LayoutModel, SramGeometry};

    fn lanes(n: u32) -> u32 {
        LayoutModel::new(SramGeometry::PAPER, 32, 32, n)
            .unwrap()
            .lanes()
    }

    #[test]
    fn blc_is_twenty_percent_over_read() {
        let blc = ArithUop::Blc {
            a: eve_uop::Operand::at(eve_uop::VSlot::S1, 0),
            b: eve_uop::Operand::at(eve_uop::VSlot::S2, 0),
            carry_in: eve_uop::CarryIn::Zero,
        };
        assert!((uop_energy(&blc) - 1.2).abs() < 1e-12);
        assert_eq!(uop_energy(&ArithUop::Nop), 0.0);
    }

    #[test]
    fn add_energy_scales_with_segments() {
        // A segment-serial add touches each segment once: energy is
        // roughly proportional to the segment count.
        let e1 = program_energy(
            &ProgramLibrary::new(HybridConfig::new(1).unwrap()).program(MacroOpKind::Add),
            HybridConfig::new(1).unwrap(),
        );
        let e32 = program_energy(
            &ProgramLibrary::new(HybridConfig::new(32).unwrap()).program(MacroOpKind::Add),
            HybridConfig::new(32).unwrap(),
        );
        let ratio = e1 / e32;
        assert!(ratio > 16.0 && ratio < 40.0, "{ratio}");
    }

    #[test]
    fn per_element_add_energy_is_flat_across_hybrids_with_full_lanes() {
        // EVE-1..4 share 64 lanes; their per-element energies order by
        // segment count. EVE-8+ halve lanes but also halve segments,
        // roughly cancelling — the VRAM observation that paradigms
        // have comparable energy efficiency.
        let e4 = energy_per_element(MacroOpKind::Add, HybridConfig::new(4).unwrap(), lanes(4));
        let e8 = energy_per_element(MacroOpKind::Add, HybridConfig::new(8).unwrap(), lanes(8));
        let e32 = energy_per_element(MacroOpKind::Add, HybridConfig::new(32).unwrap(), lanes(32));
        assert!((e8 / e4 - 1.0).abs() < 0.5, "e4 {e4} e8 {e8}");
        assert!((e32 / e4 - 1.0).abs() < 1.0, "e4 {e4} e32 {e32}");
    }

    #[test]
    fn multiply_costs_more_than_add() {
        let cfg = HybridConfig::new(8).unwrap();
        let add = energy_per_element(MacroOpKind::Add, cfg, lanes(8));
        let mul = energy_per_element(MacroOpKind::Mul, cfg, lanes(8));
        assert!(mul > 10.0 * add, "add {add} mul {mul}");
    }
}
