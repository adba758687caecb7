//! Time units: simulated clock cycles and wall-clock picoseconds.
//!
//! Cycle-approximate models count [`Cycle`]s; because EVE-16 and EVE-32 run
//! at a slower clock (§VI.B of the paper), comparing machines requires
//! converting cycles to [`Picos`] through each machine's cycle time.
//!
//! Every timing model runs this arithmetic several times per simulated
//! instruction, from other crates, so every public item is `#[inline]`
//! (the lint below keeps it so).

#![warn(clippy::missing_inline_in_public_items)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A count of simulated clock cycles.
///
/// `Cycle` is an absolute point on a machine's clock or a duration,
/// depending on context; arithmetic is saturating-free (overflow panics in
/// debug builds like any integer).
///
/// # Examples
///
/// ```
/// use eve_common::Cycle;
/// assert_eq!(Cycle(3) + Cycle(4), Cycle(7));
/// assert_eq!(Cycle(10) - Cycle(4), Cycle(6));
/// assert_eq!(Cycle(3) * 4, Cycle(12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero cycle, the start of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the later of two cycle counts.
    #[inline]
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two cycle counts.
    #[inline]
    #[must_use]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Duration from `earlier` to `self`, clamping at zero if `earlier`
    /// is actually later.
    #[inline]
    #[must_use]
    pub fn saturating_since(self, earlier: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(earlier.0))
    }

    /// Converts this cycle count to picoseconds at the given cycle time.
    #[inline]
    #[must_use]
    pub fn to_picos(self, cycle_time: Picos) -> Picos {
        Picos(self.0.saturating_mul(cycle_time.0))
    }
}

impl Add for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    #[inline]
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn mul(self, rhs: u64) -> Cycle {
        Cycle(self.0 * rhs)
    }
}

impl Sum for Cycle {
    #[inline]
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycle {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycle {
    #[inline]
    fn from(v: u64) -> Cycle {
        Cycle(v)
    }
}

/// A duration in picoseconds.
///
/// The paper's vanilla SRAM cycle time is 1.025 ns = `Picos(1025)`; EVE-16
/// stretches that to 1.175 ns and EVE-32 to 1.55 ns.
///
/// # Examples
///
/// ```
/// use eve_common::Picos;
/// let base = Picos(1025);
/// assert_eq!(base.scale_percent(115), Picos(1179)); // ~15% penalty
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(pub u64);

impl Picos {
    /// Scales this duration by `percent`/100 with integer rounding.
    #[inline]
    #[must_use]
    pub fn scale_percent(self, percent: u64) -> Picos {
        Picos((self.0 * percent + 50) / 100)
    }

    /// This duration expressed in nanoseconds (lossy).
    #[inline]
    #[must_use]
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

impl Add for Picos {
    type Output = Picos;
    #[inline]
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    #[inline]
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sum for Picos {
    #[inline]
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        Picos(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Picos {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_nanos_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let mut c = Cycle(5);
        c += Cycle(3);
        assert_eq!(c, Cycle(8));
        c -= Cycle(2);
        assert_eq!(c, Cycle(6));
        assert_eq!(c * 2, Cycle(12));
        assert_eq!(Cycle(4).max(Cycle(9)), Cycle(9));
        assert_eq!(Cycle(4).min(Cycle(9)), Cycle(4));
    }

    #[test]
    fn cycle_saturating_since() {
        assert_eq!(Cycle(10).saturating_since(Cycle(4)), Cycle(6));
        assert_eq!(Cycle(4).saturating_since(Cycle(10)), Cycle(0));
    }

    #[test]
    fn cycle_sum() {
        let total: Cycle = [Cycle(1), Cycle(2), Cycle(3)].into_iter().sum();
        assert_eq!(total, Cycle(6));
    }

    #[test]
    fn picos_conversion_matches_paper_clock() {
        // 1000 cycles at the vanilla 1.025ns clock is 1.025 us.
        assert_eq!(Cycle(1000).to_picos(Picos(1025)), Picos(1_025_000));
    }

    #[test]
    fn picos_scaling() {
        // EVE-32's 51% penalty over 1.025ns lands near the paper's 1.55ns.
        let scaled = Picos(1025).scale_percent(151);
        assert!(scaled.0 >= 1540 && scaled.0 <= 1560, "{scaled:?}");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cycle(7).to_string(), "7 cycles");
        assert_eq!(Picos(1025).to_string(), "1.025 ns");
    }
}
