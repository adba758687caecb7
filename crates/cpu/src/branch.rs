//! A 2-bit saturating-counter branch predictor.

/// Classic bimodal predictor: a table of 2-bit saturating counters
/// indexed by PC.
///
/// # Examples
///
/// ```
/// use eve_cpu::BranchPredictor;
/// let mut bp = BranchPredictor::new(1024);
/// // An always-taken loop branch trains quickly.
/// let mut mispredicts = 0;
/// for _ in 0..100 {
///     if bp.predict(0x40) != true {
///         mispredicts += 1;
///     }
///     bp.update(0x40, true);
/// }
/// assert!(mispredicts <= 2);
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    table: Vec<u8>,
}

impl BranchPredictor {
    /// A predictor with `entries` counters (rounded up to a power of
    /// two), initialized weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        Self {
            table: vec![1; entries.next_power_of_two()],
        }
    }

    #[inline]
    fn index(&self, pc: u32) -> usize {
        pc as usize & (self.table.len() - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    #[inline]
    #[must_use]
    pub fn predict(&self, pc: u32) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Trains the counter with the resolved direction.
    #[inline]
    pub fn update(&mut self, pc: u32, taken: bool) {
        let i = self.index(pc);
        let e = &mut self.table[i];
        if taken {
            *e = (*e + 1).min(3);
        } else {
            *e = e.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_prediction_not_taken() {
        let bp = BranchPredictor::new(16);
        assert!(!bp.predict(0));
    }

    #[test]
    fn saturates_both_directions() {
        let mut bp = BranchPredictor::new(16);
        for _ in 0..10 {
            bp.update(5, true);
        }
        assert!(bp.predict(5));
        // One not-taken does not flip a saturated counter.
        bp.update(5, false);
        assert!(bp.predict(5));
        bp.update(5, false);
        assert!(!bp.predict(5));
    }

    #[test]
    fn entries_alias_by_power_of_two() {
        let mut bp = BranchPredictor::new(3); // rounds to 4
        bp.update(0, true);
        bp.update(0, true);
        assert!(bp.predict(4)); // aliases with 0
        assert!(!bp.predict(1));
    }
}
