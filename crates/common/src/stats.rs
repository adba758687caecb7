//! Named statistic counters.
//!
//! Every timing model in the workspace exposes its measurements through a
//! [`Stats`] table so the experiment runner can collect them uniformly —
//! the same role gem5's stats framework plays for the paper's evaluation.
//! While a model runs it counts in [`Counters`]: fixed typed slots that
//! cost an array add per event. `Stats` is the report form, built from
//! the slots only when a report asks for it.

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

/// A single named counter.
///
/// # Examples
///
/// ```
/// use eve_common::Stat;
/// let mut s = Stat::default();
/// s.add(3);
/// s.incr();
/// assert_eq!(s.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stat(u64);

impl Stat {
    /// Creates a counter starting at `value`.
    #[must_use]
    pub fn new(value: u64) -> Self {
        Stat(value)
    }

    /// Adds `amount` to the counter.
    pub fn add(&mut self, amount: u64) {
        self.0 += amount;
    }

    /// Adds one to the counter.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Stat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A table of named counters, keyed by a dotted path such as
/// `"l2.misses"` or `"vmu.llc_stall_cycles"`.
///
/// Keys are created on first use; reading a key that was never written
/// returns zero, which keeps report code free of `Option` plumbing.
///
/// # Examples
///
/// ```
/// use eve_common::Stats;
/// let mut stats = Stats::new();
/// stats.add("l2.misses", 10);
/// stats.add("l2.misses", 1);
/// assert_eq!(stats.get("l2.misses"), 11);
/// assert_eq!(stats.get("never.touched"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    counters: BTreeMap<String, Stat>,
}

impl Stats {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to the counter named `key`, creating it if absent.
    pub fn add(&mut self, key: &str, amount: u64) {
        match self.counters.get_mut(key) {
            Some(stat) => stat.add(amount),
            None => {
                self.counters.insert(key.to_owned(), Stat::new(amount));
            }
        }
    }

    /// Sets the counter named `key` to `value`.
    pub fn set(&mut self, key: &str, value: u64) {
        self.counters.insert(key.to_owned(), Stat::new(value));
    }

    /// Value of the counter named `key`, or zero if never written.
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).map_or(0, Stat::value)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.value()))
    }

    /// Merges another table into this one, summing matching keys.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Number of distinct counters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no counter has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// The report keys of a [`Counters`] set, one per slot.
///
/// Implemented by the fieldless enums [`counter_slots!`](crate::counter_slots)
/// declares: a variant's discriminant is its slot.
pub trait CounterSlot: Copy {
    /// Report key of every slot, in discriminant order.
    const NAMES: &'static [&'static str];

    /// This slot's index into [`CounterSlot::NAMES`].
    fn index(self) -> usize;
}

/// Declares a fieldless enum of [`Counters`] slots, pairing each
/// variant with its report key.
///
/// # Examples
///
/// ```
/// use eve_common::{counter_slots, Counters};
///
/// counter_slots! {
///     enum Ctr {
///         Hits => "hits",
///         Misses => "misses",
///     }
/// }
///
/// let mut ctr = Counters::<Ctr>::new();
/// ctr.incr(Ctr::Hits);
/// ctr.add(Ctr::Misses, 0);
/// let stats = ctr.to_stats();
/// assert_eq!(stats.get("hits"), 1);
/// // Written once, even by an add of zero: the key is reported.
/// assert_eq!(stats.iter().count(), 2);
/// ```
#[macro_export]
macro_rules! counter_slots {
    (enum $name:ident { $($slot:ident => $key:literal),+ $(,)? }) => {
        #[derive(Debug, Clone, Copy)]
        enum $name {
            $($slot),+
        }

        impl $crate::CounterSlot for $name {
            const NAMES: &'static [&'static str] = &[$($key),+];

            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// Most slots one [`Counters`] set holds.
const MAX_SLOTS: usize = 32;

/// A timing model's counters in fixed typed slots.
///
/// Counting an event is an array add — no key lookup, no allocation.
/// [`Stats`] is the report form, built from the slots only on demand
/// ([`Counters::to_stats`], [`Counters::write_to`]). A key appears there
/// exactly when its slot was written at least once, even by an add of
/// zero, so a report's key set does not depend on how counting is done.
#[derive(Debug, Clone)]
pub struct Counters<S> {
    values: [u64; MAX_SLOTS],
    /// Bit `i` is set once slot `i` has been written.
    written: u32,
    slots: PhantomData<S>,
}

impl<S: CounterSlot> Default for Counters<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: CounterSlot> Counters<S> {
    /// A set with no slot written.
    #[must_use]
    pub fn new() -> Self {
        const { assert!(S::NAMES.len() <= MAX_SLOTS, "too many counter slots") };
        Self {
            values: [0; MAX_SLOTS],
            written: 0,
            slots: PhantomData,
        }
    }

    /// Adds `amount` to `slot`.
    #[inline]
    pub fn add(&mut self, slot: S, amount: u64) {
        let i = slot.index();
        self.values[i] += amount;
        self.written |= 1 << i;
    }

    /// Adds one to `slot`.
    #[inline]
    pub fn incr(&mut self, slot: S) {
        self.add(slot, 1);
    }

    /// Sets `slot` to `value`.
    #[inline]
    pub fn set(&mut self, slot: S, value: u64) {
        let i = slot.index();
        self.values[i] = value;
        self.written |= 1 << i;
    }

    /// Adds every written slot to `stats` under `prefix` + its key.
    pub fn write_to(&self, stats: &mut Stats, prefix: &str) {
        for (i, name) in S::NAMES.iter().enumerate() {
            if self.written & (1 << i) != 0 {
                stats.add(&format!("{prefix}{name}"), self.values[i]);
            }
        }
    }

    /// The written slots as a report table, keyed without a prefix.
    #[must_use]
    pub fn to_stats(&self) -> Stats {
        let mut stats = Stats::new();
        self.write_to(&mut stats, "");
        stats
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<48} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_key_reads_zero() {
        let stats = Stats::new();
        assert_eq!(stats.get("nope"), 0);
        assert!(stats.is_empty());
    }

    #[test]
    fn add_incr_set() {
        let mut stats = Stats::new();
        stats.add("a", 5);
        stats.add("a", 1);
        stats.set("b", 100);
        stats.set("b", 7);
        assert_eq!(stats.get("a"), 6);
        assert_eq!(stats.get("b"), 7);
        assert_eq!(stats.len(), 2);
    }

    crate::counter_slots! {
        enum Ctr {
            Hits => "hits",
            Misses => "misses",
            Waits => "wait_cycles",
            Depth => "depth",
        }
    }

    #[test]
    fn counters_report_exactly_the_written_slots() {
        let mut ctr = Counters::<Ctr>::new();
        assert!(
            ctr.to_stats().is_empty(),
            "an untouched set reports nothing"
        );

        ctr.incr(Ctr::Hits);
        ctr.add(Ctr::Hits, 2);
        // An add of 0 writes the slot: the key is present, with 0.
        ctr.add(Ctr::Waits, 0);
        ctr.set(Ctr::Depth, 9);
        ctr.set(Ctr::Depth, 4);
        let s = ctr.to_stats();
        let keys: Vec<(&str, u64)> = s.iter().collect();
        // `misses` was never written, so it is absent.
        assert_eq!(keys, [("depth", 4), ("hits", 3), ("wait_cycles", 0)]);
    }

    #[test]
    fn counters_write_under_a_prefix_and_sum_into_existing_keys() {
        let mut ctr = Counters::<Ctr>::new();
        ctr.add(Ctr::Misses, 5);
        ctr.add(Ctr::Waits, 0);
        let mut s = Stats::new();
        s.add("l2.misses", 1);
        ctr.write_to(&mut s, "l2.");
        let keys: Vec<(&str, u64)> = s.iter().collect();
        assert_eq!(keys, [("l2.misses", 6), ("l2.wait_cycles", 0)]);
    }

    #[test]
    fn merge_sums_keys() {
        let mut a = Stats::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Stats::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut stats = Stats::new();
        stats.add("b", 1);
        stats.add("a", 1);
        stats.add("c", 1);
        let names: Vec<&str> = stats.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn display_lists_counters() {
        let mut stats = Stats::new();
        stats.set("one", 1);
        let out = stats.to_string();
        assert!(out.contains("one"));
        assert!(out.trim().ends_with('1'));
    }
}
