//! Cache and DRAM configuration, with Table III presets.

use crate::LINE_BYTES;
use eve_common::{ConfigError, ConfigResult};

/// Configuration of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Diagnostic name (`"l1d"`, `"l2"`, ...).
    pub name: String,
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Cycles from request to data on a hit.
    pub hit_latency: u64,
    /// Miss-status holding registers: outstanding misses supported.
    pub mshrs: u32,
    /// Independent banks (per-cycle access throughput).
    pub banks: u32,
}

impl CacheConfig {
    /// Validates and computes the set count.
    ///
    /// # Errors
    ///
    /// Returns an error unless `size / (ways * 64)` and the bank count
    /// are powers of two and all parameters are nonzero: a line's set
    /// and bank are masks of its address.
    pub fn sets(&self) -> ConfigResult<u64> {
        if self.ways == 0 || self.mshrs == 0 || self.banks == 0 {
            return Err(ConfigError::new(format!(
                "cache {}: ways/mshrs/banks must be nonzero",
                self.name
            )));
        }
        if !self.banks.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "cache {}: bank count {} not a power of two",
                self.name, self.banks
            )));
        }
        let denom = u64::from(self.ways) * LINE_BYTES;
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(denom) {
            return Err(ConfigError::new(format!(
                "cache {}: size {} not divisible by ways*line",
                self.name, self.size_bytes
            )));
        }
        let sets = self.size_bytes / denom;
        if !sets.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "cache {}: set count {sets} not a power of two",
                self.name
            )));
        }
        Ok(sets)
    }

    /// Table III L1I: 1-cycle-hit 4-way 32 KB, 16 MSHRs.
    #[must_use]
    pub fn l1i() -> Self {
        Self {
            name: "l1i".into(),
            size_bytes: 32 << 10,
            ways: 4,
            hit_latency: 1,
            mshrs: 16,
            banks: 1,
        }
    }

    /// Table III L1D: 2-cycle-hit 4-way 32 KB, 16 MSHRs.
    #[must_use]
    pub fn l1d() -> Self {
        Self {
            name: "l1d".into(),
            size_bytes: 32 << 10,
            ways: 4,
            hit_latency: 2,
            mshrs: 16,
            banks: 1,
        }
    }

    /// Table III L2: 8-way 8-bank 8-cycle-hit 512 KB, 32 MSHRs.
    #[must_use]
    pub fn l2() -> Self {
        Self {
            name: "l2".into(),
            size_bytes: 512 << 10,
            ways: 8,
            hit_latency: 8,
            mshrs: 32,
            banks: 8,
        }
    }

    /// Table III L2 in EVE vector mode: 4-way 256 KB (half the ways
    /// donated to the engine).
    #[must_use]
    pub fn l2_vector_mode() -> Self {
        Self {
            name: "l2v".into(),
            size_bytes: 256 << 10,
            ways: 4,
            hit_latency: 8,
            mshrs: 32,
            banks: 8,
        }
    }

    /// Table III L2 with an arbitrary way split: `ways` of the eight
    /// 64 KB ways left to the cache, the rest donated to engines. The
    /// set count stays at 1024 for any split — way partitioning never
    /// re-indexes (§V-E), it only narrows associativity.
    #[must_use]
    pub fn l2_with_ways(ways: u32) -> Self {
        Self {
            name: if ways == 8 { "l2".into() } else { "l2v".into() },
            size_bytes: u64::from(ways) * (64 << 10),
            ways,
            hit_latency: 8,
            mshrs: 32,
            banks: 8,
        }
    }

    /// Table III LLC: 16-way 12-cycle-hit 2 MB, 32 MSHRs.
    #[must_use]
    pub fn llc() -> Self {
        Self {
            name: "llc".into(),
            size_bytes: 2 << 20,
            ways: 16,
            hit_latency: 12,
            mshrs: 32,
            banks: 8,
        }
    }
}

/// DRAM channel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Cycles from channel issue to first data (closed-page typical).
    pub latency: u64,
    /// Channel occupancy per 64-byte line (bounds bandwidth).
    pub cycles_per_line: u64,
}

impl DramConfig {
    /// Single-channel DDR4-2400-like: ~60-cycle access latency at a
    /// ~1 GHz core clock, 19.2 GB/s peak → one line every ~3 cycles.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        Self {
            latency: 60,
            cycles_per_line: 3,
        }
    }
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Instruction L1.
    pub l1i: CacheConfig,
    /// Data L1.
    pub l1d: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Memory channel.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// The configuration every simulated system shares (Table III).
    #[must_use]
    pub fn table_iii() -> Self {
        Self {
            l1i: CacheConfig::l1i(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            llc: CacheConfig::llc(),
            dram: DramConfig::ddr4_2400(),
        }
    }

    /// Table III with the L2 way-partitioned for EVE's vector mode.
    #[must_use]
    pub fn table_iii_vector_mode() -> Self {
        Self {
            l2: CacheConfig::l2_vector_mode(),
            ..Self::table_iii()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(CacheConfig::l1i().sets().unwrap(), 128);
        assert_eq!(CacheConfig::l1d().sets().unwrap(), 128);
        assert_eq!(CacheConfig::l2().sets().unwrap(), 1024);
        assert_eq!(CacheConfig::l2_vector_mode().sets().unwrap(), 1024);
        assert_eq!(CacheConfig::llc().sets().unwrap(), 2048);
    }

    #[test]
    fn way_partitioned_l2_keeps_geometry() {
        assert_eq!(CacheConfig::l2_with_ways(8), CacheConfig::l2());
        let half = CacheConfig::l2_with_ways(4);
        assert_eq!(half, CacheConfig::l2_vector_mode());
        for w in [1u32, 2, 3, 4, 6, 8] {
            assert_eq!(CacheConfig::l2_with_ways(w).sets().unwrap(), 1024);
        }
    }

    #[test]
    fn vector_mode_keeps_sets_but_halves_ways() {
        // §V-E: associativity is halved; the set count is unchanged.
        let full = CacheConfig::l2();
        let vm = CacheConfig::l2_vector_mode();
        assert_eq!(full.sets().unwrap(), vm.sets().unwrap());
        assert_eq!(vm.ways * 2, full.ways);
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = CacheConfig::l1d();
        c.size_bytes = 1000;
        assert!(c.sets().is_err());
        let mut c = CacheConfig::l1d();
        c.ways = 0;
        assert!(c.sets().is_err());
        let mut c = CacheConfig::l1d();
        c.size_bytes = 3 * 64 * 4; // 3 sets: not a power of two
        assert!(c.sets().is_err());
        let mut c = CacheConfig::l2();
        c.banks = 6;
        let err = c.sets().unwrap_err();
        assert_eq!(err.message(), "cache l2: bank count 6 not a power of two");
    }
}
