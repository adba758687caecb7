//! Service-time profiles: what a request costs on an engine.
//!
//! The serving layer is a discrete-event model, but its service times
//! are not invented — [`ServiceProfile::measured`] runs every workload
//! through the real `eve-sim` timing model once (EVE at the pool's
//! factor, and the O3+DV fallback), and measures how engines slow each
//! other down through the shared LLC/DRAM with
//! [`eve_sim::contention_profile`]. The event loop then prices each
//! dispatch as `base_cycles × contention[busy_engines]`, so pool-level
//! queueing effects rest on cycle-accurate measurements instead of
//! made-up constants.

use eve_common::Cycle;
use eve_mem::{Hierarchy, HierarchyConfig, Level};
use eve_sim::{contention_profile, Runner, SimError, SystemKind};
use eve_workloads::Workload;

/// Measured per-workload service times plus the pool contention curve.
#[derive(Debug, Clone)]
pub struct ServiceProfile {
    /// EVE factor the engine times were measured at.
    pub factor: u32,
    /// Workload names, index-aligned with the cycle vectors.
    pub names: Vec<String>,
    /// Cycles each workload takes on a solo EVE engine.
    pub eve_cycles: Vec<u64>,
    /// Each workload's O3+DV fallback time, converted to EVE-clock
    /// cycles so the whole serving timeline runs on one clock domain.
    pub fallback_cycles: Vec<u64>,
    /// Entry `k-1`: completion-time multiplier when `k` engines are
    /// concurrently busy (entry 0 is 1.0).
    pub contention: Vec<f64>,
    /// Cycles an engine spawn spends flushing the donated L2 ways on a
    /// warmed hierarchy (§V-E) — the warmup cost the elastic
    /// controller pays before a spawned engine comes online.
    pub spawn_flush_cycles: u64,
    /// Scalar-side cache-pressure multiplier: how much slower a scalar
    /// working set runs through the half-ways L2 than the full one.
    /// The fallback path is priced with (a fraction of) this when
    /// engines hold donated ways — the controller's genuine trade-off.
    pub scalar_slowdown: f64,
}

/// A scalar working set swept twice through `h`: six lines per L2 set,
/// so the full 8-way L2 retains everything while the half-ways
/// partition LRU-thrashes. Returns the second (steady-state) pass's
/// summed load-to-use latency.
fn scalar_sweep(h: &mut Hierarchy) -> u64 {
    const LINES: u64 = 6 * 1024;
    let mut now = Cycle(0);
    let mut total = 0u64;
    for pass in 0..2 {
        for i in 0..LINES {
            let a = h.access(Level::L1D, 0x100_0000 + i * 64, false, now);
            if pass == 1 {
                total += a.complete.saturating_since(now).0;
            }
            now += Cycle(200);
        }
    }
    total
}

/// Measures the elastic reconfiguration costs through `eve_mem`: the
/// spawn flush on a warmed full-width hierarchy, and the scalar
/// slowdown as the ratio of steady-state sweep latencies between the
/// half-ways and full-width L2. Deterministic — pure cache geometry.
fn measure_reconfig_costs() -> (u64, f64) {
    let mut full = Hierarchy::new(HierarchyConfig::table_iii());
    let full_lat = scalar_sweep(&mut full).max(1);
    let mut narrow = Hierarchy::new(HierarchyConfig::table_iii_vector_mode());
    let narrow_lat = scalar_sweep(&mut narrow);
    // The sweep left `full` warm: spawning now pays the real flush.
    let t = Cycle(100_000_000);
    let done = full.spawn_vector_mode(t);
    let spawn_flush = done.saturating_since(t).0.max(1);
    let slowdown = (narrow_lat as f64 / full_lat as f64).max(1.0);
    (spawn_flush, slowdown)
}

impl ServiceProfile {
    /// Measures a profile with the real timing model: one EVE run and
    /// one O3+DV run per workload, plus a contention sweep up to
    /// `max_pool` cores on the first workload (memory behavior is
    /// dominated by the shared DRAM channel, so one representative
    /// curve is applied pool-wide).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; rejects an empty workload list
    /// or a zero pool as [`SimError::Config`].
    pub fn measured(
        factor: u32,
        workloads: &[Workload],
        max_pool: usize,
    ) -> Result<Self, SimError> {
        if workloads.is_empty() {
            return Err(SimError::Config("a profile needs workloads".into()));
        }
        let runner = Runner::new();
        let eve_tick = SystemKind::EveN(factor).cycle_time().0.max(1);
        let mut names = Vec::with_capacity(workloads.len());
        let mut eve_cycles = Vec::with_capacity(workloads.len());
        let mut fallback_cycles = Vec::with_capacity(workloads.len());
        for w in workloads {
            let eve = runner.run(SystemKind::EveN(factor), w)?;
            let fb = runner.run(SystemKind::O3Dv, w)?;
            names.push(w.name().to_string());
            eve_cycles.push(eve.cycles.0.max(1));
            // The fallback runs on its own clock; express its wall time
            // in EVE ticks so both paths share the serving timeline.
            fallback_cycles.push((fb.wall_ps.0 / eve_tick).max(1));
        }
        let contention = contention_profile(SystemKind::EveN(factor), &workloads[0], max_pool)?;
        let (spawn_flush_cycles, scalar_slowdown) = measure_reconfig_costs();
        Ok(Self {
            factor,
            names,
            eve_cycles,
            fallback_cycles,
            contention,
            spawn_flush_cycles,
            scalar_slowdown,
        })
    }

    /// A hand-built profile for unit tests: `n` synthetic workloads of
    /// `eve` cycles each, `fallback` fallback cycles, and a linear
    /// contention curve (`k` busy engines → `1 + 0.1 (k-1)`).
    #[must_use]
    pub fn synthetic(n: usize, eve: u64, fallback: u64, max_pool: usize) -> Self {
        Self {
            factor: 8,
            names: (0..n).map(|i| format!("synthetic{i}")).collect(),
            eve_cycles: vec![eve.max(1); n],
            fallback_cycles: vec![fallback.max(1); n],
            contention: (0..max_pool.max(1)).map(|k| 1.0 + 0.1 * k as f64).collect(),
            spawn_flush_cycles: 600,
            scalar_slowdown: 1.3,
        }
    }

    /// Workload count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the profile is empty (it never is, post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The contention multiplier with `busy` engines concurrently
    /// busy; saturates at the last measured point.
    #[must_use]
    pub fn contention_at(&self, busy: usize) -> f64 {
        match busy {
            0 | 1 => 1.0,
            k => {
                let idx = (k - 1).min(self.contention.len().saturating_sub(1));
                self.contention.get(idx).copied().unwrap_or(1.0)
            }
        }
    }

    /// Engine service time of workload `idx` with `busy` engines busy
    /// (including the one serving this request).
    #[must_use]
    pub fn eve_service(&self, idx: usize, busy: usize) -> u64 {
        let base = self.eve_cycles[idx % self.eve_cycles.len()];
        let scaled = base as f64 * self.contention_at(busy);
        scaled.round().max(1.0) as u64
    }

    /// Every engine price a pool of `max_busy` engines can ask for:
    /// [`ServiceProfile::eve_service`] of each workload at each busy
    /// count in `0..=max_busy`, and the mean solo service time.
    pub(crate) fn price_table(&self, max_busy: usize) -> PriceTable {
        let stride = max_busy + 1;
        PriceTable {
            eve: (0..self.eve_cycles.len())
                .flat_map(|w| (0..stride).map(move |busy| self.eve_service(w, busy)))
                .collect(),
            stride,
            mean_eve: self.mean_eve_cycles(),
        }
    }

    /// Fallback service time of workload `idx` (the O3+DV path is a
    /// single shared server; it queues instead of contending).
    #[must_use]
    pub fn fallback_service(&self, idx: usize) -> u64 {
        self.fallback_cycles[idx % self.fallback_cycles.len()]
    }

    /// Mean solo engine service time — the admission bound's estimate
    /// of a queued request's cost.
    #[must_use]
    pub fn mean_eve_cycles(&self) -> u64 {
        let sum: u64 = self.eve_cycles.iter().sum();
        (sum / self.eve_cycles.len() as u64).max(1)
    }

    /// Mean fallback service time — what admission estimates with when
    /// every breaker is open and the O3+DV path is the only channel.
    #[must_use]
    pub fn mean_fallback_cycles(&self) -> u64 {
        let sum: u64 = self.fallback_cycles.iter().sum();
        (sum / self.fallback_cycles.len() as u64).max(1)
    }

    /// A sender-side retransmit timeout grounded in the measured
    /// profile: two worst-jitter one-way trips on a link plus eight
    /// mean engine services of queueing headroom. The transport layer
    /// uses this when [`crate::NetPolicy::rto`] is left at zero — an
    /// RTO below a normal queued round trip would retransmit into a
    /// healthy shard and waste duplicate-suppression work.
    #[must_use]
    pub fn rto_hint(&self, base_delay: u64, jitter: u64) -> u64 {
        2 * (base_delay + jitter) + 8 * self.mean_eve_cycles()
    }
}

/// A profile's engine prices, derived once per serving run: the
/// event loop prices queued requests, WDRR heads and dispatches by
/// lookup.
pub(crate) struct PriceTable {
    /// `eve[workload * stride + busy]`.
    eve: Vec<u64>,
    stride: usize,
    mean_eve: u64,
}

impl PriceTable {
    /// [`ServiceProfile::eve_service`]`(workload, busy)`.
    pub(crate) fn eve(&self, workload: usize, busy: usize) -> u64 {
        debug_assert!(busy < self.stride, "{busy} busy engines past the table");
        self.eve[workload * self.stride + busy]
    }

    /// [`ServiceProfile::mean_eve_cycles`].
    pub(crate) fn mean_eve(&self) -> u64 {
        self.mean_eve
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_profiles_scale_with_contention() {
        let p = ServiceProfile::synthetic(2, 1000, 4000, 4);
        assert_eq!(p.len(), 2);
        assert_eq!(p.eve_service(0, 1), 1000);
        assert_eq!(p.eve_service(0, 2), 1100);
        assert_eq!(p.eve_service(1, 4), 1300);
        // Past the measured curve it saturates instead of extrapolating.
        assert_eq!(p.eve_service(0, 9), 1300);
        assert_eq!(p.fallback_service(1), 4000);
        assert_eq!(p.mean_eve_cycles(), 1000);
    }

    #[test]
    fn the_price_table_is_eve_service() {
        let p = ServiceProfile {
            eve_cycles: vec![900, 1_601, 2_400, 4_099],
            contention: vec![1.0, 1.13, 1.37],
            ..ServiceProfile::synthetic(4, 1, 1, 3)
        };
        // Nine busy engines run past the three-point contention curve.
        let t = p.price_table(9);
        for w in 0..p.len() {
            for busy in 0..=9 {
                assert_eq!(t.eve(w, busy), p.eve_service(w, busy), "({w}, {busy})");
            }
        }
        assert_eq!(t.mean_eve(), p.mean_eve_cycles());
    }

    #[test]
    fn zero_busy_engines_price_like_solo() {
        let p = ServiceProfile::synthetic(1, 500, 900, 2);
        assert_eq!(p.eve_service(0, 0), 500);
    }

    #[test]
    fn rto_hint_covers_a_queued_round_trip() {
        let p = ServiceProfile::synthetic(2, 1000, 4000, 4);
        assert_eq!(p.rto_hint(40, 24), 2 * 64 + 8 * 1000);
        // The hint must dominate one worst-case round trip plus one
        // solo service — otherwise healthy shards get retransmitted at.
        assert!(p.rto_hint(40, 24) > 2 * 64 + p.eve_service(0, 1));
    }

    #[test]
    fn measured_profiles_come_from_the_timing_model() {
        let p = ServiceProfile::measured(8, &[Workload::vvadd(300)], 2).unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.eve_cycles[0] > 0);
        assert!(p.fallback_cycles[0] > 0);
        assert!((p.contention_at(1) - 1.0).abs() < 1e-12);
        assert!(p.contention_at(2) >= 1.0);
        // Reconfiguration costs come from the cache model, not fiat:
        // the half-ways L2 must hurt the scalar sweep, and the spawn
        // flush must cost real cycles.
        assert!(p.spawn_flush_cycles > 0);
        assert!(p.scalar_slowdown > 1.0, "{}", p.scalar_slowdown);
        assert!(matches!(
            ServiceProfile::measured(8, &[], 2),
            Err(SimError::Config(_))
        ));
    }
}
