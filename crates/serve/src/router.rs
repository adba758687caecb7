//! The seeded consistent-hash router.
//!
//! Cluster arrivals carry a routing key (a tenant's document id, a
//! cache line, a model shard — anything sticky); the router maps each
//! key onto one of N shards through a classic consistent-hash ring
//! with virtual nodes. The ring is a pure function of
//! `(seed, shards, vnodes)`, so routing decisions replay exactly, and
//! the vnode count trades placement smoothness against ring size the
//! way MASIM trades array-pool granularity against scheduler state.
//!
//! Failure routing walks the ring: [`Router::route_healthy`] yields
//! the first *available* shard at or after the key's home position, so
//! when a shard partitions, only the keys it owned move — every other
//! key keeps its placement, which is the whole point of consistent
//! hashing over `key % shards`.

use eve_common::SplitMix64;

/// Typed routing failure: every shard on the ring was unavailable.
///
/// An all-breakers-open cluster is a load-shedding situation, not a
/// programming error — callers convert this into a shed/fallback
/// decision (see [`crate::ServeError::Unroutable`]) instead of
/// unwrapping their way into an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteError {
    /// The routing key that found no healthy shard.
    pub key: u64,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no healthy shard on the ring for key {}", self.key)
    }
}

impl std::error::Error for RouteError {}

/// A consistent-hash ring over `shards` shards.
#[derive(Debug, Clone)]
pub struct Router {
    /// `(ring position, shard)` sorted by position.
    ring: Vec<(u64, usize)>,
    shards: usize,
    seed: u64,
}

impl Router {
    /// Builds the ring: `vnodes` points per shard, all derived from
    /// `seed`. The same arguments always produce the same ring.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `vnodes` is zero; [`Router::try_new`] is
    /// the typed-error form config validation goes through.
    #[must_use]
    pub fn new(seed: u64, shards: usize, vnodes: usize) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a ring needs at least one vnode per shard");
        let mut ring = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            // Per-shard stream: adding a shard never moves another
            // shard's vnodes, so scale-out only remaps the keys the
            // new shard takes over.
            let mut rng =
                SplitMix64::new(seed ^ (shard as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            for _ in 0..vnodes {
                ring.push((rng.next_u64(), shard));
            }
        }
        // Position ties (astronomically rare) break by shard index so
        // the ring is canonical.
        ring.sort_unstable();
        Self { ring, shards, seed }
    }

    /// [`Router::new`] with a typed error instead of a panic, for
    /// callers validating user-supplied cluster configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ServeError::Config`] when `shards` or `vnodes`
    /// is zero.
    pub fn try_new(seed: u64, shards: usize, vnodes: usize) -> Result<Self, crate::ServeError> {
        if shards == 0 {
            return Err(crate::ServeError::Config(
                "a ring needs at least one shard".into(),
            ));
        }
        if vnodes == 0 {
            return Err(crate::ServeError::Config(
                "a ring needs at least one vnode per shard".into(),
            ));
        }
        Ok(Self::new(seed, shards, vnodes))
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Hashes a routing key onto the ring.
    fn position(&self, key: u64) -> u64 {
        SplitMix64::new(key ^ self.seed).next_u64()
    }

    /// The index of the first ring point at or after `pos` (wrapping).
    fn successor(&self, pos: u64) -> usize {
        match self.ring.binary_search(&(pos, 0)) {
            Ok(i) => i,
            Err(i) if i == self.ring.len() => 0,
            Err(i) => i,
        }
    }

    /// The ring point `key`'s walk starts at: the first point at or
    /// after its hashed position. A caller that routes one key many
    /// times hashes it and searches the ring once, then routes from
    /// the start with [`Router::shard_at`] and
    /// [`Router::route_healthy_from`].
    pub(crate) fn start(&self, key: u64) -> usize {
        self.successor(self.position(key))
    }

    /// The shard that owns ring point `start`.
    pub(crate) fn shard_at(&self, start: usize) -> usize {
        self.ring[start].1
    }

    /// The shard that owns `key`.
    #[must_use]
    pub fn route(&self, key: u64) -> usize {
        self.shard_at(self.start(key))
    }

    /// The first shard at or after `key`'s home position for which
    /// `available` holds — the home shard itself when it is healthy,
    /// its ring successor otherwise. `None` when no shard qualifies.
    /// The walk asks `available` once per ring point, skipping a
    /// point whose shard owns the point before it, so it may ask about
    /// one shard more than once and must answer the same each time.
    pub fn route_healthy(&self, key: u64, available: impl FnMut(usize) -> bool) -> Option<usize> {
        self.route_healthy_from(self.start(key), available)
    }

    /// [`Router::route_healthy`] for the key whose walk starts at ring
    /// point `start`.
    pub(crate) fn route_healthy_from(
        &self,
        start: usize,
        mut available: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let n = self.ring.len();
        let mut prev = None;
        for i in 0..n {
            let shard = self.ring[(start + i) % n].1;
            if prev != Some(shard) && available(shard) {
                return Some(shard);
            }
            prev = Some(shard);
        }
        None
    }

    /// [`Router::route_healthy`] with a typed error: `Err(RouteError)`
    /// when every shard is unavailable, so the caller is forced to
    /// handle the cluster-wide-outage case as a shed decision rather
    /// than a panic path.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when no shard satisfies `available`.
    pub fn try_route_healthy(
        &self,
        key: u64,
        available: impl FnMut(usize) -> bool,
    ) -> Result<usize, RouteError> {
        self.route_healthy(key, available).ok_or(RouteError { key })
    }

    /// Probes keys `0..limit` for one that routes to `shard` — how
    /// tests and campaign storms aim a hot key at a chosen shard.
    #[must_use]
    pub fn key_for_shard(&self, shard: usize, limit: u64) -> Option<u64> {
        (0..limit).find(|&k| self.route(k) == shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic() {
        let a = Router::new(42, 4, 16);
        let b = Router::new(42, 4, 16);
        for key in 0..1000 {
            assert_eq!(a.route(key), b.route(key));
        }
    }

    #[test]
    fn every_shard_owns_a_fair_slice() {
        let r = Router::new(7, 4, 64);
        let mut counts = [0u32; 4];
        for key in 0..4000 {
            counts[r.route(key)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            // 4000 keys over 4 shards: each should land near 1000.
            assert!((400..=1800).contains(&c), "shard {s} owns {c} keys");
        }
    }

    #[test]
    fn adding_a_shard_only_moves_its_own_keys() {
        let small = Router::new(11, 3, 32);
        let large = Router::new(11, 4, 32);
        for key in 0..2000 {
            let before = small.route(key);
            let after = large.route(key);
            // A key either stays put or moved to the new shard.
            assert!(
                after == before || after == 3,
                "key {key} moved {before} -> {after}"
            );
        }
    }

    #[test]
    fn unhealthy_shards_fail_over_along_the_ring() {
        let r = Router::new(5, 4, 16);
        for key in 0..500 {
            let home = r.route(key);
            let healthy = r
                .try_route_healthy(key, |s| s != home)
                .expect("three shards remain");
            assert_ne!(healthy, home);
            // With only the home shard down, healthy routing must be
            // stable across calls.
            assert_eq!(r.route_healthy(key, |s| s != home), Some(healthy));
            // A fully healthy cluster routes home.
            assert_eq!(r.route_healthy(key, |_| true), Some(home));
        }
        assert_eq!(r.route_healthy(9, |_| false), None);
    }

    #[test]
    fn a_lone_available_shard_past_64_takes_every_key() {
        // Shard 64 and shard 0 must not share a slot in any seen-set:
        // with only shard 64 up, every key fails over to it.
        let r = Router::new(7, 65, 4);
        for key in 0..1000 {
            assert_eq!(r.route_healthy(key, |s| s == 64), Some(64), "key {key}");
        }
    }

    /// The ring walk the router must agree with: a linear scan for the
    /// key's first ring point, then every point in ring order.
    fn naive_route(r: &Router, key: u64, available: &[bool]) -> Option<usize> {
        let pos = SplitMix64::new(key ^ r.seed).next_u64();
        let start = r.ring.iter().position(|&(p, _)| p >= pos).unwrap_or(0);
        (0..r.ring.len())
            .map(|i| r.ring[(start + i) % r.ring.len()].1)
            .find(|&s| available[s])
    }

    #[test]
    fn healthy_routing_matches_a_naive_ring_walk() {
        let mut rng = SplitMix64::new(0x0007_E7A1);
        for _ in 0..200 {
            let shards = 1 + rng.below(130) as usize;
            let vnodes = 1 + rng.below(8) as usize;
            let r = Router::new(rng.next_u64(), shards, vnodes);
            // From every shard up to every shard down.
            let up = rng.next_f64();
            let available: Vec<bool> = (0..shards).map(|_| rng.chance(up)).collect();
            let all_up = vec![true; shards];
            for _ in 0..50 {
                let key = rng.next_u64();
                assert_eq!(
                    r.route_healthy(key, |s| available[s]),
                    naive_route(&r, key, &available),
                    "{shards} shards x {vnodes} vnodes, key {key}"
                );
                assert_eq!(Some(r.route(key)), naive_route(&r, key, &all_up));
            }
        }
    }

    #[test]
    fn an_all_down_cluster_routes_to_a_typed_error() {
        let r = Router::new(5, 4, 16);
        let err = r.try_route_healthy(9, |_| false).unwrap_err();
        assert_eq!(err, RouteError { key: 9 });
        assert!(err.to_string().contains("key 9"));
    }

    #[test]
    fn zero_sized_rings_are_typed_errors() {
        assert!(matches!(
            Router::try_new(1, 0, 16),
            Err(crate::ServeError::Config(_))
        ));
        assert!(matches!(
            Router::try_new(1, 4, 0),
            Err(crate::ServeError::Config(_))
        ));
        let r = Router::try_new(42, 4, 16).expect("valid ring");
        assert_eq!(r.shards(), 4);
        assert_eq!(r.route(7), Router::new(42, 4, 16).route(7));
    }

    #[test]
    fn key_probe_finds_every_shard() {
        let r = Router::new(13, 4, 16);
        for shard in 0..4 {
            let key = r.key_for_shard(shard, 10_000).expect("key exists");
            assert_eq!(r.route(key), shard);
        }
        assert_eq!(Router::new(1, 1, 1).key_for_shard(0, 10), Some(0));
    }
}
