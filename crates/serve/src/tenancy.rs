//! Fair-share multi-tenancy: per-tenant queues drained by weighted
//! deficit round-robin.
//!
//! Each shard keeps one FIFO per tenant instead of one global queue,
//! so a tenant that floods the cluster queues behind itself, not in
//! front of everyone else. Draining follows classic WDRR: tenants earn
//! deficit in proportion to their weight each round, and a tenant may
//! dispatch while its deficit covers the head request's estimated
//! cost. Heavier tenants therefore drain proportionally faster under
//! contention, but no backlogged tenant is ever starved — every
//! replenish round credits all of them.
//!
//! The implementation replenishes analytically (it computes how many
//! whole rounds are needed for the first affordable head and credits
//! them in one step), so a drain decision is `O(tenants)` and exactly
//! reproducible regardless of how costs and weights interact.

use std::collections::VecDeque;

/// One tenant's identity and fair-share weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name, used in reports.
    pub name: String,
    /// Fair-share weight: a weight-4 tenant drains four times the
    /// cycles of a weight-1 tenant under contention.
    pub weight: u32,
    /// Relative share of generated traffic (normalized over the mix).
    pub share: f64,
}

/// A standard mix for campaigns and tests: `n` tenants with equal
/// traffic shares and weights cycling 4, 2, 1 — heavy, medium, light.
#[must_use]
pub fn tenant_mix(n: usize) -> Vec<TenantSpec> {
    (0..n.max(1))
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            weight: [4u32, 2, 1][i % 3],
            share: 1.0,
        })
        .collect()
}

/// Per-tenant FIFOs with WDRR drain state for one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQueues {
    queues: Vec<VecDeque<usize>>,
    deficits: Vec<u64>,
    weights: Vec<u64>,
    /// Cycles credited per weight unit per replenish round; sized to a
    /// mean request so a weight-1 tenant earns about one dispatch per
    /// round.
    quantum: u64,
    /// The tenant the drain cursor points at.
    cursor: usize,
    len: usize,
}

impl TenantQueues {
    /// Empty queues for `weights.len()` tenants.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty (a shard needs at least one
    /// tenant).
    #[must_use]
    pub fn new(weights: &[u32], quantum: u64) -> Self {
        assert!(!weights.is_empty(), "at least one tenant required");
        Self {
            queues: vec![VecDeque::new(); weights.len()],
            deficits: vec![0; weights.len()],
            weights: weights.iter().map(|&w| u64::from(w.max(1))).collect(),
            quantum: quantum.max(1),
            cursor: 0,
            len: 0,
        }
    }

    /// Queued requests across all tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued requests for one tenant.
    #[must_use]
    pub fn tenant_len(&self, tenant: usize) -> usize {
        self.queues[tenant].len()
    }

    /// Enqueues a request for `tenant`.
    pub fn push(&mut self, tenant: usize, req: usize) {
        self.queues[tenant].push_back(req);
        self.len += 1;
    }

    /// Iterates `(tenant, request)` over everything queued, in tenant
    /// order then FIFO order — the admission estimator prices with
    /// this.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.queues
            .iter()
            .enumerate()
            .flat_map(|(t, q)| q.iter().map(move |&r| (t, r)))
    }

    /// Pops the next request under WDRR: starting at the cursor, the
    /// first tenant whose deficit covers its head's `cost` dispatches;
    /// if none can afford, every backlogged tenant is credited the
    /// minimal number of whole rounds (`weight × quantum` each) that
    /// makes one affordable. Emptied tenants forfeit their deficit, so
    /// credit never banks across idle periods.
    pub fn pop_next(&mut self, mut cost: impl FnMut(usize) -> u64) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let n = self.queues.len();
        // Costs of each backlogged head, cursor order.
        let mut best: Option<(u64, usize)> = None; // (rounds needed, tenant)
        for k in 0..n {
            let t = (self.cursor + k) % n;
            let Some(&head) = self.queues[t].front() else {
                self.deficits[t] = 0;
                continue;
            };
            let c = cost(head).max(1);
            let earn = self.weights[t] * self.quantum;
            let rounds = if self.deficits[t] >= c {
                0
            } else {
                (c - self.deficits[t]).div_ceil(earn)
            };
            // Strict `<` keeps cursor order authoritative on ties.
            if best.is_none_or(|(r, _)| rounds < r) {
                best = Some((rounds, t));
            }
            if rounds == 0 {
                break;
            }
        }
        let (rounds, t) = best?;
        if rounds > 0 {
            for u in 0..n {
                if !self.queues[u].is_empty() {
                    self.deficits[u] =
                        self.deficits[u].saturating_add(rounds * self.weights[u] * self.quantum);
                }
            }
        }
        let head = self.queues[t].pop_front()?;
        let c = cost(head).max(1);
        self.deficits[t] = self.deficits[t].saturating_sub(c);
        self.len -= 1;
        if self.queues[t].is_empty() {
            self.deficits[t] = 0;
            self.cursor = (t + 1) % n;
        } else {
            // Stay on this tenant while its deficit lasts (classic DRR
            // serves a tenant's burst within its round).
            self.cursor = t;
        }
        Some((t, head))
    }

    /// Moves up to `max` further queued requests of `tenant` for which
    /// `matches` holds onto the end of `into`, preserving the relative
    /// order of what remains — the batch coalescer pulls same-kernel
    /// riders with this.
    pub fn extract_matching(
        &mut self,
        tenant: usize,
        max: usize,
        mut matches: impl FnMut(usize) -> bool,
        into: &mut Vec<usize>,
    ) {
        if max == 0 {
            return;
        }
        let mut taken = 0;
        self.queues[tenant].retain(|&r| {
            let take = taken < max && matches(r);
            if take {
                into.push(r);
                taken += 1;
            }
            !take
        });
        self.len -= taken;
        if self.queues[tenant].is_empty() {
            self.deficits[tenant] = 0;
        }
    }

    /// Removes one specific queued request of `tenant`, preserving the
    /// order of everything else — the transport layer's
    /// first-response-wins cancellation pulls a superseded copy out of
    /// the losing shard's queue with this. Returns whether the request
    /// was still queued (a copy already dispatched into a batch cannot
    /// be cancelled).
    pub fn remove(&mut self, tenant: usize, req: usize) -> bool {
        let q = &mut self.queues[tenant];
        let Some(pos) = q.iter().position(|&r| r == req) else {
            return false;
        };
        q.remove(pos);
        self.len -= 1;
        if q.is_empty() {
            self.deficits[tenant] = 0;
        }
        true
    }

    /// Removes up to `n` requests round-robin across tenants (FIFO
    /// within each) — the work-stealing path drains a dead shard's
    /// backlog with this, touching every backlogged tenant fairly.
    pub fn drain_upto(&mut self, n: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let tenants = self.queues.len();
        while out.len() < n && self.len > 0 {
            for t in 0..tenants {
                if out.len() >= n {
                    break;
                }
                if let Some(r) = self.queues[t].pop_front() {
                    self.len -= 1;
                    if self.queues[t].is_empty() {
                        self.deficits[t] = 0;
                    }
                    out.push((t, r));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_standard_mix_cycles_weights() {
        let mix = tenant_mix(5);
        assert_eq!(mix.len(), 5);
        assert_eq!(
            mix.iter().map(|t| t.weight).collect::<Vec<_>>(),
            vec![4, 2, 1, 4, 2]
        );
        assert_eq!(tenant_mix(0).len(), 1);
    }

    #[test]
    fn single_tenant_degenerates_to_fifo() {
        let mut q = TenantQueues::new(&[1], 100);
        for r in 0..5 {
            q.push(0, r);
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| q.pop_next(|_| 100).map(|(_, r)| r)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn weights_split_equal_cost_drain_proportionally() {
        // Tenants 0 (weight 3) and 1 (weight 1), both deeply
        // backlogged with unit-cost requests: over 40 pops tenant 0
        // should get about 30.
        let mut q = TenantQueues::new(&[3, 1], 100);
        for r in 0..40 {
            q.push(0, r);
            q.push(1, 100 + r);
        }
        let mut counts = [0usize; 2];
        for _ in 0..40 {
            let (t, _) = q.pop_next(|_| 100).unwrap();
            counts[t] += 1;
        }
        assert!(
            (27..=33).contains(&counts[0]),
            "weight-3 tenant drained {} of 40",
            counts[0]
        );
    }

    #[test]
    fn no_backlogged_tenant_is_starved() {
        // Heavy tenant floods with cheap work; light tenant has a few
        // expensive requests. The light tenant must still drain within
        // a bounded number of pops.
        let mut q = TenantQueues::new(&[8, 1], 100);
        for r in 0..200 {
            q.push(0, r);
        }
        for r in 0..4 {
            q.push(1, 1000 + r);
        }
        let mut light_done = 0;
        for pops in 1..=204 {
            let (t, _) = q.pop_next(|r| if r >= 1000 { 800 } else { 100 }).unwrap();
            if t == 1 {
                light_done += 1;
            }
            if light_done == 4 {
                assert!(pops <= 204, "light tenant starved");
                break;
            }
        }
        assert_eq!(light_done, 4);
    }

    #[test]
    fn deficit_resets_when_a_queue_empties() {
        let mut q = TenantQueues::new(&[1, 1], 10);
        q.push(0, 1);
        assert_eq!(q.pop_next(|_| 1000), Some((0, 1)));
        // Tenant 0 banked nothing: after going idle and returning, it
        // pays full price again rather than bursting ahead of 1.
        q.push(1, 2);
        q.push(0, 3);
        let (first, _) = q.pop_next(|_| 1000).unwrap();
        assert_eq!(first, 1, "cursor moved past the emptied tenant");
    }

    #[test]
    fn extract_matching_preserves_leftover_order() {
        let mut q = TenantQueues::new(&[1], 10);
        for r in [1, 2, 3, 4, 5] {
            q.push(0, r);
        }
        let mut taken = vec![9];
        q.extract_matching(0, 2, |r| r % 2 == 0, &mut taken);
        assert_eq!(taken, vec![9, 2, 4]);
        assert_eq!(q.len(), 3);
        let rest: Vec<usize> = std::iter::from_fn(|| q.pop_next(|_| 1).map(|(_, r)| r)).collect();
        assert_eq!(rest, vec![1, 3, 5]);
    }

    #[test]
    fn remove_cancels_one_copy_and_keeps_order() {
        let mut q = TenantQueues::new(&[1, 1], 10);
        for r in [1, 2, 3] {
            q.push(0, r);
        }
        q.push(1, 9);
        assert!(q.remove(0, 2), "queued copy cancels");
        assert!(!q.remove(0, 2), "a cancelled copy is gone");
        assert!(!q.remove(1, 777), "unknown request is a miss");
        assert_eq!(q.len(), 3);
        let rest: Vec<(usize, usize)> = std::iter::from_fn(|| q.pop_next(|_| 1)).collect();
        assert_eq!(rest, vec![(0, 1), (0, 3), (1, 9)]);
        // Emptying a tenant via remove forfeits its deficit.
        q.push(1, 5);
        assert!(q.remove(1, 5));
        assert!(q.is_empty());
    }

    #[test]
    fn drain_alternates_tenants() {
        let mut q = TenantQueues::new(&[1, 1, 1], 10);
        for r in 0..3 {
            q.push(0, r);
            q.push(1, 10 + r);
        }
        let stolen = q.drain_upto(4);
        assert_eq!(stolen, vec![(0, 0), (1, 10), (0, 1), (1, 11)]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.drain_upto(100).len(), 2);
        assert!(q.is_empty());
        assert!(q.drain_upto(5).is_empty());
    }
}
