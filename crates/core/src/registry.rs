//! [`PredicateRegistry`] — many conjunctive predicates (tenants) over one
//! event stream.
//!
//! Production-scale monitoring means thousands of live predicates `Φ_k`
//! watched concurrently, not one `Φ` per deployment. The registry serves
//! them over shared infrastructure:
//!
//! * **One spanning tree.** Every tenant's detection hierarchy is a view
//!   of the same shared [`SpanningTree`]; a member-restricted tenant runs
//!   over the pruned view built by
//!   [`HierarchicalDetector::with_members`] (members plus the ancestors
//!   needed to join them), with *relay* engines at in-view non-members.
//! * **One interned [`ClockPool`].** Every ingested interval's bound
//!   clocks are interned once on entry; the tenants that consume the
//!   interval share the pooled allocation (cloning a [`VectorClock`] is a
//!   refcount bump), so fan-out to `k` tenants costs `O(k)` pointers, not
//!   `O(k·n)` components.
//! * **A per-process tenant index — the relevance filter.** Each tenant
//!   declares its *local-predicate set* (the member processes whose local
//!   predicates appear in its conjunction). [`ingest`] routes an event
//!   only to the tenants whose set contains the event's owner — the
//!   slicing-style filter of Mittal–Garg's computation slicing and
//!   Chauhan et al.'s abstraction algorithm (see `PAPERS.md`): a tenant
//!   pays only for events that can affect its predicate, so aggregate
//!   cost grows with Σ|S_k|, not `tenants × events`.
//!
//! The naive alternative — offer every event to every tenant — is kept as
//! [`ingest_broadcast`]: detection outcomes are bit-identical (a
//! non-member feed is a no-op inside the tenant's detector), only the
//! billed routing cost differs. The benchmark harness asserts the
//! equality at runtime and gates both cost counters.
//!
//! Per-tenant monitor state lives in a [`TenantSlot`]; transports key into
//! the same seam the single-predicate stack uses (`ftscp-net`'s tenancy
//! runtime drives a registry behind the shared framing/session layer,
//! batching uplink intervals per *connection* rather than per predicate —
//! see `docs/TENANCY.md`).
//!
//! [`ingest`]: PredicateRegistry::ingest
//! [`ingest_broadcast`]: PredicateRegistry::ingest_broadcast

use crate::hier::HierarchicalDetector;
use crate::nid;
use crate::report::GlobalDetection;
use ftscp_intervals::Interval;
use ftscp_simnet::Topology;
use ftscp_tree::SpanningTree;
use ftscp_vclock::{ClockPool, ProcessId, VectorClock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifies one monitored predicate (tenant).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct PredicateId(pub u32);

/// Declares one tenant: a predicate id plus its local-predicate set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant's predicate id (unique within a registry).
    pub id: PredicateId,
    /// Member processes whose local predicates form the conjunction.
    /// Empty means *every* process in the tree (the classic single-Φ
    /// shape).
    pub members: Vec<ProcessId>,
}

impl TenantSpec {
    /// A tenant whose conjunction ranges over every process.
    pub fn full(id: PredicateId) -> Self {
        TenantSpec {
            id,
            members: Vec::new(),
        }
    }

    /// A tenant restricted to `members`.
    pub fn restricted(id: PredicateId, members: Vec<ProcessId>) -> Self {
        TenantSpec { id, members }
    }
}

/// Per-tenant monitor state: the tenant's detector (over its pruned tree
/// view) plus its membership and accounting.
pub struct TenantSlot {
    id: PredicateId,
    /// Sorted member set; `None` = all processes.
    members: Option<Vec<ProcessId>>,
    detector: HierarchicalDetector,
    /// Feeds routed to this tenant whose owner is in the member set.
    relevant_feeds: u64,
}

impl TenantSlot {
    /// The tenant's predicate id.
    pub fn id(&self) -> PredicateId {
        self.id
    }

    /// The tenant's detector (full API access).
    pub fn detector(&self) -> &HierarchicalDetector {
        &self.detector
    }

    /// The declared member set (`None` = every process).
    pub fn members(&self) -> Option<&[ProcessId]> {
        self.members.as_deref()
    }

    /// True iff an event owned by `p` can affect this tenant's predicate.
    pub fn is_relevant(&self, p: ProcessId) -> bool {
        match &self.members {
            None => true,
            Some(m) => m.binary_search(&p).is_ok(),
        }
    }

    /// Feeds this tenant has actually consumed (relevance-filtered).
    pub fn relevant_feeds(&self) -> u64 {
        self.relevant_feeds
    }

    /// The tenant's solution sequence: `(solution index, coverage)` per
    /// root detection, in order. This is the repo's cross-backend
    /// bit-identity anchor — detection *times* are excluded (they depend
    /// on how many irrelevant events a routing policy counted past).
    pub fn solution_sequence(&self) -> Vec<(u64, Vec<(u32, u64)>)> {
        self.detector
            .root_solutions()
            .iter()
            .map(|d| {
                (
                    d.solution.index,
                    d.coverage.iter().map(|r| (r.process.0, r.seq)).collect(),
                )
            })
            .collect()
    }
}

/// Registry-level routing/cost counters. All deterministic — the bench
/// harness gates them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Events ingested from the shared stream.
    pub events_ingested: u64,
    /// Tenant detectors actually fed by the relevance filter
    /// ([`PredicateRegistry::ingest`]).
    pub tenant_touches: u64,
    /// Tenant detectors offered an event by the naive broadcast path
    /// ([`PredicateRegistry::ingest_broadcast`]), relevant or not.
    pub broadcast_touches: u64,
}

/// Many tenants, one event stream, shared tree and clock pool.
pub struct PredicateRegistry {
    tree: SpanningTree,
    pool: ClockPool,
    slots: Vec<TenantSlot>,
    by_id: BTreeMap<PredicateId, usize>,
    /// `index[p]` = dense slot indices of the tenants whose member set
    /// contains process `p` — the per-process relevance filter.
    index: Vec<Vec<u32>>,
    stats: RegistryStats,
}

impl PredicateRegistry {
    /// Builds a registry for `specs` over the shared `tree`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, a predicate id repeats, or a member set
    /// names a node outside the tree.
    pub fn new(tree: &SpanningTree, specs: &[TenantSpec]) -> Self {
        assert!(!specs.is_empty(), "at least one tenant");
        let capacity = tree.capacity();
        let mut slots = Vec::with_capacity(specs.len());
        let mut by_id = BTreeMap::new();
        let mut index: Vec<Vec<u32>> = vec![Vec::new(); capacity];
        for spec in specs {
            let slot_idx = slots.len() as u32;
            assert!(
                by_id.insert(spec.id, slots.len()).is_none(),
                "duplicate predicate id {:?}",
                spec.id
            );
            let (members, detector) = if spec.members.is_empty() {
                // Full tenant: same construction as the single-predicate
                // path, bit-for-bit (no pruning, no relays).
                for node in tree.nodes() {
                    index[node.index()].push(slot_idx);
                }
                (None, HierarchicalDetector::new(tree))
            } else {
                let mut members = spec.members.clone();
                members.sort_unstable();
                members.dedup();
                for &m in &members {
                    assert!(
                        tree.contains(nid(m)),
                        "tenant {:?} member {m} is not in the tree",
                        spec.id
                    );
                    index[m.index()].push(slot_idx);
                }
                let detector = HierarchicalDetector::with_members(tree, &members);
                (Some(members), detector)
            };
            slots.push(TenantSlot {
                id: spec.id,
                members,
                detector,
                relevant_feeds: 0,
            });
        }
        PredicateRegistry {
            tree: tree.clone(),
            pool: ClockPool::new(),
            slots,
            by_id,
            index,
            stats: RegistryStats::default(),
        }
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.slots.len()
    }

    /// All tenant slots, in registration order.
    pub fn tenants(&self) -> impl Iterator<Item = &TenantSlot> {
        self.slots.iter()
    }

    /// The shared tree (as originally registered; per-tenant views evolve
    /// independently under failures).
    pub fn tree(&self) -> &SpanningTree {
        &self.tree
    }

    /// The shared clock pool (interning stats: hits = re-used
    /// allocations).
    pub fn pool(&self) -> &ClockPool {
        &self.pool
    }

    /// Routing/cost counters.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// True iff `pred` is registered.
    pub fn contains(&self, pred: PredicateId) -> bool {
        self.by_id.contains_key(&pred)
    }

    /// The tenant slot of `pred`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown predicate id.
    pub fn tenant(&self, pred: PredicateId) -> &TenantSlot {
        &self.slots[self.slot_index(pred)]
    }

    /// The detector of `pred` (full API access).
    pub fn detector(&self, pred: PredicateId) -> &HierarchicalDetector {
        &self.tenant(pred).detector
    }

    /// Root-level detections of `pred`.
    pub fn root_solutions(&self, pred: PredicateId) -> &[GlobalDetection] {
        self.tenant(pred).detector.root_solutions()
    }

    /// Total root detections across all tenants.
    pub fn total_detections(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.detector.root_solutions().len())
            .sum()
    }

    /// The tenants whose local-predicate set contains `p`, i.e. the ones
    /// an event owned by `p` is routed to. Transports use this to build
    /// per-connection batches.
    pub fn tenants_for(&self, p: ProcessId) -> Vec<PredicateId> {
        self.index
            .get(p.index())
            .map(|row| row.iter().map(|&i| self.slots[i as usize].id).collect())
            .unwrap_or_default()
    }

    /// Ingests one event from the shared stream, routing it through the
    /// relevance filter: only tenants whose member set contains
    /// `interval.source` are fed. The interval's bound clocks are interned
    /// in the shared pool first, so every consuming tenant holds the same
    /// allocation.
    pub fn ingest(&mut self, interval: Interval) {
        let interval = self.interned(interval);
        self.stats.events_ingested += 1;
        let owner = interval.source;
        let Some(row) = self.index.get(owner.index()) else {
            return;
        };
        // The row is detached from `self` borrow-wise by indexing slots
        // per entry; rows are immutable during ingestion.
        for k in 0..row.len() {
            let slot_idx = self.index[owner.index()][k] as usize;
            self.stats.tenant_touches += 1;
            let slot = &mut self.slots[slot_idx];
            slot.relevant_feeds += 1;
            slot.detector.feed(interval.clone());
        }
    }

    /// Ingests one event the naive way: every tenant is offered every
    /// event, relevant or not. A non-member feed is a no-op
    /// inside the tenant's detector, so detection outcomes (solution
    /// sequences) are bit-identical to [`ingest`](Self::ingest) — only
    /// the billed routing cost differs. Kept as the differential baseline.
    pub fn ingest_broadcast(&mut self, interval: Interval) {
        let interval = self.interned(interval);
        self.stats.events_ingested += 1;
        let owner = interval.source;
        for slot in &mut self.slots {
            self.stats.broadcast_touches += 1;
            if slot.is_relevant(owner) {
                slot.relevant_feeds += 1;
            }
            slot.detector.feed(interval.clone());
        }
    }

    /// Feeds an interval to a *single* tenant, bypassing routing — for
    /// predicates that each have their own event stream.
    ///
    /// # Panics
    ///
    /// Panics on an unknown predicate id.
    pub fn feed_tenant(&mut self, pred: PredicateId, interval: Interval) {
        let interval = self.interned(interval);
        let idx = self.slot_index(pred);
        self.stats.tenant_touches += 1;
        let slot = &mut self.slots[idx];
        if slot.is_relevant(interval.source) {
            slot.relevant_feeds += 1;
        }
        slot.detector.feed(interval);
    }

    /// §III-F: `node` crash-stops. Every tenant whose view contains the
    /// node repairs independently (same deterministic repair as the
    /// single-predicate path); the dead process is removed from the
    /// routing index — no further events from it are routed anywhere.
    pub fn fail_node(&mut self, node: ProcessId, topology: &Topology) {
        for slot in &mut self.slots {
            slot.detector.fail_node(node, topology);
        }
        if let Some(row) = self.index.get_mut(node.index()) {
            row.clear();
        }
    }

    /// Total deterministic billed cost: routing touches (both paths) plus
    /// every tenant's vector-clock comparison count — the paper's §IV-C
    /// time-cost unit summed across the fleet. This is the number the
    /// tenancy bench gates and the sublinearity claim is stated over.
    pub fn billed_cost(&self) -> u64 {
        let ops: u64 = self.slots.iter().map(|s| s.detector.ops().get()).sum();
        self.stats.tenant_touches + self.stats.broadcast_touches + ops
    }

    fn slot_index(&self, pred: PredicateId) -> usize {
        *self
            .by_id
            .get(&pred)
            .unwrap_or_else(|| panic!("unknown predicate id {pred:?}"))
    }

    /// Re-binds `interval`'s bound clocks to the shared pool.
    fn interned(&mut self, mut interval: Interval) -> Interval {
        interval.lo = VectorClock::from_handle(self.pool.intern(interval.lo.components()));
        interval.hi = VectorClock::from_handle(self.pool.intern(interval.hi.components()));
        interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_workload::RandomExecution;

    fn exec(n: usize, rounds: usize, seed: u64) -> ftscp_workload::Execution {
        RandomExecution::builder(n)
            .intervals_per_process(rounds)
            .seed(seed)
            .build()
    }

    fn sequences(reg: &PredicateRegistry) -> Vec<Vec<(u64, Vec<(u32, u64)>)>> {
        reg.tenants().map(|t| t.solution_sequence()).collect()
    }

    #[test]
    fn full_tenant_matches_standalone_detector() {
        let n = 7;
        let tree = SpanningTree::balanced_dary(n, 2);
        let mut reg = PredicateRegistry::new(&tree, &[TenantSpec::full(PredicateId(0))]);
        let mut solo = HierarchicalDetector::new(&tree);
        let e = exec(n, 4, 11);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
            solo.feed(iv.clone());
        }
        assert_eq!(
            reg.root_solutions(PredicateId(0)),
            solo.root_solutions(),
            "full tenant must be bit-identical to the single-predicate path"
        );
    }

    #[test]
    fn indexed_and_broadcast_routing_agree() {
        let n = 13;
        let tree = SpanningTree::balanced_dary(n, 3);
        let fleets = [
            (
                vec![
                    TenantSpec::full(PredicateId(0)),
                    TenantSpec::restricted(PredicateId(1), vec![ProcessId(4), ProcessId(5)]),
                    TenantSpec::restricted(
                        PredicateId(2),
                        vec![ProcessId(1), ProcessId(7), ProcessId(12)],
                    ),
                    TenantSpec::restricted(PredicateId(3), vec![ProcessId(9)]),
                ],
                23,
            ),
            (
                vec![
                    TenantSpec::full(PredicateId(0)),
                    TenantSpec::restricted(PredicateId(1), vec![ProcessId(3), ProcessId(10)]),
                    TenantSpec::restricted(
                        PredicateId(2),
                        vec![ProcessId(1), ProcessId(5), ProcessId(6)],
                    ),
                ],
                77,
            ),
        ];
        for (specs, seed) in fleets {
            let mut indexed = PredicateRegistry::new(&tree, &specs);
            let mut broadcast = PredicateRegistry::new(&tree, &specs);
            for iv in exec(n, 5, seed).intervals_interleaved() {
                indexed.ingest(iv.clone());
                broadcast.ingest_broadcast(iv.clone());
            }
            assert_eq!(
                sequences(&indexed),
                sequences(&broadcast),
                "relevance filtering must not change any tenant's solutions"
            );
            // Same *relevant* work, very different routing cost.
            let si = indexed.stats();
            let sb = broadcast.stats();
            assert_eq!(
                indexed
                    .tenants()
                    .map(|t| t.relevant_feeds())
                    .collect::<Vec<_>>(),
                broadcast
                    .tenants()
                    .map(|t| t.relevant_feeds())
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                sb.broadcast_touches,
                si.events_ingested * specs.len() as u64
            );
            assert!(
                si.tenant_touches < sb.broadcast_touches,
                "filter must route fewer touches: {} vs {}",
                si.tenant_touches,
                sb.broadcast_touches
            );
        }
    }

    #[test]
    fn restricted_tenant_joins_disjoint_subtrees_at_the_lca() {
        // balanced 2-ary over 7: 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}.
        // Members 3 and 5 live in disjoint subtrees; their reports must
        // meet through relay engines at nodes 1, 2 and the root 0.
        let tree = SpanningTree::balanced_dary(7, 2);
        let mut reg = PredicateRegistry::new(
            &tree,
            &[TenantSpec::restricted(
                PredicateId(0),
                vec![ProcessId(3), ProcessId(5)],
            )],
        );
        let e = exec(7, 3, 5);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
        }
        let dets = reg.root_solutions(PredicateId(0));
        assert!(!dets.is_empty(), "members overlap every round by seq");
        for d in dets {
            let covered: Vec<u32> = d.coverage.iter().map(|r| r.process.0).collect();
            for p in &covered {
                assert!(
                    [3, 5].contains(p),
                    "coverage {covered:?} leaked a non-member"
                );
            }
        }
        // Only member events were routed.
        assert_eq!(
            reg.stats().tenant_touches,
            reg.tenants().next().unwrap().relevant_feeds()
        );
        assert_eq!(reg.stats().tenant_touches, 2 * 3);
    }

    #[test]
    fn irrelevant_events_touch_nothing() {
        let tree = SpanningTree::balanced_dary(5, 2);
        let mut reg = PredicateRegistry::new(
            &tree,
            &[TenantSpec::restricted(PredicateId(7), vec![ProcessId(2)])],
        );
        let e = exec(5, 2, 3);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
        }
        assert_eq!(reg.stats().events_ingested, 10);
        assert_eq!(reg.stats().tenant_touches, 2, "only process 2's events");
        assert_eq!(reg.tenants_for(ProcessId(0)), Vec::<PredicateId>::new());
        assert_eq!(reg.tenants_for(ProcessId(2)), vec![PredicateId(7)]);
    }

    #[test]
    fn single_member_tenant_detects_every_interval() {
        let tree = SpanningTree::balanced_dary(7, 2);
        let mut reg = PredicateRegistry::new(
            &tree,
            &[TenantSpec::restricted(PredicateId(0), vec![ProcessId(6)])],
        );
        let e = exec(7, 4, 2);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
        }
        // A 1-member conjunction holds for each of the member's intervals;
        // each must relay up through non-member ancestors to the root.
        assert_eq!(reg.root_solutions(PredicateId(0)).len(), 4);
    }

    #[test]
    fn member_failure_repairs_only_affected_tenants() {
        let n = 7;
        let topo = Topology::dary_tree(n, 2, 1);
        let tree = SpanningTree::balanced_dary(n, 2);
        let specs = vec![
            TenantSpec::restricted(PredicateId(0), vec![ProcessId(3), ProcessId(4)]),
            TenantSpec::restricted(PredicateId(1), vec![ProcessId(5), ProcessId(6)]),
            TenantSpec::full(PredicateId(2)),
        ];
        let mut reg = PredicateRegistry::new(&tree, &specs);
        reg.fail_node(ProcessId(3), &topo);
        // Every view holding node 3 repairs.
        for k in [0, 2] {
            let view = reg.detector(PredicateId(k)).tree();
            assert!(!view.contains(ftscp_simnet::NodeId(3)));
        }
        assert_eq!(reg.detector(PredicateId(2)).tree().node_count(), 6);
        // Tenant 1 never contained node 3; its view is untouched.
        assert!(reg
            .detector(PredicateId(1))
            .tree()
            .contains(ftscp_simnet::NodeId(5)));
        let e = exec(n, 3, 8);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
        }
        // The dead process routes nowhere; survivors still detect.
        assert_eq!(reg.tenants_for(ProcessId(3)), Vec::<PredicateId>::new());
        assert_eq!(reg.root_solutions(PredicateId(1)).len(), 3);
        assert!(!reg.root_solutions(PredicateId(0)).is_empty());
        for d in reg.root_solutions(PredicateId(0)) {
            assert_eq!(d.covered_processes(), vec![ProcessId(4)]);
        }
    }

    #[test]
    fn shared_pool_interns_across_tenants() {
        let n = 7;
        let tree = SpanningTree::balanced_dary(n, 2);
        let specs: Vec<TenantSpec> = (0..8).map(|k| TenantSpec::full(PredicateId(k))).collect();
        let mut reg = PredicateRegistry::new(&tree, &specs);
        let e = exec(n, 3, 4);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
        }
        // Each distinct bound clock is allocated once, no matter how many
        // tenants consumed it.
        assert!(reg.pool().misses() <= 2 * 21, "one alloc per bound clock");
        assert!(reg.pool().len() > 0);
        // Sharing clocks never couples tenants: every full tenant fed the
        // same stream detects the same thing.
        let seqs = sequences(&reg);
        assert!(seqs.iter().all(|s| *s == seqs[0]));
    }

    #[test]
    fn independent_predicates_detect_independently() {
        let n = 7;
        let tree = SpanningTree::balanced_dary(n, 2);
        let specs = [
            TenantSpec::full(PredicateId(0)),
            TenantSpec::full(PredicateId(1)),
        ];
        let mut reg = PredicateRegistry::new(&tree, &specs);
        // Each predicate has its own stream: 4 clean rounds vs 2.
        for iv in exec(n, 4, 1).intervals_interleaved() {
            reg.feed_tenant(PredicateId(0), iv.clone());
        }
        for iv in exec(n, 2, 2).intervals_interleaved() {
            reg.feed_tenant(PredicateId(1), iv.clone());
        }
        assert_eq!(reg.root_solutions(PredicateId(0)).len(), 4);
        assert_eq!(reg.root_solutions(PredicateId(1)).len(), 2);
        assert_eq!(reg.total_detections(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_registry_rejected() {
        let tree = SpanningTree::balanced_dary(3, 2);
        let _ = PredicateRegistry::new(&tree, &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate predicate id")]
    fn duplicate_ids_rejected() {
        let tree = SpanningTree::balanced_dary(3, 2);
        let _ = PredicateRegistry::new(
            &tree,
            &[
                TenantSpec::full(PredicateId(1)),
                TenantSpec::restricted(PredicateId(1), vec![ProcessId(0)]),
            ],
        );
    }
}
