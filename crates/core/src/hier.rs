//! [`HierarchicalDetector`] — a whole tree of engines, driven in memory.

use crate::engine::{EngineOutput, NodeEngine};
use crate::report::GlobalDetection;
use crate::{nid, pid};
use ftscp_intervals::Interval;
use ftscp_simnet::{SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::{OpCounter, ProcessId};
use std::collections::VecDeque;

/// In-memory hierarchical detector: one [`NodeEngine`] per tree node,
/// with parent forwarding performed synchronously.
///
/// This is the library's primary convenience API. It is deterministic:
/// intervals are processed in feed order, and an interval's effects (up to
/// and including root detections) complete before `feed` returns.
///
/// For a *distributed* deployment with real message delays, heartbeats and
/// multi-hop routing, see [`crate::deploy`].
pub struct HierarchicalDetector {
    tree: SpanningTree,
    engines: Vec<Option<NodeEngine>>,
    detections: Vec<GlobalDetection>,
    /// Per-node subtree-level solution counts (partial predicate
    /// detections), indexed by node.
    node_solutions: Vec<u64>,
    /// Optional per-node solution logs (group-level monitoring).
    node_solution_log: Option<Vec<Vec<ftscp_intervals::Solution>>>,
    ops: OpCounter,
    /// Sweep mode of every engine, re-applied to rejoined ones.
    sweep_mode: ftscp_intervals::SweepMode,
    /// Logical feed counter used as the detection "time".
    feeds: u64,
}

impl HierarchicalDetector {
    /// Builds a detector over `tree` (all nodes alive).
    pub fn new(tree: &SpanningTree) -> Self {
        let n = tree.capacity();
        let ops = OpCounter::new();
        let mut engines: Vec<Option<NodeEngine>> = (0..n).map(|_| None).collect();
        for node in tree.nodes() {
            let children: Vec<ProcessId> = tree.children(node).iter().map(|&c| pid(c)).collect();
            let is_root = node == tree.root();
            let mut engine =
                NodeEngine::new(pid(node), &children, is_root).with_ops_counter(ops.clone());
            engine.set_level((tree.height() - tree.depth(node)) as u32);
            engines[node.index()] = Some(engine);
        }
        HierarchicalDetector {
            tree: tree.clone(),
            engines,
            detections: Vec::new(),
            node_solutions: vec![0; n],
            node_solution_log: None,
            ops,
            sweep_mode: ftscp_intervals::SweepMode::default(),
            feeds: 0,
        }
    }

    /// Builds a detector for a *member-restricted* predicate: the
    /// conjunction ranges only over `members`, evaluated on a pruned view
    /// of the shared `tree`.
    ///
    /// The view keeps every member plus every ancestor on a member's path
    /// to the root, so members sitting in disjoint subtrees still meet at
    /// their lowest common ancestor. Member nodes run full engines
    /// (`Q_0` + child queues); in-view non-members run *relay* engines
    /// ([`NodeEngine::new_relay`]) that aggregate and forward child
    /// reports but contribute no local intervals. Intervals fed for
    /// processes outside the view are ignored, exactly like intervals of
    /// failed nodes — this is the per-tenant half of the multi-tenant
    /// relevance filter (see `crate::registry`).
    ///
    /// With `members` = every node of `tree`, detection outcomes are
    /// identical to [`new`](Self::new) (the view is the whole tree and no
    /// relays exist).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or names a node outside `tree`.
    pub fn with_members(tree: &SpanningTree, members: &[ProcessId]) -> Self {
        assert!(!members.is_empty(), "member set must be non-empty");
        let n = tree.capacity();
        let mut in_view = vec![false; n];
        let mut is_member = vec![false; n];
        for &m in members {
            assert!(
                tree.contains(nid(m)),
                "member {m} is not in the spanning tree"
            );
            is_member[m.index()] = true;
            // Ancestor closure: walk to the root, stopping at the first
            // node already claimed (its chain is already in the view).
            let mut cur = nid(m);
            loop {
                if in_view[cur.index()] {
                    break;
                }
                in_view[cur.index()] = true;
                match tree.parent(cur) {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        let claims: Vec<(ftscp_simnet::NodeId, Option<ftscp_simnet::NodeId>)> = (0..n)
            .filter(|&i| in_view[i])
            .map(|i| {
                let node = ftscp_simnet::NodeId(i as u32);
                (node, tree.parent(node))
            })
            .collect();
        let view = SpanningTree::from_membership(&claims, n, tree.root());

        let ops = OpCounter::new();
        let mut engines: Vec<Option<NodeEngine>> = (0..n).map(|_| None).collect();
        for node in view.nodes() {
            let children: Vec<ProcessId> = view.children(node).iter().map(|&c| pid(c)).collect();
            let is_root = node == view.root();
            let mut engine = if is_member[node.index()] {
                NodeEngine::new(pid(node), &children, is_root)
            } else {
                NodeEngine::new_relay(pid(node), &children, is_root)
            }
            .with_ops_counter(ops.clone());
            engine.set_level((view.height() - view.depth(node)) as u32);
            engines[node.index()] = Some(engine);
        }
        HierarchicalDetector {
            tree: view,
            engines,
            detections: Vec::new(),
            node_solutions: vec![0; n],
            node_solution_log: None,
            ops,
            sweep_mode: ftscp_intervals::SweepMode::default(),
            feeds: 0,
        }
    }

    /// Sets the head-overlap sweep mode of every engine (see
    /// [`ftscp_intervals::SweepMode`]). Detection outcomes are identical
    /// in both modes; only the number of clock comparisons billed to the
    /// shared [`ops`](Self::ops) counter differs — this is the knob the
    /// benchmark harness flips for its before/after comparison.
    pub fn with_sweep_mode(mut self, mode: ftscp_intervals::SweepMode) -> Self {
        self.sweep_mode = mode;
        for slot in self.engines.iter_mut() {
            if let Some(e) = slot.take() {
                *slot = Some(e.with_sweep_mode(mode));
            }
        }
        self
    }

    /// Enables per-node solution logging: every subtree-level solution is
    /// retained, queryable via [`solution_log_at`](Self::solution_log_at).
    /// This is the "finer-grained monitoring at the group level" interface
    /// the paper motivates — each interior node is a group root.
    pub fn with_node_solution_log(mut self) -> Self {
        self.node_solution_log = Some(vec![Vec::new(); self.engines.len()]);
        self
    }

    /// The recorded subtree-level solutions of `node` (group-level view).
    ///
    /// # Panics
    ///
    /// Panics unless [`with_node_solution_log`](Self::with_node_solution_log)
    /// was enabled.
    pub fn solution_log_at(&self, node: ProcessId) -> &[ftscp_intervals::Solution] {
        self.node_solution_log
            .as_ref()
            .expect("solution log not enabled; call with_node_solution_log()")[node.index()]
        .as_slice()
    }

    /// The current spanning tree.
    pub fn tree(&self) -> &SpanningTree {
        &self.tree
    }

    /// Shared vector-clock comparison counter (the paper's time-cost unit).
    pub fn ops(&self) -> &OpCounter {
        &self.ops
    }

    /// All root-level detections so far, in order.
    pub fn root_solutions(&self) -> &[GlobalDetection] {
        &self.detections
    }

    /// Subtree-level solution count at `node` (partial predicate
    /// detections — non-zero at interior nodes even when the global
    /// predicate never holds).
    pub fn solutions_at(&self, node: ProcessId) -> u64 {
        self.node_solutions[node.index()]
    }

    /// Total intervals resident across all engines (space accounting).
    pub fn resident(&self) -> usize {
        self.engines.iter().flatten().map(|e| e.resident()).sum()
    }

    /// Sum of every engine's queue-bank statistics (enqueues, sweeps,
    /// prunes, solutions, cache traffic) — the whole-tree cost picture the
    /// benchmark harness reports alongside [`ops`](Self::ops).
    pub fn bank_stats_total(&self) -> ftscp_intervals::BankStats {
        let mut total = ftscp_intervals::BankStats::default();
        for e in self.engines.iter().flatten() {
            let s = e.bank_stats();
            total.enqueued += s.enqueued;
            total.swept += s.swept;
            total.pruned += s.pruned;
            total.solutions += s.solutions;
            total.peak_resident = total.peak_resident.max(s.peak_resident);
            total.peak_queue_len = total.peak_queue_len.max(s.peak_queue_len);
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
            total.gate_hits += s.gate_hits;
            total.gate_misses += s.gate_misses;
        }
        total
    }

    /// Peak resident intervals at any single node.
    pub fn peak_queue_len(&self) -> usize {
        self.engines
            .iter()
            .flatten()
            .map(|e| e.bank_stats().peak_queue_len)
            .max()
            .unwrap_or(0)
    }

    /// Feeds one completed local interval (owner = `interval.source`).
    /// Intervals of each process must be fed in their per-process order;
    /// interleaving across processes is free.
    ///
    /// Intervals owned by failed/removed nodes are ignored.
    pub fn feed(&mut self, interval: Interval) {
        self.feeds += 1;
        let owner = interval.source;
        if self.engines[owner.index()].is_none() {
            return;
        }
        let outputs = self.engines[owner.index()]
            .as_mut()
            .expect("checked")
            .on_local_interval(interval);
        self.propagate(owner, outputs);
    }

    fn propagate(&mut self, from: ProcessId, outputs: Vec<EngineOutput>) {
        let mut queue: VecDeque<(ProcessId, EngineOutput)> =
            outputs.into_iter().map(|o| (from, o)).collect();
        while let Some((node, out)) = queue.pop_front() {
            match out {
                EngineOutput::Detected(sol) => {
                    self.node_solutions[node.index()] += 1;
                    if let Some(log) = self.node_solution_log.as_mut() {
                        log[node.index()].push(sol.clone());
                    }
                    self.detections
                        .push(GlobalDetection::new(node, sol, SimTime(self.feeds)));
                }
                EngineOutput::ToParent { interval, solution } => {
                    self.node_solutions[node.index()] += 1;
                    if let Some(log) = self.node_solution_log.as_mut() {
                        log[node.index()].push(solution);
                    }
                    let Some(parent) = self.tree.parent(nid(node)) else {
                        // Orphan subtree root (partition): detection stays
                        // local; nothing to forward.
                        continue;
                    };
                    let parent = pid(parent);
                    if let Some(engine) = self.engines[parent.index()].as_mut() {
                        let outs = engine.on_child_interval(node, interval);
                        for o in outs {
                            queue.push_back((parent, o));
                        }
                    }
                }
            }
        }
    }

    /// §III-F: `node` crash-stops. The tree is repaired (orphan subtrees
    /// re-attach through `topology` neighbors), affected engines are
    /// rewired, and re-attached subtree roots re-report their last output
    /// to their new parents. Detections released by the repair are
    /// recorded as usual.
    pub fn fail_node(&mut self, node: ProcessId, topology: &Topology) {
        if self.engines[node.index()].is_none() {
            return;
        }
        let mut alive: Vec<bool> = (0..self.tree.capacity())
            .map(|i| self.engines[i].is_some())
            .collect();
        alive[node.index()] = false;
        self.engines[node.index()] = None;

        // Snapshot parents so we can tell who was re-parented.
        let old_parents: Vec<Option<ftscp_simnet::NodeId>> = (0..self.tree.capacity())
            .map(|i| self.tree.parent(ftscp_simnet::NodeId(i as u32)))
            .collect();

        let report = self.tree.handle_failure(nid(node), topology, &alive);

        // Promote a new root if the root died; its last (possibly
        // un-consumed) output is re-published as a detection.
        if let Some(new_root) = report.new_root {
            let outs = if let Some(e) = self.engines[new_root.index()].as_mut() {
                e.set_root(true);
                e.reseed_last_output()
            } else {
                Vec::new()
            };
            self.propagate(pid(new_root), outs);
        }

        // The failed node's former parent drops the child queue.
        if let Some(p) = report.former_parent {
            let p = pid(p);
            if let Some(e) = self.engines[p.index()].as_mut() {
                let outs = e.remove_child(node);
                self.propagate(p, outs);
            }
        }

        // Rewire every affected node: reconcile engine children with the
        // repaired tree, then have re-parented nodes re-report.
        for &affected in &report.affected {
            let ap = pid(affected);
            let Some(engine) = self.engines[ap.index()].as_mut() else {
                continue;
            };
            let tree_children: Vec<ProcessId> = self
                .tree
                .children(affected)
                .iter()
                .map(|&c| pid(c))
                .collect();
            // Remove engine children no longer in the tree.
            let mut removal_outputs = Vec::new();
            for c in engine.children().to_vec() {
                if !tree_children.contains(&c) {
                    removal_outputs.extend(engine.remove_child(c));
                }
            }
            // Add newly adopted children.
            for c in &tree_children {
                if !engine.has_child(*c) {
                    engine.add_child(*c);
                }
            }
            engine.set_root(self.tree.root() == nid(ap));
            self.propagate(ap, removal_outputs);
        }

        // Every re-parented node re-sends its last output so the new
        // parent's fresh queue is seeded (§III-B: "P2 will report its later
        // aggregated interval ... to its new parent, P4"). This covers both
        // re-attached orphan roots and nodes whose edges flipped during the
        // orphan subtree's re-rooting.
        for &affected in &report.affected {
            if self.engines[affected.index()].is_none() {
                continue;
            }
            let new_parent = self.tree.parent(affected);
            if new_parent.is_none() || new_parent == old_parents[affected.index()] {
                continue;
            }
            let cp = pid(affected);
            let last = self.engines[cp.index()]
                .as_ref()
                .and_then(|e| e.last_output().cloned());
            if let Some(interval) = last {
                let pp = pid(new_parent.expect("checked"));
                if let Some(engine) = self.engines[pp.index()].as_mut() {
                    let outs = engine.on_child_interval(cp, interval);
                    self.propagate(pp, outs);
                }
            }
        }
    }

    /// Snapshot of `node`'s engine state, for persistence-based recovery
    /// (`None` if the node has failed/been removed).
    pub fn checkpoint_node(&self, node: ProcessId) -> Option<crate::engine::EngineCheckpoint> {
        self.engines[node.index()].as_ref().map(|e| e.checkpoint())
    }

    /// Crash-**recovery** (beyond the paper's crash-stop model): a node
    /// that persisted an [`EngineCheckpoint`](crate::engine::EngineCheckpoint)
    /// reboots and rejoins the tree as a leaf under an alive topology
    /// neighbor. Its local queue, output counter, and dedup state are
    /// restored from the checkpoint (so nothing is double-reported); its
    /// former child queues are dropped (those subtrees were re-parented
    /// when it failed). Its last output is re-reported to the new parent.
    ///
    /// Returns `Err` if the node is still alive or no alive neighbor is in
    /// the tree.
    pub fn rejoin_node(
        &mut self,
        node: ProcessId,
        checkpoint: crate::engine::EngineCheckpoint,
        topology: &Topology,
    ) -> Result<(), String> {
        if self.engines[node.index()].is_some() {
            return Err(format!("{node} is still alive"));
        }
        if checkpoint.node != node {
            return Err(format!(
                "checkpoint belongs to {}, not {node}",
                checkpoint.node
            ));
        }
        // Find an alive tree member adjacent in the topology.
        let parent = topology
            .neighbors(nid(node))
            .iter()
            .copied()
            .find(|&nb| self.tree.contains(nb) && self.engines[nb.index()].is_some())
            .ok_or_else(|| format!("{node} has no alive tree neighbor"))?;

        self.tree.rejoin_leaf(nid(node), parent);

        // Restore the engine; it rejoins as a leaf: drop stale child
        // queues (their subtrees were re-parented at failure time). Any
        // solutions released by the removals are legitimate (the dedup set
        // came along in the checkpoint) and propagate normally. The engine
        // bills the shared counter and sweeps in the detector's mode.
        let mut engine = NodeEngine::restore(checkpoint)
            .with_ops_counter(self.ops.clone())
            .with_sweep_mode(self.sweep_mode);
        engine.set_root(false);
        engine.set_level(1);
        let mut outputs = Vec::new();
        for child in engine.children().to_vec() {
            outputs.extend(engine.remove_child(child));
        }
        let last = engine.last_output().cloned();
        self.engines[node.index()] = Some(engine);
        self.propagate(node, outputs);

        // Seed the adopter.
        let pp = pid(parent);
        if let Some(p_engine) = self.engines[pp.index()].as_mut() {
            if !p_engine.has_child(node) {
                p_engine.add_child(node);
            }
            if let Some(interval) = last {
                let outs = p_engine.on_child_interval(node, interval);
                self.propagate(pp, outs);
            }
        }
        Ok(())
    }

    /// Validates every recorded detection against the original intervals
    /// (pairwise `overlap` over the covered local intervals). Used by the
    /// test suite; cheap enough to run after any experiment.
    pub fn verify_detections(
        &self,
        lookup: impl Fn(ProcessId, u64) -> Option<Interval>,
    ) -> Result<(), String> {
        for det in &self.detections {
            let mut members = Vec::new();
            for r in &det.coverage {
                let iv =
                    lookup(r.process, r.seq).ok_or_else(|| format!("unknown interval {r:?}"))?;
                members.push(iv);
            }
            if !ftscp_intervals::definitely_holds(&members) {
                return Err(format!(
                    "detection at {} covering {:?} violates overlap",
                    det.at_node, det.coverage
                ));
            }
        }
        Ok(())
    }

    /// The per-node solution counts, useful for asserting the "detect at
    /// every level" property.
    pub fn solution_counts(&self) -> Vec<(ProcessId, u64)> {
        self.node_solutions
            .iter()
            .enumerate()
            .map(|(i, &c)| (ProcessId(i as u32), c))
            .collect()
    }
}
