//! Calling-context-sensitive profiles (extension).
//!
//! The paper aggregates performance tuples *per routine*. Later work in the
//! same tool family attaches them to **calling contexts** instead, so that
//! `parse` called from `load_config` and `parse` called from
//! `handle_request` get separate cost curves. This module provides the
//! supporting structure: a calling-context tree (CCT) whose nodes identify
//! contexts, grown on the fly as activations are observed, plus per-node
//! profile aggregation. [`TrmsProfiler`](crate::TrmsProfiler) populates it
//! when built with
//! [`calling_contexts(true)`](crate::TrmsBuilder::calling_contexts); the
//! trms/rms computation itself is unchanged — only the aggregation key
//! gains context.

use crate::profile::RoutineThreadProfile;
use aprof_trace::{RoutineId, RoutineTable};
use std::collections::HashMap;

/// Identifier of a calling-context-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CctNodeId(pub u32);

impl CctNodeId {
    /// The root context (no pending activations).
    pub const ROOT: CctNodeId = CctNodeId(0);

    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Node {
    routine: Option<RoutineId>,
    parent: CctNodeId,
    depth: u32,
    children: HashMap<RoutineId, CctNodeId>,
}

/// A calling-context tree with per-node input-sensitive profiles.
///
/// Nodes are created lazily: the tree contains exactly the contexts that
/// occurred. Contexts are shared across threads (the per-thread dimension
/// stays inside the profiles).
///
/// # Example
///
/// ```
/// use aprof_core::cct::{Cct, CctNodeId};
/// use aprof_trace::RoutineId;
/// let mut cct = Cct::new();
/// let f = RoutineId::new(0);
/// let g = RoutineId::new(1);
/// let in_f = cct.child(CctNodeId::ROOT, f);
/// let in_fg = cct.child(in_f, g);
/// let in_g = cct.child(CctNodeId::ROOT, g);
/// assert_ne!(in_fg, in_g, "same routine, different contexts");
/// assert_eq!(cct.child(in_f, g), in_fg, "contexts are interned");
/// assert_eq!(cct.depth(in_fg), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Cct {
    nodes: Vec<Node>,
    profiles: Vec<RoutineThreadProfile>,
}

impl Default for Cct {
    fn default() -> Self {
        Self::new()
    }
}

impl Cct {
    /// Creates a tree containing only the root context.
    pub fn new() -> Self {
        Cct {
            nodes: vec![Node { routine: None, parent: CctNodeId::ROOT, depth: 0, children: HashMap::new() }],
            profiles: vec![RoutineThreadProfile::default()],
        }
    }

    /// Returns the context for `routine` called from `parent`, creating it
    /// on first sight.
    pub fn child(&mut self, parent: CctNodeId, routine: RoutineId) -> CctNodeId {
        if let Some(&id) = self.nodes[parent.index()].children.get(&routine) {
            return id;
        }
        let id = CctNodeId(self.nodes.len() as u32);
        let depth = self.nodes[parent.index()].depth + 1;
        self.nodes.push(Node { routine: Some(routine), parent, depth, children: HashMap::new() });
        self.profiles.push(RoutineThreadProfile::default());
        self.nodes[parent.index()].children.insert(routine, id);
        id
    }

    /// The routine a context activates (`None` for the root).
    pub fn routine(&self, node: CctNodeId) -> Option<RoutineId> {
        self.nodes[node.index()].routine
    }

    /// The parent context.
    pub fn parent(&self, node: CctNodeId) -> CctNodeId {
        self.nodes[node.index()].parent
    }

    /// Depth of the context (root = 0).
    pub fn depth(&self, node: CctNodeId) -> u32 {
        self.nodes[node.index()].depth
    }

    /// Number of contexts, including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Records one completed activation under `node`.
    pub fn record(&mut self, node: CctNodeId, trms: u64, rms: u64, cost: u64) {
        self.profiles[node.index()].record(trms, rms, cost);
    }

    /// The profile aggregated at `node`.
    pub fn profile(&self, node: CctNodeId) -> &RoutineThreadProfile {
        &self.profiles[node.index()]
    }

    /// The full call path of a context, root-first, as routine ids.
    pub fn path(&self, mut node: CctNodeId) -> Vec<RoutineId> {
        let mut out = Vec::new();
        while let Some(r) = self.routine(node) {
            out.push(r);
            node = self.parent(node);
        }
        out.reverse();
        out
    }

    /// Renders the call path of a context as `a -> b -> c`.
    pub fn path_string(&self, node: CctNodeId, names: &RoutineTable) -> String {
        self.path(node)
            .into_iter()
            .map(|r| names.get_name(r).map(str::to_owned).unwrap_or_else(|| r.to_string()))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Contexts sorted by decreasing total inclusive cost, with their call
    /// paths — the "hot contexts" view.
    pub fn hottest(&self, names: &RoutineTable) -> Vec<CctContextReport> {
        let mut v: Vec<CctContextReport> = (1..self.nodes.len())
            .map(|i| {
                let id = CctNodeId(i as u32);
                let p = &self.profiles[i];
                CctContextReport {
                    node: id,
                    path: self.path_string(id, names),
                    depth: self.depth(id),
                    calls: p.calls,
                    total_cost: p.total_cost,
                    distinct_trms: p.trms.len(),
                    sum_trms: p.sum_trms,
                }
            })
            .filter(|r| r.calls > 0)
            .collect();
        v.sort_by(|a, b| b.total_cost.cmp(&a.total_cost).then(a.path.cmp(&b.path)));
        v
    }
}

/// Summary of one calling context, for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CctContextReport {
    /// The context node.
    pub node: CctNodeId,
    /// Rendered call path (`main -> f -> g`).
    pub path: String,
    /// Context depth.
    pub depth: u32,
    /// Completed activations in this context.
    pub calls: u64,
    /// Total inclusive cost accumulated in this context.
    pub total_cost: u64,
    /// Number of distinct trms values collected in this context.
    pub distinct_trms: usize,
    /// Sum of trms over the context's activations.
    pub sum_trms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (RoutineId, RoutineId, RoutineId) {
        (RoutineId::new(0), RoutineId::new(1), RoutineId::new(2))
    }

    #[test]
    fn interning_and_paths() {
        let (f, g, h) = ids();
        let mut cct = Cct::new();
        let nf = cct.child(CctNodeId::ROOT, f);
        let nfg = cct.child(nf, g);
        let nfgh = cct.child(nfg, h);
        assert_eq!(cct.path(nfgh), vec![f, g, h]);
        assert_eq!(cct.len(), 4);
        assert_eq!(cct.child(nf, g), nfg);
        assert_eq!(cct.len(), 4, "no duplicate nodes");
        assert!(!cct.is_empty());
    }

    #[test]
    fn profiles_are_per_context() {
        let (f, g, _) = ids();
        let mut cct = Cct::new();
        let nf = cct.child(CctNodeId::ROOT, f);
        let ng = cct.child(CctNodeId::ROOT, g);
        let nfg = cct.child(nf, g);
        cct.record(nfg, 10, 5, 100);
        cct.record(ng, 3, 3, 7);
        assert_eq!(cct.profile(nfg).calls, 1);
        assert_eq!(cct.profile(ng).sum_trms, 3);
        assert_eq!(cct.profile(nf).calls, 0);
    }

    #[test]
    fn hottest_sorts_by_cost() {
        let (f, g, _) = ids();
        let mut names = RoutineTable::new();
        names.intern("f");
        names.intern("g");
        let mut cct = Cct::new();
        let nf = cct.child(CctNodeId::ROOT, f);
        let nfg = cct.child(nf, g);
        cct.record(nf, 1, 1, 10);
        cct.record(nfg, 1, 1, 90);
        let hot = cct.hottest(&names);
        assert_eq!(hot[0].path, "f -> g");
        assert_eq!(hot[0].total_cost, 90);
        assert_eq!(hot[1].path, "f");
    }

    #[test]
    fn root_has_no_routine() {
        let cct = Cct::new();
        assert_eq!(cct.routine(CctNodeId::ROOT), None);
        assert_eq!(cct.depth(CctNodeId::ROOT), 0);
        assert!(cct.is_empty());
    }
}
