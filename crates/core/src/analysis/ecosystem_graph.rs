//! The ecosystem graph (§V-E, Figure 8).
//!
//! Nodes are TV channels and domains (eTLD+1); each channel connects to
//! its identified first party, and every third party observed on the
//! channel connects to that first-party node.

use crate::analysis::first_party::FirstPartyMap;
use crate::dataset::StudyDataset;
use hbbtv_graph::Graph;
use hbbtv_stats::{describe, Describe};

/// Channel nodes are prefixed to keep them distinct from domain nodes.
pub const CHANNEL_PREFIX: &str = "ch:";

/// The §V-E computation.
#[derive(Debug, Clone)]
pub struct GraphAnalysis {
    /// The constructed graph.
    pub graph: Graph,
    /// Number of connected components (1 in the paper).
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Average path length between connected node pairs (2.91).
    pub average_path_length: Option<f64>,
    /// Average neighbor degree (the paper's "average connectivity",
    /// 33.4).
    pub average_neighbor_degree: Option<f64>,
    /// Degree summary (mean ≈ 3, SD ≈ 11 in the paper).
    pub degree_stats: Describe,
    /// The three best-connected nodes.
    pub top_hubs: Vec<(String, usize)>,
    /// Nodes with ≥ 10 edges (18 in the paper).
    pub nodes_with_10_edges: usize,
    /// Domain nodes with a single edge (39).
    pub single_edge_domains: usize,
}

impl GraphAnalysis {
    /// Builds and measures the graph.
    pub fn compute(dataset: &StudyDataset, fp_map: &FirstPartyMap) -> Self {
        let mut graph = Graph::new();
        for c in dataset.all_captures() {
            let Some(ch) = c.channel else { continue };
            let Some(fp) = fp_map.first_party(ch) else {
                continue;
            };
            let channel_label = format!(
                "{CHANNEL_PREFIX}{}",
                c.channel_name.as_deref().unwrap_or("unknown")
            );
            graph.add_edge(&channel_label, fp.as_str());
            let domain = c.request.url.etld1();
            if domain != fp {
                graph.add_edge(fp.as_str(), domain.as_str());
            }
        }
        Self::measure(graph)
    }

    /// The shared measurement tail over a constructed graph.
    pub(crate) fn measure(graph: Graph) -> Self {
        let components = graph.connected_components();
        let degree_stats = describe(&graph.degrees());
        GraphAnalysis {
            largest_component: components.first().map(Vec::len).unwrap_or(0),
            components: components.len(),
            average_path_length: graph.average_path_length(),
            average_neighbor_degree: graph.average_neighbor_degree(),
            degree_stats,
            top_hubs: graph
                .hubs(usize::MAX)
                .into_iter()
                .filter(|(label, _)| !label.starts_with(CHANNEL_PREFIX))
                .take(3)
                .collect(),
            nodes_with_10_edges: graph.nodes().filter(|&id| graph.degree(id) >= 10).count(),
            single_edge_domains: graph.single_edge_nodes(|l| !l.starts_with(CHANNEL_PREFIX)),
            graph,
        }
    }

    /// Degree of a domain node, if present.
    pub fn domain_degree(&self, domain: &str) -> Option<usize> {
        self.graph.node(domain).map(|id| self.graph.degree(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunKind;
    use crate::{Ecosystem, StudyHarness};

    fn analysis() -> GraphAnalysis {
        let eco = Ecosystem::with_scale(21, 0.15);
        let harness = StudyHarness::new(&eco);
        let ds = crate::StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        let fp = FirstPartyMap::identify(&ds);
        GraphAnalysis::compute(&ds, &fp)
    }

    #[test]
    fn graph_is_well_connected_with_hub_first_parties() {
        let g = analysis();
        assert!(g.graph.node_count() > 20);
        // Dominated by one giant component.
        assert!(g.largest_component * 10 >= g.graph.node_count() * 8);
        // The German network hubs lead.
        let hubs: Vec<&str> = g.top_hubs.iter().map(|(l, _)| l.as_str()).collect();
        assert!(
            hubs.contains(&"ard.de"),
            "ard.de should be a top hub, got {hubs:?}"
        );
        // Path lengths around 3, as in Figure 8.
        let apl = g.average_path_length.unwrap();
        assert!((2.0..5.0).contains(&apl), "APL {apl}");
    }

    #[test]
    fn neighbor_degree_exceeds_mean_degree() {
        // The hub-and-spoke shape: most nodes neighbor a hub.
        let g = analysis();
        let mean = g.degree_stats.mean;
        let neighbor = g.average_neighbor_degree.unwrap();
        assert!(
            neighbor > mean * 2.0,
            "neighbor degree {neighbor} vs mean {mean}"
        );
    }

    #[test]
    fn single_edge_domains_exist() {
        let g = analysis();
        assert!(
            g.single_edge_domains > 0,
            "boutique trackers hang off one FP"
        );
        assert!(g.nodes_with_10_edges >= 1);
    }

    #[test]
    fn frame_path_builds_the_identical_graph() {
        let eco = Ecosystem::with_scale(51, 0.08);
        let harness = StudyHarness::new(&eco);
        let ds = crate::StudyDataset {
            runs: vec![
                harness.run(RunKind::General),
                harness.run(RunKind::Red),
                harness.run(RunKind::Yellow),
            ],
        };
        let fp = FirstPartyMap::identify(&ds);
        let naive = GraphAnalysis::compute(&ds, &fp);
        let engine = crate::report::StudyReport::compute(&eco, &ds).graph;
        let shape = |g: &GraphAnalysis| -> Vec<(String, Vec<String>)> {
            g.graph
                .nodes()
                .map(|id| {
                    (
                        g.graph.label(id).to_string(),
                        g.graph
                            .neighbors(id)
                            .map(|n| g.graph.label(n).to_string())
                            .collect(),
                    )
                })
                .collect()
        };
        assert_eq!(
            shape(&engine),
            shape(&naive),
            "node ids and adjacency must match the naive insertion order"
        );
    }

    #[test]
    fn tvping_connects_through_first_parties() {
        let g = analysis();
        let tvping = g.domain_degree("tvping.com").unwrap_or(0);
        let ard = g.domain_degree("ard.de").unwrap_or(0);
        assert!(
            tvping < ard,
            "the pixel tracker has few edges ({tvping}) vs the hub ({ard})"
        );
    }
}
