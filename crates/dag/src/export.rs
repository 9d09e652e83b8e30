//! Graphviz export of task DAGs (for papers, docs and debugging — the
//! paper's Fig. 3 is exactly such a rendering).

use crate::{StepClass, TaskGraph};
use std::fmt::Write;

/// Render the DAG in Graphviz DOT format. Node labels use the paper's
/// shorthand (`T`, `E`, `UT`, `UE`); each step class gets its own color.
pub fn to_dot(g: &TaskGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph tiled_qr {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [style=filled, fontname=\"monospace\"];");
    for (id, task) in g.tasks().iter().enumerate() {
        let color = match task.class() {
            StepClass::Triangulation => "gold",
            StepClass::Elimination => "salmon",
            StepClass::UpdateTriangulation => "lightblue",
            StepClass::UpdateElimination => "lightgreen",
        };
        let _ = writeln!(
            out,
            "  n{id} [label=\"{}\", fillcolor={color}];",
            task.label()
        );
    }
    for id in 0..g.len() {
        for &s in g.succs(id) {
            let _ = writeln!(out, "  n{id} -> n{s};");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EliminationTree;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let g = TaskGraph::build_tree(3, 3, EliminationTree::Flat);
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph"));
        for id in 0..g.len() {
            assert!(dot.contains(&format!("n{id} [label=")));
        }
        let edge_count = dot.matches(" -> ").count();
        let expect: usize = (0..g.len()).map(|i| g.succs(i).len()).sum();
        assert_eq!(edge_count, expect);
    }

    #[test]
    fn labels_use_paper_shorthand() {
        let g = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
        let dot = to_dot(&g);
        assert!(dot.contains("T(0,0)"));
        assert!(dot.contains("E(0,1,0)"));
    }
}
