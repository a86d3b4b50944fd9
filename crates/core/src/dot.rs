//! Graphviz export of a compiled HPDT — renders the Fig. 11-style state
//! transition diagrams for any query.
//!
//! ```sh
//! xsq --dot '//pub[year>2000]//book[author]//name/text()' | dot -Tsvg > hpdt.svg
//! ```
//!
//! States are grouped into clusters per BPDT (the boxes of Fig. 11);
//! TRUE states are doubly circled, NA states dashed, the buffer actions
//! annotate the edges — matching the paper's visual language.

use std::fmt::Write;

use crate::arcs::{ArcLabel, StateRole};
use crate::build::Hpdt;
use crate::ids::BpdtId;

/// Render the HPDT as a Graphviz `digraph`.
pub fn to_dot(hpdt: &Hpdt) -> String {
    to_dot_named(hpdt, "hpdt", &format!("HPDT for {}", hpdt.merged[0]))
}

/// Render with an explicit graph name and title — `xsq --queries FILE
/// --dot` emits one graph per group, and each must be distinguishable
/// (and concatenable into one Graphviz input).
pub fn to_dot_named(hpdt: &Hpdt, graph_name: &str, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {graph_name} {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(
        out,
        "  label=\"{}\"; labelloc=t; fontsize=16;",
        escape(title)
    );
    let _ = writeln!(out, "  node [fontname=\"monospace\", fontsize=10];");
    let _ = writeln!(out, "  edge [fontname=\"monospace\", fontsize=9];");

    // Cluster states by owning BPDT.
    let mut bpdts: Vec<BpdtId> = hpdt.states.iter().map(|s| s.owner).collect();
    bpdts.sort();
    bpdts.dedup();
    for bpdt in bpdts {
        let _ = writeln!(out, "  subgraph \"cluster_{}_{}\" {{", bpdt.layer, bpdt.seq);
        // A keyed step's box names the family it stands for.
        let keyed = hpdt.keyed.iter().find(|k| k.bpdt == bpdt);
        let _ = writeln!(
            out,
            "    label=\"bpdt({},{}){}\"; style=rounded;",
            bpdt.layer,
            bpdt.seq,
            keyed.map_or(String::new(), |k| format!(" {}", escape(&k.step)))
        );
        for (i, info) in hpdt.states.iter().enumerate() {
            if info.owner != bpdt {
                continue;
            }
            let (shape, style) = match info.role {
                StateRole::Start => ("circle", "bold"),
                StateRole::True => ("doublecircle", "solid"),
                StateRole::Na => ("circle", "dashed"),
                StateRole::Witness => ("circle", "dotted"),
            };
            let _ = writeln!(
                out,
                "    s{i} [label=\"${i}\\n{:?}\", shape={shape}, style={style}];",
                info.role
            );
        }
        let _ = writeln!(out, "  }}");
    }

    for (from, arcs) in crate::arcs::runs(&hpdt.arcs, &hpdt.offsets).enumerate() {
        for arc in arcs {
            let mut label = arc.label.to_string();
            if arc.guard.is_some() {
                label.push_str("\\n[guard]");
            }
            for a in hpdt.actions_of(arc) {
                label.push_str("\\n{");
                label.push_str(a.name());
                label.push('}');
            }
            let style = match arc.label {
                ArcLabel::ClosureSelfLoop => ", style=dashed",
                ArcLabel::Catchall => ", style=dotted",
                _ => "",
            };
            let _ = writeln!(
                out,
                "  s{from} -> s{} [label=\"{}\"{}];",
                arc.target,
                escape(&label),
                style
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_hpdt;
    use xsq_xpath::parse_query;

    #[test]
    fn dot_output_is_structurally_sound() {
        let hpdt = build_hpdt(&parse_query("//pub[year>2000]//book[author]//name/text()").unwrap())
            .unwrap();
        let dot = to_dot(&hpdt);
        assert!(dot.starts_with("digraph hpdt {"));
        assert!(dot.trim_end().ends_with('}'));
        // One cluster per BPDT (Fig. 11 has 8 boxes).
        assert_eq!(dot.matches("subgraph").count(), 8);
        // Every state is declared and referenced consistently.
        for i in 0..hpdt.states.len() {
            assert!(dot.contains(&format!("s{i} [label")), "state {i} missing");
        }
        assert!(dot.contains("queue.flush()"));
        assert!(dot.contains("queue.upload()"));
        assert!(dot.contains("queue.clear()"));
        // Closure machinery rendered.
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn keyed_steps_are_named_in_their_cluster_and_on_their_arcs() {
        let queries: Vec<_> = ["//a[k=1]/v/text()", "//a[k=\"x\"]/v/text()"]
            .iter()
            .map(|q| parse_query(q).unwrap())
            .collect();
        let dot = to_dot(&crate::build::build_merged_hpdt(queries).unwrap());
        assert!(dot.contains("label=\"bpdt(1,0) a[k=?×2]\""), "{dot}");
        assert!(dot.contains("{key.record}") && dot.contains("{key.resolve}"));
    }

    #[test]
    fn named_rendering_controls_graph_name_and_title() {
        let hpdt = build_hpdt(&parse_query("/a/b/text()").unwrap()).unwrap();
        let dot = to_dot_named(&hpdt, "group0", "group 0 HPDT");
        assert!(dot.starts_with("digraph group0 {"));
        assert!(dot.contains("label=\"group 0 HPDT\""));
    }

    #[test]
    fn quotes_in_queries_are_escaped() {
        let hpdt = build_hpdt(&parse_query("/a[b=\"x\"]").unwrap()).unwrap();
        let dot = to_dot(&hpdt);
        assert!(dot.contains("\\\"x\\\""));
    }
}
