//! Lineage-graph exporter: renders a workload's captured lineage (the
//! paper's Fig. 1(b)/Fig. 8 view) as Graphviz DOT, with iteration strides
//! and cache annotations marked.
//!
//! ```sh
//! cargo run --release -p blaze-bench --bin lineage_dot -- pr > pr.dot
//! dot -Tsvg pr.dot -o pr.svg
//! ```

use blaze_core::extract_dependencies;
use blaze_workloads::{App, AppSpec};

fn parse_app(s: &str) -> App {
    App::from_name(s)
        .unwrap_or_else(|| panic!("unknown app {s:?} ({})", App::all().map(|a| a.key()).join("|")))
}

fn main() {
    let app = parse_app(std::env::args().nth(1).as_deref().unwrap_or("pr"));
    let spec = AppSpec::evaluation(app);
    let profile =
        extract_dependencies(move |ctx| spec.drive_sample(ctx), 0).expect("profiling failed");

    println!("digraph lineage {{");
    println!("  rankdir=LR;");
    println!("  node [shape=box, fontsize=10];");
    println!(
        "  label=\"{} lineage ({} jobs, pattern {:?})\";",
        app.label(),
        profile.job_targets.len(),
        profile.pattern.map(|p| p.stride)
    );

    let targets: std::collections::HashSet<u32> =
        profile.job_targets.iter().map(|t| t.raw()).collect();
    let mut nodes: Vec<_> = profile.lineage.iter().collect();
    nodes.sort_by_key(|n| n.rdd);
    for node in &nodes {
        let refs = profile.refs.future_refs(node.rdd, 0);
        let mut attrs =
            vec![format!("label=\"{}\\n{} (x{})\"", node.rdd, node.name, node.parts.len())];
        if targets.contains(&node.rdd.raw()) {
            attrs.push("style=filled, fillcolor=lightblue".into());
        } else if refs > 1 {
            attrs.push("style=filled, fillcolor=lightyellow".into());
        }
        if node.is_shuffle {
            attrs.push("shape=hexagon".into());
        }
        println!("  r{} [{}];", node.rdd.raw(), attrs.join(", "));
    }
    for node in &nodes {
        for parent in &node.parents {
            println!("  r{} -> r{};", parent.raw(), node.rdd.raw());
        }
    }
    println!("}}");
}
