//! The evaluation's workload set and a uniform entry point.

use crate::{
    try_run_bc_prepared, Adsorption, Bfs, ConnectedComponents, CoreDecomposition, Mis, PageRank,
    Sssp,
};
use chgraph::{ExecError, ExecutionReport, PreparedOags, RunConfig, Runtime};
use hypergraph::{Hypergraph, VertexId};
use std::fmt;
use std::str::FromStr;

/// The deterministic source vertex used by the traversal workloads: the
/// highest-degree vertex (ties broken by lowest id), so the traversal is
/// never a trivial no-op on an isolated vertex.
pub fn default_source(g: &Hypergraph) -> VertexId {
    let mut best = 0usize;
    for v in 1..g.num_vertices() {
        if g.vertex_degree(VertexId::from_index(v)) > g.vertex_degree(VertexId::from_index(best)) {
            best = v;
        }
    }
    VertexId::from_index(best)
}

/// The six hypergraph workloads of the paper's evaluation (§VI-A) plus the
/// two ordinary-graph workloads of the generality study (§VI-I).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Workload {
    /// Breadth-first search.
    Bfs,
    /// PageRank (10 iterations, all active).
    Pr,
    /// Maximal independent set.
    Mis,
    /// Betweenness centrality (single source, forward + backward).
    Bc,
    /// Connected components.
    Cc,
    /// k-core decomposition (full coreness computation).
    KCore,
    /// Weighted single-source shortest paths (generality study).
    Sssp,
    /// Adsorption label propagation (generality study).
    Adsorption,
}

impl Workload {
    /// The six hypergraph workloads, in the paper's presentation order.
    pub const HYPERGRAPH: [Workload; 6] =
        [Workload::Bfs, Workload::Pr, Workload::Mis, Workload::Bc, Workload::Cc, Workload::KCore];

    /// The two ordinary-graph workloads of Fig. 25.
    pub const GRAPH: [Workload; 2] = [Workload::Adsorption, Workload::Sssp];

    /// Short label as used in the paper's figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            Workload::Bfs => "BFS",
            Workload::Pr => "PR",
            Workload::Mis => "MIS",
            Workload::Bc => "BC",
            Workload::Cc => "CC",
            Workload::KCore => "k-core",
            Workload::Sssp => "SSSP",
            Workload::Adsorption => "Adsorption",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

impl FromStr for Workload {
    type Err = String;

    /// Parses a workload name, case-insensitively: `bfs`, `pr`/`pagerank`,
    /// `mis`, `bc`, `cc`, `kcore`/`k-core`, `sssp`, `adsorption`.
    fn from_str(name: &str) -> Result<Self, String> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "bfs" => Workload::Bfs,
            "pr" | "pagerank" => Workload::Pr,
            "mis" => Workload::Mis,
            "bc" => Workload::Bc,
            "cc" => Workload::Cc,
            "kcore" | "k-core" => Workload::KCore,
            "sssp" => Workload::Sssp,
            "adsorption" => Workload::Adsorption,
            _ => return Err(format!("unknown workload {name:?}")),
        })
    }
}

/// Executes `workload` on `g` under `runtime` with the standard parameters
/// of the evaluation (source vertex 0 for traversals, k = 3 for k-core,
/// 10 iterations for PR/Adsorption).
///
/// # Panics
///
/// Panics with the [`ExecError`] message if the execution fails; use
/// [`try_run_workload_prepared`] to keep failures typed.
pub fn run_workload(
    workload: Workload,
    runtime: &dyn Runtime,
    g: &Hypergraph,
    cfg: &RunConfig,
) -> ExecutionReport {
    try_run_workload_prepared(workload, runtime, g, cfg, None)
        .unwrap_or_else(|e| panic!("{}: {e}", runtime.name()))
}

/// Fallible [`run_workload`] with optional pre-built OAG artifacts.
/// Passing `Some(prepared)` skips per-execution OAG construction for
/// chain-driven runtimes; the report is bit-identical either way (see
/// [`Runtime::try_execute_prepared`]). Watchdog budgets and
/// structural-validation failures surface as a typed [`ExecError`].
pub fn try_run_workload_prepared(
    workload: Workload,
    runtime: &dyn Runtime,
    g: &Hypergraph,
    cfg: &RunConfig,
    prepared: Option<&PreparedOags>,
) -> Result<ExecutionReport, ExecError> {
    let source = default_source(g);
    match workload {
        Workload::Bfs => runtime.try_execute_prepared(g, &Bfs::new(source), cfg, prepared),
        Workload::Pr => runtime.try_execute_prepared(g, &PageRank::new(), cfg, prepared),
        Workload::Mis => runtime.try_execute_prepared(g, &Mis, cfg, prepared),
        Workload::Bc => try_run_bc_prepared(runtime, g, cfg, source, prepared),
        Workload::Cc => runtime.try_execute_prepared(g, &ConnectedComponents, cfg, prepared),
        Workload::KCore => {
            runtime.try_execute_prepared(g, &CoreDecomposition::new(), cfg, prepared)
        }
        Workload::Sssp => runtime.try_execute_prepared(g, &Sssp::new(source), cfg, prepared),
        Workload::Adsorption => runtime.try_execute_prepared(g, &Adsorption::new(), cfg, prepared),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chgraph::HygraRuntime;

    #[test]
    fn every_workload_runs_on_fig1() {
        let g = hypergraph::fig1_example();
        let cfg = RunConfig::new();
        for w in Workload::HYPERGRAPH.into_iter().chain(Workload::GRAPH) {
            let r = run_workload(w, &HygraRuntime, &g, &cfg);
            assert!(r.cycles > 0, "{w}: zero cycles");
            assert!(r.iterations > 0, "{w}: zero iterations");
        }
    }

    #[test]
    fn workload_names_parse_with_aliases_and_any_case() {
        for (name, want) in [
            ("bfs", Workload::Bfs),
            ("BFS", Workload::Bfs),
            ("pr", Workload::Pr),
            ("pagerank", Workload::Pr),
            ("PageRank", Workload::Pr),
            ("mis", Workload::Mis),
            ("Mis", Workload::Mis),
            ("bc", Workload::Bc),
            ("BC", Workload::Bc),
            ("cc", Workload::Cc),
            ("cC", Workload::Cc),
            ("kcore", Workload::KCore),
            ("k-core", Workload::KCore),
            ("K-Core", Workload::KCore),
            ("sssp", Workload::Sssp),
            ("SSSP", Workload::Sssp),
            ("adsorption", Workload::Adsorption),
            ("Adsorption", Workload::Adsorption),
        ] {
            assert_eq!(name.parse::<Workload>(), Ok(want), "{name}");
        }
        assert_eq!("dfs".parse::<Workload>(), Err("unknown workload \"dfs\"".into()));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Workload::KCore.to_string(), "k-core");
        assert_eq!(Workload::Pr.abbrev(), "PR");
        assert_eq!(Workload::HYPERGRAPH.len(), 6);
        assert_eq!(Workload::GRAPH.len(), 2);
    }
}
