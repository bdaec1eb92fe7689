//! The three principal runtimes: Hygra, software GLA, and ChGraph.

use crate::exec::{Driver, ExecMode};
use crate::guard::ExecError;
use crate::{preprocess, Algorithm, ExecutionReport, RunConfig, Runtime};
use hypergraph::{Hypergraph, Side};
use oag::{Oag, OagBuildStats, OagConfig};

/// Both OAGs of a hypergraph plus the preprocessing report they imply,
/// built once and shared across the executions of an evaluation grid
/// (every `(workload, system)` cell of one dataset column reuses them).
///
/// A `PreparedOags` is only valid for the [`OagConfig`] it was built with;
/// [`Runtime::try_execute_prepared`] checks `cfg` equality and falls back to a
/// fresh build on mismatch, so reuse can never change a report.
#[derive(Clone, Debug)]
pub struct PreparedOags {
    /// The configuration the OAGs were built with.
    pub cfg: OagConfig,
    /// Hyperedge-side OAG.
    pub hyperedge: Oag,
    /// Vertex-side OAG.
    pub vertex: Oag,
    /// The preprocessing report a chain-driven runtime would produce from
    /// building these OAGs itself.
    pub report: crate::PreprocessReport,
}

impl PreparedOags {
    /// Builds both OAGs with `cfg.oag` across `cfg.oag_build_threads`
    /// host threads. Bit-identical for any thread count.
    pub fn build(g: &Hypergraph, cfg: &RunConfig) -> Self {
        let (h_oag, h_stats) =
            cfg.oag.build_with_stats_threads(g, Side::Hyperedge, cfg.oag_build_threads);
        let (v_oag, v_stats) =
            cfg.oag.build_with_stats_threads(g, Side::Vertex, cfg.oag_build_threads);
        Self::from_parts(g, cfg.oag, (h_oag, h_stats), (v_oag, v_stats))
    }

    /// Assembles a `PreparedOags` from already-built per-side artifacts
    /// (the disk-cache restore path). The parts must be exactly what
    /// `cfg.build_with_stats` would produce for `g`.
    pub fn from_parts(
        g: &Hypergraph,
        cfg: OagConfig,
        hyperedge: (Oag, OagBuildStats),
        vertex: (Oag, OagBuildStats),
    ) -> Self {
        let merged = preprocess::merge_stats(hyperedge.1, vertex.1);
        let extra = hyperedge.0.size_bytes() + vertex.0.size_bytes();
        let report = preprocess::report_with_oag(g, merged, extra);
        PreparedOags { cfg, hyperedge: hyperedge.0, vertex: vertex.0, report }
    }

    /// Whether these artifacts can stand in for a fresh `cfg` build.
    pub fn matches(&self, cfg: &RunConfig) -> bool {
        self.cfg == cfg.oag
    }
}

/// Builds both OAGs and merged preprocessing statistics for a chain-driven
/// runtime.
fn build_oags(g: &Hypergraph, cfg: &RunConfig) -> (Oag, Oag, crate::PreprocessReport) {
    let p = PreparedOags::build(g, cfg);
    (p.hyperedge, p.vertex, p.report)
}

fn assemble(
    runtime: &'static str,
    algo_name: &'static str,
    out: crate::exec::DriverOutput,
    preprocess: crate::PreprocessReport,
    engine_used: bool,
) -> ExecutionReport {
    ExecutionReport {
        runtime,
        algorithm: algo_name,
        iterations: out.iterations,
        cycles: out.cycles,
        core_busy_cycles: out.core_busy_cycles,
        mem_stall_cycles: out.mem_stall_cycles,
        mem: out.mem,
        state: out.state,
        engine: engine_used.then_some(out.engine),
        preprocess,
    }
}

/// The Hygra baseline: index-ordered scheduling on general-purpose cores
/// (paper Algorithm 1; Shun, PPoPP'20). No OAG, no engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct HygraRuntime;

impl Runtime for HygraRuntime {
    fn name(&self) -> &'static str {
        "hygra"
    }

    fn try_execute(
        &self,
        g: &Hypergraph,
        algo: &dyn Algorithm,
        cfg: &RunConfig,
    ) -> Result<ExecutionReport, ExecError> {
        let out = Driver::try_new(g, algo, cfg, ExecMode::IndexOrdered, None, None)?.try_run()?;
        Ok(assemble(self.name(), algo.name(), out, preprocess::report_plain(g), false))
    }
}

/// The pure-software GLA runtime: chains are generated by the cores
/// themselves (Algorithm 3 in software). Reduces main-memory accesses like
/// ChGraph, but the runtime generation overhead makes it *slower* than
/// Hygra on most workloads (Figs. 2–3, 14) — the observation motivating the
/// hardware engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct GlaRuntime;

impl Runtime for GlaRuntime {
    fn name(&self) -> &'static str {
        "gla"
    }

    fn try_execute(
        &self,
        g: &Hypergraph,
        algo: &dyn Algorithm,
        cfg: &RunConfig,
    ) -> Result<ExecutionReport, ExecError> {
        let (h_oag, v_oag, pre) = build_oags(g, cfg);
        let out =
            Driver::try_new(g, algo, cfg, ExecMode::SoftwareChains, Some(&h_oag), Some(&v_oag))?
                .try_run()?;
        Ok(assemble(self.name(), algo.name(), out, pre, false))
    }

    fn try_execute_prepared(
        &self,
        g: &Hypergraph,
        algo: &dyn Algorithm,
        cfg: &RunConfig,
        prepared: Option<&PreparedOags>,
    ) -> Result<ExecutionReport, ExecError> {
        match prepared {
            Some(p) if p.matches(cfg) => {
                let out = Driver::try_new(
                    g,
                    algo,
                    cfg,
                    ExecMode::SoftwareChains,
                    Some(&p.hyperedge),
                    Some(&p.vertex),
                )?
                .try_run()?;
                Ok(assemble(self.name(), algo.name(), out, p.report, false))
            }
            _ => self.try_execute(g, algo, cfg),
        }
    }
}

/// The ChGraph runtime: the per-core hardware engine generates chains (HCG)
/// and, unless configured as the HCG-only ablation, prefetches bipartite
/// edge tuples (CP) that the core consumes through the FIFO (§V).
#[derive(Clone, Copy, Debug)]
pub struct ChGraphRuntime {
    prefetch: bool,
}

impl ChGraphRuntime {
    /// Full ChGraph: HCG + CP.
    pub fn new() -> Self {
        ChGraphRuntime { prefetch: true }
    }

    /// The HCG-only ablation of Fig. 16: hardware chain generation, but the
    /// core performs its own data loading.
    pub fn hcg_only() -> Self {
        ChGraphRuntime { prefetch: false }
    }

    /// Whether the chain-driven prefetcher is enabled.
    pub fn has_prefetcher(&self) -> bool {
        self.prefetch
    }
}

impl Default for ChGraphRuntime {
    fn default() -> Self {
        ChGraphRuntime::new()
    }
}

impl Runtime for ChGraphRuntime {
    fn name(&self) -> &'static str {
        if self.prefetch {
            "chgraph"
        } else {
            "chgraph-hcg"
        }
    }

    fn try_execute(
        &self,
        g: &Hypergraph,
        algo: &dyn Algorithm,
        cfg: &RunConfig,
    ) -> Result<ExecutionReport, ExecError> {
        let (h_oag, v_oag, pre) = build_oags(g, cfg);
        let mode = ExecMode::HardwareChains { prefetch: self.prefetch };
        let out = Driver::try_new(g, algo, cfg, mode, Some(&h_oag), Some(&v_oag))?.try_run()?;
        Ok(assemble(self.name(), algo.name(), out, pre, true))
    }

    fn try_execute_prepared(
        &self,
        g: &Hypergraph,
        algo: &dyn Algorithm,
        cfg: &RunConfig,
        prepared: Option<&PreparedOags>,
    ) -> Result<ExecutionReport, ExecError> {
        match prepared {
            Some(p) if p.matches(cfg) => {
                let mode = ExecMode::HardwareChains { prefetch: self.prefetch };
                let out = Driver::try_new(g, algo, cfg, mode, Some(&p.hyperedge), Some(&p.vertex))?
                    .try_run()?;
                Ok(assemble(self.name(), algo.name(), out, p.report, true))
            }
            _ => self.try_execute(g, algo, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MinLabel, RunConfig};
    use archsim::SystemConfig;

    fn graph() -> Hypergraph {
        // Quarter-scale Web-trackers stand-in with proportionally scaled
        // caches below: the paper's capacity-miss regime at test size.
        let mut c = hypergraph::datasets::Dataset::WebTrackers.config();
        c.num_vertices /= 4;
        c.num_hyperedges /= 4;
        c.generate()
    }

    fn cfg() -> RunConfig {
        let mut s = SystemConfig::scaled(4);
        s.l1.size_bytes = 1024;
        s.l2.size_bytes = 4 * 1024;
        s.l3.size_bytes = 16 * 1024;
        RunConfig::new().with_system(s)
    }

    #[test]
    fn three_runtimes_agree_on_results() {
        let g = graph();
        let cfg = cfg();
        let h = HygraRuntime.execute(&g, &MinLabel, &cfg);
        let s = GlaRuntime.execute(&g, &MinLabel, &cfg);
        let c = ChGraphRuntime::new().execute(&g, &MinLabel, &cfg);
        assert_eq!(h.state.vertex_value, s.state.vertex_value);
        assert_eq!(h.state.vertex_value, c.state.vertex_value);
        assert_eq!(h.iterations, c.iterations);
    }

    #[test]
    fn chain_runtimes_reduce_value_array_accesses() {
        // Chain scheduling targets the value arrays (>90% of Hygra's misses
        // in the paper, Fig. 6/15); the schedule's own OAG traffic lands in
        // other regions and is bounded below. Totals are asserted at larger
        // scale by the integration tests.
        let g = graph();
        let cfg = cfg();
        let pr = crate::testutil::PrLike { iterations: 3 };
        let h = HygraRuntime.execute(&g, &pr, &cfg);
        let values = |r: &crate::ExecutionReport| {
            r.mem.main_memory_accesses_of_group(archsim::RegionGroup::Values) as f64
        };
        for r in [GlaRuntime.execute(&g, &pr, &cfg), ChGraphRuntime::new().execute(&g, &pr, &cfg)] {
            let red = values(&h) / values(&r).max(1.0);
            assert!(red > 1.1, "{}: value-array reduction only {red:.2}x", r.runtime);
            assert!(
                r.mem.main_memory_accesses() as f64 <= 1.35 * h.mem.main_memory_accesses() as f64,
                "{}: total traffic ballooned",
                r.runtime
            );
        }
    }

    #[test]
    fn chgraph_is_fastest_gla_software_is_slowest() {
        let g = graph();
        let cfg = cfg();
        let pr = crate::testutil::PrLike { iterations: 3 };
        let h = HygraRuntime.execute(&g, &pr, &cfg);
        let s = GlaRuntime.execute(&g, &pr, &cfg);
        let c = ChGraphRuntime::new().execute(&g, &pr, &cfg);
        assert!(c.speedup_over(&h) > 1.0, "ChGraph {:.2}x vs Hygra", c.speedup_over(&h));
        assert!(s.speedup_over(&h) < 1.2, "software GLA should not beat Hygra clearly");
        assert!(c.cycles < s.cycles);
    }

    #[test]
    fn hcg_only_sits_between_gla_and_full_chgraph() {
        let g = graph();
        let cfg = cfg();
        let s = GlaRuntime.execute(&g, &MinLabel, &cfg);
        let hcg = ChGraphRuntime::hcg_only().execute(&g, &MinLabel, &cfg);
        let full = ChGraphRuntime::new().execute(&g, &MinLabel, &cfg);
        assert!(hcg.cycles < s.cycles, "HCG must beat software GLA");
        assert!(full.cycles <= hcg.cycles, "CP must not slow ChGraph down");
        assert_eq!(hcg.state.vertex_value, full.state.vertex_value);
    }

    #[test]
    fn preprocessing_reported() {
        let g = graph();
        let cfg = cfg();
        let h = HygraRuntime.execute(&g, &MinLabel, &cfg);
        let c = ChGraphRuntime::new().execute(&g, &MinLabel, &cfg);
        assert!(h.preprocess.oag_build.is_none());
        assert!(c.preprocess.oag_build.is_some());
        assert!(c.preprocess.cycles_estimate > h.preprocess.cycles_estimate);
        assert!(c.preprocess.oag_extra_bytes > 0);
        assert!(c.engine.is_some());
        assert!(h.engine.is_none());
    }
}
