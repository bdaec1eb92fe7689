//! Per-layer metrics: host time from the traced run's spans, work counts
//! from the simulated reports, the daemon's replies and its stats.

use crate::stats::{median, ratio};
use crate::trace::{self_time_by_root, Span};
use archsim::{Level, Region};
use chgraph::ExecutionReport;
use std::collections::BTreeMap;

/// Every per-layer metric: name, unit, and whether higher or lower is
/// better. `BENCHMARK.json` lists the same entries in the same order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("hypergraph.generate_s", "s", "lower"),
    ("hypergraph.bipartite_edges", "count", "lower"),
    ("oag.build_s", "s", "lower"),
    ("oag.two_hop_steps", "count", "lower"),
    ("oag.pairs_considered", "count", "lower"),
    ("oag.edges_kept", "count", "lower"),
    ("oag.keep_ratio", "ratio", "higher"),
    ("oag.thread_speedup", "x", "higher"),
    ("oag.chains_s", "s", "lower"),
    ("oag.chains_generated", "count", "lower"),
    ("oag.mean_chain_len", "elements", "higher"),
    ("chgraph.execute_s.hygra", "s", "lower"),
    ("chgraph.execute_s.gla", "s", "lower"),
    ("chgraph.execute_s.chgraph", "s", "lower"),
    ("chgraph.ns_per_access", "ns", "lower"),
    ("chgraph.iterations", "count", "lower"),
    ("chgraph.engine.tuples_delivered", "count", "lower"),
    ("chgraph.engine.chains_generated", "count", "lower"),
    ("chgraph.engine.fifo_full_stalls", "cycles", "lower"),
    ("chgraph.engine.fifo_empty_stalls", "cycles", "lower"),
    ("archsim.accesses", "count", "lower"),
    ("archsim.share_l1", "ratio", "higher"),
    ("archsim.share_l2", "ratio", "lower"),
    ("archsim.share_l3", "ratio", "lower"),
    ("archsim.share_mem", "ratio", "lower"),
    ("archsim.dram_accesses", "count", "lower"),
    ("archsim.invalidations", "count", "lower"),
    ("archsim.sim_cycles", "cycles", "lower"),
    ("bench.prefetch_s", "s", "lower"),
    ("bench.artifact_load_s", "s", "lower"),
    ("bench.cache_hits", "count", "higher"),
    ("bench.cache_misses", "count", "lower"),
    ("bench.cells", "count", "higher"),
    ("bench.thread_speedup", "x", "higher"),
    ("serve.prepare_ms_p50", "ms", "lower"),
    ("serve.execute_ms_p50", "ms", "lower"),
    ("serve.overhead_ms_p50", "ms", "lower"),
    ("serve.hit_latency_ms_p50", "ms", "lower"),
    ("serve.miss_latency_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.artifact_hits", "count", "higher"),
    ("serve.artifact_misses", "count", "lower"),
    ("serve.artifact_hit_ratio", "ratio", "higher"),
    ("serve.coalesced", "count", "higher"),
    ("serve.evictions", "count", "lower"),
    ("serve.rejected_overload", "count", "lower"),
    ("serve.protocol_errors", "count", "lower"),
    ("serve.deduped", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
];

/// Span names whose self time is a per-layer time metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("hypergraph.generate", "hypergraph.generate_s"),
    ("oag.build", "oag.build_s"),
    ("oag.chains", "oag.chains_s"),
    ("chgraph.execute.hygra", "chgraph.execute_s.hygra"),
    ("chgraph.execute.gla", "chgraph.execute_s.gla"),
    ("chgraph.execute.chgraph", "chgraph.execute_s.chgraph"),
    ("bench.prefetch", "bench.prefetch_s"),
    ("bench.artifact_load", "bench.artifact_load_s"),
];

/// Root span names. A layer's time is the median over `setup` roots plus
/// the median over traced `pass` roots plus every `probe.*` root: what one
/// set-up and one timed pass cost, plus the traced-only probes.
pub const SETUP: &str = "setup";
/// Root span of one traced timed pass.
pub const PASS: &str = "pass";

/// Accumulates per-layer values; raw components of ratios are kept under
/// private names until [`Layers::finish`].
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Current value of `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds a simulated report's counts, weighted by `w` (1 / passes when
    /// summing over several passes).
    pub fn add_report(&mut self, r: &ExecutionReport, w: f64) {
        self.add("chgraph.iterations", w * r.iterations as f64);
        if let Some(e) = &r.engine {
            self.add("chgraph.engine.tuples_delivered", w * e.tuples_delivered as f64);
            self.add("chgraph.engine.chains_generated", w * e.chains_generated as f64);
            self.add("chgraph.engine.fifo_full_stalls", w * e.fifo_full_stalls as f64);
            self.add("chgraph.engine.fifo_empty_stalls", w * e.fifo_empty_stalls as f64);
        }
        let served = |level: Level| -> f64 {
            Region::ALL.iter().map(|&reg| r.mem.served_at(reg, level)).sum::<u64>() as f64
        };
        self.add("archsim.accesses", w * r.mem.all_accesses() as f64);
        self.add("archsim.served_l1", w * served(Level::L1));
        self.add("archsim.served_l2", w * served(Level::L2));
        self.add("archsim.served_l3", w * served(Level::L3));
        self.add("archsim.served_mem", w * served(Level::Mem));
        self.add("archsim.dram_accesses", w * r.mem.main_memory_accesses() as f64);
        self.add("archsim.invalidations", w * r.mem.invalidations as f64);
        self.add("archsim.sim_cycles", w * r.cycles as f64);
    }

    /// Adds the build statistics of both OAGs, weighted by `w`.
    pub fn add_oag_stats(&mut self, s: &oag::OagBuildStats, w: f64) {
        self.add("oag.two_hop_steps", w * s.two_hop_steps as f64);
        self.add("oag.pairs_considered", w * s.pairs_considered as f64);
        self.add("oag.edges_kept", w * s.edges_kept as f64);
    }

    /// Adds host times from spans (see [`SETUP`]).
    pub fn add_span_times(&mut self, spans: &[Span]) {
        let setups: Vec<u64> = roots_named(spans, |n| n == SETUP);
        let passes: Vec<u64> = roots_named(spans, |n| n == PASS);
        let probes: Vec<u64> = roots_named(spans, |n| n.starts_with("probe."));
        let by_root = self_time_by_root(spans);
        for &(span, metric) in SPAN_METRICS {
            let Some(per_root) = by_root.get(span) else { continue };
            let over = |roots: &[u64]| -> Vec<f64> {
                roots.iter().map(|r| per_root.get(r).copied().unwrap_or(0.0)).collect()
            };
            let t = median(&over(&setups)).unwrap_or(0.0)
                + median(&over(&passes)).unwrap_or(0.0)
                + over(&probes).iter().sum::<f64>();
            self.add(metric, t);
        }
    }

    /// Derives the ratio metrics and returns every [`PER_LAYER`] metric, 0
    /// for layers this workload does not exercise.
    pub fn finish(mut self) -> Vec<(&'static str, &'static str, f64)> {
        let acc = self.get("archsim.accesses");
        for (share, raw) in [
            ("archsim.share_l1", "archsim.served_l1"),
            ("archsim.share_l2", "archsim.served_l2"),
            ("archsim.share_l3", "archsim.served_l3"),
            ("archsim.share_mem", "archsim.served_mem"),
        ] {
            let v = ratio(self.get(raw), acc);
            self.set(share, v);
        }
        let exec: f64 = ["hygra", "gla", "chgraph"]
            .iter()
            .map(|rt| self.get(&format!("chgraph.execute_s.{rt}")))
            .sum();
        self.set("chgraph.ns_per_access", ratio(exec * 1e9, acc));
        let keep = ratio(self.get("oag.edges_kept"), self.get("oag.pairs_considered"));
        self.set("oag.keep_ratio", keep);
        let mean_len = ratio(self.get("oag.chain_elements"), self.get("oag.chains_generated"));
        self.set("oag.mean_chain_len", mean_len);
        PER_LAYER.iter().map(|&(name, unit, _)| (name, unit, self.get(name))).collect()
    }
}

fn roots_named(spans: &[Span], keep: impl Fn(&str) -> bool) -> Vec<u64> {
    spans.iter().filter(|s| s.parent.is_none() && keep(s.name)).map(|s| s.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: f64, end: f64, parent: Option<u64>) -> Span {
        Span { id, name, start, end, parent, request: None }
    }

    #[test]
    fn layer_time_is_one_setup_plus_one_pass_plus_probes() {
        let spans = vec![
            span(1, SETUP, 0.0, 1.0, None),
            span(2, "oag.build", 0.0, 0.4, Some(1)),
            span(3, SETUP, 1.0, 2.0, None),
            span(4, "oag.build", 1.0, 1.6, Some(3)),
            span(5, SETUP, 2.0, 3.0, None),
            span(6, "oag.build", 2.0, 2.5, Some(5)),
            span(7, PASS, 3.0, 4.0, None),
            span(8, "oag.build", 3.0, 3.1, Some(7)),
            span(9, "probe.chains", 5.0, 6.0, None),
            span(10, "oag.chains", 5.0, 5.25, Some(9)),
            span(11, "check", 6.0, 7.0, None),
            span(12, "oag.build", 6.0, 7.0, Some(11)),
        ];
        let mut l = Layers::default();
        l.add_span_times(&spans);
        assert!((l.get("oag.build_s") - (0.5 + 0.1)).abs() < 1e-12);
        assert!((l.get("oag.chains_s") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn finish_lists_every_metric_and_derives_ratios() {
        let mut l = Layers::default();
        l.add("archsim.accesses", 10.0);
        l.add("archsim.served_l1", 7.0);
        l.add("archsim.served_mem", 3.0);
        l.add("chgraph.execute_s.hygra", 1e-6);
        l.add("oag.pairs_considered", 4.0);
        l.add("oag.edges_kept", 1.0);
        let out: BTreeMap<_, _> = l.finish().into_iter().map(|(n, _, v)| (n, v)).collect();
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out["archsim.share_l1"], 0.7);
        assert_eq!(out["archsim.share_l2"], 0.0);
        assert!((out["chgraph.ns_per_access"] - 100.0).abs() < 1e-9);
        assert_eq!(out["oag.keep_ratio"], 0.25);
        assert_eq!(out["serve.deduped"], 0.0);
    }
}
