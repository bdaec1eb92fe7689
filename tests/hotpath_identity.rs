//! Kernel-identity property tests for the hot-path flattening rewrite.
//!
//! The flattening PR rewrote three kernels (the set-associative cache, OAG
//! two-hop counting, chain generation) with flat layouts and epoch-tagged
//! scratch, keeping the originals as `archsim::reference` / `oag::reference`
//! under the `reference-kernels` feature. These properties replay random
//! inputs through both implementations and assert the outputs — including
//! full observer event streams and statistics — are bit-identical, so the
//! committed `BENCH_hotpath.json` speedups are speedups of *the same
//! function*, not of a subtly different one.
//!
//! The `machine_golden_stream_*` tests pin `archsim::Machine` itself: every
//! counter of a fixed access stream against constants recorded before the
//! sharer directory became a dense array.

use hypergraph::{Frontier, Hypergraph, HypergraphBuilder, Side, VertexId};
use oag::{generate_chains, generate_chains_with_scratch, ChainConfig, ChainScratch, OagConfig};
use proptest::prelude::*;

/// Strategy: an arbitrary small hypergraph (same shape as tests/properties.rs).
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..40).prop_flat_map(|nv| {
        (Just(nv), prop::collection::vec(prop::collection::vec(0u32..nv as u32, 1..8), 1..30))
            .prop_map(|(nv, rows)| {
                let mut b = HypergraphBuilder::new(nv);
                for row in rows {
                    b.add_hyperedge(row.into_iter().map(VertexId::new)).expect("in range");
                }
                b.build()
            })
    })
}

/// Strategy: a random OAG configuration, biased to small degree caps so the
/// bounded top-k selection path is actually exercised.
fn arb_oag_config() -> impl Strategy<Value = OagConfig> {
    (1u32..4, 1u32..6, 2u32..40).prop_map(|(w_min, max_degree, max_pivot)| {
        OagConfig::new()
            .with_w_min(w_min)
            .with_max_degree(max_degree)
            .with_max_pivot_degree(max_pivot)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat SoA cache == nested reference cache, for every access result,
    /// probe, invalidation, and the final resident-line census, across
    /// random geometries and op streams (the flat cache's positional
    /// recency order against the reference's `u64` LRU clock).
    fn cache_streams_are_identical(
        geometry in (0usize..5, 1usize..17),
        ops in prop::collection::vec((0u64..(1 << 14), 0u32..16, any::<bool>()), 1..600),
    ) {
        let (set_pow, ways) = geometry;
        let cfg = archsim::CacheConfig {
            size_bytes: 64 * ways * (1 << set_pow),
            ways,
            latency: 1,
        };
        let mut flat = archsim::Cache::new(&cfg, 64);
        let mut nested = archsim::reference::Cache::new(&cfg, 64);
        for (addr, op, write) in ops {
            match op {
                0 => prop_assert_eq!(flat.invalidate(addr), nested.invalidate(addr)),
                1 => prop_assert_eq!(flat.mark_dirty(addr), nested.mark_dirty(addr)),
                2 => prop_assert_eq!(flat.contains(addr), nested.contains(addr)),
                3 => {
                    flat.flush_silently();
                    nested.flush_silently();
                }
                _ => prop_assert_eq!(flat.access(addr, write), nested.access(addr, write)),
            }
        }
        prop_assert_eq!(flat.resident_lines(), nested.resident_lines());
    }

    /// Epoch-counted OAG build (serial and threaded) == the pre-rewrite
    /// clear-as-drain + full-sort build, graph and stats both.
    fn oag_builds_are_identical(
        g in arb_hypergraph(),
        cfg in arb_oag_config(),
        threads in 1usize..4,
    ) {
        for side in [Side::Hyperedge, Side::Vertex] {
            let (want, want_stats) = oag::reference::build_with_stats(&cfg, &g, side);
            let (got, got_stats) = cfg.build_with_stats(&g, side);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_stats, want_stats);
            let threaded = cfg.build_threads(&g, side, threads);
            prop_assert_eq!(&threaded, &want);
        }
    }

    /// OAG counting scratch parked just below the `u32` epoch wrap produces
    /// the same graph as the reference — the one real `fill(0)` on wrap is
    /// invisible.
    fn oag_build_survives_epoch_wraparound(
        g in arb_hypergraph(),
        cfg in arb_oag_config(),
        back in 0u32..3,
    ) {
        let side = Side::Hyperedge;
        let (want, want_stats) = oag::reference::build_with_stats(&cfg, &g, side);
        let (got, got_stats) = cfg.build_with_stats_at_epoch(&g, side, u32::MAX - back);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_stats, want_stats);
    }

    /// Chain generation with a *reused* scratch — history from previous
    /// cases, chunked ranges, sparse frontiers — matches both the reference
    /// walk and the allocating entry point.
    fn chain_generation_is_identical(
        g in arb_hypergraph(),
        d_max in 1usize..20,
        keep in prop::collection::vec(any::<bool>(), 1..40),
        cores in 1u32..5,
        epoch_back in 0u32..4,
    ) {
        let n = g.num_hyperedges() as u32;
        let oag = OagConfig::new().with_w_min(1).build(&g, Side::Hyperedge);
        let frontier = Frontier::from_iter(
            n as usize,
            (0..n).filter(|&h| keep.get(h as usize).copied().unwrap_or(false)),
        );
        let cfg = ChainConfig::new(d_max);
        // A scratch with arbitrary prior history, including one parked just
        // below the epoch wrap, reused across every chunk.
        let mut scratch = ChainScratch::new();
        scratch.force_epoch(u32::MAX - epoch_back);
        let chunk = n.div_ceil(cores).max(1);
        for c in 0..cores {
            let range = (c * chunk).min(n)..((c + 1) * chunk).min(n);
            let want = oag::reference::generate_chains(&oag, &frontier, range.clone(), &cfg);
            let fresh = generate_chains(&oag, &frontier, range.clone(), &cfg);
            let reused =
                generate_chains_with_scratch(&oag, &frontier, range.clone(), &cfg, &mut scratch);
            prop_assert_eq!(&fresh, &want);
            prop_assert_eq!(&reused, &want);
        }
    }
}

/// splitmix64: a self-contained generator, so the golden stream below does
/// not depend on any RNG crate's version.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The regions the golden stream touches; `HOagEdge` is read-only, like
/// every OAG array.
const GOLDEN_REGIONS: [archsim::Region; 4] = [
    archsim::Region::VertexValue,
    archsim::Region::HyperedgeValue,
    archsim::Region::Bitmap,
    archsim::Region::HOagEdge,
];

/// Replays a seeded stream of reads and writes from several cores, entering
/// at both L1 (core) and L2 (engine), skewed towards shared hot and warm
/// sets so lines are shared, invalidated and evicted at every level. Returns
/// `served_at` per golden region and level, then each region's DRAM
/// writebacks, then invalidations, DRAM accesses and the summed latency.
fn golden_stream(cfg: archsim::SystemConfig, seed: u64, n: usize) -> Vec<u64> {
    use archsim::{AccessKind, AddressMap, Level, Machine, Region};
    const ELEMS: u64 = 1 << 14;
    let mut map = AddressMap::new(cfg.line_bytes);
    for region in GOLDEN_REGIONS {
        map.add(region, 8, ELEMS as usize);
    }
    let mut m = Machine::new(cfg, map);
    let mut rng = seed;
    let mut clocks = vec![0u64; cfg.num_cores];
    let mut latency = 0u64;
    for _ in 0..n {
        let r = splitmix64(&mut rng);
        let core = (r % cfg.num_cores as u64) as usize;
        let region = GOLDEN_REGIONS[(r >> 8) as usize % GOLDEN_REGIONS.len()];
        // 40% on a 64-element hot set, 30% on a 4096-element warm set, the
        // rest uniform over the region.
        let span = match (r >> 12) % 10 {
            0..=3 => 64,
            4..=6 => 4096,
            _ => ELEMS,
        };
        let index = (r >> 16) % span;
        let write = region != Region::HOagEdge && (r >> 40) % 10 < 3;
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        let entry = if (r >> 48) & 3 == 0 { Level::L2 } else { Level::L1 };
        let res = m.access(core, region, index, kind, entry, clocks[core]);
        clocks[core] += 1 + res.latency / 4;
        latency += res.latency;
    }
    let stats = m.stats();
    let mut out: Vec<u64> = GOLDEN_REGIONS
        .iter()
        .flat_map(|&r| [Level::L1, Level::L2, Level::L3, Level::Mem].map(|l| stats.served_at(r, l)))
        .collect();
    assert_eq!(out.iter().sum::<u64>(), n as u64, "every access lands in a golden region");
    out.extend(GOLDEN_REGIONS.map(|r| stats.dram_writebacks(r)));
    out.extend([stats.invalidations, m.dram().accesses(), latency]);
    out
}

/// Golden stream through the default non-inclusive scaled machine: every
/// counter is pinned, so any change to sharer bookkeeping (fill, clear on
/// L2 eviction, invalidation on write) shows up here.
#[test]
fn machine_golden_stream_non_inclusive() {
    let got = golden_stream(archsim::SystemConfig::scaled(4), 0x5EED_0001, 60_000);
    assert_eq!(got, GOLDEN_NON_INCLUSIVE);
}

/// Golden stream through a small inclusive-L3 machine whose L3 evicts, so
/// the back-invalidation path (sharers taken, private copies dropped,
/// dirtiness folded into the writeback) is pinned too.
#[test]
fn machine_golden_stream_inclusive() {
    let mut cfg = archsim::SystemConfig::scaled(4);
    cfg.l3_inclusive = true;
    cfg.l3.size_bytes = 32 * 1024;
    let got = golden_stream(cfg, 0x5EED_0002, 60_000);
    assert_eq!(got, GOLDEN_INCLUSIVE);
}

/// [`golden_stream`] outputs recorded with the `HashMap` sharer directory.
const GOLDEN_NON_INCLUSIVE: [u64; 23] = [
    1340, 1958, 3120, 8469, 1296, 1871, 3019, 8773, 1341, 1978, 3073, 8603, 1886, 3752, 742, 8779,
    2813, 2974, 2889, 0, 5463, 34624, 11362502,
];
const GOLDEN_INCLUSIVE: [u64; 23] = [
    1267, 1618, 3206, 8851, 1335, 1606, 3283, 8899, 1297, 1595, 3219, 8895, 1484, 2362, 1971, 9112,
    2902, 2965, 2908, 0, 4912, 35757, 11808200,
];
