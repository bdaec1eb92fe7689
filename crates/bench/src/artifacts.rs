//! The artifact store: loaded hypergraphs keyed by `(dataset, scale)` and
//! [`PreparedOags`] keyed by `(dataset, scale, W_min, D_max)`, held in a
//! strict-LRU map and backed by an optional on-disk [`PreprocessCache`].
//!
//! Reuse is what amortizes the preprocessing the paper measures in §VI-G:
//! a key pays dataset generation and OAG construction once, and every
//! later lookup is served from memory. The figure [`Harness`] runs on an
//! unbounded store; `chgraphd` bounds both tables (`--graph-lru`,
//! `--oag-lru`). Two guarantees keep reuse safe:
//!
//! 1. **Bit-identity** — a hit returns the same `Arc` a fresh build would
//!    have produced (`Runtime::try_execute_prepared`'s contract re-checks
//!    the `OagConfig` anyway), so a cached artifact can never change a
//!    result, only its latency.
//! 2. **Single flight** — concurrent lookups of the same key share one
//!    build: the map stores `Arc<OnceLock>` slots, so latecomers block on
//!    the winner's `get_or_init` instead of duplicating minutes of OAG
//!    construction.
//!
//! Eviction is strict LRU per table, counted in
//! [`ArtifactCounters::evictions`]. Evicting an in-flight slot is safe: the
//! `Arc` keeps it alive for its waiters; it just stops being findable.
//!
//! [`Harness`]: crate::figures::Harness

use crate::{load_scaled, PreprocessCache, Scale};
use chgraph::{PreparedOags, RunConfig};
use hypergraph::datasets::Dataset;
use hypergraph::{Hypergraph, Side};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A single-flight memo slot: cloned out of its table under the lock,
/// initialized outside it. `OnceLock::get_or_init` blocks latecomers until
/// the winner finishes, so each key is computed exactly once; a panicking
/// initializer leaves the slot empty, so failures are not memoized.
pub(crate) type Slot<T> = Arc<OnceLock<T>>;

/// How a lookup was satisfied, for per-request reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fetch {
    /// The slot existed and was already initialized.
    Hit,
    /// The slot existed but its build was still in flight; this lookup
    /// waited for it.
    Coalesced,
    /// This lookup created the slot and ran the build.
    Miss,
}

/// A fixed-capacity strict-LRU map. Entry counts are small (a handful of
/// datasets × a few configurations; a few hundred grid cells in the
/// harness's report memo) next to the simulation behind each entry, so an
/// ordered `Vec` is enough: front = most recently used.
struct LruMap<K, V> {
    capacity: usize,
    entries: Vec<(K, V)>,
}

impl<K: PartialEq + Copy, V: Clone> LruMap<K, V> {
    fn new(capacity: usize) -> Self {
        LruMap { capacity: capacity.max(1), entries: Vec::new() }
    }

    /// Looks up `key`, promoting it to most-recent on a hit.
    fn get(&mut self, key: K) -> Option<V> {
        let idx = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(idx);
        let value = entry.1.clone();
        self.entries.insert(0, entry);
        Some(value)
    }

    /// Inserts `key` as most-recent, returning how many entries were
    /// evicted to make room (0 or 1).
    fn insert(&mut self, key: K, value: V) -> u64 {
        self.entries.retain(|(k, _)| *k != key);
        self.entries.insert(0, (key, value));
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            self.entries.pop();
            evicted += 1;
        }
        evicted
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A strict-LRU table of single-flight [`Slot`]s — the one memo shape
/// behind the artifact store and the harness's report memo.
pub(crate) struct Memo<K, V> {
    table: Mutex<LruMap<K, Slot<V>>>,
    evictions: AtomicU64,
}

impl<K: PartialEq + Copy, V> Memo<K, V> {
    /// A memo holding at most `capacity` slots (`usize::MAX`: unbounded).
    pub(crate) fn new(capacity: usize) -> Self {
        Memo { table: Mutex::new(LruMap::new(capacity)), evictions: AtomicU64::new(0) }
    }

    /// The slot for `key`, created (and the LRU entry evicted) on a miss.
    pub(crate) fn slot(&self, key: K) -> (Slot<V>, Fetch) {
        // Recover from poisoning rather than propagating it: every critical
        // section is a single map operation on `Arc` slots, which leaves
        // the map consistent even if a panic unwound through a past holder.
        let mut map = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        match map.get(key) {
            Some(slot) => {
                let fetch = if slot.get().is_some() { Fetch::Hit } else { Fetch::Coalesced };
                (slot, fetch)
            }
            None => {
                let slot = Slot::default();
                self.evictions.fetch_add(map.insert(key, Arc::clone(&slot)), Ordering::Relaxed);
                (slot, Fetch::Miss)
            }
        }
    }

    fn len(&self) -> usize {
        self.table.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// Key of a loaded dataset stand-in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct GraphKey {
    dataset: Dataset,
    /// `Scale` factor bits (f64 bit pattern, so the key is `Eq`).
    scale_bits: u64,
}

/// Key of a prepared-OAG pair: `(dataset, W_min, D_max)` plus the scale the
/// graph was generated at. `D_max` does not change the artifact, but
/// partitions the LRU the way requests are keyed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct OagKey {
    dataset: Dataset,
    scale_bits: u64,
    w_min: u32,
    d_max: usize,
}

/// Snapshot of an [`ArtifactStore`]'s lookup counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArtifactCounters {
    /// Graph lookups served from the LRU.
    pub graph_hits: u64,
    /// Graph lookups that built (or disk-restored) the artifact.
    pub graph_misses: u64,
    /// Prepared-OAG lookups served from the LRU.
    pub oag_hits: u64,
    /// Prepared-OAG lookups that built (or disk-restored) the artifact.
    pub oag_misses: u64,
    /// Lookups that waited on another lookup's in-flight build.
    pub coalesced: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
}

/// The resident artifact store.
pub struct ArtifactStore {
    graphs: Memo<GraphKey, Arc<Hypergraph>>,
    oags: Memo<OagKey, Arc<PreparedOags>>,
    disk: Option<Arc<PreprocessCache>>,
    graph_hits: AtomicU64,
    graph_misses: AtomicU64,
    oag_hits: AtomicU64,
    oag_misses: AtomicU64,
    coalesced: AtomicU64,
}

impl ArtifactStore {
    /// A store holding at most `graph_capacity` graphs and `oag_capacity`
    /// prepared-OAG pairs (`usize::MAX`: unbounded), optionally backed by
    /// an on-disk cache.
    pub fn new(
        graph_capacity: usize,
        oag_capacity: usize,
        disk: Option<Arc<PreprocessCache>>,
    ) -> Self {
        ArtifactStore {
            graphs: Memo::new(graph_capacity),
            oags: Memo::new(oag_capacity),
            disk,
            graph_hits: AtomicU64::new(0),
            graph_misses: AtomicU64::new(0),
            oag_hits: AtomicU64::new(0),
            oag_misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The attached disk cache, if any.
    pub fn disk(&self) -> Option<&PreprocessCache> {
        self.disk.as_deref()
    }

    /// Finds or creates `key`'s slot in `memo`, counting how it was found.
    fn lookup<K: PartialEq + Copy, V>(
        &self,
        memo: &Memo<K, V>,
        key: K,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> (Slot<V>, Fetch) {
        let (slot, fetch) = memo.slot(key);
        let counter = match fetch {
            Fetch::Hit => hits,
            Fetch::Coalesced => &self.coalesced,
            Fetch::Miss => misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        (slot, fetch)
    }

    /// The scaled stand-in for `(dataset, scale)`, loading (disk cache
    /// first, then regeneration) at most once per key.
    pub fn graph(&self, dataset: Dataset, scale: Scale) -> (Arc<Hypergraph>, Fetch) {
        let key = GraphKey { dataset, scale_bits: scale.factor().to_bits() };
        let (slot, fetch) = self.lookup(&self.graphs, key, &self.graph_hits, &self.graph_misses);
        let g = slot
            .get_or_init(|| {
                if let Some(g) = self.disk().and_then(|c| c.load_graph(dataset, scale)) {
                    return Arc::new(g);
                }
                let g = load_scaled(dataset, scale);
                if let Some(cache) = self.disk() {
                    cache.store_graph(dataset, scale, &g);
                }
                Arc::new(g)
            })
            .clone();
        (g, fetch)
    }

    /// The prepared-OAG pair for `(dataset, scale, cfg.oag.w_min,
    /// cfg.chain.d_max)`, building it with `cfg.oag` across `threads` host
    /// threads (disk cache first) at most once per key. Returns the graph
    /// too — executing needs both and this avoids a second lookup.
    pub fn prepared(
        &self,
        dataset: Dataset,
        scale: Scale,
        cfg: &RunConfig,
        threads: usize,
    ) -> (Arc<Hypergraph>, Arc<PreparedOags>, Fetch) {
        let key = OagKey {
            dataset,
            scale_bits: scale.factor().to_bits(),
            w_min: cfg.oag.w_min,
            d_max: cfg.chain.d_max,
        };
        let (slot, fetch) = self.lookup(&self.oags, key, &self.oag_hits, &self.oag_misses);
        let (g, _) = self.graph(dataset, scale);
        let prepared = slot
            .get_or_init(|| {
                let oag_cfg = cfg.oag;
                let build_side = |side: Side| {
                    if let Some(hit) = self.disk().and_then(|c| c.load_oag(&g, &oag_cfg, side)) {
                        return hit;
                    }
                    let built = oag_cfg.build_with_stats_threads(&g, side, threads.max(1));
                    if let Some(cache) = self.disk() {
                        cache.store_oag(&g, &oag_cfg, side, &built.0, &built.1);
                    }
                    built
                };
                let hyperedge = build_side(Side::Hyperedge);
                let vertex = build_side(Side::Vertex);
                Arc::new(PreparedOags::from_parts(&g, oag_cfg, hyperedge, vertex))
            })
            .clone();
        (g, prepared, fetch)
    }

    /// Snapshot of the lookup counters.
    pub fn counters(&self) -> ArtifactCounters {
        ArtifactCounters {
            graph_hits: self.graph_hits.load(Ordering::Relaxed),
            graph_misses: self.graph_misses.load(Ordering::Relaxed),
            oag_hits: self.oag_hits.load(Ordering::Relaxed),
            oag_misses: self.oag_misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.graphs.evictions.load(Ordering::Relaxed)
                + self.oags.evictions.load(Ordering::Relaxed),
        }
    }

    /// Resident entry counts `(graphs, prepared_oags)`.
    pub fn resident(&self) -> (usize, usize) {
        (self.graphs.len(), self.oags.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: Scale = Scale(0.05);

    #[test]
    fn lru_map_evicts_least_recent() {
        let mut m = LruMap::new(2);
        assert_eq!(m.insert(1, "a"), 0);
        assert_eq!(m.insert(2, "b"), 0);
        assert_eq!(m.get(1), Some("a")); // promote 1; 2 is now LRU
        assert_eq!(m.insert(3, "c"), 1); // evicts 2
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(1), Some("a"));
        assert_eq!(m.get(3), Some("c"));
    }

    #[test]
    fn reinsert_does_not_grow() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(1, "b");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(1), Some("b"));
    }

    #[test]
    fn graph_hits_on_second_lookup() {
        let store = ArtifactStore::new(4, 4, None);
        let (a, f1) = store.graph(Dataset::LiveJournal, SCALE);
        let (b, f2) = store.graph(Dataset::LiveJournal, SCALE);
        assert_eq!(f1, Fetch::Miss);
        assert_eq!(f2, Fetch::Hit);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the resident Arc");
        let c = store.counters();
        assert_eq!((c.graph_hits, c.graph_misses), (1, 1));
    }

    #[test]
    fn prepared_hits_and_keys_on_config() {
        let store = ArtifactStore::new(4, 4, None);
        let cfg = RunConfig::new();
        let (_, p1, f1) = store.prepared(Dataset::LiveJournal, SCALE, &cfg, 1);
        let (_, p2, f2) = store.prepared(Dataset::LiveJournal, SCALE, &cfg, 1);
        assert_eq!(f1, Fetch::Miss);
        assert_eq!(f2, Fetch::Hit);
        assert!(Arc::ptr_eq(&p1, &p2));
        // A different W_min is a different key (and artifact).
        let other = RunConfig::new().with_oag(oag::OagConfig::new().with_w_min(1));
        let (_, p3, f3) = store.prepared(Dataset::LiveJournal, SCALE, &other, 1);
        assert_eq!(f3, Fetch::Miss);
        assert!(!Arc::ptr_eq(&p1, &p3));
        let c = store.counters();
        assert_eq!((c.oag_hits, c.oag_misses), (1, 2));
    }

    #[test]
    fn capacity_pressure_evicts_and_counts() {
        let store = ArtifactStore::new(1, 4, None);
        store.graph(Dataset::LiveJournal, SCALE);
        store.graph(Dataset::WebTrackers, SCALE); // evicts LJ
        assert_eq!(store.counters().evictions, 1);
        let (_, fetch) = store.graph(Dataset::LiveJournal, SCALE); // rebuilt
        assert_eq!(fetch, Fetch::Miss);
        assert_eq!(store.resident().0, 1);
    }

    #[test]
    fn concurrent_lookups_single_flight() {
        let store = Arc::new(ArtifactStore::new(4, 4, None));
        let results: Vec<(Arc<Hypergraph>, Fetch)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let store = store.clone();
                    s.spawn(move || store.graph(Dataset::LiveJournal, SCALE))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let misses = results.iter().filter(|(_, f)| *f == Fetch::Miss).count();
        assert_eq!(misses, 1, "exactly one thread builds");
        for (g, _) in &results[1..] {
            assert!(Arc::ptr_eq(g, &results[0].0), "all callers share one artifact");
        }
        let c = store.counters();
        assert_eq!(c.graph_misses, 1);
        assert_eq!(c.graph_hits + c.coalesced, 7);
    }

    #[test]
    fn disk_cache_backs_a_cold_store() {
        let dir = std::env::temp_dir().join(format!("chg-artifacts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(PreprocessCache::new(&dir).unwrap());
        let cfg = RunConfig::new();
        let warm = ArtifactStore::new(4, 4, Some(cache.clone()));
        let (_, p1, _) = warm.prepared(Dataset::LiveJournal, SCALE, &cfg, 1);
        // A fresh store (cold LRU) restores bit-identical artifacts from disk.
        let cold = ArtifactStore::new(4, 4, Some(cache.clone()));
        let (_, p2, fetch) = cold.prepared(Dataset::LiveJournal, SCALE, &cfg, 1);
        assert_eq!(fetch, Fetch::Miss, "LRU is cold; the disk makes the build cheap, not a hit");
        assert_eq!(p1.hyperedge, p2.hyperedge);
        assert_eq!(p1.vertex, p2.vertex);
        assert_eq!(p1.report, p2.report);
        assert!(cache.stats().oag_hits >= 2, "cold store restored both sides from disk");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
