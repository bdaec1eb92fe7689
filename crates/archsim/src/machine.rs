//! The simulated machine: private L1/L2 per core, shared banked inclusive
//! L3 with directory-based invalidation, mesh NoC, and DRAM controllers.

use crate::{AddressMap, Cache, DramModel, MemStats, MeshNoc, Region, SystemConfig};

/// Cache level (or main memory) at which an access was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Private per-core L1 data cache.
    L1 = 0,
    /// Private per-core L2 (inclusive of L1).
    L2 = 1,
    /// Shared banked L3 (inclusive of all L2s).
    L3 = 2,
    /// Main memory.
    Mem = 3,
}

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A demand load.
    Read,
    /// A store (write-allocate, write-back).
    Write,
}

/// Outcome of one simulated access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Where the access was satisfied.
    pub level: Level,
    /// End-to-end latency in cycles, including NoC and DRAM queueing.
    pub latency: u64,
}

/// A [`SystemConfig`] the machine model cannot simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachineConfigError {
    /// The sharer directory tracks private-cache copies in a `u32` bitmask,
    /// one bit per core; configurations beyond that width cannot model
    /// coherence.
    TooManyCores {
        /// The configured core count.
        num_cores: usize,
        /// The maximum the directory supports.
        max_cores: usize,
    },
}

impl std::fmt::Display for MachineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineConfigError::TooManyCores { num_cores, max_cores } => write!(
                f,
                "directory bitmask supports up to {max_cores} cores (configured: {num_cores})"
            ),
        }
    }
}

impl std::error::Error for MachineConfigError {}

/// Where one line is resident among the private caches: one bit per core.
/// L1 ⊆ L2, so an `l1` bit implies the same `l2` bit.
#[derive(Clone, Copy, Default)]
struct Presence {
    /// Cores whose private L1 holds the line.
    l1: u32,
    /// Cores whose private L2 holds the line (the coherence sharers).
    l2: u32,
}

/// The simulated multicore machine.
///
/// Every data access of a runtime goes through [`Machine::access`], naming
/// the core, the data [`Region`], the element index, read/write, the cache
/// level the request enters at ([`Level::L1`] for the general-purpose core,
/// [`Level::L2`] for the ChGraph engine, which sits beside the L1 and
/// "accesses the main memory via the L2 cache", §V-A), and the issuing
/// component's local cycle count (used for DRAM contention).
///
/// Every "is this line resident?" question is answered from a line-indexed
/// presence directory kept exact on every fill, eviction and
/// invalidation, so a miss goes straight to the fill and a cache's tag
/// array is scanned only to find the way of a line known to be there.
pub struct Machine {
    cfg: SystemConfig,
    map: AddressMap,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3_banks: Vec<Cache>,
    /// `core * l3_banks + bank` -> NoC round-trip latency.
    noc_round_trip: Box<[u64]>,
    dram: DramModel,
    stats: MemStats,
    /// Line number (`addr >> line_shift`) over the address map's footprint
    /// -> the private caches holding the line.
    directory: Box<[Presence]>,
    /// Line number -> whether the line's L3 bank holds it.
    in_l3: Box<[bool]>,
    /// `log2(line_bytes)`.
    line_shift: u32,
}

impl Machine {
    /// Builds the machine from a configuration and an address map.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`] or
    /// [`Machine::try_new`] rejects it.
    pub fn new(cfg: SystemConfig, map: AddressMap) -> Self {
        Machine::try_new(cfg, map).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the machine, returning a typed [`MachineConfigError`] for
    /// configurations the model structurally cannot simulate (today: more
    /// cores than the sharer directory's `u32` bitmask can track).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`]
    /// (degenerate cache geometry, undersized mesh, zero counts) — those
    /// are programming errors, not runtime inputs.
    pub fn try_new(cfg: SystemConfig, map: AddressMap) -> Result<Self, MachineConfigError> {
        cfg.validate();
        const MAX_DIRECTORY_CORES: usize = u32::BITS as usize;
        if cfg.num_cores > MAX_DIRECTORY_CORES {
            return Err(MachineConfigError::TooManyCores {
                num_cores: cfg.num_cores,
                max_cores: MAX_DIRECTORY_CORES,
            });
        }
        let mut bank_cfg = cfg.l3;
        bank_cfg.size_bytes /= cfg.l3_banks;
        let noc = MeshNoc::new(cfg.noc);
        let lines = map.footprint().div_ceil(cfg.line_bytes as u64) as usize;
        Ok(Machine {
            l1: (0..cfg.num_cores).map(|_| Cache::new(&cfg.l1, cfg.line_bytes)).collect(),
            l2: (0..cfg.num_cores).map(|_| Cache::new(&cfg.l2, cfg.line_bytes)).collect(),
            l3_banks: (0..cfg.l3_banks).map(|_| Cache::new(&bank_cfg, cfg.line_bytes)).collect(),
            noc_round_trip: (0..cfg.num_cores)
                .flat_map(|core| (0..cfg.l3_banks).map(move |bank| noc.round_trip(core, bank)))
                .collect(),
            dram: DramModel::new(cfg.dram),
            stats: MemStats::new(),
            directory: vec![Presence::default(); lines].into(),
            in_l3: vec![false; lines].into(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
            map,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The address map in use.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// DRAM controller statistics.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    #[inline]
    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    /// The directory index of a line address.
    #[inline]
    fn line_index(&self, line_addr: u64) -> usize {
        (line_addr >> self.line_shift) as usize
    }

    /// The directory's presence record for a line address.
    #[inline]
    fn presence(&mut self, line_addr: u64) -> &mut Presence {
        let i = self.line_index(line_addr);
        &mut self.directory[i]
    }

    /// The directory's sharer bitmask (L2 presence) for a line address.
    #[inline]
    fn sharers(&mut self, line_addr: u64) -> &mut u32 {
        &mut self.presence(line_addr).l2
    }

    #[inline]
    fn bank_of(&self, line_addr: u64) -> usize {
        self.line_index(line_addr) % self.cfg.l3_banks
    }

    /// Simulates one access. See the type-level docs for parameter meaning.
    ///
    /// # Panics
    ///
    /// Panics if `core >= num_cores`, the region is not laid out, or the
    /// index is out of range.
    pub fn access(
        &mut self,
        core: usize,
        region: Region,
        index: u64,
        kind: AccessKind,
        entry: Level,
        now: u64,
    ) -> AccessResult {
        assert!(core < self.cfg.num_cores, "core {core} out of range");
        let addr = self.map.addr(region, index);
        let line = self.line_addr(addr);
        let li = self.line_index(line);
        let bit = 1u32 << core;
        let write = kind == AccessKind::Write;
        let mut latency = 0u64;

        // ---- L1 (skipped for engine-entry accesses) ----
        if entry == Level::L1 {
            latency += self.cfg.l1.latency;
            let in_l1 = self.directory[li].l1 & bit != 0;
            let l1_res = self.l1[core].access_known(addr, write, in_l1);
            if l1_res.hit {
                if write {
                    latency += self.invalidate_remote_sharers(core, line);
                }
                self.stats.record(region, Level::L1);
                return AccessResult { level: Level::L1, latency };
            }
            // The miss above already allocated the line (single-pass model);
            // fold the dirty victim, if any, into the inclusive L2 copy.
            self.directory[li].l1 |= bit;
            if let Some(victim) = l1_res.evicted {
                let victim_presence = self.presence(victim);
                victim_presence.l1 &= !bit;
                let in_l2 = victim_presence.l2 & bit != 0;
                if l1_res.writeback.is_some() {
                    if in_l2 {
                        let marked = self.l2[core].mark_dirty(victim);
                        debug_assert!(marked, "L2 presence bit set for absent line {victim:#x}");
                    } else {
                        // L2 (and hence L3) already lost the line.
                        self.stats.record_writeback(self.map.classify(victim));
                    }
                }
            }
        }

        // ---- L2 ----
        latency += self.cfg.l2.latency;
        let in_l2 = self.directory[li].l2 & bit != 0;
        let l2_res = self.l2[core].access_known(addr, write && entry == Level::L2, in_l2);
        if l2_res.hit {
            if write {
                latency += self.invalidate_remote_sharers(core, line);
            }
            self.stats.record(region, Level::L2);
            return AccessResult { level: Level::L2, latency };
        }
        self.handle_private_fill_side_effects(core, l2_res.evicted, l2_res.writeback);
        // Newly filled into this core's L2: record the sharer.
        *self.sharers(line) |= bit;

        // ---- L3 (over the NoC) ----
        let bank = self.bank_of(line);
        latency += self.noc_round_trip[core * self.cfg.l3_banks + bank];
        latency += self.cfg.l3.latency;
        let l3_res = self.l3_banks[bank].access_known(addr, false, self.in_l3[li]);
        self.in_l3[li] = true;
        if let Some(evicted) = l3_res.evicted {
            self.handle_l3_eviction(evicted, l3_res.writeback.is_some());
        }
        if write {
            latency += self.invalidate_remote_sharers(core, line);
        }
        if l3_res.hit {
            self.stats.record(region, Level::L3);
            return AccessResult { level: Level::L3, latency };
        }

        // ---- DRAM ----
        latency += self.dram.access(addr, self.cfg.line_bytes as u64, now + latency);
        self.stats.record(region, Level::Mem);
        AccessResult { level: Level::Mem, latency }
    }

    /// Handles the eviction side effects of a fill into a private L2:
    /// back-invalidate the core's L1 copy (inclusion) and push dirty data
    /// toward the L3 (or memory if the L3 no longer holds the line).
    fn handle_private_fill_side_effects(
        &mut self,
        core: usize,
        evicted: Option<u64>,
        writeback: Option<u64>,
    ) {
        let Some(victim_line) = evicted else { return };
        let bit = 1u32 << core;
        let victim_presence = self.presence(victim_line);
        let in_l1 = victim_presence.l1 & bit != 0;
        victim_presence.l1 &= !bit;
        victim_presence.l2 &= !bit;
        // Inclusion: L1 cannot keep a line its L2 lost.
        let l1_dirty = in_l1 && self.l1[core].invalidate(victim_line) == Some(true);
        if writeback.is_some() || l1_dirty {
            // The read-only OAG arrays are never dirty (paper §V-A notes
            // their lines are dropped, not written back); assert the model
            // agrees rather than special-casing.
            debug_assert!(!self.map.classify(victim_line).is_oag(), "OAG lines are never dirty");
            self.write_back_to_l3(victim_line);
        }
    }

    /// Folds dirty private data into the line's L3 copy, or, if the L3
    /// already lost the line, records the writeback to DRAM.
    fn write_back_to_l3(&mut self, line: u64) {
        if self.in_l3[self.line_index(line)] {
            let bank = self.bank_of(line);
            let marked = self.l3_banks[bank].mark_dirty(line);
            debug_assert!(marked, "L3 presence bit set for absent line {line:#x}");
        } else {
            self.stats.record_writeback(self.map.classify(line));
        }
    }

    /// Invalidates `line` in the L1 and L2 of every core in `cores` (whose
    /// copies the caller has already dropped from the directory, with
    /// `in_l1` their L1 bits) and returns whether any copy was dirty.
    fn invalidate_private_copies(&mut self, line: u64, mut cores: u32, in_l1: u32) -> bool {
        let mut dirty = false;
        while cores != 0 {
            let core = cores.trailing_zeros() as usize;
            cores &= cores - 1;
            if in_l1 & (1 << core) != 0 {
                dirty |= self.l1[core].invalidate(line) == Some(true);
            }
            let l2_copy = self.l2[core].invalidate(line);
            debug_assert!(l2_copy.is_some(), "L2 presence bit set for absent line {line:#x}");
            dirty |= l2_copy == Some(true);
        }
        dirty
    }

    /// Handles an L3 eviction. Inclusive hierarchy: back-invalidate every
    /// private copy, folding dirtiness into the memory writeback.
    /// Non-inclusive hierarchy: private copies (and the directory) survive;
    /// only the L3's own dirty data is written back.
    fn handle_l3_eviction(&mut self, victim_line: u64, l3_dirty: bool) {
        let victim = self.line_index(victim_line);
        self.in_l3[victim] = false;
        let mut dirty = l3_dirty;
        if self.cfg.l3_inclusive {
            let copies = std::mem::take(&mut self.directory[victim]);
            dirty |= self.invalidate_private_copies(victim_line, copies.l2, copies.l1);
        }
        if dirty {
            self.stats.record_writeback(self.map.classify(victim_line));
        }
    }

    /// MESI-lite: a write invalidates every other core's copy. Returns the
    /// coherence latency charged (zero when the line is private).
    fn invalidate_remote_sharers(&mut self, core: usize, line: u64) -> u64 {
        let bit = 1u32 << core;
        let copies = self.presence(line);
        let others = copies.l2 & !bit;
        if others == 0 {
            return 0;
        }
        let others_l1 = copies.l1 & others;
        copies.l1 &= bit;
        copies.l2 &= bit;
        if self.invalidate_private_copies(line, others, others_l1) {
            // The dirty remote copy is folded into the L3 before our write.
            self.write_back_to_l3(line);
        }
        self.stats.invalidations += 1;
        self.cfg.coherence_latency
    }

    /// Drops every cached line silently (no writebacks, no stats). Use only
    /// between independent simulations sharing a `Machine`.
    pub fn flush_all_silently(&mut self) {
        for c in &mut self.l1 {
            c.flush_silently();
        }
        for c in &mut self.l2 {
            c.flush_silently();
        }
        for c in &mut self.l3_banks {
            c.flush_silently();
        }
        self.directory.fill(Presence::default());
        self.in_l3.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(cores: usize) -> Machine {
        let cfg = SystemConfig::scaled(cores);
        let mut map = AddressMap::new(cfg.line_bytes);
        map.add(Region::VertexValue, 8, 1 << 16);
        map.add(Region::HyperedgeValue, 8, 1 << 16);
        Machine::new(cfg, map)
    }

    #[test]
    fn cold_miss_then_hits_up_the_hierarchy() {
        let mut m = machine(2);
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::Mem);
        assert!(r.latency >= 200, "DRAM latency must dominate: {}", r.latency);
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 10);
        assert_eq!(r.level, Level::L1);
        assert_eq!(r.latency, m.config().l1.latency);
    }

    #[test]
    fn spatial_locality_within_a_line() {
        let mut m = machine(1);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        // Elements 1..8 share the 64-B line (8-byte elements).
        for i in 1..8 {
            let r = m.access(0, Region::VertexValue, i, AccessKind::Read, Level::L1, 0);
            assert_eq!(r.level, Level::L1, "element {i}");
        }
        let r = m.access(0, Region::VertexValue, 8, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::Mem, "next line is cold");
    }

    #[test]
    fn engine_entry_fills_l2_not_l1() {
        let mut m = machine(1);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L2, 0);
        // Engine prefetch warmed L2: the core's subsequent load misses L1
        // but hits L2.
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::L2);
    }

    #[test]
    fn other_core_read_hits_shared_l3() {
        let mut m = machine(2);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        let r = m.access(1, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::L3, "second core finds the line in shared L3");
    }

    #[test]
    fn write_invalidates_remote_sharers() {
        let mut m = machine(2);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        m.access(1, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        let w = m.access(1, Region::VertexValue, 0, AccessKind::Write, Level::L1, 0);
        assert!(w.latency >= m.config().coherence_latency);
        assert_eq!(m.stats().invalidations, 1);
        // Core 0 lost its copy: next read must go past L2.
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert!(r.level >= Level::L3, "invalidated copy cannot hit privately: {:?}", r.level);
    }

    #[test]
    fn dirty_data_survives_remote_invalidation() {
        let mut m = machine(2);
        m.access(0, Region::VertexValue, 0, AccessKind::Write, Level::L1, 0);
        // Core 1 writes the same line: core 0's dirty copy is folded into L3.
        m.access(1, Region::VertexValue, 0, AccessKind::Write, Level::L1, 0);
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::L3, "data must still be on-chip");
    }

    #[test]
    fn main_memory_access_counting() {
        let mut m = machine(1);
        let n_lines = 64u64;
        for i in 0..n_lines {
            m.access(0, Region::VertexValue, i * 8, AccessKind::Read, Level::L1, 0);
        }
        assert_eq!(m.stats().main_memory_accesses(), n_lines);
        assert_eq!(m.stats().dram_fetches(Region::VertexValue), n_lines);
    }

    #[test]
    fn capacity_eviction_causes_re_miss() {
        let mut m = machine(1);
        // Touch far more lines than the whole hierarchy holds.
        let lines = (m.config().l3.size_bytes / 64 * 4) as u64;
        for i in 0..lines {
            m.access(0, Region::VertexValue, (i * 8) % (1 << 16), AccessKind::Read, Level::L1, 0);
        }
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        // Line 0 was evicted long ago.
        assert_eq!(r.level, Level::Mem);
    }

    #[test]
    fn dirty_eviction_reaches_dram_as_writeback() {
        let mut m = machine(1);
        let span = (m.config().l3.size_bytes / 64 * 4) as u64;
        for i in 0..span.min(1 << 13) {
            m.access(0, Region::VertexValue, i * 8, AccessKind::Write, Level::L1, 0);
        }
        assert!(
            m.stats().dram_writebacks(Region::VertexValue) > 0,
            "capacity-evicted dirty lines must be written back"
        );
    }

    #[test]
    fn inclusive_l3_eviction_back_invalidates_every_sharer() {
        // One L3 bank of one 16-way set: the 17th distinct line evicts the
        // least recently used one.
        let mut cfg = SystemConfig::scaled(2);
        cfg.l3_inclusive = true;
        cfg.l3_banks = 1;
        cfg.l3.size_bytes = 16 * 64;
        let mut map = AddressMap::new(cfg.line_bytes);
        map.add(Region::VertexValue, 8, 1 << 10);
        let mut m = Machine::new(cfg, map);
        let a = m.map.addr(Region::VertexValue, 0);
        // Core 0 holds the line dirty in its L1; core 1 holds it clean.
        m.access(0, Region::VertexValue, 0, AccessKind::Write, Level::L1, 0);
        m.access(1, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(*m.sharers(a), 0b11);
        // Core 1 streams 15 other lines through the L3: the set is full.
        for line in 1..16 {
            m.access(1, Region::VertexValue, line * 8, AccessKind::Read, Level::L1, 0);
        }
        assert!(m.l1[0].contains(a) && m.l2[1].contains(a), "no L3 eviction yet");
        assert_eq!(m.stats().dram_writebacks(Region::VertexValue), 0);
        // The 16th evicts the line from the L3 and hence from every sharer.
        m.access(1, Region::VertexValue, 16 * 8, AccessKind::Read, Level::L1, 0);
        for core in 0..2 {
            assert!(!m.l1[core].contains(a), "core {core} L1 keeps an evicted line");
            assert!(!m.l2[core].contains(a), "core {core} L2 keeps an evicted line");
        }
        assert_eq!(*m.sharers(a), 0, "sharers cleared");
        // Core 0's dirty L1 copy is the only dirty data: one DRAM writeback.
        assert_eq!(m.stats().dram_writebacks(Region::VertexValue), 1);
    }

    #[test]
    fn flush_clears_state() {
        let mut m = machine(1);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        m.flush_all_silently();
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::Mem);
    }

    #[test]
    #[should_panic(expected = "core 5 out of range")]
    fn bad_core_panics() {
        let mut m = machine(2);
        m.access(5, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
    }

    #[test]
    fn too_many_cores_is_a_typed_error() {
        let mut cfg = SystemConfig::scaled(32);
        cfg.num_cores = 33;
        cfg.noc.width = 6;
        cfg.noc.height = 6;
        let map = AddressMap::new(cfg.line_bytes);
        match Machine::try_new(cfg, map) {
            Err(MachineConfigError::TooManyCores { num_cores: 33, max_cores: 32 }) => {}
            other => panic!("expected TooManyCores, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    #[should_panic(expected = "directory bitmask supports up to 32 cores")]
    fn too_many_cores_panics_on_infallible_construction() {
        let mut cfg = SystemConfig::scaled(32);
        cfg.num_cores = 33;
        cfg.noc.width = 6;
        cfg.noc.height = 6;
        let _ = Machine::new(cfg, AddressMap::new(cfg.line_bytes));
    }

    #[test]
    fn thirty_two_cores_is_accepted() {
        let mut cfg = SystemConfig::scaled(32);
        cfg.noc.width = 6;
        cfg.noc.height = 6;
        let map = AddressMap::new(cfg.line_bytes);
        assert!(Machine::try_new(cfg, map).is_ok());
    }

    /// A machine small enough that every level evicts constantly: 4-set
    /// L1 (2-way) and L2 (4-way) per core, and a 2-bank, 64-line L3 under
    /// a 195-line footprint.
    fn tiny_machine(cores: usize, inclusive: bool) -> Machine {
        let mut cfg = SystemConfig::scaled(cores);
        cfg.l1 = crate::CacheConfig { size_bytes: 4 * 2 * 64, ways: 2, latency: 3 };
        cfg.l2 = crate::CacheConfig { size_bytes: 4 * 4 * 64, ways: 4, latency: 6 };
        cfg.l3 = crate::CacheConfig { size_bytes: 2 * 4 * 8 * 64, ways: 8, latency: 24 };
        cfg.l3_banks = 2;
        cfg.l3_inclusive = inclusive;
        let mut map = AddressMap::new(cfg.line_bytes);
        map.add(Region::VertexValue, 8, 1 << 10);
        map.add(Region::HyperedgeValue, 8, 1 << 9);
        Machine::new(cfg, map)
    }

    /// Every presence bit of every line equals `Cache::contains` on the
    /// cache it stands for, and no core holds a line in L1 without L2.
    fn check_presence(m: &Machine) -> Result<(), String> {
        for (li, p) in m.directory.iter().enumerate() {
            let line = (li as u64) << m.line_shift;
            if p.l1 & !p.l2 != 0 {
                return Err(format!(
                    "line {line:#x}: L1 bits {:#b} outside L2 bits {:#b}",
                    p.l1, p.l2
                ));
            }
            for core in 0..m.cfg.num_cores {
                let bit = 1 << core;
                if (p.l1 & bit != 0) != m.l1[core].contains(line) {
                    return Err(format!("line {line:#x}: core {core} L1 bit disagrees"));
                }
                if (p.l2 & bit != 0) != m.l2[core].contains(line) {
                    return Err(format!("line {line:#x}: core {core} L2 bit disagrees"));
                }
            }
            if m.in_l3[li] != m.l3_banks[m.bank_of(line)].contains(line) {
                return Err(format!("line {line:#x}: L3 bit disagrees"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The presence directory stays exact under random streams: 1-4
        /// cores, L1 and L2 entry, reads and writes, inclusive and
        /// non-inclusive L3.
        #[test]
        fn presence_bits_track_every_cache(
            cores in 1usize..5,
            inclusive in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(
                (0usize..4, proptest::prelude::any::<bool>(), 0u64..(1 << 10),
                 proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
                1..300,
            ),
        ) {
            let mut m = tiny_machine(cores, inclusive);
            for (step, (core, vertex, index, write, engine)) in ops.into_iter().enumerate() {
                let (region, index) = if vertex {
                    (Region::VertexValue, index)
                } else {
                    (Region::HyperedgeValue, index >> 1)
                };
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let entry = if engine { Level::L2 } else { Level::L1 };
                m.access(core % cores, region, index, kind, entry, step as u64);
                if let Err(e) = check_presence(&m) {
                    proptest::prop_assert!(false, "after step {}: {}", step, e);
                }
            }
            m.flush_all_silently();
            proptest::prop_assert_eq!(check_presence(&m), Ok(()));
        }
    }
}
