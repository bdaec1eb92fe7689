//! A set-associative write-back cache with true-LRU replacement.
//!
//! Storage is two flat arrays (`sets × ways` tags, and one small state
//! record per set) rather than a `Vec` per set: one simulated
//! access touches a handful of adjacent array slots with no pointer chase
//! and no per-access allocation, which matters because every simulated
//! memory reference in this repository funnels through this type. The
//! pre-rewrite nested layout is retained in [`crate::reference`] (under the
//! `reference-kernels` feature) and the identity tests pin the two
//! bit-identical.
//!
//! Replacement needs no clock: each set keeps a valid-way mask (a fill
//! takes the first invalid way) and its ways' recency order packed four
//! bits per way into one `u64`, most recent way in the low nibble, so the
//! LRU victim of a full set is its last nibble. A caller that already knows
//! whether a line is resident (the [`crate::Machine`] directory does) passes
//! that answer to [`Cache::access_known`] and skips the tag scan on a miss.

use crate::CacheConfig;

/// Result of one cache lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// On a fill that evicted a dirty line: the evicted line's address.
    pub writeback: Option<u64>,
    /// On a fill that evicted any line (dirty or clean): its address. Used
    /// by inclusive parents to back-invalidate children.
    pub evicted: Option<u64>,
}

const HIT: CacheAccess = CacheAccess { hit: true, writeback: None, evicted: None };

/// `0x1111…1`: multiplying a way number by it repeats the way in every
/// nibble (the recency-order search key).
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// Per-set replacement and dirty state.
#[derive(Clone, Copy, Debug)]
struct SetState {
    /// Every way of the set, most recently filled or hit first, four bits
    /// per way (way numbers in the low `ways` nibbles; higher nibbles stay
    /// zero). Only the relative order of *valid* ways matters: an
    /// invalidated way keeps its slot until a fill moves it to the front,
    /// and fills prefer invalid ways regardless of their slot.
    order: u64,
    /// Bit `w` set: way `w` holds a line.
    valid: u16,
    /// Bit `w` set: way `w` holds a dirty line.
    dirty: u16,
}

impl SetState {
    /// An empty set of `ways` ways, recency order `0, 1, …, ways - 1`.
    fn empty(ways: usize) -> Self {
        let order = (0..ways as u64).fold(0, |o, w| o | w << (4 * w));
        SetState { order, valid: 0, dirty: 0 }
    }

    /// Moves `way` to the front of the recency order.
    #[inline]
    fn promote(&mut self, way: usize) {
        // Zero-nibble search (SWAR): nibbles of `x` are zero exactly where
        // `order` holds `way`. Borrows only run upward from a zero nibble,
        // so the lowest flagged nibble is exact, and `way` occurs once
        // among the low `ways` nibbles (any unused high nibble equal to
        // `way` sits above it).
        let x = self.order ^ (way as u64).wrapping_mul(NIBBLE_ONES);
        let zero = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
        let at = zero.trailing_zeros() & !3;
        let newer = self.order & ((1u64 << at) - 1);
        let older = self.order & (!0u64 << at << 4);
        self.order = older | newer << 4 | way as u64;
    }
}

/// A single set-associative write-back cache with LRU replacement.
///
/// Addresses are byte addresses; the cache operates on line granularity.
///
/// ```
/// use archsim::{Cache, CacheConfig};
/// let mut c = Cache::new(&CacheConfig { size_bytes: 1024, ways: 2, latency: 1 }, 64);
/// assert!(!c.access(0, false).hit); // cold miss (fills)
/// assert!(c.access(32, false).hit); // same line
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// Line tags, `sets × ways`, indexed `set * ways + way`. Stored as
    /// `(tag << 1) | 1` for resident lines and `0` for invalid ways, so a
    /// single `u64` compare per way answers "valid and matching". An 8-way
    /// set's tags are exactly one 64-byte host line.
    tags: Box<[u64]>,
    /// Replacement and dirty state, one record per set.
    sets: Box<[SetState]>,
    ways: usize,
    /// Valid mask of a full set.
    full: u16,
    /// Bit offset of the last (least recent) way's nibble in
    /// [`SetState::order`].
    lru_shift: u32,
    set_mask: u64,
    /// `set_mask.count_ones()`, precomputed so neither lookup nor the fill
    /// path recomputes index geometry per access.
    set_bits: u32,
    line_shift: u32,
}

impl Cache {
    /// The largest associativity the four-bit recency order can hold.
    pub const MAX_WAYS: usize = 16;

    /// Creates an empty cache from `cfg` with the given line size.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two, the associativity
    /// exceeds [`Cache::MAX_WAYS`], or the geometry is degenerate.
    pub fn new(cfg: &CacheConfig, line_bytes: usize) -> Self {
        assert!(
            (1..=Self::MAX_WAYS).contains(&cfg.ways),
            "cache associativity must be 1..={} ways (configured: {})",
            Self::MAX_WAYS,
            cfg.ways
        );
        let num_sets = cfg.num_sets(line_bytes);
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        // invariant: the stored-tag encoding shifts the tag left by one, so
        // the tag must fit 63 bits — guaranteed as long as at least one
        // address bit goes to line offset or set index.
        assert!(
            line_bytes >= 2 || num_sets >= 2,
            "degenerate 1-byte-line single-set geometry overflows the tag encoding"
        );
        Cache {
            tags: vec![0; num_sets * cfg.ways].into_boxed_slice(),
            sets: vec![SetState::empty(cfg.ways); num_sets].into_boxed_slice(),
            ways: cfg.ways,
            full: ((1u32 << cfg.ways) - 1) as u16,
            lru_shift: 4 * (cfg.ways as u32 - 1),
            set_mask: num_sets as u64 - 1,
            set_bits: (num_sets as u64 - 1).count_ones(),
            line_shift: line_bytes.trailing_zeros(),
        }
    }

    /// Set index and the *stored* tag probe (`(tag << 1) | 1`) for `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, ((line >> self.set_bits) << 1) | 1)
    }

    /// The way of `set_idx` holding `probe`, if any: a branch-free compare
    /// of every way's tag into a bit mask.
    #[inline]
    fn way_of(&self, set_idx: usize, probe: u64) -> Option<usize> {
        let base = set_idx * self.ways;
        let hits = self.tags[base..base + self.ways]
            .iter()
            .enumerate()
            .fold(0u32, |m, (w, &t)| m | u32::from(t == probe) << w);
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Index of `addr`'s set and way, if resident.
    #[inline]
    fn find(&self, addr: u64) -> Option<(usize, usize)> {
        let (set_idx, probe) = self.locate(addr);
        self.way_of(set_idx, probe).map(|way| (set_idx, way))
    }

    /// Looks up `addr`; on a miss, fills the line (write-allocate). `write`
    /// marks the line dirty.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        let (set_idx, probe) = self.locate(addr);
        let way = self.way_of(set_idx, probe);
        self.touch_or_fill(set_idx, probe, way, write)
    }

    /// [`access`](Self::access) for a caller that already knows whether the
    /// line is `resident`: a miss goes straight to the fill without a tag
    /// scan, and a hit scans only to find its way (not at all when it is
    /// the set's most recent one).
    ///
    /// In debug builds, panics if `resident` is wrong.
    #[inline]
    pub fn access_known(&mut self, addr: u64, write: bool, resident: bool) -> CacheAccess {
        let (set_idx, probe) = self.locate(addr);
        let way = if resident {
            // Repeated touches of one line find it in the most recent way:
            // no scan, and promotion would be a no-op.
            let mru = (self.sets[set_idx].order & 0xF) as usize;
            if self.tags[set_idx * self.ways + mru] == probe {
                self.sets[set_idx].dirty |= u16::from(write) << mru;
                return HIT;
            }
            let way = self.way_of(set_idx, probe);
            debug_assert!(way.is_some(), "line {addr:#x} reported resident but absent");
            way
        } else {
            debug_assert!(
                self.way_of(set_idx, probe).is_none(),
                "line {addr:#x} reported absent but resident"
            );
            None
        };
        self.touch_or_fill(set_idx, probe, way, write)
    }

    /// The one hit/fill path behind both entry points: touch `way` on a
    /// hit; otherwise fill `probe` over the first invalid way or, in a full
    /// set, the least recently used one (the reference layout's
    /// `min_by_key` tie-breaking exactly).
    #[inline]
    fn touch_or_fill(
        &mut self,
        set_idx: usize,
        probe: u64,
        way: Option<usize>,
        write: bool,
    ) -> CacheAccess {
        let set = &mut self.sets[set_idx];
        if let Some(way) = way {
            set.promote(way);
            set.dirty |= u16::from(write) << way;
            return HIT;
        }
        let mut writeback = None;
        let mut evicted = None;
        let victim = if set.valid != self.full {
            (!set.valid).trailing_zeros() as usize
        } else {
            let victim = (set.order >> self.lru_shift) as usize & 0xF;
            let evicted_addr = (((self.tags[set_idx * self.ways + victim] >> 1) << self.set_bits)
                | set_idx as u64)
                << self.line_shift;
            evicted = Some(evicted_addr);
            if set.dirty & (1 << victim) != 0 {
                writeback = Some(evicted_addr);
            }
            victim
        };
        set.promote(victim);
        set.valid |= 1 << victim;
        set.dirty = set.dirty & !(1 << victim) | u16::from(write) << victim;
        self.tags[set_idx * self.ways + victim] = probe;
        CacheAccess { hit: false, writeback, evicted }
    }

    /// Returns `true` if the line containing `addr` is present.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Invalidates the line containing `addr` if present; returns whether it
    /// was dirty (the caller decides what to do with the data).
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set_idx, way) = self.find(addr)?;
        let set = &mut self.sets[set_idx];
        let dirty = set.dirty & (1 << way) != 0;
        set.valid &= !(1 << way);
        set.dirty &= !(1 << way);
        self.tags[set_idx * self.ways + way] = 0;
        Some(dirty)
    }

    /// Marks the line containing `addr` dirty if present (used when a write
    /// is propagated to an inclusive parent).
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        match self.find(addr) {
            Some((set_idx, way)) => {
                self.sets[set_idx].dirty |= 1 << way;
                true
            }
            None => false,
        }
    }

    /// Drops every line, forgetting dirtiness (used between independent
    /// simulations, never mid-run).
    pub fn flush_silently(&mut self) {
        self.tags.fill(0);
        self.sets.fill(SetState::empty(self.ways));
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.valid.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        Cache::new(&CacheConfig { size_bytes: 256, ways: 2, latency: 1 }, 64)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13F, false).hit, "same 64-B line");
        assert!(!c.access(0x140, false).hit, "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with (line_number % 2 == 0): 0x000, 0x080, 0x100.
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch 0x000 so 0x080 is LRU
        let res = c.access(0x100, false); // evicts 0x080
        assert!(!res.hit);
        assert_eq!(res.evicted, Some(0x080));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x080, false);
        let res = c.access(0x100, false); // evicts dirty 0x000 (LRU)
        assert_eq!(res.writeback, Some(0x000));
        assert_eq!(res.evicted, Some(0x000));
    }

    #[test]
    fn clean_eviction_reports_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x080, false);
        let res = c.access(0x100, false);
        assert_eq!(res.writeback, None);
        assert!(res.evicted.is_some());
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x040, false);
        assert_eq!(c.invalidate(0x000), Some(true));
        assert_eq!(c.invalidate(0x040), Some(false));
        assert_eq!(c.invalidate(0x040), None);
        assert!(!c.contains(0x000));
    }

    #[test]
    fn mark_dirty_then_evict_writes_back() {
        let mut c = tiny();
        c.access(0x000, false);
        assert!(c.mark_dirty(0x000));
        c.access(0x080, false);
        let res = c.access(0x100, false);
        assert_eq!(res.writeback, Some(0x000));
        assert!(!c.mark_dirty(0xFC0), "absent line cannot be dirtied");
    }

    #[test]
    fn flush_silently_empties() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x040, true);
        assert_eq!(c.resident_lines(), 2);
        c.flush_silently();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0x000, false).hit);
    }

    #[test]
    fn write_allocate_fills_dirty() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x080, false);
        // Evicting 0x000 must produce a writeback even though it was only
        // ever written once at fill time.
        let res = c.access(0x100, false);
        assert_eq!(res.writeback, Some(0x000));
    }

    #[test]
    fn set_indexing_separates_conflicting_lines() {
        let mut c = tiny();
        // Lines 0x000 and 0x040 map to different sets (consecutive lines).
        c.access(0x000, false);
        c.access(0x040, false);
        assert!(c.contains(0x000));
        assert!(c.contains(0x040));
        assert_eq!(c.resident_lines(), 2);
    }

    /// The documented LRU semantics of the old nested layout, pinned
    /// against the flat layout: fills prefer the *first* invalid way, and
    /// among valid ways the one with the oldest stamp loses (first way on
    /// the — unreachable with unique stamps — tie).
    #[test]
    fn eviction_order_matches_nested_layout_semantics() {
        // 1 set x 4 ways: every line conflicts.
        let mut c = Cache::new(&CacheConfig { size_bytes: 256, ways: 4, latency: 1 }, 64);
        // Fill the four ways in order; no evictions while invalid ways
        // remain (the invalid way always wins the victim scan).
        for i in 0..4u64 {
            assert_eq!(c.access(i * 64, false).evicted, None, "way {i} fills an invalid slot");
        }
        // Re-touch ways 1 and 3; LRU order is now 0, 2, 1, 3.
        c.access(64, false);
        c.access(192, false);
        for expect in [0u64, 2, 1, 3] {
            let res = c.access((100 + expect) * 64, false);
            assert_eq!(res.evicted, Some(expect * 64), "LRU order must be 0,2,1,3");
        }
    }

    /// A long stream stays identical to the reference's never-wrapping
    /// `u64` LRU clock: the flat cache's positional recency order has no
    /// clock of its own to overflow.
    #[test]
    fn lru_survives_stamp_wraparound() {
        let cfg = CacheConfig { size_bytes: 1024, ways: 4, latency: 1 };
        let mut flat = Cache::new(&cfg, 64);
        let mut nested = crate::reference::Cache::new(&cfg, 64);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // Warm both with an identical prefix, then compare the second half
        // from that LRU state.
        for _ in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (state >> 16) % (cfg.size_bytes as u64 * 8);
            assert_eq!(flat.access(addr, state & 1 == 1), nested.access(addr, state & 1 == 1));
        }
        for step in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (state >> 16) % (cfg.size_bytes as u64 * 8);
            assert_eq!(
                flat.access(addr, state & 1 == 1),
                nested.access(addr, state & 1 == 1),
                "step {step} of the second half"
            );
        }
        assert_eq!(flat.resident_lines(), nested.resident_lines());
    }

    /// Exhaustive stream identity against the retained nested reference
    /// implementation, across several geometries (the proptest suite in the
    /// workspace root covers random geometries; this unit test is the
    /// fast smoke version). Op 3 drives [`Cache::access_known`] with
    /// `contains` as the residency answer.
    #[test]
    fn matches_reference_cache_on_mixed_streams() {
        for (size, ways) in [(256usize, 2usize), (512, 4), (1024, 1), (4096, 8), (2048, 16)] {
            let cfg = CacheConfig { size_bytes: size, ways, latency: 1 };
            let mut flat = Cache::new(&cfg, 64);
            let mut nested = crate::reference::Cache::new(&cfg, 64);
            let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
            for step in 0..20_000u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let addr = (state >> 16) % (size as u64 * 8);
                let write = state & 1 == 1;
                match state % 16 {
                    0 => assert_eq!(flat.invalidate(addr), nested.invalidate(addr), "step {step}"),
                    1 => assert_eq!(flat.mark_dirty(addr), nested.mark_dirty(addr), "step {step}"),
                    2 => assert_eq!(flat.contains(addr), nested.contains(addr), "step {step}"),
                    3 => {
                        let resident = flat.contains(addr);
                        assert_eq!(
                            flat.access_known(addr, write, resident),
                            nested.access(addr, write),
                            "step {step}"
                        );
                    }
                    _ => assert_eq!(
                        flat.access(addr, write),
                        nested.access(addr, write),
                        "step {step}"
                    ),
                }
            }
            assert_eq!(flat.resident_lines(), nested.resident_lines());
        }
    }

    #[test]
    #[should_panic(expected = "cache associativity must be 1..=16 ways (configured: 17)")]
    fn seventeen_ways_are_rejected() {
        let _ = Cache::new(&CacheConfig { size_bytes: 17 * 64, ways: 17, latency: 1 }, 64);
    }
}
