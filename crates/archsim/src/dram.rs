//! Main-memory controllers with a bandwidth/queueing contention model.
//!
//! Each controller serves one cache line every `cycles_per_line` cycles
//! (the DDR4-1600 bandwidth bound of Table I); a request arriving while the
//! controller is busy queues behind earlier requests. Lines interleave
//! across controllers at line granularity.

use crate::DramConfig;

/// The memory-controller array.
#[derive(Clone, Debug)]
pub struct DramModel {
    cfg: DramConfig,
    next_free: Vec<u64>,
    accesses: u64,
    queued_cycles: u64,
}

impl DramModel {
    /// Creates an idle controller array.
    pub fn new(cfg: DramConfig) -> Self {
        DramModel { next_free: vec![0; cfg.controllers], cfg, accesses: 0, queued_cycles: 0 }
    }

    /// The controller owning `line_addr` (line-granularity interleave).
    #[inline]
    pub fn controller_of(&self, line_addr: u64) -> usize {
        (line_addr as usize) % self.cfg.controllers
    }

    /// Services one line transfer for the line containing `addr`, issued at
    /// absolute cycle `now`. Returns the total latency (queueing + access).
    /// `line_bytes` must be a power of two, as
    /// [`SystemConfig::validate`](crate::SystemConfig::validate) requires.
    pub fn access(&mut self, addr: u64, line_bytes: u64, now: u64) -> u64 {
        debug_assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        let line = addr >> line_bytes.trailing_zeros();
        let ctrl = self.controller_of(line);
        let start = self.next_free[ctrl].max(now);
        let queue_delay = start - now;
        self.next_free[ctrl] = start + self.cfg.cycles_per_line;
        self.accesses += 1;
        self.queued_cycles += queue_delay;
        queue_delay + self.cfg.base_latency
    }

    /// Total line transfers served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total cycles requests spent queued behind the bandwidth bound — a
    /// direct measure of bandwidth saturation.
    pub fn queued_cycles(&self) -> u64 {
        self.queued_cycles
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramModel {
        DramModel::new(DramConfig { controllers: 2, base_latency: 100, cycles_per_line: 10 })
    }

    #[test]
    fn idle_access_costs_base_latency() {
        let mut d = dram();
        assert_eq!(d.access(0, 64, 0), 100);
        assert_eq!(d.accesses(), 1);
        assert_eq!(d.queued_cycles(), 0);
    }

    #[test]
    fn back_to_back_same_controller_queues() {
        let mut d = dram();
        // Lines 0 and 2 both map to controller 0.
        assert_eq!(d.access(0, 64, 0), 100);
        let lat = d.access(2 * 64, 64, 0);
        assert_eq!(lat, 110, "second request waits one service slot");
        assert_eq!(d.queued_cycles(), 10);
    }

    #[test]
    fn different_controllers_do_not_interfere() {
        let mut d = dram();
        assert_eq!(d.access(0, 64, 0), 100); // controller 0
        assert_eq!(d.access(64, 64, 0), 100); // controller 1
        assert_eq!(d.queued_cycles(), 0);
    }

    #[test]
    fn late_arrival_sees_idle_controller() {
        let mut d = dram();
        d.access(0, 64, 0);
        assert_eq!(d.access(2 * 64, 64, 1000), 100, "controller long since free");
    }

    #[test]
    fn interleave_by_line() {
        let d = dram();
        assert_eq!(d.controller_of(0), 0);
        assert_eq!(d.controller_of(1), 1);
        assert_eq!(d.controller_of(2), 0);
    }
}
