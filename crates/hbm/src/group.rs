//! A group of HBM stacks presented as `T` parallel channels.

use rip_units::{DataRate, DataSize, SimTime};
use serde::{Deserialize, Serialize};

use crate::channel::Channel;
use crate::geometry::HbmGeometry;
use crate::timing::HbmTiming;

/// `B` HBM stacks ganged behind one HBM switch, exposed as a flat array
/// of `T = B × channels_per_stack` independent channels (paper §3.1
/// Design 5: B = 4 stacks, T = 128 channels, 81.92 Tb/s).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HbmGroup {
    geometry: HbmGeometry,
    timing: HbmTiming,
    stacks: usize,
    channels: Vec<Channel>,
    /// Per-channel health: a failed channel accepts no new frame
    /// segments (in-flight data drains before the channel goes dark).
    alive: Vec<bool>,
    /// Stuck-at banks as a dense bitset over the flat index
    /// `channel * banks_per_channel + bank`: a stuck bank cannot
    /// activate for new frames; its segments re-home to healthy banks
    /// of the same group. One cache line covers 512 banks, so the
    /// per-frame health probe never chases an outer pointer.
    stuck: Vec<u64>,
    /// Count of set bits in `stuck` (fast emptiness check).
    stuck_count: usize,
}

/// `(word, bit-mask)` for the flat `(channel, bank)` bitset index.
fn stuck_slot(banks_per_channel: usize, channel: usize, bank: usize) -> (usize, u64) {
    debug_assert!(bank < banks_per_channel);
    let idx = channel * banks_per_channel + bank;
    (idx / 64, 1u64 << (idx % 64))
}

impl HbmGroup {
    /// Build a group of `stacks` stacks with the given geometry/timing.
    pub fn new(stacks: usize, geometry: HbmGeometry, timing: HbmTiming) -> Self {
        assert!(stacks > 0, "group needs at least one stack");
        geometry.validate().expect("invalid HBM geometry");
        timing.validate().expect("invalid HBM timing");
        let t = stacks * geometry.channels_per_stack;
        let channels = (0..t)
            .map(|_| Channel::new(timing, geometry.channel_rate(), geometry.banks_per_channel))
            .collect();
        HbmGroup {
            geometry,
            timing,
            stacks,
            channels,
            alive: vec![true; t],
            stuck: vec![0u64; (t * geometry.banks_per_channel).div_ceil(64)],
            stuck_count: 0,
        }
    }

    /// Reference group: 4 × HBM4 stacks = 128 channels, 81.92 Tb/s.
    pub fn reference() -> Self {
        HbmGroup::new(4, HbmGeometry::hbm4(), HbmTiming::hbm4())
    }

    /// Number of stacks.
    pub fn num_stacks(&self) -> usize {
        self.stacks
    }

    /// Total number of channels `T`.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Geometry shared by all stacks.
    pub fn geometry(&self) -> &HbmGeometry {
        &self.geometry
    }

    /// Timing rules shared by all channels.
    pub fn timing(&self) -> &HbmTiming {
        &self.timing
    }

    /// Peak aggregate data rate (all channels, healthy device).
    pub fn peak_rate(&self) -> DataRate {
        self.geometry.channel_rate() * self.channels.len() as u64
    }

    /// Mark channel `i` failed: it accepts no new frame segments.
    pub fn fail_channel(&mut self, i: usize) {
        self.alive[i] = false;
    }

    /// Return channel `i` to service.
    pub fn recover_channel(&mut self, i: usize) {
        self.alive[i] = true;
    }

    /// Whether channel `i` is in service.
    pub fn channel_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// Number of channels currently in service.
    pub fn num_alive_channels(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Whether every channel is alive and no bank is stuck.
    pub fn fully_healthy(&self) -> bool {
        self.stuck_count == 0 && self.alive.iter().all(|&a| a)
    }

    /// Mark `bank` of channel `channel` stuck: it cannot activate for
    /// new frames.
    pub fn stick_bank(&mut self, channel: usize, bank: usize) {
        let (w, m) = stuck_slot(self.geometry.banks_per_channel, channel, bank);
        if self.stuck[w] & m == 0 {
            self.stuck[w] |= m;
            self.stuck_count += 1;
        }
    }

    /// Return `bank` of channel `channel` to service.
    pub fn unstick_bank(&mut self, channel: usize, bank: usize) {
        let (w, m) = stuck_slot(self.geometry.banks_per_channel, channel, bank);
        if self.stuck[w] & m != 0 {
            self.stuck[w] &= !m;
            self.stuck_count -= 1;
        }
    }

    /// Whether `bank` of channel `channel` is stuck.
    pub fn bank_stuck(&self, channel: usize, bank: usize) -> bool {
        let (w, m) = stuck_slot(self.geometry.banks_per_channel, channel, bank);
        self.stuck[w] & m != 0
    }

    /// All currently stuck `(channel, bank)` pairs (empty in the healthy
    /// common case, at zero cost).
    pub fn stuck_banks(&self) -> Vec<(usize, usize)> {
        if self.stuck_count == 0 {
            return Vec::new();
        }
        let per = self.geometry.banks_per_channel;
        let mut v = Vec::with_capacity(self.stuck_count);
        for (w, &word) in self.stuck.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                v.push((idx / per, idx % per));
                bits &= bits - 1;
            }
        }
        v
    }

    /// Peak aggregate rate of the channels currently in service — the
    /// ceiling a degraded device can sustain.
    pub fn effective_peak_rate(&self) -> DataRate {
        self.geometry.channel_rate() * self.num_alive_channels() as u64
    }

    /// Total capacity.
    pub fn capacity(&self) -> DataSize {
        self.geometry.stack_capacity * self.stacks as u64
    }

    /// Immutable access to channel `i`.
    pub fn channel(&self, i: usize) -> &Channel {
        &self.channels[i]
    }

    /// Mutable access to channel `i`.
    pub fn channel_mut(&mut self, i: usize) -> &mut Channel {
        &mut self.channels[i]
    }

    /// Iterate over all channels.
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter()
    }

    /// Toggle command recording on every channel (see
    /// [`Channel::set_record_commands`]): when on, each channel keeps an
    /// in-order ACT/RD/WR/PRE/REFsb log for replay by an external
    /// timing-conformance checker.
    pub fn set_record_commands(&mut self, on: bool) {
        for ch in &mut self.channels {
            ch.set_record_commands(on);
        }
    }

    /// Bound command recording on every channel to commands issued
    /// inside `[start, end)` (see [`Channel::set_record_window`]).
    pub fn set_record_window(&mut self, window: Option<(SimTime, SimTime)>) {
        for ch in &mut self.channels {
            ch.set_record_window(window);
        }
    }

    /// Total data moved across all channels (reads + writes).
    pub fn total_data(&self) -> DataSize {
        self.channels.iter().map(|c| c.stats().total_data()).sum()
    }

    /// Achieved aggregate rate over the window `[start, end]`.
    pub fn achieved_rate(&self, start: SimTime, end: SimTime) -> DataRate {
        let dt = end.since(start);
        if dt.is_zero() {
            return DataRate::ZERO;
        }
        let bits: u64 = self
            .channels
            .iter()
            .map(|c| c.stats().bits_read + c.stats().bits_written)
            .sum();
        let bps = bits as u128 * rip_units::PS_PER_S as u128 / dt.as_ps() as u128;
        DataRate::from_bps(u64::try_from(bps).expect("rate overflow"))
    }

    /// Fraction of peak bandwidth achieved over `[start, end]`.
    pub fn utilization(&self, start: SimTime, end: SimTime) -> f64 {
        self.achieved_rate(start, end).fraction_of(self.peak_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_group_matches_paper() {
        let g = HbmGroup::reference();
        assert_eq!(g.num_channels(), 128);
        assert_eq!(g.num_stacks(), 4);
        // 81.92 Tb/s aggregate, 256 GB capacity.
        assert_eq!(g.peak_rate().tbps(), 81.92);
        assert_eq!(g.capacity(), DataSize::from_gib(256));
    }

    #[test]
    fn small_group_utilization_accounting() {
        use crate::channel::Direction;
        let mut g = HbmGroup::new(1, HbmGeometry::hbm4(), HbmTiming::hbm4());
        let t0 = SimTime::ZERO;
        // Write one 1 KiB segment on every channel in lockstep.
        let seg = DataSize::from_kib(1);
        let mut end = t0;
        for i in 0..g.num_channels() {
            let ch = g.channel_mut(i);
            let ready = ch.activate(t0, 0, 0).unwrap();
            end = ch.access(ready, 0, 0, seg, Direction::Write).unwrap();
        }
        assert_eq!(g.total_data(), seg * 32);
        let rate = g.achieved_rate(t0, end);
        // 32 KiB in 28.8 ns (16 tRCD + 12.8 transfer).
        let expect = 32.0 * 1024.0 * 8.0 / 28.8e-9 / 1e12; // Tb/s
        assert!((rate.tbps() - expect).abs() / expect < 0.01);
        assert!(g.utilization(t0, end) > 0.0);
    }

    #[test]
    fn zero_window_rate_is_zero() {
        let g = HbmGroup::reference();
        assert_eq!(
            g.achieved_rate(SimTime::ZERO, SimTime::ZERO),
            DataRate::ZERO
        );
    }

    #[test]
    fn channel_failure_tracks_effective_peak() {
        let mut g = HbmGroup::new(1, HbmGeometry::hbm4(), HbmTiming::hbm4());
        let t = g.num_channels();
        assert!(g.fully_healthy());
        assert_eq!(g.effective_peak_rate(), g.peak_rate());
        g.fail_channel(3);
        assert!(!g.channel_alive(3));
        assert!(!g.fully_healthy());
        assert_eq!(g.num_alive_channels(), t - 1);
        assert_eq!(
            g.effective_peak_rate(),
            g.geometry().channel_rate() * (t as u64 - 1)
        );
        g.recover_channel(3);
        assert!(g.fully_healthy());
        assert_eq!(g.effective_peak_rate(), g.peak_rate());
    }

    #[test]
    fn stuck_banks_enumerate_and_clear() {
        let mut g = HbmGroup::new(1, HbmGeometry::hbm4(), HbmTiming::hbm4());
        assert!(g.stuck_banks().is_empty());
        g.stick_bank(1, 5);
        g.stick_bank(2, 0);
        g.stick_bank(1, 5); // idempotent
        assert!(g.bank_stuck(1, 5));
        assert!(!g.fully_healthy());
        assert_eq!(g.stuck_banks(), vec![(1, 5), (2, 0)]);
        g.unstick_bank(1, 5);
        g.unstick_bank(2, 0);
        assert!(g.fully_healthy());
        assert!(g.stuck_banks().is_empty());
    }

    #[test]
    fn stuck_bitset_spans_word_boundaries() {
        // 4 stacks × 32 channels × 32 banks = 4096 flat indices; exercise
        // the first bit, a mid-word bit, bits either side of a 64-bit
        // word boundary, and the very last bank.
        let mut g = HbmGroup::reference();
        let per = g.geometry().banks_per_channel;
        let last_ch = g.num_channels() - 1;
        let picks = [(0, 0), (1, 63 % per), (2, 0), (last_ch, per - 1)];
        for &(c, b) in &picks {
            g.stick_bank(c, b);
        }
        for &(c, b) in &picks {
            assert!(g.bank_stuck(c, b), "({c},{b}) should be stuck");
        }
        assert!(!g.bank_stuck(3, 1));
        let mut expect: Vec<_> = picks.to_vec();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(g.stuck_banks(), expect);
        for &(c, b) in &picks {
            g.unstick_bank(c, b);
        }
        assert!(g.fully_healthy());
    }
}
