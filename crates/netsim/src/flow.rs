//! Per-flow sender and receiver state.
//!
//! The sender implements a compact but faithful TCP-style reliability layer:
//! cumulative + selective acknowledgements, duplicate-ACK fast retransmit,
//! NewReno-style partial-ACK handling during recovery, Karn's rule for RTT
//! sampling, and an RFC 6298 retransmission timer with exponential backoff.
//! Congestion control is delegated to a [`CongestionControl`] kernel.

use std::collections::VecDeque;

use crate::cc::CongestionControl;
use crate::stats::{FlowStats, MonitorAccum};
use crate::time::Time;
use crate::topology::LinkId;

/// Identifies a flow within one simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub usize);

/// Static configuration of a flow.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Two-way propagation delay (the RTT floor when queues are empty).
    pub min_rtt: Time,
    /// When the application starts sending.
    pub start_time: Time,
    /// When the application departs (`None` keeps sending forever). After
    /// this instant the flow transmits nothing — no new data and no
    /// retransmissions — though packets already in flight may still be
    /// acknowledged.
    pub stop_time: Option<Time>,
    /// Whether to record per-ACK delay samples in [`FlowStats::samples`].
    pub record_samples: bool,
    /// The links this flow's data packets traverse, in hop order. The
    /// default (link `0` only) is the dumbbell route; multi-hop topologies
    /// set it via [`FlowConfig::on_path`]. Validated against the topology
    /// when the flow is added.
    pub path: Vec<LinkId>,
}

impl FlowConfig {
    /// A flow starting at time zero with sample recording enabled, routed
    /// over the dumbbell's single bottleneck.
    pub fn new(min_rtt: Time) -> FlowConfig {
        FlowConfig {
            min_rtt,
            start_time: Time::ZERO,
            stop_time: None,
            record_samples: true,
            path: vec![LinkId(0)],
        }
    }

    /// Routes the flow over an explicit sequence of links.
    pub fn on_path(mut self, path: Vec<LinkId>) -> FlowConfig {
        self.path = path;
        self
    }

    /// Sets the start time.
    pub fn starting_at(mut self, t: Time) -> FlowConfig {
        self.start_time = t;
        self
    }

    /// Sets the departure time (clamped to be no earlier than the start).
    pub fn stopping_at(mut self, t: Time) -> FlowConfig {
        self.stop_time = Some(t.max(self.start_time));
        self
    }

    /// Disables per-ACK sample recording (saves memory on long runs).
    pub fn without_samples(mut self) -> FlowConfig {
        self.record_samples = false;
        self
    }
}

/// Minimum retransmission timeout, matching Linux's 200 ms floor.
pub const MIN_RTO: Time = Time::from_millis(200);
/// Maximum retransmission timeout.
pub const MAX_RTO: Time = Time::from_secs(60);
/// Duplicate-ACK threshold for fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;
/// The sender never lets the effective window drop below this many packets;
/// Linux enforces the same floor.
pub const MIN_CWND: f64 = 2.0;

/// A set of sequence numbers stored as a bitmap: bit `b` of word `i` is
/// the key `64 (base + i) + b`.
///
/// The reliability layer's sequence state spans a bounded window — from
/// the cumulative ACK (or the receiver's next expected packet) up to the
/// next fresh sequence number — with holes anywhere inside it. So every
/// operation indexes its word directly: insert and remove shift no memory
/// (an insert outside the span first grows it by zero words), the minimum
/// is a `trailing_zeros`, and a cumulative drain is a popcount per
/// drained word. The words are anchored at the lowest live word and
/// trimmed to a nonzero word at both ends, so memory follows the span of
/// held keys at one bit per sequence number.
#[derive(Clone, Debug, Default)]
pub struct SeqRing {
    /// The bitmap, from the lowest to the highest live word; both ends
    /// are nonzero whenever the set is not empty.
    words: VecDeque<u64>,
    /// Word index of `words[0]` (meaningless while `words` is empty).
    base: u64,
    /// Number of keys held.
    len: usize,
}

impl SeqRing {
    /// An empty set.
    pub fn new() -> SeqRing {
        SeqRing::default()
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every key.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// The smallest key held.
    pub(crate) fn first(&self) -> Option<u64> {
        let word = *self.words.front()?;
        Some(self.base * 64 + u64::from(word.trailing_zeros()))
    }

    /// The largest key held.
    pub(crate) fn last(&self) -> Option<u64> {
        let word = *self.words.back()?;
        let top = self.base + self.words.len() as u64 - 1;
        Some(top * 64 + u64::from(63 - word.leading_zeros()))
    }

    /// Removes and returns the smallest key.
    pub fn pop_first(&mut self) -> Option<u64> {
        let seq = self.first()?;
        let word = &mut self.words[0];
        *word &= *word - 1;
        self.len -= 1;
        if *word == 0 {
            self.trim();
        }
        Some(seq)
    }

    /// Inserts `seq`; returns whether it was new.
    #[inline]
    pub fn insert(&mut self, seq: u64) -> bool {
        let word = self.word_mut(seq / 64);
        let bit = 1 << (seq % 64);
        let new = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(new);
        new
    }

    /// Removes `seq`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, seq: u64) -> bool {
        let Some(idx) = (seq / 64).checked_sub(self.base) else {
            return false;
        };
        let Some(word) = self.words.get_mut(idx as usize) else {
            return false;
        };
        let bit = 1 << (seq % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        self.len -= 1;
        if *word == 0 {
            self.trim();
        }
        true
    }

    /// Removes every key strictly below `cutoff`, returning how many were
    /// removed.
    pub fn drain_below(&mut self, cutoff: u64) -> u64 {
        let mut removed = 0;
        while self.base < cutoff / 64 {
            let Some(word) = self.words.pop_front() else {
                break;
            };
            removed += u64::from(word.count_ones());
            self.base += 1;
        }
        if self.base == cutoff / 64 {
            if let Some(word) = self.words.front_mut() {
                let below = *word & ((1 << (cutoff % 64)) - 1);
                removed += u64::from(below.count_ones());
                *word &= !below;
            }
        }
        self.len -= removed as usize;
        self.trim();
        removed
    }

    /// Moves every key into `into` and empties this set, returning how
    /// many keys moved.
    pub fn move_keys_into(&mut self, into: &mut SeqRing) -> u64 {
        let moved = self.len as u64;
        if into.is_empty() {
            std::mem::swap(self, into);
        } else if let Some(top) = self.last() {
            into.word_mut(self.base);
            into.word_mut(top / 64);
            let offset = (self.base - into.base) as usize;
            for (&word, slot) in self.words.iter().zip(into.words.range_mut(offset..)) {
                into.len += (word & !*slot).count_ones() as usize;
                *slot |= word;
            }
        }
        self.clear();
        moved
    }

    /// Whether no key is in both sets (a word-wise AND over the words
    /// they share).
    pub(crate) fn is_disjoint(&self, other: &SeqRing) -> bool {
        let lo = self.base.max(other.base);
        let hi = (self.base + self.words.len() as u64).min(other.base + other.words.len() as u64);
        (lo..hi).all(|w| {
            self.words[(w - self.base) as usize] & other.words[(w - other.base) as usize] == 0
        })
    }

    /// The word holding keys `64 w .. 64 w + 64`, growing the bitmap with
    /// zero words to reach it; the caller sets a bit in it, which keeps
    /// both ends nonzero.
    fn word_mut(&mut self, w: u64) -> &mut u64 {
        if self.words.is_empty() {
            self.base = w;
        }
        while w < self.base {
            self.words.push_front(0);
            self.base -= 1;
        }
        let idx = (w - self.base) as usize;
        if idx >= self.words.len() {
            self.words.resize(idx + 1, 0);
        }
        &mut self.words[idx]
    }

    /// Drops zero words from both ends.
    fn trim(&mut self) {
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += 1;
        }
        while self.words.back() == Some(&0) {
            self.words.pop_back();
        }
    }
}

/// Receiver-side reassembly state.
#[derive(Debug, Default)]
pub struct Receiver {
    /// Next expected sequence number; everything below has been received.
    pub cum_recv: u64,
    /// Out-of-order packets received above `cum_recv`.
    pub out_of_order: SeqRing,
}

impl Receiver {
    /// Processes an arriving data packet and returns the new cumulative ACK.
    pub fn on_data(&mut self, seq: u64) -> u64 {
        if seq == self.cum_recv {
            self.cum_recv += 1;
            while self.out_of_order.remove(self.cum_recv) {
                self.cum_recv += 1;
            }
        } else if seq > self.cum_recv {
            self.out_of_order.insert(seq);
        }
        // Below cum_recv: spurious duplicate, ACK still confirms cum_recv.
        self.cum_recv
    }
}

/// Full per-flow state owned by the simulator.
pub struct FlowState {
    /// Static configuration.
    pub config: FlowConfig,
    /// The congestion-control kernel.
    pub cc: Box<dyn CongestionControl>,
    /// Whether the application has started.
    pub started: bool,
    /// Whether the application has departed (stopped sending for good).
    pub stopped: bool,

    // --- Sender reliability state ---
    /// Next fresh sequence number to send.
    pub next_seq: u64,
    /// Cumulative ACK received: all `seq < cum_acked` are delivered.
    pub cum_acked: u64,
    /// Outstanding packets (sent, neither acknowledged nor declared lost).
    /// What a copy carried when sent (send time, retransmit flag,
    /// delivered bytes) travels in the packet and its ACK's echo, so the
    /// sender keeps only the sequence numbers.
    pub outstanding: SeqRing,
    /// Packets declared lost and awaiting retransmission.
    pub lost_pending: SeqRing,
    /// Duplicate-ACK counter.
    pub dup_acks: u32,
    /// While in fast recovery: recovery completes once `cum_acked` reaches
    /// this sequence number.
    pub recovery_end: Option<u64>,
    /// Total bytes delivered (cumulative + selective), for rate estimation.
    pub delivered_bytes: u64,

    // --- RTT estimation and the retransmission timer (RFC 6298); whether
    // the timer is armed is recorded by the calendar's RTO slot alone ---
    /// Smoothed RTT; zero until the first sample.
    pub srtt: Time,
    /// RTT variance estimate.
    pub rttvar: Time,
    /// Current retransmission timeout.
    pub rto: Time,
    /// Consecutive backoffs applied to `rto` since the last new ACK.
    pub rto_backoff: u32,

    // --- Statistics ---
    /// Lifetime statistics.
    pub stats: FlowStats,
    /// Per-monitor-interval accumulators.
    pub monitor: MonitorAccum,

    /// Receiver-side state.
    pub receiver: Receiver,
}

impl FlowState {
    /// Creates a fresh flow.
    pub fn new(config: FlowConfig, cc: Box<dyn CongestionControl>) -> FlowState {
        FlowState {
            config,
            cc,
            started: false,
            stopped: false,
            next_seq: 0,
            cum_acked: 0,
            outstanding: SeqRing::new(),
            lost_pending: SeqRing::new(),
            dup_acks: 0,
            recovery_end: None,
            delivered_bytes: 0,
            srtt: Time::ZERO,
            rttvar: Time::ZERO,
            rto: Time::from_secs(1),
            rto_backoff: 0,
            stats: FlowStats::new(),
            monitor: MonitorAccum::default(),
            receiver: Receiver::default(),
        }
    }

    /// Packets in flight: sent and neither acknowledged nor declared lost.
    pub fn inflight(&self) -> u64 {
        self.outstanding.len() as u64
    }

    /// Whether any packet is in flight or awaiting retransmission — what a
    /// retransmission timer guards.
    pub fn has_unacked(&self) -> bool {
        !self.outstanding.is_empty() || !self.lost_pending.is_empty()
    }

    /// The effective window in whole packets, never below [`MIN_CWND`].
    pub fn effective_cwnd(&self) -> u64 {
        self.cc.cwnd().max(MIN_CWND).floor() as u64
    }

    /// Whether the application is between its start and stop times.
    pub fn active(&self) -> bool {
        self.started && !self.stopped
    }

    /// Whether the window permits sending another packet.
    pub fn can_send(&self) -> bool {
        self.active() && self.inflight() < self.effective_cwnd()
    }

    /// Feeds an RTT sample through the RFC 6298 estimator and updates `rto`.
    pub fn record_rtt_sample(&mut self, rtt: Time) {
        if self.stats.min_rtt == Time::MAX || rtt < self.stats.min_rtt {
            self.stats.min_rtt = rtt;
        }
        if self.srtt == Time::ZERO {
            self.srtt = rtt;
            self.rttvar = rtt / 2;
        } else {
            // rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
            let err = if self.srtt > rtt {
                self.srtt - rtt
            } else {
                rtt - self.srtt
            };
            self.rttvar = Time::from_nanos((self.rttvar.as_nanos() / 4) * 3 + err.as_nanos() / 4);
            // srtt = 7/8 srtt + 1/8 rtt
            self.srtt = Time::from_nanos((self.srtt.as_nanos() / 8) * 7 + rtt.as_nanos() / 8);
        }
        let raw = self.srtt + (self.rttvar * 4).max(Time::from_millis(1));
        self.rto = raw.max(MIN_RTO).min(MAX_RTO);
        self.rto_backoff = 0;
    }

    /// The RTO with the current exponential backoff applied.
    pub fn backed_off_rto(&self) -> Time {
        let mut rto = self.rto;
        for _ in 0..self.rto_backoff.min(16) {
            rto = (rto * 2).min(MAX_RTO);
        }
        rto
    }

    /// Whether the flow is currently in fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.recovery_end.is_some()
    }

    /// Checks the sender's scoreboard in debug builds: no sequence number
    /// is both outstanding and lost, every one lies in
    /// `[cum_acked, next_seq)`, and the two sets' kept counts fit that
    /// window.
    pub(crate) fn debug_assert_scoreboard(&self) {
        let in_window = |set: &SeqRing| {
            set.first().is_none_or(|lo| lo >= self.cum_acked)
                && set.last().is_none_or(|hi| hi < self.next_seq)
        };
        debug_assert!(
            self.outstanding.is_disjoint(&self.lost_pending),
            "a sequence number is both outstanding and lost: {self:?}"
        );
        debug_assert!(
            in_window(&self.outstanding) && in_window(&self.lost_pending),
            "a scoreboard key lies outside [cum_acked, next_seq): {self:?}"
        );
        debug_assert!(
            self.outstanding.len() + self.lost_pending.len()
                <= (self.next_seq - self.cum_acked) as usize,
            "the scoreboard holds more keys than its window: {self:?}"
        );
    }
}

impl std::fmt::Debug for FlowState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowState")
            .field("cc", &self.cc.name())
            .field("next_seq", &self.next_seq)
            .field("cum_acked", &self.cum_acked)
            .field("inflight", &self.inflight())
            .field("cwnd", &self.cc.cwnd())
            .field("in_recovery", &self.in_recovery())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn flow() -> FlowState {
        FlowState::new(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(10.0)),
        )
    }

    fn keys(set: &SeqRing) -> Vec<u64> {
        let mut keys = Vec::new();
        for (i, &word) in set.words.iter().enumerate() {
            let base = (set.base + i as u64) * 64;
            keys.extend((0..64).filter(|b| word >> b & 1 == 1).map(|b| base + b));
        }
        keys
    }

    enum Op {
        Insert(u64),
        Remove(u64),
        DrainBelow(u64),
        PopFirst,
        /// Moves every key of one set into the other; `true` moves the
        /// set under test into its partner.
        MoveKeys(bool),
    }

    /// Draws one operation, its key chosen relative to the set's current
    /// front and back the way the reliability layer uses one (appends and
    /// near-misses at the back, cumulative drains and recovery at the
    /// front), plus the bitmap's own edges: keys on either side of a word
    /// boundary, inserts below the lowest word, drains at exact multiples
    /// of 64 and past the back, and jumps of thousands of keys.
    fn draw(rng: &mut StdRng, set: &SeqRing) -> Op {
        let front = set.first().unwrap_or(0);
        let back = set.last().unwrap_or(0);
        let k = rng.random_range(0..48u64);
        let boundary = [63, 64, 65, 127, 128][k as usize % 5];
        let next_word = (front / 64 + 1 + k % 3) * 64;
        match rng.random_range(0..22u8) {
            0..=3 => Op::Insert(back + k % 4),
            4 => Op::Insert(back.saturating_sub(k % 6)),
            5 => Op::Insert(k),
            6 => Op::Insert(boundary),
            7 => Op::Insert(next_word - 1 + k % 3),
            8 => Op::Insert(front.saturating_sub(64 + k * 7)),
            9 => Op::Insert(back + rng.random_range(0..4000u64)),
            10..=11 => Op::Remove(front + k % 3),
            12 => Op::Remove(k),
            13 => Op::Remove(next_word - 1 + k % 3),
            14 => Op::DrainBelow(front + k % 5),
            15 => Op::DrainBelow(next_word - 64 * (k % 2)),
            16 => Op::DrainBelow(back + 1 + k * 40),
            17..=18 => Op::PopFirst,
            19 => Op::MoveKeys(true),
            _ => Op::MoveKeys(k % 2 == 0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bitmap is an ordered set: through insert / remove /
        /// drain_below / pop_first / move_keys_into sequences that straddle
        /// word boundaries, every return value, every key in order, the
        /// kept count, the minimum and maximum and disjointness from a
        /// partner set match `BTreeSet`, and both ends stay trimmed.
        #[test]
        fn bitset_matches_ordered_set(seed in 0..u64::MAX, len in 0..200usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut set, mut other) = (SeqRing::new(), SeqRing::new());
            let (mut oracle, mut other_oracle) = (BTreeSet::new(), BTreeSet::new());
            for _ in 0..len {
                match draw(&mut rng, &set) {
                    Op::Insert(k) => prop_assert_eq!(set.insert(k), oracle.insert(k)),
                    Op::Remove(k) => prop_assert_eq!(set.remove(k), oracle.remove(&k)),
                    Op::DrainBelow(cut) => {
                        let kept = oracle.split_off(&cut);
                        let below = std::mem::replace(&mut oracle, kept).len() as u64;
                        prop_assert_eq!(set.drain_below(cut), below);
                    }
                    Op::PopFirst => prop_assert_eq!(set.pop_first(), oracle.pop_first()),
                    Op::MoveKeys(forward) => {
                        let (from, into, from_oracle, into_oracle) = if forward {
                            (&mut set, &mut other, &mut oracle, &mut other_oracle)
                        } else {
                            (&mut other, &mut set, &mut other_oracle, &mut oracle)
                        };
                        let moved = from_oracle.len() as u64;
                        into_oracle.append(from_oracle);
                        prop_assert_eq!(from.move_keys_into(into), moved);
                    }
                }
                for (set, oracle) in [(&set, &oracle), (&other, &other_oracle)] {
                    prop_assert_eq!(keys(set), oracle.iter().copied().collect::<Vec<_>>());
                    prop_assert_eq!((set.len(), set.is_empty()), (oracle.len(), oracle.is_empty()));
                    prop_assert_eq!(set.first(), oracle.first().copied());
                    prop_assert_eq!(set.last(), oracle.last().copied());
                    prop_assert!(set.words.front().is_none_or(|&w| w != 0));
                    prop_assert!(set.words.back().is_none_or(|&w| w != 0));
                }
                prop_assert_eq!(set.is_disjoint(&other), oracle.is_disjoint(&other_oracle));
            }
        }
    }

    #[test]
    fn receiver_in_order() {
        let mut r = Receiver::default();
        assert_eq!(r.on_data(0), 1);
        assert_eq!(r.on_data(1), 2);
        assert_eq!(r.on_data(2), 3);
    }

    #[test]
    fn receiver_reorders_and_fills_gap() {
        let mut r = Receiver::default();
        assert_eq!(r.on_data(0), 1);
        assert_eq!(r.on_data(2), 1); // gap at 1
        assert_eq!(r.on_data(3), 1);
        assert_eq!(r.on_data(1), 4); // gap filled, jumps past buffered 2,3
        assert!(r.out_of_order.is_empty());
    }

    #[test]
    fn receiver_ignores_stale_duplicates() {
        let mut r = Receiver::default();
        r.on_data(0);
        r.on_data(1);
        assert_eq!(r.on_data(0), 2);
    }

    #[test]
    fn rtt_estimator_first_sample() {
        let mut f = flow();
        f.record_rtt_sample(Time::from_millis(100));
        assert_eq!(f.srtt, Time::from_millis(100));
        assert_eq!(f.rttvar, Time::from_millis(50));
        // RTO = srtt + 4*rttvar = 300ms.
        assert_eq!(f.rto, Time::from_millis(300));
        assert_eq!(f.stats.min_rtt, Time::from_millis(100));
    }

    #[test]
    fn rtt_estimator_smooths() {
        let mut f = flow();
        f.record_rtt_sample(Time::from_millis(100));
        f.record_rtt_sample(Time::from_millis(100));
        assert_eq!(f.srtt, Time::from_millis(100));
        // Variance decays toward zero on stable RTTs.
        assert!(f.rttvar < Time::from_millis(50));
        f.record_rtt_sample(Time::from_millis(200));
        assert!(f.srtt > Time::from_millis(100));
        assert!(f.srtt < Time::from_millis(200));
        assert_eq!(f.stats.min_rtt, Time::from_millis(100));
    }

    #[test]
    fn rto_floors_at_min() {
        let mut f = flow();
        f.record_rtt_sample(Time::from_millis(1));
        assert_eq!(f.rto, MIN_RTO);
    }

    #[test]
    fn rto_backoff_doubles_and_caps() {
        let mut f = flow();
        f.record_rtt_sample(Time::from_millis(100));
        let base = f.rto;
        f.rto_backoff = 1;
        assert_eq!(f.backed_off_rto(), base * 2);
        f.rto_backoff = 2;
        assert_eq!(f.backed_off_rto(), base * 4);
        f.rto_backoff = 30;
        assert_eq!(f.backed_off_rto(), MAX_RTO);
    }

    #[test]
    fn effective_cwnd_floors_at_min_cwnd() {
        let mut f = flow();
        f.cc.set_cwnd(0.5);
        assert_eq!(f.effective_cwnd(), MIN_CWND as u64);
    }

    #[test]
    fn can_send_respects_window() {
        let mut f = flow();
        f.started = true;
        assert!(f.can_send());
        for s in 0..10 {
            f.outstanding.insert(s);
        }
        assert!(!f.can_send());
        f.outstanding.remove(4);
        assert!(f.can_send());
    }
}
