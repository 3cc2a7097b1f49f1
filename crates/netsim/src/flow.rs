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

/// Metadata retained for each outstanding (unacknowledged) packet.
#[derive(Clone, Copy, Debug)]
pub struct SentMeta {
    /// When this copy was sent.
    pub sent_at: Time,
    /// Whether this copy was a retransmission.
    pub retransmit: bool,
    /// Cumulative delivered bytes at send time (delivery-rate estimation).
    pub delivered_at_send: u64,
}

/// Values keyed by sequence number, sorted ascending over a ring buffer;
/// `SeqRing<()>` (the default) is an ordered set of sequence numbers.
///
/// The reliability layer's sequence state sees near-sorted traffic: fresh
/// data, new losses and out-of-order arrivals land at the frontier, while
/// the cumulative ACK and recovery drain the front. So a sorted ring with
/// frontier fast paths and a binary-search fallback beats a node-based
/// tree on every hot operation while keeping ordered-map semantics
/// (iteration and minimum are in ascending key order).
#[derive(Clone, Debug)]
pub struct SeqRing<V = ()> {
    entries: VecDeque<(u64, V)>,
}

impl<V> Default for SeqRing<V> {
    fn default() -> SeqRing<V> {
        SeqRing {
            entries: VecDeque::new(),
        }
    }
}

impl<V> SeqRing<V> {
    /// An empty ring.
    pub fn new() -> SeqRing<V> {
        SeqRing::default()
    }

    /// An empty ring pre-sized for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> SeqRing<V> {
        SeqRing {
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Removes and returns the entry with the smallest key.
    pub fn pop_first(&mut self) -> Option<(u64, V)> {
        self.entries.pop_front()
    }

    /// Inserts `value` under `seq`, overwriting the value already there;
    /// returns whether `seq` was new. A key above every held key is an
    /// O(1) append.
    #[inline]
    pub fn insert(&mut self, seq: u64, value: V) -> bool {
        if self.entries.back().is_none_or(|&(last, _)| last < seq) {
            self.entries.push_back((seq, value));
            return true;
        }
        match self.entries.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(idx) => {
                self.entries[idx].1 = value;
                false
            }
            Err(idx) => {
                self.entries.insert(idx, (seq, value));
                true
            }
        }
    }

    /// Removes `seq`, returning its value if it was present. Removing the
    /// smallest key is an O(1) pop.
    #[inline]
    pub fn remove(&mut self, seq: u64) -> Option<V> {
        match self.entries.front() {
            None => return None,
            Some(&(first, _)) if first == seq => {
                return self.entries.pop_front().map(|(_, value)| value);
            }
            Some(&(first, _)) if first > seq => return None,
            _ => {}
        }
        match self.entries.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(idx) => self.entries.remove(idx).map(|(_, value)| value),
            Err(_) => None,
        }
    }

    /// Removes every entry keyed strictly below `cutoff`, returning how
    /// many were removed.
    pub fn drain_below(&mut self, cutoff: u64) -> u64 {
        let below = self.entries.partition_point(|&(s, _)| s < cutoff);
        self.entries.drain(..below);
        below as u64
    }

    /// Moves every key into the set `into` and empties this ring,
    /// returning how many keys moved.
    pub fn move_keys_into(&mut self, into: &mut SeqRing) -> u64 {
        let count = self.entries.len() as u64;
        for (seq, _) in self.entries.drain(..) {
            into.insert(seq, ());
        }
        count
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
            while self.out_of_order.remove(self.cum_recv).is_some() {
                self.cum_recv += 1;
            }
        } else if seq > self.cum_recv {
            self.out_of_order.insert(seq, ());
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
    /// Fresh data appends at the back, the cumulative ACK drains the
    /// front, and a retransmit re-enters near the front.
    pub outstanding: SeqRing<SentMeta>,
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
            outstanding: SeqRing::with_capacity(64),
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
    use std::collections::{BTreeMap, BTreeSet};

    fn flow() -> FlowState {
        FlowState::new(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(10.0)),
        )
    }

    fn keys<V>(ring: &SeqRing<V>) -> Vec<u64> {
        ring.entries.iter().map(|&(k, _)| k).collect()
    }

    enum Op {
        Insert(u64),
        Remove(u64),
        DrainBelow(u64),
        PopFirst,
        MoveKeys,
    }

    /// Draws one operation, its key chosen relative to the ring's current
    /// front and back the way the reliability layer uses a ring: appends
    /// and near-misses at the back, cumulative drains and recovery at the
    /// front, and anywhere in a small key range.
    fn draw(rng: &mut StdRng, ring: &SeqRing<u32>) -> Op {
        let front = ring.entries.front().map_or(0, |&(s, _)| s);
        let back = ring.entries.back().map_or(0, |&(s, _)| s);
        let k = rng.random_range(0..48u64);
        match rng.random_range(0..14u8) {
            0..=3 => Op::Insert(back + k % 4),
            4 => Op::Insert(back.saturating_sub(k % 6)),
            5 => Op::Insert(k),
            6..=7 => Op::Remove(front + k % 3),
            8 => Op::Remove(k),
            9..=10 => Op::DrainBelow(front + k % 5),
            11..=12 => Op::PopFirst,
            _ => Op::MoveKeys,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ring is an ordered map, and its set form an ordered set:
        /// through frontier-biased insert / remove / drain_below /
        /// pop_first / move_keys_into sequences, every return value and
        /// every key (and value) in order match `BTreeMap` and `BTreeSet`.
        #[test]
        fn ring_matches_ordered_map_and_set(seed in 0..u64::MAX, len in 0..160usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ring: SeqRing<u32> = SeqRing::new();
            let mut map: BTreeMap<u64, u32> = BTreeMap::new();
            let mut ring_set = SeqRing::new();
            let mut set = BTreeSet::new();
            for _ in 0..len {
                match draw(&mut rng, &ring) {
                    Op::Insert(k) => {
                        let value = rng.random::<u32>();
                        prop_assert_eq!(ring.insert(k, value), map.insert(k, value).is_none());
                        prop_assert_eq!(ring_set.insert(k, ()), set.insert(k));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(ring.remove(k), map.remove(&k));
                        prop_assert_eq!(ring_set.remove(k).is_some(), set.remove(&k));
                    }
                    Op::DrainBelow(cut) => {
                        let kept = map.split_off(&cut);
                        let below = std::mem::replace(&mut map, kept).len() as u64;
                        prop_assert_eq!(ring.drain_below(cut), below);
                        let kept = set.split_off(&cut);
                        let below = std::mem::replace(&mut set, kept).len() as u64;
                        prop_assert_eq!(ring_set.drain_below(cut), below);
                    }
                    Op::PopFirst => {
                        prop_assert_eq!(ring.pop_first(), map.pop_first());
                        prop_assert_eq!(ring_set.pop_first().map(|(k, ())| k), set.pop_first());
                    }
                    Op::MoveKeys => {
                        let moved = map.len() as u64;
                        set.extend(std::mem::take(&mut map).into_keys());
                        prop_assert_eq!(ring.move_keys_into(&mut ring_set), moved);
                    }
                }
                prop_assert!(ring.entries.iter().copied().eq(map.iter().map(|(&k, &v)| (k, v))));
                prop_assert_eq!(keys(&ring_set), set.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!((ring.len(), ring_set.len()), (map.len(), set.len()));
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
            f.outstanding.insert(
                s,
                SentMeta {
                    sent_at: Time::ZERO,
                    retransmit: false,
                    delivered_at_send: 0,
                },
            );
        }
        assert!(!f.can_send());
    }
}
