//! Per-flow sender and receiver state.
//!
//! The sender implements a compact but faithful TCP-style reliability layer:
//! cumulative + selective acknowledgements, duplicate-ACK fast retransmit,
//! NewReno-style partial-ACK handling during recovery, Karn's rule for RTT
//! sampling, and an RFC 6298 retransmission timer with exponential backoff.
//! Congestion control is delegated to a [`CongestionControl`] kernel.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::cc::CongestionControl;
use crate::stats::{FlowStats, MonitorAccum};
use crate::time::Time;
use crate::topology::LinkId;

/// Identifies a flow within one simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub usize);

/// The default route: the single bottleneck of a dumbbell.
fn dumbbell_path() -> Vec<LinkId> {
    vec![LinkId(0)]
}

/// Static configuration of a flow.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    #[serde(default = "dumbbell_path")]
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
            path: dumbbell_path(),
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

/// An ordered set of sequence numbers over a ring buffer.
///
/// The reliability layer's sets see near-sorted traffic — new losses and
/// out-of-order arrivals cluster at the frontier, recovery drains from
/// the front — so a sorted ring with binary search beats a node-based
/// tree on every hot operation while keeping identical ordered-set
/// semantics (iteration and minimum are in ascending order).
#[derive(Clone, Debug, Default)]
pub struct SeqSet {
    seqs: VecDeque<u64>,
}

impl SeqSet {
    /// An empty set.
    pub fn new() -> SeqSet {
        SeqSet::default()
    }

    /// Number of sequence numbers held.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.seqs.clear();
    }

    /// Removes and returns the smallest element.
    pub fn pop_first(&mut self) -> Option<u64> {
        self.seqs.pop_front()
    }

    /// Inserts `seq`; returns `false` if it was already present.
    #[inline]
    pub fn insert(&mut self, seq: u64) -> bool {
        // Frontier fast path: losses and reorderings are declared in
        // mostly ascending order.
        match self.seqs.back() {
            None => {
                self.seqs.push_back(seq);
                return true;
            }
            Some(&last) if last < seq => {
                self.seqs.push_back(seq);
                return true;
            }
            _ => {}
        }
        match self.seqs.binary_search(&seq) {
            Ok(_) => false,
            Err(idx) => {
                self.seqs.insert(idx, seq);
                true
            }
        }
    }

    /// Removes `seq`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, seq: u64) -> bool {
        // Recovery drains the front: the gap being filled is the minimum.
        match self.seqs.front() {
            None => return false,
            Some(&first) if first == seq => {
                self.seqs.pop_front();
                return true;
            }
            Some(&first) if first > seq => return false,
            _ => {}
        }
        match self.seqs.binary_search(&seq) {
            Ok(idx) => {
                self.seqs.remove(idx);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes every element strictly below `cutoff`.
    pub fn drain_below(&mut self, cutoff: u64) {
        let keep = self.seqs.partition_point(|&s| s < cutoff);
        self.seqs.drain(..keep);
    }
}

/// The send window: outstanding packets keyed by sequence number, sorted
/// ascending over a ring buffer (the ordered-map twin of [`SeqSet`]).
/// Fresh data appends at the back, the cumulative ACK drains the front,
/// and selective ACKs overwhelmingly hit the frontier.
#[derive(Debug, Default)]
pub struct SendWindow {
    entries: VecDeque<(u64, SentMeta)>,
}

impl SendWindow {
    /// An empty window pre-sized for a typical in-flight population.
    pub fn with_capacity(capacity: usize) -> SendWindow {
        SendWindow {
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Number of outstanding packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a sent packet. Fresh data is an O(1) append; a retransmit
    /// re-enters near the front.
    pub fn insert(&mut self, seq: u64, meta: SentMeta) {
        if self.entries.back().is_none_or(|&(last, _)| last < seq) {
            self.entries.push_back((seq, meta));
            return;
        }
        match self.entries.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(idx) => self.entries[idx] = (seq, meta),
            Err(idx) => self.entries.insert(idx, (seq, meta)),
        }
    }

    /// Removes `seq`, returning its metadata if it was outstanding.
    #[inline]
    pub fn remove(&mut self, seq: u64) -> Option<SentMeta> {
        // In-order delivery acknowledges the oldest outstanding packet.
        match self.entries.front() {
            None => return None,
            Some(&(first, meta)) if first == seq => {
                self.entries.pop_front();
                return Some(meta);
            }
            Some(&(first, _)) if first > seq => return None,
            _ => {}
        }
        match self.entries.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(idx) => self.entries.remove(idx).map(|(_, meta)| meta),
            Err(_) => None,
        }
    }

    /// Removes every packet strictly below the cumulative ACK, returning
    /// how many were acknowledged.
    pub fn drain_below(&mut self, cum_ack: u64) -> u64 {
        let keep = self.entries.partition_point(|&(s, _)| s < cum_ack);
        self.entries.drain(..keep);
        keep as u64
    }

    /// Declares every outstanding packet lost: moves all sequence numbers
    /// into `lost` (ascending) and empties the window, returning the count.
    pub fn declare_all_lost(&mut self, lost: &mut SeqSet) -> u64 {
        let count = self.entries.len() as u64;
        for &(seq, _) in &self.entries {
            lost.insert(seq);
        }
        self.entries.clear();
        count
    }
}

/// Receiver-side reassembly state.
#[derive(Debug, Default)]
pub struct Receiver {
    /// Next expected sequence number; everything below has been received.
    pub cum_recv: u64,
    /// Out-of-order packets received above `cum_recv`.
    pub out_of_order: SeqSet,
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
    pub outstanding: SendWindow,
    /// Packets declared lost and awaiting retransmission.
    pub lost_pending: SeqSet,
    /// Duplicate-ACK counter.
    pub dup_acks: u32,
    /// While in fast recovery: recovery completes once `cum_acked` reaches
    /// this sequence number.
    pub recovery_end: Option<u64>,
    /// Total bytes delivered (cumulative + selective), for rate estimation.
    pub delivered_bytes: u64,

    // --- RTT estimation and the retransmission timer (RFC 6298) ---
    /// Smoothed RTT; zero until the first sample.
    pub srtt: Time,
    /// RTT variance estimate.
    pub rttvar: Time,
    /// Current retransmission timeout.
    pub rto: Time,
    /// Consecutive backoffs applied to `rto` since the last new ACK.
    pub rto_backoff: u32,
    /// Generation counter invalidating stale timer events.
    pub rto_generation: u64,
    /// Whether a timer event is currently scheduled.
    pub rto_armed: bool,

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
            outstanding: SendWindow::with_capacity(64),
            lost_pending: SeqSet::new(),
            dup_acks: 0,
            recovery_end: None,
            delivered_bytes: 0,
            srtt: Time::ZERO,
            rttvar: Time::ZERO,
            rto: Time::from_secs(1),
            rto_backoff: 0,
            rto_generation: 0,
            rto_armed: false,
            stats: FlowStats::new(),
            monitor: MonitorAccum::default(),
            receiver: Receiver::default(),
        }
    }

    /// Packets in flight: sent and neither acknowledged nor declared lost.
    pub fn inflight(&self) -> u64 {
        self.outstanding.len() as u64
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

    fn flow() -> FlowState {
        FlowState::new(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(10.0)),
        )
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
