//! The discrete-event calendar, sharded per flow and per link.
//!
//! The calendar exploits the structure of a packet-level simulation
//! instead of funnelling every event through one global binary heap:
//!
//! * **Per-flow lanes.** Each flow owns a sorted ring of its pending
//!   ACK-arrival and start/stop events. ACKs are generated in departure
//!   order and arrive one fixed propagation delay later, so without
//!   jitter every insertion is an O(1) append; jitter displaces an entry
//!   by at most a few slots from the tail.
//! * **One retransmit slot per flow.** TCP restarts the RTO on every ACK,
//!   which in a heap-based calendar buries thousands of stale timer
//!   entries (one per ACK, each popped later as a no-op). Only the most
//!   recently armed timer can ever fire, so the calendar keeps exactly one
//!   slot per flow: re-arming overwrites it, disarming cancels it
//!   ([`EventQueue::cancel_rto`]), and the slot is the one record of
//!   whether the timer is live ([`EventQueue::rto_pending`]) — every timer
//!   that pops is live, with no generation counter to check.
//! * **Per-link lanes.** Each link of the topology serializes one packet
//!   at a time, so at most one departure is pending per link, and hop
//!   forwardings toward a link arrive in near-sorted order (a short
//!   sorted lane per link keeps the structure general).
//!
//! The lanes merge through a small top-level ladder: a cached
//! `(time, id)` head per lane, combined by a tournament (winner) tree
//! whose root always names the lane holding the globally earliest event.
//! A head change re-plays one leaf-to-root path (O(log #lanes)); peeking
//! is O(1). Ids are assigned globally in schedule order, so the merged
//! dispatch order is **identical** to the classic global min-heap with
//! FIFO tie-breaks — simulations replay bit-for-bit — while every hot
//! operation is O(1) in the event population.

use std::collections::VecDeque;

use crate::flow::FlowId;
use crate::packet::{Ack, Packet};
use crate::time::Time;
use crate::topology::LinkId;

/// Events processed by the simulator's main loop.
#[derive(Clone, Debug)]
pub enum Event {
    /// The named link finished serializing its head-of-line packet.
    LinkDeparture(LinkId),
    /// `packet` reaches the ingress of `link`, the next hop of its path
    /// (multi-hop topologies only; a dumbbell never forwards).
    HopArrival { link: LinkId, packet: Packet },
    /// An ACK reaches the sender of `flow`.
    AckArrival(Ack),
    /// The retransmission timer for the flow fires. A flow has at most one
    /// pending: scheduling another replaces it, and
    /// [`EventQueue::cancel_rto`] disarms it, so every one that fires is
    /// live.
    RtoTimer(FlowId),
    /// The application on `flow` starts sending.
    FlowStart(FlowId),
    /// The application on `flow` departs: no new data or retransmissions
    /// after this instant (in-flight packets may still be acknowledged).
    FlowStop(FlowId),
}

/// An event with its activation time and a monotone tie-break id.
#[derive(Clone, Debug)]
pub struct ScheduledEvent {
    /// Activation time.
    pub at: Time,
    /// Insertion order, used to break ties deterministically (FIFO).
    pub id: u64,
    /// Payload.
    pub event: Event,
}

/// Ring capacity pre-reserved per flow: enough for a window of in-flight
/// ACKs plus control events without reallocating mid-run.
const EVENTS_PER_FLOW: usize = 64;

/// The "no pending event" ladder entry; compares after every real head.
const IDLE: (Time, u64) = (Time::MAX, u64::MAX);

/// Inserts `entry` into a lane keeping `(time, id)` order, where `time_of`
/// projects an entry's activation time. Ids grow monotonically, so an
/// entry lands at the tail unless jitter reordered activation times, and
/// equal times keep FIFO order.
fn insort_by_time<T>(lane: &mut VecDeque<T>, at: Time, entry: T, time_of: impl Fn(&T) -> Time) {
    let mut idx = lane.len();
    while idx > 0 && time_of(&lane[idx - 1]) > at {
        idx -= 1;
    }
    if idx == lane.len() {
        lane.push_back(entry);
    } else {
        lane.insert(idx, entry);
    }
}

/// One flow's calendar shard: its sorted event lane plus the single
/// retransmit-timer slot.
#[derive(Debug, Default)]
struct FlowShard {
    /// Pending ACK arrivals and start/stop events, sorted by `(time, id)`.
    lane: VecDeque<(Time, u64, Event)>,
    /// The armed retransmission timer, if any: `(time, id)`. Re-arming
    /// overwrites, disarming empties it.
    rto: Option<(Time, u64)>,
}

impl FlowShard {
    fn with_capacity(capacity: usize) -> FlowShard {
        FlowShard {
            lane: VecDeque::with_capacity(capacity),
            rto: None,
        }
    }

    /// The earliest `(time, id)` pending in this shard.
    fn head(&self) -> (Time, u64) {
        let lane = self.lane.front().map_or(IDLE, |&(at, id, _)| (at, id));
        match self.rto {
            Some(rto) if rto < lane => rto,
            _ => lane,
        }
    }

    /// Inserts keeping `(time, id)` order.
    fn insort(&mut self, at: Time, id: u64, event: Event) {
        insort_by_time(&mut self.lane, at, (at, id, event), |e| e.0);
    }
}

/// A deterministic event calendar: per-flow lanes plus per-link lanes,
/// merged by a tournament tree over cached lane heads (min `(time, id)`,
/// FIFO on ties).
#[derive(Debug)]
pub struct EventQueue {
    /// Per-link lanes, indexed by `LinkId`: pending departures (at most
    /// one per link in a real simulation) and inbound hop forwardings,
    /// sorted by `(time, id)`. Fixed at construction — topologies do not
    /// grow mid-run.
    links: Vec<VecDeque<(Time, u64, Event)>>,
    /// Per-flow shards, indexed by `FlowId`.
    shards: Vec<FlowShard>,
    /// The merge ladder: `heads[l]` mirrors link `l`'s lane for
    /// `l < links.len()`, `heads[links.len() + f]` mirrors flow `f`'s
    /// shard. Kept exact on every mutation.
    heads: Vec<(Time, u64)>,
    /// Tournament tree over `heads`: a complete binary tree with
    /// `leaf_base` leaves (`heads` padded with [`IDLE`]); `tree[1]` is the
    /// index of the lane holding the earliest `(time, id)`. `tree[n]` for
    /// internal `n` names the winner among the leaves below `n`.
    tree: Vec<u32>,
    /// Number of leaves (a power of two, `>= heads.len()`).
    leaf_base: usize,
    next_id: u64,
    len: usize,
}

/// The tournament slot for "no lane" (beyond `heads.len()`); its key is
/// [`IDLE`], so it loses every match.
const NO_LANE: u32 = u32::MAX;

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty calendar with a single link lane (the dumbbell
    /// fast path).
    pub fn new() -> EventQueue {
        EventQueue::with_links(1)
    }

    /// Creates an empty calendar with one lane per link of a
    /// `links`-link topology.
    pub fn with_links(links: usize) -> EventQueue {
        assert!(links >= 1, "a calendar needs at least one link lane");
        let mut q = EventQueue {
            links: (0..links).map(|_| VecDeque::with_capacity(2)).collect(),
            shards: Vec::new(),
            heads: vec![IDLE; links],
            tree: Vec::new(),
            leaf_base: 0,
            next_id: 0,
            len: 0,
        };
        q.rebuild_tree();
        q
    }

    /// Number of link lanes.
    fn link_lanes(&self) -> usize {
        self.links.len()
    }

    fn ensure_shards(&mut self, count: usize) {
        if self.shards.len() >= count {
            return;
        }
        while self.shards.len() < count {
            self.shards.push(FlowShard::with_capacity(EVENTS_PER_FLOW));
            self.heads.push(IDLE);
            let lane = self.heads.len() - 1;
            if lane < self.leaf_base {
                // Room in the current tournament: claim the leaf (its key
                // is IDLE, so no path needs re-playing yet).
                self.tree[self.leaf_base + lane] = lane as u32;
            }
        }
        if self.heads.len() > self.leaf_base {
            self.rebuild_tree();
        }
    }

    /// Rebuilds the tournament tree from scratch (lane-count growth only;
    /// steady-state updates re-play single paths).
    fn rebuild_tree(&mut self) {
        let mut leaves = 2usize;
        while leaves < self.heads.len() {
            leaves *= 2;
        }
        self.leaf_base = leaves;
        self.tree = vec![NO_LANE; 2 * leaves];
        for lane in 0..self.heads.len() {
            self.tree[leaves + lane] = lane as u32;
        }
        for n in (1..leaves).rev() {
            self.tree[n] = self.winner(self.tree[2 * n], self.tree[2 * n + 1]);
        }
    }

    #[inline]
    fn key(&self, lane: u32) -> (Time, u64) {
        if lane == NO_LANE {
            IDLE
        } else {
            self.heads[lane as usize]
        }
    }

    #[inline]
    fn winner(&self, a: u32, b: u32) -> u32 {
        if self.key(b) < self.key(a) {
            b
        } else {
            a
        }
    }

    /// Re-plays the tournament path from `lane`'s leaf to the root after
    /// its head changed.
    #[inline]
    fn replay(&mut self, lane: usize) {
        let mut n = (self.leaf_base + lane) / 2;
        while n >= 1 {
            self.tree[n] = self.winner(self.tree[2 * n], self.tree[2 * n + 1]);
            n /= 2;
        }
    }

    fn refresh_shard_head(&mut self, flow: usize) {
        let lane = self.link_lanes() + flow;
        let head = self.shards[flow].head();
        // Most mutations leave the head alone (ACKs append at the back,
        // timer re-arms land behind the next ACK): skip the tournament
        // re-play unless the lane's key actually moved.
        if self.heads[lane] != head {
            self.heads[lane] = head;
            self.replay(lane);
        }
    }

    fn refresh_link_head(&mut self, link: usize) {
        let head = self.links[link]
            .front()
            .map_or(IDLE, |&(at, id, _)| (at, id));
        if self.heads[link] != head {
            self.heads[link] = head;
            self.replay(link);
        }
    }

    /// Schedules `event` at time `at`.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let id = self.next_id;
        self.next_id += 1;
        match event {
            Event::LinkDeparture(link) | Event::HopArrival { link, .. } => {
                let l = link.0;
                assert!(
                    l < self.links.len(),
                    "link {l} outside the calendar's {} lanes",
                    self.links.len()
                );
                insort_by_time(&mut self.links[l], at, (at, id, event), |e| e.0);
                self.refresh_link_head(l);
                self.len += 1;
            }
            Event::RtoTimer(flow) => {
                let f = flow.0;
                self.ensure_shards(f + 1);
                // Overwrite: TCP restarts the timer, so only the newest
                // deadline may fire.
                if self.shards[f].rto.replace((at, id)).is_none() {
                    self.len += 1;
                }
                self.refresh_shard_head(f);
            }
            Event::AckArrival(ref ack) => {
                let f = ack.flow.0;
                self.ensure_shards(f + 1);
                self.shards[f].insort(at, id, event);
                self.len += 1;
                self.refresh_shard_head(f);
            }
            Event::FlowStart(flow) | Event::FlowStop(flow) => {
                let f = flow.0;
                self.ensure_shards(f + 1);
                self.shards[f].insort(at, id, event);
                self.len += 1;
                self.refresh_shard_head(f);
            }
        }
    }

    /// Disarms `flow`'s retransmission timer, if one is pending.
    pub fn cancel_rto(&mut self, flow: FlowId) {
        let f = flow.0;
        if self.shards.get_mut(f).and_then(|s| s.rto.take()).is_some() {
            self.len -= 1;
            self.refresh_shard_head(f);
        }
    }

    /// Whether `flow`'s retransmission timer is pending.
    pub fn rto_pending(&self, flow: FlowId) -> bool {
        self.shards.get(flow.0).is_some_and(|s| s.rto.is_some())
    }

    /// The tournament's current minimum: `(lane index, (time, id))`.
    #[inline]
    fn min_head(&self) -> Option<(usize, (Time, u64))> {
        let lane = self.tree[1];
        let key = self.key(lane);
        if key == IDLE {
            None
        } else {
            Some((lane as usize, key))
        }
    }

    /// The activation time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.min_head().map(|(_, (at, _))| at)
    }

    /// Removes and returns the earliest pending event (FIFO on time ties,
    /// by global schedule order).
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let (lane, (at, id)) = self.min_head()?;
        Some(self.pop_lane(lane, at, id))
    }

    /// Removes and returns the earliest pending event if it activates at
    /// or before `t` — the simulator main loop's peek-and-pop fused into
    /// one tournament lookup.
    pub fn pop_due(&mut self, t: Time) -> Option<ScheduledEvent> {
        let (lane, (at, id)) = self.min_head()?;
        if at > t {
            return None;
        }
        Some(self.pop_lane(lane, at, id))
    }

    fn pop_lane(&mut self, lane: usize, at: Time, id: u64) -> ScheduledEvent {
        self.len -= 1;
        if lane < self.link_lanes() {
            let (_, _, event) = self.links[lane].pop_front().expect("link head exists");
            self.refresh_link_head(lane);
            return ScheduledEvent { at, id, event };
        }
        let f = lane - self.link_lanes();
        let shard = &mut self.shards[f];
        let event = match shard.rto {
            Some(rto) if rto == (at, id) => {
                shard.rto = None;
                Event::RtoTimer(FlowId(f))
            }
            _ => {
                let (_, _, event) = shard.lane.pop_front().expect("lane head exists");
                event
            }
        };
        self.refresh_shard_head(f);
        ScheduledEvent { at, id, event }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the calendar is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(flow: usize, seq: u64) -> Packet {
        Packet {
            flow: FlowId(flow),
            seq,
            size: crate::packet::MSS_BYTES,
            sent_at: Time::ZERO,
            retransmit: false,
            delivered_at_send: 0,
            hop: 0,
            accrued_queue_delay: Time::ZERO,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(5), Event::LinkDeparture(LinkId(0)));
        q.schedule(Time::from_millis(1), Event::LinkDeparture(LinkId(0)));
        q.schedule(Time::from_millis(3), Event::LinkDeparture(LinkId(0)));
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|e| e.at)).collect();
        assert_eq!(
            order,
            vec![
                Time::from_millis(1),
                Time::from_millis(3),
                Time::from_millis(5)
            ]
        );
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(7);
        q.schedule(t, Event::FlowStart(FlowId(0)));
        q.schedule(t, Event::FlowStart(FlowId(1)));
        q.schedule(t, Event::FlowStart(FlowId(2)));
        let mut flows = Vec::new();
        while let Some(e) = q.pop() {
            if let Event::FlowStart(f) = e.event {
                flows.push(f.0);
            }
        }
        assert_eq!(flows, vec![0, 1, 2]);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::ZERO, Event::LinkDeparture(LinkId(0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "outside the calendar")]
    fn scheduling_beyond_link_lanes_panics() {
        let mut q = EventQueue::with_links(2);
        q.schedule(Time::ZERO, Event::LinkDeparture(LinkId(2)));
    }

    #[test]
    fn hop_arrivals_carry_their_packet_through_link_lanes() {
        let mut q = EventQueue::with_links(2);
        q.schedule(
            Time::from_millis(2),
            Event::HopArrival {
                link: LinkId(1),
                packet: packet(3, 41),
            },
        );
        q.schedule(Time::from_millis(1), Event::LinkDeparture(LinkId(1)));
        assert_eq!(q.pop().unwrap().at, Time::from_millis(1));
        match q.pop().unwrap().event {
            Event::HopArrival { link, packet } => {
                assert_eq!(link, LinkId(1));
                assert_eq!((packet.flow, packet.seq), (FlowId(3), 41));
            }
            other => panic!("expected HopArrival, got {other:?}"),
        }
    }

    #[test]
    fn rearming_overwrites_and_cancelling_empties_the_rto_slot() {
        let mut q = EventQueue::new();
        assert!(!q.rto_pending(FlowId(0)));
        q.schedule(Time::from_millis(200), Event::RtoTimer(FlowId(0)));
        // Re-arm earlier: exactly one timer stays, the newest.
        q.schedule(Time::from_millis(150), Event::RtoTimer(FlowId(0)));
        assert_eq!(q.len(), 1);
        assert!(q.rto_pending(FlowId(0)));
        let e = q.pop().unwrap();
        assert_eq!((e.at, e.id), (Time::from_millis(150), 1));
        assert!(matches!(e.event, Event::RtoTimer(FlowId(0))));
        assert!(!q.rto_pending(FlowId(0)));
        assert!(q.pop().is_none());
        // A cancelled timer never fires; cancelling an idle slot (or an
        // unknown flow's) is a no-op.
        q.schedule(Time::from_millis(300), Event::RtoTimer(FlowId(0)));
        q.cancel_rto(FlowId(0));
        q.cancel_rto(FlowId(0));
        q.cancel_rto(FlowId(9));
        assert!(!q.rto_pending(FlowId(0)));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn out_of_order_lane_insertions_sort_by_time_then_id() {
        // Jittered ACKs can land out of order; the lane must re-sort them
        // while keeping FIFO among equal times.
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(9), Event::FlowStop(FlowId(0)));
        q.schedule(Time::from_millis(4), Event::FlowStart(FlowId(0)));
        q.schedule(Time::from_millis(4), Event::FlowStop(FlowId(0)));
        q.schedule(Time::from_millis(6), Event::FlowStart(FlowId(0)));
        let order: Vec<(Time, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.at, e.id))).collect();
        assert_eq!(
            order,
            vec![
                (Time::from_millis(4), 1),
                (Time::from_millis(4), 2),
                (Time::from_millis(6), 3),
                (Time::from_millis(9), 0),
            ]
        );
    }

    /// The sharded calendar must replay the classic global min-heap's
    /// dispatch order exactly — same times, same FIFO tie-breaks — for a
    /// randomized interleaving of every event kind across several flows
    /// and several link lanes (multi-hop topology shape: departures and
    /// hop forwardings spread over three links), with retransmit timers
    /// re-armed and cancelled at random on both sides.
    #[test]
    fn matches_reference_heap_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Simple deterministic LCG so the test needs no RNG dependency.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };

        let mut q = EventQueue::with_links(3);
        let mut reference: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
        let mut pending_rto: [Option<u64>; 4] = [None; 4];
        // The reference heap models slot overwrite and cancellation by
        // discarding the superseded or cancelled timer's key.
        let discard = |reference: &mut BinaryHeap<Reverse<(Time, u64)>>, old: Option<u64>| {
            if let Some(old) = old {
                let mut keep: Vec<Reverse<(Time, u64)>> = reference.drain().collect();
                keep.retain(|Reverse((_, i))| *i != old);
                reference.extend(keep);
            }
        };
        for id in 0..600u64 {
            let at = Time::from_micros(next() % 50_000);
            let flow = FlowId((next() % 4) as usize);
            let link = LinkId((next() % 3) as usize);
            // Cancelling consumes no id: the next event still gets `id`.
            if next() % 4 == 0 {
                let victim = FlowId((next() % 5) as usize);
                discard(
                    &mut reference,
                    pending_rto.get_mut(victim.0).and_then(Option::take),
                );
                q.cancel_rto(victim);
            }
            let event = match next() % 5 {
                0 => Event::LinkDeparture(link),
                1 => Event::HopArrival {
                    link,
                    packet: packet(flow.0, id),
                },
                2 => Event::FlowStart(flow),
                3 => Event::FlowStop(flow),
                _ => Event::RtoTimer(flow),
            };
            if let Event::RtoTimer(flow) = event {
                discard(&mut reference, pending_rto[flow.0].replace(id));
            }
            reference.push(Reverse((at, id)));
            q.schedule(at, event);
            // Dispatch interleaves with scheduling, as in a simulation: a
            // stale lane head left behind by a cancel would surface here.
            if next() % 3 == 0 {
                let Reverse((at, eid)) = reference.pop().expect("just pushed");
                let got = q.pop().expect("calendar has an event");
                assert_eq!((got.at, got.id), (at, eid));
                for pending in pending_rto.iter_mut() {
                    if *pending == Some(eid) {
                        *pending = None;
                    }
                }
            }
            for (f, pending) in pending_rto.iter().enumerate() {
                assert_eq!(q.rto_pending(FlowId(f)), pending.is_some());
            }
        }
        for (f, pending) in pending_rto.iter_mut().enumerate().take(2) {
            discard(&mut reference, pending.take());
            q.cancel_rto(FlowId(f));
        }
        assert_eq!(q.len(), reference.len());
        while let Some(Reverse((at, eid))) = reference.pop() {
            assert_eq!(q.peek_time(), Some(at));
            let got = q.pop().expect("calendar has an event");
            assert_eq!((got.at, got.id), (at, eid));
        }
        assert!(q.is_empty());
    }
}
