//! The discrete-event calendar, sharded per link and per flow.
//!
//! The calendar exploits the structure of a packet-level simulation
//! instead of funnelling every event through one global binary heap. It
//! keeps one **shard** per link and one per flow, each a short sorted lane
//! plus one slot:
//!
//! * **Link shards.** A link serializes one packet at a time and starts
//!   the next only after the current one departs, so at most one
//!   departure is pending per link: it lives in the link's slot
//!   (scheduling a second is a caller bug and panics). The lane holds
//!   only hop forwardings toward the link, which arrive in near-sorted
//!   order.
//! * **Flow shards.** The lane holds the flow's pending ACK-arrival and
//!   start/stop events. ACKs are generated in departure order and arrive
//!   one fixed propagation delay later, so without jitter every insertion
//!   is an O(1) append; jitter displaces an entry by at most a few slots
//!   from the tail. The slot is the retransmit timer: TCP restarts the
//!   RTO on every ACK, which in a heap-based calendar buries thousands of
//!   stale timer entries. Only the most recently armed timer can ever
//!   fire, so re-arming overwrites the slot, disarming empties it
//!   ([`EventQueue::cancel_rto`]), and the slot is the one record of
//!   whether the timer is live ([`EventQueue::rto_pending`]) — every
//!   timer that pops is live, with no generation counter to check.
//!
//! The shards merge through a tournament (winner) tree over one packed
//! `u128` head key per shard, `(time << 64) | id`, padded with the idle
//! key to a power of two, so every match is one branch-free integer
//! compare. A head change re-plays one leaf-to-root path
//! (O(log #shards)). The popped shard's re-play is deferred to the next
//! lookup, so the event its dispatch schedules back into the same shard
//! (the next departure, the re-armed RTO) shares that one re-play. Ids
//! are assigned globally in schedule order, so the merged dispatch order
//! is **identical** to the classic global min-heap with FIFO tie-breaks —
//! simulations replay bit-for-bit — while every hot operation is O(1) in
//! the event population.

use std::collections::VecDeque;
use std::hint::select_unpredictable;

use crate::flow::FlowId;
use crate::packet::{Ack, Packet};
use crate::time::Time;
use crate::topology::LinkId;

/// Events processed by the simulator's main loop.
#[derive(Clone, Debug)]
pub enum Event {
    /// The named link finished serializing its head-of-line packet. A
    /// link has at most one pending.
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

/// Lane capacity pre-reserved per flow: enough for a window of in-flight
/// ACKs plus control events without reallocating mid-run.
const EVENTS_PER_FLOW: usize = 64;

/// The key of "no pending event"; compares after every real one.
const IDLE: u128 = u128::MAX;

/// Packs `(time, id)` into one key whose integer order is the
/// lexicographic one.
#[inline]
fn pack(at: Time, id: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(id)
}

/// The activation time packed into `key`.
#[inline]
fn time_of(key: u128) -> Time {
    Time::from_nanos((key >> 64) as u64)
}

/// One link's or one flow's calendar shard.
#[derive(Debug)]
struct Shard {
    /// Pending hop arrivals (link) or ACK and start/stop events (flow),
    /// sorted by key.
    lane: VecDeque<(u128, Event)>,
    /// The one pending departure (link) or armed retransmission timer
    /// (flow), if any.
    slot: Option<u128>,
}

impl Shard {
    fn with_capacity(capacity: usize) -> Shard {
        Shard {
            lane: VecDeque::with_capacity(capacity),
            slot: None,
        }
    }

    /// The earliest key pending in this shard.
    #[inline]
    fn head(&self) -> u128 {
        let lane = self.lane.front().map_or(IDLE, |e| e.0);
        lane.min(self.slot.unwrap_or(IDLE))
    }

    /// Inserts keeping key order. Ids grow monotonically, so an entry
    /// lands at the tail unless jitter reordered activation times, and
    /// equal times keep FIFO order.
    fn insort(&mut self, key: u128, event: Event) {
        let mut idx = self.lane.len();
        while idx > 0 && self.lane[idx - 1].0 > key {
            idx -= 1;
        }
        self.lane.insert(idx, (key, event));
    }
}

/// A deterministic event calendar: per-link and per-flow shards merged by
/// a tournament tree over their head keys (min `(time, id)`, FIFO on
/// ties).
#[derive(Debug)]
pub struct EventQueue {
    /// Shard `l < links` is link `l`'s, shard `links + f` flow `f`'s. The
    /// link shards are fixed at construction — topologies do not grow
    /// mid-run.
    shards: Vec<Shard>,
    links: usize,
    /// `heads[s]` mirrors shard `s`'s head key, padded with [`IDLE`] to
    /// `leaf_base` entries. Exact on every mutation.
    heads: Vec<u128>,
    /// Tournament tree over `heads`: a complete binary tree with
    /// `leaf_base` leaves; `tree[1]` is the shard holding the earliest key,
    /// and `tree[n]` for internal `n` the winner among the leaves below.
    tree: Vec<u32>,
    /// Number of leaves (a power of two, `>= shards.len()`).
    leaf_base: usize,
    /// The shard popped last, whose path has not been re-played since:
    /// every tree node off that path is exact.
    stale: Option<usize>,
    next_id: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty calendar with a single link shard (the dumbbell
    /// fast path).
    pub fn new() -> EventQueue {
        EventQueue::with_links(1)
    }

    /// Creates an empty calendar with one shard per link of a
    /// `links`-link topology.
    pub fn with_links(links: usize) -> EventQueue {
        assert!(links >= 1, "a calendar needs at least one link lane");
        let mut q = EventQueue {
            shards: (0..links).map(|_| Shard::with_capacity(2)).collect(),
            links,
            heads: Vec::new(),
            tree: Vec::new(),
            leaf_base: 0,
            stale: None,
            next_id: 0,
            len: 0,
        };
        q.rebuild_tree();
        q
    }

    /// The shard of `flow`, created (with its leaf) on first use.
    fn flow_shard(&mut self, flow: FlowId) -> usize {
        let shard = self.links + flow.0;
        if shard >= self.shards.len() {
            self.shards
                .resize_with(shard + 1, || Shard::with_capacity(EVENTS_PER_FLOW));
            // New shards are idle, so a tree with room for them is exact.
            if self.shards.len() > self.leaf_base {
                self.rebuild_tree();
            }
        }
        shard
    }

    /// Rebuilds the tournament tree from scratch (shard-count growth only;
    /// steady-state updates re-play single paths).
    fn rebuild_tree(&mut self) {
        let leaves = self.shards.len().next_power_of_two().max(2);
        self.leaf_base = leaves;
        self.heads.resize(leaves, IDLE);
        self.tree = vec![0; leaves];
        self.tree.extend(0..leaves as u32);
        for n in (1..leaves).rev() {
            self.tree[n] = self.winner(self.tree[2 * n], self.tree[2 * n + 1]);
        }
        self.stale = None;
    }

    #[inline]
    fn winner(&self, a: u32, b: u32) -> u32 {
        select_unpredictable(self.heads[b as usize] < self.heads[a as usize], b, a)
    }

    /// Re-plays the tournament path from `shard`'s leaf to the root.
    #[inline]
    fn replay(&mut self, shard: usize) {
        let mut n = (self.leaf_base + shard) / 2;
        while n >= 1 {
            self.tree[n] = self.winner(self.tree[2 * n], self.tree[2 * n + 1]);
            n /= 2;
        }
    }

    /// Re-syncs `shard`'s head key after a mutation. Most mutations leave
    /// the head alone (ACKs append at the back, timer re-arms land behind
    /// the next ACK), and the stale shard's path is re-played by the next
    /// lookup anyway: only a moved head of another shard re-plays now.
    #[inline]
    fn refresh(&mut self, shard: usize) {
        let head = self.shards[shard].head();
        if self.heads[shard] != head {
            self.heads[shard] = head;
            if self.stale != Some(shard) {
                self.replay(shard);
            }
        }
    }

    /// Schedules `event` at time `at`. Panics when a departure is already
    /// pending on the same link.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let key = pack(at, self.next_id);
        self.next_id += 1;
        self.len += 1;
        let shard = match event {
            Event::LinkDeparture(LinkId(l))
            | Event::HopArrival {
                link: LinkId(l), ..
            } => {
                assert!(
                    l < self.links,
                    "link {l} outside the calendar's {} lanes",
                    self.links
                );
                l
            }
            Event::AckArrival(Ack { flow, .. })
            | Event::RtoTimer(flow)
            | Event::FlowStart(flow)
            | Event::FlowStop(flow) => self.flow_shard(flow),
        };
        let s = &mut self.shards[shard];
        match event {
            Event::LinkDeparture(_) => {
                let pending = s.slot.replace(key);
                assert!(
                    pending.is_none(),
                    "a departure is already pending on link {shard}"
                );
            }
            // Overwrite: TCP restarts the timer, so only the newest
            // deadline may fire.
            Event::RtoTimer(_) => {
                if s.slot.replace(key).is_some() {
                    self.len -= 1;
                }
            }
            _ => s.insort(key, event),
        }
        self.refresh(shard);
    }

    /// Disarms `flow`'s retransmission timer, if one is pending.
    pub fn cancel_rto(&mut self, flow: FlowId) {
        let shard = self.links + flow.0;
        if self
            .shards
            .get_mut(shard)
            .and_then(|s| s.slot.take())
            .is_some()
        {
            self.len -= 1;
            self.refresh(shard);
        }
    }

    /// Whether `flow`'s retransmission timer is pending.
    pub fn rto_pending(&self, flow: FlowId) -> bool {
        self.shards
            .get(self.links + flow.0)
            .is_some_and(|s| s.slot.is_some())
    }

    /// The tournament's current minimum, `(shard, key)`, after re-playing
    /// the stale path.
    #[inline]
    fn min_head(&mut self) -> Option<(usize, u128)> {
        if let Some(stale) = self.stale.take() {
            self.replay(stale);
        }
        let shard = self.tree[1] as usize;
        let key = self.heads[shard];
        (key != IDLE).then_some((shard, key))
    }

    /// The activation time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.min_head().map(|(_, key)| time_of(key))
    }

    /// Removes and returns the earliest pending event (FIFO on time ties,
    /// by global schedule order).
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.pop_due(Time::MAX)
    }

    /// Removes and returns the earliest pending event if it activates at
    /// or before `t` — the simulator main loop's peek-and-pop fused into
    /// one tournament lookup.
    pub fn pop_due(&mut self, t: Time) -> Option<ScheduledEvent> {
        let (shard, key) = self.min_head()?;
        let at = time_of(key);
        if at > t {
            return None;
        }
        self.len -= 1;
        let s = &mut self.shards[shard];
        let event = if s.slot == Some(key) {
            s.slot = None;
            match shard.checked_sub(self.links) {
                None => Event::LinkDeparture(LinkId(shard)),
                Some(f) => Event::RtoTimer(FlowId(f)),
            }
        } else {
            s.lane.pop_front().expect("the head is in the lane").1
        };
        self.heads[shard] = s.head();
        self.stale = Some(shard);
        Some(ScheduledEvent {
            at,
            id: key as u64,
            event,
        })
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
        let mut q = EventQueue::with_links(3);
        q.schedule(Time::from_millis(5), Event::LinkDeparture(LinkId(0)));
        q.schedule(Time::from_millis(1), Event::LinkDeparture(LinkId(1)));
        q.schedule(Time::from_millis(3), Event::LinkDeparture(LinkId(2)));
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
    #[should_panic(expected = "already pending on link 1")]
    fn a_second_pending_departure_on_one_link_panics() {
        let mut q = EventQueue::with_links(2);
        q.schedule(Time::from_millis(1), Event::LinkDeparture(LinkId(1)));
        q.schedule(Time::from_millis(2), Event::LinkDeparture(LinkId(0)));
        q.schedule(Time::from_millis(3), Event::LinkDeparture(LinkId(1)));
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
        let e = q.pop().unwrap();
        assert_eq!(e.at, Time::from_millis(1));
        assert!(matches!(e.event, Event::LinkDeparture(LinkId(1))));
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
    /// and several links (multi-hop topology shape: hop forwardings spread
    /// over three links, each with at most one departure pending, as the
    /// simulator schedules them), with retransmit timers re-armed and
    /// cancelled at random on both sides.
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
        let mut pending_departure: [Option<u64>; 3] = [None; 3];
        // The reference heap models slot overwrite and cancellation by
        // discarding the superseded or cancelled timer's key.
        let discard = |reference: &mut BinaryHeap<Reverse<(Time, u64)>>, old: Option<u64>| {
            if let Some(old) = old {
                let mut keep: Vec<Reverse<(Time, u64)>> = reference.drain().collect();
                keep.retain(|Reverse((_, i))| *i != old);
                reference.extend(keep);
            }
        };
        let mut id = 0u64;
        while id < 600 {
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
                0 | 1 if pending_departure[link.0].is_none() => Event::LinkDeparture(link),
                0 | 1 => Event::HopArrival {
                    link,
                    packet: packet(flow.0, id),
                },
                2 => Event::FlowStart(flow),
                3 => Event::FlowStop(flow),
                _ => Event::RtoTimer(flow),
            };
            match event {
                Event::RtoTimer(flow) => {
                    discard(&mut reference, pending_rto[flow.0].replace(id));
                }
                Event::LinkDeparture(link) => pending_departure[link.0] = Some(id),
                _ => {}
            }
            reference.push(Reverse((at, id)));
            q.schedule(at, event);
            id += 1;
            // Dispatch interleaves with scheduling, as in a simulation: a
            // stale lane head left behind by a cancel would surface here.
            if next() % 3 == 0 {
                let Reverse((at, eid)) = reference.pop().expect("just pushed");
                let got = q.pop().expect("calendar has an event");
                assert_eq!((got.at, got.id), (at, eid));
                for pending in pending_rto.iter_mut().chain(&mut pending_departure) {
                    if *pending == Some(eid) {
                        *pending = None;
                    }
                }
                // Like the simulator, often schedule straight back into
                // the shard just popped — the next departure of a link,
                // the re-armed timer of a flow — before the next lookup.
                let back = match got.event {
                    Event::LinkDeparture(l) if next() % 2 == 0 => {
                        pending_departure[l.0] = Some(id);
                        Some(got.event)
                    }
                    Event::RtoTimer(f) if next() % 2 == 0 => {
                        pending_rto[f.0] = Some(id);
                        Some(got.event)
                    }
                    _ => None,
                };
                if let Some(event) = back {
                    let later = got.at + Time::from_micros(next() % 2_000);
                    reference.push(Reverse((later, id)));
                    q.schedule(later, event);
                    id += 1;
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
