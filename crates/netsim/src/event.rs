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
//! Every event carries a packed `u128` key, `(time << 64) | id`, whose
//! integer order is the lexicographic `(time, id)` one; ids are assigned
//! globally in schedule order. The shards merge through a tournament
//! (winner) tree with one leaf per shard, padded with idle leaves to a
//! power of two. A tree node is 16 bytes and holds its winner **by
//! value**: the winning head's activation time and the winning leaf, so a
//! match compares two times already in hand, with no index to chase. The
//! id half of each leaf's head lives apart, in a per-leaf array that a
//! match reads only when both times are equal — so the merged order is
//! still exactly `(time, id)`, FIFO among equal times. An idle leaf holds
//! the time and the id `u64::MAX`, and loses every match against a
//! pending head.
//!
//! A head change re-plays one leaf-to-root path (O(log #shards)) and
//! returns the root it computed. The popped shard's re-play is deferred to
//! the next lookup, so the event its dispatch schedules back into the same
//! shard (the next departure, the re-armed RTO) shares that one re-play.
//! The merged dispatch order is **identical** to the classic global
//! min-heap with FIFO tie-breaks — simulations replay bit-for-bit — while
//! every hot operation is O(1) in the event population.

use std::collections::VecDeque;
use std::hint::select_unpredictable;

use crate::flow::FlowId;
use crate::packet::{Ack, Packet};
use crate::time::Time;
use crate::topology::LinkId;

/// Events processed by the simulator's main loop.
#[derive(Clone, Debug)]
pub(crate) enum Event {
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

/// An event with its activation time (and, for the calendar's tests, the
/// monotone id that broke its ties).
#[derive(Clone, Debug)]
pub(crate) struct ScheduledEvent {
    /// Activation time.
    pub at: Time,
    /// Insertion order, used to break ties deterministically (FIFO).
    #[cfg(test)]
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
fn pack(at: u64, id: u64) -> u128 {
    (u128::from(at) << 64) | u128::from(id)
}

/// Splits a key into its `(time, id)` halves, in nanoseconds.
#[inline]
fn unpack(key: u128) -> (u64, u64) {
    ((key >> 64) as u64, key as u64)
}

/// A tournament node: the head time of the leaf that wins below it, and
/// that leaf.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Activation time in nanoseconds; `u64::MAX` for an idle leaf.
    at: u64,
    /// The winning leaf, which is its shard's index.
    leaf: usize,
}

/// One link's or one flow's calendar shard.
#[derive(Debug)]
struct Shard {
    /// Pending hop arrivals (link) or ACK and start/stop events (flow),
    /// sorted by key.
    lane: VecDeque<(u128, Event)>,
    /// The key of the one pending departure (link) or armed
    /// retransmission timer (flow); [`IDLE`] when there is none.
    slot: u128,
}

impl Shard {
    fn with_capacity(capacity: usize) -> Shard {
        Shard {
            lane: VecDeque::with_capacity(capacity),
            slot: IDLE,
        }
    }

    /// The earliest key pending in this shard.
    #[inline]
    fn head(&self) -> u128 {
        self.lane.front().map_or(IDLE, |e| e.0).min(self.slot)
    }

    /// Inserts keeping key order. Ids grow monotonically, so an entry
    /// lands at the tail — an append — unless jitter reordered activation
    /// times, and equal times keep FIFO order.
    #[inline]
    fn insort(&mut self, key: u128, event: Event) {
        if self.lane.back().is_none_or(|e| e.0 < key) {
            self.lane.push_back((key, event));
            return;
        }
        let mut idx = self.lane.len() - 1;
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
pub(crate) struct EventQueue {
    /// Shard `l < links` is link `l`'s, shard `links + f` flow `f`'s. The
    /// link shards are fixed at construction — topologies do not grow
    /// mid-run.
    shards: Vec<Shard>,
    links: usize,
    /// The tournament tree, a complete binary tree of `leaf_base` leaves:
    /// `tree[leaf_base + s]` is shard `s`'s leaf, `tree[n]` for
    /// `1 <= n < leaf_base` the winner among the leaves below `n`, and
    /// `tree[1]` the earliest head of all. Leaves are exact on every
    /// mutation; internal nodes off the stale path too.
    tree: Vec<Node>,
    /// `ids[s]` is the id half of shard `s`'s head key (`u64::MAX` when
    /// idle), read only to break a tie between equal times.
    ids: Vec<u64>,
    /// Number of leaves (a power of two, `>= shards.len()`).
    leaf_base: usize,
    /// The shard popped last, whose path has not been re-played since:
    /// every tree node off that path is exact.
    stale: Option<usize>,
    next_id: u64,
}

impl EventQueue {
    /// Creates an empty calendar with one shard per link of a
    /// `links`-link topology.
    pub(crate) fn with_links(links: usize) -> EventQueue {
        assert!(links >= 1, "a calendar needs at least one link lane");
        let mut q = EventQueue {
            shards: (0..links).map(|_| Shard::with_capacity(2)).collect(),
            links,
            tree: Vec::new(),
            ids: Vec::new(),
            leaf_base: 0,
            stale: None,
            next_id: 0,
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

    /// Rebuilds the tournament tree from every shard's head (shard-count
    /// growth only; steady-state updates re-play single paths).
    fn rebuild_tree(&mut self) {
        let leaves = self.shards.len().next_power_of_two().max(2);
        self.leaf_base = leaves;
        self.ids = vec![u64::MAX; leaves];
        self.tree = vec![Node { at: 0, leaf: 0 }; leaves];
        self.tree
            .extend((0..leaves).map(|leaf| Node { at: u64::MAX, leaf }));
        for (s, shard) in self.shards.iter().enumerate() {
            (self.tree[leaves + s].at, self.ids[s]) = unpack(shard.head());
        }
        for n in (1..leaves).rev() {
            self.tree[n] = self.play(self.tree[2 * n], self.tree[2 * n + 1]);
        }
        self.stale = None;
    }

    /// The winner of one match: the earlier time, and on equal times the
    /// earlier id.
    #[inline]
    fn play(&self, a: Node, b: Node) -> Node {
        let b_wins = if a.at == b.at {
            self.ids[b.leaf] < self.ids[a.leaf]
        } else {
            b.at < a.at
        };
        select_unpredictable(b_wins, b, a)
    }

    /// Re-plays the tournament path from `shard`'s leaf to the root and
    /// returns the root.
    #[inline]
    fn replay(&mut self, shard: usize) -> Node {
        let mut n = self.leaf_base + shard;
        let mut winner = self.tree[n];
        while n > 1 {
            winner = self.play(winner, self.tree[n ^ 1]);
            n /= 2;
            self.tree[n] = winner;
        }
        winner
    }

    /// Stores `shard`'s head key in its leaf and its id.
    #[inline]
    fn set_leaf(&mut self, shard: usize, key: u128) {
        (self.tree[self.leaf_base + shard].at, self.ids[shard]) = unpack(key);
    }

    /// The key at `shard`'s leaf: its head, exact on every mutation.
    #[inline]
    fn leaf_key(&self, shard: usize) -> u128 {
        pack(self.tree[self.leaf_base + shard].at, self.ids[shard])
    }

    /// Stores `shard`'s new head key `head` and re-plays its path — unless
    /// the shard is the stale one, whose path the next lookup re-plays
    /// anyway.
    #[inline]
    fn move_head(&mut self, shard: usize, head: u128) {
        self.set_leaf(shard, head);
        if self.stale != Some(shard) {
            self.replay(shard);
        }
    }

    /// Re-syncs `shard`'s leaf after its head key left the shard.
    #[inline]
    fn refresh(&mut self, shard: usize) {
        let head = self.shards[shard].head();
        self.move_head(shard, head);
    }

    /// Schedules `event` at time `at`. Panics when a departure is already
    /// pending on the same link.
    ///
    /// The new key's id is the largest yet, so it becomes its shard's head
    /// exactly when its time is earlier than the head's; only a timer
    /// re-arm that overwrites the head itself re-reads the shard. Most
    /// calls move no head (ACKs append at the back, a re-armed timer lands
    /// behind the next ACK, and the next departure goes to the stale shard
    /// just popped) and re-play nothing.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: Event) {
        let key = pack(at.as_nanos(), self.next_id);
        self.next_id += 1;
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
        let head = self.leaf_key(shard);
        let s = &mut self.shards[shard];
        match event {
            Event::LinkDeparture(_) => {
                assert!(
                    s.slot == IDLE,
                    "a departure is already pending on link {shard}"
                );
                s.slot = key;
            }
            // Overwrite: TCP restarts the timer, so only the newest
            // deadline may fire.
            Event::RtoTimer(_) => {
                if std::mem::replace(&mut s.slot, key) == head {
                    self.refresh(shard);
                    return;
                }
            }
            _ => s.insort(key, event),
        }
        if key < head {
            self.move_head(shard, key);
        }
    }

    /// Disarms `flow`'s retransmission timer, if one is pending.
    pub(crate) fn cancel_rto(&mut self, flow: FlowId) {
        let shard = self.links + flow.0;
        if let Some(s) = self.shards.get_mut(shard) {
            let slot = std::mem::replace(&mut s.slot, IDLE);
            if slot != IDLE && slot == self.leaf_key(shard) {
                self.refresh(shard);
            }
        }
    }

    /// Whether `flow`'s retransmission timer is pending.
    pub(crate) fn rto_pending(&self, flow: FlowId) -> bool {
        self.shards
            .get(self.links + flow.0)
            .is_some_and(|s| s.slot != IDLE)
    }

    /// The tournament's current minimum, after re-playing the stale path.
    #[inline]
    fn root(&mut self) -> Node {
        match self.stale.take() {
            Some(stale) => self.replay(stale),
            None => self.tree[1],
        }
    }

    /// Removes and returns the earliest pending event if it activates at
    /// or before `t` — the simulator main loop's peek-and-pop fused into
    /// one tournament lookup.
    pub(crate) fn pop_due(&mut self, t: Time) -> Option<ScheduledEvent> {
        let Node { at, leaf: shard } = self.root();
        if at > t.as_nanos() {
            return None;
        }
        let key = self.leaf_key(shard);
        if key == IDLE {
            return None;
        }
        let s = &mut self.shards[shard];
        let event = if s.slot == key {
            s.slot = IDLE;
            match shard.checked_sub(self.links) {
                None => Event::LinkDeparture(LinkId(shard)),
                Some(f) => Event::RtoTimer(FlowId(f)),
            }
        } else {
            // The root is this shard's head, and a head that is not the
            // slot's key is the lane's front.
            s.lane.pop_front().expect("the head is in the lane").1
        };
        let head = s.head();
        self.set_leaf(shard, head);
        self.stale = Some(shard);
        Some(ScheduledEvent {
            at: Time::from_nanos(at),
            #[cfg(test)]
            id: key as u64,
            event,
        })
    }
}

/// What the calendar's own tests use; the simulator builds it with
/// [`EventQueue::with_links`] and drains it with [`EventQueue::pop_due`].
#[cfg(test)]
impl EventQueue {
    /// An empty calendar with a single link shard (a dumbbell's).
    fn new() -> EventQueue {
        EventQueue::with_links(1)
    }

    /// The activation time of the earliest pending event.
    fn peek_time(&mut self) -> Option<Time> {
        let Node { at, leaf } = self.root();
        (self.leaf_key(leaf) != IDLE).then_some(Time::from_nanos(at))
    }

    /// Removes and returns the earliest pending event (FIFO on time ties,
    /// by global schedule order).
    fn pop(&mut self) -> Option<ScheduledEvent> {
        self.pop_due(Time::MAX)
    }

    /// Number of pending events.
    fn len(&self) -> usize {
        let pending = |s: &Shard| s.lane.len() + usize::from(s.slot != IDLE);
        self.shards.iter().map(pending).sum()
    }

    /// Whether the calendar is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(flow: usize, seq: u64) -> Packet {
        Packet {
            flow: FlowId(flow),
            seq,
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
    /// cancelled at random on both sides. Half the times fall on a coarse
    /// grid, so equal times across shards are common and the id tie-break
    /// decides; flows join as the run goes on, so the calendar grows and
    /// rebuilds its tree mid-run, with events pending and a stale path.
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
        let mut pending_rto: [Option<u64>; 16] = [None; 16];
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
        let mut ties = 0;
        let mut last_pop = None;
        while id < 1_500 {
            let at = if next() % 2 == 0 {
                Time::from_millis(next() % 50)
            } else {
                Time::from_micros(next() % 50_000)
            };
            // Two flows at first, one more every hundred events.
            let flows = (2 + id / 100).min(16);
            let flow = FlowId((next() % flows) as usize);
            let link = LinkId((next() % 3) as usize);
            // Cancelling consumes no id: the next event still gets `id`.
            if next() % 4 == 0 {
                let victim = FlowId((next() % (flows + 1)) as usize);
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
                ties += usize::from(last_pop.replace(at) == Some(at));
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
            ties += usize::from(last_pop.replace(at) == Some(at));
        }
        assert!(q.is_empty());
        // 3 links and 16 flows: the tree grew from 8 leaves to 32.
        assert_eq!(q.leaf_base, 32);
        assert!(ties > 100, "only {ties} equal-time pops");
    }
}
