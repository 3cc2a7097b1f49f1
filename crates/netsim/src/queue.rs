//! Droptail bottleneck queue.

use std::collections::VecDeque;

use crate::packet::{Packet, MSS_BYTES};
use crate::time::Time;

/// A packet sitting in the bottleneck queue, together with its arrival time
/// (so queueing delay can be measured exactly at dequeue).
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueuedPacket {
    /// The packet itself.
    pub packet: Packet,
    /// When it entered the queue.
    pub enqueued_at: Time,
}

/// A FIFO droptail queue with a byte-capacity limit. Every packet is one
/// [`MSS_BYTES`] payload, so byte accounting counts packets of that size.
///
/// The packet currently in service remains in the queue until its
/// transmission completes, which matches how a physical interface buffer
/// holds the frame being serialized.
#[derive(Debug)]
pub struct DropTailQueue {
    capacity_bytes: u64,
    queue: VecDeque<QueuedPacket>,
    bytes: u64,
    /// Total packets dropped since creation.
    drops: u64,
    /// Running peak occupancy in bytes (for diagnostics).
    peak_bytes: u64,
    /// Time-integral of byte occupancy (byte·nanoseconds) up to
    /// `last_change`; together they yield exact mean occupancy.
    occupancy_integral: u128,
    /// When the occupancy last changed.
    last_change: Time,
}

impl DropTailQueue {
    /// Creates a queue holding at most `capacity_bytes` bytes.
    ///
    /// A capacity of zero is clamped to one MSS so that at least one packet
    /// can ever be in flight.
    pub fn new(capacity_bytes: u64) -> DropTailQueue {
        DropTailQueue {
            capacity_bytes: capacity_bytes.max(u64::from(MSS_BYTES)),
            queue: VecDeque::new(),
            bytes: 0,
            drops: 0,
            peak_bytes: 0,
            occupancy_integral: 0,
            last_change: Time::ZERO,
        }
    }

    /// Accrues the occupancy integral up to `now`.
    fn accrue(&mut self, now: Time) {
        let dt = now.saturating_sub(self.last_change);
        self.occupancy_integral += self.bytes as u128 * dt.as_nanos() as u128;
        self.last_change = self.last_change.max(now);
    }

    /// Attempts to enqueue; returns `true` on success, `false` if the packet
    /// was dropped (tail drop).
    pub(crate) fn enqueue(&mut self, packet: Packet, now: Time) -> bool {
        let size = u64::from(MSS_BYTES);
        if self.bytes + size > self.capacity_bytes {
            self.drops += 1;
            return false;
        }
        self.accrue(now);
        self.bytes += size;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.queue.push_back(QueuedPacket {
            packet,
            enqueued_at: now,
        });
        true
    }

    /// Removes and returns the head-of-line packet, if any.
    pub(crate) fn dequeue(&mut self, now: Time) -> Option<QueuedPacket> {
        if self.queue.front().is_some() {
            self.accrue(now);
        }
        let qp = self.queue.pop_front()?;
        self.bytes -= u64::from(MSS_BYTES);
        Some(qp)
    }

    /// Current occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Current occupancy in packets.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Packets dropped since creation.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Peak byte occupancy observed since creation.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Exact time-averaged occupancy in bytes over `[0, now]`.
    pub fn mean_bytes(&self, now: Time) -> f64 {
        if now == Time::ZERO {
            return self.bytes as f64;
        }
        let tail = now.saturating_sub(self.last_change);
        let integral = self.occupancy_integral + self.bytes as u128 * tail.as_nanos() as u128;
        integral as f64 / now.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;

    fn pkt(seq: u64) -> Packet {
        Packet {
            flow: FlowId(0),
            seq,
            sent_at: Time::ZERO,
            retransmit: false,
            delivered_at_send: 0,
            hop: 0,
            accrued_queue_delay: Time::ZERO,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(10 * MSS_BYTES as u64);
        for s in 0..5 {
            assert!(q.enqueue(pkt(s), Time::from_millis(s)));
        }
        for s in 0..5 {
            let qp = q.dequeue(Time::from_millis(10)).unwrap();
            assert_eq!(qp.packet.seq, s);
            assert_eq!(qp.enqueued_at, Time::from_millis(s));
        }
        assert!(q.dequeue(Time::from_millis(10)).is_none());
    }

    #[test]
    fn tail_drop_when_full() {
        let mut q = DropTailQueue::new(2 * MSS_BYTES as u64);
        assert!(q.enqueue(pkt(0), Time::ZERO));
        assert!(q.enqueue(pkt(1), Time::ZERO));
        assert!(!q.enqueue(pkt(2), Time::ZERO));
        assert_eq!(q.drops(), 1);
        assert_eq!(q.len(), 2);
        // Draining frees space again.
        q.dequeue(Time::ZERO);
        assert!(q.enqueue(pkt(3), Time::ZERO));
    }

    #[test]
    fn byte_accounting() {
        let mut q = DropTailQueue::new(10 * MSS_BYTES as u64);
        q.enqueue(pkt(0), Time::ZERO);
        q.enqueue(pkt(1), Time::ZERO);
        assert_eq!(q.bytes(), 2 * MSS_BYTES as u64);
        q.dequeue(Time::ZERO);
        assert_eq!(q.bytes(), MSS_BYTES as u64);
        assert_eq!(q.peak_bytes(), 2 * MSS_BYTES as u64);
    }

    #[test]
    fn mean_occupancy_is_exact_time_average() {
        let mss = MSS_BYTES as u64;
        let mut q = DropTailQueue::new(10 * mss);
        // Empty for 1 ms, one packet for 1 ms, two for 2 ms, one for 4 ms.
        q.enqueue(pkt(0), Time::from_millis(1));
        q.enqueue(pkt(1), Time::from_millis(2));
        q.dequeue(Time::from_millis(4));
        let now = Time::from_millis(8);
        let expect = (mss as f64 * 1.0 + 2.0 * mss as f64 * 2.0 + mss as f64 * 4.0) / 8.0;
        assert!((q.mean_bytes(now) - expect).abs() < 1e-9);
        // Before any event the mean is the (zero) instantaneous occupancy.
        assert_eq!(DropTailQueue::new(mss).mean_bytes(Time::ZERO), 0.0);
    }

    #[test]
    fn zero_capacity_clamps_to_one_mss() {
        let mut q = DropTailQueue::new(0);
        assert!(q.enqueue(pkt(0), Time::ZERO));
        assert!(!q.enqueue(pkt(1), Time::ZERO));
    }
}
