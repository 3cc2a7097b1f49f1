//! Packet types exchanged between sender, bottleneck, and receiver.

use crate::flow::FlowId;
use crate::time::Time;

/// Maximum segment size used by all flows, in bytes (Ethernet MTU minus
/// IP/TCP headers, matching Mahimahi's default packetization).
pub const MSS_BYTES: u32 = 1448;

/// A data packet travelling sender → receiver.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Sequence number, in packets (not bytes).
    pub seq: u64,
    /// Payload size in bytes.
    pub size: u32,
    /// When the sender transmitted this copy.
    pub sent_at: Time,
    /// Whether this copy is a retransmission (Karn's rule: no RTT sample).
    pub retransmit: bool,
    /// Cumulative bytes delivered to the sender when this packet was sent;
    /// the receiver echoes it back so the sender can estimate delivery rate
    /// (needed by BBR).
    pub delivered_at_send: u64,
    /// Index into the flow's path of the link this packet currently
    /// occupies (`0` on a dumbbell).
    pub hop: u32,
    /// Queueing delay accumulated at hops already crossed; the final hop
    /// adds its own and echoes the total in [`Ack::queue_delay`].
    pub accrued_queue_delay: Time,
}

/// An acknowledgement travelling receiver → sender.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    /// The flow being acknowledged.
    pub flow: FlowId,
    /// Cumulative ACK: all packets with `seq < cum_ack` have been received.
    pub cum_ack: u64,
    /// The sequence number of the data packet that triggered this ACK
    /// (selective acknowledgement of exactly that packet).
    pub echo_seq: u64,
    /// Send timestamp of the triggering packet (for RTT samples).
    pub echo_sent_at: Time,
    /// Whether the triggering packet was a retransmission.
    pub echo_retransmit: bool,
    /// Queueing delay the triggering packet experienced at the bottleneck.
    pub queue_delay: Time,
    /// `delivered_at_send` echoed from the triggering packet.
    pub delivered_at_send: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_is_small_and_copyable() {
        // The simulator copies packets through the queue; keep them compact.
        assert!(std::mem::size_of::<Packet>() <= 64);
        assert!(std::mem::size_of::<Ack>() <= 72);
    }

    #[test]
    fn mss_is_mahimahi_like() {
        const { assert!(MSS_BYTES > 1000 && MSS_BYTES <= 1500) }
    }
}
