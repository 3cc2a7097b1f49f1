//! The discrete-event simulation engine.
//!
//! The engine owns the topology's [`Link`]s and all [`FlowState`]s, and
//! dispatches calendar events until a caller-specified horizon. External
//! code (a learned controller, an experiment driver) interleaves with the
//! simulation by calling [`Simulator::run_until`] and then inspecting or
//! mutating flow state — exactly the way Orca's agent wakes up once per
//! monitor interval.

use canopy_telemetry::LinkSample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cc::{AckInfo, CongestionControl, LossInfo};
use crate::event::{Event, EventQueue};
use crate::flow::{FlowConfig, FlowId, FlowState, DUPACK_THRESHOLD};
use crate::link::{ImpairmentSchedule, Link, LinkConfig};
use crate::packet::{Ack, Packet, MSS_BYTES};
use crate::stats::{DelaySample, FlowStats, MonitorSample};
use crate::time::Time;
use crate::topology::{LinkId, Topology};

/// One link's runtime state plus its private impairment stream.
struct LinkRuntime {
    link: Link,
    /// Impairment program and its RNG; present only when some phase
    /// impairs traffic so that unimpaired runs are seed-independent.
    impair: Option<(ImpairmentSchedule, StdRng)>,
}

impl LinkRuntime {
    fn new(mut config: LinkConfig) -> LinkRuntime {
        let active = config.impairments.take().filter(|s| s.is_active());
        let impair = active.map(|s| {
            let rng = StdRng::seed_from_u64(s.seed);
            (s, rng)
        });
        LinkRuntime {
            link: Link::new(config),
            impair,
        }
    }
}

/// Periodic per-link telemetry sampling state (see
/// [`Simulator::enable_link_sampling`]). Sampling only *reads* link
/// state on a fixed simulated-time grid, so enabling it can never
/// perturb the event sequence.
struct LinkSampling {
    cadence: Time,
    /// Next grid instant to sample at.
    next: Time,
    /// Previous grid instant (utilization is measured per interval).
    last_at: Time,
    /// `served_bytes` per link at `last_at`.
    last_served: Vec<u64>,
    samples: Vec<LinkSample>,
}

/// A deterministic packet-level network simulator over a multi-hop
/// [`Topology`] (a single-link dumbbell by default).
///
/// # Examples
///
/// ```
/// use canopy_netsim::{
///     BandwidthTrace, FixedWindow, FlowConfig, LinkConfig, Simulator, Time,
/// };
///
/// let trace = BandwidthTrace::constant("link", 12e6);
/// let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), 1.0);
/// let mut sim = Simulator::new(link);
/// let f = sim.add_flow(
///     FlowConfig::new(Time::from_millis(40)),
///     Box::new(FixedWindow::new(10.0)),
/// );
/// sim.run_until(Time::from_secs(2));
/// assert!(sim.flow_stats(f).acked_packets > 0);
/// ```
pub struct Simulator {
    now: Time,
    events: EventQueue,
    links: Vec<LinkRuntime>,
    flows: Vec<FlowState>,
    sampling: Option<LinkSampling>,
}

impl Simulator {
    /// Creates a simulator around one bottleneck link — the dumbbell fast
    /// path, bit-for-bit identical to
    /// `Simulator::with_topology(Topology::dumbbell(link))`.
    pub fn new(link: LinkConfig) -> Simulator {
        Simulator::with_topology(Topology::dumbbell(link))
    }

    /// Creates a simulator over an arbitrary topology. Each link gets its
    /// own queue, serializer, and impairment RNG stream.
    pub fn with_topology(topology: Topology) -> Simulator {
        let links: Vec<LinkRuntime> = topology
            .links()
            .iter()
            .map(|config| LinkRuntime::new(config.clone()))
            .collect();
        Simulator {
            now: Time::ZERO,
            events: EventQueue::with_links(links.len()),
            links,
            flows: Vec::new(),
            sampling: None,
        }
    }

    /// Adds a flow; it begins sending at `config.start_time` and, when
    /// `config.stop_time` is set, departs at that instant. Panics when the
    /// flow's path does not fit the topology (empty, unknown link, or a
    /// repeated hop).
    pub fn add_flow(&mut self, config: FlowConfig, cc: Box<dyn CongestionControl>) -> FlowId {
        assert!(!config.path.is_empty(), "flow path is empty");
        let mut seen = vec![false; self.links.len()];
        for &hop in &config.path {
            assert!(
                hop.0 < self.links.len(),
                "flow path names link {} but the topology has {} links",
                hop.0,
                self.links.len()
            );
            assert!(!seen[hop.0], "flow path visits link {} twice", hop.0);
            seen[hop.0] = true;
        }
        let id = FlowId(self.flows.len());
        let start = config.start_time.max(self.now);
        let stop = config.stop_time;
        self.flows.push(FlowState::new(config, cc));
        self.events.schedule(start, Event::FlowStart(id));
        if let Some(stop) = stop {
            self.events.schedule(stop.max(start), Event::FlowStop(id));
        }
        id
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of links in the topology.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Read access to one link (queue occupancy, drop counters, bytes
    /// served).
    pub fn link_at(&self, l: LinkId) -> &Link {
        &self.links[l.0].link
    }

    /// The sequence of links a flow's data packets traverse.
    pub fn flow_path(&self, f: FlowId) -> &[LinkId] {
        &self.flows[f.0].config.path
    }

    /// The flow's bottleneck: the path link with the lowest long-run
    /// average rate, breaking ties toward the later hop (where the queue
    /// actually forms once upstream hops pass traffic through).
    pub fn bottleneck_of(&self, f: FlowId) -> LinkId {
        let path = &self.flows[f.0].config.path;
        let avg = |l: LinkId| {
            let trace = &self.links[l.0].link.trace;
            let cycle = trace.cycle_duration().max(Time::from_millis(1));
            trace.avg_rate(Time::ZERO, cycle)
        };
        let mut best = path[0];
        let mut best_rate = avg(best);
        for &hop in &path[1..] {
            let rate = avg(hop);
            if rate <= best_rate {
                best = hop;
                best_rate = rate;
            }
        }
        best
    }

    /// Read access to a flow's congestion controller.
    pub fn cc(&self, f: FlowId) -> &dyn CongestionControl {
        self.flows[f.0].cc.as_ref()
    }

    /// Lifetime statistics for a flow.
    pub fn flow_stats(&self, f: FlowId) -> &FlowStats {
        &self.flows[f.0].stats
    }

    /// Packets currently in flight for a flow.
    pub fn inflight(&self, f: FlowId) -> u64 {
        self.flows[f.0].inflight()
    }

    /// The flow's smoothed RTT.
    pub fn srtt(&self, f: FlowId) -> Time {
        self.flows[f.0].srtt
    }

    /// Overrides the flow's congestion window (coarse-grained control), then
    /// immediately transmits anything the new window allows.
    ///
    /// Deliberately does **not** restart a pending retransmission timer: a
    /// learned agent writes the window every monitor interval, and
    /// unconditional re-arming would postpone the RTO indefinitely during
    /// ACK silence, deadlocking loss recovery.
    pub fn set_cwnd(&mut self, f: FlowId, cwnd: f64) {
        self.flows[f.0].cc.set_cwnd(cwnd);
        self.try_send(f);
        self.arm_rto_if_idle(f);
    }

    /// The congestion window currently proposed by the flow's kernel
    /// (Orca's `cwnd_TCP`).
    pub fn cwnd(&self, f: FlowId) -> f64 {
        self.flows[f.0].cc.cwnd()
    }

    /// Drains the flow's monitor-interval accumulators into a sample.
    pub fn monitor_sample(&mut self, f: FlowId) -> MonitorSample {
        let now = self.now;
        let flow = &mut self.flows[f.0];
        let srtt = flow.srtt;
        let min_rtt = flow.stats.min_rtt;
        let cwnd = flow.cc.cwnd();
        let inflight = flow.inflight();
        flow.monitor.drain(now, srtt, min_rtt, cwnd, inflight)
    }

    /// Runs the event loop until simulated time `t` (inclusive of events at
    /// exactly `t`), then sets the clock to `t`.
    ///
    /// Calling with `t` in the past is a no-op.
    pub fn run_until(&mut self, t: Time) {
        if t < self.now {
            return;
        }
        while let Some(scheduled) = self.events.pop_due(t) {
            debug_assert!(scheduled.at >= self.now, "time went backwards");
            if self.sampling.is_some() {
                self.sample_links_until(scheduled.at, false);
            }
            self.now = scheduled.at;
            self.dispatch(scheduled.event);
        }
        self.now = t;
        if self.sampling.is_some() {
            self.sample_links_until(t, true);
        }
    }

    /// Enables periodic per-link telemetry sampling every `cadence` of
    /// *simulated* time, starting one cadence from now. Each tick captures
    /// every link's queue depth, cumulative drops, and utilization over the
    /// elapsed interval. Samples accumulate until drained with
    /// [`Simulator::take_link_samples`].
    pub fn enable_link_sampling(&mut self, cadence: Time) {
        assert!(cadence > Time::ZERO, "sampling cadence must be positive");
        self.sampling = Some(LinkSampling {
            cadence,
            next: self.now + cadence,
            last_at: self.now,
            last_served: self.links.iter().map(|lr| lr.link.served_bytes).collect(),
            samples: Vec::new(),
        });
    }

    /// Drains accumulated link samples (always empty when sampling was
    /// never enabled).
    pub fn take_link_samples(&mut self) -> Vec<LinkSample> {
        match self.sampling.as_mut() {
            Some(s) => std::mem::take(&mut s.samples),
            None => Vec::new(),
        }
    }

    /// Emits link samples at every grid instant strictly before `t`
    /// (`inclusive` adds an instant at exactly `t`). Called before each
    /// event dispatch and at the end of [`Simulator::run_until`], so a
    /// sample at grid time `s` always reflects the state after every event
    /// at or before `s` — regardless of how callers partition their
    /// `run_until` horizons.
    fn sample_links_until(&mut self, t: Time, inclusive: bool) {
        let Some(s) = self.sampling.as_mut() else {
            return;
        };
        while s.next < t || (inclusive && s.next == t) {
            let at = s.next;
            let interval = (at - s.last_at).as_secs_f64();
            for (i, lr) in self.links.iter().enumerate() {
                let link = &lr.link;
                let served = link.served_bytes;
                let delta_bits = (served - s.last_served[i]) as f64 * 8.0;
                let ideal_bits = link.trace.avg_rate(s.last_at, at) * interval;
                let utilization = if ideal_bits > 0.0 {
                    delta_bits / ideal_bits
                } else {
                    0.0
                };
                s.samples.push(LinkSample {
                    t_ns: at.as_nanos(),
                    link: i as u64,
                    queue_bytes: link.queue.bytes(),
                    drops: link.queue.drops(),
                    utilization,
                });
                s.last_served[i] = served;
            }
            s.last_at = at;
            s.next = at + s.cadence;
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::FlowStart(f) => {
                let flow = &mut self.flows[f.0];
                flow.started = true;
                flow.stats.started_at = Some(self.now);
                self.try_send(f);
                self.arm_rto_if_idle(f);
            }
            Event::FlowStop(f) => {
                let flow = &mut self.flows[f.0];
                flow.stopped = true;
                flow.stats.stopped_at = Some(self.now);
                // The departing application abandons undelivered data: no
                // retransmissions, and the pending timer is cancelled.
                flow.lost_pending.clear();
                self.events.cancel_rto(f);
            }
            Event::LinkDeparture(l) => self.on_departure(l),
            Event::HopArrival { link, packet } => self.on_hop_arrival(link, packet),
            Event::AckArrival(ack) => self.on_ack(ack),
            Event::RtoTimer(f) => self.on_rto(f),
        }
    }

    /// Transmits as many packets as the flow's window allows, retransmitting
    /// declared losses before new data.
    fn try_send(&mut self, f: FlowId) {
        loop {
            let now = self.now;
            let flow = &mut self.flows[f.0];
            if !flow.can_send() {
                break;
            }
            let (seq, retransmit) = match flow.lost_pending.pop_first() {
                Some(s) => (s, true),
                None => {
                    let s = flow.next_seq;
                    flow.next_seq += 1;
                    (s, false)
                }
            };
            flow.outstanding.insert(seq);
            flow.stats.sent_packets += 1;
            if retransmit {
                flow.stats.retransmits += 1;
            }
            let packet = Packet {
                flow: f,
                seq,
                size: MSS_BYTES,
                sent_at: now,
                retransmit,
                delivered_at_send: flow.delivered_bytes,
                hop: 0,
                accrued_queue_delay: Time::ZERO,
            };
            let first = self.flows[f.0].config.path[0];
            if self.links[first.0].link.queue.enqueue(packet, now) {
                self.maybe_start_transmission(first);
            } else {
                // Tail drop: the sender does not learn about this until
                // duplicate ACKs or the retransmission timer reveal it.
                self.flows[f.0].stats.dropped_packets += 1;
            }
        }
        self.flows[f.0].debug_assert_scoreboard();
    }

    /// Starts serializing `l`'s head-of-line packet if that link is idle.
    fn maybe_start_transmission(&mut self, l: LinkId) {
        let link = &mut self.links[l.0].link;
        if link.busy || link.queue.is_empty() {
            return;
        }
        // A permanent outage (`None`) leaves packets in the queue; flows
        // recover through their retransmission timers if the trace resumes
        // via an external reconfiguration.
        if let Some(end) = link.head_transmit_end(self.now) {
            link.busy = true;
            self.events.schedule(end, Event::LinkDeparture(l));
        }
    }

    fn on_departure(&mut self, l: LinkId) {
        let now = self.now;
        let lr = &mut self.links[l.0];
        lr.link.busy = false;
        let qp = lr
            .link
            .queue
            .dequeue(now)
            .expect("departure event implies a packet in service");
        lr.link.served_bytes += qp.packet.size as u64;
        let f = qp.packet.flow;
        // Non-congestive impairments after transmission, under whichever
        // phase of this link's impairment program is active right now.
        let mut jitter = Time::ZERO;
        if let Some((sched, rng)) = lr.impair.as_mut() {
            let (random_loss, max_jitter) = sched.at(now);
            if random_loss > 0.0 && rng.random::<f64>() < random_loss {
                // Corrupted on the wire: no delivery, no ACK; the sender
                // discovers this like any other loss.
                self.flows[f.0].stats.random_losses += 1;
                self.maybe_start_transmission(l);
                return;
            }
            if max_jitter > Time::ZERO {
                jitter = Time::from_nanos(rng.random_range(0..=max_jitter.as_nanos()));
            }
        }
        let hop = qp.packet.hop as usize;
        let path = &self.flows[f.0].config.path;
        debug_assert_eq!(path[hop], l, "packet departed a link off its path");
        if hop + 1 == path.len() {
            // Final hop: deliver to the receiver; the echoed queueing delay
            // is the total across every hop of the path.
            let queue_delay = qp.packet.accrued_queue_delay + (now - qp.enqueued_at);
            let cum = self.flows[f.0].receiver.on_data(qp.packet.seq);
            let ack = Ack {
                flow: f,
                cum_ack: cum,
                echo_seq: qp.packet.seq,
                echo_sent_at: qp.packet.sent_at,
                echo_retransmit: qp.packet.retransmit,
                queue_delay,
                delivered_at_send: qp.packet.delivered_at_send,
            };
            let arrival = now + self.flows[f.0].config.min_rtt + jitter;
            self.events.schedule(arrival, Event::AckArrival(ack));
        } else {
            // Forward toward the next hop after this link's propagation
            // delay, accumulating the queueing delay spent here.
            let next = path[hop + 1];
            let mut packet = qp.packet;
            packet.hop += 1;
            packet.accrued_queue_delay += now - qp.enqueued_at;
            let forward = now + self.links[l.0].link.delay + jitter;
            self.events
                .schedule(forward, Event::HopArrival { link: next, packet });
        }
        self.maybe_start_transmission(l);
    }

    /// A packet reaches the ingress queue of the next link on its path.
    fn on_hop_arrival(&mut self, l: LinkId, packet: Packet) {
        let now = self.now;
        let f = packet.flow;
        if self.links[l.0].link.queue.enqueue(packet, now) {
            self.maybe_start_transmission(l);
        } else {
            // Mid-path tail drop: the sender discovers it through
            // duplicate ACKs or the retransmission timer, like any other
            // congestive loss.
            self.flows[f.0].stats.dropped_packets += 1;
        }
    }

    fn on_ack(&mut self, ack: Ack) {
        let f = ack.flow;
        let now = self.now;
        let flow = &mut self.flows[f.0];
        let old_cum = flow.cum_acked;

        // RTT sampling (Karn's rule: never sample a retransmitted packet).
        let mut rtt_sample = None;
        if !ack.echo_retransmit {
            let rtt = now - ack.echo_sent_at;
            flow.record_rtt_sample(rtt);
            rtt_sample = Some(rtt);
            flow.monitor.rtt_sum_ns += rtt.as_nanos() as u128;
            flow.monitor.rtt_count += 1;
            flow.monitor.qdelay_sum_ns += ack.queue_delay.as_nanos() as u128;
            flow.monitor.qdelay_count += 1;
            if flow.config.record_samples {
                flow.stats.samples.push(DelaySample {
                    at: now,
                    rtt,
                    queue_delay: ack.queue_delay,
                });
            }
        }

        // Delivery-rate sample for bandwidth estimators.
        let elapsed = now.saturating_sub(ack.echo_sent_at);
        let delivery_rate = if elapsed > Time::ZERO && flow.delivered_bytes >= ack.delivered_at_send
        {
            Some((flow.delivered_bytes - ack.delivered_at_send) as f64 / elapsed.as_secs_f64())
        } else {
            None
        };

        let mut newly_acked = 0u64;
        let credit_delivery = |flow: &mut FlowState, count: u64| {
            flow.delivered_bytes += count * MSS_BYTES as u64;
            flow.stats.acked_packets += count;
            flow.stats.acked_bytes += count * MSS_BYTES as u64;
            flow.monitor.acked_packets += count;
            flow.monitor.acked_bytes += count * MSS_BYTES as u64;
        };

        // Selective acknowledgement of the packet that triggered this ACK.
        if ack.echo_seq >= old_cum {
            if flow.outstanding.remove(ack.echo_seq) {
                newly_acked += 1;
                credit_delivery(flow, 1);
            }
            // A packet we had written off arrived after all.
            flow.lost_pending.remove(ack.echo_seq);
        }

        let advanced = ack.cum_ack > old_cum;
        if advanced {
            flow.cum_acked = ack.cum_ack;
            let count = flow.outstanding.drain_below(ack.cum_ack);
            newly_acked += count;
            credit_delivery(flow, count);
            flow.lost_pending.drain_below(ack.cum_ack);
            flow.dup_acks = 0;
            flow.rto_backoff = 0;

            if let Some(end) = flow.recovery_end {
                if ack.cum_ack >= end {
                    // Recovery complete.
                    flow.recovery_end = None;
                } else {
                    // NewReno partial ACK: the new first hole is also lost;
                    // retransmit it without a fresh congestion signal.
                    let hole = ack.cum_ack;
                    if flow.outstanding.remove(hole) {
                        flow.lost_pending.insert(hole);
                        flow.stats.declared_losses += 1;
                        flow.monitor.lost_packets += 1;
                    }
                }
            }
        } else if ack.cum_ack == old_cum && ack.echo_seq > old_cum {
            // Duplicate ACK caused by an out-of-order arrival past the hole.
            flow.dup_acks += 1;
            if flow.dup_acks == DUPACK_THRESHOLD && !flow.in_recovery() {
                let hole = old_cum;
                if flow.outstanding.remove(hole) {
                    flow.lost_pending.insert(hole);
                    flow.stats.declared_losses += 1;
                    flow.monitor.lost_packets += 1;
                }
                flow.recovery_end = Some(flow.next_seq);
                let info = LossInfo {
                    seq: hole,
                    inflight: flow.inflight(),
                };
                flow.cc.on_loss(now, &info);
            }
        }
        flow.debug_assert_scoreboard();

        let info = AckInfo {
            newly_acked,
            rtt: rtt_sample,
            min_rtt: flow.stats.min_rtt,
            inflight: flow.inflight(),
            delivery_rate,
            is_duplicate: !advanced,
        };
        flow.cc.on_ack(now, &info);

        self.arm_rto(f);
        self.try_send(f);
    }

    fn on_rto(&mut self, f: FlowId) {
        let now = self.now;
        let flow = &mut self.flows[f.0];
        if !flow.has_unacked() {
            return;
        }
        // Everything in flight is presumed lost.
        let FlowState {
            outstanding,
            lost_pending,
            ..
        } = flow;
        let count = outstanding.move_keys_into(lost_pending);
        flow.stats.declared_losses += count;
        flow.monitor.lost_packets += count;
        flow.stats.timeouts += 1;
        flow.dup_acks = 0;
        flow.recovery_end = None;
        flow.rto_backoff += 1;
        flow.debug_assert_scoreboard();
        flow.cc.on_timeout(now);
        self.arm_rto(f);
        self.try_send(f);
    }

    /// Arms the retransmission timer only if it is not already pending
    /// (used by paths that must not restart a running timer).
    fn arm_rto_if_idle(&mut self, f: FlowId) {
        if !self.events.rto_pending(f) && self.flows[f.0].has_unacked() {
            self.arm_rto(f);
        }
    }

    /// (Re)arms the retransmission timer; disarms when nothing is in flight.
    fn arm_rto(&mut self, f: FlowId) {
        let flow = &self.flows[f.0];
        if flow.stopped || !flow.has_unacked() {
            self.events.cancel_rto(f);
        } else {
            let deadline = self.now + flow.backed_off_rto();
            self.events.schedule(deadline, Event::RtoTimer(f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;
    use crate::link::ImpairmentPhase;
    use crate::trace::BandwidthTrace;

    fn basic_sim(rate_bps: f64, rtt_ms: u64, bdp_mult: f64) -> Simulator {
        let trace = BandwidthTrace::constant("test", rate_bps);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(rtt_ms), bdp_mult);
        Simulator::new(link)
    }

    /// A static impairment: one phase in force from time zero.
    fn constant_impairment(random_loss: f64, max_jitter: Time, seed: u64) -> ImpairmentSchedule {
        let phase = ImpairmentPhase {
            start: Time::ZERO,
            random_loss,
            max_jitter,
        };
        ImpairmentSchedule::new(vec![phase], seed)
    }

    #[test]
    fn window_limited_throughput() {
        // 12 Mbps, 40 ms, window of 10 packets: throughput should be close
        // to 10 * MSS * 8 / RTT ≈ 2.9 Mbps, well under capacity.
        let mut sim = basic_sim(12e6, 40, 4.0);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(10.0)),
        );
        sim.run_until(Time::from_secs(5));
        let stats = sim.flow_stats(f);
        let thr = stats.acked_bytes as f64 * 8.0 / 5.0;
        let expect = 10.0 * MSS_BYTES as f64 * 8.0 / 0.041;
        assert!(
            (thr - expect).abs() / expect < 0.10,
            "thr {thr:.0} vs expected {expect:.0}"
        );
        assert_eq!(stats.dropped_packets, 0);
        assert_eq!(stats.declared_losses, 0);
    }

    #[test]
    fn capacity_limited_throughput_with_losses() {
        // Window far above BDP + buffer: the link saturates and drops.
        let mut sim = basic_sim(12e6, 40, 1.0);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(500.0)),
        );
        sim.run_until(Time::from_secs(5));
        let stats = sim.flow_stats(f);
        let thr = stats.acked_bytes as f64 * 8.0 / 5.0;
        assert!(
            thr > 0.85 * 12e6 && thr < 1.05 * 12e6,
            "thr {:.2} Mbps",
            thr / 1e6
        );
        assert!(stats.dropped_packets > 0, "droptail must engage");
        assert!(stats.declared_losses > 0, "sender must detect losses");
        assert!(stats.retransmits > 0, "sender must retransmit");
    }

    #[test]
    fn min_rtt_close_to_propagation() {
        let mut sim = basic_sim(48e6, 20, 2.0);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(20)),
            Box::new(FixedWindow::new(4.0)),
        );
        sim.run_until(Time::from_secs(2));
        let min_rtt = sim.flow_stats(f).min_rtt;
        let serialization = MSS_BYTES as f64 * 8.0 / 48e6;
        let floor = 0.020 + serialization;
        assert!(
            (min_rtt.as_secs_f64() - floor).abs() < 0.002,
            "min_rtt {min_rtt:?} vs floor {floor}"
        );
    }

    #[test]
    fn bufferbloat_grows_rtt_on_deep_buffer() {
        let mut sim = basic_sim(12e6, 40, 8.0);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(300.0)),
        );
        sim.run_until(Time::from_secs(5));
        let stats = sim.flow_stats(f);
        // With a standing queue, p95 RTT must sit far above the floor.
        assert!(stats.rtt_quantile_ms(0.95) > 3.0 * 40.0);
    }

    #[test]
    fn conservation_of_packets() {
        let mut sim = basic_sim(12e6, 40, 0.5);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(100.0)),
        );
        sim.run_until(Time::from_secs(3));
        let flow = &sim.flows[f.0];
        let stats = &flow.stats;
        // Every distinct sequence number sent is acked, outstanding,
        // pending retransmission, or vanished in the queue (dropped).
        assert!(stats.acked_packets + flow.inflight() <= stats.sent_packets);
        // Receiver never runs ahead of the sender.
        assert!(flow.receiver.cum_recv <= flow.next_seq);
        // Declared losses at least cover real drops discovered so far,
        // modulo packets still undetected; sanity: drops happened.
        assert!(stats.dropped_packets > 0);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sim = basic_sim(24e6, 30, 1.0);
            let f = sim.add_flow(
                FlowConfig::new(Time::from_millis(30)),
                Box::new(FixedWindow::new(150.0)),
            );
            sim.run_until(Time::from_secs(4));
            let s = sim.flow_stats(f);
            (
                s.sent_packets,
                s.acked_packets,
                s.dropped_packets,
                s.declared_losses,
                s.retransmits,
                s.min_rtt,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_flows_share_capacity() {
        let mut sim = basic_sim(24e6, 40, 2.0);
        let f1 = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(400.0)),
        );
        let f2 = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(400.0)),
        );
        sim.run_until(Time::from_secs(5));
        let t1 = sim.flow_stats(f1).acked_bytes as f64;
        let t2 = sim.flow_stats(f2).acked_bytes as f64;
        let total = (t1 + t2) * 8.0 / 5.0;
        assert!(total > 0.85 * 24e6, "total {total}");
        // Fixed (non-adaptive) windows at a full droptail queue exhibit
        // phase lockout, so an even split is not expected — but both flows
        // must make real progress. Adaptive fairness is exercised by the
        // Fig. 15 experiment with Cubic/Orca/Canopy controllers.
        let min_share = t1.min(t2) / (t1 + t2);
        assert!(min_share > 0.05, "min share {min_share}");
    }

    #[test]
    fn staggered_start() {
        let mut sim = basic_sim(12e6, 20, 2.0);
        let late = sim.add_flow(
            FlowConfig::new(Time::from_millis(20)).starting_at(Time::from_secs(2)),
            Box::new(FixedWindow::new(50.0)),
        );
        sim.run_until(Time::from_secs(1));
        assert_eq!(sim.flow_stats(late).sent_packets, 0);
        sim.run_until(Time::from_secs(3));
        assert!(sim.flow_stats(late).sent_packets > 0);
    }

    #[test]
    fn monitor_sample_drains() {
        let mut sim = basic_sim(12e6, 40, 2.0);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(20.0)),
        );
        sim.run_until(Time::from_secs(1));
        let s1 = sim.monitor_sample(f);
        assert!(s1.acked_packets > 0);
        assert!(s1.throughput_bps > 0.0);
        // Immediately draining again yields an empty interval.
        let s2 = sim.monitor_sample(f);
        assert_eq!(s2.acked_packets, 0);
        assert_eq!(s2.duration, Time::ZERO);
        // After more time, the accumulators fill again.
        sim.run_until(Time::from_secs(2));
        let s3 = sim.monitor_sample(f);
        assert!(s3.acked_packets > 0);
        assert_eq!(s3.duration, Time::from_secs(1));
    }

    #[test]
    fn set_cwnd_opens_window_immediately() {
        let mut sim = basic_sim(12e6, 40, 4.0);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(2.0)),
        );
        sim.run_until(Time::from_secs(1));
        let sent_before = sim.flow_stats(f).sent_packets;
        sim.set_cwnd(f, 40.0);
        // New packets were enqueued synchronously.
        assert!(sim.flow_stats(f).sent_packets > sent_before);
        assert!((sim.cwnd(f) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn outage_then_recovery_via_rto() {
        // 1 s of service, then a 1.5 s outage, looping. RTO must carry the
        // flow across the outage without deadlock.
        let trace = BandwidthTrace::from_segments(
            "outage",
            vec![
                crate::trace::Segment {
                    duration: Time::from_secs(1),
                    rate_bps: 8e6,
                },
                crate::trace::Segment {
                    duration: Time::from_millis(1500),
                    rate_bps: 0.0,
                },
            ],
            true,
        );
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(20), 2.0);
        let mut sim = Simulator::new(link);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(20)),
            Box::new(FixedWindow::new(30.0)),
        );
        sim.run_until(Time::from_secs(10));
        let stats = sim.flow_stats(f);
        assert!(stats.acked_packets > 100, "flow survives outages");
        assert!(stats.timeouts > 0, "RTO fired during outage");
    }

    #[test]
    fn run_until_is_monotone() {
        let mut sim = basic_sim(12e6, 40, 1.0);
        sim.run_until(Time::from_secs(1));
        sim.run_until(Time::from_millis(500)); // no-op, must not panic
        assert_eq!(sim.now(), Time::from_secs(1));
    }

    #[test]
    fn random_loss_impairment_drops_and_recovers() {
        let trace = BandwidthTrace::constant("lossy", 12e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), 4.0)
            .with_impairments(constant_impairment(0.02, Time::ZERO, 7));
        let mut sim = Simulator::new(link);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(30.0)),
        );
        sim.run_until(Time::from_secs(10));
        let stats = sim.flow_stats(f);
        assert!(stats.random_losses > 0, "random loss must fire");
        // The reliability layer recovers: most packets still delivered.
        assert!(stats.acked_packets > 10 * stats.random_losses);
        // Loss rate roughly matches the configured probability.
        let rate = stats.random_losses as f64 / stats.sent_packets as f64;
        assert!(rate > 0.005 && rate < 0.06, "observed loss rate {rate}");
    }

    #[test]
    fn jitter_widens_rtt_distribution_without_loss() {
        let run = |jitter_ms: u64| {
            let trace = BandwidthTrace::constant("jitter", 12e6);
            let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), 4.0)
                .with_impairments(constant_impairment(0.0, Time::from_millis(jitter_ms), 5));
            let mut sim = Simulator::new(link);
            let f = sim.add_flow(
                FlowConfig::new(Time::from_millis(40)),
                Box::new(FixedWindow::new(10.0)),
            );
            sim.run_until(Time::from_secs(5));
            let stats = sim.flow_stats(f);
            (
                stats.rtt_quantile_ms(0.95) - stats.rtt_quantile_ms(0.05),
                stats.dropped_packets,
            )
        };
        let (spread_clean, _) = run(0);
        let (spread_jittered, drops) = run(20);
        assert!(
            spread_jittered > spread_clean + 5.0,
            "jitter {spread_jittered} vs clean {spread_clean}"
        );
        assert_eq!(drops, 0, "jitter alone must not drop packets");
    }

    /// Regression: an agent writing the window every monitor interval must
    /// not postpone the retransmission timer. Before the fix, per-interval
    /// `set_cwnd` re-armed the RTO, so a flow whose entire window was
    /// tail-dropped during a bandwidth lull (no ACKs in flight) never timed
    /// out and starved forever.
    #[test]
    fn external_set_cwnd_does_not_starve_rto() {
        // 96 Mbps burst then a long 6 Mbps lull, looping.
        let trace = BandwidthTrace::from_segments(
            "burst-lull",
            vec![
                crate::trace::Segment {
                    duration: Time::from_secs(1),
                    rate_bps: 96e6,
                },
                crate::trace::Segment {
                    duration: Time::from_secs(2),
                    rate_bps: 6e6,
                },
            ],
            true,
        );
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), 5.0);
        let mut sim = Simulator::new(link);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)).without_samples(),
            Box::new(FixedWindow::new(2.0)),
        );
        // Blow the window up far beyond what the lull can carry, writing
        // it every 20 ms exactly like a learned controller does.
        let mut t = Time::ZERO;
        while t < Time::from_secs(12) {
            t += Time::from_millis(20);
            sim.set_cwnd(f, 40_000.0);
            sim.run_until(t);
        }
        let stats = sim.flow_stats(f);
        assert!(stats.dropped_packets > 1000, "lull must drop heavily");
        // Recovery stays live (dup-ACK driven here; RTO as backstop): the
        // deadlocked pre-fix behaviour delivered nothing after the first
        // lull.
        assert!(
            stats.acked_packets > 10_000,
            "recovery must keep delivering: {stats:?}"
        );
        // The flow keeps making progress across lulls: during the final
        // cycle it must still deliver something.
        let acked_before = stats.acked_packets;
        let mut t2 = t;
        while t2 < t + Time::from_secs(3) {
            t2 += Time::from_millis(20);
            sim.set_cwnd(f, 40_000.0);
            sim.run_until(t2);
        }
        assert!(
            sim.flow_stats(f).acked_packets > acked_before,
            "flow starved after the lull"
        );
    }

    #[test]
    fn flow_stops_at_departure_time() {
        let mut sim = basic_sim(12e6, 20, 2.0);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(20))
                .starting_at(Time::from_secs(1))
                .stopping_at(Time::from_secs(3)),
            Box::new(FixedWindow::new(20.0)),
        );
        sim.run_until(Time::from_secs(6));
        let stats = sim.flow_stats(f);
        assert_eq!(stats.started_at, Some(Time::from_secs(1)));
        assert_eq!(stats.stopped_at, Some(Time::from_secs(3)));
        assert!(stats.acked_packets > 0);
        // Nothing is sent after the stop: the last transmission happened at
        // or before the departure instant, so everything in flight drains
        // within one RTT and the counters freeze.
        let sent_at_stop = stats.sent_packets;
        sim.run_until(Time::from_secs(10));
        assert_eq!(sim.flow_stats(f).sent_packets, sent_at_stop);
    }

    #[test]
    fn active_interval_normalizes_throughput() {
        // Two identical flows, one active the whole run, one only for the
        // middle two seconds: active-interval throughput must match even
        // though lifetime byte counts differ by ~3x.
        let mut sim = basic_sim(48e6, 20, 2.0);
        let long = sim.add_flow(
            FlowConfig::new(Time::from_millis(20)),
            Box::new(FixedWindow::new(10.0)),
        );
        let short = sim.add_flow(
            FlowConfig::new(Time::from_millis(20))
                .starting_at(Time::from_secs(2))
                .stopping_at(Time::from_secs(4)),
            Box::new(FixedWindow::new(10.0)),
        );
        sim.run_until(Time::from_secs(6));
        let now = sim.now();
        let rate = |f: FlowId| {
            let s = sim.flow_stats(f);
            s.acked_bytes as f64 * 8.0 / s.active_duration(now).as_secs_f64()
        };
        assert_eq!(
            sim.flow_stats(short).active_duration(now),
            Time::from_secs(2)
        );
        assert_eq!(
            sim.flow_stats(long).active_duration(now),
            Time::from_secs(6)
        );
        let (r_long, r_short) = (rate(long), rate(short));
        assert!(
            (r_long - r_short).abs() / r_long < 0.15,
            "normalized rates diverge: {r_long:.0} vs {r_short:.0}"
        );
        // A flow that never started has an empty interval.
        let mut sim2 = basic_sim(12e6, 20, 2.0);
        let never = sim2.add_flow(
            FlowConfig::new(Time::from_millis(20)).starting_at(Time::from_secs(50)),
            Box::new(FixedWindow::new(10.0)),
        );
        sim2.run_until(Time::from_secs(1));
        assert_eq!(
            sim2.flow_stats(never).active_duration(sim2.now()),
            Time::ZERO
        );
    }

    #[test]
    fn impairment_phases_schedule_loss_in_time() {
        // Clean for 3 s, heavy random loss for 3 s, clean again.
        let trace = BandwidthTrace::constant("phased", 12e6);
        let schedule = ImpairmentSchedule::new(
            vec![
                ImpairmentPhase {
                    start: Time::from_secs(3),
                    random_loss: 0.05,
                    max_jitter: Time::ZERO,
                },
                ImpairmentPhase {
                    start: Time::from_secs(6),
                    random_loss: 0.0,
                    max_jitter: Time::ZERO,
                },
            ],
            11,
        );
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), 4.0)
            .with_impairments(schedule);
        let mut sim = Simulator::new(link);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)),
            Box::new(FixedWindow::new(20.0)),
        );
        sim.run_until(Time::from_secs(3));
        assert_eq!(sim.flow_stats(f).random_losses, 0, "clean opening phase");
        sim.run_until(Time::from_secs(6));
        let during = sim.flow_stats(f).random_losses;
        assert!(during > 0, "storm phase must drop packets");
        sim.run_until(Time::from_secs(9));
        assert_eq!(
            sim.flow_stats(f).random_losses,
            during,
            "closing phase is clean again"
        );
    }

    #[test]
    fn impairment_schedule_lookup() {
        let s = ImpairmentSchedule::new(
            vec![
                ImpairmentPhase {
                    start: Time::from_secs(5),
                    random_loss: 0.02,
                    max_jitter: Time::from_millis(1),
                },
                ImpairmentPhase {
                    start: Time::from_secs(2),
                    random_loss: 0.01,
                    max_jitter: Time::ZERO,
                },
            ],
            0,
        );
        // Construction sorts by start.
        assert_eq!(s.at(Time::ZERO), (0.0, Time::ZERO));
        assert_eq!(s.at(Time::from_secs(2)), (0.01, Time::ZERO));
        assert_eq!(s.at(Time::from_secs(4)), (0.01, Time::ZERO));
        assert_eq!(s.at(Time::from_secs(7)), (0.02, Time::from_millis(1)));
        assert!(s.is_active());
        assert!(!ImpairmentSchedule::new(Vec::new(), 1).is_active());
    }

    #[test]
    fn one_phase_impairment_run_is_pinned() {
        let link = LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("det", 12e6),
            Time::from_millis(40),
            2.0,
        )
        .with_impairments(constant_impairment(0.01, Time::from_millis(5), 3));
        let mut sim = Simulator::new(link);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)).without_samples(),
            Box::new(FixedWindow::new(20.0)),
        );
        sim.run_until(Time::from_secs(5));
        let s = sim.flow_stats(f);
        // Loss draws, jitter draws and retransmit timers all shape this
        // run: none of them may move a single packet.
        assert_eq!(
            (s.acked_packets, s.random_losses, s.retransmits),
            (1478, 21, 6)
        );
    }

    #[test]
    fn long_newreno_recovery_then_rtos_is_pinned() {
        // A 600-packet fixed window into a 10-packet buffer tail-drops most
        // of its first burst, so NewReno spends many RTTs closing one hole
        // per partial ACK with hundreds of holes still outstanding; the
        // outage then fires timeouts that write the whole scoreboard off.
        let trace = BandwidthTrace::from_segments(
            "burst-outage",
            vec![
                crate::trace::Segment {
                    duration: Time::from_secs(3),
                    rate_bps: 12e6,
                },
                crate::trace::Segment {
                    duration: Time::from_secs(1),
                    rate_bps: 0.0,
                },
            ],
            true,
        );
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), 0.25);
        let mut sim = Simulator::new(link);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(40)).without_samples(),
            Box::new(FixedWindow::new(600.0)),
        );
        sim.run_until(Time::from_secs(10));
        let s = sim.flow_stats(f);
        let cum = sim.flows[f.0].receiver.cum_recv;
        assert_eq!(
            (
                s.sent_packets,
                s.acked_packets,
                s.retransmits,
                s.declared_losses,
                s.timeouts,
                s.dropped_packets,
                cum
            ),
            (9459, 6273, 2586, 2586, 4, 3138, 191)
        );
    }

    #[test]
    fn multi_hop_jitter_run_is_pinned() {
        use crate::topology::Topology;
        // Jitter from 1 s on reorders what one hop hands on: forwarded
        // packets land mid-lane at the next link's calendar lane and ACKs
        // land mid-lane in their flow's lane, while departures keep
        // interleaving with both. Every count below must hold to the packet.
        let jitter = || {
            let phase = ImpairmentPhase {
                start: Time::from_secs(1),
                random_loss: 0.0,
                max_jitter: Time::from_millis(4),
            };
            ImpairmentSchedule::new(vec![phase], 11)
        };
        let hop = LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("hop", 16e6),
            Time::from_millis(20),
            1.0,
        )
        .with_delay(Time::from_millis(5));
        let parking_lot = Topology::new(vec![
            hop.clone(),
            hop.clone().with_impairments(jitter()),
            hop,
        ]);
        let mut paths = vec![Topology::parking_lot_long_path(3)];
        paths.extend((0..3).map(|i| Topology::parking_lot_hop_path(i, 3)));
        let root = LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("root", 12e6),
            Time::from_millis(20),
            0.5,
        );
        let leaf = LinkConfig::new(BandwidthTrace::constant("leaf", 48e6), 200 * 1448);
        let mut incast = Topology::incast(root, leaf.clone(), 4).links().to_vec();
        incast[2] = leaf.with_impairments(jitter());
        let incast = Topology::new(incast);
        let incast_paths: Vec<Vec<LinkId>> = (0..4).map(|i| Topology::incast_path(i, 4)).collect();

        let run = |topology: Topology, paths: &[Vec<LinkId>], window: f64| {
            let links = topology.len();
            let mut sim = Simulator::with_topology(topology);
            let flows: Vec<FlowId> = paths
                .iter()
                .map(|path| {
                    sim.add_flow(
                        FlowConfig::new(Time::from_millis(20))
                            .without_samples()
                            .on_path(path.clone()),
                        Box::new(FixedWindow::new(window)),
                    )
                })
                .collect();
            sim.run_until(Time::from_secs(5));
            let per_flow: Vec<(u64, u64, u64, u64, u64)> = flows
                .iter()
                .map(|&f| {
                    let s = sim.flow_stats(f);
                    (
                        s.sent_packets,
                        s.acked_packets,
                        s.retransmits,
                        s.timeouts,
                        s.dropped_packets,
                    )
                })
                .collect();
            let per_link: Vec<(u64, u64)> = (0..links)
                .map(|l| {
                    let link = sim.link_at(LinkId(l));
                    (link.served_bytes, link.queue.drops())
                })
                .collect();
            (per_flow, per_link)
        };
        let (flows, links) = run(parking_lot, &paths, 60.0);
        assert_eq!(
            flows,
            vec![
                (1342, 900, 382, 6, 442),
                (5344, 5122, 162, 1, 168),
                (5622, 5538, 24, 0, 55),
                (6165, 5976, 129, 0, 135),
            ],
            "parking lot (sent, acked, retransmits, timeouts, dropped) per flow"
        );
        assert_eq!(
            links,
            vec![(8774880, 599), (9378696, 55), (9996992, 146)],
            "parking lot (served_bytes, drops) per link"
        );
        let (flows, links) = run(incast, &incast_paths, 80.0);
        assert_eq!(
            flows,
            vec![
                (3411, 3296, 35, 0, 100),
                (776, 662, 34, 0, 110),
                (1197, 946, 171, 0, 241),
                (335, 254, 1, 0, 80),
            ],
            "incast (sent, acked, retransmits, timeouts, dropped) per flow"
        );
        assert_eq!(
            links,
            vec![
                (7499192, 531),
                (4939128, 0),
                (1123648, 0),
                (1733256, 0),
                (485080, 0),
            ],
            "incast (served_bytes, drops) per link"
        );
    }

    #[test]
    fn parking_lot_short_hop_flows_beat_the_long_flow() {
        use crate::topology::Topology;
        // 3 hops; the long flow crosses all three queues and carries a
        // longer propagation RTT, each cross flow exactly one: classic RTT
        // unfairness must appear.
        let hop = LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("hop", 16e6),
            Time::from_millis(20),
            1.0,
        )
        .with_delay(Time::from_millis(10));
        let mut sim = Simulator::with_topology(Topology::parking_lot(hop, 3));
        let long = sim.add_flow(
            FlowConfig::new(Time::from_millis(20))
                .without_samples()
                .on_path(Topology::parking_lot_long_path(3)),
            Box::new(FixedWindow::new(200.0)),
        );
        let mut crosses = Vec::new();
        for i in 0..3 {
            crosses.push(
                sim.add_flow(
                    FlowConfig::new(Time::from_millis(20))
                        .without_samples()
                        .on_path(Topology::parking_lot_hop_path(i, 3)),
                    Box::new(FixedWindow::new(200.0)),
                ),
            );
        }
        sim.run_until(Time::from_secs(10));
        let long_bytes = sim.flow_stats(long).acked_bytes;
        let min_cross = crosses
            .iter()
            .map(|&c| sim.flow_stats(c).acked_bytes)
            .min()
            .unwrap();
        assert!(long_bytes > 0, "long flow must make progress");
        assert!(
            min_cross > long_bytes,
            "every one-hop flow should outrun the {}-hop flow: cross {min_cross} vs long {long_bytes}",
            3
        );
        // The long flow's RTT floor includes two forwarding delays.
        let floor = sim.flow_stats(long).min_rtt;
        assert!(
            floor >= Time::from_millis(40),
            "2 hop delays + 20 ms propagation, got {floor:?}"
        );
    }

    #[test]
    fn incast_fan_in_congests_the_root() {
        use crate::topology::Topology;
        // 4 fast leaves into one slow root: drops concentrate at the root.
        let root = LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("root", 12e6),
            Time::from_millis(20),
            0.5,
        );
        let leaf = LinkConfig::new(BandwidthTrace::constant("leaf", 48e6), 200 * 1448);
        let mut sim = Simulator::with_topology(Topology::incast(root, leaf, 4));
        for i in 0..4 {
            sim.add_flow(
                FlowConfig::new(Time::from_millis(20))
                    .without_samples()
                    .on_path(Topology::incast_path(i, 4)),
                Box::new(FixedWindow::new(120.0)),
            );
        }
        sim.run_until(Time::from_secs(5));
        let root_link = sim.link_at(LinkId(0));
        assert!(root_link.queue.drops() > 0, "root queue must tail-drop");
        assert!(root_link.served_bytes > 0);
        for l in 1..=4 {
            assert_eq!(
                sim.link_at(LinkId(l)).queue.drops(),
                0,
                "leaf {l} must stay uncongested"
            );
        }
        // Total root goodput is capacity-bound.
        let thr = root_link.served_bytes as f64 * 8.0 / 5.0;
        assert!(thr > 0.85 * 12e6 && thr < 1.05 * 12e6, "{thr}");
        // Per-link occupancy metrics are live: the root holds a standing
        // queue, the leaves barely any.
        let now = sim.now();
        assert!(root_link.queue.mean_bytes(now) > sim.link_at(LinkId(1)).queue.mean_bytes(now));
    }

    #[test]
    fn multi_hop_queue_delay_accumulates_across_hops() {
        use crate::topology::Topology;
        // Two equal-rate hops in series with a window big enough to queue:
        // the echoed queue delay must cover both queues, so p95 RTT sits
        // above what a single queue of this depth could produce.
        let hop = LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("hop", 8e6),
            Time::from_millis(20),
            4.0,
        );
        let mut sim = Simulator::with_topology(Topology::parking_lot(hop, 2));
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(20)).on_path(Topology::parking_lot_long_path(2)),
            Box::new(FixedWindow::new(100.0)),
        );
        sim.run_until(Time::from_secs(5));
        let stats = sim.flow_stats(f);
        assert!(stats.acked_packets > 0);
        // Mean queueing delay echoed through ACKs matches the sum of the
        // two per-hop standing queues to within a loose factor.
        let qd: f64 = stats
            .samples
            .iter()
            .map(|s| s.queue_delay.as_secs_f64())
            .sum::<f64>()
            / stats.samples.len().max(1) as f64;
        let single_hop_floor = 0.9 * sim.link_at(LinkId(0)).queue.mean_bytes(sim.now()) * 8.0 / 8e6;
        assert!(
            qd > single_hop_floor,
            "accumulated delay {qd} vs one-hop floor {single_hop_floor}"
        );
    }

    #[test]
    fn multi_hop_runs_are_deterministic() {
        use crate::topology::Topology;
        let run = || {
            let hop = LinkConfig::with_bdp_buffer(
                BandwidthTrace::constant("hop", 16e6),
                Time::from_millis(20),
                1.0,
            )
            .with_delay(Time::from_millis(5));
            let root =
                hop.clone()
                    .with_impairments(constant_impairment(0.01, Time::from_millis(2), 9));
            let mut sim =
                Simulator::with_topology(Topology::new(vec![root, hop.clone(), hop.clone()]));
            let f = sim.add_flow(
                FlowConfig::new(Time::from_millis(20))
                    .without_samples()
                    .on_path(Topology::parking_lot_long_path(3)),
                Box::new(FixedWindow::new(60.0)),
            );
            let g = sim.add_flow(
                FlowConfig::new(Time::from_millis(30))
                    .without_samples()
                    .on_path(vec![LinkId(1)]),
                Box::new(FixedWindow::new(60.0)),
            );
            sim.run_until(Time::from_secs(5));
            let s = sim.flow_stats(f);
            let t = sim.flow_stats(g);
            (
                s.sent_packets,
                s.acked_packets,
                s.random_losses,
                s.dropped_packets,
                t.acked_packets,
                sim.link_at(LinkId(0)).served_bytes,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "names link 2")]
    fn path_outside_topology_is_rejected() {
        let mut sim = basic_sim(12e6, 20, 1.0);
        sim.add_flow(
            FlowConfig::new(Time::from_millis(20)).on_path(vec![LinkId(2)]),
            Box::new(FixedWindow::new(5.0)),
        );
    }

    #[test]
    fn bottleneck_selection_prefers_slowest_then_latest_hop() {
        use crate::topology::Topology;
        let mk = |rate: f64| {
            LinkConfig::with_bdp_buffer(
                BandwidthTrace::constant("l", rate),
                Time::from_millis(20),
                1.0,
            )
        };
        let mut sim =
            Simulator::with_topology(Topology::new(vec![mk(16e6), mk(8e6), mk(16e6), mk(8e6)]));
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(20)).on_path(vec![
                LinkId(0),
                LinkId(1),
                LinkId(2),
                LinkId(3),
            ]),
            Box::new(FixedWindow::new(10.0)),
        );
        // Two 8 Mbps hops tie: the later one wins.
        assert_eq!(sim.bottleneck_of(f), LinkId(3));
    }

    #[test]
    fn impairments_deterministic_per_seed() {
        let run = |seed: u64| {
            let trace = BandwidthTrace::constant("det", 12e6);
            let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), 2.0)
                .with_impairments(constant_impairment(0.01, Time::from_millis(5), seed));
            let mut sim = Simulator::new(link);
            let f = sim.add_flow(
                FlowConfig::new(Time::from_millis(40)).without_samples(),
                Box::new(FixedWindow::new(20.0)),
            );
            sim.run_until(Time::from_secs(5));
            let s = sim.flow_stats(f);
            (s.acked_packets, s.random_losses, s.retransmits)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn link_sampling_is_inert_and_on_grid() {
        let run = |sample: bool| {
            let mut sim = basic_sim(12e6, 40, 1.0);
            if sample {
                sim.enable_link_sampling(Time::from_millis(10));
            }
            let f = sim.add_flow(
                FlowConfig::new(Time::from_millis(40)).without_samples(),
                Box::new(FixedWindow::new(150.0)),
            );
            sim.run_until(Time::from_secs(3));
            let s = sim.flow_stats(f);
            (
                (
                    s.sent_packets,
                    s.acked_packets,
                    s.dropped_packets,
                    s.declared_losses,
                ),
                sim.take_link_samples(),
            )
        };
        let (stats_off, samples_off) = run(false);
        let (stats_on, samples_on) = run(true);
        // Sampling reads state only: flow dynamics are bitwise unchanged.
        assert_eq!(stats_off, stats_on);
        assert!(samples_off.is_empty());
        // One sample per link per 10 ms tick over 3 s.
        assert_eq!(samples_on.len(), 300);
        for (i, s) in samples_on.iter().enumerate() {
            assert_eq!(s.t_ns, (i as u64 + 1) * 10_000_000);
            assert_eq!(s.link, 0);
            assert!(s.utilization.is_finite() && s.utilization >= 0.0);
        }
        // The saturated link runs near full utilization mid-run.
        let mid = &samples_on[150];
        assert!(mid.utilization > 0.8, "utilization {}", mid.utilization);
        assert!(samples_on.last().unwrap().drops > 0);
        // Draining leaves the buffer empty until more time passes.
        let mut sim = basic_sim(12e6, 40, 1.0);
        sim.enable_link_sampling(Time::from_millis(10));
        sim.run_until(Time::from_millis(25));
        assert_eq!(sim.take_link_samples().len(), 2);
        assert!(sim.take_link_samples().is_empty());
    }

    #[test]
    fn link_sampling_is_invariant_to_run_until_partitioning() {
        let run = |steps_ms: u64| {
            let mut sim = basic_sim(24e6, 30, 1.0);
            sim.enable_link_sampling(Time::from_millis(15));
            sim.add_flow(
                FlowConfig::new(Time::from_millis(30)).without_samples(),
                Box::new(FixedWindow::new(150.0)),
            );
            let mut t = Time::ZERO;
            while t < Time::from_secs(2) {
                t += Time::from_millis(steps_ms);
                sim.run_until(t);
            }
            sim.run_until(Time::from_secs(2));
            sim.take_link_samples()
        };
        // Coarse and fine horizons see identical samples (bitwise: the
        // utilization f64s must match exactly, not approximately).
        let coarse = run(500);
        let fine = run(7);
        assert_eq!(coarse.len(), fine.len());
        for (a, b) in coarse.iter().zip(&fine) {
            assert_eq!(a.t_ns, b.t_ns);
            assert_eq!(a.queue_bytes, b.queue_bytes);
            assert_eq!(a.drops, b.drops);
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        }
    }
}
