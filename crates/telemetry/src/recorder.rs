//! The recorder trait, the inert recorder, and the flight recorder.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::event::{BatchRecord, DecisionRecord, LinkSample, SearchEvent, TrainerEvent};
use crate::live::{metrics_jsonl, AlertLedger, LiveConfig, MetricsSnapshot, SloWatchdog};
use crate::metrics::{LogHistogram, Registry, RollingWindow};

/// The instrumentation sink the hot paths call into.
///
/// Every method has an empty default body, so a recorder implements only
/// the categories it cares about and [`NoopRecorder`] implements none.
/// `Debug` is a supertrait so instrumented hosts (the decision pool, the
/// optimizer) can keep deriving `Debug` around a `SharedRecorder`.
pub trait Recorder: std::fmt::Debug {
    /// One Orca decision fired.
    fn record_decision(&mut self, _r: &DecisionRecord) {}

    /// One per-link cadence sample.
    fn record_link(&mut self, _s: &LinkSample) {}

    /// One batched pool dispatch (all decisions due at one sim instant).
    fn record_batch(&mut self, _b: &BatchRecord) {}

    /// One trainer-loop event.
    fn record_trainer(&mut self, _e: &TrainerEvent) {}

    /// One optimizer generation.
    fn record_search(&mut self, _e: &SearchEvent) {}
}

/// A recorder that drops everything — attached in equivalence tests to
/// prove instrumented code paths change nothing bitwise.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// The shared handle instrumented subsystems hold. Recording always
/// happens on the coordinator thread of a run (cells, episodes, and
/// optimizer batches each own their recorder), so a single-threaded
/// `Rc<RefCell<…>>` suffices and keeps the hot path free of atomics.
pub type SharedRecorder = Rc<RefCell<dyn Recorder>>;

/// Wraps a recorder into the [`SharedRecorder`] handle the hot paths take.
pub fn shared<R: Recorder + 'static>(recorder: R) -> SharedRecorder {
    Rc::new(RefCell::new(recorder))
}

/// Ring capacity of the decision, link and batch streams.
const EVENT_CAPACITY: usize = 4096;
/// Ring capacity of the trainer stream.
const TRAINER_CAPACITY: usize = 2048;
/// Ring capacity of the search stream.
const SEARCH_CAPACITY: usize = 1024;
/// Retained live snapshots (older ones are evicted, and counted).
const SNAPSHOT_CAPACITY: usize = 4096;

/// Simulator link-sampling cadence of every recorded run: 10 ms of sim
/// time, in nanoseconds.
pub const LINK_CADENCE_NS: u64 = 10_000_000;

/// A flight recorder's settings: none, since every recording is
/// deterministic. The type stays so that the constructors keep their
/// signatures.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecorderConfig {}

/// A bounded ring with exact totals: `seen` counts every pushed item,
/// and once `capacity` items are held each push evicts the oldest one.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    seen: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` items (at least one).
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            seen: 0,
        }
    }

    /// Appends `item`, evicting the oldest kept item when full.
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(item);
    }

    /// The kept items, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &T> + DoubleEndedIterator {
        self.buf.iter()
    }

    /// Number of kept items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is kept.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total items ever pushed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Items evicted to stay within capacity: `seen == len + dropped`.
    pub fn dropped(&self) -> u64 {
        self.seen - self.buf.len() as u64
    }
}

/// The streaming state a [`FlightRecorder`] carries when live
/// observability is enabled: snapshot cadence, rolling-window feeds,
/// the SLO watchdog, and the serving-only wall-latency window.
#[derive(Clone, Debug)]
struct LiveLayer {
    config: LiveConfig,
    /// Next sim-time snapshot boundary (multiple of the cadence).
    next_ns: u64,
    /// Retained snapshots; `seen()` is the next sequence number.
    snapshots: Ring<MetricsSnapshot>,
    watchdog: SloWatchdog,
    /// Wall-clock decision latency window, fed by the serving host.
    /// Deliberately outside the registry: snapshots never see it, so
    /// the JSONL stream and exposition stay bitwise-deterministic.
    wall_latency: RollingWindow<LogHistogram>,
    /// Last cumulative drop count per link, for window drop deltas.
    last_link_drops: BTreeMap<u64, u64>,
}

impl LiveLayer {
    /// Takes one snapshot at boundary `t_ns` (origin already applied):
    /// slides every rolling window up to the boundary, exports the
    /// registry, and lets the watchdog evaluate.
    fn snapshot_at(&mut self, registry: &mut Registry, t_ns: u64) {
        // Windows cover completed buckets only: an event at exactly the
        // boundary belongs to the next bucket, hence `t_ns - 1`.
        registry.advance_windows(t_ns.saturating_sub(1));
        self.wall_latency.advance_to(t_ns.saturating_sub(1));
        let seq = self.snapshots.seen();
        let snap = MetricsSnapshot::from_registry(registry, &self.config.label, seq, t_ns);
        self.watchdog
            .evaluate(t_ns, registry, Some(&self.wall_latency));
        self.snapshots.push(snap);
    }

    /// Emits every sim-time cadence boundary at or before `t_ns`
    /// (origin already applied).
    fn roll(&mut self, registry: &mut Registry, t_ns: u64) {
        while self.next_ns <= t_ns {
            let boundary = self.next_ns;
            self.snapshot_at(registry, boundary);
            self.next_ns = boundary.saturating_add(self.config.cadence_ns.max(1));
        }
    }
}

/// The bounded, deterministic event recorder behind `TELEMETRY_report.json`
/// and the Perfetto traces.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    origin_ns: u64,
    decisions: Ring<DecisionRecord>,
    links: Ring<LinkSample>,
    batches: Ring<BatchRecord>,
    trainer: Ring<TrainerEvent>,
    search: Ring<SearchEvent>,
    registry: Registry,
    live: Option<LiveLayer>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(RecorderConfig::default())
    }
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new(_config: RecorderConfig) -> FlightRecorder {
        FlightRecorder {
            origin_ns: 0,
            decisions: Ring::new(EVENT_CAPACITY),
            links: Ring::new(EVENT_CAPACITY),
            batches: Ring::new(EVENT_CAPACITY),
            trainer: Ring::new(TRAINER_CAPACITY),
            search: Ring::new(SEARCH_CAPACITY),
            registry: Registry::new(),
            live: None,
        }
    }

    /// A recorder with the live observability layer enabled: windowed
    /// registry feeds, cadence snapshots, and the SLO watchdog.
    pub fn with_live(config: RecorderConfig, live: LiveConfig) -> FlightRecorder {
        let mut rec = FlightRecorder::new(config);
        rec.live = Some(LiveLayer {
            next_ns: live.cadence_ns.max(1),
            snapshots: Ring::new(SNAPSHOT_CAPACITY),
            watchdog: SloWatchdog::new(&live.label, live.slos.clone()),
            wall_latency: RollingWindow::new(live.window()),
            last_link_drops: BTreeMap::new(),
            config: live,
        });
        rec
    }

    /// Shifts `t_ns` by the origin and, with the live layer on, emits
    /// every snapshot boundary the shifted time has reached.
    fn arrive(&mut self, t_ns: u64) -> u64 {
        let t = t_ns + self.origin_ns;
        if let Some(live) = self.live.as_mut() {
            live.roll(&mut self.registry, t);
        }
        t
    }

    /// Flushes the live layer at end of run: emits every remaining
    /// cadence boundary up to `t_ns`, and guarantees at least one
    /// snapshot by taking one at `t_ns` if the run was shorter than the
    /// cadence. `t_ns` is sim time (origin applied like any event).
    pub fn finish(&mut self, t_ns: u64) {
        let t = self.arrive(t_ns);
        if let Some(live) = self.live.as_mut() {
            if live.snapshots.seen() == 0 && t > 0 {
                live.snapshot_at(&mut self.registry, t);
            }
        }
    }

    /// Feeds one wall-clock decision latency into the serving-only
    /// latency window (read by the p99-latency SLO, never exported in
    /// deterministic artifacts). `t_ns` is the sim time of the batch.
    pub fn record_wall_latency_ns(&mut self, t_ns: u64, latency_ns: u64) {
        let t = t_ns + self.origin_ns;
        if let Some(live) = self.live.as_mut() {
            live.wall_latency.add(t, latency_ns);
        }
    }

    /// Retained snapshots, oldest first (empty when the live layer is
    /// off).
    pub fn live_snapshots(&self) -> Vec<MetricsSnapshot> {
        self.live
            .as_ref()
            .map(|l| l.snapshots.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The retained snapshot stream as append-only JSONL.
    pub fn live_metrics_jsonl(&self) -> String {
        metrics_jsonl(&self.live_snapshots())
    }

    /// Prometheus-style exposition of the most recent snapshot (empty
    /// when the live layer is off or no snapshot has been taken).
    pub fn live_exposition(&self) -> String {
        self.live
            .as_ref()
            .and_then(|l| l.snapshots.iter().next_back())
            .map(|s| s.to_prometheus())
            .unwrap_or_default()
    }

    /// The watchdog's alert ledger, when the live layer is enabled.
    pub fn alert_ledger(&self) -> Option<&AlertLedger> {
        self.live.as_ref().map(|l| l.watchdog.ledger())
    }

    /// Whether any SLO is currently in breach.
    pub fn breach_active(&self) -> bool {
        self.live
            .as_ref()
            .is_some_and(|l| l.watchdog.breach_active())
    }

    /// Shifts the sim-time origin: every timestamped event recorded after
    /// the call gets `origin_ns` added to its `t_ns`. Harnesses that
    /// replay several runs into one recorder advance the origin between
    /// replays (each run's sim clock restarts at zero), keeping the
    /// merged timeline monotone — a pure relabeling, so determinism and
    /// no-op equivalence are untouched.
    pub fn set_origin(&mut self, origin_ns: u64) {
        self.origin_ns = origin_ns;
    }

    /// The metrics registry fed by the event hooks.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The decision stream.
    pub fn decisions(&self) -> &Ring<DecisionRecord> {
        &self.decisions
    }

    /// The link-sample stream.
    pub fn links(&self) -> &Ring<LinkSample> {
        &self.links
    }

    /// The batch-dispatch stream.
    pub fn batches(&self) -> &Ring<BatchRecord> {
        &self.batches
    }

    /// The trainer-event stream.
    pub(crate) fn trainer_events(&self) -> &Ring<TrainerEvent> {
        &self.trainer
    }

    /// The search-event stream.
    pub(crate) fn search_events(&self) -> &Ring<SearchEvent> {
        &self.search
    }
}

impl Recorder for FlightRecorder {
    fn record_decision(&mut self, r: &DecisionRecord) {
        self.registry.inc("decisions_total", 1);
        if r.qc_sat.is_some() {
            self.registry.inc("decisions_certified_total", 1);
        }
        if r.fallback {
            self.registry.inc("decisions_fallback_total", 1);
        }
        self.registry.observe("decision_qdelay_ns", r.qdelay_ns);
        let mut r = r.clone();
        r.t_ns = self.arrive(r.t_ns);
        if let Some(live) = &self.live {
            let w = live.config.window();
            self.registry.inc_windowed("decisions_total", w, r.t_ns, 1);
            if r.fallback {
                self.registry
                    .inc_windowed("decisions_fallback_total", w, r.t_ns, 1);
            }
            if let Some(q) = r.qc_sat {
                let ppm = (q.clamp(0.0, 1.0) * 1e6).round() as u64;
                self.registry.observe_windowed("qc_sat_ppm", w, r.t_ns, ppm);
            }
        }
        self.decisions.push(r);
    }

    fn record_link(&mut self, s: &LinkSample) {
        self.registry.inc("link_samples_total", 1);
        self.registry.observe("link_queue_bytes", s.queue_bytes);
        let mut s = *s;
        s.t_ns = self.arrive(s.t_ns);
        if let Some(live) = self.live.as_mut() {
            let w = live.config.window();
            // Drops arrive as per-run cumulative counts; the window
            // wants deltas. Origin shifts splice replays, where the
            // cumulative count restarts — hence the saturating delta.
            let prev = live.last_link_drops.insert(s.link, s.drops).unwrap_or(0);
            let delta = s.drops.saturating_sub(prev);
            self.registry
                .inc_windowed("link_samples_total", w, s.t_ns, 1);
            self.registry.inc_windowed("link_drops", w, s.t_ns, delta);
        }
        self.links.push(s);
    }

    fn record_batch(&mut self, b: &BatchRecord) {
        self.registry.inc("batches_total", 1);
        self.registry.observe("decisions_per_batch", b.size);
        let mut b = *b;
        b.t_ns = self.arrive(b.t_ns);
        self.batches.push(b);
    }

    fn record_trainer(&mut self, e: &TrainerEvent) {
        self.registry.inc("trainer_events_total", 1);
        self.trainer.push(e.clone());
    }

    fn record_search(&mut self, e: &SearchEvent) {
        self.registry.inc("search_generations_total", 1);
        self.search.push(*e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;

    fn decision(t_ns: u64) -> DecisionRecord {
        DecisionRecord {
            t_ns,
            flow: 0,
            state_mean: 0.1,
            state_min: -1.0,
            state_max: 1.0,
            action: 0.3,
            action_clamped: 0.3,
            cwnd: 10.0,
            qdelay_ns: 2_000_000,
            qc_sat: Some(0.9),
            fallback: false,
        }
    }

    #[test]
    fn rings_bound_capacity_and_count_exactly() {
        let mut rec = FlightRecorder::default();
        let offered = EVENT_CAPACITY as u64 + 6;
        for i in 0..offered {
            rec.record_decision(&decision(i));
        }
        let kept = rec.decisions();
        assert_eq!(kept.seen(), offered);
        assert_eq!(kept.dropped(), 6);
        assert_eq!(kept.len(), EVENT_CAPACITY);
        // Oldest evicted first: the ring holds the most recent events.
        assert_eq!(kept.iter().next().unwrap().t_ns, 6);
        assert_eq!(kept.iter().next_back().unwrap().t_ns, offered - 1);
        // Counters still count every event.
        assert_eq!(rec.registry().counter("decisions_total"), offered);
        assert_eq!(rec.registry().counter("decisions_certified_total"), offered);
        assert_eq!(rec.registry().counter("decisions_fallback_total"), 0);
    }

    #[test]
    fn origin_offsets_timestamped_events_only() {
        let mut rec = FlightRecorder::default();
        rec.record_decision(&decision(5));
        rec.set_origin(1_000);
        rec.record_decision(&decision(5));
        rec.record_link(&LinkSample {
            t_ns: 7,
            link: 0,
            queue_bytes: 1,
            drops: 0,
            utilization: 0.5,
        });
        let kept: Vec<u64> = rec.decisions().iter().map(|d| d.t_ns).collect();
        assert_eq!(kept, vec![5, 1_005]);
        assert_eq!(rec.links().iter().next().unwrap().t_ns, 1_007);
        // Counters and histograms are origin-independent.
        assert_eq!(rec.registry().counter("decisions_total"), 2);
    }

    #[test]
    fn batch_records_feed_the_size_histogram() {
        let mut rec = FlightRecorder::default();
        for (t, size) in [(0u64, 1u64), (20, 8), (40, 32)] {
            rec.record_batch(&BatchRecord {
                t_ns: t * 1_000_000,
                size,
            });
        }
        assert_eq!(rec.batches().seen(), 3);
        assert_eq!(rec.batches().dropped(), 0);
        assert_eq!(rec.registry().counter("batches_total"), 3);
        let hist = rec
            .registry()
            .histogram("decisions_per_batch")
            .expect("histogram recorded");
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.min(), 1);
        assert!(hist.max() >= 32);
    }

    #[test]
    fn live_layer_snapshots_on_sim_cadence() {
        use crate::live::LiveConfig;
        let live = LiveConfig::default()
            .with_cadence(10_000_000, 4)
            .with_label("unit");
        let mut rec = FlightRecorder::with_live(RecorderConfig::default(), live);
        // Decisions at 2ms, 12ms, 25ms: boundaries 10ms and 20ms fire
        // as later events arrive.
        for t in [2_000_000u64, 12_000_000, 25_000_000] {
            rec.record_decision(&decision(t));
        }
        assert_eq!(rec.live_snapshots().len(), 2);
        rec.finish(30_000_000);
        let snaps = rec.live_snapshots();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].t_ns, 10_000_000);
        assert_eq!(snaps[2].t_ns, 30_000_000);
        assert_eq!(snaps[0].seq, 0);
        // The first window saw exactly the first decision.
        let wc = &snaps[0].window_counters;
        let decisions = wc.iter().find(|w| w.name == "decisions_total").unwrap();
        assert_eq!(decisions.window_sum, 1);
        // JSONL: one line per snapshot, all schema-valid.
        let jsonl = rec.live_metrics_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            crate::live::MetricsSnapshot::from_json(line).expect("valid snapshot");
        }
        assert!(rec.live_exposition().contains("canopy_decisions_total 3\n"));
    }

    #[test]
    fn live_layer_runs_the_watchdog_and_flags_breaches() {
        use crate::live::{LiveConfig, SloKind, SloSpec};
        let live = LiveConfig::default()
            .with_cadence(10_000_000, 4)
            .with_label("unit")
            .with_slo(SloSpec::new("fallback", SloKind::MaxFallbackRate, 0.1));
        let mut rec = FlightRecorder::with_live(RecorderConfig::default(), live);
        let mut d = decision(2_000_000);
        d.fallback = true;
        rec.record_decision(&d);
        assert!(!rec.breach_active(), "no boundary crossed yet");
        rec.finish(10_000_000);
        assert!(rec.breach_active());
        let ledger = rec.alert_ledger().unwrap();
        ledger.validate().expect("ledger valid");
        assert_eq!(ledger.alerts.len(), 1);
        assert_eq!(ledger.alerts[0].slo, "fallback");
        assert!(ledger.alerts[0].active);
        assert_eq!(ledger.alerts[0].t_ns, 10_000_000);
    }

    #[test]
    fn live_recording_is_identical_across_event_interleavings() {
        use crate::live::{LiveConfig, SloKind, SloSpec};
        let mk = || {
            FlightRecorder::with_live(
                RecorderConfig::default(),
                LiveConfig::default()
                    .with_cadence(10_000_000, 2)
                    .with_slo(SloSpec::new("drops", SloKind::MaxLinkDropRate, 0.5)),
            )
        };
        let link = |t: u64, drops: u64| LinkSample {
            t_ns: t,
            link: 0,
            queue_bytes: 100,
            drops,
            utilization: 0.9,
        };
        // Same multiset of same-timestamp events, two arrival orders.
        let mut a = mk();
        a.record_decision(&decision(5_000_000));
        a.record_link(&link(5_000_000, 2));
        a.record_decision(&decision(15_000_000));
        a.finish(20_000_000);
        let mut b = mk();
        b.record_link(&link(5_000_000, 2));
        b.record_decision(&decision(5_000_000));
        b.record_decision(&decision(15_000_000));
        b.finish(20_000_000);
        assert_eq!(a.live_metrics_jsonl(), b.live_metrics_jsonl());
        assert_eq!(a.alert_ledger(), b.alert_ledger());
        assert_eq!(a.live_exposition(), b.live_exposition());
    }

    #[test]
    fn wall_latency_feeds_the_latency_slo_but_not_snapshots() {
        use crate::live::{LiveConfig, SloKind, SloSpec};
        let live = LiveConfig::default()
            .with_cadence(10_000_000, 4)
            .with_slo(SloSpec::new(
                "p99",
                SloKind::MaxP99DecisionLatencyNs,
                1_000.0,
            ));
        let mut rec = FlightRecorder::with_live(RecorderConfig::default(), live);
        rec.record_wall_latency_ns(2_000_000, 50_000);
        rec.record_decision(&decision(2_000_000));
        rec.finish(10_000_000);
        assert!(rec.breach_active());
        // The wall histogram never reaches the exported snapshot.
        let snap = &rec.live_snapshots()[0];
        assert!(snap
            .window_histograms
            .iter()
            .all(|w| w.name != "wall_latency"));
        assert!(!snap.to_json().contains("50000"));
    }

    #[test]
    fn noop_recorder_records_nothing() {
        let handle = shared(NoopRecorder);
        handle.borrow_mut().record_decision(&decision(1));
        handle.borrow_mut().record_link(&LinkSample {
            t_ns: 1,
            link: 0,
            queue_bytes: 0,
            drops: 0,
            utilization: 0.0,
        });
    }

    #[test]
    fn shared_flight_recorder_round_trips() {
        let rec = Rc::new(RefCell::new(FlightRecorder::default()));
        let handle: SharedRecorder = rec.clone();
        handle.borrow_mut().record_search(&SearchEvent {
            generation: 0,
            evaluations: 8,
            batch_best: 0.4,
            best_badness: 0.4,
        });
        assert_eq!(rec.borrow().search_events().len(), 1);
        assert_eq!(
            rec.borrow().registry().counter("search_generations_total"),
            1
        );
    }
}
