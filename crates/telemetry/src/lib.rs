//! Deterministic flight recorder and metrics layer.
//!
//! Every subsystem of the reproduction — the Orca decision loop, the
//! network simulator, the trainer, the adversarial search — can explain
//! *what* happened only through end-of-run aggregates. This crate adds the
//! missing middle layer: structured, bounded, bitwise-deterministic event
//! recordings plus a metrics registry, with near-zero overhead when no
//! recorder is attached.
//!
//! Design rules, in order:
//!
//! 1. **Determinism.** Events are timestamped in *simulation* time
//!    (nanoseconds) and recorded on coordinator threads only — nothing
//!    reads a wall clock or an RNG — so a recording is bitwise identical
//!    across runs and at any `CANOPY_THREADS`.
//!    Wall-clock measurements exist only in the perf harness's own
//!    histograms.
//! 2. **Zero cost when disabled.** Each instrumented host — the decision
//!    pool (the one place a decision is recorded), the runners, the
//!    trainer, the optimizer — holds one `Option<SharedRecorder>`;
//!    disabled means one `None` branch per dispatch. The [`NoopRecorder`]
//!    exists for equivalence tests proving that an attached-but-inert
//!    recorder changes nothing bitwise.
//! 3. **Bounded.** The [`FlightRecorder`] keeps each event stream —
//!    decisions, link samples, batch dispatches, trainer events and
//!    search generations — in a [`Ring`] of fixed capacity that evicts
//!    its oldest event when full, so long runs cannot grow memory without
//!    bound; every event is kept until then, and totals are still counted
//!    exactly (`seen`, and `dropped` = evicted).
//!
//! Two exporters turn a recording into artifacts: the canonical-JSON
//! [`TelemetryReport`] (`TELEMETRY_report.json`, schema
//! `canopy-telemetry/v4`) and a Chrome-trace/Perfetto JSON view
//! ([`chrome_trace`]) so a decision timeline can be opened in
//! `ui.perfetto.dev` or `chrome://tracing`.
//!
//! The [`live`] module layers streaming observability on top of the same
//! machinery: rolling-window registry feeds, cadence-driven
//! [`MetricsSnapshot`]s (JSONL + Prometheus-style exposition, schema
//! `canopy-live-metrics/v1`), and an SLO watchdog with a canonical alert
//! ledger (schema `canopy-alerts/v1`). Every artifact is an [`Artifact`].
//!
//! This crate sits below `canopy_netsim` in the dependency order, so it
//! speaks raw nanoseconds and integer ids rather than the simulator's
//! `Time`/`FlowId`/`LinkId` newtypes.

pub mod artifact;
pub mod chrome;
pub mod event;
pub mod live;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use artifact::{Artifact, ArtifactError};
pub use chrome::chrome_trace;
pub use event::{BatchRecord, DecisionRecord, LinkSample, SearchEvent, TrainerEvent};
pub use live::{
    AlertLedger, AlertRecord, LiveConfig, MetricsSnapshot, SloKind, SloSpec, WindowCounterEntry,
    WindowHistogramEntry,
};
pub use metrics::{
    HistogramSummary, LogHistogram, Registry, RollingWindow, WindowAggregate, WindowSpec,
};
pub use recorder::{
    shared, FlightRecorder, NoopRecorder, Recorder, RecorderConfig, Ring, SharedRecorder,
    LINK_CADENCE_NS,
};
pub use report::{CounterEntry, TelemetryReport};
