//! The figure registry: every table and figure of the paper's evaluation
//! (Figs. 1–2, 5–17, Table 4) plus the beyond-the-paper ablations, behind
//! one `figures` binary (usage: `src/bin/figures.rs`).
//!
//! There is one way to run a figure. Every single-flow evaluation condition
//! is a [`ScenarioSpec`] and every cell runs through
//! [`canopy_scenarios::run_matrix`] on the `DriverPool`; the "grid →
//! aggregate table" figures declare labelled schemes × conditions × metric
//! columns and share `grid_rows`. The per-decision series of Figs. 1–2
//! step the pool of a spec's episode (`decision_series`); the multi-flow
//! Figs. 14–15 use `eval::run_multiflow` (the same pool, the same
//! `canopy_core::world` builder); only `harvest_contexts` touches
//! the training environment, to collect decision contexts for the
//! certificate-distribution figures.

use std::collections::BTreeMap;
use std::time::Instant;

use canopy_core::driver::DriverPool;
use canopy_core::env::{CcEnv, EnvConfig, NoiseConfig};
use canopy_core::eval::{
    friendliness_ratio, jain_index, run_multiflow, QcEval, RunMetrics, Scheme,
};
use canopy_core::models::{trainer_config, ModelKind, TrainBudget, TrainedModel};
use canopy_core::obs::{StateLayout, DELAY_IDX, THR_IDX};
use canopy_core::property::{Property, PropertyParams};
use canopy_core::trainer::{EpochStats, Trainer};
use canopy_core::verifier::{AbstractDomain, StepContext, Verifier};
use canopy_core::world::{self, Controller, FlowSpec};
use canopy_netsim::{BandwidthTrace, ImpairmentSchedule, Impairments, LinkConfig, Time};
use canopy_scenarios::{
    episode_spec, run_matrix, run_scenario, ScenarioSpec, SpecError, TraceProgram,
};
use canopy_traces::realworld::{paths, PathClass, PathConfig};
use canopy_traces::{cellular, synthetic};

use crate::{
    f1, f3, fig11_specs, flag_value, mean_std, model, resolve_scheme, HarnessOpts, DEFAULT_SEED,
};

/// One regenerable artifact of the evaluation.
pub struct Figure {
    /// The id selecting it on the command line (`fig05`, `table04`, …).
    pub id: &'static str,
    /// What it shows, in one line (`--list`).
    pub what: &'static str,
    /// The paper's headline claim for this artifact — or, for entries
    /// beyond the paper, the expected finding — printed verbatim after the
    /// tables so measured and claimed numbers sit side by side.
    pub paper: &'static str,
    run: fn(&HarnessOpts),
}

impl Figure {
    /// Regenerates the artifact on stdout.
    pub fn run(&self, opts: &HarnessOpts) {
        (self.run)(opts);
        println!("\n{}", self.paper);
    }
}

/// Looks a figure up by id.
pub fn find(id: &str) -> Option<&'static Figure> {
    REGISTRY.iter().find(|f| f.id == id)
}

/// Every figure, in paper order.
pub static REGISTRY: &[Figure] = &[
    Figure {
        id: "fig01",
        what: "Orca vs Canopy sending rate and cwnd under ±5% observation noise",
        paper: "paper: Canopy's rate is essentially unchanged under noise; Orca's collapses.",
        run: fig01,
    },
    Figure {
        id: "fig02",
        what: "Orca entering critically bad states on a high-BDP, deep-buffer path",
        paper: "paper: Orca repeatedly forces cwnd below TCP's suggestion in good conditions;\n\
                Canopy (trained with P3/P4) avoids those states and keeps its rate up.",
        run: fig02,
    },
    Figure {
        id: "fig05",
        what: "QC_sat of the shallow/deep Canopy models vs Orca at their trained buffers",
        paper: "paper: Canopy 0.72-0.77 (shallow) / 0.42-0.76 (deep); Orca 0.25-0.67 / 0.15-0.66",
        run: fig05,
    },
    Figure {
        id: "fig06",
        what: "certified-component distribution for the shallow-buffer properties (P1, P2)",
        paper:
            "paper: Canopy's components sit on the desirable side of the red line far more often.",
        run: fig06,
    },
    Figure {
        id: "fig07",
        what: "QC_sat for the robustness property (P5), Canopy vs Orca, 2 BDP",
        paper: "paper: Canopy up to 0.81 (real) / 0.68 (synthetic); Orca below 0.05.",
        run: fig07,
    },
    Figure {
        id: "fig08",
        what: "certified-component distribution for the robustness property (P5)",
        paper: "paper: Canopy bounds the change fraction inside the band; Orca swings far outside.",
        run: fig08,
    },
    Figure {
        id: "fig09",
        what: "shallow-buffer (1 BDP) utilization and delay: Canopy, Orca, TCP baselines",
        paper: "paper: Canopy improves utilization over Orca by 4% (synthetic) / 10% (cellular)\n\
                at 11-33% higher p95 delay; Canopy ≈ Cubic utilization, smaller delays than Cubic.",
        run: |o| buffer_perf("Figure 9", ModelKind::Shallow, 1.0, o),
    },
    Figure {
        id: "fig10",
        what: "deep-buffer (5 BDP) utilization and delay: Canopy, Orca, TCP baselines",
        paper: "paper: Canopy cuts p95 delay 28% (synthetic) / 61% (cellular) vs Orca;\n\
                57-74% smaller p95 than Cubic (bufferbloat) at comparable utilization.",
        run: |o| buffer_perf("Figure 10", ModelKind::Deep, 5.0, o),
    },
    Figure {
        id: "fig11",
        what: "% change in utilization and delay under ±5% delay noise, per trace",
        paper: "paper: Orca suffers up to an 18% utilization drop; Canopy at most 2%.",
        run: fig11,
    },
    Figure {
        id: "fig12",
        what: "normalized throughput and delay on the nine-region global-testbed paths",
        paper: "paper: Canopy-shallow beats Orca on bandwidth; Canopy-deep beats Orca on delay.",
        run: fig12,
    },
    Figure {
        id: "fig13",
        what: "runtime QC-guided fallback to Cubic under varying QC_sat thresholds",
        paper: "paper: fallback lifts Orca's utilization; Canopy barely changes (rarely triggers).",
        run: fig13,
    },
    Figure {
        id: "fig14",
        what: "friendliness: throughput ratio against competing Cubic flows, and across RTTs",
        paper: "paper: Canopy's ratios track Orca's, which in turn track Cubic's (all rely on\n\
                Cubic for fine-grained control), so property training does not hurt friendliness.",
        run: fig14,
    },
    Figure {
        id: "fig15",
        what: "fairness and convergence of staggered homogeneous flows (Jain index)",
        paper: "paper: Canopy-shallow converges like Orca; Canopy-deep converges more slowly\n\
                (its properties target deep buffers) but reaches fairness in the limit.",
        run: fig15,
    },
    Figure {
        id: "fig16",
        what: "sensitivity to the component count N and the verifier weight λ",
        paper: "paper: N=1 gives loose certificates (1.88× higher p95 delay); N=10 tightens\n\
                delays another 27% but costs utilization and compute; larger λ trades\n\
                utilization (−8 to −10%) for smaller delays (−32 to −42%). N5/λ0.25 balances.",
        run: fig16,
    },
    Figure {
        id: "fig17",
        what: "training curves: raw, verifier and total reward per epoch (appendix A.1)",
        paper:
            "paper: Canopy gains verifier reward without significantly sacrificing raw reward;\n\
                Orca's verifier reward decays as it optimizes raw reward alone.",
        run: fig17,
    },
    Figure {
        id: "table04",
        what: "training overhead: epoch rate vs certificate components (appendix A.2)",
        paper: "paper (256 actors): Orca 29.6, Canopy N=1 17.7, N=5 6.2, N=10 3.4 epochs/s —\n\
                the verifier cost grows linearly in N; the ordering (and roughly the ratios)\n\
                should reproduce here at single-process scale.",
        run: table04,
    },
    Figure {
        id: "ablation_domains",
        what: "beyond the paper: certificate precision and cost across abstract domains",
        paper: "finding: zonotopes tighten bounds at similar N; adaptive refinement buys\n\
                accuracy only where the bound is undecided. The paper's box/N=5 choice is a\n\
                reasonable cost/precision point, consistent with its §6.8 sensitivity study.",
        run: ablation_domains,
    },
    Figure {
        id: "ablation_mechanism",
        what: "beyond the paper: QC reward term vs certified-bound gradient, on and off",
        paper: "finding: with an off-policy critic, the (action-independent) QC reward alone\n\
                cannot steer the policy; the certified gradient is the mechanism that moves\n\
                QC_sat, and the reward term tempers the average-case/worst-case trade-off.",
        run: ablation_mechanism,
    },
    Figure {
        id: "ext_random_loss",
        what: "beyond the paper: utilization under non-congestive random loss",
        paper: "expected shape: loss-based kernels (cubic/newreno) collapse as p grows;\n\
                BBR shrugs off random loss; learned schemes inherit Cubic's backbone but the\n\
                agent's window multiplier can partially mask non-congestive backoff.",
        run: ext_random_loss,
    },
];

// --- Tables, conditions and schemes -----------------------------------------

/// The propagation RTT of every single-flow condition but the testbed
/// paths and Fig. 2's high-BDP link.
const RTT: Time = Time::from_millis(40);

/// Prints a table's title from a format string.
macro_rules! title {
    ($($arg:tt)*) => { println!("\n# {}\n", format_args!($($arg)*)) };
}

/// Prints a table's header row from a ` | `-separated format string.
macro_rules! header {
    ($($arg:tt)*) => {{
        let columns = format!($($arg)*);
        println!("| {columns} |\n|{}", "---|".repeat(columns.split(" | ").count()));
    }};
}

/// Prints one table row from a ` | `-separated format string.
macro_rules! row {
    ($($arg:tt)*) => { println!("| {} |", format_args!($($arg)*)) };
}

fn joined(cells: impl Iterator<Item = String>) -> String {
    cells.collect::<Vec<_>>().join(" | ")
}

/// Indices of roughly `rows` evenly spaced entries out of `len`.
fn strided(len: usize, rows: usize) -> impl Iterator<Item = usize> {
    (0..len).step_by((len / rows).max(1))
}

/// One evaluation trace as a single-flow condition at this run's seed and
/// horizon.
fn condition(trace: &str, buffer_bdp: f64, opts: &HarnessOpts) -> ScenarioSpec {
    let mut spec = ScenarioSpec::from_eval_trace(trace, opts.seed);
    spec.buffer_bdp = buffer_bdp;
    spec.duration = opts.eval_duration();
    spec
}

fn conditions(traces: &[BandwidthTrace], buffer_bdp: f64, opts: &HarnessOpts) -> Vec<ScenarioSpec> {
    let spec = |t: &BandwidthTrace| condition(t.name(), buffer_bdp, opts);
    traces.iter().map(spec).collect()
}

/// The first `full` synthetic traces (`smoke` of them under `--smoke`).
fn synthetic_head(opts: &HarnessOpts, smoke: usize, full: usize) -> Vec<BandwidthTrace> {
    let mut all = synthetic::all(opts.seed);
    all.truncate(if opts.smoke { smoke } else { full });
    all
}

/// The two trace sets of §6: synthetic (the first `smoke_synthetic` under
/// `--smoke`) and real-world cellular.
fn trace_sets(opts: &HarnessOpts, smoke_synthetic: usize) -> [Vec<BandwidthTrace>; 2] {
    let synthetic = synthetic_head(opts, smoke_synthetic, usize::MAX);
    [synthetic, cellular::all(opts.seed)]
}

fn learned(kind: ModelKind, opts: &HarnessOpts) -> Scheme {
    Scheme::Learned(model(kind, opts).0)
}

/// The cached models of `kinds`, then the classic kernels `baselines`.
fn schemes(kinds: &[ModelKind], baselines: &[&str], opts: &HarnessOpts) -> Vec<Scheme> {
    let learned = kinds.iter().map(|&kind| learned(kind, opts));
    let classic = baselines.iter().map(|&name| Scheme::Baseline(name.into()));
    learned.chain(classic).collect()
}

/// Certificate evaluation with `full` components (`smoke` under `--smoke`).
fn qc_eval(properties: Vec<Property>, opts: &HarnessOpts, smoke: usize, full: usize) -> QcEval {
    let n_components = if opts.smoke { smoke } else { full };
    QcEval {
        properties,
        n_components,
    }
}

/// Trains a variant of the shallow-buffer model; returns `label` extended
/// with its final training-time QC feedback, and the model as a scheme.
fn trained_variant(
    opts: &HarnessOpts,
    label: &str,
    (n_components, lambda, qc_grad_weight): (usize, f64, f64),
) -> (String, Scheme) {
    let mut cfg = trainer_config(ModelKind::Shallow, opts.seed, opts.budget());
    (cfg.n_components, cfg.lambda, cfg.qc_grad_weight) = (n_components, lambda, qc_grad_weight);
    cfg.name = format!("variant-{label}");
    let result = Trainer::new(cfg).train();
    let train_qc = result.history.last().map_or(0.0, |e| e.verifier_reward);
    let label = format!("{label} | {train_qc:.3}");
    (label, Scheme::Learned(result.model))
}

// --- The shared grid runner --------------------------------------------------

/// A per-run metric and how its table cells are formatted.
#[derive(Clone, Copy)]
struct Metric(fn(&RunMetrics) -> f64, fn(f64) -> String);

const UTIL: Metric = Metric(|r| r.utilization, f3);
const AVG_QDELAY: Metric = Metric(|r| r.avg_qdelay_ms, f1);
const P95_QDELAY: Metric = Metric(|r| r.p95_qdelay_ms, f1);
const LOSSES: Metric = Metric(|r| r.losses as f64, f1);
const FALLBACK_RATE: Metric = Metric(|r| r.fallback_rate.unwrap_or(0.0), f3);
const QC_SAT: Metric = Metric(|r| r.qc_sat.expect("QC evaluation was requested"), f3);

/// A table column: the mean or the standard deviation of a metric over a
/// row's runs.
#[derive(Clone, Copy)]
enum Column {
    Mean(Metric),
    Std(Metric),
}
use Column::{Mean, Std};

/// Every scheme over every condition through the scenario-matrix runner
/// (one `DriverPool` engine, fanned over `CANOPY_THREADS`):
/// `[scheme][condition]` primary-flow metrics.
fn run_cells(
    schemes: &[Scheme],
    specs: &[ScenarioSpec],
    qc: Option<&QcEval>,
) -> Vec<Vec<RunMetrics>> {
    let results = run_matrix(schemes, specs, qc).expect("figure conditions are valid specs");
    let mut primary = results.into_iter().map(|m| m.primary);
    let per_scheme = |_| primary.by_ref().take(specs.len()).collect();
    schemes.iter().map(per_scheme).collect()
}

/// The "grid → aggregate table" runner: runs every labelled scheme over
/// every condition and prints one row per scheme — its label, then each
/// column's mean or standard deviation over the conditions.
fn grid_rows(
    schemes: &[(String, Scheme)],
    specs: &[ScenarioSpec],
    qc: Option<&QcEval>,
    columns: &[Column],
) {
    let (labels, schemes): (Vec<_>, Vec<_>) = schemes.iter().cloned().unzip();
    for (label, runs) in labels.iter().zip(run_cells(&schemes, specs, qc)) {
        let cell = |column: &Column| {
            let (Mean(Metric(value, fmt)) | Std(Metric(value, fmt))) = *column;
            let (mean, std) = mean_std(&runs.iter().map(value).collect::<Vec<_>>());
            fmt(if matches!(column, Mean(_)) { mean } else { std })
        };
        row!("{label} | {}", joined(columns.iter().map(cell)));
    }
}

// --- Grid figures ------------------------------------------------------------

/// One QC_sat row (mean ± std over the trace set) per trace set and model
/// — the `canopy` model, printed as `canopy_name`, then Orca — certified
/// against `properties` at `buffer_bdp`; `label(model, set)` renders the
/// row's leading cells.
fn qc_sat_rows(
    (canopy, canopy_name): (ModelKind, &str),
    properties: Vec<Property>,
    buffer_bdp: f64,
    label: impl Fn(&str, &str) -> String,
    opts: &HarnessOpts,
) {
    let qc = qc_eval(properties, opts, 10, 50);
    let models = schemes(&[canopy, ModelKind::Orca], &[], opts);
    for (set, traces) in ["synthetic", "real-world"].iter().zip(trace_sets(opts, 4)) {
        let row = |(name, model): (&str, &Scheme)| (label(name, set), model.clone());
        let rows: Vec<_> = [canopy_name, "orca"]
            .into_iter()
            .zip(&models)
            .map(row)
            .collect();
        let specs = conditions(&traces, buffer_bdp, opts);
        grid_rows(&rows, &specs, Some(&qc), &[Mean(QC_SAT), Std(QC_SAT)]);
    }
}

/// Figure 5: Canopy at its trained buffer (0.5 / 5 BDP) and property set
/// vs Orca, 50 certificate components.
fn fig05(opts: &HarnessOpts) {
    let params = PropertyParams::default();
    title!("Figure 5: QC_sat by buffer regime (mean ± std over traces)");
    header!("model | properties | buffer | trace set | QC_sat mean | QC_sat std");
    let regimes = [
        (ModelKind::Shallow, "shallow (P1-2)"),
        (ModelKind::Deep, "deep (P3-4)"),
    ];
    for (kind, regime) in regimes {
        let bdp = kind.buffer_bdp();
        let label = |model: &str, set: &str| format!("{model} | {regime} | {bdp} BDP | {set}");
        qc_sat_rows((kind, "canopy"), kind.properties(&params), bdp, label, opts);
    }
}

/// Figure 7: the robustness model and Orca certified against P5.
fn fig07(opts: &HarnessOpts) {
    title!("Figure 7: robustness-property QC_sat (mean ± std over traces), 2 BDP");
    header!("model | trace set | QC_sat mean | QC_sat std");
    let properties = Property::robust_set(&PropertyParams::default());
    let label = |model: &str, set: &str| format!("{model} | {set}");
    qc_sat_rows(
        (ModelKind::Robust, "canopy (P5)"),
        properties,
        2.0,
        label,
        opts,
    );
}

/// Figures 9 and 10: one Canopy model, Orca and the TCP baselines at one
/// buffer depth, over the synthetic and the cellular traces.
fn buffer_perf(figure: &str, canopy: ModelKind, buffer_bdp: f64, opts: &HarnessOpts) {
    let kernels = ["cubic", "newreno", "vegas", "bbr"];
    let schemes = schemes(&[canopy, ModelKind::Orca], &kernels, opts);
    let schemes: Vec<_> = schemes.into_iter().map(|s| (s.name(), s)).collect();
    for (set, traces) in ["synthetic", "cellular"].iter().zip(trace_sets(opts, 3)) {
        title!("{figure} ({set} traces), {buffer_bdp} BDP buffer");
        header!("scheme | utilization | ± | avg qdelay (ms) | p95 qdelay (ms) | loss/run");
        let columns = [
            Mean(UTIL),
            Std(UTIL),
            Mean(AVG_QDELAY),
            Mean(P95_QDELAY),
            Mean(LOSSES),
        ];
        let specs = conditions(&traces, buffer_bdp, opts);
        grid_rows(&schemes, &specs, None, &columns);
    }
}

/// Figure 13: at each decision the controller's certificate is compared
/// against the threshold; below it, the flow defers to TCP Cubic for that
/// interval (threshold 0 = monitor off).
fn fig13(opts: &HarnessOpts) {
    let params = PropertyParams::default();
    let traces = synthetic_head(opts, 2, 8);
    let regimes = [
        ("deep", 5.0, ModelKind::Deep),
        ("shallow", 1.0, ModelKind::Shallow),
    ];
    for (regime, buffer_bdp, kind) in regimes {
        let properties = kind.properties(&params);
        title!("Figure 13 ({regime} buffer, {buffer_bdp} BDP)");
        header!("scheme | threshold | utilization | p95 qdelay (ms) | fallback rate");
        let mut schemes = Vec::new();
        for (name, kind) in [("orca", ModelKind::Orca), ("canopy", kind)] {
            let model = model(kind, opts).0;
            for threshold in [0.0, 0.25, 0.5, 0.75, 0.9] {
                let scheme = match threshold > 0.0 {
                    false => Scheme::Learned(model.clone()),
                    true => Scheme::LearnedFallback {
                        model: model.clone(),
                        properties: properties.clone(),
                        threshold,
                        n_components: if opts.smoke { 5 } else { 10 },
                    },
                };
                schemes.push((format!("{name} | {threshold:.2}"), scheme));
            }
        }
        let columns = [Mean(UTIL), Mean(P95_QDELAY), Mean(FALLBACK_RATE)];
        let specs = conditions(&traces, buffer_bdp, opts);
        grid_rows(&schemes, &specs, None, &columns);
    }
}

/// Figure 16: the shallow-buffer model retrained per (N, λ), with N5/λ0.25
/// the reference configuration used everywhere else.
fn fig16(opts: &HarnessOpts) {
    let mut configs = vec![(1, 0.25), (5, 0.25), (10, 0.25), (5, 0.5), (5, 0.75)];
    configs.truncate(if opts.smoke { 2 } else { 5 });
    title!("Figure 16: sensitivity to N and λ (shallow model, 1 BDP eval)");
    header!("config | QC_sat (train-final) | utilization | avg qdelay (ms) | p95 qdelay (ms)");
    let variant =
        |&(n, lambda)| trained_variant(opts, &format!("N{n} λ{lambda}"), (n, lambda, 1.0));
    let schemes: Vec<_> = configs.iter().map(variant).collect();
    let specs = conditions(&synthetic_head(opts, 2, 8), 1.0, opts);
    let columns = [Mean(UTIL), Mean(AVG_QDELAY), Mean(P95_QDELAY)];
    grid_rows(&schemes, &specs, None, &columns);
}

/// Ablation: which part of "certification in the loop" does the work at
/// this scale — the QC *reward* term of Eq. 10, or the differentiable
/// certified-bound *gradient* (IBP training) in the actor update? Four
/// shallow-property models, {reward, gradient} × {on, off}.
fn ablation_mechanism(opts: &HarnessOpts) {
    title!("Ablation: QC reward (Eq. 10) vs certified gradient (IBP training)");
    header!("configuration | train QC (final) | eval QC_sat | utilization");
    let variant = |(label, lambda, grad)| trained_variant(opts, label, (5, lambda, grad));
    let schemes = [
        ("neither (≈ Orca)", 0.0, 0.0),
        ("reward only (λ=0.25)", 0.25, 0.0),
        ("gradient only", 0.0, 1.0),
        ("both (Canopy)", 0.25, 1.0),
    ]
    .map(variant);
    let properties = Property::shallow_set(&PropertyParams::default());
    let qc = qc_eval(properties, opts, 10, 25);
    let specs = conditions(&synthetic_head(opts, 2, 6), 0.5, opts);
    grid_rows(&schemes, &specs, Some(&qc), &[Mean(QC_SAT), Mean(UTIL)]);
}

/// Figure 11: per trace, the change from the clean to the ±5%-noise run of
/// [`fig11_specs`] (committed under `fixtures/fig11/specs.json`), for Orca
/// vs the Canopy robustness model; closer to zero is more robust.
fn fig11(opts: &HarnessOpts) {
    let specs = fig11_specs(opts.seed, opts.smoke);
    let schemes = schemes(&[ModelKind::Orca, ModelKind::Robust], &[], opts);
    let results = run_cells(&schemes, &specs, None);
    let names = ["orca", "canopy"];
    title!("Figure 11: % change under ±5% delay noise (per trace)");
    header!("trace | scheme | Δ util % | Δ avg delay % | Δ p95 delay %");
    let mut magnitude = [[0.0; 3]; 2];
    // (clean, noisy) pairs in trace order, exactly as fig11_specs emits them.
    for (pair_idx, pair) in specs.chunks(2).enumerate() {
        let trace = match &pair[0].trace {
            TraceProgram::Named { name, .. } => name,
            _ => &pair[0].name,
        };
        for (si, name) in names.iter().enumerate() {
            let (clean, noisy) = (&results[si][2 * pair_idx], &results[si][2 * pair_idx + 1]);
            let pct = |Metric(value, _): Metric| match value(clean) {
                c if c.abs() < 1e-9 => 0.0,
                c => (value(noisy) - c) / c * 100.0,
            };
            let d = [UTIL, AVG_QDELAY, P95_QDELAY].map(pct);
            row!("{trace} | {name} | {:.1} | {:.1} | {:.1}", d[0], d[1], d[2]);
            for (sum, d) in magnitude[si].iter_mut().zip(d) {
                *sum += d.abs();
            }
        }
    }
    title!("Summary: mean |% change| across traces");
    header!("scheme | |Δ util| % | |Δ avg delay| % | |Δ p95 delay| %");
    let pairs = (specs.len() / 2) as f64;
    for (name, sums) in names.iter().zip(magnitude) {
        row!("{name} | {}", joined(sums.iter().map(|s| f1(s / pairs))));
    }
}

/// Figure 12: the nine-region global-testbed path model. Per path, each
/// scheme's throughput is normalized by the best throughput any scheme
/// achieved on that path, and its delay by the smallest delay, exactly as
/// Section 6.4 normalizes; aggregated by intra-/inter-continental class.
fn fig12(opts: &HarnessOpts) {
    let kinds = [ModelKind::Shallow, ModelKind::Deep, ModelKind::Orca];
    let schemes = schemes(&kinds, &["cubic", "bbr", "vegas"], opts);
    let mut eval_paths = paths();
    if opts.smoke {
        eval_paths = vec![eval_paths[0].clone(), eval_paths[4].clone()];
    }
    let path_spec = |path: &PathConfig| {
        // Cloud paths in the paper behave like ~1-2 BDP buffered links.
        let mut spec = condition(&format!("rw-{}", path.region), 1.0, opts);
        spec.primary_min_rtt = path.min_rtt;
        spec
    };
    let specs: Vec<ScenarioSpec> = eval_paths.iter().map(path_spec).collect();
    let results = run_cells(&schemes, &specs, None);

    // normalized[(class, scheme)] = [thr_norm values, delay_norm values]
    let mut normalized: BTreeMap<(&str, String), [Vec<f64>; 2]> = BTreeMap::new();
    title!("Figure 12: per-path raw results");
    header!("path | class | scheme | thr (Mbps) | avg RTT (ms)");
    for (pi, path) in eval_paths.iter().enumerate() {
        let runs = || results.iter().map(|per_path| &per_path[pi]);
        let best_thr = runs().map(|m| m.throughput_mbps).fold(1e-9, f64::max);
        let best_delay = runs().map(|m| m.avg_rtt_ms).fold(f64::INFINITY, f64::min);
        let class = match path.class {
            PathClass::IntraContinental => "intra",
            PathClass::InterContinental => "inter",
        };
        for (scheme, m) in schemes.iter().zip(runs()) {
            let (name, thr, rtt) = (scheme.name(), m.throughput_mbps, m.avg_rtt_ms);
            row!("{} | {class} | {name} | {thr:.3} | {rtt:.3}", path.region);
            let entry = normalized.entry((class, name)).or_default();
            entry[0].push(thr / best_thr);
            entry[1].push(best_delay.max(1e-9) / rtt.max(1e-9));
        }
    }
    title!("Figure 12 aggregate: normalized throughput / normalized delay (higher = better)");
    header!("class | scheme | norm. throughput | norm. delay (min/actual)");
    for ((class, scheme), [thr, delay]) in &normalized {
        let (thr, delay) = (mean_std(thr).0, mean_std(delay).0);
        row!("{class} | {scheme} | {thr:.3} | {delay:.3}");
    }
}

/// Extension: behaviour under non-congestive random loss — the condition
/// P2-style properties guard against. Sweeps a wireless-like random-loss
/// probability on a 24 Mbps, 1 BDP link.
fn ext_random_loss(opts: &HarnessOpts) {
    let labels = ["p=0", "p=0.1%", "p=0.5%", "p=1%", "p=2%"];
    let mut rates: Vec<_> = labels
        .into_iter()
        .zip([0.0, 0.001, 0.005, 0.01, 0.02])
        .collect();
    if opts.smoke {
        rates = vec![rates[0], rates[3]];
    }
    let lossy = |&(label, random_loss): &(&str, f64)| {
        let name = format!("wireless-{label}");
        let mut spec = ScenarioSpec::simple(&name, 24e6, RTT, opts.eval_duration());
        spec.impairments = Some(ImpairmentSchedule::constant(Impairments {
            random_loss,
            max_jitter: Time::ZERO,
            seed: opts.seed,
        }));
        spec
    };
    let specs: Vec<ScenarioSpec> = rates.iter().map(lossy).collect();
    let kernels = ["cubic", "newreno", "vegas", "bbr"];
    let schemes = schemes(&[ModelKind::Shallow, ModelKind::Orca], &kernels, opts);
    let results = run_cells(&schemes, &specs, None);

    title!("Extension: utilization under non-congestive random loss (1 BDP, 24 Mbps)");
    header!(
        "scheme | {}",
        rates.iter().map(|r| r.0).collect::<Vec<_>>().join(" | ")
    );
    for (scheme, runs) in schemes.iter().zip(&results) {
        let cells = joined(runs.iter().map(|m| f3(m.utilization)));
        row!("{} | {cells}", scheme.name());
    }
    title!("Retransmissions at p=1% (work wasted recovering)");
    header!("scheme | retransmits");
    let one_percent = rates
        .iter()
        .position(|r| r.0 == "p=1%")
        .expect("always swept");
    for i in [0, 1, 2, 5] {
        let retransmits = results[i][one_percent].retransmits as f64;
        row!("{} | {retransmits:.1}", schemes[i].name());
    }
}

// --- Per-decision series (Figs. 1–2, explore) --------------------------------

/// One pooled decision, as the agent saw and made it.
struct DecisionPoint {
    /// Decision instant, seconds.
    t_s: f64,
    /// Throughput over the monitor interval the agent observed, Mbps.
    rate_mbps: f64,
    /// `minRTT / RTT` from the (possibly noisy, normalizer-clamped) queuing
    /// delay the agent observed — the quantity of Figs. 1b and 2b.
    inv_rtt: f64,
    /// The actor's output.
    action: f64,
    /// The window the TCP kernel proposed, packets.
    cwnd_tcp: f64,
    /// The window the agent enforced, packets.
    cwnd: f64,
}

/// Runs `model` over `spec` on a [`DriverPool`] — the world, engine and
/// decision protocol of [`run_scenario`] under `Scheme::Learned` —
/// stepping it dispatch by dispatch to read each decision off the driver.
fn decision_series(
    model: &TrainedModel,
    spec: &ScenarioSpec,
) -> Result<Vec<DecisionPoint>, SpecError> {
    let episode = episode_spec(spec, model.k, None)?;
    let agent = Scheme::Learned(model.clone()).controller(None);
    let world = world::spawn_all(&episode.topology, &episode.flows(agent, false))?;
    let (mut sim, flow) = (world.sim, world.flows[0]);
    let mut pool: DriverPool = world.drivers.into_iter().collect();

    let mut points = Vec::new();
    while pool.next_decision() < spec.duration {
        sim.run_until(pool.next_decision());
        let cwnd_tcp = sim.cwnd(flow);
        pool.dispatch_next(&mut sim, spec.duration);
        let driver = &pool.drivers()[0];
        let (state, norm) = (driver.state(), driver.normalizer());
        let newest = |feature| state[driver.layout().idx(0, feature)];
        let qdelay_ms = newest(DELAY_IDX) * norm.max_queue_delay_ms;
        points.push(DecisionPoint {
            t_s: sim.now().as_secs_f64(),
            rate_mbps: newest(THR_IDX) * norm.max_throughput_bps / 1e6,
            inv_rtt: norm.min_rtt_ms / (norm.min_rtt_ms + qdelay_ms),
            action: driver.prev_action(),
            cwnd_tcp,
            cwnd: driver.prev_cwnd(),
        });
    }
    Ok(points)
}

fn figure_series(kind: ModelKind, spec: &ScenarioSpec, opts: &HarnessOpts) -> Vec<DecisionPoint> {
    decision_series(&model(kind, opts).0, spec).expect("figure conditions are valid specs")
}

fn mean_rate(points: &[DecisionPoint]) -> f64 {
    points.iter().map(|p| p.rate_mbps).sum::<f64>() / points.len().max(1) as f64
}

/// Figure 1: (a) sending rate of each controller with and without uniform
/// ±5% noise on the observed queuing delay; (b) the noisy invRTT the
/// controller saw and the cwnd it chose — the paper shows Orca holding a
/// small cwnd despite high invRTT.
fn fig01(opts: &HarnessOpts) {
    let trace = synthetic::square_slow();
    let clean = condition(trace.name(), 2.0, opts);
    let mut noisy = clean.clone();
    noisy.noise = Some(NoiseConfig {
        mu: 0.05,
        seed: opts.seed ^ 0xabcd,
    });
    // orca, orca+noise, canopy, canopy+noise
    let series = [ModelKind::Orca, ModelKind::Robust]
        .map(|kind| [&clean, &noisy].map(|spec| figure_series(kind, spec, opts)));
    let [[orca, orca_noisy], [canopy, canopy_noisy]] = &series;

    title!(
        "Figure 1a: sending rate over time (Mbps), trace `{}`",
        trace.name()
    );
    header!("t (s) | orca | orca+noise | canopy | canopy+noise");
    for i in strided(orca.len(), 40) {
        let rates = [orca, orca_noisy, canopy, canopy_noisy].map(|s| f1(s[i].rate_mbps));
        row!("{:.1} | {}", orca[i].t_s, rates.join(" | "));
    }
    title!("Figure 1b: noisy invRTT seen by each controller vs chosen cwnd");
    header!("t (s) | orca invRTT | orca cwnd | canopy invRTT | canopy cwnd");
    for i in strided(orca_noisy.len(), 40) {
        let (o, c) = (&orca_noisy[i], &canopy_noisy[i]);
        let cells = [f3(o.inv_rtt), f1(o.cwnd), f3(c.inv_rtt), f1(c.cwnd)];
        row!("{:.1} | {}", o.t_s, cells.join(" | "));
    }
    title!("Summary: mean sending rate (Mbps) and noise-induced change");
    header!("controller | clean | noisy | change %");
    for (name, [clean, noisy]) in ["orca", "canopy"].iter().zip(&series) {
        let (clean, noisy) = (mean_rate(clean), mean_rate(noisy));
        let change = (noisy - clean) / clean.max(1e-9) * 100.0;
        row!("{name} | {clean:.1} | {noisy:.1} | {change:.1}");
    }
}

/// Figure 2: a high-BDP path (fast link with bandwidth dips, 80 ms RTT,
/// 5 BDP buffer). (a) Sending rate of Orca vs the deep-buffer Canopy model;
/// (b) Orca's invRTT, enforced cwnd and TCP-suggested cwnd — the paper
/// shows Orca forcing cwnd far below TCP's suggestion despite high invRTT.
fn fig02(opts: &HarnessOpts) {
    let trace = synthetic::dips();
    let mut spec = condition(trace.name(), 5.0, opts);
    spec.primary_min_rtt = Time::from_millis(80);
    let orca = figure_series(ModelKind::Orca, &spec, opts);
    let canopy = figure_series(ModelKind::Deep, &spec, opts);

    title!(
        "Figure 2a: sending rate over time (Mbps), trace `{}`",
        trace.name()
    );
    header!("t (s) | orca | canopy");
    for i in strided(orca.len(), 40) {
        let (o, c) = (&orca[i], &canopy[i]);
        row!("{:.1} | {:.1} | {:.1}", o.t_s, o.rate_mbps, c.rate_mbps);
    }
    title!("Figure 2b: Orca detail — invRTT vs enforced cwnd vs TCP-suggested cwnd");
    header!("t (s) | invRTT | cwnd (agent) | cwnd (TCP) | agent/TCP");
    for i in strided(orca.len(), 40) {
        let p = &orca[i];
        let ratio = p.cwnd / p.cwnd_tcp.max(1.0);
        let cells = [
            f1(p.t_s),
            f3(p.inv_rtt),
            f1(p.cwnd),
            f1(p.cwnd_tcp),
            f3(ratio),
        ];
        row!("{}", cells.join(" | "));
    }
    title!("Summary");
    header!("controller | mean rate (Mbps) | bad-state fraction");
    for (name, points) in [("orca", &orca), ("canopy", &canopy)] {
        // Bad states: queuing delay is low (invRTT high) yet the agent
        // suppressed the window far below TCP's suggestion.
        let bad = |p: &&DecisionPoint| p.inv_rtt > 0.8 && p.cwnd < 0.5 * p.cwnd_tcp;
        let fraction = points.iter().filter(bad).count() as f64 / points.len().max(1) as f64;
        row!("{name} | {:.1} | {fraction:.3}", mean_rate(points));
    }
}

// --- Certificate distributions (Figs. 6, 8, ablation_domains) ----------------

/// The decision contexts (and their times, seconds) `model` visits over its
/// first `steps` decisions on `trace`. This needs each context *between*
/// observation and action, which only the training environment exposes —
/// the one place figure code drives [`CcEnv`].
fn harvest_contexts(
    model: &TrainedModel,
    trace: &BandwidthTrace,
    buffer_bdp: f64,
    steps: usize,
) -> (StateLayout, Vec<(f64, StepContext)>) {
    let config = EnvConfig::new(trace.clone(), RTT, buffer_bdp).with_episode(Time::from_secs(3600));
    let mut env = CcEnv::new(config);
    let mut step = |_| {
        let at = (env.now().as_secs_f64(), env.step_context());
        env.step(model.actor.forward(&at.1.state)[0]);
        at
    };
    let contexts = (0..steps).map(&mut step).collect();
    (env.layout(), contexts)
}

/// What distinguishes Fig. 6 from Fig. 8.
struct ComponentFigure {
    figure: &'static str,
    canopy: ModelKind,
    traces: [BandwidthTrace; 2],
    buffer_bdp: f64,
    /// Each certified property and its table-title suffix.
    properties: Vec<(Property, &'static str)>,
    /// What the component output bounds, and how a bound is printed.
    quantity: &'static str,
    bound: fn(f64) -> String,
}

/// The Orca-vs-Canopy component tables of Figs. 6 and 8: for each trace
/// and property, ten evenly spaced steps of the per-step hull of the
/// component output bounds and the certified fraction, then the mean
/// certified fractions.
fn component_tables(fig: ComponentFigure, opts: &HarnessOpts) {
    let models = [model(ModelKind::Orca, opts).0, model(fig.canopy, opts).0];
    let (steps, n) = if opts.smoke { (10, 10) } else { (50, 50) };
    let q = fig.quantity;
    for (ti, trace) in fig.traces.iter().enumerate() {
        let harvest = |m| harvest_contexts(m, trace, fig.buffer_bdp, steps);
        let harvested = models.each_ref().map(harvest);
        for (property, subtitle) in &fig.properties {
            let (figure, name) = (fig.figure, trace.name());
            title!("{figure}, trace {} (`{name}`){subtitle}", ti + 1);
            header!(
                "t (s) | orca {q} bounds | orca cert. frac | canopy {q} bounds | canopy cert. frac"
            );
            // Per model: each step's formatted hull and certified fraction.
            let mut certified = [Vec::new(), Vec::new()];
            for (out, (m, (layout, contexts))) in
                certified.iter_mut().zip(models.iter().zip(&harvested))
            {
                for (_, ctx) in contexts {
                    let cert = Verifier::new(n).certify(&m.actor, property, *layout, ctx);
                    let bounds = cert.components.iter().map(|c| c.output);
                    let lo = bounds.clone().map(|b| b.lo).fold(f64::INFINITY, f64::min);
                    let hi = bounds.map(|b| b.hi).fold(f64::NEG_INFINITY, f64::max);
                    let hull = format!("[{}, {}]", (fig.bound)(lo), (fig.bound)(hi));
                    out.push((hull, cert.proven_fraction()));
                }
            }
            let [orca, canopy] = &certified;
            for i in strided(steps, 10) {
                let (t, (o, c)) = (harvested[0].1[i].0, (&orca[i], &canopy[i]));
                row!("{t:.1} | {} | {:.3} | {} | {:.3}", o.0, o.1, c.0, c.1);
            }
            let mean = |v: &[(String, f64)]| v.iter().map(|x| x.1).sum::<f64>() / v.len() as f64;
            let (orca, canopy) = (mean(orca), mean(canopy));
            println!("\nmean certified fraction: orca {orca:.3}, canopy {canopy:.3}");
        }
    }
}

/// Figure 6: 50 components × 50 time steps on two traces. The figure's
/// "colored areas above/below the red line" become the per-step hull of the
/// component Δcwnd bounds plus the fraction of components certified on the
/// desirable side.
fn fig06(opts: &HarnessOpts) {
    let params = PropertyParams::default();
    let good = (Property::p1(&params), ", good (P1) — desirable: Δcwnd ≥ 0");
    let bad = (Property::p2(&params), ", bad (P2) — desirable: Δcwnd ≤ 0");
    let fig = ComponentFigure {
        figure: "Figure 6",
        canopy: ModelKind::Shallow,
        traces: [synthetic::step_up(), synthetic::square_fast()],
        buffer_bdp: 0.5,
        properties: vec![good, bad],
        quantity: "Δcwnd",
        bound: f1,
    };
    component_tables(fig, opts);
}

/// Figure 8: the property wants the cwnd-change fraction within ±ε
/// (= ±0.01, the horizontal red lines of the figure).
fn fig08(opts: &HarnessOpts) {
    let p5 = Property::p5(&PropertyParams::default());
    let fig = ComponentFigure {
        figure: "Figure 8",
        canopy: ModelKind::Robust,
        traces: [synthetic::spikes(), synthetic::markov_switch(opts.seed)],
        buffer_bdp: 2.0,
        properties: vec![(p5, " — target band: cwnd change ∈ [−0.01, 0.01]")],
        quantity: "change",
        bound: |x| format!("{x:+.4}"),
    };
    component_tables(fig, opts);
}

/// Ablation: the paper's box/IBP domain, the zonotope domain, and
/// branch-and-bound adaptive refinement, on the same trained model and the
/// same harvested decision contexts.
fn ablation_domains(opts: &HarnessOpts) {
    let canopy = model(ModelKind::Shallow, opts).0;
    let properties = Property::shallow_set(&PropertyParams::default());
    let steps = if opts.smoke { 20 } else { 100 };
    let (layout, contexts) = harvest_contexts(&canopy, &synthetic::square_fast(), 0.5, steps);
    title!("Ablation: abstract-domain precision vs cost ({steps} decision contexts)");
    header!("verifier | mean QC feedback | mean bound width (Δcwnd) | proofs/ctx | µs/certificate");
    let zonotope = Verifier::with_domain(5, AbstractDomain::Zonotope);
    // (name, verifier, adaptive refinement depth)
    for (name, verifier, depth) in [
        ("box, N=1", Verifier::new(1), None),
        ("box, N=5", Verifier::new(5), None),
        ("box, N=50", Verifier::new(50), None),
        ("zonotope, N=5", zonotope, None),
        ("adaptive (depth 6)", Verifier::new(1), Some(6)),
    ] {
        let (mut feedback, mut width, mut widths, mut proofs) = (0.0, 0.0, 0usize, 0usize);
        let start = Instant::now();
        for (_, ctx) in &contexts {
            for p in &properties {
                let cert = match depth {
                    Some(d) => verifier.certify_adaptive(&canopy.actor, p, layout, ctx, d),
                    None => verifier.certify(&canopy.actor, p, layout, ctx),
                };
                feedback += cert.feedback;
                proofs += cert.proven as usize;
                width += cert
                    .components
                    .iter()
                    .map(|c| c.output.width())
                    .sum::<f64>();
                widths += cert.components.len();
            }
        }
        let n_certs = (contexts.len() * properties.len()) as f64;
        let micros = start.elapsed().as_micros() as f64 / n_certs;
        let (feedback, proofs) = (feedback / n_certs, proofs as f64 / n_certs);
        let width = width / widths.max(1) as f64;
        row!("{name} | {feedback:.3} | {width:.3} | {proofs:.3} | {micros:.3}");
    }
}

// --- Multi-flow and training figures -----------------------------------------

/// Figure 14: throughput ratio of the scheme under test to the average of
/// competing Cubic flows, for an increasing number of competitors, plus an
/// RTT sweep with one competitor. A ratio near 1.0 is a fair share.
fn fig14(opts: &HarnessOpts) {
    let agent = |kind| Scheme::Learned(model(kind, opts).0).controller(None);
    let cubic = Controller::Kernel("cubic".into());
    let duration = Time::from_secs(if opts.smoke { 10 } else { 30 });
    let trace = BandwidthTrace::constant("friendly", 48e6);
    // One row of ratios over (competitors, RTT ms, buffer BDP) settings.
    let ratio_row = |name: &str, scheme: &Controller, sweep: &[(usize, u64, f64)]| {
        let ratio = |&(n, rtt_ms, bdp): &(usize, u64, f64)| {
            let rtt = Time::from_millis(rtt_ms);
            let ratio = friendliness_ratio(scheme, n, &trace, rtt, bdp, duration);
            f3(ratio.expect("cubic competitors on a dumbbell"))
        };
        row!("{name} | {}", joined(sweep.iter().map(ratio)));
    };

    let counts: &[usize] = if opts.smoke { &[1, 2] } else { &[1, 2, 3, 4] };
    let plural = |&n: &usize| format!("{n} flow{}", if n == 1 { "" } else { "s" });
    let columns = format!("scheme | {}", joined(counts.iter().map(plural)));
    for kind in [ModelKind::Shallow, ModelKind::Deep] {
        let (regime, bdp) = if kind == ModelKind::Deep {
            ("deep", 5.0)
        } else {
            ("shallow", 1.0)
        };
        let vs = "throughput ratio vs #competing Cubic flows";
        title!("Figure 14 ({regime} buffers, {bdp} BDP): {vs}");
        header!("{columns}");
        let sweep: Vec<_> = counts.iter().map(|&n| (n, 20, bdp)).collect();
        ratio_row(kind.name(), &agent(kind), &sweep);
        ratio_row("orca", &agent(ModelKind::Orca), &sweep);
        ratio_row("cubic", &cubic, &sweep);
    }

    let rtts: &[u64] = if opts.smoke {
        &[20, 80]
    } else {
        &[20, 40, 80, 120]
    };
    title!("Figure 14 (RTT sweep, 1 competing Cubic flow, 1 BDP)");
    let columns = joined(rtts.iter().map(|rtt| format!("{rtt}ms")));
    header!("scheme | {columns}");
    let sweep: Vec<_> = rtts.iter().map(|&rtt| (1, rtt, 1.0)).collect();
    ratio_row("canopy-shallow", &agent(ModelKind::Shallow), &sweep);
    ratio_row("orca", &agent(ModelKind::Orca), &sweep);
    ratio_row("cubic", &cubic, &sweep);
}

/// Figure 15: one flow starts every 12 s on a 48 Mbps / 20 ms, 1 BDP link,
/// five flows total, 60 s; per-second throughput plus Jain's index.
fn fig15(opts: &HarnessOpts) {
    let (n_flows, stagger, duration) = match opts.smoke {
        true => (3, Time::from_secs(4), Time::from_secs(16)),
        false => (5, Time::from_secs(12), Time::from_secs(60)),
    };
    let agent = |kind| Scheme::Learned(model(kind, opts).0).controller(None);
    for (name, scheme) in [
        ("cubic", Controller::Kernel("cubic".into())),
        ("orca", agent(ModelKind::Orca)),
        ("canopy-shallow", agent(ModelKind::Shallow)),
        ("canopy-deep", agent(ModelKind::Deep)),
    ] {
        let rtt = Time::from_millis(20);
        let link = LinkConfig::with_bdp_buffer(BandwidthTrace::constant("fair", 48e6), rtt, 1.0);
        let flow = |i| FlowSpec::new(scheme.clone(), rtt).starting_at(stagger * i);
        let flows: Vec<FlowSpec> = (0..n_flows).map(flow).collect();
        let series = run_multiflow(link, &flows, duration, Time::from_secs(1))
            .expect("known schemes on a dumbbell, one-second bins");

        title!("Figure 15 — {name}: per-flow throughput (Mbps) each second");
        header!(
            "t (s) | {} | jain",
            joined((0..n_flows).map(|i| format!("flow{i}")))
        );
        let bins = series[0].len();
        for b in strided(bins, 15) {
            let started = |i: &u64| stagger * *i <= Time::from_secs(b as u64);
            let active: Vec<f64> = (0..n_flows)
                .filter(started)
                .map(|i| series[i as usize][b])
                .collect();
            let rates = joined(series.iter().map(|s| f1(s[b])));
            let (t, jain) = ((b + 1) as f64, jain_index(&active));
            row!("{t:.1} | {rates} | {jain:.3}");
        }
        // Steady-state fairness over the last quarter.
        let tail = |s: &Vec<f64>| s[bins - bins / 4..].iter().sum::<f64>();
        let jain = jain_index(&series.iter().map(tail).collect::<Vec<_>>());
        println!("\nsteady-state Jain index (last quarter): {jain:.3}");
    }
}

/// Figure 17 (appendix A.1): per-epoch training rewards for Orca and for
/// Canopy with the shallow-buffer properties (N = 5, λ = 0.25).
fn fig17(opts: &HarnessOpts) {
    let canopy = model(ModelKind::Shallow, opts).1;
    let orca = model(ModelKind::Orca, opts).1;
    title!("Figure 17: training curves (per epoch)");
    header!("epoch | orca raw | orca verifier | canopy raw | canopy verifier | canopy total");
    let epochs = canopy.len().min(orca.len());
    for e in strided(epochs, 20) {
        let (o, c) = (&orca[e], &canopy[e]);
        let canopy = [c.raw_reward, c.verifier_reward, c.total_reward]
            .map(f3)
            .join(" | ");
        row!(
            "{e} | {:.3} | {:.3} | {canopy}",
            o.raw_reward,
            o.verifier_reward
        );
    }
    title!("Summary (second half of training)");
    header!("model | raw reward | verifier reward");
    for (name, history) in [("orca", &orca), ("canopy", &canopy)] {
        let half = &history[epochs / 2..];
        let mean =
            |f: fn(&EpochStats) -> f64| half.iter().map(f).sum::<f64>() / half.len().max(1) as f64;
        let (raw, verifier) = (mean(|e| e.raw_reward), mean(|e| e.verifier_reward));
        row!("{name} | {raw:.3} | {verifier:.3}");
    }
}

/// Table 4 (appendix A.2): epoch rate for Orca (no verifier) and Canopy
/// with N ∈ {1, 5, 10} certificate components. Each "epoch" is one
/// environment interaction plus one learner update, matching the per-step
/// verifier invocation structure of the paper (`O(Canopy) =
/// 2N·O(Verifier) + O(Orca)` for the two-constraint shallow property).
fn table04(opts: &HarnessOpts) {
    let steps = if opts.smoke { 100 } else { 400 };
    let epoch_rate = |kind: ModelKind, n_components: usize| {
        let budget = TrainBudget {
            epochs: 1,
            steps_per_epoch: steps,
            n_envs: 2,
        };
        let mut cfg = trainer_config(kind, opts.seed, budget);
        cfg.n_components = n_components;
        cfg.monitor_qc = kind != ModelKind::Orca;
        let start = Instant::now();
        let _ = Trainer::new(cfg).train();
        steps as f64 / start.elapsed().as_secs_f64()
    };
    title!("Table 4: epoch rates (steps/second; higher is better)");
    header!("configuration | epochs/s | relative to Orca");
    let orca = epoch_rate(ModelKind::Orca, 1);
    row!("orca (no verifier) | {orca:.1} | {:.3}", 1.0);
    for n in [1usize, 5, 10] {
        let rate = epoch_rate(ModelKind::Shallow, n);
        row!("canopy N={n} | {rate:.1} | {:.3}", rate / orca);
    }
}

// --- The interactive explorer -------------------------------------------------

/// `figures explore`: runs any scheme on any evaluation trace through
/// [`run_scenario`] and prints its metrics; for a learned scheme, also its
/// certificate (`QC_sat` on the model's own property set, 25 components)
/// and its decision trajectory. Models load at the full training budget.
///
/// ```text
/// figures explore [--scheme NAME] [--trace NAME|list] [--buffer-bdp X]
///                 [--rtt-ms N] [--duration-s N] [--noise MU] [--seed N]
///
/// Schemes: cubic | newreno | vegas | bbr | orca | canopy-shallow |
///          canopy-deep | canopy-robust
/// Traces:  any evaluation trace (syn-*, cell-*); `--trace list` prints them.
/// ```
pub fn explore(args: &[String]) -> Result<(), String> {
    let (mut scheme_name, mut trace) = ("cubic".to_string(), "syn-step-up".to_string());
    let (mut buffer_bdp, mut rtt_ms, mut duration_s) = (1.0, 40u64, 20u64);
    let (mut noise, mut seed) = (None::<f64>, DEFAULT_SEED);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scheme" => scheme_name = flag_value(flag, args.next())?,
            "--trace" => trace = flag_value(flag, args.next())?,
            "--buffer-bdp" => buffer_bdp = flag_value(flag, args.next())?,
            "--rtt-ms" => rtt_ms = flag_value(flag, args.next())?,
            "--duration-s" => duration_s = flag_value(flag, args.next())?,
            "--noise" => noise = Some(flag_value(flag, args.next())?),
            "--seed" => seed = flag_value(flag, args.next())?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if trace == "list" {
        println!("available traces:");
        for t in canopy_traces::all_eval_traces(seed) {
            println!("  {}", t.name());
        }
        return Ok(());
    }

    let mut spec = ScenarioSpec::from_eval_trace(&trace, seed);
    spec.buffer_bdp = buffer_bdp;
    spec.primary_min_rtt = Time::from_millis(rtt_ms);
    spec.duration = Time::from_secs(duration_s);
    spec.noise = noise.map(|mu| NoiseConfig { mu, seed });
    // Before any model loads (or trains): a bad condition fails fast.
    spec.validate().map_err(|e| e.to_string())?;
    let scheme = resolve_scheme(&scheme_name, &HarnessOpts { seed, smoke: false })?;
    let qc = ModelKind::parse(&scheme_name).map(|kind| QcEval {
        properties: kind.properties(&PropertyParams::default()),
        n_components: 25,
    });

    let run = run_scenario(&scheme, &spec, qc.as_ref()).map_err(|e| e.to_string())?;
    let m = run.primary;
    println!("scheme        : {}", m.scheme);
    println!("trace         : {}", m.trace);
    println!("buffer        : {buffer_bdp} BDP, RTT {rtt_ms} ms, {duration_s} s");
    println!("utilization   : {:.3}", m.utilization);
    println!("throughput    : {:.2} Mbps", m.throughput_mbps);
    println!("avg q-delay   : {:.1} ms", m.avg_qdelay_ms);
    println!("p95 q-delay   : {:.1} ms", m.p95_qdelay_ms);
    println!("avg RTT       : {:.1} ms", m.avg_rtt_ms);
    println!("losses        : {}", m.losses);
    println!("retransmits   : {}", m.retransmits);
    if let (Some(mean), Some(std)) = (m.qc_sat, m.qc_sat_std) {
        println!("QC_sat        : {mean:.3} (±{std:.3})");
    }
    if let Scheme::Learned(model) = &scheme {
        let points = decision_series(model, &spec).map_err(|e| e.to_string())?;
        title!("Decision trajectory");
        header!("t (s) | action | cwnd (agent) | cwnd (TCP) | invRTT | rate (Mbps)");
        for i in strided(points.len(), 40) {
            let p = &points[i];
            let cells = [f1(p.cwnd), f1(p.cwnd_tcp), f3(p.inv_rtt), f1(p.rate_mbps)];
            row!("{:.2} | {:+.3} | {}", p.t_s, p.action, cells.join(" | "));
        }
    }
    Ok(())
}
