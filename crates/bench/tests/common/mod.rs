//! The regeneration rows, shared by `regenerate.rs` (which runs them) and
//! `docs.rs` (which holds README.md to them). Each test binary reads a
//! different part of a row.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

/// One regeneration command.
pub struct Row {
    /// The harness executable.
    pub bin: &'static str,
    /// Its arguments, separated by whitespace.
    pub args: &'static str,
    /// Seeds the run's `fixtures/adversarial/` with the committed fixtures
    /// whose file name ends with this suffix.
    pub corpus: Option<&'static str>,
    /// Where the run's stdout is saved, relative to its directory; `None`
    /// discards it. Stderr is never compared.
    pub stdout: Option<&'static str>,
    /// Committed files — or directories, meaning every file directly in
    /// them and no other — that the run writes at the same relative path.
    pub reproduces: &'static [&'static str],
}

pub const ROWS: &[Row] = &[
    Row {
        bin: env!("CARGO_BIN_EXE_scenario_lab"),
        args: "--family all --seeds 8 --schemes cubic",
        corpus: None,
        stdout: None,
        reproduces: &["SCENARIOS_report.json"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_scenario_lab"),
        args: "--family all --seeds 1 --schemes canopy-shallow --smoke \
               --out SCENARIOS_smoke.json --trace-out TELEMETRY_report.json",
        corpus: None,
        stdout: None,
        reproduces: &["TELEMETRY_report.json", "TELEMETRY_report.chrome.json"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_scenario_search"),
        args: "--family flash-crowd --seed 7 --objective reward_gap --budget 64 --smoke",
        corpus: None,
        stdout: None,
        reproduces: &["SEARCH_report.json"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_harden"),
        args: "--seed 29 --rounds 2 --smoke",
        corpus: Some("-s7.json"),
        stdout: None,
        reproduces: &["ROBUSTNESS_ledger.json", "fixtures/adversarial"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_harden"),
        args: "--retrace --smoke",
        corpus: Some(".json"),
        stdout: None,
        reproduces: &["fixtures/adversarial/traces"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_serve_lab"),
        args: "--flows 16 --duration-ms 500 --breach --live-out fixtures/live/serve_lab",
        corpus: None,
        stdout: None,
        reproduces: &["fixtures/live/serve_lab"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_figures"),
        args: "--all --smoke",
        corpus: None,
        stdout: Some("FIGURES_smoke.md"),
        reproduces: &["FIGURES_smoke.md"],
    },
];

/// The repository root.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}
