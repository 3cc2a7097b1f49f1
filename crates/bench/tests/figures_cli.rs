//! The `figures` binary end to end: the registry runs, its output is
//! finite and `CANOPY_THREADS`-invariant, and bad command lines are
//! one-line errors with exit status 2 — never a panic, never a silent
//! full-size default.

use std::path::PathBuf;
use std::process::{Command, Output};

use canopy_bench::figures::REGISTRY;

/// Runs `figures` with a model cache private to the calling test (tests
/// run concurrently and must not share files), never the shared cache.
fn figures(args: &[&str], threads: &str, cache: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env(
            "CANOPY_MODEL_DIR",
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(cache),
        )
        .env("CANOPY_THREADS", threads)
        .output()
        .expect("figures binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 tables")
}

#[test]
fn list_names_every_registry_entry_once() {
    let listing = stdout(&figures(&["--list"], "1", "models-list"));
    let ids: Vec<&str> = listing
        .lines()
        .map(|l| l.split_whitespace().next().expect("id column"))
        .collect();
    let registry: Vec<&str> = REGISTRY.iter().map(|f| f.id).collect();
    assert_eq!(ids, registry);
    // One entry per artifact of the evaluation, in paper order.
    let mut expected: Vec<String> = [1, 2]
        .into_iter()
        .chain(5..=17)
        .map(|n| format!("fig{n:02}"))
        .collect();
    expected.extend(
        [
            "table04",
            "ablation_domains",
            "ablation_mechanism",
            "ext_random_loss",
        ]
        .map(String::from),
    );
    assert_eq!(ids, expected);
}

#[test]
fn every_figure_runs_at_smoke_size_and_prints_finite_numbers() {
    let text = stdout(&figures(&["--all", "--smoke"], "2", "models-all"));
    for figure in REGISTRY {
        assert!(
            text.contains(figure.paper),
            "{}: no `paper:` line",
            figure.id
        );
    }
    let mut numbers = 0;
    for line in text.lines().filter(|l| l.starts_with("| ")) {
        for cell in line.trim_matches('|').split('|') {
            if let Ok(x) = cell.trim().parse::<f64>() {
                assert!(x.is_finite(), "non-finite cell in `{line}`");
                numbers += 1;
            }
        }
    }
    // 19 figures print far more than a thousand numeric cells between them.
    assert!(numbers > 1000, "only {numbers} numeric cells");
}

#[test]
fn grid_figures_are_byte_identical_across_thread_counts() {
    let run = |threads| {
        stdout(&figures(
            &["fig09", "fig13", "--smoke"],
            threads,
            "models-threads",
        ))
    };
    let one = run("1");
    assert!(one.contains("# Figure 9 (synthetic traces), 1 BDP buffer"));
    assert!(one.contains("# Figure 13 (shallow buffer, 1 BDP)"));
    assert_eq!(one, run("4"), "CANOPY_THREADS changed a figure");
}

#[test]
fn bad_command_lines_exit_2_with_a_one_line_error() {
    for (threads, args, needle) in [
        (
            "1",
            &["explore", "--scheme", "reno2"][..],
            "unknown scheme `reno2`",
        ),
        (
            "1",
            &["explore", "--buffer-bdp", "abc"],
            "--buffer-bdp: bad value `abc`",
        ),
        (
            "1",
            &["explore", "--loss", "0.01"],
            "unknown argument `--loss`",
        ),
        (
            "1",
            &["explore", "--trace", "syn-nope"],
            "unknown base trace `syn-nope`",
        ),
        ("1", &["fig05", "--smok"], "unknown argument `--smok`"),
        ("1", &["fig99"], "unknown argument `fig99`"),
        ("1", &["fig05", "--seed"], "--seed needs a value"),
        ("1", &[], "nothing to run"),
        // A malformed worker count is an error too, not "all cores".
        ("abc", &["--list"], "CANOPY_THREADS: bad value `abc`"),
        ("0", &["--list"], "CANOPY_THREADS: bad value `0`"),
        ("", &["--list"], "CANOPY_THREADS: bad value ``"),
    ] {
        let out = figures(args, threads, "models-errors");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{args:?}: {stderr}"
        );
    }
}
