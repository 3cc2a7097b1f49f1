//! README.md and the verify notes checked against the code. Every harness
//! command line they show parses through that harness's parser in
//! `canopy_bench::cli`; README "Artifacts" shows each regeneration command
//! of `common::ROWS` token for token, and no other command writes to a
//! committed artifact's path; every backticked repository path exists;
//! every grep recipe in the verify notes prints the result it states;
//! every `canopy-<name>/v<N>` schema tag in README.md, ci.yml and the
//! crates' doc comments is a current `Artifact::SCHEMA`; README.md stays
//! short; CI's search-smoke hunt covers every family; and every `pub fn`
//! in the crates is named by non-test code or listed in [`ORACLES`].
//! A renamed flag, a moved file or a stale count fails here, not in a
//! reader's shell.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use canopy_bench::cli::{FiguresCmd, HardenOpts, LabOpts, SearchOpts, ServeLabOpts};
use canopy_scenarios::{Family, ScenarioReport};
use canopy_search::{AdversarialFixture, RobustnessLedger, SearchReport};
use canopy_telemetry::{AlertLedger, Artifact, MetricsSnapshot, TelemetryReport};

mod common;
use common::{repo_root, ROWS};

const README: &str = "README.md";
const CI: &str = ".github/workflows/ci.yml";
const VERIFY_NOTES: &str = ".claude/skills/verify/SKILL.md";

/// The documents held to the code.
const DOCS: [&str; 2] = [README, VERIFY_NOTES];

/// The longest README.md may grow: it states contracts, and the per-PR
/// record lives in CHANGES.md.
const README_MAX_LINES: usize = 700;

fn read(doc: &str) -> String {
    fs::read_to_string(repo_root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"))
}

/// One shell line inside a fenced code block: the number of its first
/// line, its code with `\` continuations joined, and its trailing `# …`
/// comment (a line that is only a comment has empty code).
struct ShellLine {
    line: usize,
    code: String,
    comment: Option<String>,
}

fn shell_lines(text: &str) -> Vec<ShellLine> {
    let mut found = Vec::new();
    let mut fenced = false;
    let mut pending: Option<ShellLine> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            found.extend(pending.take());
            continue;
        }
        if !fenced {
            continue;
        }
        let trimmed = line.trim();
        let (code, comment) = match trimmed.strip_prefix("# ") {
            Some(comment) => ("", Some(comment)),
            None => match trimmed.split_once(" # ") {
                Some((code, comment)) => (code, Some(comment)),
                None => (trimmed, None),
            },
        };
        let code = code.trim_end();
        let current = pending.get_or_insert(ShellLine {
            line: i + 1,
            code: String::new(),
            comment: None,
        });
        match code.strip_suffix('\\') {
            Some(head) => current.code.push_str(&format!("{} ", head.trim_end())),
            None => {
                current.code.push_str(code);
                current.comment = comment.map(|c| c.trim().to_string());
                found.extend(pending.take());
            }
        }
    }
    found.extend(pending);
    found
}

/// One `--bin <harness> [-- <args>]` command line.
struct HarnessCommand {
    line: usize,
    bin: String,
    args: Vec<String>,
}

impl HarnessCommand {
    fn shown(&self) -> String {
        format!("{} {}", self.bin, self.args.join(" "))
    }
}

fn commands(text: &str) -> Vec<HarnessCommand> {
    let mut found = Vec::new();
    for shell in shell_lines(text) {
        let words: Vec<&str> = shell.code.split_whitespace().collect();
        let Some(at) = words.iter().position(|w| *w == "--bin") else {
            continue;
        };
        let bin = words.get(at + 1).copied().unwrap_or_default().to_string();
        let args = match words.get(at + 2) {
            Some(&"--") => words[at + 3..].iter().map(|w| w.to_string()).collect(),
            _ => Vec::new(),
        };
        found.push(HarnessCommand {
            line: shell.line,
            bin,
            args,
        });
    }
    found
}

/// A path a harness command writes, relative to the directory it runs in.
#[derive(Debug)]
enum Output {
    File(String),
    /// A directory the command writes files directly into.
    Dir(String),
}

fn clean(path: &str) -> String {
    let path = path.strip_prefix("./").unwrap_or(path);
    path.trim_end_matches('/').to_string()
}

/// A `--trace-out` report and its Chrome-trace twin.
fn trace_files(path: Option<String>) -> Vec<Output> {
    let Some(path) = path else {
        return Vec::new();
    };
    let chrome = format!(
        "{}.chrome.json",
        path.strip_suffix(".json").unwrap_or(&path)
    );
    vec![Output::File(clean(&path)), Output::File(clean(&chrome))]
}

/// Parses `args` with the parser of the harness binary `bin` and returns
/// what the command writes, by the options it parses to.
fn outputs(bin: &str, args: &[String]) -> Result<Vec<Output>, String> {
    let dir = |d: &str| Output::Dir(clean(d));
    Ok(match bin {
        "figures" => FiguresCmd::parse(args).map(|_| Vec::new())?,
        "scenario_lab" => {
            let o = LabOpts::parse(args)?;
            let mut out = vec![Output::File(clean(&o.out))];
            out.extend(trace_files(o.trace_out));
            out.extend(o.live_out.as_deref().map(dir));
            out
        }
        "scenario_search" => {
            let o = SearchOpts::parse(args)?;
            let mut out = vec![Output::File(clean(&o.out))];
            out.extend(o.fixture_out.as_deref().map(dir));
            out.extend(trace_files(o.trace_out));
            out
        }
        "harden" => {
            let o = HardenOpts::parse(args)?;
            let traces = dir(&format!("{}/traces", clean(&o.fixture_out)));
            if o.retrace {
                vec![traces]
            } else {
                let mut out = vec![Output::File(clean(&o.ledger)), dir(&o.fixture_out), traces];
                out.extend(trace_files(o.trace_out));
                out
            }
        }
        "serve_lab" => ServeLabOpts::parse(args)?
            .live_out
            .as_deref()
            .map(dir)
            .into_iter()
            .collect(),
        other => return Err(format!("`{other}` is not a harness binary")),
    })
}

/// A regeneration row's harness name and arguments.
fn row_command(bin: &str, args: &str) -> (String, Vec<String>) {
    let name = Path::new(bin).file_stem().expect("binary file name");
    let args = args.split_whitespace().map(str::to_string).collect();
    (name.to_string_lossy().into_owned(), args)
}

fn is_row(command: &HarnessCommand) -> bool {
    ROWS.iter()
        .map(|row| row_command(row.bin, row.args))
        .any(|(bin, args)| bin == command.bin && args == command.args)
}

/// The committed artifact `output` would overwrite, if any.
fn committed_target(output: &Output) -> Option<&'static str> {
    let parent = |p: &str| {
        Path::new(p)
            .parent()
            .map(|d| d.to_string_lossy().into_owned())
    };
    let mut committed = ROWS.iter().flat_map(|row| row.reproduces.iter().copied());
    committed.find(|&c| {
        let c_is_dir = repo_root().join(c).is_dir();
        match (output, c_is_dir) {
            (Output::File(f), false) => f == c,
            (Output::File(f), true) => parent(f).as_deref() == Some(c),
            (Output::Dir(d), false) => parent(c).as_deref() == Some(d.as_str()),
            (Output::Dir(d), true) => d == c,
        }
    })
}

#[test]
fn every_documented_harness_command_line_parses() {
    let mut checked = 0;
    let mut failures = Vec::new();
    for doc in DOCS {
        for command in commands(&read(doc)) {
            checked += 1;
            if let Err(e) = outputs(&command.bin, &command.args) {
                failures.push(format!("{doc}:{}: {}: {e}", command.line, command.shown()));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // README shows every harness; a parser that finds nothing proves nothing.
    assert!(checked >= 20, "only {checked} command lines found");
}

/// The text of README's `## Artifacts` section.
fn artifacts_section(readme: &str) -> &str {
    let start = readme
        .find("\n## Artifacts\n")
        .expect("README has an Artifacts section");
    let body = &readme[start + 1..];
    let end = body[1..].find("\n## ").map_or(body.len(), |i| i + 1);
    &body[..end]
}

#[test]
fn readme_artifacts_shows_every_regeneration_command() {
    let shown = commands(artifacts_section(&read(README)));
    let missing: Vec<String> = ROWS
        .iter()
        .map(|row| row_command(row.bin, row.args))
        .filter(|(bin, args)| !shown.iter().any(|c| &c.bin == bin && &c.args == args))
        .map(|(bin, args)| format!("--bin {bin} -- {}", args.join(" ")))
        .collect();
    assert!(
        missing.is_empty(),
        "README \"Artifacts\" does not show these regeneration commands:\n{}",
        missing.join("\n")
    );
}

#[test]
fn no_other_documented_command_writes_a_committed_artifact() {
    let mut failures = Vec::new();
    for doc in DOCS {
        for command in commands(&read(doc)) {
            if is_row(&command) {
                continue;
            }
            // A command that does not parse fails its own test.
            for output in outputs(&command.bin, &command.args).unwrap_or_default() {
                if let Some(committed) = committed_target(&output) {
                    failures.push(format!(
                        "{doc}:{}: `{}` writes {output:?}, over the committed `{committed}`",
                        command.line,
                        command.shown()
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Backticked spans outside fenced code blocks that name a repository
/// path: no whitespace, glob, placeholder or URL, and a first component
/// that is a top-level directory of the repository (build output under
/// `target/` aside). A trailing `:line` is dropped.
fn repo_paths(text: &str, top: &[String]) -> Vec<String> {
    let mut fenced = false;
    let prose: Vec<&str> = text
        .lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                return false;
            }
            !fenced
        })
        .collect();
    let prose = prose.join("\n");
    let spans = prose.split('`').skip(1).step_by(2);
    let path = |span: &&str| {
        let plain = !span.contains(|c: char| c.is_whitespace() || "*{}<>$".contains(c));
        let first = span.split('/').next().unwrap_or_default();
        plain && span.contains('/') && !span.contains("://") && top.iter().any(|t| t == first)
    };
    let line = |span: &str| {
        let (head, tail) = span.rsplit_once(':').unwrap_or((span, ""));
        let numeric = !tail.is_empty() && tail.chars().all(|c| c.is_ascii_digit() || c == '-');
        if numeric { head } else { span }.to_string()
    };
    spans.filter(path).map(line).collect()
}

#[test]
fn every_backticked_repository_path_exists() {
    let root = repo_root();
    let top: Vec<String> = fs::read_dir(&root)
        .expect("repository root")
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.path().is_dir())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name != "target" && name != ".git")
        .collect();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        for path in repo_paths(&read(doc), &top) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(missing.is_empty(), "missing paths:\n{}", missing.join("\n"));
    assert!(checked >= 20, "only {checked} paths found");
}

/// What a recipe's comment says it prints: nothing (`None`), or a count.
fn stated_result(comment: &str) -> Option<Option<String>> {
    if comment == "prints nothing" {
        return Some(None);
    }
    let first = comment.split_whitespace().next()?;
    first.parse::<u64>().ok().map(|n| Some(n.to_string()))
}

#[test]
fn every_verify_recipe_prints_its_stated_result() {
    let mut checked = 0;
    let mut failures = Vec::new();
    let recipes = shell_lines(&read(VERIFY_NOTES));
    for recipe in recipes.iter().filter(|l| l.code.starts_with("grep ")) {
        let at = format!("{VERIFY_NOTES}:{}: `{}`", recipe.line, recipe.code);
        let Some(want) = recipe.comment.as_deref().and_then(stated_result) else {
            failures.push(format!(
                "{at} states no result (`# prints nothing` or `# N …`)"
            ));
            continue;
        };
        checked += 1;
        let out = Command::new("sh")
            .arg("-c")
            .arg(&recipe.code)
            .current_dir(repo_root())
            .output()
            .expect("sh runs");
        let got = String::from_utf8_lossy(&out.stdout);
        let holds = match &want {
            None => got.is_empty(),
            Some(n) => got.trim() == n,
        };
        if !holds {
            let want = want.as_deref().unwrap_or("nothing");
            failures.push(format!("{at} should print {want}, printed:\n{got}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(checked >= 21, "only {checked} recipes found");
}

/// The seven committed artifact schemas, each its type's own tag.
const SCHEMAS: [&str; 7] = [
    TelemetryReport::SCHEMA,
    MetricsSnapshot::SCHEMA,
    AlertLedger::SCHEMA,
    ScenarioReport::SCHEMA,
    SearchReport::SCHEMA,
    AdversarialFixture::SCHEMA,
    RobustnessLedger::SCHEMA,
];

/// Every `canopy-<name>/v<N>` tag in `line`.
fn schema_tags(line: &str) -> Vec<&str> {
    const PREFIX: &str = "canopy-";
    let mut tags = Vec::new();
    for (at, _) in line.match_indices(PREFIX) {
        let tail = &line[at..];
        let name = PREFIX.len()
            + tail[PREFIX.len()..]
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(tail.len() - PREFIX.len());
        let Some(version) = tail[name..].strip_prefix("/v") else {
            continue;
        };
        let digits = version
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(version.len());
        if digits > 0 {
            tags.push(&tail[..name + "/v".len() + digits]);
        }
    }
    tags
}

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, found);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            found.push(path);
        }
    }
}

/// A schema version lives in its type's `Artifact::SCHEMA`; every
/// tag README.md, ci.yml or a `//!`/`///` doc under `crates/*/src` names
/// must be one of the current seven, and README names all seven. Checked
/// by hand on a copy of the tree after the telemetry bump to v3: leaving
/// `canopy-telemetry/v2` in README.md's recorder example, in ci.yml's
/// outside validator or in `scenario_lab.rs`'s module doc fails this
/// test, which names each file, line and tag.
#[test]
fn every_documented_schema_tag_is_current() {
    let root = repo_root();
    let mut sources = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("crate directory").path().join("src"),
            &mut sources,
        );
    }
    sources.sort();
    let mut docs = vec![(README.to_string(), read(README), false)];
    docs.push((CI.to_string(), read(CI), false));
    for path in sources {
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let shown = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .display()
            .to_string();
        docs.push((shown, text, true));
    }
    let mut stale = Vec::new();
    let mut in_readme = BTreeSet::new();
    for (doc, text, doc_comments_only) in &docs {
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if *doc_comments_only && !(trimmed.starts_with("//!") || trimmed.starts_with("///")) {
                continue;
            }
            for tag in schema_tags(line) {
                if !SCHEMAS.contains(&tag) {
                    stale.push(format!("{doc}:{}: {tag}", i + 1));
                } else if doc == README {
                    in_readme.insert(tag);
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "tags that are no current Artifact::SCHEMA ({SCHEMAS:?}):\n{}",
        stale.join("\n")
    );
    let missing: Vec<&str> = SCHEMAS
        .into_iter()
        .filter(|s| !in_readme.contains(s))
        .collect();
    assert!(missing.is_empty(), "README.md names no {missing:?}");
}

#[test]
fn readme_is_at_most_700_lines() {
    let lines = read(README).lines().count();
    assert!(
        lines <= README_MAX_LINES,
        "README.md is {lines} lines, more than {README_MAX_LINES}: move history to CHANGES.md"
    );
}

#[test]
fn ci_search_smoke_hunts_every_family() {
    let ci = read(CI);
    let loops: Vec<Vec<&str>> = ci
        .lines()
        .filter_map(|line| line.split_once("for fam in "))
        .map(|(_, rest)| {
            rest.split(';')
                .next()
                .unwrap_or_default()
                .split_whitespace()
                .collect()
        })
        .collect();
    let families: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
    assert_eq!(loops.len(), 1, "expected one `for fam in …` loop in ci.yml");
    assert_eq!(
        loops[0], families,
        "ci.yml's family loop is not `Family::ALL`"
    );
}

/// The `pub fn`s that no non-test code names and that stay public anyway,
/// by file and name, each with why: the oracles tests compare the pipeline
/// against, the observers they read it through, and the constructors and
/// builders of its public types. Anything else no pipeline code names is
/// deleted, or demoted so the `dead_code` lint holds it.
#[rustfmt::skip]
const ORACLES: [(&str, &str, &str); 22] = [
    ("crates/absint/src/batch_ibp.rs", "buffers", "observer: `no_subnormals` audits every resident buffer of a propagation"),
    ("crates/absint/src/diff_ibp.rs", "out_bounds", "post-activation bounds, read against the sound IBP by the soundness suites"),
    ("crates/absint/src/ibp.rs", "propagate_mlp", "the scalar sound IBP, the enclosure oracle of the batched and zonotope domains"),
    ("crates/core/src/env.rs", "step_without_agent", "the Cubic-only step the consistency tests replay pooled runs with"),
    ("crates/core/src/env.rs", "with_samples", "builder: per-ACK delay samples for the consistency tests"),
    ("crates/core/src/orca.rs", "f_cwnd_abstract", "Eq. 5's abstract window, the soundness oracle of the certified window"),
    ("crates/netsim/src/link.rs", "with_impairments", "builder: impairment programs on a hand-built link"),
    ("crates/netsim/src/time.rs", "from_micros", "constructor of the simulator's time type, beside `from_millis`"),
    ("crates/netsim/src/topology.rs", "parking_lot", "the multi-hop topology the driver and pool tests build by hand"),
    ("crates/netsim/src/trace.rs", "rate_at", "a trace's rate at an instant, pinned by the trace goldens"),
    ("crates/nn/src/mlp.rs", "backward", "per-sample backward pass, the batch engine's and `td3::reference`'s oracle"),
    ("crates/nn/src/mlp.rs", "forward_concat", "per-sample critic forward pass of `td3::reference`"),
    ("crates/nn/src/mlp.rs", "forward_trace", "per-sample traced forward pass, the batch engine's oracle"),
    ("crates/nn/src/mlp.rs", "grads_flat", "observer: accumulated gradients, compared bit for bit by the oracles"),
    ("crates/nn/src/mlp.rs", "set_params_flat", "writes parameters for the finite-difference gradient checks"),
    ("crates/nn/src/tensor.rs", "from_rows", "constructor of the public matrix type"),
    ("crates/nn/src/tensor.rs", "from_vec", "constructor of the public matrix type"),
    ("crates/scenarios/src/episode.rs", "episode_env", "a scenario as one `CcEnv`, the step-for-step oracle of `run_scenario`"),
    ("crates/telemetry/src/live.rs", "with_cadence", "builder: the live layer's snapshot cadence"),
    ("crates/telemetry/src/metrics.rs", "counter", "observer: one counter of a metrics registry"),
    ("crates/telemetry/src/metrics.rs", "histogram", "observer: one histogram of a metrics registry"),
    ("crates/telemetry/src/metrics.rs", "window_end_ns", "observer: the windowed histogram's end, beside `window_start_ns`"),
];

/// `text` up to its first column-0 `#[cfg(test)]` (the test module, or a
/// trailing test-only `impl`), the cut of the verify notes' size count.
fn non_test_part(text: &str) -> &str {
    let cut = text
        .match_indices("#[cfg(test)]")
        .find(|&(at, _)| at == 0 || text[..at].ends_with('\n'))
        .map_or(text.len(), |(at, _)| at);
    &text[..cut]
}

/// The identifiers of Rust `code`, skipping `//` comments, string literals
/// and `pub use` re-exports (a re-export names nothing for use).
fn identifiers(code: &str) -> Vec<&str> {
    let bytes = code.as_bytes();
    let mut found = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let rest = &code[i..];
        let word = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if rest.starts_with("//") {
            i += rest.find('\n').unwrap_or(rest.len());
        } else if rest.starts_with("pub use ") {
            i += rest.find(';').unwrap_or(rest.len());
        } else if rest.starts_with("'\"'") {
            // The one character literal that would open a string.
            i += 3;
        } else if bytes[i] == b'"' {
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                i += if bytes[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
        } else if word > 0 {
            if !bytes[i].is_ascii_digit() {
                found.push(&rest[..word]);
            }
            i += word;
        } else {
            i += rest.chars().next().map_or(1, char::len_utf8);
        }
    }
    found
}

/// Holds the public surface to the pipeline: a `pub fn` under
/// `crates/*/src` must be named — outside its own definition, comments,
/// strings and re-exports — by non-test code (`crates/*/src` and
/// `benchmark/src` up to their test modules, `examples/`, `src/`), or be
/// listed in [`ORACLES`] with a reason; an entry whose function is gone
/// or has gained a caller must leave the list. An integration test naming
/// an item does not keep it public on its own. A name census: a second
/// function of the same name anywhere keeps both.
#[test]
fn every_pub_fn_is_named_by_non_test_code_or_an_oracle() {
    let root = repo_root();
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("crate directory").path().join("src"),
            &mut files,
        );
    }
    let crate_files = files.len();
    for dir in ["benchmark/src", "examples", "src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut defined: BTreeSet<(String, String)> = BTreeSet::new();
    let mut named: BTreeSet<String> = BTreeSet::new();
    for (i, path) in files.iter().enumerate() {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let shown = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .display()
            .to_string();
        let words = identifiers(non_test_part(&text));
        for (at, word) in words.iter().enumerate() {
            let before = |back: usize| at.checked_sub(back).map(|j| words[j]);
            if before(1) != Some("fn") {
                named.insert(word.to_string());
            } else if i < crate_files
                && (before(2) == Some("pub")
                    || (before(2) == Some("const") && before(3) == Some("pub")))
            {
                defined.insert((shown.clone(), word.to_string()));
            }
        }
    }
    let listed: BTreeSet<(String, String)> = ORACLES
        .iter()
        .map(|&(file, name, _)| (file.to_string(), name.to_string()))
        .collect();
    let unnamed: BTreeSet<(String, String)> = defined
        .iter()
        .filter(|(_, name)| !named.contains(name))
        .cloned()
        .collect();
    let unlisted: Vec<String> = unnamed
        .difference(&listed)
        .map(|(file, name)| format!("{file}: `pub fn {name}`"))
        .collect();
    assert!(
        unlisted.is_empty(),
        "public functions no non-test code names: delete them, make them \
         `pub(crate)`, or list them in ORACLES with a reason:\n{}",
        unlisted.join("\n")
    );
    let stale: Vec<String> = listed
        .difference(&unnamed)
        .map(|(file, name)| format!("{file}: `{name}`"))
        .collect();
    assert!(
        stale.is_empty(),
        "ORACLES entries that are gone or named by non-test code now:\n{}",
        stale.join("\n")
    );
    assert!(
        defined.len() >= 300,
        "only {} `pub fn`s found",
        defined.len()
    );
}
