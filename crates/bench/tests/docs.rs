//! README.md and the verify notes checked against the code: every
//! harness command line they show parses through that harness's parser in
//! `canopy_bench::cli`, and every repository path they name in backticks
//! exists. A renamed flag or a moved file fails here, not in a reader's
//! shell.

use std::fs;
use std::path::{Path, PathBuf};

use canopy_bench::cli::{FiguresCmd, HardenOpts, LabOpts, SearchOpts, ServeLabOpts};

/// The documents held to the code.
const DOCS: [&str; 2] = ["README.md", ".claude/skills/verify/SKILL.md"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(doc: &str) -> String {
    fs::read_to_string(repo_root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"))
}

/// Parses `args` with the parser of the harness binary `bin`.
fn parse(bin: &str, args: &[String]) -> Result<(), String> {
    match bin {
        "figures" => FiguresCmd::parse(args).map(drop),
        "scenario_lab" => LabOpts::parse(args).map(drop),
        "scenario_search" => SearchOpts::parse(args).map(drop),
        "harden" => HardenOpts::parse(args).map(drop),
        "serve_lab" => ServeLabOpts::parse(args).map(drop),
        other => Err(format!("`{other}` is not a harness binary")),
    }
}

/// Every `--bin <harness> [-- <args>]` command line in `text`: its line
/// number, the harness, and its arguments, with `\` continuations joined
/// and trailing `# …` comments dropped.
fn commands(text: &str) -> Vec<(usize, String, Vec<String>)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut found = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let start = i;
        let mut command = String::new();
        loop {
            let code = lines[i].split(" #").next().unwrap_or_default().trim_end();
            i += 1;
            match code.strip_suffix('\\') {
                Some(head) if i < lines.len() => command.push_str(&format!("{head} ")),
                _ => {
                    command.push_str(code);
                    break;
                }
            }
        }
        let words: Vec<&str> = command.split_whitespace().collect();
        let Some(at) = words.iter().position(|w| *w == "--bin") else {
            continue;
        };
        let bin = words.get(at + 1).copied().unwrap_or_default().to_string();
        let args = match words.get(at + 2) {
            Some(&"--") => words[at + 3..].iter().map(|w| w.to_string()).collect(),
            _ => Vec::new(),
        };
        found.push((start + 1, bin, args));
    }
    found
}

#[test]
fn every_documented_harness_command_line_parses() {
    let mut checked = 0;
    let mut failures = Vec::new();
    for doc in DOCS {
        for (line, bin, args) in commands(&read(doc)) {
            checked += 1;
            if let Err(e) = parse(&bin, &args) {
                failures.push(format!("{doc}:{line}: {bin} {}: {e}", args.join(" ")));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // README shows every harness; a parser that finds nothing proves nothing.
    assert!(checked >= 20, "only {checked} command lines found");
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
