//! Hashes the source of everything `Trainer::train` runs, and the build
//! that compiled it, so the model cache (`models::cache_path`) keys a
//! trained actor by the code and the build that trained it as well as by
//! its configuration.
//!
//! The hash is FNV-1a over the sorted (path, bytes) pairs of the `src`
//! trees of core, rl, nn, absint, netsim and cc and of the vendored `rand`
//! (the trainer's RNG stream), then over the build settings that can move
//! a trained byte: the optimisation level (the optimiser rewrites some
//! libm calls at `-O` only, so an `-O0` build can train other bits), the
//! target triple and its enabled features. Dev, `-O0` and release builds
//! therefore never serve each other's models from one cache directory. It
//! is written to `$OUT_DIR/trainer_source.rs` as one constant.

use std::fs;
use std::path::{Path, PathBuf};

/// The source trees a training run executes, relative to the workspace
/// root: six crates and the vendored RNG.
const TRAINER_TREES: [&str; 7] = [
    "crates/core",
    "crates/rl",
    "crates/nn",
    "crates/absint",
    "crates/netsim",
    "crates/cc",
    "vendor/rand",
];

/// The settings cargo hands a build script that can change what the
/// compiled trainer computes.
const BUILD_SETTINGS: [&str; 3] = ["OPT_LEVEL", "TARGET", "CARGO_CFG_TARGET_FEATURE"];

/// Every file under `dir`, recursively.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("a readable directory entry").path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let workspace = manifest
        .ancestors()
        .nth(2)
        .expect("crates/core sits two levels below the workspace root");
    let mut sources = Vec::new();
    for tree in TRAINER_TREES {
        let root = workspace.join(tree);
        let src = root.join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        let mut paths = Vec::new();
        files(&src, &mut paths);
        for path in paths {
            let relative = path.strip_prefix(&root).expect("under its tree");
            let key = format!("{tree}/{}", relative.to_string_lossy());
            sources.push((key, path));
        }
    }
    sources.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (key, path) in &sources {
        let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        hash = framed(hash, key, &bytes);
    }
    for name in BUILD_SETTINGS {
        let value = std::env::var(name).unwrap_or_default();
        hash = framed(hash, name, value.as_bytes());
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    let constant = format!(
        "/// FNV-1a of the trainer's source and build (see `build.rs`).\n\
         const TRAINER_SOURCE_HASH: u64 = {hash:#018x};\n"
    );
    fs::write(out.join("trainer_source.rs"), constant).expect("OUT_DIR is writable");
}

/// Feeds one named record to the hash. A name holds no NUL and the length
/// frames the bytes, so no two record sequences feed the hash one stream.
fn framed(hash: u64, name: &str, bytes: &[u8]) -> u64 {
    let hash = fnv1a(hash, name.as_bytes());
    let hash = fnv1a(hash, &[0]);
    let hash = fnv1a(hash, &(bytes.len() as u64).to_le_bytes());
    fnv1a(hash, bytes)
}
