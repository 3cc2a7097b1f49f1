//! Hashes the source of everything `Trainer::train` runs, so the model
//! cache (`models::cache_path`) keys a trained actor by the code that
//! trained it as well as by its configuration.
//!
//! The hash is FNV-1a over the sorted (path relative to its crate, bytes)
//! pairs of the `src` trees of core, rl, nn, absint, netsim and cc. It is
//! written to `$OUT_DIR/trainer_source.rs` as one constant.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose code a training run executes, as siblings of this one.
const TRAINER_CRATES: [&str; 6] = ["core", "rl", "nn", "absint", "netsim", "cc"];

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
    let crates = manifest.parent().expect("crates/core has a parent");
    let mut sources = Vec::new();
    for name in TRAINER_CRATES {
        let root = crates.join(name);
        let src = root.join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        let mut paths = Vec::new();
        files(&src, &mut paths);
        for path in paths {
            let relative = path.strip_prefix(&root).expect("under its crate");
            let key = format!("{name}/{}", relative.to_string_lossy());
            sources.push((key, path));
        }
    }
    sources.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (key, path) in &sources {
        let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        hash = fnv1a(hash, key.as_bytes());
        // A path holds no NUL and the length frames the bytes, so no two
        // trees feed the hash one stream.
        hash = fnv1a(hash, &[0]);
        hash = fnv1a(hash, &(bytes.len() as u64).to_le_bytes());
        hash = fnv1a(hash, &bytes);
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    let constant = format!(
        "/// FNV-1a of the trainer's source (see `build.rs`).\n\
         const TRAINER_SOURCE_HASH: u64 = {hash:#018x};\n"
    );
    fs::write(out.join("trainer_source.rs"), constant).expect("OUT_DIR is writable");
}
