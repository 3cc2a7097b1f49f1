//! Generation goldens: what every fuzz family decodes to, pinned by digest.
//!
//! A family's decoder is the only statement of its parameter layout, so a
//! reordered read, a changed bound or a different rounding rule changes
//! every scenario the family generates, every point a search visits and
//! every committed fixture — silently, since the harnesses' `--check`
//! gates only compare a run with itself. This suite compares against
//! committed numbers instead: per family, an FNV-1a digest of
//!
//! * `generate(family, seed).to_json()` for seeds 0..8, and
//! * `SearchSpace::decode_unit` on fixed unit-cube points — both corners,
//!   out-of-cube (−0.5, 1.5) and NaN coordinates, interior values and two
//!   mixed points — uncapped and with a 4 s horizon cap.
//!
//! A mismatch prints the whole table as found, ready to paste in when a
//! change to a family is intended (which also changes the committed
//! scenario report and fixtures: regenerate those alongside).

use canopy_netsim::Time;
use canopy_scenarios::{generate, Family};
use canopy_search::SearchSpace;

/// Per family: name, unit-cube dimension, then the digests of the
/// generated specs, the uncapped unit decodes and the capped unit decodes.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, u64, u64, u64); 8] = [
    ("flash-crowd", 20, 0x8eaf9b8335cdf203, 0x5dc34953573b0ede, 0x681a1df8d589869c),
    ("bandwidth-cliff", 8, 0x882504fbe43e2eb8, 0x3b082b11b10fe67c, 0x4562c147b5a7bc96),
    ("jitter-storm", 15, 0x9f2a8bf5404dc317, 0x9be8a29785c2886f, 0x5f3abc7bd710c71c),
    ("lossy-wireless", 10, 0x9af7d6b91201ea53, 0x528b7ed6f9bc1270, 0x68f3e712fd17c659),
    ("buffer-sweep", 6, 0x5586de38e8a5a6e9, 0xb27489e047828923, 0x77fa30733f97edd6),
    ("cross-traffic-churn", 22, 0xda7afa841499b98b, 0xafe40561e3038fca, 0x4f3a52215b146873),
    ("incast-burst", 20, 0x2694d84451fe3dc3, 0xcf7ea421f863463e, 0x801f0a66ef00e4f6),
    ("parking-lot-unfairness", 11, 0x6412eca8ca5deee7, 0x747885ede5a42254, 0x3f6567a90baf8ede),
];

const SEEDS: u64 = 8;
const CAP: Time = Time::from_secs(4);
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `text`, continuing from `h`.
fn fnv1a(h: u64, text: &str) -> u64 {
    text.bytes().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fixed unit points of a `dims`-dimensional cube: eight uniform
/// points, then one interior point varying per coordinate and one that
/// mixes out-of-cube, NaN and interior coordinates.
fn unit_points(dims: usize) -> Vec<Vec<f64>> {
    let mut points: Vec<Vec<f64>> = [0.0, 1.0, -0.5, 1.5, f64::NAN, 0.25, 0.5, 0.75]
        .iter()
        .map(|&u| vec![u; dims])
        .collect();
    points.push(
        (0..dims)
            .map(|j| ((j * 7 + 3) % 13) as f64 / 12.0)
            .collect(),
    );
    let mixed = [-0.5, 0.33, f64::NAN, 0.66, 1.5];
    points.push((0..dims).map(|j| mixed[j % mixed.len()]).collect());
    points
}

fn generate_digest(family: Family) -> u64 {
    (0..SEEDS).fold(FNV_OFFSET, |h, seed| {
        fnv1a(h, &generate(family, seed).to_json())
    })
}

fn decode_digest(family: Family, cap: Option<Time>) -> u64 {
    let space = SearchSpace::new(family, 7).with_duration_cap(cap);
    unit_points(space.dims())
        .iter()
        .fold(FNV_OFFSET, |h, unit| {
            fnv1a(h, &space.decode_unit(unit).to_json())
        })
}

#[test]
fn every_family_decodes_to_its_committed_digests() {
    let found: Vec<(&str, usize, u64, u64, u64)> = Family::ALL
        .iter()
        .map(|&f| {
            (
                f.name(),
                SearchSpace::new(f, 7).dims(),
                generate_digest(f),
                decode_digest(f, None),
                decode_digest(f, Some(CAP)),
            )
        })
        .collect();
    let table: String = found
        .iter()
        .map(|(name, dims, g, u, c)| {
            format!("    (\"{name}\", {dims}, 0x{g:016x}, 0x{u:016x}, 0x{c:016x}),\n")
        })
        .collect();
    assert!(
        found.as_slice() == GOLDEN.as_slice(),
        "a family's generated or decoded scenarios changed; found:\n{table}"
    );
}
