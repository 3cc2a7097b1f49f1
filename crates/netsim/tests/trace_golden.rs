//! Trace goldens: what every bandwidth-trace query returns, pinned by digest.
//!
//! `transmit_end` decides when every packet leaves every link, and
//! `capacity_bytes` and `window` feed link utilization and every trace
//! combinator, so a reordered `f64` operation or a different wrap rule
//! silently moves every simulated packet. This suite compares against
//! committed numbers: per trace, an FNV-1a digest of the bits of
//!
//! * `transmit_end(start, bytes)` for 1, `MSS_BYTES` and 10⁶ bytes,
//! * `capacity_bytes(start, start + len)` and `window(start, start + len)`
//!   for spans from zero to several cycles, and
//! * `rate_at(start)`,
//!
//! over a grid of starts: zero, every segment boundary and one nanosecond
//! either side of it, mid-segment, past the end, and several cycles in.
//! The traces are looping and non-looping, with zero-rate segments, a
//! zero-rate held final segment, an all-zero loop and an empty trace, plus
//! the outputs of the trace combinators.
//!
//! A mismatch prints the whole table as found.
//!
//! A link looks its departures up through a `TraceCursor` instead
//! (`mss_transmit_end`), so the same grid also checks that lookup against
//! `transmit_end`, bit for bit, with the starts — and those where one MSS
//! just fits before a segment ends — replayed in increasing order, in
//! reverse and in a random order, and along back-to-back departure
//! streams.

use canopy_netsim::trace::{Segment, TraceCursor};
use canopy_netsim::{BandwidthTrace, Time, MSS_BYTES};

/// Per trace: name, then the digests of `transmit_end`, `capacity_bytes`,
/// `window` and `rate_at` over the grid.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64, u64, u64); 15] = [
    ("constant", 0x796e3ea7c37ed3c2, 0x0e3d2529f11a1d4d, 0x27c20610633a5e7b, 0xb7511c7e9d521585),
    ("square", 0x6b9cf2979ad2f3fd, 0x434ee5f9a637328a, 0x9102576644bd4b9b, 0x7736fbc770b7cd15),
    ("all-zero", 0x9cccbb9b79c47545, 0xdb696f78397bfac5, 0x0c5aba13da847430, 0xde9fa0da6fc22a85),
    ("late-start", 0x8c90f8047ac63ea2, 0x0a6ebfab30e22468, 0x6ad91a997cc8c8d1, 0x4a25f8a0ec4c8b49),
    ("empty", 0x0243cfa845185aa5, 0xcc6a1ff5f8a224a5, 0xcc6a1ff5f8a224a5, 0x0c8210784d8af5a5),
    ("scale(holey,0.370)", 0x5c3836013a83f151, 0x48d9da04988ed130, 0x747c903a8622b940, 0x4cf146841636cd53),
    ("splice(two-step,holey,600.000ms)", 0x0c0d5ad422137110, 0xb6fd077c22e910dc, 0x4a6c35668cebc122, 0xc7acf6e8fe5e0c78),
    ("periodic(odd,4.000ms)", 0xdbe68788d066f430, 0xdb7b92518b3d582d, 0x5a29b81bcd9a5a3a, 0x1ea2fac30e90724d),
    ("concat(dead-end,holey)", 0x93a7ff0e5273dc3a, 0xc28ac6e70b032415, 0x5c3bb044f969c6f1, 0x386155f1145b9cc9),
    ("concat(holey,dead-end)", 0xe8967ca546718fa7, 0x8c8f62fa5a1210b1, 0x2e7afc97b8eda95a, 0x112af66aa26cb12d),
    ("two-step", 0x7915ab668bf06209, 0xecd2e224c33f3968, 0x6b79922236c4bf25, 0xb11ff7d413458760),
    ("two-step-once", 0xc21d592753fe7c46, 0xdbda590bd4daf9e5, 0xb42a3d47ec10f0bd, 0xb7e8329a3c28f130),
    ("holey", 0xf4c12ba879284763, 0x973ccc0ec2acfde2, 0xedff18437d4e476a, 0x27317ba3f762b085),
    ("odd", 0xa9f7427a21904054, 0x7f47412d74133e57, 0xc1452bd065c0374b, 0xd453a28789c6cdb5),
    ("dead-end", 0x144986199beb6a8e, 0x5eb939cdc2fbc1bd, 0x0a6327b4544b0174, 0x1d3eee9cf53e49ec),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of `word`, continuing from `h`.
fn mix(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn seg(duration: Time, rate_bps: f64) -> Segment {
    Segment { duration, rate_bps }
}

fn traces() -> Vec<BandwidthTrace> {
    let ms = Time::from_millis;
    let two_step = vec![seg(ms(1000), 8e6), seg(ms(1000), 16e6)];
    let looping = BandwidthTrace::from_segments("two-step", two_step.clone(), true);
    let once = BandwidthTrace::from_segments("two-step-once", two_step, false);
    let holey = BandwidthTrace::from_segments(
        "holey",
        vec![seg(ms(300), 12e6), seg(ms(200), 0.0), seg(ms(500), 3e6)],
        true,
    );
    let odd = BandwidthTrace::from_segments(
        "odd",
        vec![
            seg(Time::from_nanos(1_234_567), 7.3e6),
            seg(Time::from_nanos(2_345_678), 123_456.7),
            seg(ms(3), 48e6),
        ],
        true,
    );
    let dead_end = BandwidthTrace::from_segments(
        "dead-end",
        vec![seg(ms(1000), 8e6), seg(ms(500), 0.0)],
        false,
    );
    vec![
        BandwidthTrace::constant("constant", 12e6),
        BandwidthTrace::square_wave("square", 6e6, 24e6, ms(250)),
        BandwidthTrace::from_segments(
            "all-zero",
            vec![seg(ms(1000), 0.0), seg(ms(2000), 0.0)],
            true,
        ),
        BandwidthTrace::from_segments(
            "late-start",
            vec![seg(ms(500), 0.0), seg(ms(250), 5e5)],
            false,
        ),
        BandwidthTrace::from_segments("empty", vec![seg(Time::ZERO, 8e6)], true),
        holey.scaled(0.37),
        looping.spliced(ms(600), &holey, ms(900)),
        odd.periodic(ms(4)),
        dead_end.concat(&holey, true),
        holey.concat(&dead_end, false),
        looping,
        once,
        holey,
        odd,
        dead_end,
    ]
}

/// Starts to probe a trace at: fixed instants, then per segment its
/// midpoint and its end boundary with one nanosecond either side, then
/// points past the end and several cycles in.
fn starts(trace: &BandwidthTrace) -> Vec<Time> {
    let mut out = vec![
        Time::ZERO,
        Time::from_nanos(1),
        Time::from_nanos(12_345_678),
        Time::from_secs(10),
    ];
    let mut at = Time::ZERO;
    for s in trace.segments() {
        out.push(at + s.duration / 2);
        at += s.duration;
        out.extend([at - Time::from_nanos(1), at, at + Time::from_nanos(1)]);
    }
    if let Some(first) = trace.segments().first() {
        let total = trace.cycle_duration();
        out.extend([
            total + total / 3 + Time::from_nanos(1),
            total * 3 + first.duration / 2,
            total * 7 + first.duration,
        ]);
    }
    out
}

/// Span lengths for the interval queries.
fn spans(trace: &BandwidthTrace) -> [Time; 7] {
    let total = trace.cycle_duration();
    [
        Time::ZERO,
        Time::from_nanos(1),
        Time::from_millis(1),
        Time::from_nanos(333_333_333),
        total,
        total * 2 + Time::from_nanos(17),
        Time::from_secs(10),
    ]
}

fn digests(trace: &BandwidthTrace) -> (u64, u64, u64, u64) {
    let (mut transmit, mut capacity, mut window, mut rate) =
        (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    for start in starts(trace) {
        for bytes in [1.0, f64::from(MSS_BYTES), 1e6] {
            transmit = match trace.transmit_end(start, bytes) {
                Some(end) => mix(mix(transmit, 1), end.as_nanos()),
                None => mix(transmit, 0),
            };
        }
        for len in spans(trace) {
            let end = start + len;
            capacity = mix(capacity, trace.capacity_bytes(start, end).to_bits());
            let pieces = trace.window(start, end);
            window = mix(window, pieces.len() as u64);
            for s in &pieces {
                window = mix(mix(window, s.duration.as_nanos()), s.rate_bps.to_bits());
            }
        }
        rate = mix(rate, trace.rate_at(start).to_bits());
    }
    (transmit, capacity, window, rate)
}

#[test]
fn every_trace_query_matches_its_committed_digests() {
    let traces = traces();
    let found: Vec<(&str, u64, u64, u64, u64)> = traces
        .iter()
        .map(|trace| {
            let (t, c, w, r) = digests(trace);
            (trace.name(), t, c, w, r)
        })
        .collect();
    let table: String = found
        .iter()
        .map(|(name, t, c, w, r)| {
            format!("    (\"{name}\", 0x{t:016x}, 0x{c:016x}, 0x{w:016x}, 0x{r:016x}),\n")
        })
        .collect();
    assert!(
        found.as_slice() == GOLDEN.as_slice(),
        "a trace query's result changed; found:\n{table}"
    );
}

/// Deterministic shuffle (splitmix-driven Fisher–Yates), so the test needs
/// no RNG dependency.
fn shuffled(mut v: Vec<Time>, mut state: u64) -> Vec<Time> {
    for i in (1..v.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        v.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    v
}

fn mss_end(trace: &BandwidthTrace, start: Time) -> Option<Time> {
    trace.transmit_end(start, f64::from(MSS_BYTES))
}

/// Per segment of positive rate, the starts where one MSS just fits
/// before the segment's end and one nanosecond either side: the span left
/// is the least `n` with `rate · n.as_secs_f64() >= bits`, the float test
/// `transmit_end` applies, found here by a linear walk from its estimate.
fn threshold_starts(trace: &BandwidthTrace) -> Vec<Time> {
    let bits = f64::from(MSS_BYTES) * 8.0;
    let mut out = Vec::new();
    let mut end = Time::ZERO;
    for s in trace.segments() {
        end += s.duration;
        if s.rate_bps <= 0.0 {
            continue;
        }
        let fits = |n: u64| s.rate_bps * Time::from_nanos(n).as_secs_f64() >= bits;
        let mut n = (bits / s.rate_bps * 1e9) as u64;
        while n > 0 && fits(n - 1) {
            n -= 1;
        }
        while !fits(n) {
            n += 1;
        }
        for span in [n - 1, n, n + 1] {
            if let Some(start) = end.as_nanos().checked_sub(span) {
                out.push(Time::from_nanos(start));
                out.push(Time::from_nanos(start) + trace.cycle_duration());
            }
        }
    }
    out
}

#[test]
fn cursor_lookups_equal_transmit_end_in_any_order() {
    for trace in traces() {
        let mut grid = starts(&trace);
        grid.extend(threshold_starts(&trace));
        grid.sort();
        let mut reversed = grid.clone();
        reversed.reverse();
        let random = shuffled(grid.clone(), grid.len() as u64);
        for (order, starts) in [
            ("increasing", grid),
            ("reverse", reversed),
            ("random", random),
        ] {
            let mut cursor = TraceCursor::default();
            for start in starts {
                assert_eq!(
                    trace.mss_transmit_end(&mut cursor, start),
                    mss_end(&trace, start),
                    "{} at {start:?}, {order} order",
                    trace.name()
                );
            }
        }
    }
}

/// From every grid start, a link sending back to back: each departure
/// starts when the previous one ends, with now and then an idle gap, so
/// the cursor steps across segment boundaries, loop wraps and the held
/// final rate.
#[test]
fn cursor_follows_back_to_back_departures() {
    for trace in traces() {
        let mut cursor = TraceCursor::default();
        for first in starts(&trace) {
            let mut start = first;
            for k in 0..400u64 {
                let end = trace.mss_transmit_end(&mut cursor, start);
                assert_eq!(end, mss_end(&trace, start), "{} at {start:?}", trace.name());
                let Some(end) = end else { break };
                let gap = if k % 7 == 0 {
                    Time::from_nanos(k * 104_729)
                } else {
                    Time::ZERO
                };
                start = end + gap;
            }
        }
    }
}
