//! Trace-driven bottleneck bandwidth.
//!
//! A [`BandwidthTrace`] is a piecewise-constant rate process: an ordered list
//! of `(duration, rate)` segments, optionally looping. This is the moral
//! equivalent of a Mahimahi packet-delivery trace, expressed as rates so that
//! synthetic generators (steps, square waves, LTE-like processes) are easy to
//! write, while transmission times remain exact because each packet's
//! service time is obtained by integrating the rate over the segments it
//! spans.
//!
//! A link looks its departures up through a [`TraceCursor`]: the segment
//! its last departure started in, resumed in O(1) while time moves
//! forward, with that segment's one-MSS serialization time cached.

use crate::packet::MSS_BYTES;
use crate::time::Time;

/// The bits of one MSS payload, as [`BandwidthTrace::transmit_end`] counts
/// them for a packet.
const MSS_BITS: f64 = MSS_BYTES as f64 * 8.0;

/// One constant-rate piece of a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// How long this rate holds.
    pub duration: Time,
    /// Link rate in bits per second; may be zero (an outage).
    pub rate_bps: f64,
}

/// A piecewise-constant bandwidth process for the bottleneck link.
///
/// Traces always conceptually extend to infinite time: a looping trace wraps
/// around modulo its total duration, and a non-looping trace holds its final
/// segment's rate forever.
///
/// # Examples
///
/// ```
/// use canopy_netsim::{BandwidthTrace, Time};
///
/// let tr = BandwidthTrace::constant("c", 12e6);
/// assert_eq!(tr.rate_at(Time::from_secs(5)), 12e6);
///
/// let sq = BandwidthTrace::square_wave("sq", 10e6, 20e6, Time::from_secs(1));
/// assert_eq!(sq.rate_at(Time::from_millis(500)), 10e6);
/// assert_eq!(sq.rate_at(Time::from_millis(1500)), 20e6);
/// assert_eq!(sq.rate_at(Time::from_millis(2500)), 10e6); // loops
/// ```
#[derive(Clone, Debug)]
pub struct BandwidthTrace {
    name: String,
    segments: Vec<Segment>,
    /// Cumulative start offset of each segment (same length as `segments`).
    starts: Vec<Time>,
    total: Time,
    loops: bool,
}

impl BandwidthTrace {
    /// Builds a trace from explicit segments.
    ///
    /// Zero-duration segments are dropped. If the remaining list is empty the
    /// trace is a constant zero-rate outage.
    pub fn from_segments(name: &str, segments: Vec<Segment>, loops: bool) -> BandwidthTrace {
        let segments: Vec<Segment> = segments
            .into_iter()
            .filter(|s| s.duration > Time::ZERO)
            .map(|s| Segment {
                duration: s.duration,
                rate_bps: s.rate_bps.max(0.0),
            })
            .collect();
        let mut starts = Vec::with_capacity(segments.len());
        let mut t = Time::ZERO;
        for s in &segments {
            starts.push(t);
            t += s.duration;
        }
        BandwidthTrace {
            name: name.to_string(),
            segments,
            starts,
            total: t,
            loops,
        }
    }

    /// A constant-rate trace.
    pub fn constant(name: &str, rate_bps: f64) -> BandwidthTrace {
        BandwidthTrace::from_segments(
            name,
            vec![Segment {
                duration: Time::from_secs(1),
                rate_bps,
            }],
            true,
        )
    }

    /// A square wave alternating between `low_bps` and `high_bps` with the
    /// given half-period, starting low.
    pub fn square_wave(
        name: &str,
        low_bps: f64,
        high_bps: f64,
        half_period: Time,
    ) -> BandwidthTrace {
        BandwidthTrace::from_segments(
            name,
            vec![
                Segment {
                    duration: half_period,
                    rate_bps: low_bps,
                },
                Segment {
                    duration: half_period,
                    rate_bps: high_bps,
                },
            ],
            true,
        )
    }

    /// The trace's human-readable name (used in experiment output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total duration of one pass over the segments.
    pub fn cycle_duration(&self) -> Time {
        self.total
    }

    /// The segments of one cycle.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Maps an absolute time to `(segment index, offset within segment)`.
    ///
    /// Times past the end of a non-looping trace land in the final segment.
    fn locate(&self, t: Time) -> (usize, Time) {
        if self.segments.is_empty() {
            return (usize::MAX, Time::ZERO);
        }
        let t = if self.loops {
            Time::from_nanos(t.as_nanos() % self.total.as_nanos().max(1))
        } else if t >= self.total {
            // Hold the last segment forever.
            return (self.segments.len() - 1, Time::ZERO);
        } else {
            t
        };
        // Binary search over cumulative starts.
        let idx = match self.starts.binary_search(&t) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (idx, t - self.starts[idx])
    }

    /// The instantaneous rate at time `t`, in bits per second.
    pub fn rate_at(&self, t: Time) -> f64 {
        let (idx, _) = self.locate(t);
        if idx == usize::MAX {
            0.0
        } else {
            self.segments[idx].rate_bps
        }
    }

    /// The rate as constant-rate pieces `(span, rate)` from `from` on: the
    /// rest of the segment holding `from`, then whole segments in order —
    /// wrapping on a looping trace — and, once a non-looping trace has
    /// ended, its final rate held with span [`Time::MAX`], endlessly. Empty
    /// for a trace without segments.
    fn pieces(&self, from: Time) -> Pieces<'_> {
        let (idx, offset) = self.locate(from);
        let left = match self.segments.get(idx) {
            Some(s) if self.loops || from < self.total => s.duration - offset,
            _ => Time::MAX,
        };
        Pieces {
            trace: self,
            idx,
            left,
        }
    }

    /// [`pieces`](Self::pieces) clipped to `[from, to)`.
    fn pieces_within(&self, from: Time, to: Time) -> impl Iterator<Item = (Time, f64)> + '_ {
        self.pieces(from).scan(from, move |now, (left, rate)| {
            (*now < to).then(|| {
                let span = left.min(to - *now);
                *now += span;
                (span, rate)
            })
        })
    }

    /// The time at which a transmission of `bytes` bytes starting at `start`
    /// completes, integrating the rate across segment boundaries.
    ///
    /// Returns `None` if the trace can never deliver the bytes (for example a
    /// non-looping trace whose final segment has zero rate, or an all-zero
    /// looping trace).
    pub fn transmit_end(&self, start: Time, bytes: f64) -> Option<Time> {
        if bytes <= 0.0 {
            return Some(start);
        }
        let mut remaining_bits = bytes * 8.0;
        let mut now = start;
        // One full zero-rate cycle on a looping trace means no progress ever.
        let mut zero_run = Time::ZERO;
        for (span, rate) in self.pieces(start) {
            if rate > 0.0 {
                zero_run = Time::ZERO;
                let bits_in_span = rate * span.as_secs_f64();
                if bits_in_span >= remaining_bits || span == Time::MAX {
                    let dt = Time::from_secs_f64(remaining_bits / rate);
                    return Some(now + dt);
                }
                remaining_bits -= bits_in_span;
            } else {
                zero_run += span.min(self.total);
                if span == Time::MAX || (self.loops && zero_run >= self.total) {
                    return None;
                }
            }
            now += span;
        }
        None
    }

    /// [`transmit_end`](Self::transmit_end) of one [`MSS_BYTES`] payload,
    /// bit for bit, resuming at `cursor`'s position in this trace.
    ///
    /// For non-decreasing starts the lookup costs O(1): the start lies in
    /// the cursor's segment or in the one after it, and when one MSS fits
    /// in the rest of that segment the answer is `start` plus the
    /// segment's cached serialization time. A start further on or earlier
    /// re-seeks by binary search over the segment starts; a transmission
    /// that crosses a segment boundary or waits out an outage takes the
    /// full integration.
    pub fn mss_transmit_end(&self, cursor: &mut TraceCursor, start: Time) -> Option<Time> {
        if !cursor.covers(start) && !self.seek(cursor, start) {
            // A trace without segments never delivers.
            return None;
        }
        let left = if cursor.to == Time::MAX {
            u64::MAX
        } else {
            (cursor.to - start).as_nanos()
        };
        if cursor.rate > 0.0 && left >= cursor.fit_ns {
            Some(start + cursor.serialization)
        } else {
            self.transmit_end(start, f64::from(MSS_BYTES))
        }
    }

    /// Moves `cursor` to the segment holding `start`: one step forward
    /// when that reaches it, [`locate`](Self::locate) otherwise. Returns
    /// `false`, leaving the cursor as it was, on a trace without segments.
    fn seek(&self, cursor: &mut TraceCursor, start: Time) -> bool {
        let n = self.segments.len();
        if n == 0 {
            return false;
        }
        if cursor.idx < n && start >= cursor.to {
            // Step to the next segment, wrapping a looping trace and
            // holding a non-looping one's final rate past its end.
            cursor.from = cursor.to;
            if cursor.idx + 1 < n {
                cursor.idx += 1;
            } else if self.loops {
                cursor.idx = 0;
            }
            cursor.to = if cursor.from == self.total && !self.loops {
                Time::MAX
            } else {
                cursor
                    .from
                    .saturating_add(self.segments[cursor.idx].duration)
            };
        }
        if !cursor.covers(start) {
            let (idx, offset) = self.locate(start);
            cursor.idx = idx;
            (cursor.from, cursor.to) = if !self.loops && start >= self.total {
                (self.total, Time::MAX)
            } else {
                let from = start - offset;
                (from, from.saturating_add(self.segments[idx].duration))
            };
        }
        let rate = self.segments[cursor.idx].rate_bps;
        cursor.rate = rate;
        if rate > 0.0 {
            cursor.serialization = Time::from_secs_f64(MSS_BITS / rate);
            cursor.fit_ns = least_fitting_span(rate, MSS_BITS);
        }
        true
    }

    /// Total deliverable bytes between `from` and `to` (the integral of the
    /// rate), used to compute link utilization.
    pub fn capacity_bytes(&self, from: Time, to: Time) -> f64 {
        let bits = self
            .pieces_within(from, to)
            .fold(0.0, |bits, (span, rate)| bits + rate * span.as_secs_f64());
        bits / 8.0
    }

    /// Average rate over `[from, to)` in bits per second.
    pub fn avg_rate(&self, from: Time, to: Time) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.capacity_bytes(from, to) * 8.0 / (to - from).as_secs_f64()
    }

    /// The maximum segment rate of one cycle, in bits per second.
    pub fn peak_rate(&self) -> f64 {
        self.segments.iter().map(|s| s.rate_bps).fold(0.0, f64::max)
    }

    // -----------------------------------------------------------------
    // Composition combinators.
    //
    // Each combinator materializes a new piecewise-constant trace; the
    // scenario subsystem composes them into arbitrary bandwidth programs
    // (cliffs, spliced outages, repeated bursts) from a small algebra.
    // -----------------------------------------------------------------

    /// Materializes the piecewise-constant rate over `[from, to)` as
    /// explicit segments (adjacent equal-rate spans merged), unrolling
    /// loops and the held final rate of non-looping traces.
    pub fn window(&self, from: Time, to: Time) -> Vec<Segment> {
        let mut out: Vec<Segment> = Vec::new();
        for (span, rate) in self.pieces_within(from, to) {
            match out.last_mut() {
                Some(last) if last.rate_bps == rate => last.duration += span,
                _ => out.push(Segment {
                    duration: span,
                    rate_bps: rate,
                }),
            }
        }
        out
    }

    /// Multiplies every rate by `factor` (clamped non-negative).
    pub fn scaled(&self, factor: f64) -> BandwidthTrace {
        let factor = factor.max(0.0);
        let segments = self
            .segments
            .iter()
            .map(|s| Segment {
                duration: s.duration,
                rate_bps: s.rate_bps * factor,
            })
            .collect();
        BandwidthTrace::from_segments(
            &format!("scale({},{factor:.3})", self.name),
            segments,
            self.loops,
        )
    }

    /// Adds `delta_bps` to every rate (negative shifts floor at zero).
    pub fn rate_shifted(&self, delta_bps: f64) -> BandwidthTrace {
        let segments = self
            .segments
            .iter()
            .map(|s| Segment {
                duration: s.duration,
                rate_bps: (s.rate_bps + delta_bps).max(0.0),
            })
            .collect();
        BandwidthTrace::from_segments(
            &format!("shift({},{delta_bps:.0})", self.name),
            segments,
            self.loops,
        )
    }

    /// Clamps every rate into `[min_bps, max_bps]`.
    pub fn clamped(&self, min_bps: f64, max_bps: f64) -> BandwidthTrace {
        let lo = min_bps.max(0.0);
        let hi = max_bps.max(lo);
        let segments = self
            .segments
            .iter()
            .map(|s| Segment {
                duration: s.duration,
                rate_bps: s.rate_bps.clamp(lo, hi),
            })
            .collect();
        BandwidthTrace::from_segments(
            &format!("clamp({},{lo:.0},{hi:.0})", self.name),
            segments,
            self.loops,
        )
    }

    /// One full cycle of `self` followed by one full cycle of `other`;
    /// `loops` selects whether the concatenation repeats.
    pub fn concat(&self, other: &BandwidthTrace, loops: bool) -> BandwidthTrace {
        let mut segments = self.segments.clone();
        segments.extend(other.segments.iter().copied());
        BandwidthTrace::from_segments(
            &format!("concat({},{})", self.name, other.name),
            segments,
            loops,
        )
    }

    /// Replaces `[at, at + len)` of this trace with the first `len` of
    /// `patch`, resuming this trace's own timeline afterwards. The result
    /// covers one cycle of `self` (extended if the patch runs past it) and
    /// keeps this trace's looping behaviour.
    pub fn spliced(&self, at: Time, patch: &BandwidthTrace, len: Time) -> BandwidthTrace {
        let end = at + len;
        let cycle = self.total.max(end);
        let mut segments = self.window(Time::ZERO, at);
        segments.extend(patch.window(Time::ZERO, len));
        segments.extend(self.window(end, cycle));
        BandwidthTrace::from_segments(
            &format!("splice({},{},{at})", self.name, patch.name),
            segments,
            self.loops,
        )
    }

    /// Loops the prefix `[0, window)` of this trace forever (periodic
    /// repeat), regardless of the source's own looping flag.
    pub fn periodic(&self, window: Time) -> BandwidthTrace {
        BandwidthTrace::from_segments(
            &format!("periodic({},{window})", self.name),
            self.window(Time::ZERO, window),
            true,
        )
    }
}

/// The least span `ns`, in nanoseconds, over which `rate` carries `bits`
/// by the test [`BandwidthTrace::transmit_end`] applies to a piece,
/// `rate · ns.as_secs_f64() >= bits`; `u64::MAX` when no span does. The
/// test is monotone in `ns`, so comparing an integer span against this one
/// is that float test, bit for bit. `rate` must be positive.
fn least_fitting_span(rate: f64, bits: f64) -> u64 {
    let fits = |ns: u64| rate * Time::from_nanos(ns).as_secs_f64() >= bits;
    // The float quotient lands within a few nanoseconds of the answer:
    // gallop up to a span that fits, down to one that does not, then bisect.
    let mut hi = (bits / rate * 1e9) as u64;
    let mut step = 1u64;
    while !fits(hi) {
        if hi == u64::MAX {
            return u64::MAX;
        }
        hi = hi.saturating_add(step);
        step = step.saturating_mul(2);
    }
    step = 1;
    let mut lo = loop {
        if hi == 0 {
            return 0;
        }
        let below = hi.saturating_sub(step);
        if !fits(below) {
            break below;
        }
        hi = below;
        step = step.saturating_mul(2);
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// A link's resumable position in its [`BandwidthTrace`], for
/// [`BandwidthTrace::mss_transmit_end`]: the segment its last lookup
/// started in, that segment's absolute span in the current cycle, and,
/// cached once per visit, its one-MSS serialization time and the least
/// span that fits one MSS.
///
/// A cursor belongs to one trace; a fresh one covers no time, so its first
/// lookup seeks. It changes no result, only what a lookup costs.
#[derive(Clone, Debug)]
pub struct TraceCursor {
    /// The segment the cursor is in (`usize::MAX` until the first seek).
    idx: usize,
    /// Absolute `[from, to)` of the segment; `to` is [`Time::MAX`] once a
    /// non-looping trace holds its final rate.
    from: Time,
    to: Time,
    /// The segment's rate, bits per second.
    rate: f64,
    /// [`least_fitting_span`] of one MSS at `rate` (positive rates only).
    fit_ns: u64,
    /// One MSS's serialization time at `rate` (positive rates only).
    serialization: Time,
}

impl Default for TraceCursor {
    fn default() -> TraceCursor {
        TraceCursor {
            idx: usize::MAX,
            from: Time::MAX,
            to: Time::ZERO,
            rate: 0.0,
            fit_ns: u64::MAX,
            serialization: Time::ZERO,
        }
    }
}

impl TraceCursor {
    /// Whether `t` lies in the cursor's segment.
    #[inline]
    fn covers(&self, t: Time) -> bool {
        self.from <= t && (t < self.to || self.to == Time::MAX)
    }
}

/// The cursor behind [`BandwidthTrace::pieces`].
struct Pieces<'a> {
    trace: &'a BandwidthTrace,
    /// The segment the next piece comes from (`usize::MAX` for a trace
    /// without segments).
    idx: usize,
    /// The next piece's span.
    left: Time,
}

impl Iterator for Pieces<'_> {
    type Item = (Time, f64);

    fn next(&mut self) -> Option<(Time, f64)> {
        let segments = &self.trace.segments;
        let piece = (self.left, segments.get(self.idx)?.rate_bps);
        self.idx += 1;
        if self.idx < segments.len() {
            self.left = segments[self.idx].duration;
        } else if self.trace.loops {
            self.idx = 0;
            self.left = segments[0].duration;
        } else {
            // Past the end of a non-looping trace: hold the final rate.
            self.idx = segments.len() - 1;
            self.left = Time::MAX;
        }
        Some(piece)
    }
}

/// What the trace tests (here and in [`crate::traces`]) observe.
#[cfg(test)]
impl BandwidthTrace {
    /// Whether the trace wraps around after [`cycle_duration`](Self::cycle_duration).
    pub(crate) fn loops(&self) -> bool {
        self.loops
    }

    /// The minimum segment rate of one cycle, in bits per second.
    pub(crate) fn min_rate(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.rate_bps)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_step() -> BandwidthTrace {
        BandwidthTrace::from_segments(
            "two",
            vec![
                Segment {
                    duration: Time::from_secs(1),
                    rate_bps: 8e6, // 1 MB/s
                },
                Segment {
                    duration: Time::from_secs(1),
                    rate_bps: 16e6, // 2 MB/s
                },
            ],
            true,
        )
    }

    #[test]
    fn rate_lookup_and_loop() {
        let tr = two_step();
        assert_eq!(tr.rate_at(Time::from_millis(0)), 8e6);
        assert_eq!(tr.rate_at(Time::from_millis(999)), 8e6);
        assert_eq!(tr.rate_at(Time::from_millis(1000)), 16e6);
        assert_eq!(tr.rate_at(Time::from_millis(2000)), 8e6);
        assert_eq!(tr.rate_at(Time::from_millis(3500)), 16e6);
    }

    #[test]
    fn non_looping_holds_last_rate() {
        let mut tr = two_step();
        tr = BandwidthTrace::from_segments("nl", tr.segments().to_vec(), false);
        assert_eq!(tr.rate_at(Time::from_secs(10)), 16e6);
        // Transmission far past the end uses the held rate.
        let end = tr.transmit_end(Time::from_secs(10), 2_000_000.0).unwrap();
        assert!((end.as_secs_f64() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn transmit_within_one_segment() {
        let tr = two_step();
        // 1 MB/s: 500 kB takes 0.5 s.
        let end = tr.transmit_end(Time::ZERO, 500_000.0).unwrap();
        assert!((end.as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn transmit_across_boundary() {
        let tr = two_step();
        // From t=0.5s: 0.5 s of 1 MB/s (500 kB) then 250 kB at 2 MB/s = 0.125 s.
        let end = tr.transmit_end(Time::from_millis(500), 750_000.0).unwrap();
        assert!((end.as_secs_f64() - 1.125).abs() < 1e-9, "{end:?}");
    }

    #[test]
    fn transmit_across_loop_wrap() {
        let tr = two_step();
        // From t=1.9s: 0.1 s of 2 MB/s (200 kB) then wrap to 1 MB/s.
        let end = tr.transmit_end(Time::from_millis(1900), 300_000.0).unwrap();
        assert!((end.as_secs_f64() - 2.1).abs() < 1e-9, "{end:?}");
    }

    #[test]
    fn outage_skipped() {
        let tr = BandwidthTrace::from_segments(
            "outage",
            vec![
                Segment {
                    duration: Time::from_secs(1),
                    rate_bps: 0.0,
                },
                Segment {
                    duration: Time::from_secs(1),
                    rate_bps: 8e6,
                },
            ],
            true,
        );
        let end = tr.transmit_end(Time::ZERO, 1_000_000.0).unwrap();
        assert!((end.as_secs_f64() - 2.0).abs() < 1e-9, "{end:?}");
    }

    #[test]
    fn all_zero_trace_never_completes() {
        let tr = BandwidthTrace::constant("dead", 0.0);
        assert_eq!(tr.transmit_end(Time::ZERO, 1.0), None);
        let tr2 = BandwidthTrace::from_segments(
            "dead2",
            vec![Segment {
                duration: Time::from_secs(1),
                rate_bps: 0.0,
            }],
            false,
        );
        assert_eq!(tr2.transmit_end(Time::from_secs(3), 1.0), None);
    }

    #[test]
    fn capacity_integral() {
        let tr = two_step();
        // One full cycle: 1 MB + 2 MB = 3 MB.
        let cap = tr.capacity_bytes(Time::ZERO, Time::from_secs(2));
        assert!((cap - 3_000_000.0).abs() < 1.0);
        // Half of each segment: 0.5 + 1.0 = 1.5 MB.
        let cap = tr.capacity_bytes(Time::from_millis(500), Time::from_millis(1500));
        assert!((cap - 1_500_000.0).abs() < 1.0);
        // Average rate over a full cycle is 12 Mbps.
        assert!((tr.avg_rate(Time::ZERO, Time::from_secs(2)) - 12e6).abs() < 1.0);
    }

    #[test]
    fn peak_and_min() {
        let tr = two_step();
        assert_eq!(tr.peak_rate(), 16e6);
        assert_eq!(tr.min_rate(), 8e6);
    }

    #[test]
    fn zero_bytes_is_instant() {
        let tr = two_step();
        assert_eq!(
            tr.transmit_end(Time::from_secs(1), 0.0),
            Some(Time::from_secs(1))
        );
    }

    #[test]
    fn window_materializes_and_merges() {
        let tr = two_step();
        // A window inside one segment.
        let w = tr.window(Time::from_millis(100), Time::from_millis(600));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].duration, Time::from_millis(500));
        assert_eq!(w[0].rate_bps, 8e6);
        // Crossing a loop wrap: 16 Mbps tail, 8 Mbps head.
        let w = tr.window(Time::from_millis(1500), Time::from_millis(2500));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].rate_bps, 16e6);
        assert_eq!(w[1].rate_bps, 8e6);
        assert_eq!(w[0].duration + w[1].duration, Time::from_secs(1));
        // Empty window.
        assert!(tr.window(Time::from_secs(1), Time::from_secs(1)).is_empty());
        // Two full cycles merge the wrap-adjacent equal rates into four
        // spans (8,16,8,16).
        let w = tr.window(Time::ZERO, Time::from_secs(4));
        assert_eq!(w.len(), 4);
        assert_eq!(
            w.iter().map(|s| s.duration).fold(Time::ZERO, |a, d| a + d),
            Time::from_secs(4)
        );
    }

    #[test]
    fn window_of_non_looping_holds_final_rate() {
        let tr = BandwidthTrace::from_segments("nl", two_step().segments().to_vec(), false);
        let w = tr.window(Time::from_secs(1), Time::from_secs(5));
        // 1 s of 16 Mbps inside the trace, then 3 s of held 16 Mbps: merged.
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].rate_bps, 16e6);
        assert_eq!(w[0].duration, Time::from_secs(4));
    }

    #[test]
    fn scaled_multiplies_rates_and_keeps_lengths() {
        let tr = two_step().scaled(0.5);
        assert_eq!(tr.cycle_duration(), Time::from_secs(2));
        assert_eq!(tr.rate_at(Time::ZERO), 4e6);
        assert_eq!(tr.rate_at(Time::from_millis(1500)), 8e6);
        assert!(tr.loops());
        // Negative factors clamp to an outage.
        assert_eq!(two_step().scaled(-2.0).peak_rate(), 0.0);
    }

    #[test]
    fn rate_shift_floors_at_zero() {
        let tr = two_step().rate_shifted(-12e6);
        assert_eq!(tr.rate_at(Time::ZERO), 0.0); // 8 - 12 floors
        assert_eq!(tr.rate_at(Time::from_millis(1500)), 4e6);
        let up = two_step().rate_shifted(1e6);
        assert_eq!(up.min_rate(), 9e6);
        assert_eq!(up.peak_rate(), 17e6);
    }

    #[test]
    fn clamp_bounds_rates() {
        let tr = two_step().clamped(10e6, 12e6);
        assert_eq!(tr.min_rate(), 10e6);
        assert_eq!(tr.peak_rate(), 12e6);
        assert_eq!(tr.cycle_duration(), Time::from_secs(2));
        // Inverted bounds are reordered instead of panicking.
        let tr = two_step().clamped(12e6, 10e6);
        assert_eq!(tr.min_rate(), 12e6);
    }

    #[test]
    fn concat_joins_cycles() {
        let a = BandwidthTrace::constant("a", 8e6);
        let b = BandwidthTrace::constant("b", 16e6);
        let ab = a.concat(&b, true);
        assert_eq!(ab.cycle_duration(), Time::from_secs(2));
        assert_eq!(ab.rate_at(Time::from_millis(500)), 8e6);
        assert_eq!(ab.rate_at(Time::from_millis(1500)), 16e6);
        assert_eq!(ab.rate_at(Time::from_millis(2500)), 8e6); // loops
    }

    #[test]
    fn splice_boundaries_are_exact() {
        let base = BandwidthTrace::from_segments(
            "base",
            vec![Segment {
                duration: Time::from_secs(4),
                rate_bps: 16e6,
            }],
            true,
        );
        let patch = BandwidthTrace::constant("patch", 2e6);
        let sp = base.spliced(Time::from_secs(1), &patch, Time::from_secs(1));
        assert_eq!(sp.cycle_duration(), Time::from_secs(4));
        assert_eq!(sp.rate_at(Time::from_millis(999)), 16e6);
        assert_eq!(sp.rate_at(Time::from_millis(1000)), 2e6);
        assert_eq!(sp.rate_at(Time::from_millis(1999)), 2e6);
        assert_eq!(sp.rate_at(Time::from_millis(2000)), 16e6);
        // The patch may extend past the base cycle.
        let long = base.spliced(Time::from_secs(3), &patch, Time::from_secs(2));
        assert_eq!(long.cycle_duration(), Time::from_secs(5));
        assert_eq!(long.rate_at(Time::from_millis(4500)), 2e6);
    }

    #[test]
    fn periodic_repeats_prefix() {
        let tr = two_step().periodic(Time::from_millis(500));
        assert!(tr.loops());
        assert_eq!(tr.cycle_duration(), Time::from_millis(500));
        // Only the 8 Mbps prefix survives, repeated forever.
        assert_eq!(tr.rate_at(Time::from_secs(10)), 8e6);
        assert_eq!(tr.peak_rate(), 8e6);
    }

    #[test]
    fn combinators_compose() {
        // scale ∘ clamp ∘ splice on a square wave stays well-formed.
        let sq = BandwidthTrace::square_wave("sq", 8e6, 32e6, Time::from_secs(1));
        let out = sq
            .scaled(2.0)
            .clamped(10e6, 48e6)
            .spliced(
                Time::from_millis(500),
                &BandwidthTrace::constant("dip", 1e6),
                Time::from_millis(250),
            )
            .periodic(Time::from_secs(2));
        assert!(out.loops());
        assert_eq!(out.cycle_duration(), Time::from_secs(2));
        assert_eq!(out.rate_at(Time::from_millis(600)), 1e6);
        assert_eq!(out.rate_at(Time::ZERO), 16e6);
        assert!(out.peak_rate() <= 48e6);
    }

    /// After every lookup the cursor sits where [`BandwidthTrace::locate`]
    /// puts the start — same segment, same offset into it, or the held
    /// final rate past a non-looping trace's end — whatever order the
    /// starts come in, and its answer is `transmit_end`'s.
    #[test]
    fn cursor_position_is_locates() {
        let odd = BandwidthTrace::from_segments(
            "odd",
            vec![
                Segment {
                    duration: Time::from_nanos(1_234_567),
                    rate_bps: 7.3e6,
                },
                Segment {
                    duration: Time::from_millis(3),
                    rate_bps: 0.0,
                },
            ],
            true,
        );
        let once = BandwidthTrace::from_segments("once", two_step().segments().to_vec(), false);
        let mut grid: Vec<Time> = (0..400).map(|k| Time::from_nanos(k * 13_577_011)).collect();
        grid.extend([Time::from_secs(1), Time::from_secs(2), Time::from_secs(4)]);
        let mut reversed = grid.clone();
        reversed.reverse();
        let mut random = grid.clone();
        let mut state = 7u64;
        for i in (1..random.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            random.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
        }
        for trace in [two_step(), once, odd] {
            for starts in [&grid, &reversed, &random] {
                let mut c = TraceCursor::default();
                for &t in starts {
                    let end = trace.mss_transmit_end(&mut c, t);
                    assert_eq!(end, trace.transmit_end(t, f64::from(MSS_BYTES)));
                    let (idx, offset) = trace.locate(t);
                    assert_eq!(c.idx, idx, "{} at {t:?}", trace.name());
                    if c.to == Time::MAX {
                        assert!(!trace.loops && t >= trace.total && offset == Time::ZERO);
                    } else {
                        assert_eq!(t - c.from, offset, "{} at {t:?}", trace.name());
                        assert_eq!(c.to - c.from, trace.segments[idx].duration);
                    }
                    assert_eq!(c.rate, trace.rate_at(t));
                }
            }
        }
    }

    /// The least fitting span is the float test's threshold: it fits, one
    /// nanosecond less does not.
    #[test]
    fn least_fitting_span_is_the_float_tests_threshold() {
        for rate in [1.0, 123_456.7, 7.3e6, 12e6, 48e6, 1e12, f64::INFINITY] {
            let fits = |ns: u64| rate * Time::from_nanos(ns).as_secs_f64() >= MSS_BITS;
            let ns = least_fitting_span(rate, MSS_BITS);
            assert!(fits(ns), "rate {rate}");
            assert!(ns == 0 || !fits(ns - 1), "rate {rate}");
        }
        assert_eq!(least_fitting_span(1e-12, MSS_BITS), u64::MAX);
    }

    #[test]
    fn square_wave_constructor() {
        let sq = BandwidthTrace::square_wave("sq", 1e6, 2e6, Time::from_millis(250));
        assert_eq!(sq.cycle_duration(), Time::from_millis(500));
        assert_eq!(sq.rate_at(Time::from_millis(100)), 1e6);
        assert_eq!(sq.rate_at(Time::from_millis(300)), 2e6);
    }
}
