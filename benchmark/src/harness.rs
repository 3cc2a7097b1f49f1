//! Measurement plumbing shared by every workload: order statistics, the
//! result digest, process counters from `/proc`, the in-memory span
//! recorder, and the closed-loop rep driver.

use std::time::Instant;

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method), so
/// the spreads this benchmark prints are the ones its driver computes.
/// Returns `(q1, median, q3)`; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `p`-quantile (nearest rank) of a sample; exact, no bucketing.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a over 64-bit words: the fingerprint of one rep's simulated
/// results. Two commits that print the same digest for the same seed
/// computed the same decisions, weights, leaves or search outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }
}

fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User + system CPU seconds consumed by this process so far. The tick
/// length is the Linux `USER_HZ` constant (100), which `/proc` has used on
/// every architecture since 2.6.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// One recorded interval around a public call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The rep the span belongs to (spans of one rep share it).
    pub rep: u32,
}

/// In-memory span recorder; written out as a Chrome trace at exit.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }
}

impl Tracer {
    /// Starts the next rep; later spans carry its id.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span (which must be `id`) and returns its
    /// duration in seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Records an interval measured elsewhere (inside a callback that
    /// cannot borrow the tracer) as a child of the innermost open span,
    /// ending now.
    pub fn child_ending_now(&mut self, name: &'static str, dur_s: f64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub((dur_s * 1e9) as u64),
            end_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time per span name (duration minus the part its children
    /// cover), seconds, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= (s.end_ns - s.start_ns) as f64 / 1e9;
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += t,
                None => by_name.push((s.name, t)),
            }
        }
        by_name
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.rep
            ));
        }
        out.push_str("]}");
        out
    }
}

/// What one rep produced: its timed wall seconds, how many operations it
/// completed, and the digest of its results. `ok` is false when a count is
/// off or an output is non-finite.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    pub wall_s: f64,
    pub ops: u64,
    pub digest: Digest,
    pub ok: bool,
}

/// Attempted and failed operations of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one rep's operations; all of them fail when the rep broke an
    /// invariant or its digest differs from the reference rep's.
    pub fn count(&mut self, rep: &Rep, reference: &Rep) {
        let ops = rep.ops.max(1);
        self.attempted += ops;
        if !rep.ok || rep.digest != reference.digest || rep.ops != reference.ops {
            eprintln!(
                "rep failed: checks {}, {} ops (reference {}), digest {:016x} (reference {:016x})",
                if rep.ok { "passed" } else { "broken" },
                rep.ops,
                reference.ops,
                rep.digest.0,
                reference.digest.0
            );
            self.failed += ops;
        }
    }
}

/// The timed part of a closed-loop run: one discarded warm-up rep, then
/// identical reps until both `seconds` have been measured and `min_reps`
/// completed. Every rep is checked against the warm-up rep.
pub struct TimedReps {
    pub warmup: Rep,
    pub reps: Vec<Rep>,
    pub tally: Tally,
}

pub fn timed_reps(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> Rep) -> TimedReps {
    let warmup = rep();
    let mut tally = Tally::default();
    let mut reps = Vec::new();
    let mut measured = 0.0;
    while measured < seconds || reps.len() < min_reps {
        let r = rep();
        tally.count(&r, &warmup);
        measured += r.wall_s;
        reps.push(r);
    }
    TimedReps {
        warmup,
        reps,
        tally,
    }
}

/// Seconds a closure took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_times();
        let total = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9;
        let child = (spans[1].end_ns - spans[1].start_ns) as f64 / 1e9;
        assert!((own[0].1 - (total - child)).abs() < 1e-12);
    }
}
