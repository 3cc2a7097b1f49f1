//! Sound closed-interval arithmetic over `f64`.

use canopy_nn::relu;
use serde::{Deserialize, Serialize};

/// How many ULP steps to widen after elementary-function evaluation; the
/// system math library is correctly rounded to well under this bound.
const ULP_SLACK: u32 = 4;

/// Moves `x` down by `n` ULPs (toward −∞).
#[inline]
fn down(mut x: f64, n: u32) -> f64 {
    for _ in 0..n {
        x = x.next_down();
    }
    x
}

/// Moves `x` up by `n` ULPs (toward +∞).
#[inline]
fn up(mut x: f64, n: u32) -> f64 {
    for _ in 0..n {
        x = x.next_up();
    }
    x
}

/// A closed interval `[lo, hi]` of reals.
///
/// Invariant: `lo <= hi` and both bounds are finite unless explicitly
/// constructed otherwise.
///
/// # Examples
///
/// ```
/// use canopy_absint::Interval;
///
/// let a = Interval::new(1.0, 2.0);
/// let b = Interval::new(-1.0, 1.0);
/// let sum = a.add(b);
/// assert!(sum.contains(0.0) && sum.contains(3.0));
/// assert!(sum.is_subset_of(Interval::new(-0.1, 3.1)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

// The arithmetic methods intentionally shadow the std operator names
// without implementing the traits: these are *outward-rounded* interval
// transformers whose signatures differ from the operators (all take
// `self` by value), and spelling them as method calls keeps the
// soundness-critical rounding explicit at every call site.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Interval {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN interval bound");
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    #[inline]
    pub fn point(x: f64) -> Interval {
        Interval::new(x, x)
    }

    /// An interval from a centre and a non-negative deviation. A bound
    /// that comes out NaN — a NaN input, or `∞ − ∞` after an overflow — is
    /// the matching infinity: sound, since it says nothing about the
    /// value. Finite inputs are unaffected.
    #[inline]
    pub fn centered(center: f64, dev: f64) -> Interval {
        let dev = dev.abs();
        let (lo, hi) = (center - dev, center + dev);
        if lo <= hi {
            return Interval { lo, hi };
        }
        // Only a NaN bound gets here: `dev ≥ 0` keeps the others ordered.
        Interval::new(
            if lo.is_nan() { f64::NEG_INFINITY } else { lo },
            if hi.is_nan() { f64::INFINITY } else { hi },
        )
    }

    /// The centre `(lo + hi) / 2`.
    #[inline]
    pub fn center(self) -> f64 {
        self.lo / 2.0 + self.hi / 2.0
    }

    /// The deviation `(hi − lo) / 2`.
    #[inline]
    pub fn deviation(self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// The width `hi − lo` (the 1-D volume used by QC feedback).
    #[inline]
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `x` lies in the interval.
    #[inline]
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(self, other: Interval) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// The intersection, if non-empty.
    #[inline]
    pub(crate) fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Sound addition (outward-rounded).
    #[inline]
    pub fn add(self, other: Interval) -> Interval {
        Interval {
            lo: (self.lo + other.lo).next_down(),
            hi: (self.hi + other.hi).next_up(),
        }
    }

    /// Sound subtraction (outward-rounded).
    #[inline]
    pub fn sub(self, other: Interval) -> Interval {
        Interval {
            lo: (self.lo - other.hi).next_down(),
            hi: (self.hi - other.lo).next_up(),
        }
    }

    /// Negation (exact).
    #[inline]
    pub fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// Sound multiplication by a scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Interval {
        let (a, b) = (self.lo * k, self.hi * k);
        Interval {
            lo: a.min(b).next_down(),
            hi: a.max(b).next_up(),
        }
    }

    /// Sound interval multiplication.
    #[inline]
    pub fn mul(self, other: Interval) -> Interval {
        let products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        let lo = products.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = products.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Interval {
            lo: lo.next_down(),
            hi: hi.next_up(),
        }
    }

    /// The image under `max(x, 0)` (exact: endpoints map to endpoints).
    #[inline]
    pub fn relu(self) -> Interval {
        Interval {
            lo: relu(self.lo),
            hi: relu(self.hi),
        }
    }

    /// Sound image under `tanh` (monotone, widened by a few ULPs).
    #[inline]
    pub fn tanh(self) -> Interval {
        Interval {
            lo: down(self.lo.tanh(), ULP_SLACK).max(-1.0),
            hi: up(self.hi.tanh(), ULP_SLACK).min(1.0),
        }
    }

    /// Sound image under `2^x` (monotone, widened by a few ULPs).
    #[inline]
    pub fn exp2(self) -> Interval {
        Interval {
            lo: down(self.lo.exp2(), ULP_SLACK).max(0.0),
            hi: up(self.hi.exp2(), ULP_SLACK),
        }
    }

    /// The image under `|x|` (exact).
    #[inline]
    pub fn abs(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Interval {
                lo: 0.0,
                hi: self.hi.max(-self.lo),
            }
        }
    }

    /// The fraction of this interval's width lying inside `allowed` — the
    /// smoothed QC feedback term of Eq. (6) in the paper.
    ///
    /// Degenerate (zero-width) intervals score 1.0 if they lie inside
    /// `allowed` and 0.0 otherwise.
    pub fn fraction_within(self, allowed: Interval) -> f64 {
        if self.width() <= 0.0 {
            return if self.is_subset_of(allowed) { 1.0 } else { 0.0 };
        }
        match self.intersect(allowed) {
            Some(overlap) => (overlap.width() / self.width()).clamp(0.0, 1.0),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both endpoints map through the one scalar ReLU: a zero of either
    /// sign maps to `+0.0` on every build profile.
    #[test]
    fn relu_maps_signed_zeros_to_positive_zero() {
        let iv = Interval::new(std::hint::black_box(-0.0), std::hint::black_box(-0.0)).relu();
        assert_eq!((iv.lo.to_bits(), iv.hi.to_bits()), (0, 0));
        let iv = Interval::new(-3.0, std::hint::black_box(-0.0)).relu();
        assert_eq!((iv.lo.to_bits(), iv.hi.to_bits()), (0, 0));
        let iv = Interval::new(f64::NEG_INFINITY, f64::INFINITY).relu();
        assert_eq!((iv.lo.to_bits(), iv.hi), (0, f64::INFINITY));
    }

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(-2.0, 4.0);
        assert_eq!(i.center(), 1.0);
        assert_eq!(i.deviation(), 3.0);
        assert_eq!(i.width(), 6.0);
        let p = Interval::point(5.0);
        assert_eq!(p.width(), 0.0);
        let c = Interval::centered(1.0, -2.0); // negative dev is folded
        assert_eq!(c, Interval::new(-1.0, 3.0));
    }

    #[test]
    fn centered_encloses_a_nan_bound_by_the_matching_infinity() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let everything = Interval::new(-inf, inf);
        assert_eq!(Interval::centered(nan, 1.0), everything);
        assert_eq!(Interval::centered(0.0, nan), everything);
        assert_eq!(Interval::centered(inf, inf), everything);
        assert_eq!(Interval::centered(-inf, inf), everything);
        assert_eq!(Interval::centered(inf, 1.0), Interval::new(inf, inf));
        assert_eq!(Interval::centered(2.0, inf), everything);
        assert_eq!(everything.tanh(), Interval::new(-1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn rejects_inverted() {
        Interval::new(1.0, 0.0);
    }

    #[test]
    fn add_sub_cover_exact_results() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-0.5, 0.5);
        let s = a.add(b);
        assert!(s.lo <= 0.5 && s.hi >= 2.5);
        let d = a.sub(b);
        assert!(d.lo <= 0.5 && d.hi >= 2.5);
    }

    #[test]
    fn mul_handles_sign_cases() {
        let cases = [
            (Interval::new(1.0, 2.0), Interval::new(3.0, 4.0), 3.0, 8.0),
            (
                Interval::new(-2.0, -1.0),
                Interval::new(3.0, 4.0),
                -8.0,
                -3.0,
            ),
            (
                Interval::new(-1.0, 2.0),
                Interval::new(-3.0, 4.0),
                -6.0,
                8.0,
            ),
        ];
        for (a, b, lo, hi) in cases {
            let m = a.mul(b);
            assert!(m.lo <= lo && m.hi >= hi, "{a:?}*{b:?} = {m:?}");
            assert!(m.lo >= lo - 1e-9 && m.hi <= hi + 1e-9, "not too wide");
        }
    }

    #[test]
    fn relu_cases() {
        assert_eq!(Interval::new(-2.0, -1.0).relu(), Interval::new(0.0, 0.0));
        assert_eq!(Interval::new(-1.0, 2.0).relu(), Interval::new(0.0, 2.0));
        assert_eq!(Interval::new(1.0, 2.0).relu(), Interval::new(1.0, 2.0));
    }

    #[test]
    fn tanh_monotone_and_bounded() {
        let i = Interval::new(-0.5, 1.5);
        let t = i.tanh();
        assert!(t.lo <= (-0.5f64).tanh() && t.hi >= 1.5f64.tanh());
        assert!(t.lo >= -1.0 && t.hi <= 1.0);
    }

    #[test]
    fn exp2_covers_endpoints() {
        let i = Interval::new(-1.0, 2.0);
        let e = i.exp2();
        assert!(e.lo <= 0.5 && e.hi >= 4.0);
        assert!(e.lo > 0.49 && e.hi < 4.01);
    }

    #[test]
    fn abs_cases() {
        assert_eq!(Interval::new(1.0, 2.0).abs(), Interval::new(1.0, 2.0));
        assert_eq!(Interval::new(-2.0, -1.0).abs(), Interval::new(1.0, 2.0));
        assert_eq!(Interval::new(-3.0, 2.0).abs(), Interval::new(0.0, 3.0));
    }

    #[test]
    fn set_operations() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.intersect(b), Some(Interval::new(1.0, 2.0)));
        let c = Interval::new(5.0, 6.0);
        assert_eq!(a.intersect(c), None);
        assert!(Interval::new(0.5, 1.0).is_subset_of(a));
        assert!(!b.is_subset_of(a));
    }

    #[test]
    fn fraction_within_cases() {
        let allowed = Interval::new(0.0, 1.0);
        // Fully inside.
        assert_eq!(Interval::new(0.2, 0.8).fraction_within(allowed), 1.0);
        // Fully outside.
        assert_eq!(Interval::new(2.0, 3.0).fraction_within(allowed), 0.0);
        // Half overlapping.
        let f = Interval::new(0.5, 1.5).fraction_within(allowed);
        assert!((f - 0.5).abs() < 1e-12);
        // Point inside / outside.
        assert_eq!(Interval::point(0.5).fraction_within(allowed), 1.0);
        assert_eq!(Interval::point(1.5).fraction_within(allowed), 0.0);
    }
}
