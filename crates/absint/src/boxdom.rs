//! The box (hyper-interval) abstract domain in centre/deviation form.
//!
//! Following Section 3.2 of the paper, an abstract state over `m` variables
//! is a pair `(b_c, b_e)` with centre `b_c ∈ ℝᵐ` and non-negative deviation
//! `b_e ∈ ℝᵐ₊`, denoting the set of concrete states whose `i`-th dimension
//! lies in `[(b_c)_i − (b_e)_i, (b_c)_i + (b_e)_i]`.

use serde::{Deserialize, Serialize};

use crate::interval::Interval;

/// An `m`-dimensional box abstract state.
///
/// # Examples
///
/// ```
/// use canopy_absint::{BoxState, Interval};
///
/// let s = BoxState::from_intervals(&[
///     Interval::new(0.0, 1.0),
///     Interval::point(0.5),
/// ]);
/// assert_eq!(s.dim(), 2);
/// assert!(s.contains(&[0.25, 0.5]));
/// assert!(!s.contains(&[0.25, 0.6]));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoxState {
    /// Box centre `b_c`.
    pub center: Vec<f64>,
    /// Non-negative deviations `b_e`.
    pub dev: Vec<f64>,
}

impl BoxState {
    /// A box abstracting a single concrete point (all deviations zero).
    pub fn point(x: &[f64]) -> BoxState {
        BoxState {
            center: x.to_vec(),
            dev: vec![0.0; x.len()],
        }
    }

    /// Builds a box from centre and deviation vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or any deviation is
    /// negative or NaN.
    pub fn new(center: Vec<f64>, dev: Vec<f64>) -> BoxState {
        assert_eq!(center.len(), dev.len(), "centre/deviation length mismatch");
        assert!(
            dev.iter().all(|d| d.is_finite() && *d >= 0.0),
            "deviations must be non-negative and finite"
        );
        BoxState { center, dev }
    }

    /// Builds a box from per-dimension intervals.
    pub fn from_intervals(intervals: &[Interval]) -> BoxState {
        BoxState {
            center: intervals.iter().map(|i| i.center()).collect(),
            dev: intervals.iter().map(|i| i.deviation()).collect(),
        }
    }

    /// The per-dimension interval view.
    pub fn to_intervals(&self) -> Vec<Interval> {
        self.center
            .iter()
            .zip(&self.dev)
            .map(|(&c, &d)| Interval::centered(c, d))
            .collect()
    }

    /// The interval of one dimension.
    pub fn dim_interval(&self, i: usize) -> Interval {
        Interval::centered(self.center[i], self.dev[i])
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.center.len()
    }

    /// Whether the concrete point `x` is represented by this box.
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dim()
            && x.iter()
                .enumerate()
                .all(|(i, &xi)| self.dim_interval(i).contains(xi))
    }

    /// Whether every point of `self` is inside `other`.
    pub fn is_subset_of(&self, other: &BoxState) -> bool {
        self.dim() == other.dim()
            && (0..self.dim()).all(|i| self.dim_interval(i).is_subset_of(other.dim_interval(i)))
    }

    /// Replaces one dimension with the given interval (used to abstract the
    /// "variable of interest" while keeping other features concrete, as the
    /// paper's implementation does in Section 5).
    pub fn with_dim_interval(mut self, i: usize, interval: Interval) -> BoxState {
        self.center[i] = interval.center();
        self.dev[i] = interval.deviation();
        self
    }

    /// Splits the box into `n` equal slices along dimension `axis`,
    /// covering the original box exactly (components are disjoint up to
    /// shared boundaries, matching the paper's `∪ᵢ [aᵢ, bᵢ] = [a, b]`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `axis` is out of range.
    pub fn split_dim(&self, axis: usize, n: usize) -> Vec<BoxState> {
        axis_slices(self.dim_interval(axis), n)
            .map(|slice| self.clone().with_dim_interval(axis, slice))
            .collect()
    }

    /// The box volume (product of widths over dimensions with non-zero
    /// width; dimensions that are points contribute a factor of 1 so that
    /// partially-concrete states still have a meaningful measure).
    pub fn volume(&self) -> f64 {
        self.dev
            .iter()
            .filter(|d| **d > 0.0)
            .map(|d| 2.0 * d)
            .product()
    }
}

/// The `n` equal slices of `iv` that [`BoxState::split_dim`] cuts an axis
/// into, in ascending order; the last slice ends exactly on `iv.hi`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn axis_slices(iv: Interval, n: usize) -> impl Iterator<Item = Interval> {
    assert!(n > 0, "cannot split into zero components");
    let width = iv.width();
    (0..n).map(move |k| {
        let lo = iv.lo + width * k as f64 / n as f64;
        let hi = if k + 1 == n {
            iv.hi
        } else {
            iv.lo + width * (k + 1) as f64 / n as f64
        };
        Interval::new(lo, hi)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_intervals() {
        let ivs = [Interval::new(-1.0, 3.0), Interval::point(2.0)];
        let b = BoxState::from_intervals(&ivs);
        let back = b.to_intervals();
        assert!((back[0].lo - -1.0).abs() < 1e-12);
        assert!((back[0].hi - 3.0).abs() < 1e-12);
        assert_eq!(back[1].width(), 0.0);
    }

    #[test]
    fn point_contains_itself_only() {
        let b = BoxState::point(&[1.0, 2.0]);
        assert!(b.contains(&[1.0, 2.0]));
        assert!(!b.contains(&[1.0, 2.0001]));
        assert_eq!(b.volume(), 1.0); // all dims are points
    }

    #[test]
    fn split_covers_and_is_disjoint() {
        let b = BoxState::from_intervals(&[Interval::new(0.0, 1.0), Interval::new(5.0, 6.0)]);
        let parts = b.split_dim(0, 4);
        assert_eq!(parts.len(), 4);
        // Coverage: endpoints chain exactly.
        let mut edge = 0.0;
        for p in &parts {
            let iv = p.dim_interval(0);
            assert!((iv.lo - edge).abs() < 1e-12);
            edge = iv.hi;
            // The untouched dimension is preserved.
            let other = p.dim_interval(1);
            assert!((other.lo - 5.0).abs() < 1e-12 && (other.hi - 6.0).abs() < 1e-12);
        }
        assert!((edge - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_one_is_identity_region() {
        let b = BoxState::from_intervals(&[Interval::new(0.0, 2.0)]);
        let parts = b.split_dim(0, 1);
        assert_eq!(parts.len(), 1);
        let iv = parts[0].dim_interval(0);
        assert!((iv.lo - 0.0).abs() < 1e-12 && (iv.hi - 2.0).abs() < 1e-12);
    }

    #[test]
    fn subset_ordering() {
        let big = BoxState::from_intervals(&[Interval::new(0.0, 10.0)]);
        let small = BoxState::from_intervals(&[Interval::new(2.0, 3.0)]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
    }

    #[test]
    fn volume_ignores_point_dims() {
        let b = BoxState::from_intervals(&[
            Interval::new(0.0, 2.0),
            Interval::point(7.0),
            Interval::new(0.0, 0.5),
        ]);
        assert!((b.volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_deviation() {
        BoxState::new(vec![0.0], vec![-1.0]);
    }
}
