//! A dense row-major matrix of `f64`.

use serde::{Deserialize, Serialize};

/// A dense `rows × cols` matrix stored row-major.
///
/// # Examples
///
/// ```
/// use canopy_nn::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// assert_eq!(m.get(1, 0), 3.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major data, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec shape mismatch");
        let mut out = vec![0.0; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x) {
                acc = w.mul_add(*xi, acc);
            }
            *slot = acc;
        }
        out
    }

    /// Transposed matrix–vector product `selfᵀ · y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    pub(crate) fn t_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "t_matvec shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            let row = self.row(r);
            for (o, w) in out.iter_mut().zip(row) {
                *o = w.mul_add(yr, *o);
            }
        }
        out
    }

    /// Accumulates the outer product `y ⊗ x` into `self` (gradient update
    /// for a dense layer: `dW += grad_out ⊗ input`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn add_outer(&mut self, y: &[f64], x: &[f64]) {
        assert_eq!(y.len(), self.rows, "outer rows mismatch");
        assert_eq!(x.len(), self.cols, "outer cols mismatch");
        for (r, &yr) in y.iter().enumerate() {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (w, xi) in row.iter_mut().zip(x) {
                *w = yr.mul_add(*xi, *w);
            }
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes the matrix to `rows × cols`, reusing the existing
    /// allocation when possible (the buffer only grows, never shrinks, so
    /// steady-state reuse performs no heap allocation). The contents are
    /// unspecified afterwards; callers are expected to overwrite them.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites this matrix with `other`'s shape and contents, reusing
    /// the existing allocation when large enough.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.reshape(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Overwrites row `r` with `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != cols` or `r` is out of range.
    pub fn set_row(&mut self, r: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols, "row length mismatch");
        self.data[r * self.cols..(r + 1) * self.cols].copy_from_slice(values);
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Writes the transpose of `self` into `out` (resized to
    /// `cols × rows`).
    pub fn transpose_into(&self, out: &mut Matrix) {
        self.transpose_padded_into(self.rows, out);
    }

    /// Writes the transpose of `self` into `out`, resized to `cols × pad`,
    /// with the `pad − rows` trailing columns of every output row zero.
    ///
    /// # Panics
    ///
    /// Panics if `pad < rows`.
    pub(crate) fn transpose_padded_into(&self, pad: usize, out: &mut Matrix) {
        assert!(pad >= self.rows, "padding narrower than the transpose");
        out.reshape(self.cols, pad);
        if pad == 0 {
            return;
        }
        // Four source rows at a time, zipped under one loop bound: every
        // output row receives four adjacent elements per step, read from
        // four unit-stride streams.
        let mut r = 0;
        while r + 4 <= self.rows {
            let [a, b, c, d]: [&[f64]; 4] = std::array::from_fn(|i| self.row(r + i));
            let columns = a.iter().zip(b).zip(c).zip(d);
            for (dst, (((&x0, &x1), &x2), &x3)) in out.data.chunks_exact_mut(pad).zip(columns) {
                dst[r..r + 4].copy_from_slice(&[x0, x1, x2, x3]);
            }
            r += 4;
        }
        for (c, dst) in out.data.chunks_exact_mut(pad).enumerate() {
            for (i, d) in dst[r..].iter_mut().enumerate() {
                *d = if r + i < self.rows {
                    self.data[(r + i) * self.cols + c]
                } else {
                    0.0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_basic() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn t_matvec_is_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        // mᵀ = [[1,3,5],[2,4,6]]
        assert_eq!(m.t_matvec(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.row(0), &[3.0, 4.0, 5.0]);
        assert_eq!(m.row(1), &[6.0, 8.0, 10.0]);
        m.add_outer(&[1.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(m.row(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matvec shape mismatch")]
    fn matvec_rejects_bad_shape() {
        Matrix::zeros(2, 3).matvec(&[1.0]);
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows(&[&[1.5, -2.5]]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // A tiny deterministic LCG keeps this test free of the rand dep.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
        }
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn reshape_reuses_and_copies() {
        let mut m = Matrix::zeros(4, 4);
        let cap = {
            m.reshape(2, 3);
            m.as_slice().len()
        };
        assert_eq!(cap, 6);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        let src = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut dst = Matrix::zeros(0, 0);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.set_row(0, &[9.0, 8.0, 7.0]);
        assert_eq!(dst.row(0), &[9.0, 8.0, 7.0]);
    }

    #[test]
    fn transpose_matches_naive_and_pads_with_zeros() {
        for &(rows, cols, pad) in &[(9, 5, 9), (9, 5, 16), (4, 3, 8), (3, 7, 3), (1, 1, 8)] {
            let m = pseudo_random_matrix(rows, cols, 21);
            let mut t = Matrix::from_vec(cols, pad, vec![f64::NAN; cols * pad]);
            m.transpose_padded_into(pad, &mut t);
            for c in 0..cols {
                for r in 0..pad {
                    let want = if r < rows { m.get(r, c) } else { 0.0 };
                    assert_eq!(
                        t.get(c, r).to_bits(),
                        want.to_bits(),
                        "{rows}x{cols} pad {pad}"
                    );
                }
            }
        }
    }
}
