//! Eight `f64` lanes: the one vector type the batched-IBP layer kernel
//! ([`crate::batch_ibp`]) is written in.
//!
//! Under `target_feature = "avx512f"` — a `target-cpu=native` build
//! (`.cargo/config.toml`) on an AVX-512 machine — an [`F64x8`] is one
//! `__m512d` register and [`F64x8::mul_add`] one `vfmadd…pd zmm`. Every
//! other build holds a plain `[f64; 8]` and runs [`f64::mul_add`] per lane,
//! which LLVM vectorises as wide as that target prefers. The explicit type
//! exists because LLVM's x86 tuning prefers 256-bit vectors even where
//! 512-bit units exist: autovectorised `[f64; 32]` accumulators never issue
//! a zmm FMA, and the compiler-wide switch that lifts that preference is an
//! unstable target feature that rewrites every loop in the program.
//!
//! Every operation is lane-wise and IEEE-exact in the scalar sense: `abs`
//! clears the sign bit, and `mul_add` rounds once, like [`f64::mul_add`].
//! So each lane is bitwise the scalar operation on either path, and a
//! kernel written over `F64x8` gives the same bits as its scalar loop
//! (`tests` below; `tests/fused_ibp_equivalence.rs` for the kernel).
//!
//! The workspace's only `unsafe` is here, one block per wide-path
//! operation (`splat` is a load of `[x; 8]`). Rust asks for it around every
//! `std::arch` intrinsic called from a function not itself compiled with
//! `#[target_feature]` — a build-wide `target-cpu` does not count — so
//! `abs` and `mul_add` carry a block whose one precondition, AVX-512F, the
//! module's `cfg` guarantees. The load and the store touch exactly the 64
//! bytes their `&[f64; 8]` / `&mut [f64; 8]` argument borrows, unaligned.

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod imp {
    use std::arch::x86_64::{
        __m512d, _mm512_abs_pd, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_storeu_pd,
    };

    /// Eight `f64` lanes in one 512-bit register.
    #[derive(Clone, Copy)]
    pub(crate) struct F64x8(__m512d);

    impl F64x8 {
        /// Whether one `F64x8` is one vector register.
        pub(crate) const IN_REGISTER: bool = true;

        /// Every lane `x`.
        #[inline(always)]
        pub(crate) fn splat(x: f64) -> F64x8 {
            F64x8::load(&[x; 8])
        }

        /// The lanes `src[0..8]`.
        #[inline(always)]
        pub(crate) fn load(src: &[f64; 8]) -> F64x8 {
            // SAFETY: `src` borrows eight initialised `f64`s, exactly the
            // 64 bytes `loadu` reads, and `loadu` needs no alignment.
            F64x8(unsafe { _mm512_loadu_pd(src.as_ptr()) })
        }

        /// Writes the lanes to `dst[0..8]`.
        #[inline(always)]
        pub(crate) fn store(self, dst: &mut [f64; 8]) {
            // SAFETY: `dst` borrows eight `f64`s exclusively, exactly the
            // 64 bytes `storeu` writes, and `storeu` needs no alignment.
            unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), self.0) }
        }

        /// Lane-wise `|x|` (the sign bit cleared, as [`f64::abs`]).
        #[inline(always)]
        pub(crate) fn abs(self) -> F64x8 {
            // SAFETY: the intrinsic's one requirement is AVX-512F, which
            // the `cfg` on this module has enabled for the whole build.
            F64x8(unsafe { _mm512_abs_pd(self.0) })
        }

        /// Lane-wise `self · a + b` with one rounding, as [`f64::mul_add`].
        #[inline(always)]
        pub(crate) fn mul_add(self, a: F64x8, b: F64x8) -> F64x8 {
            // SAFETY: the intrinsic's one requirement is AVX-512F, which
            // the `cfg` on this module has enabled for the whole build.
            F64x8(unsafe { _mm512_fmadd_pd(self.0, a.0, b.0) })
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod imp {
    /// Eight `f64` lanes in a plain array.
    #[derive(Clone, Copy)]
    pub(crate) struct F64x8([f64; 8]);

    impl F64x8 {
        /// Whether one `F64x8` is one vector register.
        pub(crate) const IN_REGISTER: bool = false;

        /// Every lane `x`.
        #[inline(always)]
        pub(crate) fn splat(x: f64) -> F64x8 {
            F64x8([x; 8])
        }

        /// The lanes `src[0..8]`.
        #[inline(always)]
        pub(crate) fn load(src: &[f64; 8]) -> F64x8 {
            F64x8(*src)
        }

        /// Writes the lanes to `dst[0..8]`.
        #[inline(always)]
        pub(crate) fn store(self, dst: &mut [f64; 8]) {
            *dst = self.0;
        }

        /// Lane-wise `|x|` (the sign bit cleared, as [`f64::abs`]).
        #[inline(always)]
        pub(crate) fn abs(self) -> F64x8 {
            let mut out = self.0;
            out.iter_mut().for_each(|x| *x = x.abs());
            F64x8(out)
        }

        /// Lane-wise `self · a + b` with one rounding, as [`f64::mul_add`].
        #[inline(always)]
        pub(crate) fn mul_add(self, a: F64x8, b: F64x8) -> F64x8 {
            let mut out = b.0;
            for ((acc, x), y) in out.iter_mut().zip(self.0).zip(a.0) {
                *acc = x.mul_add(y, *acc);
            }
            F64x8(out)
        }
    }
}

pub(crate) use imp::F64x8;

#[cfg(test)]
mod tests {
    //! Each `F64x8` operation against the scalar `f64` one, lane by lane,
    //! bit for bit (a NaN in gives a NaN out; payloads are not compared).
    //! Mutation-checked by hand: a `mul_add` written as a `mul` then an
    //! `add` fails `mul_add_is_the_scalar_fused_step` on either path, and a
    //! wide `abs` that returns its input fails
    //! `splat_load_store_and_abs_are_the_scalar_lanes`; each also fails
    //! `tests/fused_ibp_equivalence.rs`.

    use super::F64x8;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SPECIAL: [f64; 14] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -1.5e-310,
        1e300,
        -1e300,
        1e-300,
        -1e-300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.0,
    ];

    /// Eight lanes per row: rows of specials, then random magnitudes over
    /// the whole exponent range with random signs.
    fn inputs() -> Vec<[f64; 8]> {
        let mut rng = StdRng::seed_from_u64(8);
        let mut rows: Vec<[f64; 8]> = (0..64)
            .map(|_| std::array::from_fn(|_| SPECIAL[rng.random_range(0..SPECIAL.len())]))
            .collect();
        rows.extend((0..512).map(|_| {
            std::array::from_fn(|_| {
                let x = rng.random_range(-1.0..1.0) * 2f64.powi(rng.random_range(-40..40));
                if rng.random_range(0..8) == 0 {
                    SPECIAL[rng.random_range(0..SPECIAL.len())]
                } else {
                    x
                }
            })
        }));
        rows
    }

    fn lanes(x: F64x8) -> [f64; 8] {
        let mut out = [0.0; 8];
        x.store(&mut out);
        out
    }

    fn assert_lanes_eq(got: [f64; 8], want: [f64; 8], case: &str) {
        for (lane, (g, w)) in got.iter().zip(want).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "{case} lane {lane}: {g} for NaN");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{case} lane {lane}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn splat_load_store_and_abs_are_the_scalar_lanes() {
        for (i, a) in inputs().into_iter().enumerate() {
            // Load then store moves bits, NaN payloads included.
            let loaded = lanes(F64x8::load(&a));
            assert_eq!(loaded.map(f64::to_bits), a.map(f64::to_bits), "row {i}");
            assert_lanes_eq(lanes(F64x8::splat(a[3])), [a[3]; 8], "splat");
            assert_lanes_eq(lanes(F64x8::load(&a).abs()), a.map(f64::abs), "abs");
        }
    }

    #[test]
    fn mul_add_is_the_scalar_fused_step() {
        let rows = inputs();
        for (i, ((a, b), c)) in rows
            .iter()
            .zip(rows.iter().cycle().skip(1))
            .zip(rows.iter().cycle().skip(7))
            .enumerate()
        {
            let got = F64x8::load(a).mul_add(F64x8::load(b), F64x8::load(c));
            let want = std::array::from_fn(|l| a[l].mul_add(b[l], c[l]));
            assert_lanes_eq(lanes(got), want, &format!("row {i}"));
        }
        // One product that rounds differently fused and unfused.
        let x = 1.0 + 2f64.powi(-30);
        let got = F64x8::splat(x).mul_add(F64x8::splat(x), F64x8::splat(-1.0));
        assert_lanes_eq(lanes(got), [x.mul_add(x, -1.0); 8], "fused");
        assert_ne!(x.mul_add(x, -1.0), x * x - 1.0);
    }
}
