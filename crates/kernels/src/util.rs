//! Shared helpers for kernel construction and input generation.

use snslp_interp::ArgSpec;
use snslp_ir::{FunctionBuilder, InstId, ScalarType};

/// A tiny deterministic PRNG (Steele et al.'s SplitMix64), used for kernel
/// input generation so the crate needs no external `rand` dependency and
/// builds offline. Statistical quality is far beyond what test inputs
/// need, and every stream is fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        self.range_f64(f64::from(lo), f64::from(hi)) as f32
    }

    /// Uniform `i64` in `[lo, hi)`. The small modulo bias is irrelevant
    /// for test-input generation.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi);
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add((self.next_u64() % span) as i64)
    }

    /// Uniform `i32` in `[lo, hi)`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.range_i64(i64::from(lo), i64::from(hi)) as i32
    }
}

/// Loads `base[dyn_base + elem_index]` where `dyn_base` is an `i64` value
/// counted in elements.
pub fn load_at(
    fb: &mut FunctionBuilder,
    base: InstId,
    st: ScalarType,
    dyn_elem: InstId,
    elem_index: i64,
) -> InstId {
    let p = elem_ptr(fb, base, st, dyn_elem, elem_index);
    fb.load(st, p)
}

/// Stores to `base[dyn_base + elem_index]`.
pub fn store_at(
    fb: &mut FunctionBuilder,
    base: InstId,
    st: ScalarType,
    dyn_elem: InstId,
    elem_index: i64,
    value: InstId,
) -> InstId {
    let p = elem_ptr(fb, base, st, dyn_elem, elem_index);
    fb.store(p, value)
}

/// `base + size*(dyn_elem) + size*elem_index` as a pointer value.
pub fn elem_ptr(
    fb: &mut FunctionBuilder,
    base: InstId,
    st: ScalarType,
    dyn_elem: InstId,
    elem_index: i64,
) -> InstId {
    let size = fb.const_i64(i64::from(st.size_bytes()));
    let byte_off = fb.mul(dyn_elem, size);
    let p = fb.ptradd(base, byte_off);
    if elem_index == 0 {
        p
    } else {
        fb.ptradd_const(p, elem_index * i64::from(st.size_bytes()))
    }
}

/// Deterministic `f64` inputs in `[lo, hi)`.
pub fn f64_inputs(len: usize, seed: u64, lo: f64, hi: f64) -> ArgSpec {
    let mut rng = SplitMix64::new(seed);
    ArgSpec::F64Array((0..len).map(|_| rng.range_f64(lo, hi)).collect())
}

/// Deterministic `f32` inputs in `[lo, hi)`.
pub fn f32_inputs(len: usize, seed: u64, lo: f32, hi: f32) -> ArgSpec {
    let mut rng = SplitMix64::new(seed);
    ArgSpec::F32Array((0..len).map(|_| rng.range_f32(lo, hi)).collect())
}

/// Deterministic `i64` inputs in `[lo, hi)`.
pub fn i64_inputs(len: usize, seed: u64, lo: i64, hi: i64) -> ArgSpec {
    let mut rng = SplitMix64::new(seed);
    ArgSpec::I64Array((0..len).map(|_| rng.range_i64(lo, hi)).collect())
}

/// A zeroed `f64` output array.
pub fn f64_zeros(len: usize) -> ArgSpec {
    ArgSpec::F64Array(vec![0.0; len])
}

/// A zeroed `f32` output array.
pub fn f32_zeros(len: usize) -> ArgSpec {
    ArgSpec::F32Array(vec![0.0; len])
}

/// A zeroed `i64` output array.
pub fn i64_zeros(len: usize) -> ArgSpec {
    ArgSpec::I64Array(vec![0; len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic() {
        assert_eq!(f64_inputs(8, 1, 0.0, 1.0), f64_inputs(8, 1, 0.0, 1.0));
        assert_ne!(f64_inputs(8, 1, 0.0, 1.0), f64_inputs(8, 2, 0.0, 1.0));
        assert_eq!(i64_inputs(4, 9, -5, 5), i64_inputs(4, 9, -5, 5));
    }

    #[test]
    fn ranges_respected() {
        if let ArgSpec::F64Array(v) = f64_inputs(100, 3, 1.0, 2.0) {
            assert!(v.iter().all(|&x| (1.0..2.0).contains(&x)));
        } else {
            panic!("wrong variant");
        }
    }
}
