//! Stable content hashing of functions and module text.
//!
//! The compile service (`snslpd`) keys its artifact cache by *what a
//! function is*, not where it came from: two submissions whose parsed
//! bodies print identically must map to the same cache slot, across
//! requests, connections and server threads. The canonical form already
//! exists — the [`printer`](crate::printer) output is deterministic and
//! round-trips through the parser — so the content hash is an FxHash of
//! the printed text, widened to 128 bits by a second differently-seeded
//! pass so accidental collisions are out of reach at cache scale.
//!
//! [`FxHasher`] has no per-process random seed
//! (unlike SipHash in `std`), so these hashes are stable across processes
//! and platforms of the same endianness-independent byte stream.

use std::hash::Hasher;

use crate::function::Function;
use crate::fxhash::FxHasher;

/// Seed for the second 64-bit lane of the 128-bit digest (splitmix64's
/// increment constant — any odd constant distinct from the first pass'
/// implicit zero seed works).
const LANE2_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// 128-bit stable hash of arbitrary text (two independent FxHash passes).
///
/// Used for whole-request memoization: the service hashes the raw module
/// text of a request before parsing anything, so an exact resubmission is
/// answered without touching the parser or the pass.
pub fn stable_text_hash(text: &str) -> u128 {
    let mut lo = FxHasher::default();
    lo.write(text.as_bytes());
    let mut hi = FxHasher::default();
    hi.write_u64(LANE2_SEED);
    hi.write(text.as_bytes());
    (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
}

/// 128-bit stable hash of a function's canonical printed form.
///
/// The hash covers everything compilation depends on: the function name,
/// parameter list (including `noalias`), return type, the `fastmath`
/// flag, and every instruction of every block in printed order. Two
/// functions hash equal iff they print identically, which (by the
/// printer/parser round-trip invariant) means they are the same function.
pub fn stable_function_hash(f: &Function) -> u128 {
    stable_text_hash(&f.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Param;
    use crate::parser::parse_function_str;
    use crate::types::{ScalarType, Type};

    fn sample(name: &str, k: i64) -> Function {
        let mut fb = FunctionBuilder::new(name, vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let v = fb.load(ScalarType::I64, p);
        let c = fb.const_i64(k);
        let s = fb.add(v, c);
        fb.store(p, s);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn equal_functions_hash_equal() {
        assert_eq!(
            stable_function_hash(&sample("f", 3)),
            stable_function_hash(&sample("f", 3))
        );
    }

    #[test]
    fn body_and_name_changes_change_the_hash() {
        let base = stable_function_hash(&sample("f", 3));
        assert_ne!(base, stable_function_hash(&sample("f", 4)));
        assert_ne!(base, stable_function_hash(&sample("g", 3)));
    }

    #[test]
    fn hash_survives_a_parse_round_trip() {
        let f = sample("f", 7);
        let reparsed = parse_function_str(&f.to_string()).unwrap();
        assert_eq!(stable_function_hash(&f), stable_function_hash(&reparsed));
    }

    #[test]
    fn text_hash_lanes_are_independent() {
        let h = stable_text_hash("func @x() -> void { entry: ret }");
        assert_ne!((h >> 64) as u64, h as u64);
        assert_ne!(stable_text_hash("a"), stable_text_hash("b"));
        // Tail-length discrimination from FxHasher carries through.
        assert_ne!(stable_text_hash("ab"), stable_text_hash("ab\0"));
    }
}
