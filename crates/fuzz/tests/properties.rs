//! The paper's legality argument (§IV-C) as properties over random
//! kernels: leaf and trunk reordering that respects the APOs never
//! changes a lane's value. Every case comes from `Rng::for_case(SEED, i)`,
//! so a failure is named by two integers.
//!
//! * add/sub: two `i64` lanes of 2–4 ops over three arrays, each lane
//!   left- or right-associated; checked bit-exactly.
//! * mul/div: four `f32` lanes of 2–3 ops over two arrays, inputs in
//!   [0.5, 2); checked within the differential tolerance.
//! * nested: two `f64` lanes, each an add/sub chain over 2–3 mul/div terms.
//! * parser: `parse_module` never panics, every parse outcome matches
//!   `tests/golden/parse_outcomes.txt`, and printer output reparses.
//!
//! Unlike `snslp_fuzz::gen`, whose lanes share one shape per store run,
//! each lane here draws its own chain length, ops and association.

use std::panic::{catch_unwind, AssertUnwindSafe};

use snslp_core::{run_slp, FunctionReport, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_fuzz::{Rng, ALL_MODES};
use snslp_interp::{check_equivalent, ArgSpec, RunOutcome};
use snslp_ir::{
    parse_function_str, parse_module, stable_text_hash, verify, CastKind, CmpPred, Function,
    FunctionBuilder, InstId, Param, ScalarType, Type,
};

const SEED: u64 = 0x5EED;
/// Elements per input array.
const LEN: u64 = 8;

/// Checks `prop` on `n` cases drawn by `draw`; a failure or panic names
/// its case.
fn for_cases<T>(n: u64, draw: impl Fn(&mut Rng) -> T, prop: impl Fn(&T) -> Result<(), String>) {
    for i in 0..n {
        let case = draw(&mut Rng::for_case(SEED, i));
        match catch_unwind(AssertUnwindSafe(|| prop(&case))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("case Rng::for_case({SEED:#x}, {i}): {e}"),
            Err(_) => panic!("case Rng::for_case({SEED:#x}, {i}) panicked"),
        }
    }
}

/// A chain operand: `Load(a, i)` loads element `i` of input array `a`
/// (parameter `p{a + 1}`), and `Term` is a nested chain.
enum Leaf {
    Load(usize, usize),
    Term(Chain),
}

/// `ops` (each one of `+-*/`) joining `ops.len() + 1` leaves. A `right`
/// chain nests each op in the right operand of the one before
/// (`l0 op (l1 op (..))`), so a trunk below a `-` or `/` flips its sign
/// class; otherwise the chain is left-associated.
struct Chain {
    ops: String,
    leaves: Vec<Leaf>,
    right: bool,
}

/// A random chain of `lo..=hi` ops from `family` (an operator and its
/// inverse) over loads from `arrays` arrays; if `right`, it is
/// right-associated half the time.
fn chain(r: &mut Rng, family: [char; 2], (lo, hi): (u64, u64), arrays: u64, right: bool) -> Chain {
    let k = lo + r.below(hi - lo + 1);
    let ops = (0..k).map(|_| *r.pick(&family)).collect();
    let leaves = (0..=k)
        .map(|_| Leaf::Load(r.below(arrays) as usize, r.below(LEN) as usize))
        .collect();
    let right = right && r.chance(1, 2);
    Chain { ops, leaves, right }
}

/// Emits `c` over the `arrays` pointers: its operands first, then its ops.
fn emit(fb: &mut FunctionBuilder, arrays: &[InstId], elem: ScalarType, c: &Chain) -> InstId {
    let leaves: Vec<InstId> = (c.leaves.iter())
        .map(|leaf| match leaf {
            Leaf::Load(a, i) => {
                let p = fb.ptradd_const(arrays[*a], i64::from(elem.size_bytes()) * *i as i64);
                fb.load(elem, p)
            }
            Leaf::Term(t) => emit(fb, arrays, elem, t),
        })
        .collect();
    let mut op = |op: u8, a, b| match op {
        b'+' => fb.add(a, b),
        b'-' => fb.sub(a, b),
        b'*' => fb.mul(a, b),
        _ => fb.div(a, b),
    };
    if c.right {
        let (last, init) = leaves.split_last().expect("a chain has a leaf");
        (c.ops.bytes().zip(init).rev()).fold(*last, |acc, (o, &l)| op(o, l, acc))
    } else {
        (c.ops.bytes().zip(&leaves[1..])).fold(leaves[0], |acc, (o, &l)| op(o, acc, l))
    }
}

/// A straight-line kernel `@prop(p0, p1, ..)` whose lane `k` stores
/// `lanes[k]` to `p0[k]` and loads from `p1, ..`, with the arrays `args`
/// it runs on, one per parameter.
struct Kernel {
    f: Function,
    args: Vec<ArgSpec>,
}

fn kernel(elem: ScalarType, lanes: &[Chain], args: Vec<ArgSpec>) -> Kernel {
    let params = (0..args.len()).map(|i| Param::noalias_ptr(format!("p{i}")));
    let mut fb = FunctionBuilder::new("prop", params.collect(), Type::Void);
    fb.set_fast_math(elem.is_float());
    let ptrs: Vec<InstId> = (0..args.len()).map(|i| fb.func().param(i)).collect();
    let values: Vec<InstId> = (lanes.iter())
        .map(|c| emit(&mut fb, &ptrs[1..], elem, c))
        .collect();
    for (k, v) in values.into_iter().enumerate() {
        let p = match k {
            0 => ptrs[0],
            _ => fb.ptradd_const(ptrs[0], i64::from(elem.size_bytes()) * k as i64),
        };
        fb.store(p, v);
    }
    fb.ret(None);
    let f = fb.finish();
    Kernel { f, args }
}

/// `n` arrays of `LEN` elements, each drawn by `x`.
fn inputs<T>(r: &mut Rng, n: u64, w: fn(Vec<T>) -> ArgSpec, x: fn(&mut Rng) -> T) -> Vec<ArgSpec> {
    (0..n)
        .map(|_| w((0..LEN).map(|_| x(r)).collect()))
        .collect()
}

/// A uniform draw from [0.5, 2), away from zero so quotients stay tame.
fn tame(rng: &mut Rng) -> f64 {
    0.5 + 1.5 * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn addsub(rng: &mut Rng) -> Kernel {
    let lanes = [0, 1].map(|_| chain(rng, ['+', '-'], (2, 4), 3, true));
    let data = inputs(rng, 4, ArgSpec::I64Array, |r| {
        r.range_i64(-1_000_000, 999_999)
    });
    kernel(ScalarType::I64, &lanes, data)
}

fn muldiv(rng: &mut Rng) -> Kernel {
    let lanes = [0, 1, 2, 3].map(|_| chain(rng, ['*', '/'], (2, 3), 2, true));
    let data = inputs(rng, 3, ArgSpec::F32Array, |r| tame(r) as f32);
    kernel(ScalarType::F32, &lanes, data)
}

fn nested(rng: &mut Rng) -> Kernel {
    let lanes = [0, 1].map(|_| {
        let mut sum = chain(rng, ['+', '-'], (1, 2), 1, false);
        for leaf in &mut sum.leaves {
            *leaf = Leaf::Term(chain(rng, ['*', '/'], (0, 2), 2, false));
        }
        sum
    });
    let data = inputs(rng, 3, ArgSpec::F64Array, tame);
    kernel(ScalarType::F64, &lanes, data)
}

/// Runs the pass on a copy of `k`, verifying the IR after every rewrite,
/// and checks the result against the scalar original.
fn vectorize(k: &Kernel, cfg: SlpConfig) -> Result<(FunctionReport, RunOutcome), String> {
    let mode = cfg.mode.code();
    let mut f = k.f.clone();
    let report = run_slp(&mut f, &cfg.with_verification());
    let (_, out) = check_equivalent(&k.f, &f, &k.args, &CostModel::default())
        .map_err(|e| format!("[{mode}] {e}\norig:\n{}\nvec:\n{f}", k.f))?;
    Ok((report, out))
}

/// [`vectorize`] under SLP, LSLP and SN-SLP, in that order.
fn all_modes(k: &Kernel) -> Result<[(FunctionReport, RunOutcome); 3], String> {
    let [slp, lslp, sn] = ALL_MODES.map(|m| vectorize(k, SlpConfig::new(m)));
    Ok([slp?, lslp?, sn?])
}

/// Properties (1)–(3): every mode matches the scalar code bit-exactly,
/// and SN-SLP never runs more simulated cycles than LSLP (Fig. 5).
#[test]
fn addsub_every_mode_matches_and_snslp_never_trails_lslp() {
    for_cases(96, addsub, |k| {
        let [_, (_, l), (_, s)] = all_modes(k)?;
        let (s, l) = (s.exec.cycles, l.exec.cycles);
        (s <= l)
            .then_some(())
            .ok_or(format!("SN-SLP {s} > LSLP {l} cycles"))
    });
}

/// Property (4): the kernel prints, reparses and prints the same text.
#[test]
fn addsub_kernels_round_trip_through_text() {
    for_cases(96, addsub, |k| {
        let text = k.f.to_string();
        let f2 = parse_function_str(&text).map_err(|e| format!("{e}\n{text}"))?;
        verify(&f2).map_err(|e| e.to_string())?;
        assert_eq!(f2.num_linked_insts(), k.f.num_linked_insts());
        assert_eq!(f2.to_string(), text);
        Ok(())
    });
}

/// Property (5): scalar cleanup (CSE, folding, DCE) preserves semantics.
#[test]
fn addsub_cleanup_preserves_semantics() {
    for_cases(96, addsub, |k| {
        let mut f = k.f.clone();
        snslp_ir::opt::cleanup_pipeline(&mut f);
        verify(&f).map_err(|e| e.to_string())?;
        check_equivalent(&k.f, &f, &k.args, &CostModel::default()).map(drop)
    });
}

/// Properties (6)–(8): every mode matches within the tolerance, and so
/// does SN-SLP with leaf moves only (trunk reordering off).
#[test]
fn muldiv_every_mode_and_leaf_only_reordering_match() {
    for_cases(64, muldiv, |k| {
        all_modes(k)?;
        let mut leaf_only = SlpConfig::new(SlpMode::SnSlp);
        leaf_only.enable_trunk_reordering = false;
        vectorize(k, leaf_only).map_err(|e| format!("leaf-only {e}"))?;
        Ok(())
    });
}

/// Properties (9) and (10): every mode matches on add/sub chains of
/// mul/div terms, and SN-SLP vectorizes at least as many graphs as LSLP
/// or its summed graph cost is no higher. Cycle dominance does not hold
/// here: see `core/tests/snir/fuzz/replay_nested_greedy_gap.snir`.
#[test]
fn nested_every_mode_matches_and_snslp_vectorizes_no_less() {
    for_cases(64, nested, |k| {
        let [_, (l, _), (s, _)] = all_modes(k)?;
        let cost = |r: &FunctionReport| r.graphs.iter().map(|g| g.cost).sum::<i32>();
        let ok = s.vectorized_graphs() >= l.vectorized_graphs() || cost(&s) <= cost(&l);
        ok.then_some(()).ok_or(format!("SN-SLP {s:?}\nLSLP {l:?}"))
    });
}

/// Text of up to 200 characters, a quarter of them drawn from all of
/// Unicode and the rest printable ASCII.
fn random_text(rng: &mut Rng) -> String {
    (0..rng.below(201))
        .map(|_| match rng.below(4) {
            0 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

/// Up to 40 grammar tokens joined by spaces.
fn token_soup(rng: &mut Rng) -> String {
    const TOKENS: [&str; 25] = [
        "func", "@f", "(", ")", "{", "}", "->", "void", "entry:", "%x", "=", "add", "load",
        "store", "i64", "f64x2", "ret", ",", "[", "]", "1.5", "-3", "phi", "cast", "sitofp",
    ];
    (0..rng.below(41))
        .map(|_| *rng.pick(&TOKENS))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Properties (11) and (12): `parse_module` returns, never panics, on
/// any text of up to 200 characters and on any soup of up to 40 grammar
/// tokens.
#[test]
fn parser_never_panics() {
    let parses = |src: &String| parse_module(src).map(drop).or(Ok(()));
    for_cases(256, random_text, parses);
    for_cases(256, token_soup, parses);
}

/// Property (13): a function of 1–19 random instruction formers (add,
/// sub, mul, neg, load, splat+extract, cmp+select, fptosi→sitofp)
/// prints and reparses to the same instruction count.
#[test]
fn every_instruction_former_round_trips() {
    let ops = |rng: &mut Rng| (0..1 + rng.below(19)).map(|_| rng.below(8)).collect();
    for_cases(256, ops, |ops: &Vec<u64>| {
        let n = Param::new("n", Type::scalar(ScalarType::I64));
        let mut fb = FunctionBuilder::new("gen", vec![Param::noalias_ptr("p"), n], Type::Void);
        let p = fb.func().param(0);
        let mut last = fb.load(ScalarType::F32, p);
        for (i, &op) in ops.iter().enumerate() {
            // The first half of the two-instruction formers.
            let x = match op {
                4 => fb.ptradd_const(p, 4 * (i as i64 + 1)),
                5 => fb.splat(last, 4),
                6 => fb.cmp(CmpPred::Lt, last, last),
                7 => fb.cast(CastKind::Fptosi, ScalarType::I32, last),
                _ => last,
            };
            last = match op {
                0 => fb.add(x, x),
                1 => fb.sub(x, x),
                2 => fb.mul(x, x),
                3 => fb.neg(x),
                4 => fb.load(ScalarType::F32, x),
                5 => fb.extract(x, 3),
                6 => fb.select(x, last, last),
                _ => fb.cast(CastKind::Sitofp, ScalarType::F32, x),
            };
        }
        fb.store(p, last);
        fb.ret(None);
        let f = fb.finish();
        verify(&f).map_err(|e| e.to_string())?;
        let text = f.to_string();
        let f2 = parse_function_str(&text).map_err(|e| format!("{e}\n{text}"))?;
        verify(&f2).map_err(|e| e.to_string())?;
        assert_eq!(f2.num_linked_insts(), f.num_linked_insts(), "{text}");
        Ok(())
    });
}

/// Property (14): every parse outcome is pinned. Each input writes one
/// line to `tests/golden/parse_outcomes.txt`: `ok` and the stable hash of
/// the printed module, or `err`, the error's position and its message
/// (escaped). The inputs are the `.snir` fixtures and 60 generated
/// functions, each followed by eight mutations of it, then 128 inputs
/// each from the generators of properties (11) and (12). Mutations
/// insert, replace and delete characters, among them the Unicode
/// whitespace and letters a byte-level lexer must still treat as `char`s,
/// and delete whole lines. A base's mutations are seeded by its text
/// alone, so a new fixture adds lines and leaves every other line as it
/// was.
/// Rewrite the golden after an intentional change with
/// `SNSLP_BLESS=1 cargo test -p snslp-fuzz --test properties parse_outcomes`.
#[test]
fn parse_outcomes_match_golden() {
    const ALPHABET: [char; 32] = [
        '\u{b}', '\u{c}', '\u{a0}', '\u{2003}', '\u{85}', 'é', '漢', '☃', ' ', '\t', '\n', '%',
        '@', '-', '>', ':', ',', '=', '[', ']', '{', '}', '(', ')', ';', '#', '.', '_', 'e', 'x',
        '0', '9',
    ];
    let mutate = |base: &str, rng: &mut Rng| {
        let mut chars: Vec<char> = base.chars().collect();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(chars.len() as u64 + 1) as usize;
            match rng.below(4) {
                0 => chars.insert(at, *rng.pick(&ALPHABET)),
                1 if at < chars.len() => chars[at] = *rng.pick(&ALPHABET),
                2 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => {
                    // Delete the line around `at`, newline included.
                    let start = chars[..at]
                        .iter()
                        .rposition(|&c| c == '\n')
                        .map_or(0, |p| p + 1);
                    let end = chars[at..]
                        .iter()
                        .position(|&c| c == '\n')
                        .map_or(chars.len(), |p| at + p + 1);
                    chars.drain(start..end);
                }
            }
        }
        chars.into_iter().collect::<String>()
    };
    let bases = fixture_texts()
        .into_iter()
        .chain((0..60).map(|i| snslp_fuzz::generate(SEED, i).function.to_string()));
    let mut inputs = Vec::new();
    for base in bases {
        let seed = stable_text_hash(&base) as u64;
        let mutations: Vec<String> = (0..8)
            .map(|k| mutate(&base, &mut Rng::for_case(seed, k)))
            .collect();
        inputs.push(base);
        inputs.extend(mutations);
    }
    inputs.extend((0..128).map(|i| random_text(&mut Rng::for_case(SEED, i))));
    inputs.extend((0..128).map(|i| token_soup(&mut Rng::for_case(SEED, i))));

    let mut actual = String::new();
    for src in &inputs {
        let line = match parse_module(src) {
            Ok(m) => format!("ok {:032x}", stable_text_hash(&m.to_string())),
            Err(e) => format!("err {}:{} {}", e.line, e.col, e.message.escape_debug()),
        };
        actual.push_str(&line);
        actual.push('\n');
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/parse_outcomes.txt");
    if std::env::var_os("SNSLP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with SNSLP_BLESS=1"));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a, e,
            "parse outcome of input {i} diverged from {path:?}:\n{}",
            inputs[i]
        );
    }
    assert_eq!(
        actual, expected,
        "parse outcomes diverged from {path:?}; rerun with SNSLP_BLESS=1 if intentional"
    );
}

/// The text of every `.snir` fixture under `crates/core/tests/snir`, in
/// path order.
fn fixture_texts() -> Vec<String> {
    fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "snir") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    collect(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/snir"),
        &mut files,
    );
    files.sort();
    files
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}
