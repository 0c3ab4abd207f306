//! Golden `jitdump` listings: the JIT's textual lowering dump for two
//! representative kernels under plain SLP and SN-SLP, plus the SN-SLP
//! code of `povray_clamp` (packed compare and select) and `sphinx_cep`
//! (packed `sitofp`), must stay byte-identical to the checked-in files.
//! The dump carries opcode mnemonics, stack-slot assignments and emitted
//! byte counts but no addresses, so it is stable across runs, hosts and
//! ASLR — any diff is a real change to instruction selection and belongs
//! in review. The binary jitdump's record structure is pinned the same
//! way.
//!
//! Regenerate after an intentional codegen change with:
//!
//! ```text
//! SNSLP_BLESS=1 cargo test -p snslp-jit --test jitdump_golden
//! ```
//!
//! `compile` is pure lowering (no executable mapping), so these tests
//! run on every platform, not just x86-64 Linux.

use std::fmt::Write as _;
use std::path::PathBuf;

use snslp_core::{run_slp, SlpConfig, SlpMode};
use snslp_jit::compile;
use snslp_jit::perf::{jitdump_bytes, JitSym};
use snslp_kernels::kernel_by_name;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(file)
}

fn check(kernel: &str, mode: SlpMode, label: &str) {
    let k = kernel_by_name(kernel).expect("registry kernel");
    let mut f = k.build();
    run_slp(&mut f, &SlpConfig::new(mode));
    let dump = compile(&f)
        .unwrap_or_else(|e| panic!("{kernel} [{label}] must lower: {e}"))
        .dump()
        .to_string();
    let path = golden_path(&format!("{kernel}_{label}.jitdump"));
    if std::env::var_os("SNSLP_BLESS").is_some() {
        std::fs::write(&path, &dump).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with SNSLP_BLESS=1 cargo test -p snslp-jit",
            path.display()
        )
    });
    assert_eq!(
        dump,
        want,
        "jitdump for {kernel} [{label}] drifted from {}",
        path.display()
    );
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Walks a binary jitdump and renders its structure: header fields,
/// then each record's file offset, sizes, index and symbol name. Code
/// addresses are pinned to cumulative byte offsets before rendering, so
/// the listing never contains a runtime address and stays stable under
/// ASLR — any diff is a real change to record layout or code size.
fn render_jitdump_structure(bytes: &[u8]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "header magic={:#010x} version={} size={} elf_mach={} pid={} timestamp={} flags={}",
        read_u32(bytes, 0),
        read_u32(bytes, 4),
        read_u32(bytes, 8),
        read_u32(bytes, 12),
        read_u32(bytes, 20),
        read_u64(bytes, 24),
        read_u64(bytes, 32),
    );
    let mut at = read_u32(bytes, 8) as usize;
    while at < bytes.len() {
        let total = read_u32(bytes, at + 4) as usize;
        let code_size = read_u64(bytes, at + 40);
        let code_index = read_u64(bytes, at + 48);
        let name_at = at + 56;
        let name_end = bytes[name_at..].iter().position(|&b| b == 0).unwrap() + name_at;
        let name = std::str::from_utf8(&bytes[name_at..name_end]).unwrap();
        let _ = writeln!(
            out,
            "record@{at} kind={} total={total} vma={:#x} code_size={code_size} \
             index={code_index} name={name}",
            read_u32(bytes, at),
            read_u64(bytes, at + 24),
        );
        at += total;
    }
    assert_eq!(at, bytes.len(), "records must tile the file exactly");
    out
}

#[test]
fn jitdump_file_structure_is_stable() {
    // Both Table I goldens' kernels under SN-SLP, laid out back to back
    // at offset 0 as a pinned-address stand-in for the runtime mapping.
    let mut compiled = Vec::new();
    for kernel in ["motiv_leaf", "povray_shade"] {
        let mut f = kernel_by_name(kernel).expect("registry kernel").build();
        run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp));
        let c = compile(&f).unwrap_or_else(|e| panic!("{kernel} must lower: {e}"));
        compiled.push((format!("snslp::{kernel}"), c));
    }
    let mut offset = 0u64;
    let mut syms = Vec::new();
    for (name, c) in &compiled {
        syms.push(JitSym {
            name,
            addr: offset,
            code: c.code(),
        });
        offset += c.code().len() as u64;
    }
    let listing = render_jitdump_structure(&jitdump_bytes(&syms, 0, 0));

    let path = golden_path("perf_jitdump.structure");
    if std::env::var_os("SNSLP_BLESS").is_some() {
        std::fs::write(&path, &listing).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with SNSLP_BLESS=1 cargo test -p snslp-jit",
            path.display()
        )
    });
    assert_eq!(
        listing,
        want,
        "jitdump structure drifted from {}",
        path.display()
    );
}

#[test]
fn motiv_leaf_slp_dump_is_stable() {
    check("motiv_leaf", SlpMode::Slp, "slp");
}

#[test]
fn motiv_leaf_snslp_dump_is_stable() {
    check("motiv_leaf", SlpMode::SnSlp, "snslp");
}

#[test]
fn povray_shade_slp_dump_is_stable() {
    check("povray_shade", SlpMode::Slp, "slp");
}

#[test]
fn povray_shade_snslp_dump_is_stable() {
    check("povray_shade", SlpMode::SnSlp, "snslp");
}

#[test]
fn povray_clamp_snslp_dump_is_stable() {
    check("povray_clamp", SlpMode::SnSlp, "snslp");
}

#[test]
fn sphinx_cep_snslp_dump_is_stable() {
    check("sphinx_cep", SlpMode::SnSlp, "snslp");
}
