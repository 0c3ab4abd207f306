//! Prints the JIT lowering listing for a registry kernel under a chosen
//! pipeline — the quickest way to see what `--backend=jit` will execute.
//!
//! ```text
//! cargo run -p snslp-jit --example jitdump -- soplex_update snslp
//! ```
//!
//! The mode is one of `o3`, `slp`, `lslp`, `snslp` (default `snslp`).

use snslp_core::{optimize_o3, run_slp, SlpConfig, SlpMode};
use snslp_jit::compile;
use snslp_kernels::kernel_by_name;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "motiv_leaf".to_string());
    let mode = args.next().unwrap_or_else(|| "snslp".to_string());
    let k = kernel_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown kernel `{name}`");
        std::process::exit(2);
    });
    let mut f = k.build();
    if mode == "o3" {
        optimize_o3(&mut f);
    } else {
        let Ok(slp) = mode.parse::<SlpMode>() else {
            eprintln!("unknown mode `{mode}` (want o3|slp|lslp|snslp)");
            std::process::exit(2);
        };
        run_slp(&mut f, &SlpConfig::new(slp));
    }
    match compile(&f) {
        Ok(c) => print!("{}", c.dump()),
        Err(e) => {
            eprintln!("`{name}` [{mode}] does not lower: {e}");
            std::process::exit(1);
        }
    }
}
