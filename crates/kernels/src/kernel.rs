//! The [`Kernel`] descriptor: a named, reproducible workload consisting
//! of an IR builder and an input generator.

use snslp_interp::ArgSpec;
use snslp_ir::Function;

/// One kernel of the evaluation suite (one bar group of the paper's
/// Fig. 5–7, one row of Table I).
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Short identifier, e.g. `milc_su3`.
    pub name: &'static str,
    /// The SPEC CPU2006 benchmark the kernel's algebraic shape is taken
    /// from, e.g. `433.milc` (or `motivating` for the paper's §III
    /// examples).
    pub origin: &'static str,
    /// The source construct the kernel models.
    pub shape: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Element type as a display string (`i64`, `f64`, `f32`).
    pub elem: &'static str,
    /// Default iteration count for benchmarks.
    pub default_iters: usize,
    build: fn() -> Function,
    args: fn(usize) -> Vec<ArgSpec>,
}

impl Kernel {
    /// Creates a kernel descriptor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &'static str,
        origin: &'static str,
        shape: &'static str,
        description: &'static str,
        elem: &'static str,
        default_iters: usize,
        build: fn() -> Function,
        args: fn(usize) -> Vec<ArgSpec>,
    ) -> Self {
        Kernel {
            name,
            origin,
            shape,
            description,
            elem,
            default_iters,
            build,
            args,
        }
    }

    /// Builds the scalar IR of the kernel.
    pub fn build(&self) -> Function {
        (self.build)()
    }

    /// Generates deterministic inputs for `iters` iterations, in the
    /// order of the function's parameters (the trailing parameter is the
    /// iteration count).
    pub fn args(&self, iters: usize) -> Vec<ArgSpec> {
        (self.args)(iters)
    }
}
