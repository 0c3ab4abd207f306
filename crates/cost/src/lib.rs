//! # snslp-cost
//!
//! Target descriptions and the instruction cost model shared by the
//! SN-SLP vectorizer (profitability decisions) and the interpreter
//! (cycle accounting). See [`TargetDesc`] and [`CostModel`].
//!
//! # Examples
//!
//! ```
//! use snslp_cost::{CostModel, TargetDesc};
//! use snslp_ir::ScalarType;
//!
//! let model = CostModel::new(TargetDesc::sse2_like());
//! assert_eq!(model.target().max_lanes(ScalarType::F64), 2);
//! assert_eq!(model.gather_cost(2), 2); // paper Fig. 2 units
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod model;
pub mod target;

pub use model::{params, CostModel};
pub use target::TargetDesc;
