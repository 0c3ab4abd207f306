//! Instruction definitions: opcodes, constants, and instruction kinds.

use std::fmt;

use crate::types::ScalarType;

/// Identifier of an instruction (or function parameter) inside a
/// [`Function`](crate::Function) arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    /// Index into the instruction arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifier of a basic block inside a [`Function`](crate::Function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into the block arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Binary operator.
///
/// The same opcode applies to integers and floats; the operand type selects
/// the semantics (e.g. `Add` on `f64` is an IEEE addition, on `i64` a
/// wrapping addition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (wrapping for integers).
    Add,
    /// Subtraction (wrapping for integers).
    Sub,
    /// Multiplication (wrapping for integers).
    Mul,
    /// Division. Integer division by zero traps in the interpreter.
    Div,
    /// Remainder.
    Rem,
    /// Lane-wise minimum.
    Min,
    /// Lane-wise maximum.
    Max,
    /// Bitwise and (integers only).
    And,
    /// Bitwise or (integers only).
    Or,
    /// Bitwise xor (integers only).
    Xor,
    /// Shift left (integers only).
    Shl,
    /// Arithmetic shift right (integers only).
    Shr,
}

impl BinOp {
    /// Whether `a op b == b op a` for all inputs.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Whether the op is associative (used to gate chain flattening).
    ///
    /// Floating-point `Add`/`Mul` are only *treated* as associative under
    /// fast-math, which the vectorizer checks separately.
    pub fn is_associative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Whether the op only applies to integer operands.
    pub fn is_int_only(self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
        )
    }

    /// The operator family ([`OpFamily`]) this op belongs to, and whether it
    /// is the inverse member of that family.
    ///
    /// `Add`/`Sub` form the additive family; `Mul`/`Div` the multiplicative
    /// one. Returns `None` for ops outside both families.
    pub fn family(self) -> Option<(OpFamily, Direction)> {
        match self {
            BinOp::Add => Some((OpFamily::AddSub, Direction::Direct)),
            BinOp::Sub => Some((OpFamily::AddSub, Direction::Inverse)),
            BinOp::Mul => Some((OpFamily::MulDiv, Direction::Direct)),
            BinOp::Div => Some((OpFamily::MulDiv, Direction::Inverse)),
            _ => None,
        }
    }

    /// Lower-case mnemonic used in the textual IR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }

    /// Parses a mnemonic produced by [`BinOp::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "min" => BinOp::Min,
            "max" => BinOp::Max,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            _ => return None,
        })
    }

    /// All binary ops, for exhaustive tests.
    pub const ALL: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A commutative-and-associative operator together with its inverse element
/// operator, the algebraic structure the Super-Node is built on (paper
/// §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpFamily {
    /// Addition and subtraction.
    AddSub,
    /// Multiplication and division.
    MulDiv,
}

impl OpFamily {
    /// The direct (commutative) member: `add` or `mul`.
    pub fn direct(self) -> BinOp {
        match self {
            OpFamily::AddSub => BinOp::Add,
            OpFamily::MulDiv => BinOp::Mul,
        }
    }

    /// The inverse member: `sub` or `div`.
    pub fn inverse(self) -> BinOp {
        match self {
            OpFamily::AddSub => BinOp::Sub,
            OpFamily::MulDiv => BinOp::Div,
        }
    }

    /// The op corresponding to a [`Direction`] within this family.
    pub fn op(self, dir: Direction) -> BinOp {
        match dir {
            Direction::Direct => self.direct(),
            Direction::Inverse => self.inverse(),
        }
    }
}

/// Whether an op is the direct member of its [`OpFamily`] or the inverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `add` / `mul`.
    Direct,
    /// `sub` / `div`.
    Inverse,
}

/// Unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement (integers only).
    Not,
    /// Absolute value.
    Abs,
    /// Square root (floats only).
    Sqrt,
}

impl UnOp {
    /// Lower-case mnemonic used in the textual IR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt",
        }
    }

    /// Parses a mnemonic produced by [`UnOp::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "neg" => UnOp::Neg,
            "not" => UnOp::Not,
            "abs" => UnOp::Abs,
            "sqrt" => UnOp::Sqrt,
            _ => return None,
        })
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Conversion operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Signed integer → floating point.
    Sitofp,
    /// Floating point → signed integer (saturating, round toward zero).
    Fptosi,
    /// `f32` → `f64`.
    Fpext,
    /// `f64` → `f32`.
    Fptrunc,
    /// `i32` → `i64` (sign extension).
    Sext,
    /// `i64` → `i32` (truncation).
    Trunc,
}

impl CastKind {
    /// Lower-case mnemonic used in the textual IR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::Sitofp => "sitofp",
            CastKind::Fptosi => "fptosi",
            CastKind::Fpext => "fpext",
            CastKind::Fptrunc => "fptrunc",
            CastKind::Sext => "sext",
            CastKind::Trunc => "trunc",
        }
    }

    /// Parses a mnemonic produced by [`CastKind::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "sitofp" => CastKind::Sitofp,
            "fptosi" => CastKind::Fptosi,
            "fpext" => CastKind::Fpext,
            "fptrunc" => CastKind::Fptrunc,
            "sext" => CastKind::Sext,
            "trunc" => CastKind::Trunc,
            _ => return None,
        })
    }

    /// Whether `from → to` is the conversion this kind performs.
    pub fn valid_for(self, from: ScalarType, to: ScalarType) -> bool {
        match self {
            CastKind::Sitofp => from.is_int() && to.is_float(),
            CastKind::Fptosi => from.is_float() && to.is_int(),
            CastKind::Fpext => from == ScalarType::F32 && to == ScalarType::F64,
            CastKind::Fptrunc => from == ScalarType::F64 && to == ScalarType::F32,
            CastKind::Sext => from == ScalarType::I32 && to == ScalarType::I64,
            CastKind::Trunc => from == ScalarType::I64 && to == ScalarType::I32,
        }
    }
}

impl fmt::Display for CastKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison predicate. Signedness/ordering follows the operand type
/// (signed compare for integers, ordered compare for floats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpPred {
    /// Lower-case mnemonic used in the textual IR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        }
    }

    /// Parses a mnemonic produced by [`CmpPred::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "lt" => CmpPred::Lt,
            "le" => CmpPred::Le,
            "gt" => CmpPred::Gt,
            "ge" => CmpPred::Ge,
            _ => return None,
        })
    }
}

impl fmt::Display for CmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A scalar immediate constant.
///
/// Equality and hashing of float constants compare the raw bit pattern, so
/// `NaN == NaN` holds for identical payloads and `-0.0 != 0.0`; this is the
/// behaviour a compiler wants when deduplicating constants.
#[derive(Debug, Clone, Copy)]
pub enum Constant {
    /// 32-bit integer immediate.
    I32(i32),
    /// 64-bit integer immediate.
    I64(i64),
    /// 32-bit float immediate.
    F32(f32),
    /// 64-bit float immediate.
    F64(f64),
}

impl Constant {
    /// The type of the constant.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            Constant::I32(_) => ScalarType::I32,
            Constant::I64(_) => ScalarType::I64,
            Constant::F32(_) => ScalarType::F32,
            Constant::F64(_) => ScalarType::F64,
        }
    }

    /// Whether this is the additive identity of its type.
    pub fn is_zero(&self) -> bool {
        match *self {
            Constant::I32(v) => v == 0,
            Constant::I64(v) => v == 0,
            Constant::F32(v) => v == 0.0,
            Constant::F64(v) => v == 0.0,
        }
    }

    /// Whether this is the multiplicative identity of its type.
    pub fn is_one(&self) -> bool {
        match *self {
            Constant::I32(v) => v == 1,
            Constant::I64(v) => v == 1,
            Constant::F32(v) => v == 1.0,
            Constant::F64(v) => v == 1.0,
        }
    }

    /// The zero constant of a scalar type.
    pub fn zero(ty: ScalarType) -> Self {
        match ty {
            ScalarType::I32 => Constant::I32(0),
            ScalarType::I64 => Constant::I64(0),
            ScalarType::F32 => Constant::F32(0.0),
            ScalarType::F64 => Constant::F64(0.0),
        }
    }

    /// The one constant of a scalar type.
    pub fn one(ty: ScalarType) -> Self {
        match ty {
            ScalarType::I32 => Constant::I32(1),
            ScalarType::I64 => Constant::I64(1),
            ScalarType::F32 => Constant::F32(1.0),
            ScalarType::F64 => Constant::F64(1.0),
        }
    }

    /// Raw 64-bit representation used for equality/hashing.
    fn bits(&self) -> (u8, u64) {
        match *self {
            Constant::I32(v) => (0, v as u32 as u64),
            Constant::I64(v) => (1, v as u64),
            Constant::F32(v) => (2, u64::from(v.to_bits())),
            Constant::F64(v) => (3, v.to_bits()),
        }
    }
}

impl PartialEq for Constant {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for Constant {}

impl std::hash::Hash for Constant {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bits().hash(state);
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::I32(v) => write!(f, "{v}"),
            Constant::I64(v) => write!(f, "{v}"),
            Constant::F32(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Constant::F64(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// The payload of an instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// The `n`-th function parameter. Created by the function constructor;
    /// never appears inside a block.
    Param(u32),
    /// A scalar immediate.
    Const(Constant),
    /// `lhs op rhs` on scalars or lane-wise on vectors.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: InstId,
        /// Right operand.
        rhs: InstId,
    },
    /// A vector binary instruction applying a *different* operator per lane
    /// (the x86 `addsub` family generalized). `ops.len()` must equal the
    /// lane count.
    BinaryLanewise {
        /// Per-lane operators.
        ops: Box<[BinOp]>,
        /// Left operand.
        lhs: InstId,
        /// Right operand.
        rhs: InstId,
    },
    /// `op operand` on scalars or lane-wise on vectors.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: InstId,
    },
    /// Type conversion; the result type is the instruction's type.
    Cast {
        /// Conversion operator.
        kind: CastKind,
        /// Operand.
        operand: InstId,
    },
    /// Comparison producing `i32` 0/1 (or a vector thereof).
    Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: InstId,
        /// Right operand.
        rhs: InstId,
    },
    /// `cond ? on_true : on_false`; `cond` is scalar `i32`.
    Select {
        /// Condition (non-zero selects `on_true`).
        cond: InstId,
        /// Value when condition is non-zero.
        on_true: InstId,
        /// Value when condition is zero.
        on_false: InstId,
    },
    /// Loads a value of the instruction's type from `ptr`.
    Load {
        /// Address operand (type `ptr`).
        ptr: InstId,
    },
    /// Stores `value` to `ptr`.
    Store {
        /// Address operand (type `ptr`).
        ptr: InstId,
        /// Value to store.
        value: InstId,
    },
    /// `ptr + offset` (byte offset, `i64`).
    PtrAdd {
        /// Base address.
        ptr: InstId,
        /// Byte offset (`i64`).
        offset: InstId,
    },
    /// Broadcasts a scalar into all lanes of a vector.
    Splat {
        /// Scalar to broadcast.
        value: InstId,
        /// Number of lanes.
        lanes: u8,
    },
    /// Builds a vector out of scalar elements.
    BuildVector {
        /// Lane values, one per lane.
        elems: Box<[InstId]>,
    },
    /// Extracts lane `lane` from a vector.
    ExtractElement {
        /// Vector operand.
        vector: InstId,
        /// Lane index.
        lane: u8,
    },
    /// Inserts a scalar into lane `lane` of a vector.
    InsertElement {
        /// Vector operand.
        vector: InstId,
        /// Scalar to insert.
        value: InstId,
        /// Lane index.
        lane: u8,
    },
    /// Shuffles two vectors: output lane `i` is lane `mask[i]` of the
    /// 2·lanes-wide concatenation `a ++ b`.
    Shuffle {
        /// First vector.
        a: InstId,
        /// Second vector.
        b: InstId,
        /// Selection mask.
        mask: Box<[u8]>,
    },
    /// SSA phi node.
    Phi {
        /// `(predecessor block, value)` pairs.
        incoming: Vec<(BlockId, InstId)>,
    },
    /// Unconditional branch.
    Jump {
        /// Destination block.
        target: BlockId,
    },
    /// Conditional branch on a scalar `i32` condition.
    Branch {
        /// Condition (non-zero takes `on_true`).
        cond: InstId,
        /// Destination when condition is non-zero.
        on_true: BlockId,
        /// Destination when condition is zero.
        on_false: BlockId,
    },
    /// Function return.
    Ret {
        /// Returned value, if the function returns one.
        value: Option<InstId>,
    },
}

impl InstKind {
    /// The value operands of this instruction, in a fixed order.
    pub fn operands(&self) -> Vec<InstId> {
        match self {
            InstKind::Param(_) | InstKind::Const(_) | InstKind::Jump { .. } => Vec::new(),
            InstKind::Binary { lhs, rhs, .. }
            | InstKind::BinaryLanewise { lhs, rhs, .. }
            | InstKind::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            InstKind::Unary { operand, .. } | InstKind::Cast { operand, .. } => {
                vec![*operand]
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => vec![*cond, *on_true, *on_false],
            InstKind::Load { ptr } => vec![*ptr],
            InstKind::Store { ptr, value } => vec![*ptr, *value],
            InstKind::PtrAdd { ptr, offset } => vec![*ptr, *offset],
            InstKind::Splat { value, .. } => vec![*value],
            InstKind::BuildVector { elems } => elems.to_vec(),
            InstKind::ExtractElement { vector, .. } => vec![*vector],
            InstKind::InsertElement { vector, value, .. } => vec![*vector, *value],
            InstKind::Shuffle { a, b, .. } => vec![*a, *b],
            InstKind::Phi { incoming } => incoming.iter().map(|(_, v)| *v).collect(),
            InstKind::Branch { cond, .. } => vec![*cond],
            InstKind::Ret { value } => value.iter().copied().collect(),
        }
    }

    /// Applies `f` to every value operand, in the same fixed order as
    /// [`InstKind::operands`], without allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(InstId)) {
        match self {
            InstKind::Param(_) | InstKind::Const(_) | InstKind::Jump { .. } => {}
            InstKind::Binary { lhs, rhs, .. }
            | InstKind::BinaryLanewise { lhs, rhs, .. }
            | InstKind::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            InstKind::Unary { operand, .. } | InstKind::Cast { operand, .. } => f(*operand),
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                f(*cond);
                f(*on_true);
                f(*on_false);
            }
            InstKind::Load { ptr } => f(*ptr),
            InstKind::Store { ptr, value } => {
                f(*ptr);
                f(*value);
            }
            InstKind::PtrAdd { ptr, offset } => {
                f(*ptr);
                f(*offset);
            }
            InstKind::Splat { value, .. } => f(*value),
            InstKind::BuildVector { elems } => {
                for &e in elems {
                    f(e);
                }
            }
            InstKind::ExtractElement { vector, .. } => f(*vector),
            InstKind::InsertElement { vector, value, .. } => {
                f(*vector);
                f(*value);
            }
            InstKind::Shuffle { a, b, .. } => {
                f(*a);
                f(*b);
            }
            InstKind::Phi { incoming } => {
                for &(_, v) in incoming {
                    f(v);
                }
            }
            InstKind::Branch { cond, .. } => f(*cond),
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    f(*v);
                }
            }
        }
    }

    /// Applies `f` to every value-operand slot.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut InstId)) {
        match self {
            InstKind::Param(_) | InstKind::Const(_) | InstKind::Jump { .. } => {}
            InstKind::Binary { lhs, rhs, .. }
            | InstKind::BinaryLanewise { lhs, rhs, .. }
            | InstKind::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Unary { operand, .. } | InstKind::Cast { operand, .. } => f(operand),
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            InstKind::Load { ptr } => f(ptr),
            InstKind::Store { ptr, value } => {
                f(ptr);
                f(value);
            }
            InstKind::PtrAdd { ptr, offset } => {
                f(ptr);
                f(offset);
            }
            InstKind::Splat { value, .. } => f(value),
            InstKind::BuildVector { elems } => {
                for e in elems.iter_mut() {
                    f(e);
                }
            }
            InstKind::ExtractElement { vector, .. } => f(vector),
            InstKind::InsertElement { vector, value, .. } => {
                f(vector);
                f(value);
            }
            InstKind::Shuffle { a, b, .. } => {
                f(a);
                f(b);
            }
            InstKind::Phi { incoming } => {
                for (_, v) in incoming.iter_mut() {
                    f(v);
                }
            }
            InstKind::Branch { cond, .. } => f(cond),
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
        }
    }

    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Jump { .. } | InstKind::Branch { .. } | InstKind::Ret { .. }
        )
    }

    /// Whether the instruction writes memory or controls execution, i.e.
    /// must never be removed as dead even when unused.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, InstKind::Store { .. }) || self.is_terminator()
    }

    /// The successor blocks if this is a terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            InstKind::Jump { target } => vec![*target],
            InstKind::Branch {
                on_true, on_false, ..
            } => vec![*on_true, *on_false],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Mul.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Div.is_commutative());
        assert!(BinOp::Xor.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
    }

    #[test]
    fn families() {
        assert_eq!(
            BinOp::Add.family(),
            Some((OpFamily::AddSub, Direction::Direct))
        );
        assert_eq!(
            BinOp::Sub.family(),
            Some((OpFamily::AddSub, Direction::Inverse))
        );
        assert_eq!(
            BinOp::Div.family(),
            Some((OpFamily::MulDiv, Direction::Inverse))
        );
        assert_eq!(BinOp::Xor.family(), None);
        assert_eq!(OpFamily::AddSub.direct(), BinOp::Add);
        assert_eq!(OpFamily::AddSub.inverse(), BinOp::Sub);
        assert_eq!(OpFamily::MulDiv.op(Direction::Inverse), BinOp::Div);
    }

    #[test]
    fn mnemonic_round_trip() {
        for op in BinOp::ALL {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        for op in [UnOp::Neg, UnOp::Not, UnOp::Abs, UnOp::Sqrt] {
            assert_eq!(UnOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        for p in [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Lt,
            CmpPred::Le,
            CmpPred::Gt,
            CmpPred::Ge,
        ] {
            assert_eq!(CmpPred::from_mnemonic(p.mnemonic()), Some(p));
        }
    }

    #[test]
    fn constant_bitwise_equality() {
        assert_eq!(Constant::F64(0.0), Constant::F64(0.0));
        assert_ne!(Constant::F64(0.0), Constant::F64(-0.0));
        assert_eq!(Constant::F64(f64::NAN), Constant::F64(f64::NAN));
        assert_ne!(Constant::I32(1), Constant::I64(1));
    }

    #[test]
    fn constant_identities() {
        for ty in ScalarType::ALL {
            assert!(Constant::zero(ty).is_zero());
            assert!(Constant::one(ty).is_one());
            assert_eq!(Constant::zero(ty).scalar_type(), ty);
        }
    }

    #[test]
    fn operand_lists() {
        let b = InstKind::Binary {
            op: BinOp::Add,
            lhs: InstId(1),
            rhs: InstId(2),
        };
        assert_eq!(b.operands(), vec![InstId(1), InstId(2)]);
        assert!(!b.is_terminator());
        assert!(!b.has_side_effects());

        let s = InstKind::Store {
            ptr: InstId(3),
            value: InstId(4),
        };
        assert!(s.has_side_effects());

        let br = InstKind::Branch {
            cond: InstId(0),
            on_true: BlockId(1),
            on_false: BlockId(2),
        };
        assert!(br.is_terminator());
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn for_each_operand_mut_rewrites() {
        let mut k = InstKind::Select {
            cond: InstId(0),
            on_true: InstId(1),
            on_false: InstId(2),
        };
        k.for_each_operand_mut(|o| *o = InstId(o.0 + 10));
        assert_eq!(k.operands(), vec![InstId(10), InstId(11), InstId(12)]);
    }
}
