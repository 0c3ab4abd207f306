//! PC→IR maps: which native byte range implements which IR instruction.
//!
//! The lowering emits a [`PcMap`] alongside the machine code. Its
//! contract is a strict partition: the ranges cover `[0, code_len)`
//! exactly once, in monotonically increasing order, with no gap and no
//! overlap — every emitted byte is attributable. Instruction ranges
//! carry the [`InstId`](snslp_ir::InstId) index, the interpreter's opcode class for the
//! instruction (the same [`classify`](snslp_interp::classify) the
//! dynamic profile uses, so native and interpreted counts bucket
//! identically), the owning block index, and the vectorization
//! [`DecisionId`] that emitted the instruction where one exists. Backend
//! plumbing that belongs to no instruction (prologue, trap stubs,
//! epilogue, hotness counter bumps) is mapped as named stub ranges.
//!
//! The map is what turns a raw native PC — an instrumented block
//! counter, a SIGPROF-sampled RIP, a `perf` address — back into IR
//! terms.

use snslp_interp::OpClass;
use snslp_trace::DecisionId;

/// What one native byte range implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcKind {
    /// One IR instruction (its fuel gate plus its body).
    Inst {
        /// Arena index of the instruction.
        inst: u32,
        /// Opcode class, by the interpreter's `classify` rule.
        class: OpClass,
        /// Index of the owning block in `Function::block_ids()` order.
        block: u32,
    },
    /// Backend plumbing: `prologue`, `exits`, `hot-counter`.
    Stub {
        /// Stable stub name.
        name: &'static str,
        /// Owning block index for in-block stubs (the hotness counter
        /// bump); `None` for function-level plumbing.
        block: Option<u32>,
    },
}

/// One contiguous native byte range `[start, end)` and what it encodes.
#[derive(Debug, Clone)]
pub struct PcRange {
    /// First byte offset of the range (inclusive).
    pub start: u32,
    /// One past the last byte offset (exclusive).
    pub end: u32,
    /// What the bytes implement.
    pub kind: PcKind,
    /// The vectorization decision that emitted the instruction, if the
    /// pass recorded one for it.
    pub decision: Option<DecisionId>,
}

/// The full per-function map, in emission order.
#[derive(Debug, Clone, Default)]
pub struct PcMap {
    /// Ranges in ascending, gap-free order.
    pub ranges: Vec<PcRange>,
}

impl PcMap {
    /// Appends a range; `start`/`end` come straight from `Asm::here()`.
    pub fn push(&mut self, start: usize, end: usize, kind: PcKind, decision: Option<DecisionId>) {
        // Zero-length ranges would break the partition invariant without
        // describing any byte; they legitimately occur (e.g. a phi-free
        // jump edge is still never empty, but a defensive skip keeps the
        // contract local).
        if end > start {
            self.ranges.push(PcRange {
                start: start as u32,
                end: end as u32,
                kind,
                decision,
            });
        }
    }

    /// Checks the partition contract against the final code length (see
    /// [`check_partition`]).
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn validate(&self, code_len: usize) -> Result<(), String> {
        check_partition(
            self.ranges.iter().map(|r| (r.start, r.end)),
            code_len as u64,
        )
    }

    /// Resolves one byte offset to its range (binary search; the map is
    /// sorted by construction).
    pub fn resolve(&self, off: u32) -> Option<&PcRange> {
        let i = self.ranges.partition_point(|r| r.end <= off);
        self.ranges.get(i).filter(|r| r.start <= off && off < r.end)
    }
}

/// The partition rule every PC→IR map obeys, here and in the `snslp-hot`
/// artifact reader: the `[start, end)` ranges, in ascending order, are
/// non-empty, start at 0, chain without gap or overlap, and end exactly
/// at `code_len`.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check_partition(
    ranges: impl IntoIterator<Item = (u32, u32)>,
    code_len: u64,
) -> Result<(), String> {
    let mut expect = 0u32;
    for (i, (start, end)) in ranges.into_iter().enumerate() {
        if end <= start {
            return Err(format!(
                "range {i} is empty or inverted: [{start:#x}, {end:#x})"
            ));
        }
        match start.cmp(&expect) {
            std::cmp::Ordering::Less => {
                return Err(format!(
                    "range {i} [{start:#x}, {end:#x}) overlaps the previous range ending at {expect:#x}"
                ));
            }
            std::cmp::Ordering::Greater => {
                return Err(format!(
                    "gap before range {i}: previous ended at {expect:#x}, next starts at {start:#x}"
                ));
            }
            std::cmp::Ordering::Equal => {}
        }
        expect = end;
    }
    if u64::from(expect) != code_len {
        return Err(format!(
            "map covers [0, {expect:#x}) but the function has {code_len:#x} code bytes"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(i: u32) -> PcKind {
        PcKind::Inst {
            inst: i,
            class: OpClass::Alu,
            block: 0,
        }
    }

    #[test]
    fn partition_invariants_are_enforced() {
        let mut m = PcMap::default();
        m.push(
            0,
            4,
            PcKind::Stub {
                name: "prologue",
                block: None,
            },
            None,
        );
        m.push(4, 10, inst(0), None);
        m.push(10, 12, inst(1), None);
        assert!(m.validate(12).is_ok());
        assert!(m.validate(13).unwrap_err().contains("code bytes"));

        let mut gap = PcMap::default();
        gap.push(0, 4, inst(0), None);
        gap.push(6, 8, inst(1), None);
        assert!(gap.validate(8).unwrap_err().contains("gap"));

        let mut overlap = PcMap::default();
        overlap.push(0, 4, inst(0), None);
        overlap.push(3, 8, inst(1), None);
        assert!(overlap.validate(8).unwrap_err().contains("overlap"));

        let empty = PcMap::default();
        assert!(empty.validate(0).is_ok());
        assert!(empty.validate(1).is_err());
    }

    #[test]
    fn resolve_finds_the_covering_range() {
        let mut m = PcMap::default();
        m.push(0, 4, inst(0), None);
        m.push(4, 9, inst(1), None);
        let hit = m.resolve(4).unwrap();
        assert_eq!(hit.start, 4);
        let hit = m.resolve(8).unwrap();
        assert_eq!(hit.end, 9);
        assert!(m.resolve(9).is_none());
        assert!(m.resolve(100).is_none());
    }
}
