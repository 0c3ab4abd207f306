//! Lowering committed IR to x86-64 machine code.
//!
//! Every SSA value owns one fixed-size stack slot addressed
//! `[rsp + id * slot_bytes]`, its *home*. Four registers are pinned for
//! the whole activation: `r12` = guest memory base, `r13` = guest memory
//! size, `r14` = the fuel the current block started with, `r15` =
//! context pointer. `rax`/`rcx`/`rdx` and `xmm0`–`xmm5`/`xmm7` are
//! per-instruction scratch.
//!
//! Allocation is *block-local*. A value is block-local when every use is
//! a non-phi instruction of its defining block. The hot ops (`const
//! i64`, `ptradd`, scalar `i64` add/sub/mul, scalar float
//! add/sub/mul/div, 16-byte packed `binary` ops and splats, loads and
//! stores) compute in the allocatable registers `r8`–`r11`, `rsi`, `rdi`
//! and `xmm8`–`xmm15`. A block-local result stays in its register until its
//! last use and touches its slot only if it is evicted (least recently
//! used first) while uses remain; any other result is stored home at
//! once, and its register copy may serve later uses in the block. Every
//! other op reads its operands from their slots through the same entry
//! point, which writes a dirty register back first. No value is in a
//! register when a block starts, so phis, traps and block boundaries
//! keep the slot discipline; a helper call (float min/max/rem) writes
//! back every dirty value and forgets every register first.
//!
//! Fuel is checked per instruction but charged per block: the `k`-th
//! non-phi instruction traps when the block-entry fuel equals `k`, the
//! interpreter's trap point, and the terminator subtracts the block's
//! count once.
//!
//! Slot layout equals the guest memory layout of each type (`i32`/`f32`
//! 4 bytes, `i64`/`f64`/`ptr` 8 bytes, vectors packed lanes), which turns
//! loads and stores into bounds-checked byte copies and makes
//! extract/insert/shuffle plain slot arithmetic. Integer reads go through
//! `movsxd` for `i32`, mirroring the interpreter's widen-to-`i64`,
//! compute, truncate semantics (including shift counts masked `& 63`).
//!
//! The fallback contract: [`lower`] either emits code for *every*
//! instruction of the function or returns a reason string and emits
//! nothing — there is no partial compilation. `fptosi` (saturating,
//! per Rust `as` semantics) is intentionally not lowered and exercises
//! that path.
//!
//! Phi moves happen on the edge, as in the interpreter: each phi owns a
//! staging slot; a terminator first copies every incoming value to the
//! staging slots, then commits staging to the phi slots, so parallel
//! copies can never observe each other's writes.

use std::collections::BTreeMap;

use snslp_interp::classify;
use snslp_ir::{
    BinOp, BlockId, CastKind, CmpPred, Constant, Function, InstId, InstKind, ScalarType, Type,
    UnOp, VectorType,
};
use snslp_trace::DecisionId;

use crate::asm::{
    Asm, Cc, Gpr, Label, Xmm, R10, R11, R12, R13, R14, R15, R8, R9, RAX, RBP, RCX, RDI, RDX, RSI,
    RSP, XMM0, XMM1, XMM10, XMM11, XMM12, XMM13, XMM14, XMM15, XMM2, XMM3, XMM4, XMM5, XMM7, XMM8,
    XMM9,
};
use crate::pcmap::{PcKind, PcMap};
use crate::runtime::{
    helpers, CTX_FUEL, CTX_HOT, CTX_MEM_BASE, CTX_MEM_SIZE, CTX_RET, CTX_TRAP_ADDR,
};

/// Guest address 0..64 is the interpreter's null page.
const NULL_PAGE: i32 = 64;

/// Refuse values wider than the context's return buffer.
const MAX_VALUE_BYTES: usize = crate::runtime::RET_BUF_BYTES;

/// Refuse frames past 1 MiB: test threads run on 2 MiB stacks.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// Options controlling one lowering.
#[derive(Debug, Clone, Default)]
pub struct LowerOptions {
    /// Emit the instrumented-hotness counter bump at every block entry:
    /// `inc qword [hot_counts + 8*block_index]` through the context's
    /// `hot_counts` pointer. Callers must then provide a counter buffer
    /// with one slot per block at invoke time.
    pub instrument: bool,
    /// Instruction arena index → the vectorization decision that emitted
    /// it, for decision-labelled PC ranges.
    pub decisions: BTreeMap<u32, DecisionId>,
}

/// A structured fallback reason: why a function cannot be lowered, and —
/// when the failure is anchored to one instruction — which one, so a
/// `jit-fallback` remark is greppable down to the offending opcode.
#[derive(Debug, Clone)]
pub struct LowerError {
    /// Human-readable reason.
    pub reason: String,
    /// Arena index of the first unsupported instruction, when the
    /// failure is instruction-anchored (pre-flight shape checks are
    /// function-level and leave this empty).
    pub inst: Option<u32>,
    /// Mnemonic of the unsupported opcode (`cast.fptosi`, `binary.div`,
    /// …), present exactly when `inst` is.
    pub opcode: Option<String>,
}

impl LowerError {
    fn function(reason: String) -> Self {
        LowerError {
            reason,
            inst: None,
            opcode: None,
        }
    }

    fn at(id: InstId, kind: &InstKind, reason: String) -> Self {
        LowerError {
            reason,
            inst: Some(id.index() as u32),
            opcode: Some(mnemonic(kind)),
        }
    }
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.opcode, self.inst) {
            (Some(op), Some(i)) => write!(f, "unsupported `{op}` at %{i}: {}", self.reason),
            _ => write!(f, "{}", self.reason),
        }
    }
}

/// Short opcode mnemonic for fallback remarks and dump lines.
fn mnemonic(kind: &InstKind) -> String {
    match kind {
        InstKind::Param(_) => "param".to_string(),
        InstKind::Phi { .. } => "phi".to_string(),
        InstKind::Const(_) => "const".to_string(),
        InstKind::Binary { op, .. } => format!("binary.{op}"),
        InstKind::BinaryLanewise { ops, .. } => format!("lanewise[{}]", ops.len()),
        InstKind::Unary { op, .. } => format!("unary.{op}"),
        InstKind::Cast { kind, .. } => format!("cast.{kind}"),
        InstKind::Cmp { pred, .. } => format!("cmp.{pred}"),
        InstKind::Select { .. } => "select".to_string(),
        InstKind::Load { .. } => "load".to_string(),
        InstKind::Store { .. } => "store".to_string(),
        InstKind::PtrAdd { .. } => "ptradd".to_string(),
        InstKind::Splat { .. } => "splat".to_string(),
        InstKind::BuildVector { .. } => "build-vector".to_string(),
        InstKind::ExtractElement { .. } => "extract".to_string(),
        InstKind::InsertElement { .. } => "insert".to_string(),
        InstKind::Shuffle { .. } => "shuffle".to_string(),
        InstKind::Jump { .. } => "jump".to_string(),
        InstKind::Branch { .. } => "branch".to_string(),
        InstKind::Ret { .. } => "ret".to_string(),
    }
}

/// The packed SSE2 instruction (`prefix 0F op`) that computes `op` on
/// every lane of `elem` exactly as the interpreter does, if there is
/// one. Integer lanes wrap, like the interpreter's widen, compute,
/// truncate.
fn packed_binop(op: BinOp, elem: ScalarType) -> Option<(&'static [u8], u8)> {
    use ScalarType::{F32, F64, I32, I64};
    let opc = match (elem, op) {
        (F32 | F64, BinOp::Add) => 0x58,
        (F32 | F64, BinOp::Sub) => 0x5C,
        (F32 | F64, BinOp::Mul) => 0x59,
        (F32 | F64, BinOp::Div) => 0x5E,
        (I32, BinOp::Add) => 0xFE,       // paddd
        (I32, BinOp::Sub) => 0xFA,       // psubd
        (I64, BinOp::Add) => 0xD4,       // paddq
        (I64, BinOp::Sub) => 0xFB,       // psubq
        (I32 | I64, BinOp::And) => 0xDB, // pand
        (I32 | I64, BinOp::Or) => 0xEB,  // por
        (I32 | I64, BinOp::Xor) => 0xEF, // pxor
        _ => return None,
    };
    Some((if elem == F32 { &[] } else { &[0x66] }, opc))
}

/// The scalar SSE arithmetic opcode (`addss`/`addsd` …, `prefix 0F op`)
/// of `op`, if it has one.
fn sse_arith(op: BinOp) -> Option<u8> {
    match op {
        BinOp::Add => Some(0x58),
        BinOp::Sub => Some(0x5C),
        BinOp::Mul => Some(0x59),
        BinOp::Div => Some(0x5E),
        _ => None,
    }
}

/// The float type whose `movss`/`movsd` moves an `esz`-byte lane.
fn lane_float(esz: i32) -> ScalarType {
    if esz == 4 {
        ScalarType::F32
    } else {
        ScalarType::F64
    }
}

/// Dump text for a vector op lowered as `chunks` packed 16-byte chunks
/// plus `tail` scalar lanes.
fn vector_strategy(chunks: usize, tail: usize) -> String {
    match (chunks, tail) {
        (0, _) => format!("per-lane x{tail}"),
        (_, 0) => format!("packed x{chunks}"),
        _ => format!("packed x{chunks} + tail x{tail}"),
    }
}

/// Allocatable GPRs. The prologue is the last fixed use of `rsi` and
/// `rdi`; `rax`, `rcx` and `rdx` stay scratch.
const ALLOC_GPRS: [Gpr; 6] = [R8, R9, R10, R11, RSI, RDI];

/// Allocatable xmm registers; `xmm0`–`xmm5` and `xmm7` stay scratch.
const ALLOC_XMMS: [Xmm; 8] = [XMM8, XMM9, XMM10, XMM11, XMM12, XMM13, XMM14, XMM15];

/// Register file index: `ALLOC_GPRS` first, then `ALLOC_XMMS`.
type RegIdx = usize;

/// The register class that can hold a value of type `ty`, if any:
/// `i64` and `ptr` in GPRs; `f32`, `f64` and 16-byte vectors in xmm
/// registers. Every other type lives in its slot only.
fn reg_class(ty: Type) -> Option<std::ops::Range<RegIdx>> {
    let gprs = 0..ALLOC_GPRS.len();
    let xmms = ALLOC_GPRS.len()..ALLOC_GPRS.len() + ALLOC_XMMS.len();
    match ty {
        Type::Ptr | Type::Scalar(ScalarType::I64) => Some(gprs),
        Type::Scalar(ScalarType::F32 | ScalarType::F64) => Some(xmms),
        Type::Vector(vt) if vt.size_bytes() == 16 => Some(xmms),
        _ => None,
    }
}

/// The GPR of register file index `r`.
fn gpr(r: RegIdx) -> Gpr {
    ALLOC_GPRS[r]
}

/// The xmm register of register file index `r`.
fn xmm(r: RegIdx) -> Xmm {
    ALLOC_XMMS[r - ALLOC_GPRS.len()]
}

fn reg_loc(r: RegIdx) -> Loc {
    if r < ALLOC_GPRS.len() {
        Loc::Gpr(gpr(r))
    } else {
        Loc::Xmm(xmm(r))
    }
}

/// Where an operand is read from: a register that holds it, or its slot.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Gpr(Gpr),
    Xmm(Xmm),
    Slot(i32),
}

/// One allocatable register.
#[derive(Debug, Clone, Copy, Default)]
struct RegState {
    /// The value it holds.
    val: Option<InstId>,
    /// The value's slot is stale: only a block-local value, defined into
    /// this register, is ever dirty.
    dirty: bool,
    /// Read or defined by the instruction being lowered: not evictable.
    pinned: bool,
    /// Last-touch time, for least-recently-used eviction.
    last: u32,
}

/// Successful lowering: finalized code plus the jitdump text.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// Position-independent machine code (entry at byte 0).
    pub code: Vec<u8>,
    /// Deterministic disassembly-style dump (no absolute addresses).
    pub dump: String,
    /// Number of IR instructions lowered (phis excluded).
    pub ops_lowered: usize,
    /// PC→IR map partitioning `code` exactly.
    pub pc_map: PcMap,
    /// Number of basic blocks (the instrumented counter buffer needs one
    /// `u64` slot per block).
    pub num_blocks: usize,
    /// Whether the code bumps per-block hotness counters.
    pub instrumented: bool,
}

struct Lower<'a> {
    f: &'a Function,
    a: Asm,
    slot_bytes: usize,
    /// phi inst -> staging slot index (>= num_inst_slots).
    staging: Vec<(InstId, usize)>,
    block_labels: Vec<Label>,
    l_epilogue: Label,
    l_trap_oob: Label,
    l_trap_div: Label,
    l_trap_fuel: Label,
    frame: i32,
    dump: String,
    ops: usize,
    opts: &'a LowerOptions,
    pc: PcMap,
    /// The allocatable registers, indexed by [`RegIdx`].
    regs: [RegState; ALLOC_GPRS.len() + ALLOC_XMMS.len()],
    /// The register holding each value, if one does.
    held: Vec<Option<RegIdx>>,
    /// Whether each value is block-local: every use is a non-phi
    /// instruction of its defining block.
    local: Vec<bool>,
    /// Uses left in the current block, per value, not counting the
    /// instruction being lowered.
    uses: Vec<u32>,
    /// Clock for `RegState::last`.
    tick: u32,
    /// Values the current instruction wrote back to make room, marked on
    /// its dump line.
    spilled: Vec<InstId>,
}

/// Lowers `f` to machine code with default options, or reports why the
/// function must fall back to the interpreter.
///
/// # Errors
///
/// Returns the fallback reason (unsupported opcode, oversized value or
/// frame, malformed shape). Nothing is emitted on error.
pub fn lower(f: &Function) -> Result<Lowered, LowerError> {
    lower_with(f, &LowerOptions::default())
}

/// Lowers `f` to machine code under explicit [`LowerOptions`].
///
/// # Errors
///
/// Returns the structured fallback reason. Nothing is emitted on error.
pub fn lower_with(f: &Function, opts: &LowerOptions) -> Result<Lowered, LowerError> {
    // Pre-flight: slot sizing and parameter shapes.
    let mut slot_bytes = 8usize;
    for p in f.params() {
        match p.ty {
            Type::Ptr | Type::Scalar(_) => {}
            ty => {
                return Err(LowerError::function(format!(
                    "parameter of type {ty} is not callable natively"
                )))
            }
        }
    }
    for i in 0..f.num_inst_slots() {
        let ty = f.ty(InstId(i as u32));
        if !ty.is_value() {
            continue;
        }
        let sz = ty.size_bytes() as usize;
        if sz > MAX_VALUE_BYTES {
            return Err(LowerError::function(format!(
                "value of type {ty} is wider than {MAX_VALUE_BYTES} bytes"
            )));
        }
        slot_bytes = slot_bytes.max(sz);
    }
    slot_bytes = slot_bytes.next_multiple_of(8);

    let mut staging = Vec::new();
    for b in f.block_ids() {
        for &id in f.block(b).insts() {
            if matches!(f.kind(id), InstKind::Phi { .. }) {
                staging.push((id, f.num_inst_slots() + staging.len()));
            } else {
                break;
            }
        }
    }

    let total_slots = f.num_inst_slots() + staging.len();
    let frame = (total_slots * slot_bytes).next_multiple_of(16);
    if frame > MAX_FRAME_BYTES {
        return Err(LowerError::function(format!(
            "frame of {frame} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }

    let mut a = Asm::new();
    let block_labels: Vec<Label> = f.block_ids().map(|_| a.new_label()).collect();
    let l_epilogue = a.new_label();
    let l_trap_oob = a.new_label();
    let l_trap_div = a.new_label();
    let l_trap_fuel = a.new_label();

    let mut lw = Lower {
        f,
        a,
        slot_bytes,
        staging,
        block_labels,
        l_epilogue,
        l_trap_oob,
        l_trap_div,
        l_trap_fuel,
        frame: frame as i32,
        dump: String::new(),
        ops: 0,
        opts,
        pc: PcMap::default(),
        regs: Default::default(),
        held: vec![None; f.num_inst_slots()],
        local: block_local_values(f),
        uses: vec![0; f.num_inst_slots()],
        tick: 0,
        spilled: Vec::new(),
    };
    lw.header();
    lw.prologue();
    for (bi, b) in f.block_ids().enumerate() {
        lw.block(bi, b)?;
    }
    lw.exits();
    let ops = lw.ops;
    // `finish()` patches rel32 fixups in place and never moves or adds
    // bytes, so the offsets recorded during emission stay valid.
    let code = lw.a.finish();
    lw.pc
        .validate(code.len())
        .map_err(|e| LowerError::function(format!("internal error: PcMap broken: {e}")))?;
    lw.dump
        .push_str(&format!("end: code={}B ops={}\n", code.len(), ops));
    Ok(Lowered {
        code,
        dump: lw.dump,
        ops_lowered: ops,
        pc_map: lw.pc,
        num_blocks: f.block_ids().count(),
        instrumented: opts.instrument,
    })
}

/// Marks the values whose every use is a non-phi instruction of their
/// defining block. Parameters and phi operands are never block-local.
fn block_local_values(f: &Function) -> Vec<bool> {
    let mut def_block = vec![usize::MAX; f.num_inst_slots()];
    for (bi, b) in f.block_ids().enumerate() {
        for &id in f.block(b).insts() {
            def_block[id.index()] = bi;
        }
    }
    let mut local = vec![true; f.num_inst_slots()];
    for (bi, b) in f.block_ids().enumerate() {
        for &id in f.block(b).insts() {
            let phi = matches!(f.kind(id), InstKind::Phi { .. });
            f.kind(id).for_each_operand(|v| {
                if phi || def_block[v.index()] != bi {
                    local[v.index()] = false;
                }
            });
        }
    }
    local
}

impl<'a> Lower<'a> {
    fn slot(&self, id: InstId) -> i32 {
        (id.index() * self.slot_bytes) as i32
    }

    fn staging_slot(&self, id: InstId) -> i32 {
        let idx = self
            .staging
            .iter()
            .find(|(p, _)| *p == id)
            .map(|(_, s)| *s)
            .expect("phi has a staging slot");
        (idx * self.slot_bytes) as i32
    }

    // ---- block-local register allocation ----
    //
    // Every operand is read through `reg` (register form), `at` (slot
    // form) or `loc` (wherever the value is), and `at` writes a dirty
    // register back before any code reads the slot, so no lowering can
    // see a stale slot. All allocation for an instruction happens before
    // any branch inside it that merges again, so the compile-time
    // register state is the state on every path.

    /// Block entry: no value is in a register. Counts each value's uses
    /// in the block's non-phi instructions `body`.
    fn enter_block(&mut self, body: &[InstId]) {
        for r in 0..self.regs.len() {
            debug_assert!(!self.regs[r].dirty, "dirty value left at block end");
            if let Some(v) = self.regs[r].val {
                self.held[v.index()] = None;
            }
            self.regs[r] = RegState::default();
        }
        let f = self.f;
        for &id in body {
            f.kind(id).for_each_operand(|v| self.uses[v.index()] += 1);
        }
    }

    /// Marks `r` used by the current instruction: most recently used,
    /// and not evictable until [`Self::retire`].
    fn touch(&mut self, r: RegIdx) {
        self.tick += 1;
        self.regs[r].last = self.tick;
        self.regs[r].pinned = true;
    }

    /// Stores (`store`) or loads value `v`, held in `r`, to or from its
    /// slot, whole width: a 16-byte vector moves in one `movups`.
    fn move_home(&mut self, r: RegIdx, v: InstId, store: bool) {
        let disp = self.slot(v);
        match (reg_loc(r), self.f.ty(v)) {
            (Loc::Gpr(g), _) if store => self.a.mov_store(RSP, disp, g),
            (Loc::Gpr(g), _) => self.a.mov_load(g, RSP, disp),
            (Loc::Xmm(x), Type::Scalar(st)) if store => self.store_float(disp, st, x),
            (Loc::Xmm(x), Type::Scalar(st)) => self.load_float(x, disp, st),
            (Loc::Xmm(x), _) if store => self.a.movups_store(RSP, disp, x),
            (Loc::Xmm(x), _) => self.a.movups_load(x, RSP, disp),
            (Loc::Slot(_), _) => unreachable!("reg_loc is a register"),
        }
    }

    /// Empties `r`. A dirty value is written back first (it still has
    /// uses: dead values are freed by [`Self::retire`]), and later uses
    /// read it from its slot.
    fn evict(&mut self, r: RegIdx) {
        if let Some(v) = self.regs[r].val {
            if self.regs[r].dirty {
                self.move_home(r, v, true);
                self.spilled.push(v);
            }
            self.held[v.index()] = None;
        }
        self.regs[r] = RegState::default();
    }

    /// A free register in `class`, else the least recently used one not
    /// pinned by the current instruction, evicted.
    fn alloc(&mut self, class: std::ops::Range<RegIdx>) -> RegIdx {
        let free = class.clone().find(|&r| self.regs[r].val.is_none());
        let r = free.unwrap_or_else(|| {
            class
                .filter(|&r| !self.regs[r].pinned)
                .min_by_key(|&r| self.regs[r].last)
                .expect("an instruction pins at most three registers")
        });
        self.evict(r);
        r
    }

    /// Register form: operand `v` in a register of its class, loaded
    /// from its slot if no register holds it.
    fn reg(&mut self, v: InstId) -> RegIdx {
        let r = match self.held[v.index()] {
            Some(r) => r,
            None => {
                let class = reg_class(self.f.ty(v)).expect("operand has a register class");
                let r = self.alloc(class);
                self.move_home(r, v, false);
                self.regs[r].val = Some(v);
                self.held[v.index()] = Some(r);
                r
            }
        };
        self.touch(r);
        r
    }

    /// Slot form: operand `v`'s slot, made current first if `v` is dirty
    /// in a register. The one way an operand's slot is read.
    fn at(&mut self, v: InstId) -> i32 {
        if let Some(r) = self.held[v.index()] {
            if self.regs[r].dirty {
                self.move_home(r, v, true);
                self.regs[r].dirty = false;
            }
        }
        self.slot(v)
    }

    /// Operand `v` where it is: the register holding it, else its slot.
    fn loc(&mut self, v: InstId) -> Loc {
        match self.held[v.index()] {
            Some(r) => {
                self.touch(r);
                reg_loc(r)
            }
            None => Loc::Slot(self.at(v)),
        }
    }

    /// The register result `id` is computed into: the first of `reuse`
    /// whose value this instruction uses for the last time (its value is
    /// dropped, never written back), else a fresh one. Operands must all
    /// be read before this.
    fn def(&mut self, id: InstId, reuse: &[RegIdx]) -> RegIdx {
        let dying = reuse
            .iter()
            .copied()
            .find(|&r| self.regs[r].val.is_some_and(|v| self.uses[v.index()] == 0));
        let r = match dying {
            Some(r) => {
                let v = self.regs[r].val.expect("dying register holds a value");
                self.held[v.index()] = None;
                r
            }
            None => self.alloc(reg_class(self.f.ty(id)).expect("result has a register class")),
        };
        self.regs[r] = RegState {
            val: Some(id),
            ..RegState::default()
        };
        self.held[id.index()] = Some(r);
        self.touch(r);
        r
    }

    /// `id`'s result is in its register: a block-local value stays there,
    /// dirty; any other value is stored to its slot now.
    fn defined(&mut self, id: InstId) {
        let r = self.held[id.index()].expect("defined into a register");
        if self.local[id.index()] {
            self.regs[r].dirty = true;
        } else {
            self.move_home(r, id, true);
        }
    }

    /// Before a helper call, which clobbers every allocatable register:
    /// writes back every dirty value (all have uses left) and forgets
    /// every register.
    fn spill_all(&mut self) {
        for r in 0..self.regs.len() {
            self.evict(r);
        }
    }

    /// After `id` is lowered: unpins every register and frees those of
    /// values with no uses left in the block, `id` included.
    fn retire(&mut self, id: InstId) {
        for r in &mut self.regs {
            r.pinned = false;
        }
        let f = self.f;
        let free = |lw: &mut Self, v: InstId| {
            if lw.uses[v.index()] == 0 {
                if let Some(r) = lw.held[v.index()].take() {
                    lw.regs[r] = RegState::default();
                }
            }
        };
        f.kind(id).for_each_operand(|v| free(self, v));
        free(self, id);
    }

    fn note(&mut self, start: usize, text: &str) {
        let len = self.a.here() - start;
        self.dump
            .push_str(&format!("  {text} @{start:#06x}+{len}\n"));
    }

    fn header(&mut self) {
        let f = self.f;
        let ret = f.ret_ty();
        self.dump
            .push_str(&format!("jit `{}` isa=sse2 ret={ret}\n", f.name()));
        let params: Vec<String> = f
            .params()
            .iter()
            .map(|p| format!("{}:{}", p.name, p.ty))
            .collect();
        self.dump.push_str(&format!(
            "  params: [{}] slots={} staging={} slot_bytes={} frame_bytes={}\n",
            params.join(", "),
            f.num_inst_slots(),
            self.staging.len(),
            self.slot_bytes,
            self.frame,
        ));
    }

    fn prologue(&mut self) {
        let start = self.a.here();
        let a = &mut self.a;
        a.push_r(RBP);
        a.push_r(R12);
        a.push_r(R13);
        a.push_r(R14);
        a.push_r(R15);
        a.mov_rr(R15, RDI);
        a.mov_load(R12, R15, CTX_MEM_BASE);
        a.mov_load(R13, R15, CTX_MEM_SIZE);
        a.mov_load(R14, R15, CTX_FUEL);
        a.sub_ri(RSP, self.frame);
        for i in 0..self.f.params().len() {
            let disp = self.slot(self.f.param(i));
            let ty = self.f.params()[i].ty;
            self.a.mov_load(RAX, RSI, (8 * i) as i32);
            match ty {
                Type::Scalar(ScalarType::I32) | Type::Scalar(ScalarType::F32) => {
                    self.a.mov32_store(RSP, disp, RAX)
                }
                _ => self.a.mov_store(RSP, disp, RAX),
            }
        }
        let entry = self.block_labels[0];
        self.a.jmp(entry);
        self.stub(start, "prologue");
        self.note(start, "prologue = pin r12/r13/r14/r15, spill params");
    }

    /// Records `[start, here)` as a function-level stub range.
    fn stub(&mut self, start: usize, name: &'static str) {
        let end = self.a.here();
        self.pc
            .push(start, end, PcKind::Stub { name, block: None }, None);
    }

    fn exits(&mut self) {
        let start = self.a.here();
        let a = &mut self.a;
        a.bind(self.l_trap_oob);
        a.mov_store(R15, CTX_TRAP_ADDR, RAX);
        a.mov_ri(RAX, crate::runtime::status::OOB as u64);
        a.jmp(self.l_epilogue);
        a.bind(self.l_trap_div);
        a.mov_ri(RAX, crate::runtime::status::DIV_ZERO as u64);
        a.jmp(self.l_epilogue);
        a.bind(self.l_trap_fuel);
        a.xor_rr(R14, R14);
        a.mov_ri(RAX, crate::runtime::status::FUEL as u64);
        a.bind(self.l_epilogue);
        a.mov_store(R15, CTX_FUEL, R14);
        a.add_ri(RSP, self.frame);
        a.pop_r(R15);
        a.pop_r(R14);
        a.pop_r(R13);
        a.pop_r(R12);
        a.pop_r(RBP);
        a.ret();
        self.stub(start, "exits");
        self.note(start, "exits = oob/div0/fuel stubs, epilogue");
    }

    /// The fuel gate of the `k`-th non-phi instruction of a block. `r14`
    /// holds the fuel `F` the block started with, and every earlier gate
    /// passed, so `F >= k`; `F == k` is exactly the interpreter's "fuel
    /// is 0 before instruction `k`", and the trap lands on the same
    /// instruction after the same stores. The terminator then charges
    /// the block's `n` instructions at once, before its edge moves.
    fn fuel_gate(&mut self, k: usize, n: Option<usize>) {
        if k == 0 {
            self.a.test_rr(R14, R14);
        } else {
            self.a.cmp_ri(R14, k as i32);
        }
        self.a.jcc(Cc::E, self.l_trap_fuel);
        if let Some(n) = n {
            self.a.sub_ri(R14, n as i32);
        }
    }

    /// Frame-to-frame byte copy: 16-byte chunks through `xmm7`, then 8-
    /// and 4-byte tails through `rax`. Full-width vector copies matter:
    /// a 16-byte load spanning two narrower stores defeats store-to-load
    /// forwarding, so vector slots are always written in one piece.
    fn copy_frame(&mut self, src: i32, dst: i32, bytes: usize) {
        let mut off = 0i32;
        let mut rem = bytes;
        while rem >= 16 {
            self.a.movups_load(XMM7, RSP, src + off);
            self.a.movups_store(RSP, dst + off, XMM7);
            off += 16;
            rem -= 16;
        }
        while rem >= 8 {
            self.a.mov_load(RAX, RSP, src + off);
            self.a.mov_store(RSP, dst + off, RAX);
            off += 8;
            rem -= 8;
        }
        if rem >= 4 {
            self.a.mov32_load(RAX, RSP, src + off);
            self.a.mov32_store(RSP, dst + off, RAX);
        }
    }

    /// Gathers scalar lanes from arbitrary frame offsets `srcs` (each
    /// `esz` bytes) into a contiguous vector at `dst`, assembling whole
    /// 16-byte chunks inside xmm registers whenever the lane count
    /// allows, so the destination slot is never a patchwork of narrow
    /// stores (which would stall later packed reads).
    fn gather_lanes(&mut self, srcs: &[i32], esz: i32, dst: i32) -> Result<String, String> {
        let lanes = srcs.len();
        if esz == 8 && lanes.is_multiple_of(2) {
            for (c, pair) in srcs.chunks_exact(2).enumerate() {
                self.a.movsd_load(XMM7, RSP, pair[0]);
                self.a.movhpd_load(XMM7, RSP, pair[1]);
                self.a.movups_store(RSP, dst + c as i32 * 16, XMM7);
            }
            Ok("xmm gather".to_string())
        } else if esz == 4 && lanes.is_multiple_of(4) {
            for (c, quad) in srcs.chunks_exact(4).enumerate() {
                self.a.movss_load(XMM2, RSP, quad[0]);
                self.a.movss_load(XMM3, RSP, quad[1]);
                self.a.unpcklps(XMM2, XMM3);
                self.a.movss_load(XMM3, RSP, quad[2]);
                self.a.movss_load(XMM4, RSP, quad[3]);
                self.a.unpcklps(XMM3, XMM4);
                self.a.movlhps(XMM2, XMM3);
                self.a.movups_store(RSP, dst + c as i32 * 16, XMM2);
            }
            Ok("xmm gather".to_string())
        } else {
            for (j, &src) in srcs.iter().enumerate() {
                self.copy_frame(src, dst + j as i32 * esz, esz as usize);
            }
            Ok("lane moves".to_string())
        }
    }

    /// Integer operand load in canonical widened form.
    fn load_int(&mut self, r: Gpr, disp: i32, st: ScalarType) {
        match st {
            ScalarType::I32 => self.a.movsxd_load(r, RSP, disp),
            _ => self.a.mov_load(r, RSP, disp),
        }
    }

    /// Integer result store (truncating for `i32`).
    fn store_int(&mut self, disp: i32, st: ScalarType) {
        match st {
            ScalarType::I32 => self.a.mov32_store(RSP, disp, RAX),
            _ => self.a.mov_store(RSP, disp, RAX),
        }
    }

    fn load_float(&mut self, x: Xmm, disp: i32, st: ScalarType) {
        match st {
            ScalarType::F32 => self.a.movss_load(x, RSP, disp),
            _ => self.a.movsd_load(x, RSP, disp),
        }
    }

    fn store_float(&mut self, disp: i32, st: ScalarType, x: Xmm) {
        match st {
            ScalarType::F32 => self.a.movss_store(RSP, disp, x),
            _ => self.a.movsd_store(RSP, disp, x),
        }
    }

    /// Bounds-checks `[ptr, ptr + len)` against the null page and the
    /// guest size, leaving the *host* address in `rax`. Traps with the
    /// guest address still in `rax`.
    fn check_and_host_addr(&mut self, ptr: InstId, len: u64) {
        match self.loc(ptr) {
            Loc::Gpr(g) => self.a.mov_rr(RAX, g),
            Loc::Slot(disp) => self.a.mov_load(RAX, RSP, disp),
            Loc::Xmm(_) => unreachable!("pointers live in GPRs"),
        }
        self.a.cmp_ri(RAX, NULL_PAGE);
        self.a.jcc(Cc::B, self.l_trap_oob);
        self.a.mov_rr(RCX, R13);
        self.a.mov_ri(RDX, len);
        self.a.sub_rr(RCX, RDX);
        self.a.jcc(Cc::B, self.l_trap_oob); // len > mem_size
        self.a.cmp_rr(RAX, RCX);
        self.a.jcc(Cc::A, self.l_trap_oob); // addr > mem_size - len
        self.a.add_rr(RAX, R12);
    }

    /// Guest-to-frame copy; host source address in `rax`. Vector-width
    /// chunks go through `xmm7` so the slot is written in one 16-byte
    /// store (see [`Self::copy_frame`] on why that matters).
    fn copy_mem_to_frame(&mut self, dst: i32, bytes: usize) {
        let mut off = 0i32;
        let mut rem = bytes;
        while rem >= 16 {
            self.a.movups_load(XMM7, RAX, off);
            self.a.movups_store(RSP, dst + off, XMM7);
            off += 16;
            rem -= 16;
        }
        while rem >= 8 {
            self.a.mov_load(RCX, RAX, off);
            self.a.mov_store(RSP, dst + off, RCX);
            off += 8;
            rem -= 8;
        }
        if rem >= 4 {
            self.a.mov32_load(RCX, RAX, off);
            self.a.mov32_store(RSP, dst + off, RCX);
        }
    }

    /// Frame-to-guest copy; host destination address in `rax`.
    fn copy_frame_to_mem(&mut self, src: i32, bytes: usize) {
        let mut off = 0i32;
        let mut rem = bytes;
        while rem >= 16 {
            self.a.movups_load(XMM7, RSP, src + off);
            self.a.movups_store(RAX, off, XMM7);
            off += 16;
            rem -= 16;
        }
        while rem >= 8 {
            self.a.mov_load(RCX, RSP, src + off);
            self.a.mov_store(RAX, off, RCX);
            off += 8;
            rem -= 8;
        }
        if rem >= 4 {
            self.a.mov32_load(RCX, RSP, src + off);
            self.a.mov32_store(RAX, off, RCX);
        }
    }

    fn int_binop(
        &mut self,
        op: BinOp,
        st: ScalarType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<(), String> {
        self.load_int(RAX, ad, st);
        self.load_int(RCX, bd, st);
        match op {
            BinOp::Add => self.a.add_rr(RAX, RCX),
            BinOp::Sub => self.a.sub_rr(RAX, RCX),
            BinOp::Mul => self.a.imul_rr(RAX, RCX),
            BinOp::And => self.a.and_rr(RAX, RCX),
            BinOp::Or => self.a.or_rr(RAX, RCX),
            BinOp::Xor => self.a.xor_rr(RAX, RCX),
            BinOp::Shl => self.a.shl_cl(RAX),
            BinOp::Shr => self.a.sar_cl(RAX),
            BinOp::Min => {
                self.a.cmp_rr(RAX, RCX);
                self.a.cmov(Cc::G, RAX, RCX);
            }
            BinOp::Max => {
                self.a.cmp_rr(RAX, RCX);
                self.a.cmov(Cc::L, RAX, RCX);
            }
            BinOp::Div | BinOp::Rem => {
                let rem = op == BinOp::Rem;
                self.a.test_rr(RCX, RCX);
                self.a.jcc(Cc::E, self.l_trap_div);
                let special = self.a.new_label();
                let done = self.a.new_label();
                self.a.cmp_ri(RCX, -1);
                self.a.jcc(Cc::E, special);
                self.a.cqo();
                self.a.idiv_r(RCX);
                if rem {
                    self.a.mov_rr(RAX, RDX);
                }
                self.a.jmp(done);
                self.a.bind(special);
                // x / -1 wraps to -x; x % -1 is 0 (avoids the idiv #DE on
                // MIN / -1, matching wrapping_div/wrapping_rem).
                if rem {
                    self.a.xor_rr(RAX, RAX);
                } else {
                    self.a.neg_r(RAX);
                }
                self.a.bind(done);
            }
        }
        self.store_int(dst, st);
        Ok(())
    }

    fn float_binop(
        &mut self,
        op: BinOp,
        st: ScalarType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<(), String> {
        let prefix: &[u8] = if st == ScalarType::F32 {
            &[0xF3]
        } else {
            &[0xF2]
        };
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let opc = sse_arith(op).expect("arithmetic op");
                self.load_float(XMM0, ad, st);
                self.a.sse_rm(prefix, opc, XMM0, RSP, bd);
                self.store_float(dst, st, XMM0);
            }
            BinOp::Min | BinOp::Max | BinOp::Rem => {
                let addr = match (op, st) {
                    (BinOp::Min, ScalarType::F32) => helpers::fmin32 as *const () as usize,
                    (BinOp::Max, ScalarType::F32) => helpers::fmax32 as *const () as usize,
                    (BinOp::Rem, ScalarType::F32) => helpers::frem32 as *const () as usize,
                    (BinOp::Min, _) => helpers::fmin64 as *const () as usize,
                    (BinOp::Max, _) => helpers::fmax64 as *const () as usize,
                    (BinOp::Rem, _) => helpers::frem64 as *const () as usize,
                    _ => unreachable!("outer match covers min/max/rem only"),
                };
                self.load_float(XMM0, ad, st);
                self.load_float(XMM1, bd, st);
                self.spill_all();
                self.a.mov_ri(RAX, addr as u64);
                self.a.call_r(RAX);
                self.store_float(dst, st, XMM0);
            }
            op => return Err(format!("float operands for integer-only op {op}")),
        }
        Ok(())
    }

    /// Register forms of scalar `i64` add/sub/mul, scalar float
    /// add/sub/mul/div and 16-byte packed `binary` ops, returning the dump
    /// strategy; `None`, with nothing emitted, for every other binop.
    fn binop_in_regs(
        &mut self,
        id: InstId,
        op: BinOp,
        lhs: InstId,
        rhs: InstId,
    ) -> Option<&'static str> {
        let strategy = match self.f.ty(id) {
            Type::Scalar(ScalarType::I64) if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) => {
                let (a, b) = (self.reg(lhs), self.reg(rhs));
                // `sub` is not commutative: only its lhs register is reusable.
                let d = self.def(id, &[a, if op == BinOp::Sub { a } else { b }]);
                self.int_op2(op, gpr(d), gpr(a), gpr(b));
                "scalar"
            }
            Type::Scalar(st) if st.is_float() => {
                let opc = sse_arith(op)?;
                let prefix: &[u8] = if st == ScalarType::F32 {
                    &[0xF3]
                } else {
                    &[0xF2]
                };
                let a = self.reg(lhs);
                let b = self.loc(rhs);
                let d = self.def(id, &[a]);
                if d != a {
                    self.a.movaps(xmm(d), xmm(a));
                }
                match b {
                    Loc::Xmm(x) => self.a.sse_rr(prefix, opc, xmm(d), x),
                    Loc::Slot(disp) => self.a.sse_rm(prefix, opc, xmm(d), RSP, disp),
                    Loc::Gpr(_) => unreachable!("floats live in xmm registers"),
                }
                "scalar"
            }
            Type::Vector(vt) if vt.size_bytes() == 16 => {
                let (prefix, opc) = packed_binop(op, vt.elem)?;
                let (a, b) = (self.reg(lhs), self.reg(rhs));
                let d = self.def(id, &[a]);
                if d != a {
                    self.a.movaps(xmm(d), xmm(a));
                }
                self.a.sse_rr(prefix, opc, xmm(d), xmm(b));
                "packed x1"
            }
            _ => return None,
        };
        self.defined(id);
        Some(strategy)
    }

    /// `d = a op b` for `add`, `sub` or `mul`, where `d` is `a`, or `b`
    /// for a commutative op, or neither.
    fn int_op2(&mut self, op: BinOp, d: Gpr, a: Gpr, b: Gpr) {
        let (a, b) = if d == b && d != a { (b, a) } else { (a, b) };
        debug_assert!(op != BinOp::Sub || d == a || d != b);
        if d != a {
            self.a.mov_rr(d, a);
        }
        match op {
            BinOp::Add => self.a.add_rr(d, b),
            BinOp::Sub => self.a.sub_rr(d, b),
            _ => self.a.imul_rr(d, b),
        }
    }

    fn scalar_binop(
        &mut self,
        op: BinOp,
        st: ScalarType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<(), String> {
        if st.is_float() {
            self.float_binop(op, st, ad, bd, dst)
        } else {
            self.int_binop(op, st, ad, bd, dst)
        }
    }

    /// Scalar compare producing a 4-byte 0/1 at `dst`.
    fn scalar_cmp(
        &mut self,
        pred: CmpPred,
        ty: Type,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<(), String> {
        match ty {
            Type::Scalar(st) if st.is_float() => {
                // `ucomi` + unsigned conditions; unordered (NaN) yields
                // false for everything except `ne`.
                self.load_float(XMM0, ad, st);
                self.load_float(XMM1, bd, st);
                let ucomi = |lw: &mut Self, x: Xmm, y: Xmm| match st {
                    ScalarType::F32 => lw.a.ucomiss(x, y),
                    _ => lw.a.ucomisd(x, y),
                };
                match pred {
                    CmpPred::Eq | CmpPred::Ne => {
                        ucomi(self, XMM0, XMM1);
                        if pred == CmpPred::Eq {
                            self.a.setcc(Cc::E, RAX);
                            self.a.setcc(Cc::Np, RCX);
                            self.a.movzx_rb(RAX, RAX);
                            self.a.movzx_rb(RCX, RCX);
                            self.a.and_rr(RAX, RCX);
                        } else {
                            self.a.setcc(Cc::Ne, RAX);
                            self.a.setcc(Cc::P, RCX);
                            self.a.movzx_rb(RAX, RAX);
                            self.a.movzx_rb(RCX, RCX);
                            self.a.or_rr(RAX, RCX);
                        }
                    }
                    CmpPred::Lt | CmpPred::Le => {
                        ucomi(self, XMM1, XMM0);
                        self.a
                            .setcc(if pred == CmpPred::Lt { Cc::A } else { Cc::Ae }, RAX);
                        self.a.movzx_rb(RAX, RAX);
                    }
                    CmpPred::Gt | CmpPred::Ge => {
                        ucomi(self, XMM0, XMM1);
                        self.a
                            .setcc(if pred == CmpPred::Gt { Cc::A } else { Cc::Ae }, RAX);
                        self.a.movzx_rb(RAX, RAX);
                    }
                }
            }
            Type::Scalar(st) => {
                self.load_int(RAX, ad, st);
                self.load_int(RCX, bd, st);
                self.a.cmp_rr(RAX, RCX);
                let cc = match pred {
                    CmpPred::Eq => Cc::E,
                    CmpPred::Ne => Cc::Ne,
                    CmpPred::Lt => Cc::L,
                    CmpPred::Le => Cc::Le,
                    CmpPred::Gt => Cc::G,
                    CmpPred::Ge => Cc::Ge,
                };
                self.a.setcc(cc, RAX);
                self.a.movzx_rb(RAX, RAX);
            }
            Type::Ptr => {
                self.a.mov_load(RAX, RSP, ad);
                self.a.mov_load(RCX, RSP, bd);
                self.a.cmp_rr(RAX, RCX);
                let cc = match pred {
                    CmpPred::Eq => Cc::E,
                    CmpPred::Ne => Cc::Ne,
                    CmpPred::Lt => Cc::B,
                    CmpPred::Le => Cc::Be,
                    CmpPred::Gt => Cc::A,
                    CmpPred::Ge => Cc::Ae,
                };
                self.a.setcc(cc, RAX);
                self.a.movzx_rb(RAX, RAX);
            }
            ty => return Err(format!("cmp on operands of type {ty}")),
        }
        self.a.mov32_store(RSP, dst, RAX);
        Ok(())
    }

    fn scalar_unop(&mut self, op: UnOp, st: ScalarType, src: i32, dst: i32) -> Result<(), String> {
        if st.is_float() {
            let logic_prefix: &[u8] = if st == ScalarType::F32 { &[] } else { &[0x66] };
            match op {
                UnOp::Neg | UnOp::Abs => {
                    let (mask, opc) = match op {
                        UnOp::Neg if st == ScalarType::F32 => (0x8000_0000u64, 0x57),
                        UnOp::Neg => (0x8000_0000_0000_0000u64, 0x57),
                        _ if st == ScalarType::F32 => (0x7FFF_FFFFu64, 0x54),
                        _ => (0x7FFF_FFFF_FFFF_FFFFu64, 0x54),
                    };
                    self.load_float(XMM0, src, st);
                    self.a.mov_ri(RAX, mask);
                    if st == ScalarType::F32 {
                        self.a.movd_xr(XMM1, RAX);
                    } else {
                        self.a.movq_xr(XMM1, RAX);
                    }
                    self.a.sse_rr(logic_prefix, opc, XMM0, XMM1);
                    self.store_float(dst, st, XMM0);
                }
                UnOp::Sqrt => {
                    let prefix: &[u8] = if st == ScalarType::F32 {
                        &[0xF3]
                    } else {
                        &[0xF2]
                    };
                    self.load_float(XMM0, src, st);
                    self.a.sse_rr(prefix, 0x51, XMM0, XMM0);
                    self.store_float(dst, st, XMM0);
                }
                UnOp::Not => return Err("not on float".into()),
            }
        } else {
            self.load_int(RAX, src, st);
            match op {
                UnOp::Neg => self.a.neg_r(RAX),
                UnOp::Not => self.a.not_r(RAX),
                UnOp::Abs => {
                    self.a.mov_rr(RCX, RAX);
                    self.a.neg_r(RCX);
                    self.a.test_rr(RAX, RAX);
                    self.a.cmov(Cc::S, RAX, RCX);
                }
                UnOp::Sqrt => return Err("sqrt on integer".into()),
            }
            self.store_int(dst, st);
        }
        Ok(())
    }

    fn scalar_cast(
        &mut self,
        kind: CastKind,
        from: ScalarType,
        to: ScalarType,
        src: i32,
        dst: i32,
    ) -> Result<(), String> {
        match kind {
            CastKind::Sitofp => {
                // Through f64 in both cases, mirroring the interpreter's
                // `f64::from(i32)` / `i64 as f64` then optional narrow.
                self.load_int(RAX, src, from);
                self.a.cvtsi2sd(XMM0, RAX);
                if to == ScalarType::F32 {
                    self.a.cvtsd2ss(XMM0, XMM0);
                }
                self.store_float(dst, to, XMM0);
            }
            CastKind::Fpext => {
                self.a.movss_load(XMM0, RSP, src);
                self.a.cvtss2sd(XMM0, XMM0);
                self.a.movsd_store(RSP, dst, XMM0);
            }
            CastKind::Fptrunc => {
                self.a.movsd_load(XMM0, RSP, src);
                self.a.cvtsd2ss(XMM0, XMM0);
                self.a.movss_store(RSP, dst, XMM0);
            }
            CastKind::Sext => {
                self.a.movsxd_load(RAX, RSP, src);
                self.a.mov_store(RSP, dst, RAX);
            }
            CastKind::Trunc => {
                self.a.mov32_load(RAX, RSP, src);
                self.a.mov32_store(RSP, dst, RAX);
            }
            CastKind::Fptosi => {
                return Err("fptosi saturates per Rust `as`; interpreter only".into());
            }
        }
        Ok(())
    }

    /// Phi parallel-copy for the edge `from -> to`.
    fn edge_moves(&mut self, from: BlockId, to: BlockId) -> Result<usize, String> {
        let f = self.f;
        let mut moves: Vec<(InstId, InstId)> = Vec::new();
        for &id in f.block(to).insts() {
            match f.kind(id) {
                InstKind::Phi { incoming } => {
                    let (_, src) = incoming
                        .iter()
                        .find(|(b, _)| *b == from)
                        .ok_or_else(|| format!("phi {id} has no edge from {from}"))?;
                    moves.push((id, *src));
                }
                _ => break,
            }
        }
        // Phi operands are never block-local, so they are never dirty and
        // `at` emits nothing here, after a branch has split the paths.
        for &(phi, src) in &moves {
            let bytes = f.ty(phi).size_bytes() as usize;
            let (s, d) = (self.at(src), self.staging_slot(phi));
            self.copy_frame(s, d, bytes);
        }
        for &(phi, _) in &moves {
            let bytes = f.ty(phi).size_bytes() as usize;
            let (s, d) = (self.staging_slot(phi), self.slot(phi));
            self.copy_frame(s, d, bytes);
        }
        Ok(moves.len())
    }

    fn block(&mut self, bi: usize, b: BlockId) -> Result<(), LowerError> {
        let f = self.f;
        self.a.bind(self.block_labels[bi]);
        self.dump.push_str(&format!("{}:\n", f.block(b).name));
        if self.opts.instrument {
            // Bump the per-block execution counter through the context's
            // `hot_counts` pointer. All values live in stack slots at
            // block boundaries, so `rax` is dead here.
            let start = self.a.here();
            self.a.mov_load(RAX, R15, CTX_HOT);
            self.a.inc_mem(RAX, (bi * 8) as i32);
            let end = self.a.here();
            self.pc.push(
                start,
                end,
                PcKind::Stub {
                    name: "hot-counter",
                    block: Some(bi as u32),
                },
                None,
            );
            self.note(start, "hot = inc block counter");
        }
        let body: Vec<InstId> = f
            .block(b)
            .insts()
            .iter()
            .copied()
            .filter(|&id| !matches!(f.kind(id), InstKind::Phi { .. }))
            .collect();
        self.enter_block(&body);
        for (k, &id) in body.iter().enumerate() {
            let kind = f.kind(id);
            let start = self.a.here();
            self.fuel_gate(k, kind.is_terminator().then_some(body.len()));
            self.ops += 1;
            kind.for_each_operand(|v| self.uses[v.index()] -= 1);
            let mut text = self
                .lower_inst(b, id)
                .map_err(|e| LowerError::at(id, kind, e))?;
            self.retire(id);
            if !self.spilled.is_empty() {
                let spilled: Vec<String> = self
                    .spilled
                    .iter()
                    .map(|v| format!("%{}", v.index()))
                    .collect();
                text.push_str(&format!(" [spill {}]", spilled.join(" ")));
                self.spilled.clear();
            }
            let end = self.a.here();
            self.pc.push(
                start,
                end,
                PcKind::Inst {
                    inst: id.index() as u32,
                    class: classify(kind),
                    block: bi as u32,
                },
                self.opts.decisions.get(&(id.index() as u32)).cloned(),
            );
            self.note(start, &text);
        }
        // A verifier-clean block ends in a terminator, so this is only
        // reachable for malformed IR; the interpreter errors there too.
        let last = f.block(b).insts().last().copied();
        let terminated = last.is_some_and(|id| {
            matches!(
                f.kind(id),
                InstKind::Jump { .. } | InstKind::Branch { .. } | InstKind::Ret { .. }
            )
        });
        if !terminated {
            return Err(LowerError::function(format!(
                "block {} falls through without a terminator",
                f.block(b).name
            )));
        }
        Ok(())
    }

    fn lower_inst(&mut self, b: BlockId, id: InstId) -> Result<String, String> {
        let f = self.f;
        let kind = f.kind(id);
        let dst = self.slot(id);
        let text = match kind {
            InstKind::Param(_) | InstKind::Phi { .. } => unreachable!(),
            InstKind::Const(Constant::I64(v)) => {
                let d = self.def(id, &[]);
                self.a.mov_ri(gpr(d), *v as u64);
                self.defined(id);
                format!("%{} const {} = mov-imm", id.index(), f.ty(id))
            }
            InstKind::Const(c) => {
                match *c {
                    Constant::I32(v) => {
                        self.a.mov_ri(RAX, v as u32 as u64);
                        self.a.mov32_store(RSP, dst, RAX);
                    }
                    Constant::I64(_) => unreachable!("lowered into a register above"),
                    Constant::F32(v) => {
                        self.a.mov_ri(RAX, u64::from(v.to_bits()));
                        self.a.mov32_store(RSP, dst, RAX);
                    }
                    Constant::F64(v) => {
                        self.a.mov_ri(RAX, v.to_bits());
                        self.a.mov_store(RSP, dst, RAX);
                    }
                }
                format!("%{} const {} = mov-imm", id.index(), f.ty(id))
            }
            InstKind::Binary { op, lhs, rhs } => {
                if let Some(strategy) = self.binop_in_regs(id, *op, *lhs, *rhs) {
                    return Ok(format!(
                        "%{} binary.{op} {} = {strategy}",
                        id.index(),
                        f.ty(id)
                    ));
                }
                let (ad, bd) = (self.at(*lhs), self.at(*rhs));
                match f.ty(id) {
                    Type::Scalar(st) => {
                        self.scalar_binop(*op, st, ad, bd, dst)?;
                        format!("%{} binary.{op} {} = scalar", id.index(), f.ty(id))
                    }
                    Type::Vector(vt) => {
                        let strategy = self.vector_binop_uniform(*op, vt, ad, bd, dst)?;
                        format!("%{} binary.{op} {} = {strategy}", id.index(), f.ty(id))
                    }
                    ty => return Err(format!("binary op on {ty}")),
                }
            }
            InstKind::BinaryLanewise { ops, lhs, rhs } => {
                let vt = f
                    .ty(id)
                    .as_vector()
                    .ok_or_else(|| "lanewise op on non-vector".to_string())?;
                let (ad, bd) = (self.at(*lhs), self.at(*rhs));
                let text = self.vector_binop_lanewise(ops, vt, ad, bd, dst)?;
                format!(
                    "%{} lanewise[{}] {} = {text}",
                    id.index(),
                    ops.len(),
                    f.ty(id)
                )
            }
            InstKind::Unary { op, operand } => {
                let src = self.at(*operand);
                match f.ty(id) {
                    Type::Scalar(st) => {
                        self.scalar_unop(*op, st, src, dst)?;
                        format!("%{} unary.{op} {} = scalar", id.index(), f.ty(id))
                    }
                    Type::Vector(vt) => {
                        let esz = vt.elem.size_bytes() as i32;
                        for i in 0..i32::from(vt.lanes) {
                            self.scalar_unop(*op, vt.elem, src + i * esz, dst + i * esz)?;
                        }
                        format!("%{} unary.{op} {} = per-lane", id.index(), f.ty(id))
                    }
                    ty => return Err(format!("unary op on {ty}")),
                }
            }
            InstKind::Cast { kind, operand } => {
                let src = self.at(*operand);
                let from_ty = f.ty(*operand);
                let to_ty = f.ty(id);
                match (from_ty, to_ty) {
                    (Type::Scalar(fs), Type::Scalar(ts)) => {
                        self.scalar_cast(*kind, fs, ts, src, dst)?;
                        format!("%{} cast.{kind} {from_ty}->{to_ty} = scalar", id.index())
                    }
                    (Type::Vector(fv), Type::Vector(tv)) => {
                        let strategy = self.vector_cast(*kind, fv, tv, src, dst)?;
                        format!(
                            "%{} cast.{kind} {from_ty}->{to_ty} = {strategy}",
                            id.index()
                        )
                    }
                    _ => return Err(format!("cast {kind} between {from_ty} and {to_ty}")),
                }
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                let (ad, bd) = (self.at(*lhs), self.at(*rhs));
                let in_ty = f.ty(*lhs);
                match in_ty {
                    Type::Vector(vt) => {
                        let strategy = self.vector_cmp(*pred, vt, ad, bd, dst)?;
                        format!("%{} cmp.{pred} {in_ty} = {strategy}", id.index())
                    }
                    _ => {
                        self.scalar_cmp(*pred, in_ty, ad, bd, dst)?;
                        format!("%{} cmp.{pred} {in_ty} = scalar", id.index())
                    }
                }
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                let bytes = f.ty(id).size_bytes() as usize;
                let (td, ed) = (self.at(*on_true), self.at(*on_false));
                let md = self.at(*cond);
                match f.ty(*cond) {
                    Type::Vector(mv) => {
                        let vt = f
                            .ty(id)
                            .as_vector()
                            .ok_or_else(|| "vector-mask select of scalar".to_string())?;
                        let strategy = self.vector_select(mv, vt, md, td, ed, dst)?;
                        format!("%{} select {} = {strategy}", id.index(), f.ty(id))
                    }
                    Type::Scalar(ScalarType::I32) | Type::Scalar(ScalarType::I64) => {
                        match f.ty(*cond) {
                            Type::Scalar(ScalarType::I32) => self.a.mov32_load(RCX, RSP, md),
                            _ => self.a.mov_load(RCX, RSP, md),
                        }
                        self.a.test_rr(RCX, RCX);
                        let l_else = self.a.new_label();
                        let l_end = self.a.new_label();
                        self.a.jcc(Cc::E, l_else);
                        self.copy_frame(td, dst, bytes);
                        self.a.jmp(l_end);
                        self.a.bind(l_else);
                        self.copy_frame(ed, dst, bytes);
                        self.a.bind(l_end);
                        format!("%{} select {} = branchy", id.index(), f.ty(id))
                    }
                    ty => return Err(format!("select condition of type {ty}")),
                }
            }
            InstKind::Load { ptr } => {
                let ty = f.ty(id);
                let bytes = ty.size_bytes() as usize;
                self.check_and_host_addr(*ptr, bytes as u64);
                if reg_class(ty).is_some() {
                    let d = self.def(id, &[]);
                    match (reg_loc(d), ty) {
                        (Loc::Gpr(g), _) => self.a.mov_load(g, RAX, 0),
                        (Loc::Xmm(x), Type::Scalar(ScalarType::F32)) => {
                            self.a.movss_load(x, RAX, 0)
                        }
                        (Loc::Xmm(x), Type::Scalar(_)) => self.a.movsd_load(x, RAX, 0),
                        (Loc::Xmm(x), _) => self.a.movups_load(x, RAX, 0),
                        (Loc::Slot(_), _) => unreachable!("def is a register"),
                    }
                    self.defined(id);
                } else {
                    self.copy_mem_to_frame(dst, bytes);
                }
                format!("%{} load {ty} = checked copy {bytes}B", id.index())
            }
            InstKind::Store { ptr, value } => {
                let ty = f.ty(*value);
                let bytes = ty.size_bytes() as usize;
                self.check_and_host_addr(*ptr, bytes as u64);
                match (self.loc(*value), ty) {
                    (Loc::Gpr(g), _) => self.a.mov_store(RAX, 0, g),
                    (Loc::Xmm(x), Type::Scalar(ScalarType::F32)) => self.a.movss_store(RAX, 0, x),
                    (Loc::Xmm(x), Type::Scalar(_)) => self.a.movsd_store(RAX, 0, x),
                    (Loc::Xmm(x), _) => self.a.movups_store(RAX, 0, x),
                    (Loc::Slot(src), _) => self.copy_frame_to_mem(src, bytes),
                }
                format!("store {ty} = checked copy {bytes}B")
            }
            InstKind::PtrAdd { ptr, offset } => {
                let p = self.reg(*ptr);
                let (o, reuse) = if f.ty(*offset) == Type::Scalar(ScalarType::I64) {
                    let o = self.reg(*offset);
                    (gpr(o), [p, o])
                } else {
                    let od = self.at(*offset);
                    self.a.movsxd_load(RCX, RSP, od);
                    (RCX, [p, p])
                };
                let d = self.def(id, &reuse);
                self.int_op2(BinOp::Add, gpr(d), gpr(p), o);
                self.defined(id);
                format!("%{} ptradd = add64", id.index())
            }
            InstKind::Splat { value, lanes } => {
                let st = f
                    .ty(*value)
                    .as_scalar()
                    .ok_or_else(|| "splat of non-scalar".to_string())?;
                let esz = st.size_bytes() as i32;
                let total = i32::from(*lanes) * esz;
                if total == 16 {
                    // pshufd: dword 0 to every lane, or qword 0 to both.
                    let imm = if esz == 4 { 0x00 } else { 0x44 };
                    // A float source is read in its register, an integer
                    // one through its slot.
                    if st.is_float() {
                        let s = self.reg(*value);
                        let d = self.def(id, &[s]);
                        self.a.pshufd(xmm(d), xmm(s), imm);
                    } else {
                        let src = self.at(*value);
                        let d = self.def(id, &[]);
                        self.load_float(xmm(d), src, lane_float(esz));
                        self.a.pshufd(xmm(d), xmm(d), imm);
                    }
                    self.defined(id);
                    return Ok(format!("%{} splat x{lanes} = broadcast packed", id.index()));
                }
                let src = self.at(*value);
                if total % 16 == 0 {
                    // Duplicate inside xmm7 and write whole 16-byte
                    // chunks: downstream packed reads must not find
                    // the slot assembled from narrow stores.
                    self.load_float(XMM7, src, lane_float(esz));
                    if esz == 4 {
                        self.a.pshufd(XMM7, XMM7, 0x00);
                    } else {
                        self.a.unpcklpd(XMM7, XMM7);
                    }
                    let mut off = 0i32;
                    while off < total {
                        self.a.movups_store(RSP, dst + off, XMM7);
                        off += 16;
                    }
                    format!("%{} splat x{lanes} = broadcast packed", id.index())
                } else {
                    if esz == 4 {
                        self.a.mov32_load(RAX, RSP, src);
                    } else {
                        self.a.mov_load(RAX, RSP, src);
                    }
                    for i in 0..i32::from(*lanes) {
                        if esz == 4 {
                            self.a.mov32_store(RSP, dst + i * esz, RAX);
                        } else {
                            self.a.mov_store(RSP, dst + i * esz, RAX);
                        }
                    }
                    format!("%{} splat x{lanes} = broadcast", id.index())
                }
            }
            InstKind::BuildVector { elems } => {
                let mut esz = 0i32;
                for e in elems {
                    let st = f
                        .ty(*e)
                        .as_scalar()
                        .ok_or_else(|| "build-vector of non-scalar".to_string())?;
                    esz = st.size_bytes() as i32;
                }
                let srcs: Vec<i32> = elems.iter().map(|e| self.at(*e)).collect();
                let text = self.gather_lanes(&srcs, esz, dst)?;
                format!("%{} build-vector x{} = {text}", id.index(), elems.len())
            }
            InstKind::ExtractElement { vector, lane } => {
                let vt = f
                    .ty(*vector)
                    .as_vector()
                    .ok_or_else(|| "extract from non-vector".to_string())?;
                if *lane >= vt.lanes {
                    return Err("extract lane out of range".into());
                }
                let esz = vt.elem.size_bytes() as i32;
                let src = self.at(*vector);
                self.copy_frame(src + i32::from(*lane) * esz, dst, esz as usize);
                format!("%{} extract lane {lane} = slot copy", id.index())
            }
            InstKind::InsertElement {
                vector,
                value,
                lane,
            } => {
                let vt = f
                    .ty(*vector)
                    .as_vector()
                    .ok_or_else(|| "insert into non-vector".to_string())?;
                if *lane >= vt.lanes {
                    return Err("insert lane out of range".into());
                }
                let esz = vt.elem.size_bytes() as i32;
                let (vd, sd) = (self.at(*vector), self.at(*value));
                if esz == 8 && vt.lanes == 2 {
                    // Patch inside xmm7 and store once, keeping the
                    // destination a single 16-byte write.
                    self.a.movups_load(XMM7, RSP, vd);
                    if *lane == 0 {
                        self.a.movlpd_load(XMM7, RSP, sd);
                    } else {
                        self.a.movhpd_load(XMM7, RSP, sd);
                    }
                    self.a.movups_store(RSP, dst, XMM7);
                    format!("%{} insert lane {lane} = xmm patch", id.index())
                } else {
                    self.copy_frame(vd, dst, vt.size_bytes() as usize);
                    self.copy_frame(sd, dst + i32::from(*lane) * esz, esz as usize);
                    format!("%{} insert lane {lane} = copy+patch", id.index())
                }
            }
            InstKind::Shuffle { a, b, mask } => {
                let va = f
                    .ty(*a)
                    .as_vector()
                    .ok_or_else(|| "shuffle of non-vector".to_string())?;
                let vb = f
                    .ty(*b)
                    .as_vector()
                    .ok_or_else(|| "shuffle of non-vector".to_string())?;
                let esz = va.elem.size_bytes() as i32;
                let n = i32::from(va.lanes);
                let (sa, sb) = (self.at(*a), self.at(*b));
                let mut srcs = Vec::with_capacity(mask.len());
                for &m in mask {
                    let m = i32::from(m);
                    srcs.push(if m < n {
                        sa + m * esz
                    } else if m - n < i32::from(vb.lanes) {
                        sb + (m - n) * esz
                    } else {
                        return Err("shuffle index out of range".into());
                    });
                }
                let text = self.gather_lanes(&srcs, esz, dst)?;
                format!("%{} shuffle x{} = {text}", id.index(), mask.len())
            }
            InstKind::Jump { target } => {
                let moves = self.edge_moves(b, *target)?;
                let ti = self.block_index(*target);
                self.a.jmp(self.block_labels[ti]);
                format!("jump {} [{moves} phi moves]", f.block(*target).name)
            }
            InstKind::Branch {
                cond,
                on_true,
                on_false,
            } => {
                let cd = self.at(*cond);
                match f.ty(*cond) {
                    Type::Scalar(ScalarType::I32) => self.a.mov32_load(RCX, RSP, cd),
                    Type::Scalar(ScalarType::I64) => self.a.mov_load(RCX, RSP, cd),
                    ty => return Err(format!("branch condition of type {ty}")),
                }
                self.a.test_rr(RCX, RCX);
                let l_false = self.a.new_label();
                self.a.jcc(Cc::E, l_false);
                let mt = self.edge_moves(b, *on_true)?;
                let ti = self.block_index(*on_true);
                self.a.jmp(self.block_labels[ti]);
                self.a.bind(l_false);
                let mf = self.edge_moves(b, *on_false)?;
                let fi = self.block_index(*on_false);
                self.a.jmp(self.block_labels[fi]);
                format!(
                    "branch {}/{} [{mt}/{mf} phi moves]",
                    f.block(*on_true).name,
                    f.block(*on_false).name
                )
            }
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    let bytes = f.ty(*v).size_bytes() as usize;
                    let src = self.at(*v);
                    let mut off = 0i32;
                    let mut rem = bytes;
                    while rem >= 8 {
                        self.a.mov_load(RCX, RSP, src + off);
                        self.a.mov_store(R15, CTX_RET + off, RCX);
                        off += 8;
                        rem -= 8;
                    }
                    if rem >= 4 {
                        self.a.mov32_load(RCX, RSP, src + off);
                        self.a.mov32_store(R15, CTX_RET + off, RCX);
                    }
                }
                self.a.xor_rr(RAX, RAX);
                self.a.jmp(self.l_epilogue);
                "ret = status ok".to_string()
            }
        };
        Ok(text)
    }

    /// Per-lane mixed-operator vector op — the committed super-node
    /// instruction SN-SLP exists for. Float add/sub/mul/div lanes are
    /// computed with scalar SSE (bit-identical to the interpreter's
    /// per-lane semantics) but accumulated in xmm registers and written
    /// as whole 16-byte chunks, so a downstream packed consumer never
    /// reloads a slot assembled from narrow stores. Uniform-operator
    /// vectors, integer ones included, delegate to
    /// [`Self::vector_binop_uniform`]; mixed integer lanes, min/max/rem
    /// lanes and odd widths stay per-lane scalar.
    fn vector_binop_lanewise(
        &mut self,
        ops: &[BinOp],
        vt: VectorType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<String, String> {
        if let [first, rest @ ..] = ops {
            if rest.iter().all(|o| o == first) {
                let text = self.vector_binop_uniform(*first, vt, ad, bd, dst)?;
                return Ok(format!("uniform {text}"));
            }
        }
        let esz = vt.elem.size_bytes() as i32;
        let fast = vt.elem.is_float()
            && ops.iter().all(|&o| sse_arith(o).is_some())
            && ((esz == 8 && ops.len().is_multiple_of(2))
                || (esz == 4 && ops.len().is_multiple_of(4)));
        if !fast {
            for (i, &op) in ops.iter().enumerate() {
                let o = i as i32 * esz;
                self.scalar_binop(op, vt.elem, ad + o, bd + o, dst + o)?;
            }
            return Ok("per-lane".to_string());
        }
        if esz == 8 {
            for (c, pair) in ops.chunks_exact(2).enumerate() {
                let o = c as i32 * 16;
                self.a.movsd_load(XMM0, RSP, ad + o);
                self.a
                    .sse_rm(&[0xF2], sse_arith(pair[0]).unwrap(), XMM0, RSP, bd + o);
                self.a.movsd_load(XMM1, RSP, ad + o + 8);
                self.a
                    .sse_rm(&[0xF2], sse_arith(pair[1]).unwrap(), XMM1, RSP, bd + o + 8);
                self.a.unpcklpd(XMM0, XMM1);
                self.a.movups_store(RSP, dst + o, XMM0);
            }
        } else {
            let accs = [XMM2, XMM3, XMM4, XMM5];
            for (c, quad) in ops.chunks_exact(4).enumerate() {
                let o = c as i32 * 16;
                for (i, &op) in quad.iter().enumerate() {
                    let lo = o + i as i32 * 4;
                    self.a.movss_load(accs[i], RSP, ad + lo);
                    self.a
                        .sse_rm(&[0xF3], sse_arith(op).unwrap(), accs[i], RSP, bd + lo);
                }
                self.a.unpcklps(XMM2, XMM3);
                self.a.unpcklps(XMM4, XMM5);
                self.a.movlhps(XMM2, XMM4);
                self.a.movups_store(RSP, dst + o, XMM2);
            }
        }
        Ok("mixed packed".to_string())
    }

    /// Uniform binary op over a vector: one packed SSE2 instruction per
    /// 16-byte chunk where [`packed_binop`] has one, per-lane scalar for
    /// the rest (integer `mul`, shifts, `min`/`max`, `div`/`rem`; float
    /// `min`/`max`/`rem`) and for a tail narrower than 16 bytes.
    fn vector_binop_uniform(
        &mut self,
        op: BinOp,
        vt: VectorType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<String, String> {
        let esz = vt.elem.size_bytes() as i32;
        let total = i32::from(vt.lanes) * esz;
        let mut off = 0i32;
        let mut chunks = 0usize;
        if let Some((prefix, opc)) = packed_binop(op, vt.elem) {
            while total - off >= 16 {
                self.a.movups_load(XMM0, RSP, ad + off);
                self.a.movups_load(XMM1, RSP, bd + off);
                self.a.sse_rr(prefix, opc, XMM0, XMM1);
                self.a.movups_store(RSP, dst + off, XMM0);
                off += 16;
                chunks += 1;
            }
        }
        let mut tail = 0usize;
        while off < total {
            self.scalar_binop(op, vt.elem, ad + off, bd + off, dst + off)?;
            off += esz;
            tail += 1;
        }
        Ok(vector_strategy(chunks, tail))
    }

    /// Vector cast: one `cvtdq2ps` per 16 bytes for `sitofp` i32→f32,
    /// per-lane scalar otherwise. The packed form is bit-exact: it and
    /// the interpreter's `f64::from(i32) as f32` both round the exact
    /// integer once, to nearest-even.
    fn vector_cast(
        &mut self,
        kind: CastKind,
        fv: VectorType,
        tv: VectorType,
        src: i32,
        dst: i32,
    ) -> Result<String, String> {
        let (fe, te) = (fv.elem.size_bytes() as i32, tv.elem.size_bytes() as i32);
        let lanes = i32::from(fv.lanes);
        let mut lane = 0i32;
        if kind == CastKind::Sitofp && (fv.elem, tv.elem) == (ScalarType::I32, ScalarType::F32) {
            while lanes - lane >= 4 {
                self.a.movups_load(XMM0, RSP, src + lane * 4);
                self.a.sse_rr(&[], 0x5B, XMM0, XMM0); // cvtdq2ps
                self.a.movups_store(RSP, dst + lane * 4, XMM0);
                lane += 4;
            }
        }
        let chunks = (lane / 4) as usize;
        for i in lane..lanes {
            self.scalar_cast(kind, fv.elem, tv.elem, src + i * fe, dst + i * te)?;
        }
        Ok(vector_strategy(chunks, (lanes - lane) as usize))
    }

    /// Vector compare into i32 0/1 lanes. Float lanes take one
    /// `cmpps`/`cmppd` per 16-byte chunk: NaN gives false for every
    /// predicate except `ne`, as on the scalar `ucomis*` path, and
    /// `gt`/`ge` are `lt`/`le` with the operands swapped. `psrld 31`
    /// then turns each all-ones lane into 1; an f64 chunk's mask is first
    /// narrowed to two i32 lanes (`pshufd 0x08`) and written in one
    /// 8-byte store. Integer lanes stay per-lane scalar.
    fn vector_cmp(
        &mut self,
        pred: CmpPred,
        vt: VectorType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<String, String> {
        let esz = vt.elem.size_bytes() as i32;
        let (lanes, per_chunk) = (i32::from(vt.lanes), 16 / esz);
        let mut lane = 0i32;
        if vt.elem.is_float() {
            let (imm, x, y) = match pred {
                CmpPred::Eq => (0, ad, bd),
                CmpPred::Lt => (1, ad, bd),
                CmpPred::Le => (2, ad, bd),
                CmpPred::Ne => (4, ad, bd),
                CmpPred::Gt => (1, bd, ad),
                CmpPred::Ge => (2, bd, ad),
            };
            let prefix: &[u8] = if esz == 4 { &[] } else { &[0x66] };
            while lanes - lane >= per_chunk {
                self.a.movups_load(XMM0, RSP, x + lane * esz);
                self.a.movups_load(XMM1, RSP, y + lane * esz);
                self.a.cmpp(prefix, XMM0, XMM1, imm);
                if esz == 8 {
                    self.a.pshufd(XMM0, XMM0, 0x08);
                }
                self.a.psrld(XMM0, 31);
                if esz == 8 {
                    self.a.movsd_store(RSP, dst + lane * 4, XMM0);
                } else {
                    self.a.movups_store(RSP, dst + lane * 4, XMM0);
                }
                lane += per_chunk;
            }
        }
        let chunks = (lane / per_chunk) as usize;
        for i in lane..lanes {
            let (o, m) = (i * esz, i * 4);
            self.scalar_cmp(pred, Type::Scalar(vt.elem), ad + o, bd + o, dst + m)?;
        }
        Ok(vector_strategy(chunks, (lanes - lane) as usize))
    }

    /// Vector-mask select. An i32 mask with 4- or 8-byte arms is pure
    /// bit selection per 16-byte chunk: `pcmpeqd` against zero marks the
    /// false lanes (so every non-zero mask lane is true, not only 1),
    /// `pshufd 0x50` widens them for 8-byte arms, and `andps`/`andnps`/
    /// `orps` merge the arms, so NaN payloads and −0.0 pass through
    /// unchanged. Other masks, and lanes past the last whole chunk,
    /// branch per lane.
    fn vector_select(
        &mut self,
        mv: VectorType,
        vt: VectorType,
        md: i32,
        td: i32,
        ed: i32,
        dst: i32,
    ) -> Result<String, String> {
        let (msz, esz) = (mv.elem.size_bytes() as i32, vt.elem.size_bytes() as i32);
        let (lanes, per_chunk) = (i32::from(vt.lanes), 16 / esz);
        let mut lane = 0i32;
        if mv.elem == ScalarType::I32 {
            while lanes - lane >= per_chunk {
                let o = lane * esz;
                if esz == 4 {
                    self.a.movups_load(XMM0, RSP, md + lane * 4);
                } else {
                    self.a.movsd_load(XMM0, RSP, md + lane * 4);
                }
                self.a.sse_rr(&[0x66], 0xEF, XMM1, XMM1); // pxor: zero
                self.a.sse_rr(&[0x66], 0x76, XMM0, XMM1); // pcmpeqd: false lanes
                if esz == 8 {
                    self.a.pshufd(XMM0, XMM0, 0x50);
                }
                self.a.movups_load(XMM1, RSP, ed + o);
                self.a.sse_rr(&[], 0x54, XMM1, XMM0); // andps: else where false
                self.a.movups_load(XMM2, RSP, td + o);
                self.a.sse_rr(&[], 0x55, XMM0, XMM2); // andnps: then where true
                self.a.sse_rr(&[], 0x56, XMM0, XMM1); // orps
                self.a.movups_store(RSP, dst + o, XMM0);
                lane += per_chunk;
            }
        }
        let chunks = (lane / per_chunk) as usize;
        for i in lane..lanes {
            match mv.elem {
                ScalarType::I32 => self.a.mov32_load(RCX, RSP, md + i * msz),
                ScalarType::I64 => self.a.mov_load(RCX, RSP, md + i * msz),
                st => return Err(format!("select mask of {st} lanes")),
            }
            self.a.test_rr(RCX, RCX);
            let l_else = self.a.new_label();
            let l_end = self.a.new_label();
            self.a.jcc(Cc::E, l_else);
            self.copy_frame(td + i * esz, dst + i * esz, esz as usize);
            self.a.jmp(l_end);
            self.a.bind(l_else);
            self.copy_frame(ed + i * esz, dst + i * esz, esz as usize);
            self.a.bind(l_end);
        }
        Ok(vector_strategy(chunks, (lanes - lane) as usize))
    }

    fn block_index(&self, b: BlockId) -> usize {
        self.f
            .block_ids()
            .position(|x| x == b)
            .expect("block id exists")
    }
}
