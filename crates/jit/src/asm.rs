//! A minimal x86-64 instruction encoder.
//!
//! Only the encodings the lowering actually emits are implemented: 64-bit
//! GPR moves/ALU, `movsxd`, shifts by `cl`, `idiv`, `setcc`/`cmovcc`,
//! scalar and packed SSE2 arithmetic, compares and logic, the `cvt*`
//! conversions the cast semantics need, and rel32 control flow with
//! label fixups. Memory operands always use the `[base + disp32]` form:
//! one code path, no special-casing of short displacements, and the
//! `rsp`/`r12` SIB and `rbp`/`r13` quirks are handled once in
//! `Asm::modrm_mem`.

/// General-purpose register numbers (hardware encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gpr(pub u8);

/// `rax`: primary scratch / return status.
pub const RAX: Gpr = Gpr(0);
/// `rcx`: secondary scratch, shift counts, divisors.
pub const RCX: Gpr = Gpr(1);
/// `rdx`: high half for `idiv`.
pub const RDX: Gpr = Gpr(2);
/// `rsp`: stack pointer; base of the value-slot frame.
pub const RSP: Gpr = Gpr(4);
/// `rbp`: saved for frame-chain hygiene only; never referenced.
pub const RBP: Gpr = Gpr(5);
/// `rsi`: incoming argument-array pointer (prologue only).
pub const RSI: Gpr = Gpr(6);
/// `rdi`: incoming context pointer (prologue only).
pub const RDI: Gpr = Gpr(7);
/// `r12`: pinned guest-memory base pointer.
pub const R12: Gpr = Gpr(12);
/// `r13`: pinned guest-memory size in bytes.
pub const R13: Gpr = Gpr(13);
/// `r14`: pinned remaining-fuel counter.
pub const R14: Gpr = Gpr(14);
/// `r15`: pinned [`JitCtx`](crate::runtime::JitCtx) pointer.
pub const R15: Gpr = Gpr(15);

/// SSE register numbers. The lowering uses `xmm0`/`xmm1` as arithmetic
/// scratch, `xmm2`–`xmm5` for lane accumulation, and `xmm7` as the
/// wide-copy scratch; nothing is live across an instruction boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xmm(pub u8);

/// `xmm0`: primary float scratch / helper-call return.
pub const XMM0: Xmm = Xmm(0);
/// `xmm1`: secondary float scratch / helper-call argument.
pub const XMM1: Xmm = Xmm(1);
/// `xmm2`: lane accumulator (never live across a helper call).
pub const XMM2: Xmm = Xmm(2);
/// `xmm3`: lane accumulator.
pub const XMM3: Xmm = Xmm(3);
/// `xmm4`: lane accumulator.
pub const XMM4: Xmm = Xmm(4);
/// `xmm5`: lane accumulator.
pub const XMM5: Xmm = Xmm(5);
/// `xmm7`: dedicated 16-byte copy scratch.
pub const XMM7: Xmm = Xmm(7);

/// Condition codes for `jcc`/`setcc`/`cmovcc` (hardware encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cc {
    B = 0x2,
    Ae = 0x3,
    E = 0x4,
    Ne = 0x5,
    Be = 0x6,
    A = 0x7,
    S = 0x8,
    P = 0xA,
    Np = 0xB,
    L = 0xC,
    Ge = 0xD,
    Le = 0xE,
    G = 0xF,
}

/// A forward-referenceable code position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Code buffer with label fixups.
#[derive(Debug, Default)]
pub struct Asm {
    code: Vec<u8>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, usize)>,
}

impl Asm {
    /// Empty buffer.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Current code offset (next byte emitted lands here).
    pub fn here(&self) -> usize {
        self.code.len()
    }

    /// Creates an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current offset.
    pub fn bind(&mut self, label: Label) {
        debug_assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.code.len());
    }

    /// Patches every rel32 fixup and returns the code bytes.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never bound (a lowering bug).
    pub fn finish(mut self) -> Vec<u8> {
        for &(pos, label) in &self.fixups {
            let target = self.labels[label].expect("unbound label");
            let rel = (target as i64 - (pos as i64 + 4)) as i32;
            self.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        self.code
    }

    fn byte(&mut self, b: u8) {
        self.code.push(b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.code.extend_from_slice(bs);
    }

    /// Emits mandatory prefixes, an optional REX, and the opcode bytes.
    fn prefix_rex_op(&mut self, prefixes: &[u8], w: bool, r: u8, b: u8, opcode: &[u8]) {
        self.bytes(prefixes);
        let rex = 0x40 | (u8::from(w) << 3) | ((r >> 3) << 2) | (b >> 3);
        if rex != 0x40 || w {
            self.byte(rex);
        }
        self.bytes(opcode);
    }

    /// reg-reg form: `modrm(11, reg, rm)`.
    fn op_rr(&mut self, prefixes: &[u8], w: bool, opcode: &[u8], reg: u8, rm: u8) {
        self.prefix_rex_op(prefixes, w, reg, rm, opcode);
        self.byte(0xC0 | ((reg & 7) << 3) | (rm & 7));
    }

    /// `[base + disp32]` memory form, with the SIB escape for `rsp`/`r12`.
    fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
        self.byte(0x80 | ((reg & 7) << 3) | (base & 7));
        if base & 7 == 4 {
            self.byte(0x24); // SIB: scale 1, no index, base = rsp/r12
        }
        self.bytes(&disp.to_le_bytes());
    }

    fn op_rm(&mut self, prefixes: &[u8], w: bool, opcode: &[u8], reg: u8, base: Gpr, disp: i32) {
        self.prefix_rex_op(prefixes, w, reg, base.0, opcode);
        self.modrm_mem(reg, base.0, disp);
    }

    // ---- GPR moves ----

    /// `mov dst, src` (64-bit).
    pub fn mov_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(&[], true, &[0x8B], dst.0, src.0);
    }

    /// `mov dst, imm64`.
    pub fn mov_ri(&mut self, dst: Gpr, imm: u64) {
        self.prefix_rex_op(&[], true, 0, dst.0, &[]);
        self.byte(0xB8 + (dst.0 & 7));
        self.bytes(&imm.to_le_bytes());
    }

    /// `mov dst, qword [base + disp]`.
    pub fn mov_load(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.op_rm(&[], true, &[0x8B], dst.0, base, disp);
    }

    /// `mov qword [base + disp], src`.
    pub fn mov_store(&mut self, base: Gpr, disp: i32, src: Gpr) {
        self.op_rm(&[], true, &[0x89], src.0, base, disp);
    }

    /// `mov dst32, dword [base + disp]` (zero-extends).
    pub fn mov32_load(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.op_rm(&[], false, &[0x8B], dst.0, base, disp);
    }

    /// `mov dword [base + disp], src32`.
    pub fn mov32_store(&mut self, base: Gpr, disp: i32, src: Gpr) {
        self.op_rm(&[], false, &[0x89], src.0, base, disp);
    }

    /// `movsxd dst, dword [base + disp]` (sign-extends).
    pub fn movsxd_load(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.op_rm(&[], true, &[0x63], dst.0, base, disp);
    }

    /// `inc qword [base + disp]` — the instrumented-hotness block
    /// counter bump (FF /0).
    pub fn inc_mem(&mut self, base: Gpr, disp: i32) {
        self.op_rm(&[], true, &[0xFF], 0, base, disp);
    }

    // ---- GPR ALU ----

    /// `add dst, src` (64-bit).
    pub fn add_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(&[], true, &[0x03], dst.0, src.0);
    }

    /// `sub dst, src`.
    pub fn sub_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(&[], true, &[0x2B], dst.0, src.0);
    }

    /// `and dst, src`.
    pub fn and_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(&[], true, &[0x23], dst.0, src.0);
    }

    /// `or dst, src`.
    pub fn or_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(&[], true, &[0x0B], dst.0, src.0);
    }

    /// `xor dst, src`.
    pub fn xor_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(&[], true, &[0x33], dst.0, src.0);
    }

    /// `imul dst, src`.
    pub fn imul_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(&[], true, &[0x0F, 0xAF], dst.0, src.0);
    }

    /// `neg r`.
    pub fn neg_r(&mut self, r: Gpr) {
        self.op_rr(&[], true, &[0xF7], 3, r.0);
    }

    /// `not r`.
    pub fn not_r(&mut self, r: Gpr) {
        self.op_rr(&[], true, &[0xF7], 2, r.0);
    }

    /// `cqo` (sign-extend `rax` into `rdx`).
    pub fn cqo(&mut self) {
        self.bytes(&[0x48, 0x99]);
    }

    /// `idiv r` (`rdx:rax / r`).
    pub fn idiv_r(&mut self, r: Gpr) {
        self.op_rr(&[], true, &[0xF7], 7, r.0);
    }

    /// `shl r, cl`.
    pub fn shl_cl(&mut self, r: Gpr) {
        self.op_rr(&[], true, &[0xD3], 4, r.0);
    }

    /// `sar r, cl` (arithmetic, matching Rust `i64 >>`).
    pub fn sar_cl(&mut self, r: Gpr) {
        self.op_rr(&[], true, &[0xD3], 7, r.0);
    }

    /// `cmp a, b` (64-bit).
    pub fn cmp_rr(&mut self, a: Gpr, b: Gpr) {
        self.op_rr(&[], true, &[0x3B], a.0, b.0);
    }

    /// `cmp r, imm8` (sign-extended).
    pub fn cmp_ri8(&mut self, r: Gpr, imm: i8) {
        self.op_rr(&[], true, &[0x83], 7, r.0);
        self.byte(imm as u8);
    }

    /// `test a, a` (64-bit).
    pub fn test_rr(&mut self, a: Gpr, b: Gpr) {
        self.op_rr(&[], true, &[0x85], b.0, a.0);
    }

    /// `cmovcc dst, src`.
    pub fn cmov(&mut self, cc: Cc, dst: Gpr, src: Gpr) {
        self.op_rr(&[], true, &[0x0F, 0x40 + cc as u8], dst.0, src.0);
    }

    /// `setcc r8`. Only `al`/`cl`/`dl` are valid targets (no REX form).
    pub fn setcc(&mut self, cc: Cc, r: Gpr) {
        debug_assert!(r.0 < 4, "setcc target must avoid REX byte registers");
        self.op_rr(&[], false, &[0x0F, 0x90 + cc as u8], 0, r.0);
    }

    /// `movzx dst, src8` (byte to 64-bit).
    pub fn movzx_rb(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(&[], true, &[0x0F, 0xB6], dst.0, src.0);
    }

    /// `add rsp, imm32`.
    pub fn add_rsp(&mut self, imm: i32) {
        self.op_rr(&[], true, &[0x81], 0, RSP.0);
        self.bytes(&imm.to_le_bytes());
    }

    /// `sub rsp, imm32`.
    pub fn sub_rsp(&mut self, imm: i32) {
        self.op_rr(&[], true, &[0x81], 5, RSP.0);
        self.bytes(&imm.to_le_bytes());
    }

    /// `push r`.
    pub fn push_r(&mut self, r: Gpr) {
        if r.0 >= 8 {
            self.byte(0x41);
        }
        self.byte(0x50 + (r.0 & 7));
    }

    /// `pop r`.
    pub fn pop_r(&mut self, r: Gpr) {
        if r.0 >= 8 {
            self.byte(0x41);
        }
        self.byte(0x58 + (r.0 & 7));
    }

    /// `dec r`.
    pub fn dec_r(&mut self, r: Gpr) {
        self.op_rr(&[], true, &[0xFF], 1, r.0);
    }

    // ---- control flow ----

    /// `jmp label` (rel32).
    pub fn jmp(&mut self, label: Label) {
        self.byte(0xE9);
        self.fixups.push((self.code.len(), label.0));
        self.bytes(&[0; 4]);
    }

    /// `jcc label` (rel32).
    pub fn jcc(&mut self, cc: Cc, label: Label) {
        self.bytes(&[0x0F, 0x80 + cc as u8]);
        self.fixups.push((self.code.len(), label.0));
        self.bytes(&[0; 4]);
    }

    /// `call r`.
    pub fn call_r(&mut self, r: Gpr) {
        self.op_rr(&[], false, &[0xFF], 2, r.0);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.byte(0xC3);
    }

    // ---- SSE ----

    /// `movss dst, dword [base + disp]`.
    pub fn movss_load(&mut self, dst: Xmm, base: Gpr, disp: i32) {
        self.op_rm(&[0xF3], false, &[0x0F, 0x10], dst.0, base, disp);
    }

    /// `movss dword [base + disp], src`.
    pub fn movss_store(&mut self, base: Gpr, disp: i32, src: Xmm) {
        self.op_rm(&[0xF3], false, &[0x0F, 0x11], src.0, base, disp);
    }

    /// `movsd dst, qword [base + disp]`.
    pub fn movsd_load(&mut self, dst: Xmm, base: Gpr, disp: i32) {
        self.op_rm(&[0xF2], false, &[0x0F, 0x10], dst.0, base, disp);
    }

    /// `movsd qword [base + disp], src`.
    pub fn movsd_store(&mut self, base: Gpr, disp: i32, src: Xmm) {
        self.op_rm(&[0xF2], false, &[0x0F, 0x11], src.0, base, disp);
    }

    /// `movups dst, xmmword [base + disp]` (unaligned 16-byte load).
    pub fn movups_load(&mut self, dst: Xmm, base: Gpr, disp: i32) {
        self.op_rm(&[], false, &[0x0F, 0x10], dst.0, base, disp);
    }

    /// `movups xmmword [base + disp], src`.
    pub fn movups_store(&mut self, base: Gpr, disp: i32, src: Xmm) {
        self.op_rm(&[], false, &[0x0F, 0x11], src.0, base, disp);
    }

    /// `movlpd dst, qword [base + disp]` (low half; high half preserved).
    pub fn movlpd_load(&mut self, dst: Xmm, base: Gpr, disp: i32) {
        self.op_rm(&[0x66], false, &[0x0F, 0x12], dst.0, base, disp);
    }

    /// `movhpd dst, qword [base + disp]` (high half; low half preserved).
    pub fn movhpd_load(&mut self, dst: Xmm, base: Gpr, disp: i32) {
        self.op_rm(&[0x66], false, &[0x0F, 0x16], dst.0, base, disp);
    }

    /// `movhpd qword [base + disp], src` (stores the high half).
    pub fn movhpd_store(&mut self, base: Gpr, disp: i32, src: Xmm) {
        self.op_rm(&[0x66], false, &[0x0F, 0x17], src.0, base, disp);
    }

    /// `unpcklpd dst, src`: `dst = [dst.lo64, src.lo64]`.
    pub fn unpcklpd(&mut self, dst: Xmm, src: Xmm) {
        self.op_rr(&[0x66], false, &[0x0F, 0x14], dst.0, src.0);
    }

    /// `unpcklps dst, src`: `dst = [dst.0, src.0, dst.1, src.1]`.
    pub fn unpcklps(&mut self, dst: Xmm, src: Xmm) {
        self.op_rr(&[], false, &[0x0F, 0x14], dst.0, src.0);
    }

    /// `movlhps dst, src`: `dst.hi64 = src.lo64`.
    pub fn movlhps(&mut self, dst: Xmm, src: Xmm) {
        self.op_rr(&[], false, &[0x0F, 0x16], dst.0, src.0);
    }

    /// `pshufd dst, src, imm` (full 4x32 lane permute).
    pub fn pshufd(&mut self, dst: Xmm, src: Xmm, imm: u8) {
        self.op_rr(&[0x66], false, &[0x0F, 0x70], dst.0, src.0);
        self.byte(imm);
    }

    /// `cmpps dst, src, pred` (`cmppd` with the `0x66` prefix): each lane
    /// of `dst` becomes all ones where `dst <pred> src` holds, else zero.
    pub fn cmpp(&mut self, prefix: &[u8], dst: Xmm, src: Xmm, pred: u8) {
        self.op_rr(prefix, false, &[0x0F, 0xC2], dst.0, src.0);
        self.byte(pred);
    }

    /// `psrld dst, imm`: logical right shift of each 32-bit lane.
    pub fn psrld(&mut self, dst: Xmm, imm: u8) {
        self.op_rr(&[0x66], false, &[0x0F, 0x72], 2, dst.0);
        self.byte(imm);
    }

    /// Scalar/packed SSE arithmetic, reg-reg: `prefix 0F op /r`.
    pub fn sse_rr(&mut self, prefix: &[u8], op: u8, dst: Xmm, src: Xmm) {
        self.op_rr(prefix, false, &[0x0F, op], dst.0, src.0);
    }

    /// Scalar/packed SSE arithmetic with a memory source operand.
    pub fn sse_rm(&mut self, prefix: &[u8], op: u8, dst: Xmm, base: Gpr, disp: i32) {
        self.op_rm(prefix, false, &[0x0F, op], dst.0, base, disp);
    }

    /// `cvtsi2sd dst, src64`.
    pub fn cvtsi2sd(&mut self, dst: Xmm, src: Gpr) {
        self.op_rr(&[0xF2], true, &[0x0F, 0x2A], dst.0, src.0);
    }

    /// `cvtsd2ss dst, src`.
    pub fn cvtsd2ss(&mut self, dst: Xmm, src: Xmm) {
        self.op_rr(&[0xF2], false, &[0x0F, 0x5A], dst.0, src.0);
    }

    /// `cvtss2sd dst, src`.
    pub fn cvtss2sd(&mut self, dst: Xmm, src: Xmm) {
        self.op_rr(&[0xF3], false, &[0x0F, 0x5A], dst.0, src.0);
    }

    /// `movq dst, src64` (GPR bits into an XMM register).
    pub fn movq_xr(&mut self, dst: Xmm, src: Gpr) {
        self.op_rr(&[0x66], true, &[0x0F, 0x6E], dst.0, src.0);
    }

    /// `movd dst, src32`.
    pub fn movd_xr(&mut self, dst: Xmm, src: Gpr) {
        self.op_rr(&[0x66], false, &[0x0F, 0x6E], dst.0, src.0);
    }

    /// `ucomisd a, b`.
    pub fn ucomisd(&mut self, a: Xmm, b: Xmm) {
        self.op_rr(&[0x66], false, &[0x0F, 0x2E], a.0, b.0);
    }

    /// `ucomiss a, b`.
    pub fn ucomiss(&mut self, a: Xmm, b: Xmm) {
        self.op_rr(&[], false, &[0x0F, 0x2E], a.0, b.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(f: impl FnOnce(&mut Asm)) -> Vec<u8> {
        let mut a = Asm::new();
        f(&mut a);
        a.finish()
    }

    #[test]
    fn gpr_encodings_match_reference() {
        // Spot-checked against a reference assembler.
        assert_eq!(enc(|a| a.mov_rr(RAX, RCX)), vec![0x48, 0x8B, 0xC1]);
        assert_eq!(
            enc(|a| a.mov_ri(RAX, 0x1122334455667788)),
            vec![0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
        assert_eq!(
            enc(|a| a.mov_load(RAX, RSP, 8)),
            vec![0x48, 0x8B, 0x84, 0x24, 0x08, 0, 0, 0]
        );
        assert_eq!(
            enc(|a| a.mov_store(R13, 16, RCX)),
            vec![0x49, 0x89, 0x8D, 0x10, 0, 0, 0]
        );
        assert_eq!(
            enc(|a| a.movsxd_load(RCX, RAX, 4)),
            vec![0x48, 0x63, 0x88, 0x04, 0, 0, 0]
        );
        assert_eq!(enc(|a| a.idiv_r(RCX)), vec![0x48, 0xF7, 0xF9]);
        assert_eq!(enc(|a| a.push_r(R12)), vec![0x41, 0x54]);
        assert_eq!(enc(|a| a.setcc(Cc::E, RAX)), vec![0x0F, 0x94, 0xC0]);
        assert_eq!(enc(|a| a.dec_r(R14)), vec![0x49, 0xFF, 0xCE]);
        // inc qword [rax + 8] — REX.W FF /0 with a disp32 ModRM.
        assert_eq!(
            enc(|a| a.inc_mem(RAX, 8)),
            vec![0x48, 0xFF, 0x80, 0x08, 0, 0, 0]
        );
    }

    #[test]
    fn sse_encodings_match_reference() {
        assert_eq!(
            enc(|a| a.movsd_load(XMM0, RSP, 0)),
            vec![0xF2, 0x0F, 0x10, 0x84, 0x24, 0, 0, 0, 0]
        );
        // addsd xmm0, xmm1
        assert_eq!(
            enc(|a| a.sse_rr(&[0xF2], 0x58, XMM0, XMM1)),
            vec![0xF2, 0x0F, 0x58, 0xC1]
        );
        // movups load from r12 needs both the REX.B and the SIB byte.
        assert_eq!(
            enc(|a| a.movups_load(XMM0, R12, 0)),
            vec![0x41, 0x0F, 0x10, 0x84, 0x24, 0, 0, 0, 0]
        );
        assert_eq!(
            enc(|a| a.cvtsi2sd(XMM0, RAX)),
            vec![0xF2, 0x48, 0x0F, 0x2A, 0xC0]
        );
        assert_eq!(
            enc(|a| a.movq_xr(XMM1, RAX)),
            vec![0x66, 0x48, 0x0F, 0x6E, 0xC8]
        );
        assert_eq!(enc(|a| a.ucomisd(XMM0, XMM1)), vec![0x66, 0x0F, 0x2E, 0xC1]);
        assert_eq!(
            enc(|a| a.movlpd_load(XMM7, RSP, 8)),
            vec![0x66, 0x0F, 0x12, 0xBC, 0x24, 0x08, 0, 0, 0]
        );
        assert_eq!(
            enc(|a| a.movhpd_load(XMM7, RSP, 8)),
            vec![0x66, 0x0F, 0x16, 0xBC, 0x24, 0x08, 0, 0, 0]
        );
        assert_eq!(
            enc(|a| a.movhpd_store(RSP, 8, XMM7)),
            vec![0x66, 0x0F, 0x17, 0xBC, 0x24, 0x08, 0, 0, 0]
        );
        assert_eq!(
            enc(|a| a.unpcklpd(XMM0, XMM1)),
            vec![0x66, 0x0F, 0x14, 0xC1]
        );
        assert_eq!(enc(|a| a.unpcklps(XMM2, XMM3)), vec![0x0F, 0x14, 0xD3]);
        assert_eq!(enc(|a| a.movlhps(XMM2, XMM4)), vec![0x0F, 0x16, 0xD4]);
        assert_eq!(
            enc(|a| a.pshufd(XMM7, XMM7, 0)),
            vec![0x66, 0x0F, 0x70, 0xFF, 0x00]
        );
        // cmpltps / cmplepd xmm0, xmm1
        assert_eq!(
            enc(|a| a.cmpp(&[], XMM0, XMM1, 1)),
            vec![0x0F, 0xC2, 0xC1, 0x01]
        );
        assert_eq!(
            enc(|a| a.cmpp(&[0x66], XMM0, XMM1, 2)),
            vec![0x66, 0x0F, 0xC2, 0xC1, 0x02]
        );
        assert_eq!(
            enc(|a| a.psrld(XMM0, 31)),
            vec![0x66, 0x0F, 0x72, 0xD0, 0x1F]
        );
        // paddq xmm0, xmm1 and cvtdq2ps xmm0, xmm0 go through `sse_rr`.
        assert_eq!(
            enc(|a| a.sse_rr(&[0x66], 0xD4, XMM0, XMM1)),
            vec![0x66, 0x0F, 0xD4, 0xC1]
        );
        assert_eq!(
            enc(|a| a.sse_rr(&[], 0x5B, XMM0, XMM0)),
            vec![0x0F, 0x5B, 0xC0]
        );
    }

    #[test]
    fn labels_patch_forward_and_backward() {
        let mut a = Asm::new();
        let top = a.new_label();
        let end = a.new_label();
        a.bind(top);
        a.jcc(Cc::E, end); // forward
        a.jmp(top); // backward
        a.bind(end);
        let code = a.finish();
        // jcc rel32 = 6 bytes, jmp rel32 = 5 bytes; end is at 11.
        assert_eq!(&code[2..6], &5i32.to_le_bytes());
        assert_eq!(&code[7..11], &(-11i32).to_le_bytes());
    }
}
