//! Textual form of the IR (parsing side).
//!
//! The accepted grammar is exactly what [`crate::printer`] emits; see that
//! module for an example. One restriction applies: only `phi` operands may
//! reference values defined later in the text — every other instruction
//! must use names already defined (which any verifier-clean function
//! printed in creation order satisfies).
//!
//! # Examples
//!
//! ```
//! use snslp_ir::parse_module;
//!
//! let m = parse_module(
//!     "func @double(%p: ptr noalias) -> void {
//!      entry:
//!        %v = load f64, %p
//!        %s = add f64 %v, %v
//!        store %p, %s
//!        ret
//!      }",
//! )?;
//! assert_eq!(m.functions().len(), 1);
//! # Ok::<(), snslp_ir::ParseError>(())
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::function::{Function, Param};
use crate::inst::{BinOp, BlockId, CastKind, CmpPred, Constant, InstId, InstKind, UnOp};
use crate::module::Module;
use crate::types::{ScalarType, Type};

/// Error produced when parsing textual IR fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token's first character (0 when
    /// no position is known, e.g. for whole-input errors).
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(
                f,
                "parse error at line {}, column {}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

/// A token. Names and literals borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    Value(&'s str),
    At(&'s str),
    Num(&'s str),
    Punct(char),
    Arrow,
}

/// The whole input as tokens, each with the 1-based line and column of
/// its first character, and the parser's position in them.
struct Lexer<'s> {
    toks: Vec<(Tok<'s>, u32, u32)>,
    pos: usize,
}

/// Whether `c` may continue a `%`/`@` name or an identifier.
fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.'
}

/// Whether `b` may continue a numeric literal, given whether the byte
/// before it was an exponent marker.
fn is_num_byte(b: u8, after_e: bool) -> bool {
    // `n`, `a`, `i` and `f` let `-inf` and `-nan` lex as one literal.
    matches!(
        b,
        b'0'..=b'9' | b'.' | b'e' | b'E' | b'f' | b'n' | b'a' | b'i'
    ) || (after_e && matches!(b, b'-' | b'+'))
}

/// Splits `src` into tokens in one pass over its bytes.
///
/// Every byte below 0x80 is a whole character; a `char` is decoded only
/// at a non-ASCII byte. Columns count characters, not bytes, so error
/// positions match what an editor shows. Whitespace is what
/// `char::is_whitespace` accepts, and the bodies of names and identifiers
/// accept any Unicode alphanumeric.
fn lex(src: &str) -> Result<Lexer<'_>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let (mut i, mut line, mut col) = (0, 1, 1);
    // Advances `i` and `col` past the name characters starting at `i`.
    let scan_name = |i: &mut usize, col: &mut u32| {
        while let Some(&b) = bytes.get(*i) {
            if b.is_ascii() {
                if !is_name_char(char::from(b)) {
                    break;
                }
                *i += 1;
            } else {
                let c = src[*i..].chars().next().expect("char boundary");
                if !is_name_char(c) {
                    break;
                }
                *i += c.len_utf8();
            }
            *col += 1;
        }
    };
    while let Some(&b) = bytes.get(i) {
        let start = i;
        let tok_col = col;
        let tok = match b {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
                continue;
            }
            b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' ' => {
                i += 1;
                col += 1;
                continue;
            }
            b';' | b'#' => {
                // Comment to end of line.
                match bytes[i..].iter().position(|&b| b == b'\n') {
                    Some(n) => {
                        i += n + 1;
                        line += 1;
                        col = 1;
                    }
                    None => i = bytes.len(),
                }
                continue;
            }
            b'%' | b'@' => {
                i += 1;
                col += 1;
                scan_name(&mut i, &mut col);
                let name = &src[start + 1..i];
                if name.is_empty() {
                    return Err(ParseError {
                        line,
                        col: tok_col,
                        message: format!("dangling `{}`", char::from(b)),
                    });
                }
                if b == b'%' {
                    Tok::Value(name)
                } else {
                    Tok::At(name)
                }
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                scan_name(&mut i, &mut col);
                Tok::Ident(&src[start..i])
            }
            b'0'..=b'9' | b'-' => {
                i += 1;
                col += 1;
                if b == b'-' && bytes.get(i) == Some(&b'>') {
                    i += 1;
                    col += 1;
                    Tok::Arrow
                } else {
                    let mut after_e = false;
                    while let Some(&b) = bytes.get(i).filter(|&&b| is_num_byte(b, after_e)) {
                        after_e = matches!(b, b'e' | b'E');
                        i += 1;
                        col += 1;
                    }
                    Tok::Num(&src[start..i])
                }
            }
            b'(' | b')' | b'{' | b'}' | b'[' | b']' | b',' | b':' | b'=' => {
                i += 1;
                col += 1;
                Tok::Punct(char::from(b))
            }
            _ => {
                let c = src[i..].chars().next().expect("char boundary");
                if !c.is_whitespace() {
                    return Err(ParseError {
                        line,
                        col,
                        message: format!("unexpected character `{c}`"),
                    });
                }
                i += c.len_utf8();
                col += 1;
                continue;
            }
        };
        toks.push((tok, line, tok_col));
    }
    Ok(Lexer { toks, pos: 0 })
}

impl<'s> Lexer<'s> {
    fn peek(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos).map(|&(t, ..)| t)
    }

    fn peek2(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos + 1).map(|&(t, ..)| t)
    }

    /// Position of token `idx` (or of the last one past end of input).
    fn position_of(&self, idx: usize) -> (u32, u32) {
        self.toks
            .get(idx.min(self.toks.len().saturating_sub(1)))
            .map(|&(_, l, c)| (l, c))
            .unwrap_or((0, 0))
    }

    /// An error at the current token (or the last one at end of input).
    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.position_of(self.pos);
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    /// Like [`err`](Self::err) but anchored at the token `next()` just
    /// consumed — the right anchor for `expected X, found Y`
    /// diagnostics, where the cursor has already stepped past the
    /// offender.
    fn err_at_prev(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.position_of(self.pos.saturating_sub(1));
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn next(&mut self) -> Result<Tok<'s>, ParseError> {
        let t = self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Punct(p) if p == c => Ok(()),
            t => Err(self.err_at_prev(format!("expected `{c}`, found {t:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<&'s str, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            t => Err(self.err_at_prev(format!("expected identifier, found {t:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let s = self.expect_ident()?;
        if s == kw {
            Ok(())
        } else {
            Err(self.err_at_prev(format!("expected `{kw}`, found `{s}`")))
        }
    }

    fn expect_value(&mut self) -> Result<&'s str, ParseError> {
        match self.next()? {
            Tok::Value(s) => Ok(s),
            t => Err(self.err_at_prev(format!("expected %value, found {t:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes the identifier `kw` if it is next.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek() == Some(Tok::Ident(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_u8(&mut self) -> Result<u8, ParseError> {
        match self.next()? {
            Tok::Num(s) => s
                .parse::<u8>()
                .map_err(|_| self.err_at_prev(format!("invalid lane index `{s}`"))),
            t => Err(self.err_at_prev(format!("expected lane index, found {t:?}"))),
        }
    }
}

fn snslp_kind_from(s: &str) -> Option<CastKind> {
    CastKind::from_mnemonic(s)
}

fn parse_type(lex: &mut Lexer<'_>) -> Result<Type, ParseError> {
    let s = lex.expect_ident()?;
    type_from_str(s).ok_or_else(|| lex.err(format!("unknown type `{s}`")))
}

/// Parses a type name like `f64`, `ptr`, `void`, or `i32x4`.
pub fn type_from_str(s: &str) -> Option<Type> {
    let scalar = |s: &str| -> Option<ScalarType> {
        Some(match s {
            "i32" => ScalarType::I32,
            "i64" => ScalarType::I64,
            "f32" => ScalarType::F32,
            "f64" => ScalarType::F64,
            _ => return None,
        })
    };
    match s {
        "void" => Some(Type::Void),
        "ptr" => Some(Type::Ptr),
        _ => {
            if let Some(st) = scalar(s) {
                return Some(Type::Scalar(st));
            }
            let (elem, lanes) = s.split_once('x')?;
            let st = scalar(elem)?;
            let n: u8 = lanes.parse().ok()?;
            if n >= 2 {
                Some(Type::vector(st, n))
            } else {
                None
            }
        }
    }
}

fn parse_const_literal(lex: &mut Lexer<'_>, ty: ScalarType) -> Result<Constant, ParseError> {
    let text = match lex.next()? {
        Tok::Num(s) | Tok::Ident(s) => s, // identifiers: inf / nan
        t => return Err(lex.err(format!("expected literal, found {t:?}"))),
    };
    let bad = |lex: &Lexer<'_>| lex.err(format!("invalid {ty} literal `{text}`"));
    Ok(match ty {
        ScalarType::I32 => Constant::I32(text.parse().map_err(|_| bad(lex))?),
        ScalarType::I64 => Constant::I64(text.parse().map_err(|_| bad(lex))?),
        ScalarType::F32 => Constant::F32(parse_float(text).map_err(|_| bad(lex))? as f32),
        ScalarType::F64 => Constant::F64(parse_float(text).map_err(|_| bad(lex))?),
    })
}

fn parse_float(s: &str) -> Result<f64, ()> {
    match s {
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        "nan" | "NaN" => Ok(f64::NAN),
        _ => s.parse::<f64>().map_err(|_| ()),
    }
}

/// Parses one function body. Names are keyed by their source slices;
/// the maps keep std's SipHash because the text may come from `snslpd`
/// clients, and a fixed hash would let one pick colliding names.
struct FuncParser<'l, 's> {
    lex: &'l mut Lexer<'s>,
    func: Function,
    values: HashMap<&'s str, InstId>,
    pending: HashMap<&'s str, InstId>,
    blocks: HashMap<&'s str, BlockId>,
    cur: BlockId,
    saw_first_label: bool,
}

impl<'s> FuncParser<'_, 's> {
    /// Resolves a value name that must already be defined.
    fn value_strict(&mut self, name: &str) -> Result<InstId, ParseError> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| self.lex.err(format!("use of undefined value `%{name}`")))
    }

    /// Resolves a value name, reserving a forward slot if unknown (phi
    /// operands only).
    fn value_lazy(&mut self, name: &'s str) -> InstId {
        if let Some(&id) = self.values.get(name) {
            return id;
        }
        if let Some(&id) = self.pending.get(name) {
            return id;
        }
        let id = self
            .func
            .create_detached(InstKind::Const(Constant::I32(0)), Type::Void);
        self.pending.insert(name, id);
        id
    }

    fn block_ref(&mut self, name: &'s str) -> BlockId {
        if let Some(&b) = self.blocks.get(name) {
            return b;
        }
        let b = self.func.add_block(name);
        self.blocks.insert(name, b);
        b
    }

    fn define(&mut self, name: &'s str, kind: InstKind, ty: Type) -> Result<(), ParseError> {
        let Entry::Vacant(entry) = self.values.entry(name) else {
            return Err(self.lex.err(format!("redefinition of `%{name}`")));
        };
        let id = if let Some(slot) = self.pending.remove(name) {
            self.func.define_slot(slot, self.cur, kind, ty);
            slot
        } else {
            self.func.append_inst(self.cur, kind, ty)
        };
        entry.insert(id);
        Ok(())
    }

    fn emit_effect(&mut self, kind: InstKind) {
        self.func.append_inst(self.cur, kind, Type::Void);
    }

    fn parse_operand_list(&mut self) -> Result<Vec<InstId>, ParseError> {
        let mut out = Vec::new();
        loop {
            let name = self.lex.expect_value()?;
            out.push(self.value_strict(name)?);
            if !self.lex.eat_punct(',') {
                return Ok(out);
            }
        }
    }

    fn parse_body(&mut self) -> Result<(), ParseError> {
        loop {
            match self.lex.peek() {
                Some(Tok::Punct('}')) => {
                    self.lex.next()?;
                    // Slots are created in text order, so the smallest id
                    // is the first unresolved operand.
                    if let Some((name, _)) = self.pending.iter().min_by_key(|&(_, &id)| id) {
                        return Err(self
                            .lex
                            .err(format!("use of undefined value `%{name}` (phi operand)")));
                    }
                    return Ok(());
                }
                Some(Tok::Ident(_)) if self.lex.peek2() == Some(Tok::Punct(':')) => {
                    let label = self.lex.expect_ident()?;
                    self.lex.expect_punct(':')?;
                    if !self.saw_first_label {
                        // First label names the entry block.
                        self.saw_first_label = true;
                        self.func.set_block_name(self.func.entry(), label);
                        self.blocks.insert(label, self.func.entry());
                        self.cur = self.func.entry();
                    } else {
                        self.cur = self.block_ref(label);
                    }
                }
                Some(_) => self.parse_inst()?,
                None => return Err(self.lex.err("unexpected end of input in function body")),
            }
        }
    }

    fn parse_inst(&mut self) -> Result<(), ParseError> {
        match self.lex.next()? {
            Tok::Value(result) => {
                self.lex.expect_punct('=')?;
                self.parse_value_inst(result)
            }
            Tok::Ident(op) => self.parse_effect_inst(op),
            t => Err(self.lex.err(format!("expected instruction, found {t:?}"))),
        }
    }

    fn parse_value_inst(&mut self, result: &'s str) -> Result<(), ParseError> {
        let op = self.lex.expect_ident()?;
        match op {
            "const" => {
                let ty = parse_type(self.lex)?;
                let st = ty
                    .as_scalar()
                    .ok_or_else(|| self.lex.err("const needs a scalar type"))?;
                let c = parse_const_literal(self.lex, st)?;
                self.define(result, InstKind::Const(c), ty)
            }
            "cast" => {
                let m = self.lex.expect_ident()?;
                let kind = snslp_kind_from(m)
                    .ok_or_else(|| self.lex.err(format!("unknown cast `{m}`")))?;
                let ty = parse_type(self.lex)?;
                let n = self.lex.expect_value()?;
                let operand = self.value_strict(n)?;
                self.define(result, InstKind::Cast { kind, operand }, ty)
            }
            "lanewise" => {
                self.lex.expect_punct('[')?;
                let mut ops = Vec::new();
                loop {
                    let m = self.lex.expect_ident()?;
                    let op = BinOp::from_mnemonic(m)
                        .ok_or_else(|| self.lex.err(format!("unknown binop `{m}`")))?;
                    ops.push(op);
                    if !self.lex.eat_punct(',') {
                        break;
                    }
                }
                self.lex.expect_punct(']')?;
                let ty = parse_type(self.lex)?;
                let lhs = {
                    let n = self.lex.expect_value()?;
                    self.value_strict(n)?
                };
                self.lex.expect_punct(',')?;
                let rhs = {
                    let n = self.lex.expect_value()?;
                    self.value_strict(n)?
                };
                self.define(
                    result,
                    InstKind::BinaryLanewise {
                        ops: ops.into_boxed_slice(),
                        lhs,
                        rhs,
                    },
                    ty,
                )
            }
            "cmp" => {
                let p = self.lex.expect_ident()?;
                let pred = CmpPred::from_mnemonic(p)
                    .ok_or_else(|| self.lex.err(format!("unknown predicate `{p}`")))?;
                let opty = parse_type(self.lex)?;
                let lhs = {
                    let n = self.lex.expect_value()?;
                    self.value_strict(n)?
                };
                self.lex.expect_punct(',')?;
                let rhs = {
                    let n = self.lex.expect_value()?;
                    self.value_strict(n)?
                };
                let ty = match opty {
                    Type::Vector(v) => Type::vector(ScalarType::I32, v.lanes),
                    _ => Type::scalar(ScalarType::I32),
                };
                self.define(result, InstKind::Cmp { pred, lhs, rhs }, ty)
            }
            "select" => {
                let ops = self.parse_operand_list()?;
                if ops.len() != 3 {
                    return Err(self.lex.err("select takes 3 operands"));
                }
                let ty = self.func.ty(ops[1]);
                self.define(
                    result,
                    InstKind::Select {
                        cond: ops[0],
                        on_true: ops[1],
                        on_false: ops[2],
                    },
                    ty,
                )
            }
            "load" => {
                let ty = parse_type(self.lex)?;
                self.lex.expect_punct(',')?;
                let n = self.lex.expect_value()?;
                let ptr = self.value_strict(n)?;
                self.define(result, InstKind::Load { ptr }, ty)
            }
            "ptradd" => {
                let ops = self.parse_operand_list()?;
                if ops.len() != 2 {
                    return Err(self.lex.err("ptradd takes 2 operands"));
                }
                self.define(
                    result,
                    InstKind::PtrAdd {
                        ptr: ops[0],
                        offset: ops[1],
                    },
                    Type::Ptr,
                )
            }
            "splat" => {
                let lanes = self.lex.expect_u8()?;
                let n = self.lex.expect_value()?;
                let value = self.value_strict(n)?;
                let st = self
                    .func
                    .ty(value)
                    .as_scalar()
                    .ok_or_else(|| self.lex.err("splat needs a scalar operand"))?;
                self.define(
                    result,
                    InstKind::Splat { value, lanes },
                    Type::vector(st, lanes),
                )
            }
            "buildvec" => {
                let elems = self.parse_operand_list()?;
                if elems.len() < 2 {
                    return Err(self.lex.err("buildvec needs at least 2 elements"));
                }
                let st = self
                    .func
                    .ty(elems[0])
                    .as_scalar()
                    .ok_or_else(|| self.lex.err("buildvec needs scalar elements"))?;
                let lanes = elems.len() as u8;
                self.define(
                    result,
                    InstKind::BuildVector {
                        elems: elems.into_boxed_slice(),
                    },
                    Type::vector(st, lanes),
                )
            }
            "extract" => {
                let n = self.lex.expect_value()?;
                let vector = self.value_strict(n)?;
                self.lex.expect_punct(',')?;
                let lane = self.lex.expect_u8()?;
                let vt = self
                    .func
                    .ty(vector)
                    .as_vector()
                    .ok_or_else(|| self.lex.err("extract needs a vector operand"))?;
                self.define(
                    result,
                    InstKind::ExtractElement { vector, lane },
                    Type::Scalar(vt.elem),
                )
            }
            "insert" => {
                let n = self.lex.expect_value()?;
                let vector = self.value_strict(n)?;
                self.lex.expect_punct(',')?;
                let n = self.lex.expect_value()?;
                let value = self.value_strict(n)?;
                self.lex.expect_punct(',')?;
                let lane = self.lex.expect_u8()?;
                let ty = self.func.ty(vector);
                self.define(
                    result,
                    InstKind::InsertElement {
                        vector,
                        value,
                        lane,
                    },
                    ty,
                )
            }
            "shuffle" => {
                let n = self.lex.expect_value()?;
                let a = self.value_strict(n)?;
                self.lex.expect_punct(',')?;
                let n = self.lex.expect_value()?;
                let b = self.value_strict(n)?;
                self.lex.expect_punct(',')?;
                self.lex.expect_punct('[')?;
                let mut mask = Vec::new();
                loop {
                    mask.push(self.lex.expect_u8()?);
                    if !self.lex.eat_punct(',') {
                        break;
                    }
                }
                self.lex.expect_punct(']')?;
                let vt = self
                    .func
                    .ty(a)
                    .as_vector()
                    .ok_or_else(|| self.lex.err("shuffle needs vector operands"))?;
                let lanes = mask.len() as u8;
                self.define(
                    result,
                    InstKind::Shuffle {
                        a,
                        b,
                        mask: mask.into_boxed_slice(),
                    },
                    Type::vector(vt.elem, lanes),
                )
            }
            "phi" => {
                let ty = parse_type(self.lex)?;
                self.lex.expect_punct('[')?;
                let mut incoming = Vec::new();
                loop {
                    let blk = self.lex.expect_ident()?;
                    self.lex.expect_punct(':')?;
                    let val = self.lex.expect_value()?;
                    let b = self.block_ref(blk);
                    let v = self.value_lazy(val);
                    incoming.push((b, v));
                    if !self.lex.eat_punct(',') {
                        break;
                    }
                }
                self.lex.expect_punct(']')?;
                self.define(result, InstKind::Phi { incoming }, ty)
            }
            mnem => {
                // Binary or unary arithmetic: `<op> <ty> %a[, %b]`.
                if let Some(op) = BinOp::from_mnemonic(mnem) {
                    let ty = parse_type(self.lex)?;
                    let ops = self.parse_operand_list()?;
                    if ops.len() != 2 {
                        return Err(self.lex.err(format!("`{mnem}` takes 2 operands")));
                    }
                    self.define(
                        result,
                        InstKind::Binary {
                            op,
                            lhs: ops[0],
                            rhs: ops[1],
                        },
                        ty,
                    )
                } else if let Some(op) = UnOp::from_mnemonic(mnem) {
                    let ty = parse_type(self.lex)?;
                    let n = self.lex.expect_value()?;
                    let operand = self.value_strict(n)?;
                    self.define(result, InstKind::Unary { op, operand }, ty)
                } else {
                    Err(self.lex.err(format!("unknown instruction `{mnem}`")))
                }
            }
        }
    }

    fn parse_effect_inst(&mut self, op: &str) -> Result<(), ParseError> {
        match op {
            "store" => {
                let ops = self.parse_operand_list()?;
                if ops.len() != 2 {
                    return Err(self.lex.err("store takes 2 operands"));
                }
                self.emit_effect(InstKind::Store {
                    ptr: ops[0],
                    value: ops[1],
                });
                Ok(())
            }
            "jmp" => {
                let label = self.lex.expect_ident()?;
                let target = self.block_ref(label);
                self.emit_effect(InstKind::Jump { target });
                Ok(())
            }
            "br" => {
                let n = self.lex.expect_value()?;
                let cond = self.value_strict(n)?;
                self.lex.expect_punct(',')?;
                let t = self.lex.expect_ident()?;
                self.lex.expect_punct(',')?;
                let e = self.lex.expect_ident()?;
                let on_true = self.block_ref(t);
                let on_false = self.block_ref(e);
                self.emit_effect(InstKind::Branch {
                    cond,
                    on_true,
                    on_false,
                });
                Ok(())
            }
            "ret" => {
                let value = if let Some(Tok::Value(_)) = self.lex.peek() {
                    let n = self.lex.expect_value()?;
                    Some(self.value_strict(n)?)
                } else {
                    None
                };
                self.emit_effect(InstKind::Ret { value });
                Ok(())
            }
            other => Err(self.lex.err(format!("unknown instruction `{other}`"))),
        }
    }
}

fn parse_function(lex: &mut Lexer<'_>) -> Result<Function, ParseError> {
    lex.expect_keyword("func")?;
    let name = match lex.next()? {
        Tok::At(s) => s,
        t => return Err(lex.err(format!("expected @name, found {t:?}"))),
    };
    lex.expect_punct('(')?;
    let mut params = Vec::new();
    let mut names = Vec::new();
    if !lex.eat_punct(')') {
        loop {
            let pname = lex.expect_value()?;
            lex.expect_punct(':')?;
            let ty = parse_type(lex)?;
            let noalias = lex.eat_keyword("noalias");
            names.push(pname);
            params.push(Param {
                name: pname.to_string(),
                ty,
                noalias,
            });
            if lex.eat_punct(')') {
                break;
            }
            lex.expect_punct(',')?;
        }
    }
    match lex.next()? {
        Tok::Arrow => {}
        t => return Err(lex.err(format!("expected `->`, found {t:?}"))),
    }
    let ret_ty = parse_type(lex)?;
    let fast_math = lex.eat_keyword("fastmath");
    lex.expect_punct('{')?;

    let mut func = Function::new(name, params, ret_ty);
    func.fast_math = fast_math;
    // A later parameter of the same name shadows an earlier one.
    let values = names
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, func.param(i)))
        .collect();
    let cur = func.entry();
    let mut fp = FuncParser {
        lex,
        func,
        values,
        pending: HashMap::new(),
        blocks: HashMap::new(),
        cur,
        saw_first_label: false,
    };
    fp.parse_body()?;
    Ok(fp.func)
}

/// Parses every function of `src`, in order.
fn parse_functions(src: &str) -> Result<Vec<Function>, ParseError> {
    let mut lex = lex(src)?;
    let mut functions = Vec::new();
    while lex.peek().is_some() {
        functions.push(parse_function(&mut lex)?);
    }
    Ok(functions)
}

/// Parses a module containing zero or more functions.
///
/// # Errors
///
/// Returns a [`ParseError`] with line information on malformed input.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut module = Module::new("parsed");
    module.extend(parse_functions(src)?);
    Ok(module)
}

/// Parses exactly one function.
///
/// # Errors
///
/// Returns a [`ParseError`] if the input does not contain exactly one
/// well-formed function.
pub fn parse_function_str(src: &str) -> Result<Function, ParseError> {
    let mut functions = parse_functions(src)?;
    let n = functions.len();
    match functions.pop() {
        Some(f) if n == 1 => Ok(f),
        _ => Err(ParseError {
            line: 0,
            col: 0,
            message: format!("expected exactly 1 function, found {n}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::ScalarType;

    #[test]
    fn parse_simple() {
        let f = parse_function_str(
            "func @f(%p: ptr noalias, %n: i64) -> void fastmath {
             entry:
               %v = load f64, %p
               %s = add f64 %v, %v
               store %p, %s
               ret
             }",
        )
        .unwrap();
        assert_eq!(f.name(), "f");
        assert!(f.fast_math);
        assert!(f.params()[0].noalias);
        assert!(!f.params()[1].noalias);
        assert_eq!(f.num_linked_insts(), 4);
    }

    #[test]
    fn parse_loop_with_phi_forward_ref() {
        let f = parse_function_str(
            "func @g(%p: ptr noalias, %n: i64) -> void {
             entry:
               %z = const i64 0
               jmp loop
             loop:
               %i = phi i64 [entry: %z, loop: %inext]
               %one = const i64 1
               %inext = add i64 %i, %one
               %c = cmp lt i64 %inext, %n
               br %c, loop, exit
             exit:
               ret
             }",
        )
        .unwrap();
        assert_eq!(f.num_blocks(), 3);
        // Round trip: print and reparse.
        let text = f.to_string();
        let f2 = parse_function_str(&text).unwrap();
        assert_eq!(f2.num_linked_insts(), f.num_linked_insts());
        assert_eq!(f2.num_blocks(), f.num_blocks());
    }

    #[test]
    fn parse_vector_ops() {
        let f = parse_function_str(
            "func @v(%p: ptr noalias) -> void {
             entry:
               %a = load f32x4, %p
               %b = shuffle %a, %a, [3, 2, 1, 0]
               %c = lanewise [add, sub, add, sub] f32x4 %a, %b
               %x = extract %c, 2
               %d = insert %c, %x, 0
               %s = splat 4 %x
               %bv = buildvec %x, %x
               store %p, %d
               ret
             }",
        )
        .unwrap();
        assert_eq!(
            f.ty(f.block(f.entry()).insts()[2]),
            Type::vector(ScalarType::F32, 4)
        );
        let text = f.to_string();
        let f2 = parse_function_str(&text).unwrap();
        assert_eq!(f2.num_linked_insts(), f.num_linked_insts());
    }

    #[test]
    fn error_on_undefined_value() {
        let e = parse_function_str(
            "func @f() -> void {
             entry:
               %s = add f64 %v, %v
               ret
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("undefined value"));
        assert_eq!(e.line, 3);
    }

    #[test]
    fn error_on_unresolved_phi_operand() {
        let e = parse_function_str(
            "func @f() -> void {
             entry:
               %x = phi i64 [entry: %nope]
               ret
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("undefined value"));
    }

    #[test]
    fn unresolved_phi_error_names_the_first_operand() {
        let src = "func @f() -> void {\nentry:\n  %x = phi i64 [entry: %a, entry: %b, entry: %c]\n  ret\n}";
        for _ in 0..64 {
            let e = parse_function_str(src).unwrap_err();
            assert_eq!(e.message, "use of undefined value `%a` (phi operand)");
        }
    }

    #[test]
    fn error_on_redefinition() {
        let e = parse_function_str(
            "func @f() -> void {
             entry:
               %x = const i64 1
               %x = const i64 2
               ret
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("redefinition"));
    }

    #[test]
    fn comments_are_skipped() {
        let f = parse_function_str(
            "; leading comment
             func @f() -> void { # trailing
             entry: ; entry block
               ret
             }",
        )
        .unwrap();
        assert_eq!(f.num_linked_insts(), 1);
    }

    #[test]
    fn builder_output_round_trips() {
        let mut fb = FunctionBuilder::new(
            "k",
            vec![
                Param::noalias_ptr("a"),
                Param::new("n", Type::scalar(ScalarType::I64)),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let n = fb.func().param(1);
        fb.counted_loop(n, |fb, i| {
            let eight = fb.const_i64(8);
            let off = fb.mul(i, eight);
            let p = fb.ptradd(a, off);
            let v = fb.load(ScalarType::F64, p);
            let half = fb.const_f64(0.5);
            let s = fb.mul(v, half);
            fb.store(p, s);
        });
        fb.ret(None);
        let f = fb.finish();
        let f2 = parse_function_str(&f.to_string()).unwrap();
        assert_eq!(f2.num_linked_insts(), f.num_linked_insts());
        assert_eq!(f2.num_blocks(), f.num_blocks());
        // Printing the reparsed function is stable modulo value numbering.
        let f3 = parse_function_str(&f2.to_string()).unwrap();
        assert_eq!(f3.num_linked_insts(), f2.num_linked_insts());
    }

    #[test]
    fn negative_and_special_float_literals() {
        let f = parse_function_str(
            "func @c() -> void {
             entry:
               %a = const f64 -1.5
               %b = const f64 1e-3
               %c = const i32 -7
               ret
             }",
        )
        .unwrap();
        assert_eq!(f.num_linked_insts(), 4);
    }
}
