//! Recursive-descent parser for mini-C.

use std::fmt;

use crate::ast::*;
use crate::lexer::{Token, TokenKind};

/// Syntax error with source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was expected / found.
    pub message: String,
    /// 1-based source line (0 at end of input).
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (line {})", self.message, self.line)
    }
}

impl std::error::Error for ParseError {}

const TYPE_WORDS: &[&str] = &[
    "int",
    "char",
    "void",
    "long",
    "short",
    "unsigned",
    "signed",
    "uint8_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "int8_t",
    "int16_t",
    "int32_t",
    "int64_t",
    "size_t",
    "ssize_t",
    "bool",
    "uintptr_t",
];
const QUALIFIERS: &[&str] = &[
    "const", "volatile", "static", "register", "extern", "inline",
];

/// Deepest nesting a program may build: nested statements, and the
/// depth of every expression tree. Parentheses, casts and right-nested
/// operators count too, so this bounds the parser's recursion as well as
/// lowering's and drop's, and deep input gets a located error instead
/// of overflowing the stack.
const MAX_DEPTH: usize = 256;

/// An expression and the depth of its tree.
type Parsed = (Expr, usize);

/// Binary operators with their precedence; higher binds tighter.
const BINARY: [(&str, BinAst, u8); 18] = [
    ("||", BinAst::LogOr, 0),
    ("&&", BinAst::LogAnd, 1),
    ("|", BinAst::BitOr, 2),
    ("^", BinAst::BitXor, 3),
    ("&", BinAst::BitAnd, 4),
    ("==", BinAst::Eq, 5),
    ("!=", BinAst::Ne, 5),
    ("<=", BinAst::Le, 6),
    (">=", BinAst::Ge, 6),
    ("<", BinAst::Lt, 6),
    (">", BinAst::Gt, 6),
    ("<<", BinAst::Shl, 7),
    (">>", BinAst::Shr, 7),
    ("+", BinAst::Add, 8),
    ("-", BinAst::Sub, 8),
    ("*", BinAst::Mul, 9),
    ("/", BinAst::Div, 9),
    ("%", BinAst::Rem, 9),
];

struct Parser<'t> {
    toks: &'t [Token],
    pos: usize,
    /// Nested productions currently open (see [`Parser::nested`]).
    open: usize,
}

/// Parses a token stream into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax problem.
pub fn parse(tokens: &[Token]) -> Result<Program, ParseError> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        open: 0,
    };
    let mut prog = Program::default();
    while !p.at_end() {
        p.parse_top(&mut prog)?;
    }
    Ok(prog)
}

impl<'t> Parser<'t> {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn line(&self) -> usize {
        self.toks.get(self.pos).map_or(0, |t| t.line)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    fn too_deep<T>(&self) -> Result<T, ParseError> {
        self.err(format!("program nests deeper than {MAX_DEPTH} levels"))
    }

    /// Runs the production `f` one nesting level deeper, failing past
    /// [`MAX_DEPTH`] before it recurses.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.open >= MAX_DEPTH {
            return self.too_deep();
        }
        self.open += 1;
        let r = f(self);
        self.open -= 1;
        r
    }

    fn peek_punct(&self, p: &str) -> bool {
        matches!(self.toks.get(self.pos), Some(Token { kind: TokenKind::Punct(q), .. }) if *q == p)
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.toks.get(self.pos) {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => Some(s),
            _ => None,
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.peek_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`"))
        }
    }

    fn eat_ident_exact(&mut self, word: &str) -> bool {
        if self.peek_ident() == Some(word) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.toks.get(self.pos) {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => self.err("expected identifier"),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.toks.get(self.pos) {
            Some(Token {
                kind: TokenKind::Int(v),
                ..
            }) => {
                let v = *v;
                self.pos += 1;
                Ok(v)
            }
            _ => self.err("expected integer literal"),
        }
    }

    /// An array dimension: a positive integer literal that fits in `u32`.
    /// Rejects negative, zero, and oversized sizes instead of silently
    /// wrapping through an `as u32` cast.
    fn expect_array_size(&mut self) -> Result<u32, ParseError> {
        let v = self.expect_int()?;
        match u32::try_from(v) {
            Ok(n) if n > 0 => Ok(n),
            _ => self.err(format!("invalid array size {v}")),
        }
    }

    /// Parses a type if one starts here.
    fn try_type(&mut self) -> Option<TypeSpec> {
        let start = self.pos;
        let mut is_register = false;
        let mut saw_base = false;
        let mut is_void = false;
        loop {
            match self.peek_ident() {
                Some(w) if QUALIFIERS.contains(&w) => {
                    if w == "register" {
                        is_register = true;
                    }
                    self.pos += 1;
                }
                Some(w) if TYPE_WORDS.contains(&w) => {
                    if w == "void" {
                        is_void = true;
                    }
                    saw_base = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !saw_base {
            self.pos = start;
            return None;
        }
        let mut ptr_depth = 0;
        while self.eat_punct("*") {
            ptr_depth += 1;
        }
        if ptr_depth > 0 {
            is_void = false; // void* is a pointer
        }
        Some(TypeSpec {
            is_void,
            ptr_depth,
            is_register,
        })
    }

    fn parse_top(&mut self, prog: &mut Program) -> Result<(), ParseError> {
        let Some(ty) = self.try_type() else {
            return self.err("expected declaration");
        };
        let name = self.expect_ident()?;
        if self.peek_punct("(") {
            prog.functions.push(self.parse_func(ty, name)?);
            return Ok(());
        }
        // Global declaration(s), comma-separated.
        let mut ty = ty;
        let mut name = name;
        loop {
            let mut size = 1u32;
            if self.eat_punct("[") {
                size = self.expect_array_size()?;
                self.expect_punct("]")?;
                // multi-dimensional arrays flattened
                while self.eat_punct("[") {
                    let dim = self.expect_array_size()?;
                    size = match size.checked_mul(dim) {
                        Some(s) => s,
                        None => return self.err("array size overflows u32"),
                    };
                    self.expect_punct("]")?;
                }
            }
            let mut init = Vec::new();
            if self.eat_punct("=") {
                if self.eat_punct("{") {
                    if !self.peek_punct("}") {
                        loop {
                            init.push(self.parse_const_int()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                    }
                    self.expect_punct("}")?;
                } else {
                    init.push(self.parse_const_int()?);
                }
            }
            prog.globals.push(GlobalDecl {
                ty: ty.clone(),
                name,
                size,
                init,
            });
            if self.eat_punct(",") {
                // subsequent declarators share the base type
                let mut depth = 0;
                while self.eat_punct("*") {
                    depth += 1;
                }
                ty = TypeSpec {
                    ptr_depth: depth,
                    ..ty.clone()
                };
                name = self.expect_ident()?;
                continue;
            }
            self.expect_punct(";")?;
            return Ok(());
        }
    }

    fn parse_const_int(&mut self) -> Result<i64, ParseError> {
        let neg = self.eat_punct("-");
        let v = self.expect_int()?;
        Ok(if neg { -v } else { v })
    }

    fn parse_func(&mut self, ret: TypeSpec, name: String) -> Result<FuncDef, ParseError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.peek_punct(")") {
            if self.eat_ident_exact("void") && self.peek_punct(")") {
                // f(void)
            } else {
                loop {
                    let ty = self.try_type().ok_or_else(|| ParseError {
                        message: "expected parameter type".into(),
                        line: self.line(),
                    })?;
                    let pname = self.expect_ident()?;
                    // array parameter decays to pointer
                    let ty = if self.eat_punct("[") {
                        let _ = self.expect_int();
                        self.expect_punct("]")?;
                        TypeSpec {
                            ptr_depth: ty.ptr_depth + 1,
                            ..ty
                        }
                    } else {
                        ty
                    };
                    params.push((ty, pname));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            }
        }
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let body = self.parse_block_body()?;
        Ok(FuncDef {
            ret,
            name,
            params,
            body,
        })
    }

    fn parse_block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            if self.at_end() {
                return self.err("unexpected end of input in block");
            }
            out.push(self.parse_stmt()?);
        }
        Ok(out)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt)
    }

    /// One statement. Compound statements recurse through this
    /// dispatcher, so each kind is parsed in its own function and the
    /// frame each nesting level costs stays small.
    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_punct("{") {
            return Ok(Stmt::Block(self.parse_block_body()?));
        }
        if self.eat_punct(";") {
            return Ok(Stmt::Block(Vec::new()));
        }
        if self.eat_ident_exact("if") {
            return self.parse_if();
        }
        if self.eat_ident_exact("do") {
            return self.parse_do();
        }
        if self.eat_ident_exact("while") {
            return self.parse_while();
        }
        if self.eat_ident_exact("for") {
            return self.parse_for();
        }
        self.parse_leaf_stmt()
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let cond = self.parse_cond()?;
        let then_s = vec![self.parse_stmt()?];
        let else_s = if self.eat_ident_exact("else") {
            vec![self.parse_stmt()?]
        } else {
            Vec::new()
        };
        Ok(Stmt::If(cond, then_s, else_s))
    }

    fn parse_do(&mut self) -> Result<Stmt, ParseError> {
        let body = vec![self.parse_stmt()?];
        if !self.eat_ident_exact("while") {
            return self.err("expected `while` after do-body");
        }
        let cond = self.parse_cond()?;
        self.expect_punct(";")?;
        Ok(Stmt::DoWhile(body, cond))
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        let cond = self.parse_cond()?;
        let body = vec![self.parse_stmt()?];
        Ok(Stmt::While(cond, body))
    }

    /// `for(init; cond; step) body  ==>  { init; while(cond) { body; step } }`
    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        self.expect_punct("(")?;
        let init = if self.peek_punct(";") {
            None
        } else {
            Some(self.parse_simple_stmt()?)
        };
        self.expect_punct(";")?;
        let cond = if self.peek_punct(";") {
            Expr::Int(1)
        } else {
            self.parse_expr()?.0
        };
        self.expect_punct(";")?;
        let step = if self.peek_punct(")") {
            None
        } else {
            Some(self.parse_expr()?.0)
        };
        self.expect_punct(")")?;
        let mut body = vec![self.parse_stmt()?];
        if let Some(s) = step {
            body.push(Stmt::Expr(s));
        }
        let mut block = Vec::new();
        if let Some(i) = init {
            block.push(i);
        }
        block.push(Stmt::While(cond, body));
        Ok(Stmt::Block(block))
    }

    /// A parenthesized condition.
    fn parse_cond(&mut self) -> Result<Expr, ParseError> {
        self.expect_punct("(")?;
        let cond = self.parse_expr()?.0;
        self.expect_punct(")")?;
        Ok(cond)
    }

    /// A statement that holds no nested statement.
    fn parse_leaf_stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_ident_exact("break") {
            self.expect_punct(";")?;
            return Ok(Stmt::Break);
        }
        if self.eat_ident_exact("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt::Continue);
        }
        if self.eat_ident_exact("return") {
            if self.eat_punct(";") {
                return Ok(Stmt::Return(None));
            }
            let e = self.parse_expr()?.0;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(Some(e)));
        }
        let s = self.parse_simple_stmt()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    /// A declaration or expression without trailing `;` (for `for` inits).
    fn parse_simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        if let Some(ty) = self.try_type() {
            let name = self.expect_ident()?;
            let mut size = None;
            if self.eat_punct("[") {
                size = Some(self.expect_array_size()?);
                self.expect_punct("]")?;
            }
            let init = if self.eat_punct("=") {
                Some(self.parse_expr()?.0)
            } else {
                None
            };
            return Ok(Stmt::Decl(ty, name, size, init));
        }
        // lfence intrinsic.
        if self.peek_ident() == Some("lfence") || self.peek_ident() == Some("__lfence") {
            self.pos += 1;
            self.expect_punct("(")?;
            self.expect_punct(")")?;
            return Ok(Stmt::Fence);
        }
        Ok(Stmt::Expr(self.parse_expr()?.0))
    }

    // Expression grammar, lowest precedence first. Every production
    // returns its tree's depth, so iteratively built chains (`x + … + x`,
    // `a[0][0]…`) are capped like the recursive ones.
    fn parse_expr(&mut self) -> Result<Parsed, ParseError> {
        self.nested(Self::parse_assign)
    }

    /// A node of the given depth, unless it and the productions open
    /// around it nest deeper than [`MAX_DEPTH`]. Counting the enclosing
    /// statements bounds lowering, which recurses through both.
    fn node(&self, e: Expr, depth: usize) -> Result<Parsed, ParseError> {
        if self.open + depth > MAX_DEPTH {
            return self.too_deep();
        }
        Ok((e, depth))
    }

    fn bin(&self, op: BinAst, (l, dl): Parsed, (r, dr): Parsed) -> Result<Parsed, ParseError> {
        self.node(Expr::Bin(op, Box::new(l), Box::new(r)), 1 + dl.max(dr))
    }

    /// `x op= y` and `x++` copy `x` into their desugaring, so `x` must
    /// have no side effect: an assignment or call inside it would run
    /// twice, and nested copies would grow the tree exponentially.
    fn copyable(&self, e: &Expr) -> Result<(), ParseError> {
        match side_effect(e) {
            Some(what) => self.err(format!("{what} inside the operand of `++`, `--` or `op=`")),
            None => Ok(()),
        }
    }

    fn parse_assign(&mut self) -> Result<Parsed, ParseError> {
        let (lhs, dl) = self.parse_ternary()?;
        for (tok, op) in [
            ("+=", Some(BinAst::Add)),
            ("-=", Some(BinAst::Sub)),
            ("*=", Some(BinAst::Mul)),
            ("/=", Some(BinAst::Div)),
            ("%=", Some(BinAst::Rem)),
            ("&=", Some(BinAst::BitAnd)),
            ("|=", Some(BinAst::BitOr)),
            ("^=", Some(BinAst::BitXor)),
            ("<<=", Some(BinAst::Shl)),
            (">>=", Some(BinAst::Shr)),
            ("=", None),
        ] {
            if self.peek_punct(tok) {
                self.pos += 1;
                let rhs = self.nested(Self::parse_assign)?;
                let (rhs, dr) = match op {
                    Some(op) => {
                        self.copyable(&lhs)?;
                        self.bin(op, (lhs.clone(), dl), rhs)?
                    }
                    None => rhs,
                };
                return self.node(Expr::Assign(Box::new(lhs), Box::new(rhs)), 1 + dl.max(dr));
            }
        }
        Ok((lhs, dl))
    }

    fn parse_ternary(&mut self) -> Result<Parsed, ParseError> {
        let (c, dc) = self.parse_binary(0)?;
        if self.eat_punct("?") {
            let (a, da) = self.parse_expr()?;
            self.expect_punct(":")?;
            let (b, db) = self.nested(Self::parse_ternary)?;
            let depth = 1 + dc.max(da).max(db);
            return self.node(Expr::Ternary(Box::new(c), Box::new(a), Box::new(b)), depth);
        }
        Ok((c, dc))
    }

    /// Left-associative binary operators binding at least as tightly as
    /// `min`, by precedence climbing: a loop per level, recursion only
    /// into a tighter level, so the parser's depth stays bounded.
    fn parse_binary(&mut self, min: u8) -> Result<Parsed, ParseError> {
        let mut e = self.parse_unary()?;
        while let Some(&(_, op, prec)) = self.peek_binary(min) {
            self.pos += 1;
            let r = self.parse_binary(prec + 1)?;
            e = self.bin(op, e, r)?;
        }
        Ok(e)
    }

    /// The binary operator at the cursor, if it binds at least as
    /// tightly as `min`.
    fn peek_binary(&self, min: u8) -> Option<&'static (&'static str, BinAst, u8)> {
        let Some(Token {
            kind: TokenKind::Punct(p),
            ..
        }) = self.toks.get(self.pos)
        else {
            return None;
        };
        BINARY.iter().find(|&&(t, _, prec)| prec >= min && t == *p)
    }

    fn parse_unary(&mut self) -> Result<Parsed, ParseError> {
        for (tok, op) in [
            ("-", UnAst::Neg),
            ("!", UnAst::Not),
            ("~", UnAst::BitNot),
            ("*", UnAst::Deref),
            ("&", UnAst::AddrOf),
        ] {
            if self.eat_punct(tok) {
                let (e, d) = self.nested(Self::parse_unary)?;
                return self.node(Expr::Un(op, Box::new(e)), d + 1);
            }
        }
        if self.eat_punct("(") {
            // Cast or parenthesized expression.
            let save = self.pos;
            if self.try_type().is_some() && self.eat_punct(")") {
                // Cast: types are all word-sized; casts are no-ops.
                return self.nested(Self::parse_unary);
            }
            self.pos = save;
            let e = self.parse_expr()?;
            self.expect_punct(")")?;
            return self.parse_postfix(e);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Parsed, ParseError> {
        if self.eat_ident_exact("sizeof") {
            self.expect_punct("(")?;
            // sizeof(ident) or sizeof(type) — type sizes are 1 word.
            let e = match self.peek_ident() {
                Some(w) if TYPE_WORDS.contains(&w) => {
                    let _ = self.try_type();
                    Expr::Int(1)
                }
                _ => Expr::SizeOf(self.expect_ident()?),
            };
            self.expect_punct(")")?;
            return Ok((e, 1));
        }
        if let Some(Token {
            kind: TokenKind::Int(v),
            ..
        }) = self.toks.get(self.pos)
        {
            let v = *v;
            self.pos += 1;
            return Ok((Expr::Int(v), 1));
        }
        let name = self.expect_ident()?;
        if self.peek_punct("(") {
            self.pos += 1;
            let mut args = Vec::new();
            let mut depth = 1;
            if !self.peek_punct(")") {
                loop {
                    let (arg, d) = self.parse_expr()?;
                    args.push(arg);
                    depth = depth.max(d + 1);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            }
            self.expect_punct(")")?;
            let call = self.node(Expr::Call(name, args), depth)?;
            return self.parse_postfix(call);
        }
        self.parse_postfix((Expr::Ident(name), 1))
    }

    fn parse_postfix(&mut self, (mut e, mut d): Parsed) -> Result<Parsed, ParseError> {
        loop {
            // Postfix ++/-- desugar to compound assignment (the expression
            // value is the *updated* value — a pre-increment approximation
            // adequate for statement position, where benchmarks use it).
            let step = if self.eat_punct("++") {
                Some(BinAst::Add)
            } else if self.eat_punct("--") {
                Some(BinAst::Sub)
            } else {
                None
            };
            if let Some(op) = step {
                self.copyable(&e)?;
                let bumped = Expr::Bin(op, Box::new(e.clone()), Box::new(Expr::Int(1)));
                (e, d) = self.node(Expr::Assign(Box::new(e), Box::new(bumped)), d + 2)?;
                continue;
            }
            if self.eat_punct("[") {
                let (idx, di) = self.parse_expr()?;
                self.expect_punct("]")?;
                (e, d) = self.node(Expr::Index(Box::new(e), Box::new(idx)), 1 + d.max(di))?;
                continue;
            }
            if self.eat_punct("->") || self.eat_punct(".") {
                // Struct field access: modelled as index 0 of the pointed-to
                // region (mini-C flattens structs to single words).
                let _field = self.expect_ident()?;
                (e, d) = self.node(Expr::Un(UnAst::Deref, Box::new(e)), d + 1)?;
                continue;
            }
            return Ok((e, d));
        }
    }
}

/// The first side effect in `e`, if any: an assignment or a call.
fn side_effect(e: &Expr) -> Option<&'static str> {
    match e {
        Expr::Assign(..) => Some("assignment"),
        Expr::Call(..) => Some("call"),
        Expr::Int(_) | Expr::Ident(_) | Expr::SizeOf(_) => None,
        Expr::Un(_, a) => side_effect(a),
        Expr::Bin(_, a, b) | Expr::Index(a, b) => side_effect(a).or_else(|| side_effect(b)),
        Expr::Ternary(a, b, c) => side_effect(a)
            .or_else(|| side_effect(b))
            .or_else(|| side_effect(c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn globals_with_arrays_and_inits() {
        let p = parse_src("int A[16]; uint8_t C[2] = {0, 0}; int size_A = 7;");
        assert_eq!(p.globals.len(), 3);
        assert_eq!(p.globals[0].size, 16);
        assert_eq!(p.globals[1].init, vec![0, 0]);
        assert_eq!(p.globals[2].init, vec![7]);
    }

    #[test]
    fn invalid_array_sizes_are_rejected() {
        // Used to wrap through `as u32` into a bogus (usually huge) size.
        for src in [
            "int A[-1];",
            "int A[0];",
            "int A[4294967296];",
            "int A[65536][65536];", // per-dim ok, product overflows u32
            "void f() { int a[-4]; }",
        ] {
            let toks = lex(src).unwrap();
            assert!(parse(&toks).is_err(), "accepted {src:?}");
        }
    }

    #[test]
    fn multi_dimensional_sizes_flatten() {
        let p = parse_src("int A[4][8];");
        assert_eq!(p.globals[0].size, 32);
    }

    #[test]
    fn comma_separated_globals() {
        let p = parse_src("int a, b, *c;");
        assert_eq!(p.globals.len(), 3);
        assert_eq!(p.globals[2].ty.ptr_depth, 1);
    }

    #[test]
    fn function_params_and_body() {
        let p = parse_src("void f(uint32_t idx, uint8_t *p) { *p = idx; }");
        let f = &p.functions[0];
        assert_eq!(f.params.len(), 2);
        assert!(f.params[1].0.is_ptr());
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn precedence_mul_before_add() {
        let p = parse_src("int f() { return 1 + 2 * 3; }");
        match &p.functions[0].body[0] {
            Stmt::Return(Some(Expr::Bin(BinAst::Add, _, r))) => {
                assert!(matches!(**r, Expr::Bin(BinAst::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compound_assignment_desugars() {
        let p = parse_src("int x; void f() { x += 2; }");
        match &p.functions[0].body[0] {
            Stmt::Expr(Expr::Assign(lhs, rhs)) => {
                assert_eq!(**lhs, Expr::Ident("x".into()));
                assert!(matches!(**rhs, Expr::Bin(BinAst::Add, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_desugars_to_while() {
        let p = parse_src("void f() { for (int i = 0; i < 3; i += 1) { } }");
        match &p.functions[0].body[0] {
            Stmt::Block(stmts) => {
                assert!(matches!(stmts[0], Stmt::Decl(..)));
                assert!(matches!(stmts[1], Stmt::While(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arrow_and_dot_become_deref() {
        let p = parse_src("void f(int *s) { return; } int g(int *s) { return s->hash; }");
        match &p.functions[1].body[0] {
            Stmt::Return(Some(Expr::Un(UnAst::Deref, _))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn casts_are_noops() {
        let p = parse_src("int f(int x) { return (int)(uint8_t)x; }");
        match &p.functions[0].body[0] {
            Stmt::Return(Some(Expr::Ident(_))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lfence_statement() {
        let p = parse_src("void f() { lfence(); }");
        assert_eq!(p.functions[0].body[0], Stmt::Fence);
    }

    #[test]
    fn call_inside_a_copied_operand_is_refused() {
        // `A[f()] += 1` desugars to `A[f()] = A[f()] + 1`, which would
        // call `f` twice.
        let src = "int c; int A[4];\nint f() { c = c + 1; return 0; }\nint g() { A[f()] += 1; return c; }";
        let e = parse(&lex(src).unwrap()).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("call inside the operand"), "{e:?}");
        for body in ["A[f()]++;", "A[f()]--;", "A[1 + f()] <<= 2;"] {
            let src = format!("int A[4]; int f() {{ return 0; }} void g() {{ {body} }}");
            assert!(parse(&lex(&src).unwrap()).is_err(), "{body}");
        }
        parse_src("int A[4]; int f() { return 0; } void g() { A[f()] = A[f()] + 1; }");
    }

    #[test]
    fn error_has_line_number() {
        let toks = lex("int f() {\n  return 1 +;\n}").unwrap();
        let e = parse(&toks).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn ternary_parsed() {
        let p = parse_src("int f(int x) { return x ? 1 : 2; }");
        assert!(matches!(
            p.functions[0].body[0],
            Stmt::Return(Some(Expr::Ternary(..)))
        ));
    }

    #[test]
    fn void_param_list() {
        let p = parse_src("int f(void) { return 0; }");
        assert!(p.functions[0].params.is_empty());
    }
}
