//! Consistency and confidentiality predicates, written in a cat-style
//! relational language.
//!
//! The paper states every consistency predicate (§2.1.3) and every
//! confidentiality predicate (§3.2.2, §4.2) as acyclicity or emptiness of
//! relational expressions over a candidate execution, and §5.2 asks for
//! "an MCM and LCM to be provided as inputs alongside a C program". This
//! module is that input format: a small relational language in the
//! tradition of herd's *cat* files (Alglave et al.), evaluated against an
//! [`Execution`]. It is the only definition of the models in this crate:
//! SC, x86-TSO and the four confidentiality predicates are [`presets`],
//! cat sources plus constructors that parse each source once.
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! spec  := item ("&&" item)*
//! item  := clause | letdef
//! letdef:= "let" IDENT "=" expr            (a named definition, as in cat files)
//! clause:= ("acyclic" | "irreflexive" | "empty") "(" expr ")" ("as" IDENT)?
//! expr  := seq ("|" seq)* | seq ("&" seq)* | seq ("\" seq)*   (union/intersection/difference)
//! seq   := unary (";" unary)*                                  (relational join)
//! unary := atom postfix*          postfix: "+" (transitive closure),
//!                                          "*" (refl-transitive closure),
//!                                          "^-1" (transpose)
//! atom  := IDENT | "(" expr ")" | "0" (empty relation) | "id" | "[" SET "]"
//! ```
//!
//! Base relations: `po`, `tfo`, `po_loc`, `tfo_loc`, `loc` (pairs of
//! events with the same location), `rf`, `rfi`, `rfe`, `co`, `fr`, `com`,
//! `rfx`, `cox`, `frx`, `comx`, `addr`, `addr_gep`, `data`, `ctrl`, `dep`,
//! `id`, `0`.
//!
//! Event sets, each written `[SET]` and denoting the identity relation on
//! that set: `IW` (⊤ inits), `R` (architectural reads: loads and ⊥
//! observers), `W` (architectural writes: ⊤ and stores), `F` (fences),
//! `OBS` (⊥ observers) and `SW` (silent stores: stores that only read
//! their xstate element).
//!
//! A violated clause reports its `as` label, or `cat:<kind>` when it has
//! none, with a witness: a cycle for `acyclic`, the offending event for
//! `irreflexive`, and the first related pair for `empty` (one event when
//! the pair is `(a, a)`). Expressions nest at most 256 levels, which keeps
//! parsing, evaluation and dropping a model within a small stack.
//!
//! # Examples
//!
//! Store buffering is TSO-consistent but not SC-consistent:
//!
//! ```
//! use lcm_core::cat::presets;
//! use lcm_core::exec::ExecutionBuilder;
//!
//! let mut b = ExecutionBuilder::new();
//! let w0 = b.write("x");
//! let r0 = b.read("y");
//! b.po(w0, r0);
//! b.on_thread(1);
//! let w1 = b.write("y");
//! let r1 = b.read("x");
//! b.po(w1, r1); // both reads default to reading from ⊤ (stale)
//! let x = b.build();
//! assert!(presets::tso().check(&x).is_ok());
//! assert_eq!(presets::sc().check(&x).unwrap_err().axiom, "sc");
//! ```

use std::fmt;

use lcm_relalg::Relation;

use crate::event::{AccessMode, Event, EventKind};
use crate::exec::Execution;
use crate::EventId;

/// Parse error for cat specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatError {
    /// Description.
    pub message: String,
    /// Byte offset of the problem.
    pub at: usize,
}

impl fmt::Display for CatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.at)
    }
}

impl std::error::Error for CatError {}

/// Why a model rules an execution out: the violated clause and the events
/// witnessing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelViolation {
    /// The clause's `as` label, or `cat:<kind>` for an unlabelled clause.
    pub axiom: String,
    /// A cycle (`acyclic`), the reflexive event (`irreflexive`), or the
    /// first related pair (`empty`; one event when the pair is `(a, a)`).
    pub witness: Vec<EventId>,
}

/// Deepest expression tree a specification may build. Parenthesised
/// nesting counts too, so this bounds the parser's recursion as well as
/// evaluation and drop.
const MAX_DEPTH: usize = 256;

/// A relational expression. `Base`, `Set` and `Def` index [`BASE`],
/// [`SETS`] and the model's definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expr {
    Base(usize),
    Set(usize),
    Def(usize),
    Empty,
    Id,
    Union(Box<Expr>, Box<Expr>),
    Intersect(Box<Expr>, Box<Expr>),
    Difference(Box<Expr>, Box<Expr>),
    Seq(Box<Expr>, Box<Expr>),
    Transpose(Box<Expr>),
    Plus(Box<Expr>),
    Star(Box<Expr>),
}

/// One `predicate(expr) as label` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Clause {
    kind: ClauseKind,
    label: String,
    expr: Expr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClauseKind {
    Acyclic,
    Irreflexive,
    Empty,
}

/// A parsed cat-style model: named definitions plus a conjunction of
/// `acyclic` / `irreflexive` / `empty` clauses over relational
/// expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatModel {
    name: String,
    defs: Vec<(String, Expr)>,
    clauses: Vec<Clause>,
}

impl CatModel {
    /// Parses a specification.
    ///
    /// # Errors
    ///
    /// Returns a [`CatError`] with the byte offset of the first problem.
    pub fn parse(name: &str, spec: &str) -> Result<CatModel, CatError> {
        let mut p = Parser {
            src: spec.as_bytes(),
            pos: 0,
            open: 0,
            defs: Vec::new(),
        };
        let mut clauses = Vec::new();
        loop {
            p.skip_ws();
            if p.peek_word("let") {
                p.parse_letdef()?;
            } else {
                clauses.push(p.parse_clause()?);
            }
            p.skip_ws();
            if p.eat("&&") {
                continue;
            }
            p.skip_ws();
            if p.pos == p.src.len() {
                break;
            }
            return Err(CatError {
                message: "expected `&&` or end".into(),
                at: p.pos,
            });
        }
        if clauses.is_empty() {
            return Err(CatError {
                message: "a model needs at least one clause".into(),
                at: p.pos,
            });
        }
        Ok(CatModel {
            name: name.to_string(),
            defs: p.defs,
            clauses,
        })
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the model's clauses against an execution, in order.
    ///
    /// # Errors
    ///
    /// Returns the first violated clause with its witness.
    pub fn check(&self, x: &Execution) -> Result<(), ModelViolation> {
        // Definitions in order: each may use the ones before it.
        let mut defs: Vec<Relation> = Vec::with_capacity(self.defs.len());
        for (_, e) in &self.defs {
            let r = eval(e, x, &defs);
            defs.push(r);
        }
        for c in &self.clauses {
            let r = eval(&c.expr, x, &defs);
            let witness = match c.kind {
                ClauseKind::Acyclic => r.find_cycle(),
                ClauseKind::Irreflexive => (0..r.universe())
                    .find(|&i| r.contains(i, i))
                    .map(|e| vec![e]),
                ClauseKind::Empty => {
                    r.pairs()
                        .next()
                        .map(|(a, b)| if a == b { vec![a] } else { vec![a, b] })
                }
            };
            if let Some(w) = witness {
                return Err(ModelViolation {
                    axiom: c.label.clone(),
                    witness: w.into_iter().map(EventId).collect(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for CatModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cat model `{}` ({} clauses)",
            self.name,
            self.clauses.len()
        )
    }
}

/// A named base relation and how to compute it.
type NamedRelation = (&'static str, fn(&Execution) -> Relation);

/// A named event set and its membership test.
type NamedSet = (&'static str, fn(&Event) -> bool);

/// The base relations.
const BASE: &[NamedRelation] = &[
    ("po", |x| x.po().clone()),
    ("tfo", |x| x.tfo().clone()),
    ("po_loc", Execution::po_loc),
    ("tfo_loc", Execution::tfo_loc),
    ("loc", same_location),
    ("rf", |x| x.rf().clone()),
    ("rfi", Execution::rfi),
    ("rfe", Execution::rfe),
    ("co", |x| x.co().clone()),
    ("fr", Execution::fr),
    ("com", Execution::com),
    ("rfx", |x| x.rfx().clone()),
    ("cox", |x| x.cox().clone()),
    ("frx", Execution::frx),
    ("comx", Execution::comx),
    ("addr", |x| x.addr().clone()),
    ("addr_gep", |x| x.addr_gep().clone()),
    ("data", |x| x.data().clone()),
    ("ctrl", |x| x.ctrl().clone()),
    ("dep", Execution::dep),
];

/// The event sets `[SET]`.
const SETS: &[NamedSet] = &[
    ("IW", |e| e.kind() == EventKind::Init),
    ("R", |e| e.kind().is_arch_read()),
    ("W", |e| e.kind().is_arch_write()),
    ("F", |e| e.kind() == EventKind::Fence),
    ("OBS", |e| e.kind() == EventKind::Observer),
    ("SW", |e| {
        e.kind() == EventKind::Write && e.xmode() == Some(AccessMode::Read)
    }),
];

/// `loc`: pairs of events accessing the same location.
fn same_location(x: &Execution) -> Relation {
    let events = x.events();
    Relation::from_pairs(
        x.len(),
        events.iter().flat_map(|a| {
            events
                .iter()
                .filter(move |b| a.location().is_some() && a.location() == b.location())
                .map(move |b| (a.id().0, b.id().0))
        }),
    )
}

fn eval(e: &Expr, x: &Execution, defs: &[Relation]) -> Relation {
    match e {
        Expr::Base(i) => (BASE[*i].1)(x),
        Expr::Set(i) => {
            let member = SETS[*i].1;
            Relation::from_pairs(
                x.len(),
                x.events()
                    .iter()
                    .filter(|e| member(e))
                    .map(|e| (e.id().0, e.id().0)),
            )
        }
        Expr::Def(i) => defs[*i].clone(),
        Expr::Empty => Relation::empty(x.len()),
        Expr::Id => Relation::identity(x.len()),
        Expr::Union(a, b) => eval(a, x, defs).union(&eval(b, x, defs)),
        Expr::Intersect(a, b) => eval(a, x, defs).intersect(&eval(b, x, defs)),
        Expr::Difference(a, b) => eval(a, x, defs).difference(&eval(b, x, defs)),
        Expr::Seq(a, b) => eval(a, x, defs).compose(&eval(b, x, defs)),
        Expr::Transpose(a) => eval(a, x, defs).transpose(),
        Expr::Plus(a) => eval(a, x, defs).transitive_closure(),
        Expr::Star(a) => eval(a, x, defs).reflexive_transitive_closure(),
    }
}

/// An expression and the depth of its tree.
type Parsed = (Expr, usize);

struct Parser<'s> {
    src: &'s [u8],
    pos: usize,
    /// Parentheses open around the current position.
    open: usize,
    defs: Vec<(String, Expr)>,
}

impl<'s> Parser<'s> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(tok.as_bytes()) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CatError> {
        Err(CatError {
            message: msg.into(),
            at: self.pos,
        })
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            None
        } else {
            Some(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
        }
    }

    /// `true` if the next identifier is exactly `word` (without consuming).
    fn peek_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        let save = self.pos;
        let got = self.ident();
        self.pos = save;
        got.as_deref() == Some(word)
    }

    /// A node of the given depth, unless that exceeds [`MAX_DEPTH`].
    fn node(&self, e: Expr, depth: usize) -> Result<Parsed, CatError> {
        if depth > MAX_DEPTH {
            return self.err(format!("expression nests deeper than {MAX_DEPTH} levels"));
        }
        Ok((e, depth))
    }

    fn parse_letdef(&mut self) -> Result<(), CatError> {
        let _ = self.ident(); // "let"
        let at = self.pos;
        let Some(name) = self.ident() else {
            return self.err("expected definition name");
        };
        if BASE.iter().any(|(b, _)| *b == name) {
            return Err(CatError {
                message: format!("`{name}` shadows a base relation"),
                at,
            });
        }
        if !self.eat("=") {
            return self.err("expected `=`");
        }
        let (e, _) = self.parse_expr()?;
        self.defs.push((name, e));
        Ok(())
    }

    fn parse_clause(&mut self) -> Result<Clause, CatError> {
        self.skip_ws();
        let at = self.pos;
        let Some(head) = self.ident() else {
            return self.err("expected predicate name");
        };
        let kind = match head.as_str() {
            "acyclic" => ClauseKind::Acyclic,
            "irreflexive" => ClauseKind::Irreflexive,
            "empty" => ClauseKind::Empty,
            other => {
                return Err(CatError {
                    message: format!("unknown predicate `{other}`"),
                    at,
                })
            }
        };
        if !self.eat("(") {
            return self.err("expected `(`");
        }
        let (expr, _) = self.parse_expr()?;
        if !self.eat(")") {
            return self.err("expected `)`");
        }
        let label = if self.peek_word("as") {
            let _ = self.ident();
            match self.ident() {
                Some(label) => label,
                None => return self.err("expected clause label"),
            }
        } else {
            format!("cat:{head}")
        };
        Ok(Clause { kind, label, expr })
    }

    fn parse_expr(&mut self) -> Result<Parsed, CatError> {
        let (mut e, mut depth) = self.parse_seq()?;
        loop {
            self.skip_ws();
            let rest = &self.src[self.pos..];
            let op: fn(Box<Expr>, Box<Expr>) -> Expr =
                if rest.starts_with(b"|") && !rest.starts_with(b"||") {
                    Expr::Union
                } else if rest.starts_with(b"&") && !rest.starts_with(b"&&") {
                    Expr::Intersect
                } else if rest.starts_with(b"\\") {
                    Expr::Difference
                } else {
                    return Ok((e, depth));
                };
            self.pos += 1;
            let (r, rd) = self.parse_seq()?;
            (e, depth) = self.node(op(Box::new(e), Box::new(r)), 1 + depth.max(rd))?;
        }
    }

    fn peek_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn parse_seq(&mut self) -> Result<Parsed, CatError> {
        let (mut e, mut depth) = self.parse_unary()?;
        while self.eat(";") {
            let (r, rd) = self.parse_unary()?;
            (e, depth) = self.node(Expr::Seq(Box::new(e), Box::new(r)), 1 + depth.max(rd))?;
        }
        Ok((e, depth))
    }

    fn parse_unary(&mut self) -> Result<Parsed, CatError> {
        let (mut e, mut depth) = self.parse_atom()?;
        loop {
            let op: fn(Box<Expr>) -> Expr = if self.eat("^-1") {
                Expr::Transpose
            } else if self.eat("+") {
                Expr::Plus
            } else if self.eat("*") {
                Expr::Star
            } else {
                return Ok((e, depth));
            };
            (e, depth) = self.node(op(Box::new(e)), depth + 1)?;
        }
    }

    fn parse_atom(&mut self) -> Result<Parsed, CatError> {
        self.skip_ws();
        if self.eat("(") {
            self.open += 1;
            if self.open > MAX_DEPTH {
                return self.err(format!("expression nests deeper than {MAX_DEPTH} levels"));
            }
            let inner = self.parse_expr()?;
            if !self.eat(")") {
                return self.err("expected `)`");
            }
            self.open -= 1;
            return Ok(inner);
        }
        if self.eat("[") {
            let at = self.pos;
            let name = self.ident().unwrap_or_default();
            let Some(i) = SETS.iter().position(|(s, _)| *s == name) else {
                return Err(CatError {
                    message: format!("unknown event set `{name}`"),
                    at,
                });
            };
            if !self.eat("]") {
                return self.err("expected `]`");
            }
            return Ok((Expr::Set(i), 1));
        }
        if self.peek_byte() == Some(b'0') {
            self.pos += 1;
            return Ok((Expr::Empty, 1));
        }
        let at = self.pos;
        let Some(name) = self.ident() else {
            return self.err("expected relation name");
        };
        if name == "id" {
            return Ok((Expr::Id, 1));
        }
        // The latest definition of a name wins.
        if let Some(i) = self.defs.iter().rposition(|(n, _)| *n == name) {
            return Ok((Expr::Def(i), 1));
        }
        match BASE.iter().position(|(b, _)| *b == name) {
            Some(i) => Ok((Expr::Base(i), 1)),
            None => Err(CatError {
                message: format!("unknown relation `{name}`"),
                at,
            }),
        }
    }
}

/// The paper's models as cat sources, each with a constructor that parses
/// it once.
pub mod presets {
    use std::sync::OnceLock;

    use super::CatModel;

    /// `sc_per_loc` (§2.1.3): coherence.
    pub const SC_PER_LOC: &str = "acyclic(rf | co | fr | po_loc) as sc_per_loc";

    /// Sequential consistency: `acyclic(com ∪ po)`.
    pub const SC: &str = "acyclic(com | po) as sc";

    /// Intel x86 Total Store Order (§2.1.3): `sc_per_loc` and `causality`,
    /// where `ppo` keeps every program-order pair of memory events except
    /// write-to-read, which the store buffer relaxes. `rmw_atomicity` is
    /// vacuous because the vocabulary has no read-modify-write events.
    pub const TSO: &str = "let ppo = [W];po;[W] | [R];po;([R] | [W]) \
        && let fence = po;[F];po \
        && acyclic(rf | co | fr | po_loc) as sc_per_loc \
        && acyclic(rfe | co | fr | ppo | fence) as causality";

    /// The naive lift of `sc_per_loc` to xstate (§4.2) — too strong for
    /// real x86 (forbids Spectre v4).
    pub const SC_PER_LOC_X: &str = "acyclic(rfx | cox | frx | tfo_loc) as sc_per_loc_x";

    /// The LCM Clou hard-codes for Intel x86 (§5.2): write-allocate
    /// caches, no silent stores, no alias prediction (a load's xstate
    /// source accesses the same address, unless it is ⊤ or the load is a
    /// ⊥ probe), `comx` otherwise unconstrained. It permits
    /// `frx ∪ tfo_loc` cycles, so Spectre v4 executions (Fig. 4a) are
    /// possible.
    pub const X86_LCM: &str = "empty([SW]) as no_silent_stores \
        && empty(rfx \\ loc \\ [IW];rfx \\ rfx;[OBS]) as no_alias_prediction \
        && acyclic(rfx | cox) as acyclic_rfx_cox";

    /// [`X86_LCM`] with `sc_per_loc_x` in place of `rfx ∪ cox`
    /// acyclicity (§4.2). Forbids the Spectre v4 execution of Fig. 4a,
    /// which Intel processors exhibit: the paper keeps it to show why
    /// confidentiality predicates must be derived with care.
    pub const NAIVE_TSO_LIFT: &str = "empty([SW]) as no_silent_stores \
        && empty(rfx \\ loc \\ [IW];rfx \\ rfx;[OBS]) as no_alias_prediction \
        && acyclic(rfx | cox | frx | tfo_loc) as sc_per_loc_x";

    /// Hardware with the silent-store optimization (Fig. 5a): stores whose
    /// data matches memory may behave as reads. Alias prediction remains
    /// forbidden.
    pub const SILENT_STORE_LCM: &str =
        "empty(rfx \\ loc \\ [IW];rfx \\ rfx;[OBS]) as no_alias_prediction \
        && acyclic(rfx | cox) as acyclic_rfx_cox";

    /// Hardware with predictive store forwarding (Fig. 4b, Spectre-PSF):
    /// a load may forward from a store to a *mismatching* address.
    pub const PSF_LCM: &str = "empty([SW]) as no_silent_stores \
        && acyclic(rfx | cox) as acyclic_rfx_cox";

    fn parsed(cell: &'static OnceLock<CatModel>, name: &str, src: &str) -> &'static CatModel {
        cell.get_or_init(|| CatModel::parse(name, src).expect("preset parses"))
    }

    /// [`SC`], named `SC`.
    pub fn sc() -> &'static CatModel {
        static M: OnceLock<CatModel> = OnceLock::new();
        parsed(&M, "SC", SC)
    }

    /// [`TSO`], named `TSO`.
    pub fn tso() -> &'static CatModel {
        static M: OnceLock<CatModel> = OnceLock::new();
        parsed(&M, "TSO", TSO)
    }

    /// [`X86_LCM`], named `x86-LCM`.
    pub fn x86_lcm() -> &'static CatModel {
        static M: OnceLock<CatModel> = OnceLock::new();
        parsed(&M, "x86-LCM", X86_LCM)
    }

    /// [`NAIVE_TSO_LIFT`], named `naive-sc_per_loc_x`.
    pub fn naive_tso_lift() -> &'static CatModel {
        static M: OnceLock<CatModel> = OnceLock::new();
        parsed(&M, "naive-sc_per_loc_x", NAIVE_TSO_LIFT)
    }

    /// [`SILENT_STORE_LCM`], named `silent-store-LCM`.
    pub fn silent_store_lcm() -> &'static CatModel {
        static M: OnceLock<CatModel> = OnceLock::new();
        parsed(&M, "silent-store-LCM", SILENT_STORE_LCM)
    }

    /// [`PSF_LCM`], named `psf-LCM`.
    pub fn psf_lcm() -> &'static CatModel {
        static M: OnceLock<CatModel> = OnceLock::new();
        parsed(&M, "psf-LCM", PSF_LCM)
    }
}

#[cfg(test)]
mod tests {
    use super::presets::{naive_tso_lift, psf_lcm, sc, silent_store_lcm, tso, x86_lcm};
    use super::*;
    use crate::exec::ExecutionBuilder;
    use crate::Execution;

    /// Classic store-buffering (SB): Wx=1; Ry || Wy=1; Rx with both reads
    /// returning the initial value. Allowed under TSO, forbidden under SC.
    fn sb() -> Execution {
        let mut b = ExecutionBuilder::new();
        let w0 = b.write("x");
        let r0 = b.read("y");
        b.po(w0, r0);
        b.on_thread(1);
        let w1 = b.write("y");
        let r1 = b.read("x");
        b.po(w1, r1);
        // rf defaults: both reads from init -> fr(r0, w1), fr(r1, w0)
        b.build()
    }

    /// SB with `pre` on each thread before its write and `mid` between
    /// its write and its read.
    fn sb_with(pre: bool, mid: [bool; 2]) -> Execution {
        let mut b = ExecutionBuilder::new();
        for (t, (w, r)) in [("x", "y"), ("y", "x")].into_iter().enumerate() {
            b.on_thread(t);
            let mut chain = Vec::new();
            if pre {
                chain.push(b.fence());
            }
            chain.push(b.write(w));
            if mid[t] {
                chain.push(b.fence());
            }
            chain.push(b.read(r));
            b.po_chain(&chain);
        }
        b.build()
    }

    /// Message-passing (MP) with a stale read: Wx=1; Wy=1 || Ry(=1); Rx(=0).
    /// Forbidden under TSO (causality) and SC.
    fn message_passing_stale() -> Execution {
        let mut b = ExecutionBuilder::new();
        let wx = b.write("x");
        let wy = b.write("y");
        b.po(wx, wy);
        b.on_thread(1);
        let ry = b.read("y");
        let rx = b.read("x");
        b.po(ry, rx);
        b.rf(wy, ry); // observes the flag...
                      // rx reads from init (stale) -> fr(rx, wx)
        b.build()
    }

    /// Load buffering (LB): Rx(=1); Wy=1 || Ry(=1); Wx=1, each read
    /// seeing the other thread's write.
    fn load_buffering() -> Execution {
        let mut b = ExecutionBuilder::new();
        let rx = b.read("x");
        let wy = b.write("y");
        b.po(rx, wy);
        b.on_thread(1);
        let ry = b.read("y");
        let wx = b.write("x");
        b.po(ry, wx);
        b.rf(wy, ry).rf(wx, rx);
        b.build()
    }

    #[test]
    fn sb_allowed_on_tso_forbidden_on_sc() {
        let x = sb();
        assert!(x.well_formed().is_ok());
        assert!(tso().check(&x).is_ok());
        let v = sc().check(&x).unwrap_err();
        assert_eq!(v.axiom, "sc");
        assert!(v.witness.len() >= 2);
    }

    #[test]
    fn mp_stale_forbidden_on_tso() {
        let x = message_passing_stale();
        assert!(x.well_formed().is_ok());
        let v = tso().check(&x).unwrap_err();
        assert_eq!(v.axiom, "causality");
    }

    #[test]
    fn coherence_violation_caught_by_sc_per_loc() {
        // po: w1 -> w2 (same loc), but co: w2 -> w1.
        let mut b = ExecutionBuilder::new();
        let w1 = b.write("x");
        let w2 = b.write("x");
        b.po(w1, w2);
        b.co(w2, w1);
        let x = b.build();
        let v = tso().check(&x).unwrap_err();
        assert_eq!(v.axiom, "sc_per_loc");
    }

    #[test]
    fn straight_line_single_thread_is_consistent_everywhere() {
        let mut b = ExecutionBuilder::new();
        let r1 = b.read("size");
        let r2 = b.read("y");
        let w = b.write("tmp");
        b.po_chain(&[r1, r2, w]);
        let x = b.build();
        assert!(sc().check(&x).is_ok());
        assert!(tso().check(&x).is_ok());
    }

    #[test]
    fn tso_relaxes_only_write_to_read_order() {
        // W->R relaxed: SB is allowed.
        assert!(tso().check(&sb()).is_ok());
        // R->W preserved: LB is forbidden.
        let lb = load_buffering();
        assert!(lb.well_formed().is_ok());
        assert_eq!(tso().check(&lb).unwrap_err().axiom, "causality");
        // W->W and R->R preserved: stale MP is forbidden.
        assert!(tso().check(&message_passing_stale()).is_err());
    }

    #[test]
    fn fence_restores_write_to_read_order() {
        // SB with fences between write and read on both threads is
        // forbidden even under TSO.
        let v = tso().check(&sb_with(false, [true, true])).unwrap_err();
        assert_eq!(v.axiom, "causality");
    }

    #[test]
    fn tso_fence_orders_only_across_itself() {
        // A fence orders the events before it with those after it: on one
        // thread only, the other thread's write-to-read pair stays relaxed.
        assert!(tso().check(&sb_with(false, [true, false])).is_ok());
        // A fence before both events orders neither against the other.
        assert!(tso().check(&sb_with(true, [false, false])).is_ok());
    }

    #[test]
    fn silent_store_rejected_by_x86_allowed_by_silent_lcm() {
        let mut b = ExecutionBuilder::new();
        let w1 = b.write("x");
        let w2 = b.silent_write("x");
        b.po(w1, w2);
        b.co(w1, w2);
        b.rfx(w1, w2);
        let x = b.build();
        let v = x86_lcm().check(&x).unwrap_err();
        assert_eq!(v.axiom, "no_silent_stores");
        assert_eq!(v.witness, vec![w2]);
        assert!(silent_store_lcm().check(&x).is_ok());
    }

    #[test]
    fn cross_address_rfx_rejected_without_alias_prediction() {
        // Two distinct locations sharing an xstate element (PSF-style alias
        // prediction): rfx across addresses.
        let mut b = ExecutionBuilder::new();
        let w = b.write("C0");
        let r = b.transient_read("Cy");
        b.po(w, r);
        let xs = b.xstate_of(w).unwrap();
        b.set_xstate(r, xs);
        b.rfx(w, r);
        let x = b.build();
        let v = x86_lcm().check(&x).unwrap_err();
        assert_eq!(v.axiom, "no_alias_prediction");
        assert!(psf_lcm().check(&x).is_ok());
    }

    #[test]
    fn store_forwarding_stale_read_permitted_by_x86_forbidden_by_naive_lift() {
        // Spectre v4 core shape (Fig. 4a): R y; W y; R_s y where the
        // transient read microarchitecturally reads *before* the write
        // (rfx from the first read's fill), yielding frx(r_s, w) while
        // tfo_loc(w, r_s): an frx ∪ tfo_loc cycle.
        let mut b = ExecutionBuilder::new();
        let r1 = b.read("y");
        let w = b.write("y");
        let rs = b.transient_read_hit("y");
        b.po(r1, w);
        b.tfo_chain(&[r1, w, rs]);
        b.rfx(r1, rs); // stale: reads r1's fill, bypassing w
        let x = b.build();
        assert!(x86_lcm().check(&x).is_ok(), "x86 LCM permits Spectre v4");
        let v = naive_tso_lift().check(&x).unwrap_err();
        assert_eq!(v.axiom, "sc_per_loc_x");
        // The bare naive clause rules it out too; dropping frx from the
        // clause permits it.
        let naive = CatModel::parse("naive", presets::SC_PER_LOC_X).unwrap();
        assert_eq!(naive.check(&x).unwrap_err().axiom, "sc_per_loc_x");
        let relaxed = CatModel::parse("relaxed", "acyclic(rfx | cox)").unwrap();
        assert!(relaxed.check(&x).is_ok());
    }

    #[test]
    fn rfx_cox_cycle_rejected_everywhere() {
        let mut b = ExecutionBuilder::new();
        let w1 = b.write("x");
        let w2 = b.write("x");
        b.po(w1, w2);
        b.co(w1, w2);
        b.cox(w1, w2);
        b.cox(w2, w1);
        let x = b.build();
        assert!(x86_lcm().check(&x).is_err());
        assert!(silent_store_lcm().check(&x).is_err());
        assert!(psf_lcm().check(&x).is_err());
    }

    #[test]
    fn clean_execution_passes_all_models() {
        let mut b = ExecutionBuilder::new();
        let r = b.read("a");
        let w = b.write("b");
        b.po(r, w);
        let x = b.build();
        assert!(x86_lcm().check(&x).is_ok());
        assert!(naive_tso_lift().check(&x).is_ok());
        assert!(silent_store_lcm().check(&x).is_ok());
        assert!(psf_lcm().check(&x).is_ok());
    }

    #[test]
    fn fr_is_definable_in_the_language() {
        // fr = rf^-1 ; co — check equivalence via empty((fr \ that) | (that \ fr)).
        let spec = "empty((fr \\ (rf^-1 ; co)) | ((rf^-1 ; co) \\ fr))";
        let m = CatModel::parse("frdef", spec).unwrap();
        let mut b = ExecutionBuilder::new();
        let r = b.read("x");
        let w = b.write("x");
        b.po(r, w);
        assert!(m.check(&b.build()).is_ok());
    }

    #[test]
    fn closure_and_star_postfixes() {
        let m = CatModel::parse("t", "irreflexive(po+) && acyclic((rf | co)+)").unwrap();
        assert!(m.check(&sb()).is_ok());
        // po* contains id, so irreflexive(po*) must fail on any nonempty
        // universe.
        let m2 = CatModel::parse("t2", "irreflexive(po*)").unwrap();
        assert!(m2.check(&sb()).is_err());
    }

    #[test]
    fn parse_errors_are_located() {
        let e = CatModel::parse("bad", "acyclic(nope)").unwrap_err();
        assert!(e.message.contains("unknown relation"));
        assert_eq!(e.at, 8);
        assert!(CatModel::parse("bad", "whatever(po)").is_err());
        assert!(CatModel::parse("bad", "acyclic(po").is_err());
        assert!(CatModel::parse("bad", "acyclic(po) extra").is_err());
        let e = CatModel::parse("bad", "empty([X])").unwrap_err();
        assert!(e.message.contains("unknown event set"));
        assert_eq!(e.at, 7);
        assert!(CatModel::parse("bad", "empty([W)").is_err());
        assert!(CatModel::parse("bad", "acyclic(po) as").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let parens = format!("acyclic({}po{})", "(".repeat(10_000), ")".repeat(10_000));
        let postfix = format!("acyclic(po{})", "+".repeat(1_000_000));
        let union = format!("acyclic({}po)", "po | ".repeat(199_999));
        for spec in [&parens, &postfix, &union] {
            let e = CatModel::parse("deep", spec).unwrap_err();
            assert!(e.message.contains("nests deeper"), "{e}");
        }
        // The cap is far above what real models need.
        let ok = format!("acyclic({}po{})", "(".repeat(200), ")".repeat(200));
        assert!(CatModel::parse("ok", &ok).unwrap().check(&sb()).is_ok());
    }

    #[test]
    fn empty_and_id_atoms() {
        let m = CatModel::parse("t", "empty(0) && empty(po & 0) && irreflexive(po ; 0*)").unwrap();
        // po ; 0* = po ; id+... 0* = id, so po;id = po — irreflexive holds.
        assert!(m.check(&sb()).is_ok());
    }

    #[test]
    fn intersection_and_difference() {
        let m = CatModel::parse("t", "empty(rf & co) && empty(po \\ tfo)").unwrap();
        assert!(m.check(&sb()).is_ok());
    }

    #[test]
    fn event_sets_and_loc() {
        let x = sb();
        // Every po pair of SB is a write followed by a read.
        let m = CatModel::parse("t", "empty(po \\ [W];po;[R])").unwrap();
        assert!(m.check(&x).is_ok());
        // rf only relates events on one location; po never does in SB.
        let m = CatModel::parse("t", "empty(rf \\ loc) && empty(po & loc)").unwrap();
        assert!(m.check(&x).is_ok());
        // An empty clause on an event set reports the event alone.
        let v = CatModel::parse("t", "empty([IW])")
            .unwrap()
            .check(&x)
            .unwrap_err();
        assert_eq!(v.axiom, "cat:empty");
        assert_eq!(v.witness, vec![EventId(0)]);
        assert!(CatModel::parse("t", "empty([F] | [OBS] | [SW])")
            .unwrap()
            .check(&x)
            .is_ok());
    }

    #[test]
    fn clause_labels_name_violations() {
        let m = CatModel::parse("t", "acyclic(po) && irreflexive(po*) as reflexive").unwrap();
        assert_eq!(m.check(&sb()).unwrap_err().axiom, "reflexive");
        let m = CatModel::parse("t", "irreflexive(po*)").unwrap();
        assert_eq!(m.check(&sb()).unwrap_err().axiom, "cat:irreflexive");
    }

    #[test]
    fn let_bindings_name_intermediate_relations() {
        // TSO written with cat-file-style definitions.
        let m = CatModel::parse(
            "TSO-lets",
            "let communication = rf | co | fr && \
             let ppo = [W];po;[W] | [R];po;([R] | [W]) && \
             let fence = po;[F];po && \
             let hb = rfe | co | fr | ppo | fence && \
             acyclic(communication | po_loc) && acyclic(hb)",
        )
        .unwrap();
        let x = sb();
        assert_eq!(m.check(&x).is_ok(), tso().check(&x).is_ok());
        // Later definitions can use earlier ones.
        let chained = CatModel::parse(
            "chained",
            "let a = rf | co && let b = a | fr && acyclic(b | po_loc)",
        )
        .unwrap();
        assert!(chained.check(&sb()).is_ok());
    }

    #[test]
    fn let_cannot_shadow_base_relations() {
        let e = CatModel::parse("bad", "let rf = co && acyclic(rf)").unwrap_err();
        assert!(e.message.contains("shadows"));
        // And a spec of only definitions is rejected.
        assert!(CatModel::parse("empty", "let x = rf").is_err());
    }

    #[test]
    fn confidentiality_style_specs_work_on_microarch_relations() {
        // An LCM clause over comx: no xstate communication cycles.
        let m = CatModel::parse("lcm", "acyclic(comx)").unwrap();
        let mut b = ExecutionBuilder::new();
        let r = b.read("x");
        let o = b.observe("x");
        b.po(r, o);
        b.rfx(r, o);
        assert!(m.check(&b.build()).is_ok());
    }
}
