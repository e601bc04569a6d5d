//! A mini-C front end lowering to [`lcm_ir`] at `clang -O0` fidelity.
//!
//! Clou analyzes C compiled with `clang -O0` (§5). Two `-O0` behaviours are
//! load-bearing for the paper's findings and are reproduced faithfully here:
//!
//! * **parameters and locals live on the stack** — every variable access is
//!   a `load`/`store` through an `alloca`, which is exactly why Spectre v4
//!   (STL) gadgets can bypass the spill store of an index (§6.1), and why
//!   `clang -O0` "disregards the `register` keyword" (the paper repaired
//!   that by hand; we support `register` as *actually* keeping the variable
//!   in a virtual register so both variants can be expressed);
//! * **array indexing lowers to `getelementptr`** — the `addr_gep`
//!   dependency class (§5.2) that Clou-pht uses to filter benign leaks.
//!
//! The accepted language: word-sized integer types (`int`, `uint8_t`,
//! `uint32_t`, `uint64_t`, `size_t`, `char`, …— all modelled as one
//! abstract word), pointers (any depth), global arrays, functions,
//! `if`/`else`, `while`, `for`, short-circuit `&&`/`||`, the ternary
//! operator, compound assignment, `sizeof`, and the `lfence()` intrinsic.
//!
//! # Examples
//!
//! ```
//! let module = lcm_minic::compile(r#"
//!     int A[16]; int B[256]; int size_A; int tmp;
//!     void victim(int y) {
//!         if (y < size_A)
//!             tmp &= B[A[y]];
//!     }
//! "#).unwrap();
//! assert!(module.function("victim").is_some());
//! ```

mod ast;
mod lexer;
mod lower;
mod parser;

pub use ast::{BinAst, Expr, FuncDef, GlobalDecl, Program, Stmt, TypeSpec, UnAst};
pub use lexer::{lex, LexError, Token, TokenKind};
pub use parser::{parse, ParseError};

use lcm_ir::Module;

/// Front-end errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexical error.
    Lex(LexError),
    /// Syntax error.
    Parse(ParseError),
    /// Lowering error (e.g. undeclared identifier).
    Lower(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lex error: {e}"),
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Lower(e) => write!(f, "lowering error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LexError> for CompileError {
    fn from(e: LexError) -> Self {
        CompileError::Lex(e)
    }
}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<CompileError> for lcm_core::govern::AnalysisError {
    fn from(e: CompileError) -> Self {
        lcm_core::govern::AnalysisError::MalformedIr {
            message: e.to_string(),
        }
    }
}

/// Compiles mini-C source to an IR module.
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first lexical, syntactic, or
/// lowering problem.
pub fn compile(src: &str) -> Result<Module, CompileError> {
    let tokens = lex(src)?;
    let program = parse(&tokens)?;
    lower::lower(&program).map_err(CompileError::Lower)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_ir::interp::{InterpOutcome, Machine};
    use lcm_ir::verify::verify_module;

    fn run_fn(src: &str, f: &str, args: &[i64]) -> Option<i64> {
        let m = compile(src).unwrap();
        assert_eq!(verify_module(&m), Vec::<String>::new());
        let mut mach = Machine::new(&m);
        match mach.call(f, args, 1_000_000).unwrap() {
            InterpOutcome::Returned(v) => v,
        }
    }

    #[test]
    fn arithmetic_end_to_end() {
        let src = "int f(int x, int y) { return (x + y) * 2 - x % 3; }";
        assert_eq!(run_fn(src, "f", &[5, 7]), Some(22));
    }

    #[test]
    fn locals_spill_and_reload() {
        let src = "int f(int x) { int a; int b; a = x + 1; b = a * a; return b; }";
        assert_eq!(run_fn(src, "f", &[3]), Some(16));
    }

    #[test]
    fn global_array_roundtrip() {
        let src = "int A[8]; int f(int i) { A[i] = 42; return A[i] + 1; }";
        assert_eq!(run_fn(src, "f", &[2]), Some(43));
    }

    #[test]
    fn if_else_branches() {
        let src = "int f(int x) { if (x < 10) return 1; else return 2; }";
        assert_eq!(run_fn(src, "f", &[5]), Some(1));
        assert_eq!(run_fn(src, "f", &[15]), Some(2));
    }

    #[test]
    fn while_loop_sums() {
        let src = "int f(int n) { int s; int i; s = 0; i = 0; while (i < n) { s += i; i += 1; } return s; }";
        assert_eq!(run_fn(src, "f", &[0]), Some(0));
        assert_eq!(run_fn(src, "f", &[4]), Some(6));
    }

    #[test]
    fn for_loop_sums() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i += 1) s += i; return s; }";
        assert_eq!(run_fn(src, "f", &[5]), Some(10));
    }

    #[test]
    fn short_circuit_and() {
        // Division by zero would return 0 (total interp), so use a store
        // side effect to observe circuiting.
        let src = "int G; int f(int x) { if (x > 0 && set() ) return G; return G; } int set() { G = 7; return 1; }";
        assert_eq!(run_fn(src, "f", &[1]), Some(7));
        assert_eq!(run_fn(src, "f", &[0]), Some(0));
    }

    #[test]
    fn short_circuit_or() {
        let src = "int G; int set() { G = 9; return 1; } int f(int x) { if (x > 0 || set()) return G; return G; }";
        assert_eq!(run_fn(src, "f", &[1]), Some(0)); // set() not called
        assert_eq!(run_fn(src, "f", &[0]), Some(9));
    }

    #[test]
    fn ternary_expression() {
        let src = "int f(int x) { return x > 3 ? 10 : 20; }";
        assert_eq!(run_fn(src, "f", &[4]), Some(10));
        assert_eq!(run_fn(src, "f", &[1]), Some(20));
    }

    #[test]
    fn pointers_and_deref() {
        let src = "int G; int f(int v) { int *p; p = &G; *p = v; return G + *p; }";
        assert_eq!(run_fn(src, "f", &[21]), Some(42));
    }

    #[test]
    fn double_pointer() {
        let src = "int G; int f(int v) { int *p; int **pp; p = &G; pp = &p; **pp = v; return G; }";
        assert_eq!(run_fn(src, "f", &[5]), Some(5));
    }

    #[test]
    fn calls_between_functions() {
        let src =
            "int add(int a, int b) { return a + b; } int f(int x) { return add(x, add(x, 1)); }";
        assert_eq!(run_fn(src, "f", &[10]), Some(21));
    }

    #[test]
    fn compound_assignment_operators() {
        let src = "int f(int x) { int a = x; a += 3; a -= 1; a *= 2; a &= 255; a |= 1; a ^= 2; a <<= 1; a >>= 1; return a; }";
        assert_eq!(run_fn(src, "f", &[10]), Some(27));
    }

    #[test]
    fn sizeof_global_array() {
        let src = "int A[16]; int f() { return sizeof(A); }";
        assert_eq!(run_fn(src, "f", &[]), Some(16));
    }

    #[test]
    fn spectre_v1_shape_has_gep_dependencies() {
        let m = compile(
            "int A[16]; int B[256]; int size_A; int tmp;\n             void victim(int y) { if (y < size_A) { tmp &= B[A[y]]; } }",
        )
        .unwrap();
        let f = m.function("victim").unwrap();
        let geps = f
            .insts
            .iter()
            .filter(|i| matches!(i, lcm_ir::Inst::Gep { .. }))
            .count();
        assert!(geps >= 2, "expected nested gep indexing, got {geps}");
    }

    #[test]
    fn parameters_are_spilled_to_stack() {
        // clang -O0 fidelity: the parameter is stored to an alloca and
        // reloaded at each use.
        let m = compile("int f(int x) { return x + x; }").unwrap();
        let f = m.function("f").unwrap();
        let stores = f
            .insts
            .iter()
            .filter(|i| matches!(i, lcm_ir::Inst::Store { .. }))
            .count();
        let loads = f
            .insts
            .iter()
            .filter(|i| matches!(i, lcm_ir::Inst::Load { .. }))
            .count();
        assert_eq!(stores, 1, "param spilled once");
        assert_eq!(loads, 2, "each use reloads");
    }

    #[test]
    fn register_keyword_keeps_value_out_of_memory() {
        let m = compile("int f(register int x) { return x + x; }").unwrap();
        let f = m.function("f").unwrap();
        assert!(
            !f.insts
                .iter()
                .any(|i| matches!(i, lcm_ir::Inst::Store { .. })),
            "register parameter must not be spilled"
        );
    }

    #[test]
    fn lfence_intrinsic_lowers_to_fence() {
        let m = compile("void f() { lfence(); }").unwrap();
        let f = m.function("f").unwrap();
        assert!(f.insts.iter().any(|i| matches!(i, lcm_ir::Inst::Fence)));
    }

    #[test]
    fn secret_globals_marked_by_convention() {
        let m = compile("int sec_key[4]; int pub_data[4]; void f() {}").unwrap();
        assert!(m.global("sec_key").unwrap().1.secret);
        assert!(!m.global("pub_data").unwrap().1.secret);
    }

    #[test]
    fn pointer_global_marked() {
        let m = compile("int *table; int f() { return table[0]; }").unwrap();
        assert!(m.global("table").unwrap().1.is_ptr);
    }

    #[test]
    fn unknown_identifier_reports_error() {
        let e = compile("int f() { return nope; }").unwrap_err();
        assert!(matches!(e, CompileError::Lower(_)));
    }

    #[test]
    fn syntax_error_reported() {
        assert!(matches!(
            compile("int f( {").unwrap_err(),
            CompileError::Parse(_)
        ));
    }

    #[test]
    fn array_write_and_negative_unary() {
        let src = "int A[4]; int f(int i) { A[i] = -5; return -A[i]; }";
        assert_eq!(run_fn(src, "f", &[1]), Some(5));
    }

    #[test]
    fn not_and_bitnot() {
        let src = "int f(int x) { return !x + ~x; }";
        assert_eq!(run_fn(src, "f", &[0]), Some(0)); // 1 + (-1)
        assert_eq!(run_fn(src, "f", &[5]), Some(-6)); // 0 + (-6)
    }

    #[test]
    fn global_scalar_init_applied() {
        let src = "int G = 5; int f() { return G; }";
        assert_eq!(run_fn(src, "f", &[]), Some(5));
    }

    #[test]
    fn break_exits_innermost_loop() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < 100; i++) { if (i >= n) break; s += i; } return s; }";
        assert_eq!(run_fn(src, "f", &[4]), Some(6));
        assert_eq!(run_fn(src, "f", &[0]), Some(0));
    }

    #[test]
    fn continue_skips_iteration() {
        let src = "int f(int n) { int s = 0; int i = 0; while (i < n) { i++; if (i == 2) continue; s += i; } return s; }";
        // 1 + 3 + 4 = 8 for n = 4 (2 skipped)
        assert_eq!(run_fn(src, "f", &[4]), Some(8));
    }

    #[test]
    fn nested_break_targets_inner_loop() {
        let src = "int f() { int s = 0; for (int i = 0; i < 3; i++) { for (int j = 0; j < 10; j++) { if (j == 2) break; s += 1; } } return s; }";
        assert_eq!(run_fn(src, "f", &[]), Some(6));
    }

    #[test]
    fn increment_and_decrement() {
        let src = "int f(int x) { x++; x++; x--; return x; }";
        assert_eq!(run_fn(src, "f", &[10]), Some(11));
    }

    #[test]
    fn do_while_executes_at_least_once() {
        let src =
            "int f(int n) { int s = 0; int i = 0; do { s += 10; i++; } while (i < n); return s; }";
        assert_eq!(
            run_fn(src, "f", &[0]),
            Some(10),
            "body runs once even when cond is false"
        );
        assert_eq!(run_fn(src, "f", &[2]), Some(20));
    }

    #[test]
    fn do_while_supports_break_continue() {
        let src = "int f() { int s = 0; int i = 0; do { i++; if (i == 2) continue; if (i > 3) break; s += i; } while (1); return s; }";
        // i=1: s=1; i=2: skipped; i=3: s=4; i=4: break.
        assert_eq!(run_fn(src, "f", &[]), Some(4));
    }

    #[test]
    fn break_outside_loop_is_an_error() {
        let e = compile("void f() { break; }").unwrap_err();
        assert!(matches!(e, CompileError::Lower(_)));
    }

    /// Compiles `src` on a thread with the analysis daemon's default
    /// 2 MiB stack, so unbounded recursion aborts the test process.
    fn compile_on_small_stack(src: String) -> Result<Module, CompileError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || compile(&src))
            .unwrap()
            .join()
            .unwrap()
    }

    fn function(body: &str) -> String {
        format!("int A[4]; int x; int f(int y) {{ {body} return x; }}")
    }

    #[test]
    fn deep_nesting_is_a_located_parse_error() {
        let deep = [
            (
                "parentheses",
                format!("x = {}y{};", "(".repeat(1000), ")".repeat(1000)),
            ),
            ("casts", format!("x = {}y;", "(int)".repeat(1000))),
            ("unary", format!("x = {}y;", "- ".repeat(1000))),
            ("binary chain", format!("x = y{};", " + y".repeat(5999))),
            ("index chain", format!("x = A{};", "[0]".repeat(6000))),
            (
                "nested index",
                format!("x = {}0{};", "A[".repeat(1000), "]".repeat(1000)),
            ),
            (
                "nested calls",
                format!("x = {}y{};", "f(".repeat(1000), ")".repeat(1000)),
            ),
            ("assignment chain", format!("{}y;", "x = ".repeat(1000))),
            (
                "ternary chain",
                format!("x = {}y;", "y ? y : ".repeat(1000)),
            ),
            (
                "blocks",
                format!("{}{}", "{".repeat(100_000), "}".repeat(100_000)),
            ),
            ("ifs", format!("{}x = 1;", "if (y) ".repeat(1000))),
            ("whiles", format!("{}x = 1;", "while (y) ".repeat(1000))),
            ("fors", format!("{}x = 1;", "for (;y;) ".repeat(1000))),
        ];
        for (what, body) in deep {
            match compile_on_small_stack(function(&body)) {
                Err(CompileError::Parse(e)) => {
                    assert!(e.message.contains("deeper than"), "{what}: {e}");
                    assert_eq!(e.line, 1, "{what}: {e}");
                }
                other => panic!("{what}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn two_hundred_levels_still_compile() {
        let ok = [
            format!("x = {}y{};", "(".repeat(200), ")".repeat(200)),
            format!("x = {}y;", "- ".repeat(200)),
            format!("x = y{};", " + y".repeat(199)),
            format!("{}x = 1;{}", "{".repeat(200), "}".repeat(200)),
            format!("{}x = 1;", "if (y) ".repeat(200)),
        ];
        for body in ok {
            let src = function(&body);
            assert!(compile_on_small_stack(src.clone()).is_ok(), "{src}");
        }
    }

    #[test]
    fn copied_operands_must_not_assign() {
        // `x++` and `x op= y` copy `x`: an assignment inside it would run
        // twice, and stacking them would double the tree each time.
        for body in ["x++ ++;", "A[x++] += 1;", "A[x = 1]--;", "x++[A]++;"] {
            let e = compile(&function(body)).unwrap_err();
            assert!(matches!(e, CompileError::Parse(_)), "{body}: {e}");
        }
        assert!(compile(&function("A[x]++; A[y] += x++;")).is_ok());
    }
}
