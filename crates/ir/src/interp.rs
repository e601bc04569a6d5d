//! The one interpreter for the IR.
//!
//! Used to validate that A-CFG construction (unrolling, inlining)
//! preserves straight-line semantics, by the corpus crate to sanity-check
//! benchmark programs, and by `lcm_aeg::trace` for dynamic LCM analysis.
//! The speculative oracle of `lcm-fuzz` runs on it too: its speculative
//! semantics is a [`Hook`] that redirects loads and branches and records
//! what an attacker observes. Not part of the static leakage analysis.

use std::collections::HashMap;

use crate::{Function, Inst, InstId, Module, Terminator};

/// How a function execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpOutcome {
    /// A `ret` was reached with the given value.
    Returned(Option<i64>),
}

/// Interpretation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Execution exceeded the fuel budget.
    OutOfFuel,
    /// Unknown function name.
    UnknownFunction(String),
    /// A call to an undefined function was executed (havoc has no concrete
    /// semantics).
    UndefinedCall(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::OutOfFuel => write!(f, "out of fuel"),
            InterpError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            InterpError::UndefinedCall(n) => write!(f, "call to undefined `{n}`"),
        }
    }
}

impl std::error::Error for InterpError {}

/// One recorded memory access (see [`Machine::call_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Index of the executing function in [`Module::functions`].
    pub func: u32,
    /// The executing instruction (within that function). For branch
    /// events this is the *condition value* id.
    pub inst: InstId,
    /// `true` for stores, `false` for loads and branches.
    pub is_store: bool,
    /// `true` for conditional-branch events (ctrl-dependency sources for
    /// everything executed after them).
    pub is_branch: bool,
    /// Concrete address accessed (branch: the decision, 1 = taken).
    pub addr: i64,
    /// Value loaded or stored (branch: the condition value).
    pub value: i64,
}

/// A hook's request to end the run at once, across every frame (see
/// [`Machine::call_hooked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Halt;

/// Observes and steers a run of [`Machine::call_hooked`].
///
/// `func` is the executing function's index in [`Module::functions`] and
/// `inst` the executing instruction (for a branch, its condition value).
/// Every method may end the run by returning [`Halt`]. The defaults
/// observe nothing and change nothing.
pub trait Hook {
    /// Runs before each scheduled instruction, after its fuel is charged.
    fn step(&mut self) -> Result<(), Halt> {
        Ok(())
    }

    /// A load of `value` from `addr`; returns the value the load yields.
    fn load(&mut self, _func: u32, _inst: InstId, _addr: i64, value: i64) -> Result<i64, Halt> {
        Ok(value)
    }

    /// A store of `value` to `addr`, which held `old`; runs after memory
    /// is written.
    fn store(
        &mut self,
        _func: u32,
        _inst: InstId,
        _addr: i64,
        _value: i64,
        _old: i64,
    ) -> Result<(), Halt> {
        Ok(())
    }

    /// A fence.
    fn fence(&mut self) -> Result<(), Halt> {
        Ok(())
    }

    /// A conditional branch on `cond`; returns whether it is taken.
    fn branch(&mut self, _func: u32, _inst: InstId, cond: i64) -> Result<bool, Halt> {
        Ok(cond != 0)
    }
}

/// The hook of [`Machine::call`].
struct NoHook;

impl Hook for NoHook {}

/// The hook of [`Machine::call_traced`]: records every memory access and
/// branch decision in execution order.
struct Tracer(Vec<TraceEvent>);

impl Tracer {
    fn push(&mut self, func: u32, inst: InstId, is_store: bool, addr: i64, value: i64) {
        self.0.push(TraceEvent {
            func,
            inst,
            is_store,
            is_branch: false,
            addr,
            value,
        });
    }
}

impl Hook for Tracer {
    fn load(&mut self, func: u32, inst: InstId, addr: i64, value: i64) -> Result<i64, Halt> {
        self.push(func, inst, false, addr, value);
        Ok(value)
    }

    fn store(
        &mut self,
        func: u32,
        inst: InstId,
        addr: i64,
        value: i64,
        _old: i64,
    ) -> Result<(), Halt> {
        self.push(func, inst, true, addr, value);
        Ok(())
    }

    fn branch(&mut self, func: u32, inst: InstId, cond: i64) -> Result<bool, Halt> {
        self.0.push(TraceEvent {
            func,
            inst,
            is_store: false,
            is_branch: true,
            addr: i64::from(cond != 0),
            value: cond,
        });
        Ok(cond != 0)
    }
}

/// Why a run stopped short of its outermost `ret`.
enum Stop {
    Halt,
    Error(InterpError),
}

impl From<Halt> for Stop {
    fn from(_: Halt) -> Self {
        Stop::Halt
    }
}

impl From<InterpError> for Stop {
    fn from(e: InterpError) -> Self {
        Stop::Error(e)
    }
}

/// Abstract machine state: module + memory.
///
/// Addresses are 64-bit: global `g` occupies `[(g+1) << 32, ...)`; each
/// executed `alloca` allocates a fresh region in the high half of the
/// address space. Memory is word-granular and zero-initialized.
#[derive(Debug)]
pub struct Machine<'m> {
    module: &'m Module,
    memory: HashMap<i64, i64>,
    next_alloca: i64,
    fuel: u64,
}

const ALLOCA_BASE: i64 = 1 << 48;

impl<'m> Machine<'m> {
    /// A machine with memory zeroed except for global initializers.
    pub fn new(module: &'m Module) -> Self {
        let mut memory = HashMap::new();
        for (gi, g) in module.globals.iter().enumerate() {
            let base = (gi as i64 + 1) << 32;
            for &(idx, v) in &g.init {
                memory.insert(base + i64::from(idx), v);
            }
        }
        Machine {
            module,
            memory,
            next_alloca: ALLOCA_BASE,
            fuel: 0,
        }
    }

    /// The base address of a global.
    pub fn global_base(&self, g: u32) -> i64 {
        (i64::from(g) + 1) << 32
    }

    /// Writes one word of a named global.
    ///
    /// # Panics
    ///
    /// Panics if the global does not exist.
    pub fn set_global(&mut self, name: &str, index: u32, value: i64) {
        let (gid, _) = self.module.global(name).expect("unknown global");
        let base = self.global_base(gid.0);
        self.memory.insert(base + i64::from(index), value);
    }

    /// Reads one word of a named global.
    ///
    /// # Panics
    ///
    /// Panics if the global does not exist.
    pub fn get_global(&self, name: &str, index: u32) -> i64 {
        let (gid, _) = self.module.global(name).expect("unknown global");
        let base = self.global_base(gid.0);
        *self.memory.get(&(base + i64::from(index))).unwrap_or(&0)
    }

    /// Calls a function by name.
    ///
    /// # Errors
    ///
    /// Returns an error when fuel is exhausted, the function is unknown, or
    /// an undefined external call is executed.
    pub fn call(
        &mut self,
        fname: &str,
        args: &[i64],
        fuel: u64,
    ) -> Result<InterpOutcome, InterpError> {
        let outcome = self.call_hooked(fname, args, fuel, &mut NoHook)?;
        Ok(outcome.expect("the no-op hook never halts"))
    }

    /// Like [`Self::call`], additionally recording every memory access in
    /// execution order (the input to dynamic LCM analysis,
    /// `lcm_aeg::trace`).
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn call_traced(
        &mut self,
        fname: &str,
        args: &[i64],
        fuel: u64,
    ) -> Result<(InterpOutcome, Vec<TraceEvent>), InterpError> {
        let mut tracer = Tracer(Vec::new());
        let outcome = self.call_hooked(fname, args, fuel, &mut tracer)?;
        Ok((outcome.expect("the trace hook never halts"), tracer.0))
    }

    /// Like [`Self::call`], with `hook` run at every scheduled
    /// instruction, load, store, fence and conditional branch, in every
    /// frame. Returns `Ok(None)` when the hook halted the run.
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn call_hooked<H: Hook>(
        &mut self,
        fname: &str,
        args: &[i64],
        fuel: u64,
        hook: &mut H,
    ) -> Result<Option<InterpOutcome>, InterpError> {
        self.fuel = fuel;
        match self.call_inner(fname, args, hook) {
            Ok(outcome) => Ok(Some(outcome)),
            Err(Stop::Halt) => Ok(None),
            Err(Stop::Error(e)) => Err(e),
        }
    }

    fn call_inner<H: Hook>(
        &mut self,
        fname: &str,
        args: &[i64],
        hook: &mut H,
    ) -> Result<InterpOutcome, Stop> {
        let module = self.module;
        let func_idx = module
            .functions
            .iter()
            .position(|f| f.name == fname)
            .ok_or_else(|| InterpError::UnknownFunction(fname.to_string()))?;
        let f = &module.functions[func_idx];
        let func_idx = func_idx as u32;
        let mut env: HashMap<u32, i64> = HashMap::new();
        let mut bb = f.entry();
        loop {
            let block = &f.blocks[bb.0 as usize];
            for &iid in &block.insts {
                self.burn()?;
                hook.step()?;
                match f.inst(iid) {
                    &Inst::Alloca { size, .. } => {
                        let addr = self.next_alloca;
                        self.next_alloca += i64::from(size.max(1));
                        env.insert(iid.0, addr);
                    }
                    &Inst::Load { addr, .. } => {
                        let a = self.eval(f, addr, args, &mut env)?;
                        let v = *self.memory.get(&a).unwrap_or(&0);
                        env.insert(iid.0, hook.load(func_idx, iid, a, v)?);
                    }
                    &Inst::Store { addr, value } => {
                        let a = self.eval(f, addr, args, &mut env)?;
                        let v = self.eval(f, value, args, &mut env)?;
                        let old = self.memory.insert(a, v).unwrap_or(0);
                        hook.store(func_idx, iid, a, v, old)?;
                    }
                    Inst::Call {
                        callee,
                        args: cargs,
                        ..
                    } => {
                        let argv = cargs
                            .iter()
                            .map(|&a| self.eval(f, a, args, &mut env))
                            .collect::<Result<Vec<i64>, _>>()?;
                        let InterpOutcome::Returned(v) = self.call_inner(callee, &argv, hook)?;
                        env.insert(iid.0, v.unwrap_or(0));
                    }
                    Inst::Havoc { callee, .. } => {
                        return Err(InterpError::UndefinedCall(callee.clone()).into());
                    }
                    Inst::Fence => hook.fence()?,
                    pure => {
                        debug_assert!(!pure.is_scheduled());
                        let v = self.eval(f, iid, args, &mut env)?;
                        env.insert(iid.0, v);
                    }
                }
            }
            match block.term {
                Terminator::Br(t) => bb = t,
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.eval(f, cond, args, &mut env)?;
                    bb = if hook.branch(func_idx, cond, c)? {
                        then_bb
                    } else {
                        else_bb
                    };
                }
                Terminator::Ret(v) => {
                    let rv = match v {
                        Some(v) => Some(self.eval(f, v, args, &mut env)?),
                        None => None,
                    };
                    return Ok(InterpOutcome::Returned(rv));
                }
            }
        }
    }

    fn burn(&mut self) -> Result<(), InterpError> {
        if self.fuel == 0 {
            return Err(InterpError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn eval(
        &mut self,
        f: &Function,
        v: InstId,
        args: &[i64],
        env: &mut HashMap<u32, i64>,
    ) -> Result<i64, InterpError> {
        if let Some(&x) = env.get(&v.0) {
            return Ok(x);
        }
        self.burn()?;
        let out = match *f.inst(v) {
            Inst::Const(c) => c,
            Inst::Param { index, .. } => *args.get(index).unwrap_or(&0),
            Inst::GlobalAddr(g) => self.global_base(g.0),
            Inst::Gep { base, index, scale } => {
                let b = self.eval(f, base, args, env)?;
                let i = self.eval(f, index, args, env)?;
                b + i * i64::from(scale.max(1))
            }
            Inst::Bin { op, lhs, rhs } => {
                let a = self.eval(f, lhs, args, env)?;
                let b = self.eval(f, rhs, args, env)?;
                op.eval(a, b)
            }
            // Scheduled instructions must already be in env; treat an
            // unexecuted reference as zero (matches -O0 uninitialized
            // reads, which our front end never produces).
            _ => 0,
        };
        // Pure nodes are *not* memoized: in a loop, a node like
        // `i < n` must be re-evaluated after the load feeding it changes.
        Ok(out)
    }
}

/// Convenience: run `fname(args)` on a fresh machine with zeroed globals.
///
/// # Errors
///
/// See [`Machine::call`].
pub fn run(
    module: &Module,
    fname: &str,
    args: &[i64],
    fuel: u64,
) -> Result<InterpOutcome, InterpError> {
    Machine::new(module).call(fname, args, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, Function, Global, Terminator, Ty};

    #[test]
    fn arithmetic_and_memory_roundtrip() {
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "A".into(),
            size: 4,
            is_ptr: false,
            secret: false,
            init: vec![],
        });
        let mut f = Function::new("f", &[("x", Ty::Int)]);
        let e = f.entry();
        let base = f.global_addr(g);
        let x = f.param(0);
        let addr = f.gep(base, x);
        let seven = f.iconst(7);
        f.push(e, Inst::Store { addr, value: seven });
        let back = f.push(e, Inst::Load { addr, ty: Ty::Int });
        let sum = f.bin(BinOp::Add, back, x);
        f.set_term(e, Terminator::Ret(Some(sum)));
        m.add_function(f);
        assert_eq!(
            run(&m, "f", &[3], 1000).unwrap(),
            InterpOutcome::Returned(Some(10))
        );
    }

    #[test]
    fn globals_are_zero_initialized() {
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "A".into(),
            size: 2,
            is_ptr: false,
            secret: false,
            init: vec![],
        });
        let mut f = Function::new("f", &[]);
        let e = f.entry();
        let base = f.global_addr(g);
        let one = f.iconst(1);
        let addr = f.gep(base, one);
        let v = f.push(e, Inst::Load { addr, ty: Ty::Int });
        f.set_term(e, Terminator::Ret(Some(v)));
        m.add_function(f);
        assert_eq!(
            run(&m, "f", &[], 1000).unwrap(),
            InterpOutcome::Returned(Some(0))
        );
    }

    #[test]
    fn set_get_global() {
        let mut m = Module::new();
        m.add_global(Global {
            name: "A".into(),
            size: 2,
            is_ptr: false,
            secret: false,
            init: vec![],
        });
        let mut mach = Machine::new(&m);
        mach.set_global("A", 1, 42);
        assert_eq!(mach.get_global("A", 1), 42);
        assert_eq!(mach.get_global("A", 0), 0);
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let mut m = Module::new();
        let mut f = Function::new("f", &[]);
        let e = f.entry();
        let a = f.push(
            e,
            Inst::Alloca {
                name: "a".into(),
                size: 1,
            },
        );
        let b = f.push(
            e,
            Inst::Alloca {
                name: "b".into(),
                size: 1,
            },
        );
        let one = f.iconst(1);
        let two = f.iconst(2);
        f.push(
            e,
            Inst::Store {
                addr: a,
                value: one,
            },
        );
        f.push(
            e,
            Inst::Store {
                addr: b,
                value: two,
            },
        );
        let va = f.push(
            e,
            Inst::Load {
                addr: a,
                ty: Ty::Int,
            },
        );
        f.set_term(e, Terminator::Ret(Some(va)));
        m.add_function(f);
        assert_eq!(
            run(&m, "f", &[], 1000).unwrap(),
            InterpOutcome::Returned(Some(1))
        );
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut m = Module::new();
        let mut f = Function::new("spin", &[]);
        let e = f.entry();
        f.set_term(e, Terminator::Br(e));
        m.add_function(f);
        // The empty block consumes no per-inst fuel; terminator evaluation
        // loops forever. Use a block with an instruction.
        let mut f2 = Function::new("spin2", &[]);
        let e2 = f2.entry();
        f2.push(e2, Inst::Fence);
        f2.set_term(e2, Terminator::Br(e2));
        m.add_function(f2);
        assert_eq!(run(&m, "spin2", &[], 100), Err(InterpError::OutOfFuel));
    }

    #[test]
    fn undefined_call_is_an_error() {
        let mut m = Module::new();
        let mut f = Function::new("f", &[]);
        let e = f.entry();
        f.push(
            e,
            Inst::Havoc {
                callee: "ext".into(),
                ptr_args: vec![],
                ty: Ty::Int,
            },
        );
        f.set_term(e, Terminator::Ret(None));
        m.add_function(f);
        assert_eq!(
            run(&m, "f", &[], 100),
            Err(InterpError::UndefinedCall("ext".into()))
        );
    }

    #[test]
    fn unknown_function_is_an_error() {
        let m = Module::new();
        assert_eq!(
            run(&m, "ghost", &[], 10),
            Err(InterpError::UnknownFunction("ghost".into()))
        );
    }

    #[test]
    fn hook_steers_a_branch_and_halts_across_frames() {
        // f: if (0) { g(); return 1; } return 2;   g: fence; return;
        let mut m = Module::new();
        let mut g = Function::new("g", &[]);
        let e = g.entry();
        g.push(e, Inst::Fence);
        g.set_term(e, Terminator::Ret(None));
        m.add_function(g);
        let mut f = Function::new("f", &[]);
        let (e, then_bb, else_bb) = (f.entry(), f.add_block("then"), f.add_block("else"));
        let (zero, one, two) = (f.iconst(0), f.iconst(1), f.iconst(2));
        f.set_term(
            e,
            Terminator::CondBr {
                cond: zero,
                then_bb,
                else_bb,
            },
        );
        f.push(
            then_bb,
            Inst::Call {
                callee: "g".into(),
                args: vec![],
                ty: Ty::Int,
            },
        );
        f.set_term(then_bb, Terminator::Ret(Some(one)));
        f.set_term(else_bb, Terminator::Ret(Some(two)));
        m.add_function(f);

        struct Flip;
        impl Hook for Flip {
            fn branch(&mut self, _: u32, _: InstId, cond: i64) -> Result<bool, Halt> {
                Ok(cond == 0)
            }
            fn fence(&mut self) -> Result<(), Halt> {
                Err(Halt)
            }
        }
        let mut mach = Machine::new(&m);
        assert_eq!(
            mach.call("f", &[], 100),
            Ok(InterpOutcome::Returned(Some(2)))
        );
        assert_eq!(mach.call_hooked("f", &[], 100, &mut Flip), Ok(None));
    }

    #[test]
    fn call_passes_arguments_and_returns() {
        let mut m = Module::new();
        let mut id = Function::new("id", &[("x", Ty::Int)]);
        let e = id.entry();
        let x = id.param(0);
        id.set_term(e, Terminator::Ret(Some(x)));
        m.add_function(id);
        let mut f = Function::new("f", &[]);
        let e = f.entry();
        let five = f.iconst(5);
        let c = f.push(
            e,
            Inst::Call {
                callee: "id".into(),
                args: vec![five],
                ty: Ty::Int,
            },
        );
        f.set_term(e, Terminator::Ret(Some(c)));
        m.add_function(f);
        assert_eq!(
            run(&m, "f", &[], 1000).unwrap(),
            InterpOutcome::Returned(Some(5))
        );
    }
}
