//! The *operational* pure layer: the §4.4 transition system of
//! [`crate::lts`] performed on the graph-reduction machine.
//!
//! This is the implementation §3.5 promises: "the stack-trimming
//! implementation does not have to change. The set of exceptions
//! associated with an exceptional value is represented by a single member,
//! namely the exception that happens to be encountered first." So
//! `getException` here simply evaluates its argument under a catch mark
//! and reports whatever exception surfaces — no oracle required.
//!
//! Threads share the heap, and therefore thunks: a shared poisoned thunk
//! re-raises the same representative in every thread.

use urk_machine::{HValue, Machine, NodeId, Outcome, Whnf};
use urk_syntax::core::Expr;
use urk_syntax::{Exception, Known};

use crate::lts::{self, IoResult, PureLayer, RunOutcome, Shape, Stop};
use crate::trace::Input;

/// Performs the `IO` action denoted by `action` (typically `main`),
/// lowered against the program image linked into `machine`, as the main
/// thread of a thread group.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use urk_io::{run_machine, StringInput, IoResult};
/// use urk_machine::{compile_program, Machine, MachineConfig};
/// use urk_syntax::{parse_expr_src, desugar_expr, DataEnv};
///
/// let data = DataEnv::new();
/// let action = desugar_expr(
///     &parse_expr_src(r"getChar >>= \c -> putChar c")?,
///     &data,
/// )?;
/// let mut machine = Machine::new(MachineConfig::default());
/// machine.link_code(Arc::new(compile_program(&[])));
/// let mut input = StringInput::new("x");
/// let out = run_machine(&mut machine, &action, &mut input);
/// assert!(matches!(out.result, IoResult::Done(_)));
/// assert_eq!(out.trace.to_string(), "?x !x");
/// assert!(out.threads.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Panics
///
/// Panics if no program image is linked into `machine`, or if the program
/// is ill-typed (it performs a value that is not an `IO` action).
pub fn run_machine(machine: &mut Machine, action: &Expr, input: &mut dyn Input) -> RunOutcome {
    let root = machine.alloc_code_thunk(action);
    let mut layer = MachineLayer {
        machine,
        rooted: 0,
        free: Vec::new(),
    };
    let main = layer.root(root);
    let out = lts::run(&mut layer, main, input);
    for _ in 0..layer.rooted {
        layer.machine.pop_root();
    }
    out
}

/// The machine as a pure layer. A handle is a *root index* into the
/// machine's root set, not a raw node id: a minor collection rewrites
/// root slots in place when nursery cells move, so every id held across
/// an evaluation is re-read through its slot.
struct MachineLayer<'m> {
    machine: &'m mut Machine,
    /// Roots this run pushed, popped when it ends.
    rooted: usize,
    /// Released root slots, reused before new ones are pushed, so the root
    /// set stays as large as what the LTS holds, however long the run.
    free: Vec<usize>,
}

impl MachineLayer<'_> {
    fn root(&mut self, n: NodeId) -> usize {
        if let Some(slot) = self.free.pop() {
            self.machine.set_root(slot, n);
            return slot;
        }
        self.rooted += 1;
        self.machine.push_root(n)
    }

    /// Evaluates `h` to a value or the exception that escaped it.
    fn eval(
        &mut self,
        h: usize,
        catch: bool,
    ) -> Result<Result<NodeId, Exception>, Stop<Exception>> {
        match self.machine.eval_node(self.machine.root(h), catch) {
            Ok(Outcome::Value(n)) => Ok(Ok(n)),
            Ok(Outcome::Caught(e) | Outcome::Uncaught(e)) => Ok(Err(e)),
            Err(e) => Err(IoResult::MachineError(e)),
        }
    }
}

impl PureLayer for MachineLayer<'_> {
    type Handle = usize;
    type Abnormal = Exception;

    fn force(&mut self, h: &usize) -> Result<Shape<usize>, Stop<Exception>> {
        let n = self.eval(*h, false)?.map_err(IoResult::Uncaught)?;
        // An evaluation result is tenured (or immediate): its fields stay
        // current through the remembered set until they are rooted here.
        Ok(match self.machine.heap().whnf(n) {
            Some(Whnf::Con(con, fields)) => {
                let fields = fields.to_vec();
                Shape::Con(con, fields.into_iter().map(|f| self.root(f)).collect())
            }
            Some(Whnf::Int(i)) => Shape::Int(i),
            Some(Whnf::Char(c)) => Shape::Char(c),
            Some(Whnf::Str(s)) => Shape::Str(s.clone()),
            Some(Whnf::CFun { .. }) | None => panic!("performed a function (ill-typed program)"),
        })
    }

    fn value(&mut self, v: Shape<usize>) -> usize {
        let v = match v {
            Shape::Con(con, fields) => {
                let ids = fields.iter().map(|f| self.machine.root(*f)).collect();
                self.free.extend(fields);
                HValue::Con(con, ids)
            }
            Shape::Int(n) => HValue::Int(n),
            Shape::Char(c) => HValue::Char(c),
            Shape::Str(s) => HValue::Str(s),
        };
        let n = self.machine.alloc_hvalue(v);
        self.root(n)
    }

    fn bad(&mut self, exn: &Exception) -> usize {
        let ev = self.machine.alloc_exception_value(exn);
        let n = self
            .machine
            .alloc_hvalue(HValue::Con(Known::Bad.symbol(), [ev].into()));
        self.root(n)
    }

    fn apply(&mut self, k: usize, v: usize) -> usize {
        let n = self
            .machine
            .alloc_apply(self.machine.root(k), self.machine.root(v));
        self.free.extend([k, v]);
        self.root(n)
    }

    fn release(&mut self, h: usize) {
        self.free.push(h);
    }

    fn render(&mut self, h: &usize, depth: u32) -> String {
        self.machine.render(self.machine.root(*h), depth)
    }

    /// §3.3: mark the stack, evaluate the argument. The mark is at the
    /// episode base, so an exception surfaces as `Caught`.
    fn get_exception(&mut self, arg: usize) -> Result<Result<usize, Exception>, Stop<Exception>> {
        let got = self.eval(arg, true);
        self.free.push(arg);
        Ok(got?.map(|n| self.root(n)))
    }
}
