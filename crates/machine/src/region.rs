//! Tier-2 regions as straight-line programs.
//!
//! A `Fused` region, or the prim region of a `Spec` site, is a call-free
//! tree of at most [`MAX_REGION_OPS`] ops. Walking that tree recursively
//! on every execution re-dispatches each op through the arena. Instead,
//! each region body of an image is lowered once into flat post-order
//! slices of its own ops. There is one slice per deterministic order
//! policy: left-to-right evaluates a `Prim2`'s left operand subtree
//! first, right-to-left its right one, and `Seq` always runs `a` before
//! `b`. The executor checks readiness with one scan over the leaves of
//! the slice it will run, keeping them resolved, and evaluates with one
//! loop over an operand stack ([`crate::Machine`]'s `exec_region`).
//!
//! The slices are derived from the verified ops and cached with the
//! `Arc<Code>` ([`Code::region_programs`]); they are never a second source
//! of truth. [`Code::check_region_programs`] re-derives them and refuses
//! a mismatch, and runs wherever [`Code::verify`] does at link time.
//!
//! §3.5's `Seeded` policy draws once per binary primitive in *pre*-order
//! and lets each draw pick which subtree runs first, so no fixed slice
//! encodes it; under `Seeded` the executor keeps the recursive walk.

use crate::code::{COp, Code, CodeBuf, CodeId, CodeVerifyError, MAX_REGION_OPS};

/// Where one region's programs live in [`RegionPrograms`]: the
/// left-to-right slice at `at..at + len`, the right-to-left slice right
/// after it. `len == 0` means the op roots no region program.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct RegionProgram {
    pub(crate) at: u32,
    pub(crate) len: u32,
}

impl RegionProgram {
    /// The start of the slice for `left_first`'s order.
    pub(crate) fn start(self, left_first: bool) -> u32 {
        if left_first {
            self.at
        } else {
            self.at + self.len
        }
    }
}

/// Every region program of one image.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct RegionPrograms {
    /// Per base op: the program rooted at that op.
    index: Vec<RegionProgram>,
    /// Every program's ops, in post-order.
    pub(crate) ops: Vec<COp>,
}

impl RegionPrograms {
    /// Lowers every region body of `buf`. A body that breaks the region
    /// grammar (only possible in an unverified arena) gets no program;
    /// the executor then evaluates it as ordinary stepped code.
    pub(crate) fn derive(buf: &CodeBuf) -> RegionPrograms {
        let mut out = RegionPrograms {
            index: vec![RegionProgram::default(); buf.ops.len()],
            ops: Vec::new(),
        };
        for op in &buf.ops {
            let (COp::Fused { body } | COp::Spec { body }) = *op else {
                continue;
            };
            // A `Spec` value form is built, not evaluated.
            let Some(COp::Prim1 { .. } | COp::Prim2 { .. } | COp::Seq { .. }) =
                buf.ops.get(body.0 as usize)
            else {
                continue;
            };
            let at = out.ops.len();
            let cap = at + 2 * MAX_REGION_OPS;
            let lowered = post_order(buf, body, true, &mut out.ops, cap)
                && post_order(buf, body, false, &mut out.ops, cap);
            if !lowered {
                out.ops.truncate(at);
                continue;
            }
            out.index[body.0 as usize] = RegionProgram {
                at: at as u32,
                len: ((out.ops.len() - at) / 2) as u32,
            };
        }
        out
    }

    /// The program rooted at `root`; empty for an op that roots none
    /// (including every op of a machine's query extension).
    #[inline]
    pub(crate) fn program(&self, root: CodeId) -> RegionProgram {
        self.index.get(root.0 as usize).copied().unwrap_or_default()
    }

    fn slice(&self, p: RegionProgram) -> &[COp] {
        &self.ops[p.at as usize..(p.at + 2 * p.len) as usize]
    }
}

/// Appends the region at `id` in post-order, `left_first` choosing which
/// `Prim2` operand subtree comes first. False if the tree leaves the
/// region grammar, grows `out` past `cap`, or a child does not precede
/// its parent (so the walk is bounded even on a corrupt arena).
fn post_order(buf: &CodeBuf, id: CodeId, left_first: bool, out: &mut Vec<COp>, cap: usize) -> bool {
    let Some(&op) = buf.ops.get(id.0 as usize) else {
        return false;
    };
    let kids: &[CodeId] = match op {
        COp::Local(_) | COp::Global(_) | COp::Int(_) | COp::Char(_) | COp::Str(_) => &[],
        COp::Con { n: 0, .. } => &[],
        COp::Prim1 { a, .. } => &[a],
        COp::Prim2 { a, b, .. } if left_first => &[a, b],
        COp::Prim2 { a, b, .. } => &[b, a],
        COp::Seq { a, b } => &[a, b],
        _ => return false,
    };
    let ok = kids
        .iter()
        .all(|k| k.0 < id.0 && post_order(buf, *k, left_first, out, cap));
    out.push(op);
    ok && out.len() <= cap
}

impl Code {
    /// This image's region programs, lowered on first use and cached for
    /// the life of the image (every machine linking the same `Arc<Code>`
    /// shares them).
    pub(crate) fn region_programs(&self) -> &RegionPrograms {
        self.regions
            .get_or_init(|| RegionPrograms::derive(&self.buf))
    }

    /// Checks that every cached region program is exactly the lowering of
    /// the region it is indexed under: re-derives all of them from the
    /// ops and reports the first root whose programs differ. Runs with
    /// [`Code::verify`], once per image, at its first checked link.
    pub fn check_region_programs(&self) -> Result<(), CodeVerifyError> {
        let cached = self.region_programs();
        let fresh = RegionPrograms::derive(&self.buf);
        if *cached == fresh {
            return Ok(());
        }
        let at = (0..self.buf.ops.len().max(cached.index.len()))
            .find(|&i| {
                let root = CodeId(i as u32);
                cached.slice(cached.program(root)) != fresh.slice(fresh.program(root))
            })
            .unwrap_or(0);
        Err(CodeVerifyError {
            at: at as u32,
            message: "region program does not match the region it is indexed under".into(),
        })
    }

    /// Test-only sabotage: corrupts one cached region program (the first
    /// integer literal leaf of any program becomes its successor), so a
    /// test can prove that [`Code::check_region_programs`], and with it
    /// `Machine::link_code`, refuses a mismatched program. Returns false
    /// if no program has an integer leaf.
    #[doc(hidden)]
    pub fn sabotage_region_program(&mut self) -> bool {
        self.region_programs();
        // A verdict reached before the corruption no longer holds.
        self.verdict.take();
        let Some(programs) = self.regions.get_mut() else {
            return false;
        };
        for op in &mut programs.ops {
            if let COp::Int(n) = op {
                *n = n.wrapping_add(1);
                return true;
            }
        }
        false
    }
}

/// What [`region_differential`] found.
#[doc(hidden)]
#[derive(Clone, Debug, Default)]
pub struct RegionDiff {
    /// Region programs evaluated.
    pub regions: usize,
    /// Regions skipped because a global leaf does not force to a value.
    pub skipped: usize,
    /// Evaluations compared (one per region and leaf assignment).
    pub runs: usize,
    /// Runs whose value is a boxed (non-immediate) integer.
    pub boxed: usize,
    /// Runs that raised `Overflow`.
    pub overflow: usize,
    /// Runs that raised `DivideByZero`.
    pub divide_by_zero: usize,
    /// One line per run on which the two evaluations disagreed.
    pub mismatches: Vec<String>,
}

/// What a region leaf slot must hold for the primitive that reads it.
#[derive(Copy, Clone, PartialEq)]
enum Sort {
    Int,
    Char,
    Str,
}

/// Test support for the region-program differential: evaluates every
/// region program of `code` under `order` (a deterministic policy)
/// through its slice on one machine and through the recursive walk on
/// another, and compares the value or exception and every counter.
/// Each environment slot a region reads gets a value of the sort its
/// primitive demands; integer slots take their values from `ints`,
/// covering every pair for the first two slots.
#[doc(hidden)]
pub fn region_differential(
    code: &std::sync::Arc<Code>,
    order: crate::OrderPolicy,
    ints: &[i64],
) -> RegionDiff {
    use crate::heap::{HValue, NodeId};
    use crate::{CEnv, Machine, MachineConfig};
    let left_first = match order {
        crate::OrderPolicy::LeftToRight => true,
        crate::OrderPolicy::RightToLeft => false,
        crate::OrderPolicy::Seeded(_) => panic!("Seeded regions run the walk only"),
    };
    let programs = code.region_programs();
    // One machine per evaluator, each linked once: both see the same
    // sequence of operations, so their heaps evolve alike.
    let mut machines = [false, true].map(|_| {
        let mut m = Machine::new(MachineConfig {
            order,
            ..MachineConfig::default()
        });
        m.link_code(std::sync::Arc::clone(code));
        m
    });
    let mut out = RegionDiff::default();
    for root in 0..programs.index.len() {
        let root = CodeId(root as u32);
        let prog = programs.program(root);
        if prog.len == 0 {
            continue;
        }
        let slice = &programs.ops[prog.at as usize..(prog.at + prog.len) as usize];
        let sorts = slot_sorts(slice);
        let forced = machines.iter_mut().all(|m| {
            slice.iter().all(|op| match *op {
                COp::Global(g) => {
                    let node = NodeId::global(g);
                    matches!(m.eval_node(node, false), Ok(crate::Outcome::Value(_)))
                }
                _ => true,
            })
        });
        if !forced {
            out.skipped += 1;
            continue;
        }
        out.regions += 1;
        for t in 0..ints.len() * ints.len() {
            let mut results = Vec::new();
            for (walk, m) in machines.iter_mut().enumerate() {
                let mut env = CEnv::empty();
                for (slot, sort) in sorts.iter().enumerate().rev() {
                    let n = ints[if slot % 2 == 0 {
                        t % ints.len()
                    } else {
                        (t / ints.len() + slot / 2) % ints.len()
                    }];
                    let node = match sort {
                        Sort::Int => m.int_node(n),
                        Sort::Char => m.alloc_value(HValue::Char(if n < 0 { 'a' } else { 'z' })),
                        Sort::Str => m.alloc_value(HValue::Str(n.to_string().as_str().into())),
                    };
                    env = env.push(node, &mut 0);
                }
                m.reset_stats();
                let result = if walk == 1 {
                    m.region_eval(root, &env)
                } else {
                    assert!(
                        m.region_ready(prog, left_first, &env),
                        "every leaf is a value"
                    );
                    m.run_region(prog, left_first)
                };
                let stats = m.stats().clone();
                let boxed = result.as_ref().is_ok_and(|v| {
                    !v.is_imm() && matches!(m.heap.whnf(*v), Some(crate::heap::Whnf::Int(_)))
                });
                let out = result.map_or_else(crate::Outcome::Caught, crate::Outcome::Value);
                let shown = m.render_outcome(&out, 4);
                results.push((shown, stats, boxed));
            }
            out.runs += 1;
            let (program, walked) = (&results[0], &results[1]);
            if program.0 != walked.0 || program.1 != walked.1 {
                out.mismatches.push(format!(
                    "region at op {} trial {t}: program {} {:?} vs walk {} {:?}",
                    root.0, program.0, program.1, walked.0, walked.1
                ));
            }
            out.boxed += usize::from(program.2);
            out.overflow += usize::from(program.0 == "(raise Overflow)");
            out.divide_by_zero += usize::from(program.0 == "(raise DivideByZero)");
        }
    }
    out
}

/// The sort of every environment slot `slice` (a left-to-right program)
/// reads, innermost slot first; a slot only passed through `Seq` holds an
/// integer.
fn slot_sorts(slice: &[COp]) -> Vec<Sort> {
    use urk_syntax::core::PrimOp::*;
    let depth = slice
        .iter()
        .filter_map(|op| match op {
            COp::Local(back) => Some(*back as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut sorts = vec![Sort::Int; depth];
    // Simulates the operand stack, tracking which slot each entry is.
    let mut stack: Vec<Option<u32>> = Vec::new();
    for op in slice {
        let (arity, sort) = match *op {
            COp::Local(back) => {
                stack.push(Some(back));
                continue;
            }
            COp::Prim1 { op, .. } => (1, op),
            COp::Prim2 { op, .. } => (2, op),
            COp::Seq { .. } => {
                stack.truncate(stack.len() - 2);
                stack.push(None);
                continue;
            }
            _ => {
                stack.push(None);
                continue;
            }
        };
        let sort = match sort {
            CharEq | Ord => Sort::Char,
            StrEq | StrAppend | StrLen => Sort::Str,
            _ => Sort::Int,
        };
        for slot in stack.split_off(stack.len() - arity).into_iter().flatten() {
            sorts[slot as usize] = sort;
        }
        stack.push(None);
    }
    sorts
}
