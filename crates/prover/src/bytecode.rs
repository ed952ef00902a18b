//! Flat register bytecode for obligations: the evaluation backend of the
//! finite-model prover.
//!
//! The search evaluates one obligation under millions of candidate models.
//! The reference evaluator ([`mod@semcommute_logic::eval`]) looks every
//! variable up by name in a `Model` and clones the model to bind a
//! quantifier variable; this module instead lowers the obligation's terms
//! **once** to a flat register [`Program`] ([`Program::lower`]): a `Vec` of
//! instructions over dense `u32` registers, every variable occurrence
//! resolved to a register (input `i` is register `i`), constants pooled,
//! common subexpressions shared, and the obligation's define/hypothesis
//! schedule (`obligation::schedule`) preserved — a hypothesis that fails
//! still skips every later define (a failed `Instr::Check` ends the
//! candidate; in the batched executor it clears the candidate's lane from
//! the active mask, which is the block-level form of the same jump-to-end).
//!
//! One executor runs obligations: the **block** executor
//! ([`Program::run_block`]) evaluates up to [`LANES`] candidates at once,
//! column-wise. Each register holds a [`LANES`]-wide column, boolean columns
//! are 256-bit masks (`u64x4` words) so comparisons and connectives amortize
//! to a few word ops, integer columns are flat `i64` lanes, and
//! whole-block-constant ("uniform") operands are evaluated once per block.
//! Collection-valued registers, quantifiers and error paths fall back to the
//! per-candidate instruction step (`Program::step`), lane by lane, in
//! ascending lane order. That step is the only per-candidate semantics of
//! the instruction set: it runs over a register view (`Regs`) that is either
//! one lane of the block's columns or a plain `[Value]` slice, the latter
//! for [`Program::eval_in_regs`], which evaluates a formula for the
//! runtime's admission gatekeeper.
//!
//! Semantics mirror the reference evaluator ([`mod@semcommute_logic::eval`])
//! **exactly** — totalization, operand evaluation order, sort-check order
//! and error strings, `MAX_QUANTIFIER_RANGE`, and the first-deciding-event
//! stopping rule. The block executor reports only the *minimum-lane*
//! deciding event of a block (counter-model or evaluation error), which is
//! precisely the event a candidate-by-candidate scan would have stopped at;
//! everything a later candidate would have done is suppressed, so verdicts,
//! counter-models, `Unknown` reasons, and the `models_checked` /
//! `orbits_pruned` counters match a reference scan through
//! [`crate::FiniteModelProver::replay`] at every thread count, split
//! threshold, and block boundary (pinned by `tests/diff_bytecode.rs` and
//! `tests/prop_bytecode.rs`).

use std::collections::{HashMap, HashSet};

use semcommute_logic::eval::MAX_QUANTIFIER_RANGE;
use semcommute_logic::{ElemId, Model, PMap, PSeq, PSet, Term, Value, NULL_ELEM};

use crate::obligation::{schedule, Obligation, Stage};
use crate::space::BlockBuf;

/// Register index.
type R = u32;

/// Number of candidate lanes evaluated per block by [`Program::run_block`].
pub const LANES: usize = 256;

/// A 256-lane bitmask: one bit per candidate lane, as four machine words.
pub type Lanes = [u64; 4];

/// The sort a [`Instr::Coerce`] assertion requires, with the exact wording
/// the reference evaluator uses in its error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Bool,
    Int,
    Elem,
    Set,
    Map,
    Seq,
}

impl Kind {
    fn word(self) -> &'static str {
        // Must match `Sort`'s `Display` exactly — the reference evaluator
        // formats the expected sort through it.
        match self {
            Kind::Bool => "bool",
            Kind::Int => "int",
            Kind::Elem => "obj",
            Kind::Set => "obj set",
            Kind::Map => "(obj, obj) map",
            Kind::Seq => "obj seq",
        }
    }

    fn matches(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (Kind::Bool, Value::Bool(_))
                | (Kind::Int, Value::Int(_))
                | (Kind::Elem, Value::Elem(_))
                | (Kind::Set, Value::Set(_))
                | (Kind::Map, Value::Map(_))
                | (Kind::Seq, Value::Seq(_))
        )
    }
}

/// Checks that `v` has sort `kind`, reproducing the reference evaluator's
/// `"{ctx}: expected {kind}, found {sort}"` message on mismatch.
fn coerce_value(v: &Value, kind: Kind, ctx: &str) -> Result<(), String> {
    if kind.matches(v) {
        Ok(())
    } else {
        Err(format!(
            "{ctx}: expected {}, found {}",
            kind.word(),
            v.sort()
        ))
    }
}

/// Binary boolean connectives. Short-circuiting is *not* wanted here: the
/// reference evaluator evaluates every operand of `and` / `or` (interleaving
/// the bool checks), so the lowering emits all operand instructions and folds
/// with these total ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Bool2 {
    And,
    Or,
    Implies,
    Iff,
}

/// Binary integer operators (`Lt` / `Le` produce booleans, `Add` / `Sub`
/// wrap like the reference evaluator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Int2 {
    Add,
    Sub,
    Lt,
    Le,
}

/// Collection operators. Operands are stored in *evaluation order* (for
/// `Member` that is value first, then set — the reference order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CollOp {
    SetAdd,
    SetRemove,
    Member,
    Card,
    MapPut,
    MapRemove,
    MapGet,
    MapHasKey,
    MapSize,
    SeqInsertAt,
    SeqRemoveAt,
    SeqSetAt,
    SeqAt,
    SeqLen,
    SeqIndexOf,
    SeqLastIndexOf,
    SeqContains,
}

/// One bytecode instruction. Every value-producing instruction writes a
/// fresh output register (SSA-style), so instructions never clobber an
/// operand another instruction still needs — which is what lets the block
/// executor keep one column per register for a whole block.
#[derive(Debug, Clone)]
enum Instr {
    /// Pure sort assertion on a register: errors with the reference
    /// evaluator's `"{ctx}: expected .., found .."` message, otherwise a
    /// no-op (the register itself is the coerced value).
    Coerce {
        a: R,
        kind: Kind,
        ctx: &'static str,
    },
    /// A read of a variable that is not in scope where it is read (not an
    /// input, not a define lowered before it, not a binder): always errors
    /// with the reference ``"unbound variable `name`"`` message.
    Unbound {
        name: Box<str>,
    },
    Not {
        out: R,
        a: R,
    },
    Bool2 {
        op: Bool2,
        out: R,
        a: R,
        b: R,
    },
    Int2 {
        op: Int2,
        out: R,
        a: R,
        b: R,
    },
    Neg {
        out: R,
        a: R,
    },
    /// Runtime-sort-checked equality (`"cannot compare values of sorts .."`).
    Eq {
        out: R,
        a: R,
        b: R,
    },
    /// If-then-else; both branches are already evaluated (the reference
    /// evaluator evaluates both too), the branch-sort check
    /// (`"cannot compare values of sorts .."`) runs before selection.
    Ite {
        out: R,
        c: R,
        t: R,
        e: R,
    },
    /// A collection operation; unused trailing operands repeat `a`.
    Coll {
        op: CollOp,
        out: R,
        a: R,
        b: R,
        c: R,
    },
    /// Bounded integer quantifier. The body is a subprogram (an entry of
    /// [`Program`]'s body table) executed once per iteration with `binder`
    /// holding the iteration index; `body_out` is the body's boolean result
    /// register. Early exit on the deciding iteration, first error wins —
    /// exactly the reference loop.
    Quant {
        out: R,
        universal: bool,
        binder: R,
        lo: R,
        hi: R,
        body: u32,
        body_out: R,
    },
    /// Hypothesis check: `false` rejects the candidate (skipping every later
    /// instruction — the short-circuit that makes input-only precondition
    /// failures skip all define work), non-bool errors.
    Check {
        r: R,
    },
    /// Goal check, always the final instruction: `false` means the candidate
    /// is a counterexample.
    CheckGoal {
        r: R,
    },
}

/// Which step of the obligation an instruction range belongs to — the error
/// prefix (`"evaluating `x`: .."`, `"evaluating hypothesis: .."`,
/// `"evaluating goal: .."`) the reference evaluator wraps around failures.
#[derive(Debug, Clone)]
enum Region {
    Define(String),
    Hypothesis,
    Goal,
}

impl Region {
    fn wrap(&self, e: String) -> String {
        match self {
            Region::Define(name) => format!("evaluating `{name}`: {e}"),
            Region::Hypothesis => format!("evaluating hypothesis: {e}"),
            Region::Goal => format!("evaluating goal: {e}"),
        }
    }
}

/// Pooled-constant key: each distinct literal loads one register, once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Bool(bool),
    Int(i64),
    Null,
    EmptySet,
    EmptyMap,
    EmptySeq,
}

/// Value-numbering key for common-subexpression sharing. Keyed on operand
/// *registers*, so two occurrences share only when their operands already
/// share — and registers never change value once written, so reuse always
/// sees exactly what the first occurrence computed (or stops at the same
/// error the first occurrence raised). Quantifiers are never shared (their
/// binder registers are private), and keys created while lowering a
/// quantifier body are layered and popped with the body, so no outer
/// instruction can reuse a binder-dependent register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CseKey {
    Not(R),
    Bool2(Bool2, R, R),
    Int2(Int2, R, R),
    Neg(R),
    Eq(R, R),
    Ite(R, R, R),
    Coll(CollOp, R, R, R),
}

/// An obligation lowered to a flat register program.
///
/// Built once per model search by [`Program::lower`] (or once per formula by
/// [`Program::lower_formula`]); executed per block of up to [`LANES`]
/// candidates by [`Program::run_block`], or for a formula by
/// [`Program::eval_in_regs`].
#[derive(Debug, Clone)]
pub struct Program {
    /// Main instruction stream: defines, interleaved hypothesis checks, goal.
    instrs: Vec<Instr>,
    /// Quantifier body subprograms, referenced by [`Instr::Quant`].
    bodies: Vec<Vec<Instr>>,
    /// Pooled constants, loaded once per execution environment.
    consts: Vec<(R, Value)>,
    /// `(first instruction index, region)` pairs, ascending: the error-prefix
    /// region of every instruction, looked up by binary search on failure.
    regions: Vec<(u32, Region)>,
    /// Variable-name → register mapping for the inputs and the defines, in
    /// that order, used to reconstruct counter-models. Where a define shadows
    /// an input both are listed and the define comes later, so it wins —
    /// matching the reference evaluator's overwritten model entry.
    named: Vec<(String, R)>,
    reg_count: usize,
    input_count: usize,
}

struct Lower<'a> {
    /// Stack of instruction sinks: the main stream at the bottom, one per
    /// open quantifier body above it.
    sinks: Vec<Vec<Instr>>,
    bodies: Vec<Vec<Instr>>,
    consts: Vec<(R, Value)>,
    const_map: HashMap<ConstKey, R>,
    /// The variables in scope, innermost last: input `i` in register `i`,
    /// then each define once its stage is lowered, then the binder of each
    /// open quantifier. A name resolves to its last entry.
    scope: Vec<(&'a str, R)>,
    /// Layered value-numbering maps (one layer per open quantifier body).
    cse: Vec<HashMap<CseKey, R>>,
    /// Layered already-asserted `(register, kind)` coercions.
    coerced: Vec<HashSet<(R, Kind)>>,
    next_reg: R,
}

impl<'a> Lower<'a> {
    fn fresh(&mut self) -> R {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn emit(&mut self, instr: Instr) {
        self.sinks.last_mut().expect("sink stack").push(instr);
    }

    fn const_reg(&mut self, key: ConstKey) -> R {
        if let Some(&r) = self.const_map.get(&key) {
            return r;
        }
        let value = match key {
            ConstKey::Bool(b) => Value::Bool(b),
            ConstKey::Int(i) => Value::Int(i),
            ConstKey::Null => Value::Elem(NULL_ELEM),
            ConstKey::EmptySet => Value::Set(semcommute_logic::PSet::new()),
            ConstKey::EmptyMap => Value::Map(semcommute_logic::PMap::new()),
            ConstKey::EmptySeq => Value::Seq(semcommute_logic::PSeq::new()),
        };
        let r = self.fresh();
        self.consts.push((r, value));
        self.const_map.insert(key, r);
        r
    }

    /// Emits a sort assertion unless the same `(register, kind)` pair was
    /// already asserted on this path. Skipping a repeat is
    /// observation-equivalent: registers are immutable once written, so the
    /// repeat would see the same value (and the first occurrence — which is
    /// also where the reference evaluator first checks — already decided).
    fn coerce(&mut self, a: R, kind: Kind, ctx: &'static str) {
        if self.coerced.iter().any(|layer| layer.contains(&(a, kind))) {
            return;
        }
        self.emit(Instr::Coerce { a, kind, ctx });
        self.coerced.last_mut().expect("layer").insert((a, kind));
    }

    /// Emits a value-producing instruction unless an equivalent one (same
    /// key) is already available; returns the result register either way.
    fn cse(&mut self, key: CseKey, build: impl FnOnce(R) -> Instr) -> R {
        if let Some(&r) = self.cse.iter().rev().find_map(|l| l.get(&key)) {
            return r;
        }
        let out = self.fresh();
        let instr = build(out);
        self.emit(instr);
        self.cse.last_mut().expect("layer").insert(key, out);
        out
    }

    /// Lowers a collection operation: operands in evaluation order, each
    /// followed by its sort assertion, exactly mirroring the reference
    /// evaluator's operand/check interleaving and context strings.
    fn coll(&mut self, op: CollOp, args: &[(&'a Term, Kind, &'static str)]) -> R {
        let mut regs = [0u32; 3];
        for (i, (term, kind, ctx)) in args.iter().enumerate() {
            let r = self.lower(term);
            self.coerce(r, *kind, ctx);
            regs[i] = r;
        }
        for i in args.len()..3 {
            regs[i] = regs[0];
        }
        let [a, b, c] = regs;
        self.cse(CseKey::Coll(op, a, b, c), |out| Instr::Coll {
            op,
            out,
            a,
            b,
            c,
        })
    }

    /// Lowers an `and` / `or` chain: each operand is evaluated then
    /// bool-checked *before* the next operand is evaluated (the reference
    /// interleaving), and the fold is total — no operand is skipped.
    fn chain(&mut self, op: Bool2, ctx: &'static str, cs: &'a [Term]) -> R {
        let empty = matches!(op, Bool2::And);
        let mut acc: Option<R> = None;
        for c in cs {
            let rc = self.lower(c);
            self.coerce(rc, Kind::Bool, ctx);
            acc = Some(match acc {
                None => rc,
                Some(a) => self.cse(CseKey::Bool2(op, a, rc), |out| Instr::Bool2 {
                    op,
                    out,
                    a,
                    b: rc,
                }),
            });
        }
        acc.unwrap_or_else(|| self.const_reg(ConstKey::Bool(empty)))
    }

    fn bool2(&mut self, op: Bool2, ctx: &'static str, a: &'a Term, b: &'a Term) -> R {
        let ra = self.lower(a);
        self.coerce(ra, Kind::Bool, ctx);
        let rb = self.lower(b);
        self.coerce(rb, Kind::Bool, ctx);
        self.cse(CseKey::Bool2(op, ra, rb), |out| Instr::Bool2 {
            op,
            out,
            a: ra,
            b: rb,
        })
    }

    fn int2(&mut self, op: Int2, ctx: &'static str, a: &'a Term, b: &'a Term) -> R {
        let ra = self.lower(a);
        self.coerce(ra, Kind::Int, ctx);
        let rb = self.lower(b);
        self.coerce(rb, Kind::Int, ctx);
        self.cse(CseKey::Int2(op, ra, rb), |out| Instr::Int2 {
            op,
            out,
            a: ra,
            b: rb,
        })
    }

    fn lower(&mut self, term: &'a Term) -> R {
        use CollOp as O;
        use Kind as K;
        use Term as T;
        match term {
            T::Var(v) => {
                let name = v.name.as_str();
                match self.scope.iter().rev().find(|(n, _)| *n == name) {
                    Some(&(_, r)) => r,
                    None => {
                        // Defensive, like the reference: reading a variable
                        // that is not in scope errors at the read site. The
                        // dummy result register is never reached.
                        self.emit(Instr::Unbound { name: name.into() });
                        self.fresh()
                    }
                }
            }
            T::BoolLit(b) => self.const_reg(ConstKey::Bool(*b)),
            T::IntLit(i) => self.const_reg(ConstKey::Int(*i)),
            T::Null => self.const_reg(ConstKey::Null),
            T::EmptySet => self.const_reg(ConstKey::EmptySet),
            T::EmptyMap => self.const_reg(ConstKey::EmptyMap),
            T::EmptySeq => self.const_reg(ConstKey::EmptySeq),
            T::Not(a) => {
                let ra = self.lower(a);
                self.coerce(ra, K::Bool, "not");
                self.cse(CseKey::Not(ra), |out| Instr::Not { out, a: ra })
            }
            T::Neg(a) => {
                let ra = self.lower(a);
                self.coerce(ra, K::Int, "neg");
                self.cse(CseKey::Neg(ra), |out| Instr::Neg { out, a: ra })
            }
            T::And(cs) => self.chain(Bool2::And, "and", cs),
            T::Or(cs) => self.chain(Bool2::Or, "or", cs),
            T::Implies(a, b) => self.bool2(Bool2::Implies, "implies", a, b),
            T::Iff(a, b) => self.bool2(Bool2::Iff, "iff", a, b),
            T::Add(a, b) => self.int2(Int2::Add, "add", a, b),
            T::Sub(a, b) => self.int2(Int2::Sub, "sub", a, b),
            T::Lt(a, b) => self.int2(Int2::Lt, "lt", a, b),
            T::Le(a, b) => self.int2(Int2::Le, "le", a, b),
            T::Eq(a, b) => {
                let ra = self.lower(a);
                let rb = self.lower(b);
                self.cse(CseKey::Eq(ra, rb), |out| Instr::Eq { out, a: ra, b: rb })
            }
            T::Ite(c, t, e) => {
                let rc = self.lower(c);
                self.coerce(rc, K::Bool, "ite condition");
                let rt = self.lower(t);
                let re = self.lower(e);
                self.cse(CseKey::Ite(rc, rt, re), |out| Instr::Ite {
                    out,
                    c: rc,
                    t: rt,
                    e: re,
                })
            }
            T::Card(s) => self.coll(O::Card, &[(s, K::Set, "card")]),
            T::MapSize(m) => self.coll(O::MapSize, &[(m, K::Map, "map size")]),
            T::SeqLen(s) => self.coll(O::SeqLen, &[(s, K::Seq, "seq len")]),
            T::SetAdd(s, v) => self.coll(
                O::SetAdd,
                &[(s, K::Set, "set add"), (v, K::Elem, "set add")],
            ),
            T::SetRemove(s, v) => self.coll(
                O::SetRemove,
                &[(s, K::Set, "set remove"), (v, K::Elem, "set remove")],
            ),
            // The reference evaluates the *value* before the set for
            // `member`; operands stay in that order.
            T::Member(v, s) => {
                self.coll(O::Member, &[(v, K::Elem, "member"), (s, K::Set, "member")])
            }
            T::MapPut(m, k, v) => self.coll(
                O::MapPut,
                &[
                    (m, K::Map, "map put"),
                    (k, K::Elem, "map put key"),
                    (v, K::Elem, "map put value"),
                ],
            ),
            T::MapRemove(m, k) => self.coll(
                O::MapRemove,
                &[(m, K::Map, "map remove"), (k, K::Elem, "map remove key")],
            ),
            T::MapGet(m, k) => self.coll(
                O::MapGet,
                &[(m, K::Map, "map get"), (k, K::Elem, "map get key")],
            ),
            T::MapHasKey(m, k) => self.coll(
                O::MapHasKey,
                &[(m, K::Map, "map has-key"), (k, K::Elem, "map has-key key")],
            ),
            T::SeqInsertAt(s, i, v) => self.coll(
                O::SeqInsertAt,
                &[
                    (s, K::Seq, "seq insert-at"),
                    (i, K::Int, "seq insert-at index"),
                    (v, K::Elem, "seq insert-at value"),
                ],
            ),
            T::SeqRemoveAt(s, i) => self.coll(
                O::SeqRemoveAt,
                &[
                    (s, K::Seq, "seq remove-at"),
                    (i, K::Int, "seq remove-at index"),
                ],
            ),
            T::SeqSetAt(s, i, v) => self.coll(
                O::SeqSetAt,
                &[
                    (s, K::Seq, "seq set-at"),
                    (i, K::Int, "seq set-at index"),
                    (v, K::Elem, "seq set-at value"),
                ],
            ),
            T::SeqAt(s, i) => self.coll(
                O::SeqAt,
                &[(s, K::Seq, "seq at"), (i, K::Int, "seq at index")],
            ),
            T::SeqIndexOf(s, v) => self.coll(
                O::SeqIndexOf,
                &[
                    (s, K::Seq, "seq index-of"),
                    (v, K::Elem, "seq index-of value"),
                ],
            ),
            T::SeqLastIndexOf(s, v) => self.coll(
                O::SeqLastIndexOf,
                &[
                    (s, K::Seq, "seq last-index-of"),
                    (v, K::Elem, "seq last-index-of value"),
                ],
            ),
            T::SeqContains(s, v) => self.coll(
                O::SeqContains,
                &[
                    (s, K::Seq, "seq contains"),
                    (v, K::Elem, "seq contains value"),
                ],
            ),
            T::ForallInt { var, lo, hi, body } | T::ExistsInt { var, lo, hi, body } => {
                let rlo = self.lower(lo);
                self.coerce(rlo, K::Int, "quantifier lower bound");
                let rhi = self.lower(hi);
                self.coerce(rhi, K::Int, "quantifier upper bound");
                let binder = self.fresh();
                // The body is lowered into its own subprogram with its own
                // CSE layer: body instructions may *reuse* outer registers
                // (binder-independent work hoists out of the loop for
                // free), but nothing lowered inside the body leaks out.
                self.scope.push((var.as_str(), binder));
                self.sinks.push(Vec::new());
                self.cse.push(HashMap::new());
                self.coerced.push(HashSet::new());
                let body_out = self.lower(body);
                self.coerce(body_out, K::Bool, "quantifier body");
                let body_instrs = self.sinks.pop().expect("body sink");
                self.cse.pop();
                self.coerced.pop();
                self.scope.pop();
                let body_idx = self.bodies.len() as u32;
                self.bodies.push(body_instrs);
                let out = self.fresh();
                self.emit(Instr::Quant {
                    out,
                    universal: matches!(term, T::ForallInt { .. }),
                    binder,
                    lo: rlo,
                    hi: rhi,
                    body: body_idx,
                    body_out,
                });
                out
            }
        }
    }
}

impl Program {
    /// Lowers an obligation to its flat register program against a fixed
    /// input-variable order: `input_order[i]` is read from register `i` (the
    /// search passes its space's enumeration order). Defines are computed
    /// and hypotheses checked in the obligation's schedule
    /// (`obligation::schedule`), the order the reference replay follows.
    /// Called once per model search; the program is then shared (immutably)
    /// by every range task scanning the search.
    pub fn lower(ob: &Obligation, input_order: &[String]) -> Program {
        let input_count = input_order.len();
        let mut lw = Lower {
            sinks: vec![Vec::new()],
            bodies: Vec::new(),
            consts: Vec::new(),
            const_map: HashMap::new(),
            scope: input_order
                .iter()
                .enumerate()
                .map(|(i, name)| (name.as_str(), i as R))
                .collect(),
            cse: vec![HashMap::new()],
            coerced: vec![HashSet::new()],
            next_reg: input_count as R,
        };
        let mut regions: Vec<(u32, Region)> = Vec::new();
        for stage in schedule(ob) {
            let start = lw.sinks[0].len() as u32;
            match stage {
                Stage::Define(i) => {
                    let (name, term) = &ob.defines[i];
                    regions.push((start, Region::Define(name.clone())));
                    let r = lw.lower(term);
                    lw.scope.push((name.as_str(), r));
                }
                Stage::Hypothesis(i) => {
                    regions.push((start, Region::Hypothesis));
                    let r = lw.lower(&ob.hypotheses[i]);
                    lw.emit(Instr::Check { r });
                }
            }
        }
        regions.push((lw.sinks[0].len() as u32, Region::Goal));
        let goal = lw.lower(&ob.goal);
        lw.emit(Instr::CheckGoal { r: goal });

        Program {
            instrs: lw.sinks.pop().expect("main sink"),
            bodies: lw.bodies,
            consts: lw.consts,
            regions,
            // Every binder has been popped: the scope holds the inputs, then
            // the defines.
            named: lw
                .scope
                .into_iter()
                .map(|(name, r)| (name.to_string(), r))
                .collect(),
            reg_count: lw.next_reg as usize,
            input_count,
        }
    }

    /// Number of instructions in the main stream (bodies excluded): the
    /// static program size.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the program has no instructions (cannot happen for a
    /// lowered obligation — the goal check is always present).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Wraps a raw evaluation error with the error prefix of the region the
    /// failing instruction belongs to.
    fn wrap(&self, pc: usize, e: String) -> String {
        let idx = self
            .regions
            .partition_point(|(start, _)| *start as usize <= pc)
            .saturating_sub(1);
        self.regions[idx].1.wrap(e)
    }
}

// ---------------------------------------------------------------------------
// Pure operation semantics shared by the per-candidate step and the block
// executor's column paths.
// ---------------------------------------------------------------------------
//
// Every operand of these helpers has already passed its `Coerce` assertion
// (the lowering emits the assertion before the consuming instruction, exactly
// where the reference evaluator checks), so the sort-mismatch arms below are
// defensive "internal:" errors, not reference semantics. The *semantic*
// errors a pure instruction can raise are exactly the reference ones: the
// `Eq` sort comparison, the `Ite` branch merge, and the quantifier range
// guard.

fn bool_of(v: &Value) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(format!("internal: expected bool, found {}", other.sort())),
    }
}

fn int_of(v: &Value) -> Result<i64, String> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(format!("internal: expected int, found {}", other.sort())),
    }
}

fn elem_of(v: &Value) -> Result<ElemId, String> {
    match v {
        Value::Elem(e) => Ok(*e),
        other => Err(format!("internal: expected elem, found {}", other.sort())),
    }
}

fn pset_of(v: &Value) -> Result<&PSet, String> {
    match v {
        Value::Set(s) => Ok(s),
        other => Err(format!("internal: expected set, found {}", other.sort())),
    }
}

fn pmap_of(v: &Value) -> Result<&PMap, String> {
    match v {
        Value::Map(m) => Ok(m),
        other => Err(format!("internal: expected map, found {}", other.sort())),
    }
}

fn pseq_of(v: &Value) -> Result<&PSeq, String> {
    match v {
        Value::Seq(s) => Ok(s),
        other => Err(format!("internal: expected seq, found {}", other.sort())),
    }
}

/// The reference evaluator's message for a variable it cannot look up.
fn unbound(name: &str) -> String {
    format!("unbound variable `{name}`")
}

fn apply_eq(a: &Value, b: &Value) -> Result<Value, String> {
    if a.sort() != b.sort() {
        return Err(format!(
            "cannot compare values of sorts {} and {}",
            a.sort(),
            b.sort()
        ));
    }
    Ok(Value::Bool(a == b))
}

fn apply_ite(c: &Value, t: &Value, e: &Value) -> Result<Value, String> {
    let c = bool_of(c)?;
    if t.sort() != e.sort() {
        // The reference evaluator reports branch-sort mismatches through the
        // same `IncomparableSorts` error as `Eq`.
        return Err(format!(
            "cannot compare values of sorts {} and {}",
            t.sort(),
            e.sort()
        ));
    }
    Ok(if c { t.clone() } else { e.clone() })
}

/// Applies a collection operation to already-sort-checked operands (in
/// evaluation order — for `Member` that is value, then set). Writes clone the
/// copy-on-write handle and mutate the clone; reads borrow in place.
fn apply_coll(op: CollOp, a: &Value, b: &Value, c: &Value) -> Result<Value, String> {
    Ok(match op {
        CollOp::SetAdd => {
            let mut s = pset_of(a)?.clone();
            s.insert(elem_of(b)?);
            Value::Set(s)
        }
        CollOp::SetRemove => {
            let mut s = pset_of(a)?.clone();
            s.remove(&elem_of(b)?);
            Value::Set(s)
        }
        CollOp::Member => Value::Bool(pset_of(b)?.contains(&elem_of(a)?)),
        CollOp::Card => Value::Int(pset_of(a)?.len() as i64),
        CollOp::MapPut => {
            let mut m = pmap_of(a)?.clone();
            m.insert(elem_of(b)?, elem_of(c)?);
            Value::Map(m)
        }
        CollOp::MapRemove => {
            let mut m = pmap_of(a)?.clone();
            m.remove(&elem_of(b)?);
            Value::Map(m)
        }
        CollOp::MapGet => Value::Elem(pmap_of(a)?.get(&elem_of(b)?).copied().unwrap_or(NULL_ELEM)),
        CollOp::MapHasKey => Value::Bool(pmap_of(a)?.contains_key(&elem_of(b)?)),
        CollOp::MapSize => Value::Int(pmap_of(a)?.len() as i64),
        CollOp::SeqInsertAt => {
            let mut s = pseq_of(a)?.clone();
            let i = int_of(b)?;
            let v = elem_of(c)?;
            let idx = i.clamp(0, s.len() as i64) as usize;
            s.insert(idx, v);
            Value::Seq(s)
        }
        CollOp::SeqRemoveAt => {
            let mut s = pseq_of(a)?.clone();
            let i = int_of(b)?;
            if i >= 0 && (i as usize) < s.len() {
                s.remove(i as usize);
            }
            Value::Seq(s)
        }
        CollOp::SeqSetAt => {
            let mut s = pseq_of(a)?.clone();
            let i = int_of(b)?;
            let v = elem_of(c)?;
            if i >= 0 && (i as usize) < s.len() {
                s.set(i as usize, v);
            }
            Value::Seq(s)
        }
        CollOp::SeqAt => {
            let s = pseq_of(a)?;
            let i = int_of(b)?;
            Value::Elem(if i >= 0 && (i as usize) < s.len() {
                s[i as usize]
            } else {
                NULL_ELEM
            })
        }
        CollOp::SeqLen => Value::Int(pseq_of(a)?.len() as i64),
        CollOp::SeqIndexOf => {
            let v = elem_of(b)?;
            Value::Int(
                pseq_of(a)?
                    .iter()
                    .position(|&e| e == v)
                    .map_or(-1, |i| i as i64),
            )
        }
        CollOp::SeqLastIndexOf => {
            let v = elem_of(b)?;
            Value::Int(
                pseq_of(a)?
                    .iter()
                    .rposition(|&e| e == v)
                    .map_or(-1, |i| i as i64),
            )
        }
        CollOp::SeqContains => Value::Bool(pseq_of(a)?.contains(&elem_of(b)?)),
    })
}

/// The operand registers of a value-producing pure instruction; unary
/// operations repeat the single operand. `Coerce`, `Unbound`, `Quant`,
/// `Check`, and `CheckGoal` are not pure and never reach the callers.
fn operands(instr: &Instr) -> [R; 3] {
    match *instr {
        Instr::Not { a, .. } | Instr::Neg { a, .. } => [a, a, a],
        Instr::Bool2 { a, b, .. } | Instr::Int2 { a, b, .. } | Instr::Eq { a, b, .. } => [a, b, a],
        Instr::Ite { c, t, e, .. } => [c, t, e],
        Instr::Coll { a, b, c, .. } => [a, b, c],
        _ => [0, 0, 0],
    }
}

/// The output register of a value-producing instruction.
fn out_reg(instr: &Instr) -> R {
    match *instr {
        Instr::Not { out, .. }
        | Instr::Bool2 { out, .. }
        | Instr::Int2 { out, .. }
        | Instr::Neg { out, .. }
        | Instr::Eq { out, .. }
        | Instr::Ite { out, .. }
        | Instr::Coll { out, .. }
        | Instr::Quant { out, .. } => out,
        _ => 0,
    }
}

/// Applies a pure instruction to its (already coerced) operand values.
fn apply(instr: &Instr, a: &Value, b: &Value, c: &Value) -> Result<Value, String> {
    match instr {
        Instr::Not { .. } => Ok(Value::Bool(!bool_of(a)?)),
        Instr::Bool2 { op, .. } => {
            let x = bool_of(a)?;
            let y = bool_of(b)?;
            Ok(Value::Bool(match op {
                Bool2::And => x & y,
                Bool2::Or => x | y,
                Bool2::Implies => !x | y,
                Bool2::Iff => x == y,
            }))
        }
        Instr::Int2 { op, .. } => {
            let x = int_of(a)?;
            let y = int_of(b)?;
            Ok(match op {
                Int2::Add => Value::Int(x.wrapping_add(y)),
                Int2::Sub => Value::Int(x.wrapping_sub(y)),
                Int2::Lt => Value::Bool(x < y),
                Int2::Le => Value::Bool(x <= y),
            })
        }
        Instr::Neg { .. } => Ok(Value::Int(int_of(a)?.wrapping_neg())),
        Instr::Eq { .. } => apply_eq(a, b),
        Instr::Ite { .. } => apply_ite(a, b, c),
        Instr::Coll { op, .. } => apply_coll(*op, a, b, c),
        _ => Err("internal: not a pure instruction".to_string()),
    }
}

// ---------------------------------------------------------------------------
// The per-candidate instruction step.
// ---------------------------------------------------------------------------

/// One candidate's registers, as [`Program::step`] reads and writes them: a
/// `[Value]` slice ([`Program::eval_in_regs`]) or one lane of a block's
/// columns ([`LaneRegs`]).
trait Regs {
    /// Borrows register `r`; a packed lane is materialized into `scratch`.
    fn get<'a>(&'a self, r: R, scratch: &'a mut Value) -> &'a Value;
    /// Writes register `r`. `shape` is the writing instruction's fixed
    /// [`out_shape`], the column representation the lane view keeps.
    fn set(&mut self, r: R, shape: Shape, v: Value);
}

impl Regs for [Value] {
    fn get<'a>(&'a self, r: R, _: &'a mut Value) -> &'a Value {
        &self[r as usize]
    }

    fn set(&mut self, r: R, _: Shape, v: Value) {
        self[r as usize] = v;
    }
}

/// One lane of a block's columns.
struct LaneRegs<'a> {
    cols: &'a mut [Col],
    lane: usize,
}

impl Regs for LaneRegs<'_> {
    fn get<'a>(&'a self, r: R, scratch: &'a mut Value) -> &'a Value {
        lane_ref(&self.cols[r as usize], self.lane, scratch)
    }

    fn set(&mut self, r: R, shape: Shape, v: Value) {
        write_lane(&mut self.cols[r as usize], self.lane, shape, v);
    }
}

/// A pure instruction's operand registers, output register and output shape:
/// decoded once per instruction, so a per-lane loop pays only for the
/// operation.
type Decoded = ([R; 3], R, Shape);

fn decode(pure: &Instr) -> Decoded {
    (operands(pure), out_reg(pure), out_shape(pure))
}

/// The per-candidate step of a pure instruction: reads the operands,
/// applies the operation, writes the result.
#[inline(always)]
fn step_pure<V: Regs + ?Sized>(
    pure: &Instr,
    ([a, b, c], out, shape): Decoded,
    regs: &mut V,
) -> Result<(), String> {
    let mut s = [Value::Bool(false), Value::Bool(false), Value::Bool(false)];
    let [s1, s2, s3] = &mut s;
    let v = apply(pure, regs.get(a, s1), regs.get(b, s2), regs.get(c, s3))?;
    regs.set(out, shape, v);
    Ok(())
}

impl Program {
    /// Executes one instruction for one candidate: the per-candidate
    /// semantics of the instruction set, shared by formula evaluation and the
    /// block executor's per-lane paths. Errors are raw (the caller applies
    /// the region prefix). `Check` and `CheckGoal` are handled by
    /// [`Program::run_block`] and [`Program::eval_in_regs`] and never reach
    /// here.
    #[inline]
    fn step<V: Regs + ?Sized>(&self, instr: &Instr, regs: &mut V) -> Result<(), String> {
        match instr {
            Instr::Coerce { a, kind, ctx } => {
                coerce_value(regs.get(*a, &mut Value::Bool(false)), *kind, ctx)
            }
            Instr::Unbound { name } => Err(unbound(name)),
            Instr::Check { .. } | Instr::CheckGoal { .. } => {
                Err("internal: check outside the main stream".to_string())
            }
            Instr::Quant { out, .. } => {
                let b = self.quant(instr, regs)?;
                regs.set(*out, Shape::Bool, Value::Bool(b));
                Ok(())
            }
            pure => step_pure(pure, decode(pure), regs),
        }
    }

    /// Evaluates a quantifier for one candidate, mirroring the reference
    /// loop exactly: range guard, ascending iteration, early exit on the
    /// deciding iteration, first body error wins. The binder register is
    /// private to the body, so no save/restore is needed.
    ///
    /// Kept out of line so that [`Program::step`], which it calls once per
    /// body instruction and iteration, inlines into its loop instead of
    /// being a call each time: with `step` called, candidate evaluation on
    /// the catalog ran about 2 % slower.
    #[inline(never)]
    fn quant<V: Regs + ?Sized>(&self, instr: &Instr, regs: &mut V) -> Result<bool, String> {
        let Instr::Quant {
            universal,
            binder,
            lo,
            hi,
            body,
            body_out,
            ..
        } = *instr
        else {
            return Err("internal: not a quantifier".to_string());
        };
        let mut scratch = Value::Bool(false);
        let lo = int_of(regs.get(lo, &mut scratch))?;
        let hi = int_of(regs.get(hi, &mut scratch))?;
        // Saturating, like the reference: a range wider than `i64` reports
        // the largest width instead of wrapping below the guard.
        let width = hi.saturating_sub(lo);
        if width > MAX_QUANTIFIER_RANGE {
            return Err(format!(
                "quantifier range of width {width} is too large to enumerate"
            ));
        }
        for i in lo..hi {
            regs.set(binder, Shape::Int, Value::Int(i));
            for body_instr in &self.bodies[body as usize] {
                self.step(body_instr, regs)?;
            }
            if bool_of(regs.get(body_out, &mut scratch))? != universal {
                return Ok(!universal);
            }
        }
        Ok(universal)
    }

    /// Lowers a bare boolean formula to a goal-only program against a
    /// caller-supplied input order: `input_order[i]` is read from register
    /// `i`. Free variables of the formula that are not listed lower to an
    /// unbound-variable instruction, so evaluating a formula whose inputs
    /// the caller cannot supply fails loudly instead of guessing — the same
    /// contract the reference evaluator's `Model` lookup has. Duplicate names
    /// resolve to the *last* occurrence, matching a `Model` built by
    /// inserting the inputs in order.
    ///
    /// This is the entry point for callers outside the prover (the runtime's
    /// admission gatekeeper) that want the flat-register evaluation speed for
    /// a formula that is not a proof obligation.
    pub fn lower_formula(formula: &Term, input_order: &[String]) -> Program {
        Program::lower(
            &Obligation::new("formula").goal(formula.clone()),
            input_order,
        )
    }

    /// Number of input slots (the length of the `input_order` the program was
    /// lowered with).
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Which input slots the program actually reads, per slot index.
    ///
    /// A slot is *read* when some instruction (in the main stream or any
    /// quantifier body) consumes its register. Slots whose variable was
    /// eliminated by lowering never influence evaluation, so a caller may
    /// pass any placeholder value there — this is what lets the gatekeeper
    /// derive its `requires_pre_state` projection from the program instead of
    /// a syntactic free-variable scan.
    pub fn input_reads(&self) -> Vec<bool> {
        let mut reads = vec![false; self.input_count];
        let mut mark = |r: R| {
            if (r as usize) < reads.len() {
                reads[r as usize] = true;
            }
        };
        for instr in self.instrs.iter().chain(self.bodies.iter().flatten()) {
            // `operands()` repeats register 0 for non-value instructions, so
            // each variant lists its genuine reads explicitly here.
            match *instr {
                Instr::Coerce { a, .. } | Instr::Not { a, .. } | Instr::Neg { a, .. } => mark(a),
                Instr::Unbound { .. } => {}
                Instr::Bool2 { a, b, .. } | Instr::Int2 { a, b, .. } | Instr::Eq { a, b, .. } => {
                    mark(a);
                    mark(b);
                }
                Instr::Ite { c, t, e, .. } => {
                    mark(c);
                    mark(t);
                    mark(e);
                }
                Instr::Coll { a, b, c, .. } => {
                    mark(a);
                    mark(b);
                    mark(c);
                }
                Instr::Quant { lo, hi, .. } => {
                    mark(lo);
                    mark(hi);
                }
                Instr::Check { r } | Instr::CheckGoal { r } => mark(r),
            }
        }
        reads
    }

    /// First half of evaluating a goal-only program (from
    /// [`Program::lower_formula`]) as a boolean formula: grows `regs` to this
    /// program's register count and writes the constant pool. The caller then
    /// places the input values in `regs[0..input_count]` directly —
    /// skipping inputs [`input_reads`](Program::input_reads) marks unread,
    /// whose registers no instruction ever touches — and finishes with
    /// [`eval_in_regs`](Program::eval_in_regs). Constant registers never
    /// overlap input registers, so the two fills commute.
    ///
    /// `regs` is caller-owned and reusable across calls **and across
    /// programs**: every register an execution reads is rewritten (constants
    /// here, inputs by the caller, SSA temporaries by the instruction stream)
    /// before that read, so stale values from a previous evaluation never
    /// leak into this one.
    pub fn prepare_regs(&self, regs: &mut Vec<Value>) {
        if regs.len() < self.reg_count {
            regs.resize(self.reg_count, Value::Bool(false));
        }
        for (r, v) in &self.consts {
            regs[*r as usize] = v.clone();
        }
    }

    /// Second half of evaluating a formula: runs the instruction stream over
    /// registers prepared by [`prepare_regs`](Program::prepare_regs) and
    /// filled by the caller. `Ok(true)` iff the goal holds.
    ///
    /// # Errors
    ///
    /// Returns the reference evaluator's error (with the `"evaluating goal:"`
    /// region prefix) when the formula cannot be evaluated — an unbound
    /// variable, an ill-sorted operand, or an oversized quantifier range.
    pub fn eval_in_regs(&self, regs: &mut [Value]) -> Result<bool, String> {
        for (pc, instr) in self.instrs.iter().enumerate() {
            let step = match instr {
                // The goal check ends a goal-only program. `eval_bool`
                // reports a non-bool formula with a `"formula:"` context.
                Instr::CheckGoal { r } => match &regs[*r as usize] {
                    Value::Bool(b) => return Ok(*b),
                    other => Err(format!("formula: expected bool, found {}", other.sort())),
                },
                _ => self.step(instr, regs),
            };
            step.map_err(|e| self.wrap(pc, e))?;
        }
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Lane-mask helpers.
// ---------------------------------------------------------------------------

fn mask_zero() -> Lanes {
    [0; 4]
}

/// A mask with bits `0..n` set (`n` ≤ [`LANES`]).
fn lanes_up_to(n: usize) -> Lanes {
    let mut m = [0u64; 4];
    for (w, word) in m.iter_mut().enumerate() {
        let base = w * 64;
        *word = if n >= base + 64 {
            u64::MAX
        } else if n > base {
            (1u64 << (n - base)) - 1
        } else {
            0
        };
    }
    m
}

fn mask_and(a: Lanes, b: Lanes) -> Lanes {
    [a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]]
}

fn mask_or(a: Lanes, b: Lanes) -> Lanes {
    [a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]]
}

fn mask_not(a: Lanes) -> Lanes {
    [!a[0], !a[1], !a[2], !a[3]]
}

fn mask_is_empty(m: &Lanes) -> bool {
    m.iter().all(|w| *w == 0)
}

fn mask_popcount(m: &Lanes) -> u64 {
    m.iter().map(|w| w.count_ones() as u64).sum()
}

fn lane_bit(m: &Lanes, lane: usize) -> bool {
    m[lane / 64] & (1u64 << (lane % 64)) != 0
}

fn set_lane_bit(m: &mut Lanes, lane: usize, value: bool) {
    let bit = 1u64 << (lane % 64);
    if value {
        m[lane / 64] |= bit;
    } else {
        m[lane / 64] &= !bit;
    }
}

/// Index of the lowest set bit, if any — the *minimum lane*, which is the
/// candidate the sequential walk would reach first.
fn first_lane(m: &Lanes) -> Option<usize> {
    for (w, word) in m.iter().enumerate() {
        if *word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

/// Iterates the set lanes of a mask in ascending order.
struct LaneIter {
    mask: Lanes,
    word: usize,
}

impl LaneIter {
    fn new(mask: Lanes) -> LaneIter {
        LaneIter { mask, word: 0 }
    }
}

impl Iterator for LaneIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word < 4 {
            let w = self.mask[self.word];
            if w != 0 {
                self.mask[self.word] &= w - 1;
                return Some(self.word * 64 + w.trailing_zeros() as usize);
            }
            self.word += 1;
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Block executor.
// ---------------------------------------------------------------------------

/// One register's column across a block of candidate lanes.
#[derive(Debug, Clone)]
enum Col {
    /// The same value in every lane: constants, block-constant inputs
    /// (enumeration varies the trailing variables fastest, so leading
    /// variables are uniform for long runs of candidates), and results of
    /// all-uniform operations — evaluated once per block.
    Uniform(Value),
    /// A boolean column as a 256-bit mask.
    Bools(Lanes),
    /// An integer column, one `i64` per lane.
    Ints(Box<[i64; LANES]>),
    /// Per-lane values (collections, elements, mixed sorts).
    Values(Vec<Value>),
}

/// An integer view of a column for the vectorized arithmetic paths.
enum IntsView<'a> {
    Arr(&'a [i64; LANES]),
    Splat(i64),
}

impl IntsView<'_> {
    fn get(&self, lane: usize) -> i64 {
        match self {
            IntsView::Arr(a) => a[lane],
            IntsView::Splat(i) => *i,
        }
    }
}

/// A full-width boolean mask view of a column, when one exists. Bits at
/// lanes holding non-boolean values are zero; callers only consume bits of
/// lanes known (via the preceding `Coerce`) to hold booleans.
fn bool_view(col: &Col) -> Option<Lanes> {
    match col {
        Col::Bools(m) => Some(*m),
        Col::Uniform(Value::Bool(b)) => Some(if *b { [u64::MAX; 4] } else { mask_zero() }),
        Col::Values(vs) => {
            let mut m = mask_zero();
            for (lane, v) in vs.iter().enumerate() {
                if matches!(v, Value::Bool(true)) {
                    set_lane_bit(&mut m, lane, true);
                }
            }
            Some(m)
        }
        _ => None,
    }
}

fn ints_view(col: &Col) -> Option<IntsView<'_>> {
    match col {
        Col::Ints(a) => Some(IntsView::Arr(a)),
        Col::Uniform(Value::Int(i)) => Some(IntsView::Splat(*i)),
        _ => None,
    }
}

/// A borrowed view of a column at one lane; `Bools` / `Ints` lanes are
/// materialized into `scratch`, `Uniform` / `Values` lanes are borrowed in
/// place (so collection reads keep their no-refcount borrow path).
fn lane_ref<'a>(col: &'a Col, lane: usize, scratch: &'a mut Value) -> &'a Value {
    match col {
        Col::Uniform(v) => v,
        Col::Values(vs) => &vs[lane],
        Col::Bools(m) => {
            *scratch = Value::Bool(lane_bit(m, lane));
            scratch
        }
        Col::Ints(a) => {
            *scratch = Value::Int(a[lane]);
            scratch
        }
    }
}

/// The column variant an instruction's output register uses — fixed per
/// instruction so per-lane writes within one block never flip a column's
/// representation mid-instruction (which would drop already-written lanes).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Bool,
    Int,
    Other,
}

fn out_shape(instr: &Instr) -> Shape {
    match instr {
        Instr::Not { .. } | Instr::Bool2 { .. } | Instr::Eq { .. } | Instr::Quant { .. } => {
            Shape::Bool
        }
        Instr::Int2 { op, .. } => match op {
            Int2::Add | Int2::Sub => Shape::Int,
            Int2::Lt | Int2::Le => Shape::Bool,
        },
        Instr::Neg { .. } => Shape::Int,
        Instr::Coll { op, .. } => match op {
            CollOp::Member | CollOp::MapHasKey | CollOp::SeqContains => Shape::Bool,
            CollOp::Card
            | CollOp::MapSize
            | CollOp::SeqLen
            | CollOp::SeqIndexOf
            | CollOp::SeqLastIndexOf => Shape::Int,
            _ => Shape::Other,
        },
        _ => Shape::Other,
    }
}

fn ensure_bools(col: &mut Col) -> &mut Lanes {
    if !matches!(col, Col::Bools(_)) {
        *col = Col::Bools(mask_zero());
    }
    match col {
        Col::Bools(m) => m,
        _ => unreachable!(),
    }
}

fn ensure_ints(col: &mut Col) -> &mut [i64; LANES] {
    if !matches!(col, Col::Ints(_)) {
        *col = Col::Ints(Box::new([0; LANES]));
    }
    match col {
        Col::Ints(a) => a,
        _ => unreachable!(),
    }
}

fn ensure_values(col: &mut Col) -> &mut Vec<Value> {
    if !matches!(col, Col::Values(_)) {
        *col = Col::Values(vec![Value::Bool(false); LANES]);
    }
    match col {
        Col::Values(vs) => vs,
        _ => unreachable!(),
    }
}

/// Writes one lane of a column, converting the column to the instruction's
/// output shape on first write (stale lanes from an earlier block are never
/// read: a lane is only read where it was written under this block's active
/// mask).
fn write_lane(col: &mut Col, lane: usize, shape: Shape, v: Value) {
    match (shape, v) {
        (Shape::Bool, Value::Bool(b)) => set_lane_bit(ensure_bools(col), lane, b),
        (Shape::Int, Value::Int(i)) => ensure_ints(col)[lane] = i,
        (_, v) => ensure_values(col)[lane] = v,
    }
}

/// The boolean mask of a column under `active`, for `Check` / `CheckGoal`.
///
/// Returns the mask plus the minimum active lane holding a non-boolean (with
/// the reference `"expected bool, found .."` message). When an error lane is
/// reported, the mask bits *below* it are valid — the caller applies them to
/// the lanes the sequential walk would still have reached before the error.
fn mask_col(col: &Col, active: Lanes) -> (Lanes, Option<(usize, String)>) {
    let err_at = |lane: usize, v: &Value| {
        (
            mask_zero(),
            Some((lane, format!("expected bool, found {}", v.sort()))),
        )
    };
    match col {
        Col::Bools(m) => (*m, None),
        Col::Uniform(Value::Bool(b)) => (if *b { [u64::MAX; 4] } else { mask_zero() }, None),
        Col::Uniform(v) => match first_lane(&active) {
            Some(lane) => err_at(lane, v),
            None => (mask_zero(), None),
        },
        Col::Ints(_) => match first_lane(&active) {
            Some(lane) => err_at(lane, &Value::Int(0)),
            None => (mask_zero(), None),
        },
        Col::Values(vs) => {
            let mut m = mask_zero();
            for lane in LaneIter::new(active) {
                match &vs[lane] {
                    Value::Bool(b) => set_lane_bit(&mut m, lane, *b),
                    other => {
                        return (
                            m,
                            Some((lane, format!("expected bool, found {}", other.sort()))),
                        )
                    }
                }
            }
            (m, None)
        }
    }
}

/// Reusable block execution state: one `Col` per register, the active-lane
/// mask, and the batch counters reported through
/// [`crate::stats::ProofStats`]. Created by [`Program::block_exec`], reused
/// across blocks.
pub struct BlockExec {
    cols: Vec<Col>,
    /// Lanes still in play: cleared by failed hypotheses and (at and above
    /// the error lane) by evaluation errors.
    active: Lanes,
    /// Lanes whose goal evaluated to `false` — counterexamples.
    cex: Lanes,
    /// Lanes that executed at least one instruction on the per-lane step
    /// ([`Program::step`]) within the current block.
    fallback: Lanes,
    batches: u64,
    fallback_lanes: u64,
    instrs_executed: u64,
}

/// The deciding event of one block: the *minimum-lane* counterexample or
/// evaluation error — exactly the event the sequential reference walk would
/// have stopped at. The lane indexes into the block that was executed.
#[derive(Debug)]
pub enum BlockEvent {
    /// The goal failed at this lane; reconstruct the model with
    /// [`Program::reconstruct_lane`].
    Counterexample(usize),
    /// Evaluation failed at this lane, with the reference evaluator's exact
    /// (wrapped) message.
    Error(usize, String),
}

impl BlockExec {
    /// Number of blocks executed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Number of candidate lanes that took the per-lane step fallback for
    /// at least one instruction (collection-valued or mixed-sort columns,
    /// quantifiers).
    pub fn fallback_lanes(&self) -> u64 {
        self.fallback_lanes
    }

    /// Total main-stream instructions executed, counted once per *active
    /// lane* (quantifier-body instructions are not counted separately).
    pub fn instrs_executed(&self) -> u64 {
        self.instrs_executed
    }
}

impl Program {
    /// Creates a reusable block-execution environment sized for this
    /// program, constants preloaded as uniform columns.
    pub fn block_exec(&self) -> BlockExec {
        let mut cols = vec![Col::Uniform(Value::Bool(false)); self.reg_count];
        for (r, v) in &self.consts {
            cols[*r as usize] = Col::Uniform(v.clone());
        }
        BlockExec {
            cols,
            active: mask_zero(),
            cex: mask_zero(),
            fallback: mask_zero(),
            batches: 0,
            fallback_lanes: 0,
            instrs_executed: 0,
        }
    }

    /// Executes the program over one materialized block of candidates,
    /// column-wise. Returns the block's minimum-lane deciding event, if any;
    /// `None` means every candidate in the block passed (hypothesis-rejected
    /// or goal-satisfied) without errors.
    pub fn run_block(&self, block: &BlockBuf, exec: &mut BlockExec) -> Option<BlockEvent> {
        let lanes = block.lanes();
        debug_assert_eq!(block.width(), self.input_count);
        debug_assert!(lanes <= LANES);
        exec.batches += 1;
        exec.active = lanes_up_to(lanes);
        exec.cex = mask_zero();
        exec.fallback = mask_zero();
        self.load_inputs(block, lanes, exec);

        let mut error: Option<(usize, String)> = None;
        for (pc, instr) in self.instrs.iter().enumerate() {
            if mask_is_empty(&exec.active) {
                break;
            }
            exec.instrs_executed += mask_popcount(&exec.active);
            if let Err((lane, raw)) = self.exec_col(instr, exec) {
                // The sequential walk would have stopped at this candidate:
                // suppress this lane and every lane above it, keep executing
                // the lanes below (an earlier-lane event still outranks
                // this error), and keep only the minimum-lane error.
                exec.active = mask_and(exec.active, lanes_up_to(lane));
                error = Some((lane, self.wrap(pc, raw)));
            }
        }
        exec.fallback_lanes += mask_popcount(&exec.fallback);

        match (first_lane(&exec.cex), error) {
            (Some(c), Some((e, _))) if c < e => Some(BlockEvent::Counterexample(c)),
            (_, Some((e, msg))) => Some(BlockEvent::Error(e, msg)),
            (Some(c), None) => Some(BlockEvent::Counterexample(c)),
            (None, None) => None,
        }
    }

    /// Loads the block's input variables into the first `input_count`
    /// columns: an all-equal column becomes `Uniform` (evaluated once per
    /// block downstream), otherwise integers and booleans get packed lanes
    /// and everything else a per-lane `Values` column.
    fn load_inputs(&self, block: &BlockBuf, lanes: usize, exec: &mut BlockExec) {
        for var in 0..self.input_count {
            let first = block.value(0, var);
            let uniform = (1..lanes).all(|lane| block.value(lane, var) == first);
            exec.cols[var] = if uniform {
                Col::Uniform(first.clone())
            } else if (0..lanes).all(|lane| matches!(block.value(lane, var), Value::Int(_))) {
                let mut a = Box::new([0i64; LANES]);
                for (lane, out) in a.iter_mut().enumerate().take(lanes) {
                    if let Value::Int(i) = block.value(lane, var) {
                        *out = *i;
                    }
                }
                Col::Ints(a)
            } else if (0..lanes).all(|lane| matches!(block.value(lane, var), Value::Bool(_))) {
                let mut m = mask_zero();
                for lane in 0..lanes {
                    if let Value::Bool(b) = block.value(lane, var) {
                        set_lane_bit(&mut m, lane, *b);
                    }
                }
                Col::Bools(m)
            } else {
                let mut vs = vec![Value::Bool(false); LANES];
                for (lane, out) in vs.iter_mut().enumerate().take(lanes) {
                    *out = block.value(lane, var).clone();
                }
                Col::Values(vs)
            };
        }
    }

    /// Executes one instruction column-wise over the active lanes. An error
    /// is `(lane, raw message)` for the *minimum* active lane that fails;
    /// for `Check`, the hypothesis mask is applied to the surviving lanes
    /// below the error lane before returning.
    fn exec_col(&self, instr: &Instr, exec: &mut BlockExec) -> Result<(), (usize, String)> {
        match instr {
            Instr::Coerce { a, kind, ctx } => {
                match &exec.cols[*a as usize] {
                    Col::Bools(_) => {
                        if *kind != Kind::Bool {
                            let lane = first_lane(&exec.active).unwrap_or(0);
                            let e = coerce_value(&Value::Bool(false), *kind, ctx).unwrap_err();
                            return Err((lane, e));
                        }
                    }
                    Col::Ints(_) => {
                        if *kind != Kind::Int {
                            let lane = first_lane(&exec.active).unwrap_or(0);
                            let e = coerce_value(&Value::Int(0), *kind, ctx).unwrap_err();
                            return Err((lane, e));
                        }
                    }
                    Col::Uniform(v) => {
                        if let Err(e) = coerce_value(v, *kind, ctx) {
                            return Err((first_lane(&exec.active).unwrap_or(0), e));
                        }
                    }
                    Col::Values(vs) => {
                        for lane in LaneIter::new(exec.active) {
                            if let Err(e) = coerce_value(&vs[lane], *kind, ctx) {
                                return Err((lane, e));
                            }
                        }
                    }
                }
                Ok(())
            }
            Instr::Unbound { name } => Err((first_lane(&exec.active).unwrap_or(0), unbound(name))),
            Instr::Check { r } => {
                let (m, err) = mask_col(&exec.cols[*r as usize], exec.active);
                exec.active = mask_and(exec.active, m);
                match err {
                    None => Ok(()),
                    Some((lane, e)) => Err((lane, e)),
                }
            }
            Instr::CheckGoal { r } => {
                let (m, err) = mask_col(&exec.cols[*r as usize], exec.active);
                exec.cex = mask_and(exec.active, mask_not(m));
                match err {
                    None => Ok(()),
                    Some((lane, e)) => {
                        // Mask bits at and above the error lane are not
                        // meaningful; only lanes the sequential walk would
                        // have reached first can be counterexamples.
                        exec.cex = mask_and(exec.cex, lanes_up_to(lane));
                        Err((lane, e))
                    }
                }
            }
            Instr::Quant { .. } => self.step_lanes(instr, exec),
            pure => self.exec_pure_col(pure, exec),
        }
    }

    /// Runs [`Program::step`] at each active lane in ascending order, so the
    /// first error is the minimum-lane error: the per-lane fallback of an
    /// instruction the column paths do not cover. A pure instruction is
    /// decoded once for the block, not once per lane.
    fn step_lanes(&self, instr: &Instr, exec: &mut BlockExec) -> Result<(), (usize, String)> {
        exec.fallback = mask_or(exec.fallback, exec.active);
        let cols = &mut exec.cols[..];
        if matches!(instr, Instr::Quant { .. }) {
            for lane in LaneIter::new(exec.active) {
                let regs = &mut LaneRegs {
                    cols: &mut *cols,
                    lane,
                };
                self.step(instr, regs).map_err(|e| (lane, e))?;
            }
        } else {
            let decoded = decode(instr);
            for lane in LaneIter::new(exec.active) {
                let regs = &mut LaneRegs {
                    cols: &mut *cols,
                    lane,
                };
                step_pure(instr, decoded, regs).map_err(|e| (lane, e))?;
            }
        }
        Ok(())
    }
}

impl Program {
    /// Executes a value-producing pure instruction column-wise: an
    /// all-uniform fast path (evaluate once per block), vectorized boolean /
    /// integer paths over packed lanes, and the per-lane step for everything
    /// else (collection columns, mixed sorts).
    fn exec_pure_col(&self, instr: &Instr, exec: &mut BlockExec) -> Result<(), (usize, String)> {
        let [ra, rb, rc] = operands(instr);
        let out = out_reg(instr) as usize;

        // All operands block-constant: evaluate once, result is uniform.
        if let (Col::Uniform(a), Col::Uniform(b), Col::Uniform(c)) = (
            &exec.cols[ra as usize],
            &exec.cols[rb as usize],
            &exec.cols[rc as usize],
        ) {
            let v =
                apply(instr, a, b, c).map_err(|e| (first_lane(&exec.active).unwrap_or(0), e))?;
            exec.cols[out] = Col::Uniform(v);
            return Ok(());
        }

        match instr {
            Instr::Not { a, .. } => {
                if let Some(m) = bool_view(&exec.cols[*a as usize]) {
                    exec.cols[out] = Col::Bools(mask_not(m));
                    return Ok(());
                }
            }
            Instr::Bool2 { op, a, b, .. } => {
                if let (Some(ma), Some(mb)) = (
                    bool_view(&exec.cols[*a as usize]),
                    bool_view(&exec.cols[*b as usize]),
                ) {
                    let m = match op {
                        Bool2::And => mask_and(ma, mb),
                        Bool2::Or => mask_or(ma, mb),
                        Bool2::Implies => mask_or(mask_not(ma), mb),
                        Bool2::Iff => {
                            mask_not([ma[0] ^ mb[0], ma[1] ^ mb[1], ma[2] ^ mb[2], ma[3] ^ mb[3]])
                        }
                    };
                    exec.cols[out] = Col::Bools(m);
                    return Ok(());
                }
            }
            Instr::Int2 { op, a, b, .. } => {
                if let (Some(va), Some(vb)) = (
                    ints_view(&exec.cols[*a as usize]),
                    ints_view(&exec.cols[*b as usize]),
                ) {
                    let col = match op {
                        Int2::Add | Int2::Sub => {
                            let mut arr = Box::new([0i64; LANES]);
                            for (lane, o) in arr.iter_mut().enumerate() {
                                let (x, y) = (va.get(lane), vb.get(lane));
                                *o = if matches!(op, Int2::Add) {
                                    x.wrapping_add(y)
                                } else {
                                    x.wrapping_sub(y)
                                };
                            }
                            Col::Ints(arr)
                        }
                        Int2::Lt | Int2::Le => {
                            let mut m = mask_zero();
                            for lane in 0..LANES {
                                let (x, y) = (va.get(lane), vb.get(lane));
                                let hit = if matches!(op, Int2::Lt) {
                                    x < y
                                } else {
                                    x <= y
                                };
                                set_lane_bit(&mut m, lane, hit);
                            }
                            Col::Bools(m)
                        }
                    };
                    exec.cols[out] = col;
                    return Ok(());
                }
            }
            Instr::Neg { a, .. } => {
                if let Some(va) = ints_view(&exec.cols[*a as usize]) {
                    let mut arr = Box::new([0i64; LANES]);
                    for (lane, o) in arr.iter_mut().enumerate() {
                        *o = va.get(lane).wrapping_neg();
                    }
                    exec.cols[out] = Col::Ints(arr);
                    return Ok(());
                }
            }
            Instr::Eq { a, b, .. } => {
                let (ca, cb) = (&exec.cols[*a as usize], &exec.cols[*b as usize]);
                // Packed lanes of the same representation are sort-uniform
                // by construction, so the reference sort check passes and
                // equality is a word / lanewise compare.
                if let (Some(ma), Some(mb)) = (bool_view(ca), bool_view(cb)) {
                    if matches!(ca, Col::Bools(_) | Col::Uniform(Value::Bool(_)))
                        && matches!(cb, Col::Bools(_) | Col::Uniform(Value::Bool(_)))
                    {
                        exec.cols[out] = Col::Bools(mask_not([
                            ma[0] ^ mb[0],
                            ma[1] ^ mb[1],
                            ma[2] ^ mb[2],
                            ma[3] ^ mb[3],
                        ]));
                        return Ok(());
                    }
                }
                if let (Some(va), Some(vb)) = (ints_view(ca), ints_view(cb)) {
                    let mut m = mask_zero();
                    for lane in 0..LANES {
                        set_lane_bit(&mut m, lane, va.get(lane) == vb.get(lane));
                    }
                    exec.cols[out] = Col::Bools(m);
                    return Ok(());
                }
            }
            _ => {}
        }

        self.step_lanes(instr, exec)
    }

    /// Rebuilds the named-variable [`Model`] for one lane of the last
    /// [`Program::run_block`] call — valid for the lane of a
    /// [`BlockEvent::Counterexample`] (that lane executed every instruction,
    /// so all named registers are populated).
    pub fn reconstruct_lane(&self, exec: &BlockExec, lane: usize) -> Model {
        let mut model = Model::new();
        for (name, r) in &self.named {
            let mut scratch = Value::Bool(false);
            let value = lane_ref(&exec.cols[*r as usize], lane, &mut scratch);
            model.insert(name.clone(), value.clone());
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligation::Obligation;
    use semcommute_logic::build::*;

    /// Runs `candidates` through the block executor, each alone and all in
    /// one block, and through the reference ([`crate::Replayer`] over
    /// `logic::eval`): the same deciding candidate, the same counter-model,
    /// the same wrapped error string.
    fn compare_block(ob: &Obligation, order: &[&str], candidates: &[Vec<Value>]) {
        let names: Vec<String> = order.iter().map(|s| s.to_string()).collect();
        let program = Program::lower(ob, &names);
        let mut exec = program.block_exec();
        let mut run = |lanes: &[Vec<Value>]| match program
            .run_block(&BlockBuf::from_lanes(lanes), &mut exec)
        {
            None => None,
            Some(BlockEvent::Counterexample(lane)) => {
                Some((lane, Ok(program.reconstruct_lane(&exec, lane))))
            }
            Some(BlockEvent::Error(lane, e)) => Some((lane, Err(e))),
        };
        let replayer = crate::Replayer::new(ob);
        let reference: Vec<Option<Result<Model, String>>> = candidates
            .iter()
            .map(|values| {
                let input = Model::from_bindings(order.iter().copied().zip(values.iter().cloned()));
                replayer.check(&input).transpose()
            })
            .collect();
        for (values, expected) in candidates.iter().zip(&reference) {
            let alone = run(std::slice::from_ref(values)).map(|(_, event)| event);
            assert_eq!(&alone, expected, "candidate {values:?}");
        }
        let first = reference
            .iter()
            .enumerate()
            .find_map(|(lane, event)| Some((lane, event.clone()?)));
        assert_eq!(
            run(candidates),
            first,
            "all {} candidates",
            candidates.len()
        );
    }

    #[test]
    fn block_execution_matches_the_reference() {
        let ob = Obligation::new("t")
            .define("r1", member(var_elem("v1"), var_set("s")))
            .define("s1", set_add(var_set("s"), var_elem("v2")))
            .define("r2", member(var_elem("v1"), var_set("s1")))
            .goal(eq(var_bool("r1"), var_bool("r2")));
        compare_block(
            &ob,
            &["v1", "v2", "s"],
            &[
                vec![Value::elem(1), Value::elem(1), Value::set_of([])],
                vec![
                    Value::elem(1),
                    Value::elem(2),
                    Value::set_of([semcommute_logic::ElemId(1)]),
                ],
                vec![Value::elem(1), Value::elem(2), Value::set_of([])],
            ],
        );
    }

    #[test]
    fn block_execution_matches_the_reference_on_errors() {
        // Ill-sorted operand inside a define: identical wrapped message.
        let ob = Obligation::new("bad")
            .define("n", card(var_elem("v")))
            .goal(eq(var_int("n"), int(0)));
        compare_block(&ob, &["v"], &[vec![Value::elem(1)], vec![Value::elem(2)]]);
        // Oversized quantifier range inside the goal.
        let ob = Obligation::new("wide").goal(forall_int(
            "i",
            int(0),
            int(MAX_QUANTIFIER_RANGE + 2),
            le(int(0), var_int("i")),
        ));
        compare_block(&ob, &[], &[vec![]]);
    }

    #[test]
    fn hypothesis_rejection_skips_the_goal() {
        // The goal would error (card of an elem), but the false input-only
        // hypothesis rejects the candidate first — in both evaluators.
        let ob = Obligation::new("rejected")
            .assume(lt(var_int("i"), int(0)))
            .goal(eq(card(var_elem("v")), int(0)));
        compare_block(
            &ob,
            &["i", "v"],
            &[
                vec![Value::Int(3), Value::elem(1)],
                vec![Value::Int(2), Value::elem(2)],
            ],
        );
    }

    #[test]
    fn quantifiers_and_shadowing_match() {
        let ob = Obligation::new("q").goal(exists_int(
            "i",
            int(0),
            seq_len(var_seq("q")),
            and2(
                eq(seq_at(var_seq("q"), var_int("i")), var_elem("v")),
                forall_int("i", int(0), int(2), le(int(0), var_int("i"))),
            ),
        ));
        compare_block(
            &ob,
            &["q", "v"],
            &[
                vec![
                    Value::seq_of([semcommute_logic::ElemId(4), semcommute_logic::ElemId(7)]),
                    Value::elem(7),
                ],
                vec![Value::seq_of([semcommute_logic::ElemId(4)]), Value::elem(7)],
            ],
        );
    }

    /// Collection reads agree with the reference on results and, for
    /// ill-sorted operands, on the exact wrapped error message.
    #[test]
    fn collection_reads_match_the_reference() {
        use semcommute_logic::ElemId;
        let ob = Obligation::new("reads").goal(and2(
            and2(
                member(var_elem("v"), var_set("s")),
                eq(card(var_set("s")), int(2)),
            ),
            and2(
                eq(map_get(var_map("mp"), var_elem("v")), var_elem("w")),
                and2(
                    eq(seq_at(var_seq("q"), int(1)), var_elem("w")),
                    eq(seq_index_of(var_seq("q"), var_elem("v")), int(0)),
                ),
            ),
        ));
        compare_block(
            &ob,
            &["v", "w", "s", "mp", "q"],
            &[
                vec![
                    Value::elem(1),
                    Value::elem(2),
                    Value::set_of([ElemId(1), ElemId(2)]),
                    Value::map_of([(ElemId(1), ElemId(2))]),
                    Value::seq_of([ElemId(1), ElemId(2)]),
                ],
                vec![
                    Value::elem(2),
                    Value::elem(1),
                    Value::set_of([ElemId(1), ElemId(2)]),
                    Value::map_of([(ElemId(2), ElemId(1))]),
                    Value::seq_of([ElemId(2), ElemId(2)]),
                ],
            ],
        );
        for read in [
            card(var_int("x")),
            member(var_elem("v"), var_int("x")),
            map_size(var_int("x")),
            seq_len(var_int("x")),
            seq_at(var_int("x"), int(0)),
            map_get(var_int("x"), var_elem("v")),
        ] {
            let ob = Obligation::new("bad").goal(eq(read, int(0)));
            compare_block(
                &ob,
                &["v", "x"],
                &[
                    vec![Value::elem(1), Value::Int(3)],
                    vec![Value::elem(2), Value::Int(4)],
                ],
            );
        }
    }

    /// A variable that is in scope nowhere it is read: the block executor
    /// reports the reference replay's message.
    #[test]
    fn block_execution_reports_unbound_variables_like_the_replayer() {
        let ob = Obligation::new("unbound").goal(eq(var_int("x"), int(0)));
        compare_block(&ob, &["s"], &[vec![Value::set_of([])]]);
        let input = Model::from_bindings([("s", Value::set_of([]))]);
        assert_eq!(
            crate::Replayer::new(&ob).check(&input),
            Err("evaluating goal: unbound variable `x`".to_string())
        );
    }

    /// A goal-only formula evaluated through registers reports an unbound
    /// variable as `eval_bool` does, behind the goal's region prefix.
    #[test]
    fn formula_evaluation_reports_unbound_variables_like_eval_bool() {
        let formula = eq(var_int("x"), int(0));
        let program = Program::lower_formula(&formula, &["s".to_string()]);
        let mut regs = Vec::new();
        program.prepare_regs(&mut regs);
        regs[0] = Value::set_of([]);
        let model = Model::from_bindings([("s", Value::set_of([]))]);
        let reference = semcommute_logic::eval_bool(&formula, &model).unwrap_err();
        assert_eq!(
            program.eval_in_regs(&mut regs),
            Err(format!("evaluating goal: {reference}"))
        );
    }

    /// The main stream follows the obligation's schedule: each hypothesis
    /// region starts right after the define it last reads.
    #[test]
    fn regions_follow_the_schedule() {
        let ob = Obligation::new("sched")
            .define("r1", member(var_elem("v"), var_set("s")))
            .define("s1", set_add(var_set("s"), var_elem("v")))
            .assume(lt(var_int("i"), int(2)))
            .assume(var_bool("r1"))
            .assume(member(var_elem("v"), var_set("s1")))
            .goal(var_bool("r1"));
        let program = Program::lower(&ob, &["i", "s", "v"].map(String::from));
        let regions: Vec<String> = program
            .regions
            .iter()
            .map(|(_, region)| region.wrap(String::new()))
            .collect();
        assert_eq!(
            regions,
            [
                "evaluating hypothesis: ",
                "evaluating `r1`: ",
                "evaluating hypothesis: ",
                "evaluating `s1`: ",
                "evaluating hypothesis: ",
                "evaluating goal: ",
            ]
        );
    }

    /// A quantifier nested in another and binding the same name gets its
    /// own binder register, distinct from every input and define register.
    #[test]
    fn a_shadowing_quantifier_gets_its_own_binder_register() {
        let ob = Obligation::new("q").goal(exists_int(
            "i",
            int(0),
            seq_len(var_seq("q")),
            and2(
                eq(seq_at(var_seq("q"), var_int("i")), var_elem("v")),
                forall_int("i", int(0), int(2), le(int(0), var_int("i"))),
            ),
        ));
        let program = Program::lower(&ob, &["q".to_string(), "v".to_string()]);
        let binders: Vec<R> = program
            .instrs
            .iter()
            .chain(program.bodies.iter().flatten())
            .filter_map(|instr| match instr {
                Instr::Quant { binder, .. } => Some(*binder),
                _ => None,
            })
            .collect();
        assert_eq!(binders.len(), 2);
        assert_ne!(binders[0], binders[1], "the shadowing binder is private");
        assert!(binders.iter().all(|&b| b as usize >= program.input_count));
        assert_eq!(program.named.len(), 2, "binders are not named variables");
    }

    /// Carrying the variable name did not make instructions larger.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn instructions_stay_four_words() {
        assert_eq!(std::mem::size_of::<Instr>(), 32);
    }

    #[test]
    fn lowering_ends_with_the_goal_check() {
        let ob = Obligation::new("g").goal(eq(var_int("x"), int(0)));
        let program = Program::lower(&ob, &["x".to_string()]);
        assert!(!program.is_empty());
        assert!(matches!(
            program.instrs.last(),
            Some(Instr::CheckGoal { .. })
        ));
    }

    #[test]
    fn common_subexpressions_are_shared() {
        // `card(s)` appears three times but is lowered once.
        let ob = Obligation::new("cse").goal(and2(
            le(card(var_set("s")), card(var_set("s"))),
            lt(int(-1), card(var_set("s"))),
        ));
        let program = Program::lower(&ob, &["s".to_string()]);
        let cards = program
            .instrs
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Coll {
                        op: CollOp::Card,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(cards, 1);
        compare_block(&ob, &["s"], &[vec![Value::set_of([])]]);
    }

    #[test]
    fn lane_masks_cover_all_two_hundred_fifty_six_lanes() {
        assert_eq!(lanes_up_to(0), [0; 4]);
        assert_eq!(lanes_up_to(LANES), [u64::MAX; 4]);
        assert_eq!(mask_popcount(&lanes_up_to(100)), 100);
        assert_eq!(first_lane(&lanes_up_to(0)), None);
        let mut m = mask_zero();
        set_lane_bit(&mut m, 200, true);
        set_lane_bit(&mut m, 63, true);
        assert_eq!(first_lane(&m), Some(63));
        assert_eq!(LaneIter::new(m).collect::<Vec<_>>(), vec![63, 200]);
    }
}
