//! Property tests for formula compilation as the admission gatekeeper uses
//! it: random **well-sorted** condition formulas over the spec vocabulary
//! (`s1`, `r1`, canonical argument names), lowered with
//! [`Program::lower_formula`], must evaluate exactly like the reference
//! term-tree interpreter [`eval_bool`] on arbitrary slot valuations —
//! including error *strings* (modulo the compiled executor's
//! `"evaluating goal:"` region prefix) — and the compiled program's input
//! reads must coincide with the formula's free variables, which is what the
//! gatekeeper's `requires_pre_state` projection is derived from. A second
//! test drives many programs through one shared register buffer in shuffled
//! order and checks the results against fresh-buffer evaluations: register
//! reuse across calls and across programs must never leak state.

use semcommute_logic::{build, eval_bool, free_vars, Model, Sort, Term, Value};
use semcommute_prover::Program;

/// Deterministic xorshift64* generator — no external crates, reproducible
/// failures.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The admission vocabulary: the slot layout the gatekeeper compiles with —
/// a state variable, a result variable, and canonical argument names. `s1`'s
/// sort cycles through the four abstract state sorts so every collection
/// theory gets exercised.
fn vocabulary(case: u64) -> Vec<(String, Sort)> {
    let state = [Sort::Set, Sort::Map, Sort::Seq, Sort::Int][(case % 4) as usize];
    let result = [Sort::Bool, Sort::Int, Sort::Elem][(case % 3) as usize];
    vec![
        ("s1".to_string(), state),
        ("r1".to_string(), result),
        ("v1".to_string(), Sort::Elem),
        ("v2".to_string(), Sort::Elem),
        ("k1".to_string(), Sort::Elem),
        ("k2".to_string(), Sort::Elem),
        ("i1".to_string(), Sort::Int),
        ("i2".to_string(), Sort::Int),
        ("b2".to_string(), Sort::Bool),
    ]
}

/// A random variable of the requested sort from the vocabulary plus any
/// quantifier binders in scope, or `None` if no such variable exists.
fn pick_var(rng: &mut XorShift, scope: &[(String, Sort)], sort: Sort) -> Option<Term> {
    let candidates: Vec<&String> = scope
        .iter()
        .filter(|(_, s)| *s == sort)
        .map(|(n, _)| n)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let name = candidates[rng.below(candidates.len() as u64) as usize];
    Some(build::var_of(name, sort))
}

/// A random well-sorted term of the requested sort. Depth-bounded; at depth
/// zero only leaves (variables and literals) are produced.
fn gen(rng: &mut XorShift, scope: &mut Vec<(String, Sort)>, sort: Sort, depth: u32) -> Term {
    if depth == 0 || rng.chance(25) {
        if let Some(var) = pick_var(rng, scope, sort) {
            if rng.chance(70) {
                return var;
            }
        }
        return match sort {
            Sort::Bool => {
                if rng.chance(50) {
                    build::tru()
                } else {
                    build::fls()
                }
            }
            Sort::Int => build::int(rng.below(7) as i64 - 3),
            Sort::Elem => build::null(),
            Sort::Set => build::empty_set(),
            Sort::Map => build::empty_map(),
            Sort::Seq => build::empty_seq(),
        };
    }
    let d = depth - 1;
    match sort {
        Sort::Bool => match rng.below(12) {
            0 => build::not(gen(rng, scope, Sort::Bool, d)),
            1 => build::and2(
                gen(rng, scope, Sort::Bool, d),
                gen(rng, scope, Sort::Bool, d),
            ),
            2 => build::or2(
                gen(rng, scope, Sort::Bool, d),
                gen(rng, scope, Sort::Bool, d),
            ),
            3 => build::implies(
                gen(rng, scope, Sort::Bool, d),
                gen(rng, scope, Sort::Bool, d),
            ),
            4 => build::iff(
                gen(rng, scope, Sort::Bool, d),
                gen(rng, scope, Sort::Bool, d),
            ),
            5 => {
                let operand_sort = [Sort::Bool, Sort::Int, Sort::Elem][rng.below(3) as usize];
                build::eq(
                    gen(rng, scope, operand_sort, d),
                    gen(rng, scope, operand_sort, d),
                )
            }
            6 => build::member(
                gen(rng, scope, Sort::Elem, d),
                gen(rng, scope, Sort::Set, d),
            ),
            7 => build::map_has_key(
                gen(rng, scope, Sort::Map, d),
                gen(rng, scope, Sort::Elem, d),
            ),
            8 => build::seq_contains(
                gen(rng, scope, Sort::Seq, d),
                gen(rng, scope, Sort::Elem, d),
            ),
            9 => build::lt(gen(rng, scope, Sort::Int, d), gen(rng, scope, Sort::Int, d)),
            10 => build::le(gen(rng, scope, Sort::Int, d), gen(rng, scope, Sort::Int, d)),
            _ => {
                // A bounded quantifier with a fresh binder in scope.
                let binder = format!("q{}", scope.len());
                let lo = build::int(rng.below(3) as i64);
                let hi = build::int(rng.below(5) as i64);
                scope.push((binder.clone(), Sort::Int));
                let body = gen(rng, scope, Sort::Bool, d);
                scope.pop();
                if rng.chance(50) {
                    build::forall_int(&binder, lo, hi, body)
                } else {
                    build::exists_int(&binder, lo, hi, body)
                }
            }
        },
        Sort::Int => match rng.below(6) {
            0 => build::add(gen(rng, scope, Sort::Int, d), gen(rng, scope, Sort::Int, d)),
            1 => build::sub(gen(rng, scope, Sort::Int, d), gen(rng, scope, Sort::Int, d)),
            2 => build::neg(gen(rng, scope, Sort::Int, d)),
            3 => build::card(gen(rng, scope, Sort::Set, d)),
            4 => build::seq_len(gen(rng, scope, Sort::Seq, d)),
            _ => build::map_size(gen(rng, scope, Sort::Map, d)),
        },
        Sort::Elem => match rng.below(3) {
            0 => build::map_get(
                gen(rng, scope, Sort::Map, d),
                gen(rng, scope, Sort::Elem, d),
            ),
            1 => build::seq_at(gen(rng, scope, Sort::Seq, d), gen(rng, scope, Sort::Int, d)),
            _ => build::ite(
                gen(rng, scope, Sort::Bool, d),
                gen(rng, scope, Sort::Elem, d),
                gen(rng, scope, Sort::Elem, d),
            ),
        },
        Sort::Set => match rng.below(3) {
            0 => build::set_add(
                gen(rng, scope, Sort::Set, d),
                gen(rng, scope, Sort::Elem, d),
            ),
            1 => build::set_remove(
                gen(rng, scope, Sort::Set, d),
                gen(rng, scope, Sort::Elem, d),
            ),
            _ => build::ite(
                gen(rng, scope, Sort::Bool, d),
                gen(rng, scope, Sort::Set, d),
                gen(rng, scope, Sort::Set, d),
            ),
        },
        Sort::Map => match rng.below(2) {
            0 => build::map_put(
                gen(rng, scope, Sort::Map, d),
                gen(rng, scope, Sort::Elem, d),
                gen(rng, scope, Sort::Elem, d),
            ),
            _ => build::map_remove(
                gen(rng, scope, Sort::Map, d),
                gen(rng, scope, Sort::Elem, d),
            ),
        },
        Sort::Seq => build::ite(
            gen(rng, scope, Sort::Bool, d),
            gen(rng, scope, Sort::Seq, d),
            gen(rng, scope, Sort::Seq, d),
        ),
    }
}

/// A random value of the given sort over a small universe.
fn random_value(rng: &mut XorShift, sort: Sort) -> Value {
    use semcommute_logic::ElemId;
    match sort {
        Sort::Bool => Value::Bool(rng.below(2) == 0),
        Sort::Int => Value::Int(rng.below(9) as i64 - 4),
        Sort::Elem => Value::elem(rng.below(5) as u32 + 1),
        Sort::Set => Value::set_of((0..rng.below(4)).map(|_| ElemId(rng.below(5) as u32 + 1))),
        Sort::Map => Value::map_of((0..rng.below(4)).map(|_| {
            (
                ElemId(rng.below(5) as u32 + 1),
                ElemId(rng.below(5) as u32 + 1),
            )
        })),
        Sort::Seq => Value::seq_of((0..rng.below(4)).map(|_| ElemId(rng.below(5) as u32 + 1))),
    }
}

/// A random slot valuation: usually well-sorted, sometimes deliberately
/// ill-sorted so the error paths are differentially exercised too.
fn random_valuation(rng: &mut XorShift, vocab: &[(String, Sort)]) -> Vec<Value> {
    vocab
        .iter()
        .map(|(_, sort)| {
            let sort = if rng.chance(8) {
                [
                    Sort::Bool,
                    Sort::Int,
                    Sort::Elem,
                    Sort::Set,
                    Sort::Map,
                    Sort::Seq,
                ][rng.below(6) as usize]
            } else {
                *sort
            };
            random_value(rng, sort)
        })
        .collect()
}

/// Evaluates through the reference interpreter, with the model built in
/// slot order (later inserts win).
fn reference(formula: &Term, vocab: &[(String, Sort)], values: &[Value]) -> Result<bool, String> {
    let mut model = Model::new();
    for ((name, _), value) in vocab.iter().zip(values) {
        model.insert(name.clone(), value.clone());
    }
    eval_bool(formula, &model).map_err(|e| e.to_string())
}

/// Evaluates a lowered formula the way the gatekeeper's admission does:
/// constants into the reused buffer, then every input the program reads into
/// its register, then the instruction stream.
fn eval(program: &Program, values: &[Value], regs: &mut Vec<Value>) -> Result<bool, String> {
    program.prepare_regs(regs);
    for (slot, (value, read)) in values.iter().zip(program.input_reads()).enumerate() {
        if read {
            regs[slot] = value.clone();
        }
    }
    program.eval_in_regs(regs)
}

/// Compiled evaluation ≡ reference evaluation, verdicts and error strings
/// (modulo the `"evaluating goal:"` region prefix), and the program's input
/// reads are exactly the formula's free variables.
#[test]
fn compiled_formula_agrees_with_eval_bool_on_arbitrary_valuations() {
    let mut rng = XorShift::new(0x5eed_ad51_7710);
    for case in 0..400u64 {
        let vocab = vocabulary(case);
        let mut scope = vocab.clone();
        let formula = gen(&mut rng, &mut scope, Sort::Bool, 4);
        let order: Vec<String> = vocab.iter().map(|(n, _)| n.clone()).collect();
        let program = Program::lower_formula(&formula, &order);
        assert_eq!(program.input_count(), vocab.len());

        // Input reads ≡ free variables: the basis of the gatekeeper's
        // compiled `requires_pre_state` projection.
        let free = free_vars(&formula);
        for (slot, (name, _)) in vocab.iter().enumerate() {
            assert_eq!(
                program.input_reads()[slot],
                free.contains_key(name.as_str()),
                "case {case}: slot `{name}` read/free mismatch for {formula:?}"
            );
        }

        let mut regs = Vec::new();
        for _ in 0..25 {
            let values = random_valuation(&mut rng, &vocab);
            let expected = reference(&formula, &vocab, &values);
            let got = eval(&program, &values, &mut regs);
            match (&expected, &got) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a, b,
                    "case {case}: verdict diverged on {values:?} for {formula:?}"
                ),
                (Err(e), Err(f)) => assert_eq!(
                    &format!("evaluating goal: {e}"),
                    f,
                    "case {case}: error diverged on {values:?} for {formula:?}"
                ),
                _ => panic!(
                    "case {case}: one side errored on {values:?} for {formula:?}: \
                     reference {expected:?}, compiled {got:?}"
                ),
            }
        }
    }
}

/// Register-buffer reuse never leaks state between evaluations: many
/// programs evaluated through one shared buffer, in an interleaved
/// order, produce exactly the results of fresh-buffer evaluations.
#[test]
fn shared_register_buffers_never_leak_between_programs() {
    let mut rng = XorShift::new(0xbadc_0ffe_e001);
    let mut programs = Vec::new();
    for case in 0..40u64 {
        let vocab = vocabulary(case);
        let mut scope = vocab.clone();
        let formula = gen(&mut rng, &mut scope, Sort::Bool, 3);
        let order: Vec<String> = vocab.iter().map(|(n, _)| n.clone()).collect();
        programs.push((Program::lower_formula(&formula, &order), vocab));
    }
    // Expected results from fresh buffers per evaluation.
    let mut plan = Vec::new();
    for round in 0..6u64 {
        for idx in 0..programs.len() {
            let idx = (idx + (round as usize * 7)) % programs.len();
            let (_, vocab) = &programs[idx];
            let values = random_valuation(&mut rng, vocab);
            plan.push((idx, values));
        }
    }
    let expected: Vec<Result<bool, String>> = plan
        .iter()
        .map(|(idx, values)| {
            let (program, _) = &programs[*idx];
            eval(program, values, &mut Vec::new())
        })
        .collect();
    // Same plan through one shared buffer.
    let mut regs = Vec::new();
    for (step, (idx, values)) in plan.iter().enumerate() {
        let (program, _) = &programs[*idx];
        let got = eval(program, values, &mut regs);
        assert_eq!(
            got, expected[step],
            "step {step}: shared-buffer evaluation of program {idx} diverged — register \
             state leaked from a previous call"
        );
    }
}
