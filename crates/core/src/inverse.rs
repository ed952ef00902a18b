//! Inverse operations (Table 5.10) and their verification.
//!
//! For every operation that changes a data structure's abstract state the
//! paper specifies an inverse operation that rolls the abstract state back to
//! its value before the operation executed — possibly reaching a different
//! *concrete* state, which is exactly why the verification reasons about the
//! abstract state. Some inverses use the original operation's return value
//! (e.g. `put(k, v)` is undone by `put(k, r)` when `r ≠ null` and by
//! `remove(k)` otherwise), so a speculative system must log return values to
//! be able to roll back.

use std::fmt;

use semcommute_logic::{build, Term, Value, NULL_ELEM};
use semcommute_prover::{Obligation, Portfolio, Verdict};
use semcommute_spec::{interface_by_id, InterfaceId, OpSpec};

use crate::verify::{method_verdict, plan_method, prove_on_one_worker};

/// Where an argument of the inverse call comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgSource {
    /// The i-th argument of the original operation.
    Param(usize),
    /// The original operation's return value.
    Result,
    /// The negation of the i-th (integer) argument of the original operation
    /// (used by `Accumulator::increase`).
    NegatedParam(usize),
}

/// A call performed by an inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InverseCall {
    /// The operation to invoke.
    pub op: String,
    /// Where its arguments come from.
    pub args: Vec<ArgSource>,
}

/// When the primary inverse call applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InverseGuard {
    /// The inverse call is always performed.
    Always,
    /// The inverse call is performed iff the original operation returned
    /// `true` (set `add`/`remove`); otherwise nothing needs to be undone.
    IfResultTrue,
    /// The inverse call is performed iff the original operation returned a
    /// non-null value; otherwise the `otherwise` call (if any) runs.
    IfResultNonNull,
}

/// The inverse of one state-updating operation (one row of Table 5.10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InverseOperation {
    /// The interface the operation belongs to.
    pub interface: InterfaceId,
    /// The forward operation.
    pub op: String,
    /// When the primary inverse call applies.
    pub guard: InverseGuard,
    /// The primary inverse call.
    pub primary: InverseCall,
    /// The call performed when the guard does not hold (only `put` needs
    /// one: `remove(k)` when the key was previously unmapped).
    pub otherwise: Option<InverseCall>,
}

impl InverseOperation {
    fn new(
        interface: InterfaceId,
        op: &str,
        guard: InverseGuard,
        primary: InverseCall,
        otherwise: Option<InverseCall>,
    ) -> InverseOperation {
        InverseOperation {
            interface,
            op: op.to_string(),
            guard,
            primary,
            otherwise,
        }
    }

    /// The forward operation's specification.
    fn forward_spec(&self) -> OpSpec {
        interface_by_id(self.interface)
            .op(&self.op)
            .unwrap_or_else(|| panic!("unknown operation `{}`", self.op))
            .clone()
    }

    /// Renders one row of Table 5.10, e.g.
    /// `r = s1.put(k, v)  =>  if r ~= null then s2.put(k, r) else s2.remove(k)`.
    pub fn table_row(&self) -> (String, String) {
        let spec = self.forward_spec();
        let params: Vec<String> = spec.params.iter().map(|(n, _)| n.clone()).collect();
        let forward = if spec.has_result() {
            format!("r = s1.{}({})", self.op, params.join(", "))
        } else {
            format!("s1.{}({})", self.op, params.join(", "))
        };
        let call_text = |call: &InverseCall| {
            let args: Vec<String> = call
                .args
                .iter()
                .map(|a| match a {
                    ArgSource::Param(i) => params[*i].clone(),
                    ArgSource::Result => "r".to_string(),
                    ArgSource::NegatedParam(i) => format!("-{}", params[*i]),
                })
                .collect();
            format!("s2.{}({})", call.op, args.join(", "))
        };
        let inverse = match (self.guard, &self.otherwise) {
            (InverseGuard::Always, _) => call_text(&self.primary),
            (InverseGuard::IfResultTrue, _) => {
                format!("if r = true then {}", call_text(&self.primary))
            }
            (InverseGuard::IfResultNonNull, None) => {
                format!("if r ~= null then {}", call_text(&self.primary))
            }
            (InverseGuard::IfResultNonNull, Some(other)) => format!(
                "if r ~= null then {} else {}",
                call_text(&self.primary),
                call_text(other)
            ),
        };
        (forward, inverse)
    }

    /// The argument terms of an inverse call, in terms of the forward call's
    /// formal parameters and the result variable `r`.
    fn arg_terms(&self, call: &InverseCall, spec: &OpSpec) -> Vec<Term> {
        call.args
            .iter()
            .map(|a| match a {
                ArgSource::Param(i) => {
                    let (name, sort) = &spec.params[*i];
                    Term::var(name.clone(), *sort)
                }
                ArgSource::Result => {
                    Term::var("r", spec.result_sort.expect("inverse uses the result"))
                }
                ArgSource::NegatedParam(i) => {
                    let (name, sort) = &spec.params[*i];
                    build::neg(Term::var(name.clone(), *sort))
                }
            })
            .collect()
    }

    /// The guard as a formula over the result variable `r`.
    fn guard_term(&self, spec: &OpSpec) -> Term {
        match self.guard {
            InverseGuard::Always => build::tru(),
            InverseGuard::IfResultTrue => Term::var("r", spec.result_sort.expect("bool result")),
            InverseGuard::IfResultNonNull => build::neq(
                Term::var("r", spec.result_sort.expect("object result")),
                build::null(),
            ),
        }
    }

    /// Generates the proof obligations of the inverse testing method
    /// (Figure 3-2): the inverse's precondition holds whenever its branch is
    /// taken, and applying the inverse restores the initial abstract state.
    pub fn obligations(&self) -> Vec<Obligation> {
        let iface = interface_by_id(self.interface);
        let spec = self.forward_spec();
        let s1 = Term::var("s1", iface.state_sort);
        let s2 = Term::var("s2", iface.state_sort);
        let forward_args: Vec<Term> = spec
            .params
            .iter()
            .map(|(n, sort)| Term::var(n.clone(), *sort))
            .collect();

        let mut defines = Vec::new();
        if spec.has_result() {
            defines.push((
                "r".to_string(),
                spec.instantiate_result(&s1, &forward_args)
                    .expect("updating op with result"),
            ));
        }
        defines.push(("s2".to_string(), spec.instantiate_post(&s1, &forward_args)));

        let guard = self.guard_term(&spec);
        let primary_spec = iface
            .op(&self.primary.op)
            .unwrap_or_else(|| panic!("unknown inverse operation `{}`", self.primary.op));
        let primary_args = self.arg_terms(&self.primary, &spec);
        let primary_post = primary_spec.instantiate_post(&s2, &primary_args);
        let primary_pre = primary_spec.instantiate_pre(&s2, &primary_args);

        let (restored, mut extra_obligations) = match &self.otherwise {
            None => (
                build::ite(guard.clone(), primary_post, s2.clone()),
                Vec::new(),
            ),
            Some(other) => {
                let other_spec = iface
                    .op(&other.op)
                    .unwrap_or_else(|| panic!("unknown inverse operation `{}`", other.op));
                let other_args = self.arg_terms(other, &spec);
                let other_post = other_spec.instantiate_post(&s2, &other_args);
                let other_pre = other_spec.instantiate_pre(&s2, &other_args);
                let pre_ob = Obligation {
                    name: format!("{}_{}_inverse::pre_otherwise", self.interface, self.op),
                    defines: defines.clone(),
                    hypotheses: vec![
                        spec.instantiate_pre(&s1, &forward_args),
                        build::not(guard.clone()),
                    ],
                    goal: other_pre,
                };
                (
                    build::ite(guard.clone(), primary_post, other_post),
                    vec![pre_ob],
                )
            }
        };
        defines.push(("s3".to_string(), restored));

        let hypotheses = vec![spec.instantiate_pre(&s1, &forward_args)];
        let mut obligations = vec![Obligation {
            name: format!("{}_{}_inverse::pre", self.interface, self.op),
            defines: defines.clone(),
            hypotheses: {
                let mut h = hypotheses.clone();
                h.push(guard);
                h
            },
            goal: primary_pre,
        }];
        obligations.append(&mut extra_obligations);
        obligations.push(Obligation {
            name: format!("{}_{}_inverse::restores", self.interface, self.op),
            defines,
            hypotheses,
            goal: build::eq(Term::var("s3", iface.state_sort), s1),
        });
        obligations
    }

    /// Renders the inverse testing method in the style of Figures 2-3 / 2-4.
    pub fn render(&self) -> String {
        let spec = self.forward_spec();
        let class = crate::render::class_name(self.interface);
        let params: Vec<String> = spec
            .params
            .iter()
            .map(|(n, sort)| {
                format!(
                    "{} {n}",
                    match sort {
                        semcommute_logic::Sort::Int => "int",
                        _ => "Object",
                    }
                )
            })
            .collect();
        let (_, inverse) = self.table_row();
        let arg_names: Vec<String> = spec.params.iter().map(|(n, _)| n.clone()).collect();
        let call = format!("s.{}({})", self.op, arg_names.join(", "));
        let body_call = if spec.has_result() {
            format!("  Object r = {call};")
        } else {
            format!("  {call};")
        };
        format!(
            "void {op}0({class} s, {params})\n\
             /*: requires \"s ~= null & s..init\"\n    \
             modifies \"s..contents\", \"s..size\"\n    \
             ensures \"True\" */\n{{\n{body_call}\n  \
             {inverse};\n  \
             /*: assert \"s..contents = s..(old contents) & s..size = s..(old size)\" */\n}}\n",
            op = self.op,
            params = params.join(", "),
        )
    }

    /// The concrete inverse call to perform, given the forward call's
    /// arguments and recorded return value. Returns `None` when nothing needs
    /// to be undone (e.g. `add` returned `false`).
    pub fn concrete_call(
        &self,
        args: &[Value],
        result: Option<&Value>,
    ) -> Option<(String, Vec<Value>)> {
        let take_branch = match self.guard {
            InverseGuard::Always => true,
            InverseGuard::IfResultTrue => matches!(result, Some(Value::Bool(true))),
            InverseGuard::IfResultNonNull => {
                matches!(result, Some(Value::Elem(e)) if *e != NULL_ELEM)
            }
        };
        let call = if take_branch {
            &self.primary
        } else {
            self.otherwise.as_ref()?
        };
        let values = call
            .args
            .iter()
            .map(|a| match a {
                ArgSource::Param(i) => args[*i].clone(),
                ArgSource::Result => result.cloned().expect("inverse uses the result"),
                ArgSource::NegatedParam(i) => match &args[*i] {
                    Value::Int(v) => Value::Int(-v),
                    other => panic!("cannot negate non-integer argument {other}"),
                },
            })
            .collect();
        Some((call.op.clone(), values))
    }
}

impl fmt::Display for InverseOperation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (forward, inverse) = self.table_row();
        write!(f, "{forward}  =>  {inverse}")
    }
}

/// The inverse-operation catalog: one inverse per state-updating operation of
/// every data structure (Table 5.10).
pub fn inverse_catalog() -> Vec<InverseOperation> {
    use ArgSource::*;
    use InverseGuard::*;
    vec![
        InverseOperation::new(
            InterfaceId::Accumulator,
            "increase",
            Always,
            InverseCall {
                op: "increase".into(),
                args: vec![NegatedParam(0)],
            },
            None,
        ),
        InverseOperation::new(
            InterfaceId::Set,
            "add",
            IfResultTrue,
            InverseCall {
                op: "remove".into(),
                args: vec![Param(0)],
            },
            None,
        ),
        InverseOperation::new(
            InterfaceId::Set,
            "remove",
            IfResultTrue,
            InverseCall {
                op: "add".into(),
                args: vec![Param(0)],
            },
            None,
        ),
        InverseOperation::new(
            InterfaceId::Map,
            "put",
            IfResultNonNull,
            InverseCall {
                op: "put".into(),
                args: vec![Param(0), Result],
            },
            Some(InverseCall {
                op: "remove".into(),
                args: vec![Param(0)],
            }),
        ),
        InverseOperation::new(
            InterfaceId::Map,
            "remove",
            IfResultNonNull,
            InverseCall {
                op: "put".into(),
                args: vec![Param(0), Result],
            },
            None,
        ),
        InverseOperation::new(
            InterfaceId::List,
            "addAt",
            Always,
            InverseCall {
                op: "removeAt".into(),
                args: vec![Param(0)],
            },
            None,
        ),
        InverseOperation::new(
            InterfaceId::List,
            "removeAt",
            Always,
            InverseCall {
                op: "addAt".into(),
                args: vec![Param(0), Result],
            },
            None,
        ),
        InverseOperation::new(
            InterfaceId::List,
            "set",
            Always,
            InverseCall {
                op: "set".into(),
                args: vec![Param(0), Result],
            },
            None,
        ),
    ]
}

/// Verifies one inverse operation, returning the merged verdict of its
/// testing-method obligations: planned like a commutativity testing method
/// and proved by the scheduler at one worker on `prover`.
pub fn verify_inverse(inverse: &InverseOperation, prover: &Portfolio) -> Verdict {
    let mut items = Vec::new();
    let plan = plan_method(Ok(inverse.obligations()), 0, &mut items);
    method_verdict(&plan, &prove_on_one_worker(prover, items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_prover::Scope;

    #[test]
    fn catalog_has_eight_inverses_like_table_5_10() {
        let catalog = inverse_catalog();
        assert_eq!(catalog.len(), 8);
        // Every updating operation of every interface is covered.
        for id in InterfaceId::ALL {
            let iface = interface_by_id(id);
            for op in iface.update_ops() {
                assert!(
                    catalog
                        .iter()
                        .any(|inv| inv.interface == id && inv.op == op.name),
                    "no inverse for {}::{}",
                    id,
                    op.name
                );
            }
        }
    }

    #[test]
    fn all_inverse_testing_methods_verify() {
        for inverse in inverse_catalog() {
            let scope = crate::verify::scope_for(inverse.interface, 3);
            let verdict = verify_inverse(&inverse, &Portfolio::new(scope));
            assert!(verdict.is_valid(), "{}: {verdict}", inverse);
        }
    }

    #[test]
    fn broken_inverse_is_rejected() {
        // "Undo" an add by another add: does not restore the abstract state.
        let broken = InverseOperation::new(
            InterfaceId::Set,
            "add",
            InverseGuard::IfResultTrue,
            InverseCall {
                op: "add".into(),
                args: vec![ArgSource::Param(0)],
            },
            None,
        );
        let verdict = verify_inverse(&broken, &Portfolio::new(Scope::small()));
        assert!(verdict.is_counterexample(), "{verdict}");
    }

    #[test]
    fn table_rows_match_table_5_10() {
        let rows: Vec<(String, String)> = inverse_catalog().iter().map(|i| i.table_row()).collect();
        assert!(rows.contains(&("s1.increase(v)".to_string(), "s2.increase(-v)".to_string())));
        assert!(rows.contains(&(
            "r = s1.add(v)".to_string(),
            "if r = true then s2.remove(v)".to_string()
        )));
        assert!(rows.contains(&(
            "r = s1.put(k, v)".to_string(),
            "if r ~= null then s2.put(k, r) else s2.remove(k)".to_string()
        )));
        assert!(rows.contains(&(
            "r = s1.removeAt(i)".to_string(),
            "s2.addAt(i, r)".to_string()
        )));
    }

    #[test]
    fn concrete_calls_follow_the_recorded_result() {
        let catalog = inverse_catalog();
        let add_inv = catalog
            .iter()
            .find(|i| i.interface == InterfaceId::Set && i.op == "add")
            .unwrap();
        assert_eq!(
            add_inv.concrete_call(&[Value::elem(3)], Some(&Value::Bool(true))),
            Some(("remove".to_string(), vec![Value::elem(3)]))
        );
        assert_eq!(
            add_inv.concrete_call(&[Value::elem(3)], Some(&Value::Bool(false))),
            None
        );
        let put_inv = catalog
            .iter()
            .find(|i| i.interface == InterfaceId::Map && i.op == "put")
            .unwrap();
        assert_eq!(
            put_inv.concrete_call(&[Value::elem(1), Value::elem(2)], Some(&Value::null())),
            Some(("remove".to_string(), vec![Value::elem(1)]))
        );
        assert_eq!(
            put_inv.concrete_call(&[Value::elem(1), Value::elem(2)], Some(&Value::elem(9))),
            Some(("put".to_string(), vec![Value::elem(1), Value::elem(9)]))
        );
        let inc_inv = catalog
            .iter()
            .find(|i| i.interface == InterfaceId::Accumulator)
            .unwrap();
        assert_eq!(
            inc_inv.concrete_call(&[Value::Int(5)], None),
            Some(("increase".to_string(), vec![Value::Int(-5)]))
        );
    }

    #[test]
    fn rendered_method_resembles_figure_2_3() {
        let catalog = inverse_catalog();
        let add_inv = catalog
            .iter()
            .find(|i| i.interface == InterfaceId::Set && i.op == "add")
            .unwrap();
        let text = add_inv.render();
        assert!(text.contains("void add0(HashSet s, Object v)"));
        assert!(text.contains("Object r = s.add(v);"));
        assert!(text.contains("assert"));
    }
}
