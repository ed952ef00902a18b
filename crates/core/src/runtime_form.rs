//! Runtime forms of the set and map between conditions.
//!
//! A between condition may read the initial state `s1` where the first
//! operation's recorded result `r1` already decides the query. Set `remove`
//! returns `v1 ∈ s1`; Map `put` and `remove` return `s1.get(k1)`, so
//! `k1 ∈ dom s1` is `r1 ≠ null`. The paper's tables make this substitution
//! for the pairs they show (Tables 5.3 and 5.5); the catalog keeps the
//! initial-state form for the rest, and the table binaries print it.
//!
//! This module derives the **runtime form** of every set and map between
//! condition whose first variant records its result: each state query of
//! the first operation is replaced by the `r1` term that the operation's
//! result specification equates it with ([`state_query_rewrites`]). Every
//! rewritten condition comes with an equivalence obligation,
//! `pre(first) ∧ r1 = result(first, s1, args1) ⇒ (paper form ⇔ runtime
//! form)`, which the prover discharges like any testing-method obligation
//! ([`RuntimeRewrite::obligation`]). The catalog, the verification driver
//! and the report tables keep the paper form byte for byte; the runtime's
//! gatekeeper takes the runtime form, so over sets and maps only the
//! `size`-first pairs still read `s1`.
//!
//! Sequences are left alone: their conditions read positions of `s1` that
//! no result of the first operation determines, so the runtime keeps their
//! pre-state anchor either way.
//!
//! # The stripe license
//!
//! Every set and map operation but `size` takes its key at argument
//! [`STRIPE_KEY`], and its runtime form with any other such operation holds
//! whenever the two keys differ. The runtime splits a set or map into key
//! stripes and admits a keyed operation against its own stripe's log only,
//! which is sound exactly because of that. [`stripe_license`] states it as
//! one obligation per ordered pair of keyed operations ([`StripeLicense`]):
//! `pre(first) ∧ r1 = result(first, s1, args1) ⇒ (key1 ≠ key2 ⇒ runtime
//! form)`. A pair with `size` has no such license — `size` observes every
//! key — and the same statement over it is refused.

use semcommute_logic::build::{implies, neq, not, null};
use semcommute_logic::{Sort, Term};
use semcommute_prover::Obligation;
use semcommute_spec::{interface_by_id, InterfaceId, OpSpec};

use crate::catalog::{condition_formula, interface_catalog};
use crate::condition::{names, CommutativityCondition};
use crate::kind::ConditionKind;
use crate::variant::OpVariant;

/// One rewrite rule: in a condition whose first operation is `op`, the state
/// query `query` (a term over `s1` and the first operation's arguments)
/// becomes `replacement` (a term over `r1`).
#[derive(Debug, Clone, PartialEq)]
pub struct StateQueryRewrite {
    /// The first operation the rule applies to.
    pub op: String,
    /// The state query, over `s1` and the canonical first-operation
    /// arguments (`v1`, `k1`).
    pub query: Term,
    /// The term over `r1` the result specification equates it with.
    pub replacement: Term,
}

/// The canonical first-operation arguments of `spec` (`v1`, `k1`, …).
fn first_args(spec: &OpSpec) -> Vec<Term> {
    spec.params
        .iter()
        .map(|(formal, sort)| Term::var(names::arg(formal, 1), *sort))
        .collect()
}

/// The rewrite rules of an interface, derived from its result
/// specifications: the instantiated result `R` of each operation becomes
/// `r1`; for `R = ¬Q`, `Q` becomes `¬r1`; for `R = s1.get(k)`, `k ∈ dom s1`
/// becomes `r1 ≠ null`. Empty for the Accumulator and ArrayList, whose
/// conditions keep their paper form at run time (see the module docs).
pub fn state_query_rewrites(interface: InterfaceId) -> Vec<StateQueryRewrite> {
    let iface = interface_by_id(interface);
    if !matches!(iface.state_sort, Sort::Set | Sort::Map) {
        return Vec::new();
    }
    let s1 = Term::var(names::INITIAL, iface.state_sort);
    let mut rules = Vec::new();
    for spec in &iface.ops {
        let (Some(result), Some(sort)) = (
            spec.instantiate_result(&s1, &first_args(spec)),
            spec.result_sort,
        ) else {
            continue;
        };
        let r1 = Term::var(names::RESULT1, sort);
        let mut rule = |query: Term, replacement: Term| {
            rules.push(StateQueryRewrite {
                op: spec.name.clone(),
                query,
                replacement,
            })
        };
        match &result {
            Term::Not(query) => rule((**query).clone(), not(r1.clone())),
            Term::MapGet(map, key) => rule(
                Term::MapHasKey(map.clone(), key.clone()),
                neq(r1.clone(), null()),
            ),
            _ => {}
        }
        rule(result, r1);
    }
    rules
}

/// `term` with every occurrence of `query` replaced by `replacement`; a
/// double negation the replacement creates is dropped.
fn replace(term: &Term, query: &Term, replacement: &Term) -> Term {
    if term == query {
        return replacement.clone();
    }
    match term.map_children(|child| replace(child, query, replacement)) {
        Term::Not(inner) => match *inner {
            Term::Not(positive) => *positive,
            inner => not(inner),
        },
        other => other,
    }
}

/// `condition` with `rules` applied, if it is a between condition whose
/// first variant records its result; otherwise `condition` unchanged.
pub fn rewrite_with(
    mut condition: CommutativityCondition,
    rules: &[StateQueryRewrite],
) -> CommutativityCondition {
    if condition.kind != ConditionKind::Between || !condition.first.recorded {
        return condition;
    }
    for rule in rules.iter().filter(|rule| rule.op == condition.first.op) {
        condition.formula = replace(&condition.formula, &rule.query, &rule.replacement);
    }
    condition
}

/// A catalog condition whose runtime form differs from its paper form.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeRewrite {
    /// The catalog's (paper) form.
    pub paper: CommutativityCondition,
    /// The runtime form.
    pub runtime: CommutativityCondition,
}

impl RuntimeRewrite {
    /// The equivalence obligation: under the first operation's precondition,
    /// with `r1` defined as its result at `s1`, the paper form holds iff the
    /// runtime form does.
    pub fn obligation(&self) -> Obligation {
        let iface = interface_by_id(self.paper.interface);
        let spec = iface
            .op(&self.paper.first.op)
            .unwrap_or_else(|| panic!("unknown operation `{}`", self.paper.first.op));
        let s1 = Term::var(names::INITIAL, iface.state_sort);
        let args = first_args(spec);
        let result = spec
            .instantiate_result(&s1, &args)
            .expect("a rewritten condition's first operation returns a value");
        Obligation::new(format!("{}::runtime_form", self.paper.id()))
            .define(names::RESULT1, result)
            .assume(spec.instantiate_pre(&s1, &args))
            .goal(semcommute_logic::build::iff(
                self.paper.formula.clone(),
                self.runtime.formula.clone(),
            ))
    }
}

/// The runtime form of the recorded between condition of an ordered
/// operation pair, by the interface's `rules` ([`state_query_rewrites`]).
pub fn runtime_condition(
    interface: InterfaceId,
    first_op: &str,
    second_op: &str,
    rules: &[StateQueryRewrite],
) -> CommutativityCondition {
    let (first, second) = (
        OpVariant::recorded(first_op),
        OpVariant::recorded(second_op),
    );
    let kind = ConditionKind::Between;
    let formula = condition_formula(interface, &first, &second, kind);
    rewrite_with(
        CommutativityCondition::new(interface, first, second, kind, formula),
        rules,
    )
}

/// The argument position of the key of every keyed set and map operation
/// (`v` of `add`, `k` of `put`, …): the runtime's stripe of an operation is
/// the stripe of this argument, as the [`stripe_license`] obligations
/// state.
pub const STRIPE_KEY: usize = 0;

/// The interface's keyed operations, in specification order: for a set or
/// a map, every operation whose argument [`STRIPE_KEY`] is an element (all
/// but `size`); none for the Accumulator and ArrayList.
pub fn keyed_operations(interface: InterfaceId) -> Vec<String> {
    let iface = interface_by_id(interface);
    if !matches!(iface.state_sort, Sort::Set | Sort::Map) {
        return Vec::new();
    }
    iface
        .ops
        .iter()
        .filter(|op| matches!(op.params.get(STRIPE_KEY), Some((_, Sort::Elem))))
        .map(|op| op.name.clone())
        .collect()
}

/// The stripe license of one ordered operation pair: their runtime form
/// holds whenever their keys differ.
#[derive(Debug, Clone, PartialEq)]
pub struct StripeLicense {
    /// The runtime form of the pair's recorded between condition.
    pub runtime: CommutativityCondition,
}

impl StripeLicense {
    /// The license of `first` then `second` over `interface`'s runtime forms.
    pub fn new(interface: InterfaceId, first: &str, second: &str) -> StripeLicense {
        let rules = state_query_rewrites(interface);
        StripeLicense {
            runtime: runtime_condition(interface, first, second, &rules),
        }
    }

    /// The obligation: under the first operation's precondition, with `r1`
    /// defined as its result at `s1`, the runtime form holds whenever the
    /// two keys differ (`v1 ≠ v2`, `k1 ≠ k2`). An operation without a key
    /// (`size`) contributes no inequality, so over it the goal is the
    /// runtime form itself.
    pub fn obligation(&self) -> Obligation {
        let iface = interface_by_id(self.runtime.interface);
        let op = |name: &str| {
            iface
                .op(name)
                .unwrap_or_else(|| panic!("unknown operation `{name}`"))
        };
        let (first, second) = (op(&self.runtime.first.op), op(&self.runtime.second.op));
        let s1 = Term::var(names::INITIAL, iface.state_sort);
        let args = first_args(first);
        let key = |spec: &OpSpec, which: usize| {
            let (formal, sort) = spec.params.get(STRIPE_KEY)?;
            (*sort == Sort::Elem).then(|| Term::var(names::arg(formal, which), *sort))
        };
        let goal = match (key(first, 1), key(second, 2)) {
            (Some(k1), Some(k2)) => implies(neq(k1, k2), self.runtime.formula.clone()),
            _ => self.runtime.formula.clone(),
        };
        let mut obligation = Obligation::new(format!("{}::stripe_license", self.runtime.id()));
        if let Some(result) = first.instantiate_result(&s1, &args) {
            obligation = obligation.define(names::RESULT1, result);
        }
        obligation
            .assume(first.instantiate_pre(&s1, &args))
            .goal(goal)
    }
}

/// The stripe license of an interface: one [`StripeLicense`] per ordered
/// pair of its [`keyed_operations`] (9 Set pairs, 16 Map pairs, none
/// elsewhere).
pub fn stripe_license(interface: InterfaceId) -> Vec<StripeLicense> {
    let rules = state_query_rewrites(interface);
    let keyed = keyed_operations(interface);
    let mut license = Vec::new();
    for first in &keyed {
        for second in &keyed {
            license.push(StripeLicense {
                runtime: runtime_condition(interface, first, second, &rules),
            });
        }
    }
    license
}

/// Every condition of the interface's catalog whose runtime form differs
/// from its paper form, in catalog order.
pub fn runtime_rewrites(interface: InterfaceId) -> Vec<RuntimeRewrite> {
    let rules = state_query_rewrites(interface);
    interface_catalog(interface)
        .into_iter()
        .filter_map(|paper| {
            let runtime = rewrite_with(paper.clone(), &rules);
            (runtime != paper).then_some(RuntimeRewrite { paper, runtime })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::OpVariant;
    use crate::verify::scope_for;
    use semcommute_logic::build::*;
    use semcommute_prover::Portfolio;

    fn rewritten_pairs(interface: InterfaceId) -> Vec<(String, String)> {
        runtime_rewrites(interface)
            .into_iter()
            .map(|r| (r.paper.first.label(), r.paper.second.label()))
            .collect()
    }

    #[test]
    fn rules_follow_the_result_specifications() {
        let set = state_query_rewrites(InterfaceId::Set);
        let remove = set.iter().find(|r| r.op == "remove").unwrap();
        assert_eq!(remove.query, member(var_elem("v1"), var_set("s1")));
        assert_eq!(remove.replacement, var_bool("r1"));
        let map = state_query_rewrites(InterfaceId::Map);
        for op in ["put", "remove"] {
            let rules: Vec<_> = map.iter().filter(|r| r.op == op).collect();
            assert!(rules.contains(&&StateQueryRewrite {
                op: op.into(),
                query: map_get(var_map("s1"), var_elem("k1")),
                replacement: var_elem("r1"),
            }));
            assert!(rules.contains(&&StateQueryRewrite {
                op: op.into(),
                query: map_has_key(var_map("s1"), var_elem("k1")),
                replacement: neq(var_elem("r1"), null()),
            }));
        }
        assert!(state_query_rewrites(InterfaceId::List).is_empty());
        assert!(state_query_rewrites(InterfaceId::Accumulator).is_empty());
    }

    /// Exactly the listed pairs change: Set `remove` before `contains`; Map
    /// `put` before `get`, `containsKey`, both `put` variants and `size`;
    /// Map `remove` before `get` and `containsKey`.
    #[test]
    fn exactly_the_listed_pairs_are_rewritten() {
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(
            rewritten_pairs(InterfaceId::Set),
            pairs(&[("remove", "contains")])
        );
        let mut map = rewritten_pairs(InterfaceId::Map);
        map.sort();
        let mut expected = pairs(&[
            ("put", "get"),
            ("put", "containsKey"),
            ("put", "put"),
            ("put", "put_"),
            ("put", "size"),
            ("remove", "get"),
            ("remove", "containsKey"),
        ]);
        expected.sort();
        assert_eq!(map, expected);
        assert!(runtime_rewrites(InterfaceId::List).is_empty());
        assert!(runtime_rewrites(InterfaceId::Accumulator).is_empty());
    }

    #[test]
    fn runtime_forms_read_r1_instead_of_s1() {
        let set = runtime_rewrites(InterfaceId::Set);
        assert_eq!(
            set[0].runtime.formula,
            or2(neq(var_elem("v1"), var_elem("v2")), not(var_bool("r1")))
        );
        for rewrite in runtime_rewrites(InterfaceId::Set)
            .into_iter()
            .chain(runtime_rewrites(InterfaceId::Map))
        {
            let free = semcommute_logic::free_vars(&rewrite.runtime.formula);
            assert!(
                !free.contains_key(names::INITIAL),
                "{} still reads s1",
                rewrite.paper.id()
            );
        }
        let remove_get = runtime_rewrites(InterfaceId::Map)
            .into_iter()
            .find(|r| r.paper.first.op == "remove" && r.paper.second.op == "get")
            .unwrap();
        assert_eq!(
            remove_get.runtime.formula,
            or2(
                neq(var_elem("k1"), var_elem("k2")),
                eq(var_elem("r1"), null())
            )
        );
    }

    #[test]
    fn every_equivalence_obligation_is_valid() {
        for interface in [InterfaceId::Set, InterfaceId::Map] {
            let prover = Portfolio::new(scope_for(interface, 3));
            for rewrite in runtime_rewrites(interface) {
                let verdict = prover.prove(&rewrite.obligation());
                assert!(verdict.is_valid(), "{}: {verdict}", rewrite.paper.id());
            }
        }
    }

    /// Every ordered pair of keyed set and map operations — 9 Set pairs, 16
    /// Map pairs — commutes whenever the keys differ.
    #[test]
    fn every_stripe_license_obligation_is_valid() {
        for (interface, keyed, pairs) in [
            (InterfaceId::Set, vec!["add", "contains", "remove"], 9),
            (
                InterfaceId::Map,
                vec!["containsKey", "get", "put", "remove"],
                16,
            ),
        ] {
            assert_eq!(keyed_operations(interface), keyed);
            let license = stripe_license(interface);
            assert_eq!(license.len(), pairs, "{interface}");
            let prover = Portfolio::new(scope_for(interface, 3));
            for pair in license {
                let verdict = prover.prove(&pair.obligation());
                assert!(verdict.is_valid(), "{}: {verdict}", pair.runtime.id());
            }
        }
        assert!(stripe_license(InterfaceId::List).is_empty());
        assert!(stripe_license(InterfaceId::Accumulator).is_empty());
    }

    /// `size` reads every key, so a pair with it, stated the same way, is
    /// refused with a counter-model in either order.
    #[test]
    fn a_size_pair_has_no_stripe_license() {
        for (interface, first, second) in [
            (InterfaceId::Set, "size", "add"),
            (InterfaceId::Set, "remove", "size"),
            (InterfaceId::Map, "put", "size"),
        ] {
            let obligation = StripeLicense::new(interface, first, second).obligation();
            let verdict = Portfolio::new(scope_for(interface, 3)).prove(&obligation);
            assert!(verdict.is_counterexample(), "{first}/{second}: {verdict}");
            assert!(verdict.counter_model().is_some(), "{first}/{second}");
        }
    }

    /// A planted wrong rule — Set `remove` with `v1 ∈ s1` read as `¬r1` —
    /// must be refused, with a counter-model.
    #[test]
    fn a_wrong_rewrite_is_refused_with_a_counter_model() {
        let paper = interface_catalog(InterfaceId::Set)
            .into_iter()
            .find(|c| {
                c.kind == ConditionKind::Between
                    && c.first == OpVariant::recorded("remove")
                    && c.second == OpVariant::recorded("contains")
            })
            .unwrap();
        let wrong = [StateQueryRewrite {
            op: "remove".into(),
            query: member(var_elem("v1"), var_set("s1")),
            replacement: not(var_bool("r1")),
        }];
        let rewrite = RuntimeRewrite {
            runtime: rewrite_with(paper.clone(), &wrong),
            paper,
        };
        assert_ne!(rewrite.runtime, rewrite.paper);
        let verdict = Portfolio::new(scope_for(InterfaceId::Set, 3)).prove(&rewrite.obligation());
        assert!(verdict.is_counterexample(), "{verdict}");
        assert!(verdict.counter_model().is_some(), "{verdict}");
    }

    /// FNV-1a, for pinning long texts in a test.
    fn fingerprint(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// The paper form is untouched: the 510 catalog formulas (as printed by
    /// the logic's `Display`) and the rendered Set and Map between tables
    /// hash to the values they had before the runtime forms existed. A
    /// deliberate change to the catalog or the printer re-pins these.
    #[test]
    fn the_paper_catalog_and_tables_are_unchanged() {
        use std::fmt::Write;
        let mut text = String::new();
        let mut count = 0;
        for interface in InterfaceId::ALL {
            for c in interface_catalog(interface) {
                writeln!(text, "{}\t{}", c.id(), c.formula).unwrap();
                count += 1;
            }
        }
        assert_eq!(count, 510);
        assert_eq!(fingerprint(&text), 18294965183040438912, "catalog formulas");
        for (interface, pinned) in [
            (InterfaceId::Set, 3449828321182732188),
            (InterfaceId::Map, 4322301289384303666),
        ] {
            let table = crate::report::condition_table(interface, ConditionKind::Between);
            assert_eq!(fingerprint(&table), pinned, "{interface} between table");
        }
    }

    #[test]
    fn other_kinds_and_discarded_first_variants_keep_the_paper_form() {
        for interface in InterfaceId::ALL {
            let rules = state_query_rewrites(interface);
            for condition in interface_catalog(interface) {
                if condition.kind != ConditionKind::Between || !condition.first.recorded {
                    let runtime = rewrite_with(condition.clone(), &rules);
                    assert_eq!(runtime, condition, "{}", condition.id());
                }
            }
        }
    }
}
