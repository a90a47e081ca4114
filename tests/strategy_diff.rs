//! Differential test for the incremental query machinery over the six
//! bundled evaluation protocols (Section 5.1): the `Fresh` and `Session`
//! strategies of the inductiveness checker must agree on every verdict and
//! name the same violation, and incremental BMC must agree with
//! fresh per-depth BMC. This is the end-to-end guarantee that solver-state
//! reuse (shared frames, assumption groups, learnt clauses, repaired
//! equality axioms) never changes an answer.

use ivy_core::{Bmc, Conjecture, Inductiveness, QueryStrategy, Verifier, Violation};
use ivy_protocols as p;
use ivy_rml::Program;

fn protocols() -> Vec<(&'static str, Program, Vec<Conjecture>)> {
    vec![
        ("leader", p::leader::program(), p::leader::invariant()),
        (
            "lock_server",
            p::lock_server::program(),
            p::lock_server::invariant(),
        ),
        (
            "distributed_lock",
            p::distributed_lock::program(),
            p::distributed_lock::invariant(),
        ),
        (
            "learning_switch",
            p::learning_switch::program(),
            p::learning_switch::invariant(),
        ),
        ("db_chain", p::db_chain::program(), p::db_chain::invariant()),
        ("chord", p::chord::program(), p::chord::invariant()),
    ]
}

fn check_with(program: &Program, strategy: QueryStrategy, inv: &[Conjecture]) -> Inductiveness {
    let mut v = Verifier::new(program);
    v.set_strategy(strategy);
    v.check(inv).unwrap()
}

fn violation_of(result: &Inductiveness) -> Option<Violation> {
    match result {
        Inductiveness::Inductive => None,
        Inductiveness::Cti(cti) => Some(cti.violation.clone()),
    }
}

#[test]
fn strategies_agree_on_all_protocols() {
    for (name, program, invariant) in protocols() {
        // The bundled invariant is inductive: every strategy must prove it.
        // Dropping its last conjecture usually breaks inductiveness: every
        // strategy must then report the same violation.
        let mut weakened = invariant.clone();
        weakened.pop();
        for inv in [&invariant, &weakened] {
            let reference = check_with(&program, QueryStrategy::Fresh, inv);
            let got = check_with(&program, QueryStrategy::Session, inv);
            assert_eq!(
                violation_of(&reference),
                violation_of(&got),
                "{name}: Session disagrees with Fresh on {} conjectures",
                inv.len()
            );
        }
        assert!(
            check_with(&program, QueryStrategy::Session, &invariant).is_inductive(),
            "{name}: bundled invariant must verify"
        );
    }
}

/// A warm session pool must not change which CTI is reported: re-checking
/// on the verifier that just answered (every frame now a pool hit) names
/// the same violation as the cold first check.
#[test]
fn session_cti_selection_is_repeatable() {
    for (name, program, invariant) in protocols() {
        let mut weakened = invariant.clone();
        weakened.pop();
        let mut v = Verifier::new(&program);
        v.set_strategy(QueryStrategy::Session);
        let first = violation_of(&v.check(&weakened).unwrap());
        for run in 1..3 {
            let again = violation_of(&v.check(&weakened).unwrap());
            assert_eq!(
                first, again,
                "{name}: warm run {run} reports a different CTI"
            );
        }
    }
}

#[test]
fn incremental_bmc_agrees_with_fresh() {
    for (name, program, _) in protocols() {
        let mut fresh = Bmc::new(&program);
        fresh.set_incremental(false);
        let mut incremental = Bmc::new(&program);
        incremental.set_incremental(true);
        let k = 2;
        let f = fresh.check_safety(k).unwrap();
        let i = incremental.check_safety(k).unwrap();
        match (&f, &i) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.violated, b.violated, "{name}");
                assert_eq!(a.steps(), b.steps(), "{name}: trace depth differs");
            }
            _ => panic!("{name}: incremental BMC disagrees with fresh at k={k}"),
        }
        // k-invariance of each declared safety property.
        for (label, phi) in &program.safety {
            let f = fresh.check_k_invariance(phi, k).unwrap();
            let i = incremental.check_k_invariance(phi, k).unwrap();
            assert_eq!(
                f.as_ref().map(|t| t.steps()),
                i.as_ref().map(|t| t.steps()),
                "{name}: k-invariance of `{label}` differs"
            );
        }
    }
}
