//! Pins the shape of the Figure 14 oracle-user sessions.
//!
//! For leader election, lock server, distributed lock, database chain and
//! Chord, the ideal-user session ([`OracleUser`] with the protocol's known
//! invariant as its target) must prove safety and reproduce the pinned
//! (S, RF, C, I, G) row: sorts, relation/function symbols, literals in the
//! initial conjectures, literals in the found invariant, and CTIs needed.
//! The same rows are the correctness gate of the `session` workload in
//! `perfbench/src/session.rs`; pinning them here makes any drift in the
//! search (a different CTI, a different minimization or generalization)
//! fail `cargo test` instead of passing unnoticed.
//!
//! Learning switch is left out: its minimization descent is capped by a
//! wall-clock budget, so its row depends on machine speed.

use ivy_core::{Conjecture, Measure, OracleUser, Session, SessionOutcome, Verifier};
use ivy_protocols as p;
use ivy_rml::Program;

/// Generous CTI budget; every pinned row needs at most 11.
const MAX_CTIS: usize = 40;

/// Runs the oracle-user session and returns its measured (S, RF, C, I, G).
fn session_shape(
    program: &Program,
    target: &[Conjecture],
    measures: Vec<Measure>,
    oracle_bound: usize,
) -> [usize; 5] {
    let initial: Vec<Conjecture> = program
        .safety
        .iter()
        .map(|(label, f)| Conjecture::new(label.clone(), f.clone()))
        .collect();
    let c: usize = initial.iter().map(|x| x.formula.literal_count()).sum();
    let target = target.iter().map(|x| x.formula.clone()).collect();
    let mut session = Session::new(program, initial, measures);
    let mut user = OracleUser::new(target, oracle_bound);
    let outcome = session.run(&mut user, MAX_CTIS).expect("session runs");
    assert_eq!(outcome, SessionOutcome::Proved, "{:?}", session.stats());
    // The found invariant must stand on its own, checked by a fresh verifier.
    let reverified = Verifier::new(program)
        .check(session.conjectures())
        .expect("re-verification runs");
    assert!(
        reverified.is_inductive(),
        "found invariant is not inductive"
    );
    let i = session
        .conjectures()
        .iter()
        .map(|x| x.formula.literal_count())
        .sum();
    [
        program.sig.sorts().len(),
        program.sig.symbol_count(),
        c,
        i,
        session.stats().ctis,
    ]
}

#[test]
fn leader_election_row() {
    let shape = session_shape(
        &p::leader::program(),
        &p::leader::invariant(),
        p::leader::measures(),
        3,
    );
    assert_eq!(shape, [2, 5, 3, 24, 3]);
}

#[test]
fn lock_server_row() {
    let shape = session_shape(
        &p::lock_server::program(),
        &p::lock_server::invariant(),
        p::lock_server::measures(),
        2,
    );
    assert_eq!(shape, [2, 8, 3, 34, 11]);
}

#[test]
fn distributed_lock_row() {
    let shape = session_shape(
        &p::distributed_lock::program(),
        &p::distributed_lock::invariant(),
        p::distributed_lock::measures(),
        2,
    );
    assert_eq!(shape, [2, 5, 3, 45, 8]);
}

#[test]
fn database_chain_row() {
    let shape = session_shape(
        &p::db_chain::program(),
        &p::db_chain::invariant(),
        p::db_chain::measures(),
        1,
    );
    assert_eq!(shape, [3, 9, 9, 32, 7]);
}

#[test]
fn chord_row() {
    let shape = session_shape(
        &p::chord::program(),
        &p::chord::invariant(),
        p::chord::measures(),
        2,
    );
    assert_eq!(shape, [1, 4, 6, 16, 3]);
}
