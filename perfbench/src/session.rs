//! `session`: the Figure 14 oracle-user sessions, closed loop, one user.
//!
//! Leader election, lock server, distributed lock, database chain and
//! Chord run in Figure 14 order. Learning switch is left out: its
//! minimization descent is capped by a wall-clock budget, so the amount of
//! work it does depends on machine speed.

use std::sync::Arc;
use std::time::Instant;

use ivy_bench::{protocols, ProtocolEntry};
use ivy_core::{
    Cti, CtiDecision, Oracle, OracleUser, Proposal, ProposalDecision, Session, SessionCtx,
    SessionOutcome, TooStrongDecision, Trace, User, Verifier,
};
use ivy_fol::PartialStructure;

use crate::trace::{Mark, Tracer};
use crate::{repeated_setup, run_passes, Args, EndToEnd, Span};

/// Rows in Figure 14 order, with the (S, RF, C, I, G) shape each session
/// must reproduce.
const ROWS: [(&str, [usize; 5]); 5] = [
    ("Leader election in ring", [2, 5, 3, 24, 3]),
    ("Lock server", [2, 8, 3, 34, 11]),
    ("Distributed lock protocol", [2, 5, 3, 45, 8]),
    ("Database chain replication", [3, 9, 9, 32, 7]),
    ("Chord ring maintenance", [1, 4, 6, 16, 3]),
];

/// Generous CTI budget; every pinned row needs at most 11.
const MAX_CTIS: usize = 40;

/// Set-up repetitions, the median reported, each timing this many
/// loads of the inputs (about 1 ms each).
const SETUP_REPS: usize = 15;
const SETUP_BATCH: usize = 20;
/// Seconds of `--seconds` budgeted per pass: 25 s buys two passes of the
/// five sessions (each about 15 s on a 2-vCPU Xeon VM), so the step
/// percentiles are a median of two.
const PASS_S: f64 = 12.5;

/// Wraps the oracle user and times the waits between its answers: a wait
/// ending in `on_cti` (or in the final proof) is CTI search and
/// minimization, one ending in `on_proposal` or `on_too_strong` is
/// generalization. Time inside the callbacks is the user's own.
struct TimedUser<'t> {
    inner: OracleUser,
    tracer: &'t mut Tracer,
    since: Option<Mark>,
    waits: Vec<Span>,
}

impl TimedUser<'_> {
    fn end_wait(&mut self, layer: &'static str) {
        let mark = self.since.take().expect("a wait is open");
        let wait = self.tracer.close(layer, mark);
        self.waits.push(wait);
    }

    fn answer<T>(&mut self, f: impl FnOnce(&mut OracleUser) -> T) -> T {
        let inner = &mut self.inner;
        let (out, _) = self.tracer.time("core.user", || f(inner));
        self.since = Some(self.tracer.mark());
        out
    }
}

impl User for TimedUser<'_> {
    fn on_cti(&mut self, ctx: &SessionCtx<'_>, cti: &Cti) -> CtiDecision {
        self.end_wait("core.minimize");
        self.answer(|u| u.on_cti(ctx, cti))
    }

    fn on_too_strong(
        &mut self,
        ctx: &SessionCtx<'_>,
        attempted: &PartialStructure,
        trace: &Trace,
    ) -> TooStrongDecision {
        self.end_wait("core.generalize");
        self.answer(|u| u.on_too_strong(ctx, attempted, trace))
    }

    fn on_proposal(&mut self, ctx: &SessionCtx<'_>, proposal: &Proposal) -> ProposalDecision {
        self.end_wait("core.generalize");
        self.answer(|u| u.on_proposal(ctx, proposal))
    }
}

fn load() -> Vec<ProtocolEntry> {
    let mut all = protocols();
    ROWS.iter()
        .map(|(name, _)| {
            let i = all
                .iter()
                .position(|e| e.name == *name)
                .unwrap_or_else(|| panic!("protocol `{name}` is bundled"));
            all.swap_remove(i)
        })
        .collect()
}

/// Runs one session; returns whether every gate held.
fn one_session(
    entry: &ProtocolEntry,
    shape: [usize; 5],
    tracer: &mut Tracer,
    waits: &mut Vec<Span>,
) -> bool {
    let probe = tracer.probe();
    let initial: Vec<_> = entry
        .program
        .safety
        .iter()
        .map(|(label, f)| ivy_core::Conjecture::new(label.clone(), f.clone()))
        .collect();
    let c: usize = initial.iter().map(|x| x.formula.literal_count()).sum();
    let target: Vec<_> = entry.invariant.iter().map(|x| x.formula.clone()).collect();
    let mut session = Session::new(&entry.program, initial, entry.measures.clone());
    let mut user = TimedUser {
        inner: OracleUser::new(target, entry.oracle_bound),
        since: Some(tracer.mark()),
        tracer,
        waits: Vec::new(),
    };
    let outcome = session.run(&mut user, MAX_CTIS);
    if outcome.is_ok() {
        user.end_wait("core.minimize");
    }
    waits.append(&mut user.waits);

    tracer.add_rollup(&session.oracle().rollup());

    let proved = matches!(outcome, Ok(SessionOutcome::Proved));
    if !proved {
        eprintln!("session: {} ended {outcome:?}", entry.name);
        return false;
    }
    let oracle = Arc::new(Oracle::new());
    let (reverified, _) = tracer.time("core.verify", || {
        Verifier::with_oracle(&entry.program, oracle.clone())
            .check(session.conjectures())
            .map(|r| r.is_inductive())
    });
    tracer.add_rollup(&oracle.rollup());

    let i: usize = session
        .conjectures()
        .iter()
        .map(|x| x.formula.literal_count())
        .sum();
    let measured = [
        entry.program.sig.sorts().len(),
        entry.program.sig.symbol_count(),
        c,
        i,
        session.stats().ctis,
    ];
    tracer.row("session", entry.name, &probe, &[]);
    if reverified != Ok(true) || measured != shape {
        eprintln!(
            "session: {} re-verified {reverified:?}, shape {measured:?} (pinned {shape:?})",
            entry.name
        );
        return false;
    }
    true
}

pub fn run(args: &Args, tracer: &mut Tracer, e2e: &mut EndToEnd) {
    let entries = repeated_setup(SETUP_REPS, SETUP_BATCH, tracer, e2e, load);
    tracer.begin();
    run_passes(args.seconds, PASS_S, &mut e2e.work, || {
        let start = Instant::now();
        let mut waits = Vec::new();
        for (entry, (_, shape)) in entries.iter().zip(ROWS) {
            e2e.attempted += 1;
            if !one_session(entry, shape, tracer, &mut waits) {
                e2e.failed += 1;
            }
        }
        e2e.per_pass = waits.len() as f64;
        e2e.ops.push(waits);
        Span::since(start)
    });
    tracer.end(1);
}
