//! `cold-check`: what one-shot `ivy prove` and `ivy bmc` runs pay.
//!
//! For each of the six protocols: parse and validate the model from
//! source, verify the shipped invariant, and run BMC to depth 3, each on a
//! fresh oracle. Then `two_phase`: refused in full mode, proved at its
//! bound. Every frame misses and no session loop runs, so this workload
//! bypasses the oracle cache.

use std::sync::Arc;
use std::time::Instant;

use ivy_bench::{protocols, ProtocolEntry};
use ivy_core::{Bmc, Conjecture, Oracle, Verifier};
use ivy_epr::{EprError, InstantiationMode};
use ivy_protocols::two_phase;
use ivy_rml::{check_program, parse_program};

use crate::trace::Tracer;
use crate::{repeated_setup, run_passes, Args, EndToEnd, Span};

const BMC_DEPTH: usize = 3;
/// Set-up repetitions, the median reported, each timing this many
/// loads of the inputs (about 1 ms each).
const SETUP_REPS: usize = 15;
const SETUP_BATCH: usize = 20;
/// Seconds of `--seconds` budgeted per pass (a cold pass takes about
/// 2.5 s on a 2-vCPU Xeon VM): 25 s buys six passes.
const PASS_S: f64 = 4.0;

struct Inputs {
    entries: Vec<ProtocolEntry>,
    two_phase: Vec<Conjecture>,
}

fn load() -> Inputs {
    Inputs {
        entries: protocols(),
        two_phase: two_phase::invariant(),
    }
}

fn fresh_oracle(mode: InstantiationMode) -> Arc<Oracle> {
    let mut oracle = Oracle::new();
    oracle.set_mode(mode);
    Arc::new(oracle)
}

/// Parses and validates `source`; `fragment_ok` admits fragment
/// violations (the non-EPR model). Returns the program if it loads.
fn load_model(tracer: &mut Tracer, source: &str, fragment_ok: bool) -> Option<ivy_rml::Program> {
    let (program, _) = tracer.time("rml.parse", || {
        let program = parse_program(source).ok()?;
        let problems = check_program(&program);
        problems
            .iter()
            .all(|p| fragment_ok && p.is_fragment())
            .then_some(program)
    });
    program
}

/// One protocol's cold checks. Returns (operations, failures).
fn check_protocol(tracer: &mut Tracer, entry: &ProtocolEntry) -> (u64, u64) {
    let probe = tracer.probe();
    let Some(program) = load_model(tracer, entry.source, false) else {
        eprintln!("cold-check: {} does not load", entry.name);
        return (3, 3);
    };
    let oracle = fresh_oracle(InstantiationMode::Full);
    let (verdict, _) = tracer.time("core.verify", || {
        Verifier::with_oracle(&program, oracle.clone()).check(&entry.invariant)
    });
    tracer.add_rollup(&oracle.rollup());
    let inductive = matches!(verdict, Ok(ref r) if r.is_inductive());

    let oracle = fresh_oracle(InstantiationMode::Full);
    let (trace, _) = tracer.time("core.bmc", || {
        Bmc::with_oracle(&program, oracle.clone()).check_safety(BMC_DEPTH)
    });
    tracer.add_rollup(&oracle.rollup());
    let safe = matches!(trace, Ok(None));
    tracer.row("cold", entry.name, &probe, &[]);

    if !inductive || !safe {
        eprintln!(
            "cold-check: {} verify {:?}, bmc safe {safe}",
            entry.name,
            verdict.map(|r| r.is_inductive())
        );
    }
    (3, u64::from(!inductive) + u64::from(!safe))
}

/// `two_phase`: full mode must refuse the model, bounded mode must prove
/// it. Returns (operations, failures).
fn check_two_phase(tracer: &mut Tracer, invariant: &[Conjecture]) -> (u64, u64) {
    let probe = tracer.probe();
    let Some(program) = load_model(tracer, two_phase::SOURCE, true) else {
        eprintln!("cold-check: two_phase does not load");
        return (3, 3);
    };
    let oracle = fresh_oracle(InstantiationMode::Full);
    let (full, _) = tracer.time("core.verify", || {
        Verifier::with_oracle(&program, oracle.clone()).check(invariant)
    });
    tracer.add_rollup(&oracle.rollup());
    // A refusal is a fragment error: an unstratified signature or a
    // formula outside the fragment, never a budget stop or a verdict.
    let refused = matches!(full, Err(EprError::Sig(_) | EprError::Skolem(_)));

    let oracle = fresh_oracle(InstantiationMode::Bounded(two_phase::PROVE_BOUND));
    let (bounded, _) = tracer.time("core.verify", || {
        Verifier::with_oracle(&program, oracle.clone()).check(invariant)
    });
    tracer.add_rollup(&oracle.rollup());
    let proved = matches!(bounded, Ok(ref r) if r.is_inductive());
    tracer.row("cold", "two_phase", &probe, &[]);

    if !refused || !proved {
        eprintln!("cold-check: two_phase refused {refused}, bounded proof {proved}");
    }
    (3, u64::from(!refused) + u64::from(!proved))
}

pub fn run(args: &Args, tracer: &mut Tracer, e2e: &mut EndToEnd) {
    let inputs = repeated_setup(SETUP_REPS, SETUP_BATCH, tracer, e2e, load);
    tracer.begin();
    run_passes(args.seconds, PASS_S, &mut e2e.work, || {
        let start = Instant::now();
        let mut checks = Vec::new();
        for entry in &inputs.entries {
            let t = Instant::now();
            let (ops, failed) = check_protocol(tracer, entry);
            checks.push(Span::since(t));
            e2e.attempted += ops;
            e2e.failed += failed;
        }
        let t = Instant::now();
        let (ops, failed) = check_two_phase(tracer, &inputs.two_phase);
        checks.push(Span::since(t));
        e2e.attempted += ops;
        e2e.failed += failed;
        e2e.per_pass = checks.len() as f64;
        e2e.ops.push(checks);
        Span::since(start)
    });
    tracer.end(1);
}
