//! `infer`: invariant synthesis from the safety property alone, on leader
//! election and lock server, each proved row re-verified by a fresh
//! verifier. The only workload that runs template enumeration, the BMC
//! pre-filter and Houdini. Distributed lock and learning switch are left
//! out: they end `unknown` after minutes of work.

use std::sync::Arc;
use std::time::Instant;

use ivy_bench::{protocols, ProtocolEntry};
use ivy_core::{infer, InferOptions, InferStatus, Oracle, Verifier};

use crate::trace::Tracer;
use crate::{repeated_setup, run_passes, Args, EndToEnd, Span};

const ROWS: [&str; 2] = ["Leader election in ring", "Lock server"];
/// Set-up repetitions, the median reported, each timing this many
/// loads of the inputs (about 1 ms each).
const SETUP_REPS: usize = 15;
const SETUP_BATCH: usize = 20;
/// Seconds of `--seconds` budgeted per pass (both rows take 11–18 s on a
/// 2-vCPU Xeon VM): 25 s buys one pass.
const PASS_S: f64 = 13.0;

fn load() -> Vec<ProtocolEntry> {
    protocols()
        .into_iter()
        .filter(|e| ROWS.contains(&e.name))
        .collect()
}

/// One inference row. Returns the oracle queries it issued and whether it
/// proved and re-verified.
fn one_row(tracer: &mut Tracer, entry: &ProtocolEntry, ops: &mut Vec<Span>) -> (u64, bool) {
    let probe = tracer.probe();
    let oracle = Arc::new(Oracle::new());
    // The options `ivy infer` runs with.
    let opts = InferOptions::default();
    // A row takes seconds, so it runs beside the checkpoints.
    let (report, span) =
        tracer.time_concurrent("core.infer", || infer(&entry.program, &oracle, &opts));
    ops.push(span);
    tracer.add_rollup(&oracle.rollup());
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("infer: {}: {e}", entry.name);
            return (0, false);
        }
    };
    let counts = [
        ("infer.queries", report.queries),
        ("infer.generated", report.generated as u64),
        ("infer.blocked", report.blocked as u64),
        ("infer.houdini_runs", report.houdini_runs as u64),
    ];
    for (name, value) in counts {
        tracer.add(name, value as f64);
    }
    tracer.row("infer", entry.name, &probe, &counts);
    if report.status != InferStatus::Proved {
        eprintln!("infer: {} ended {}", entry.name, report.status.tag());
        return (report.queries, false);
    }
    let oracle = Arc::new(Oracle::new());
    let (reverified, _) = tracer.time("core.verify", || {
        Verifier::with_oracle(&entry.program, oracle.clone())
            .check(&report.invariant)
            .map(|r| r.is_inductive())
    });
    tracer.add_rollup(&oracle.rollup());
    if reverified != Ok(true) {
        eprintln!("infer: {} re-verified {reverified:?}", entry.name);
        return (report.queries, false);
    }
    (report.queries, true)
}

pub fn run(args: &Args, tracer: &mut Tracer, e2e: &mut EndToEnd) {
    let entries = repeated_setup(SETUP_REPS, SETUP_BATCH, tracer, e2e, load);
    tracer.begin();
    run_passes(args.seconds, PASS_S, &mut e2e.work, || {
        let start = Instant::now();
        let mut ops = Vec::new();
        let mut queries = 0;
        for entry in &entries {
            let (q, ok) = one_row(tracer, entry, &mut ops);
            queries += q;
            e2e.attempted += 1;
            e2e.failed += u64::from(!ok);
        }
        e2e.per_pass = queries as f64;
        e2e.ops.push(ops);
        Span::since(start)
    });
    tracer.end(1);
}
