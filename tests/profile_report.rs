//! A profiled prove reports every field of the `ivy-profile-v1` report
//! it measured: the grounding and SAT sizes (`universe`, `sat.vars`,
//! `sat.clauses`) come back from the global registry as max-gauges, not
//! as default zeros.
//!
//! One test in its own binary: the telemetry registry is process-global.

use ivy_core::Verifier;
use ivy_epr::QueryReport;
use ivy_protocols::leader;

#[test]
fn profiled_leader_prove_reports_sizes() {
    ivy_telemetry::reset();
    ivy_telemetry::set_enabled(true);
    let program = leader::program();
    let proved = Verifier::new(&program)
        .check(&leader::invariant())
        .expect("leader check runs")
        .is_inductive();
    let report = QueryReport::from_global_counters();
    ivy_telemetry::set_enabled(false);
    assert!(proved, "the bundled leader invariant is inductive");
    assert!(report.queries > 0, "{report:?}");
    assert!(report.universe > 0, "universe not reported: {report:?}");
    assert!(report.sat_vars > 0, "sat.vars not reported: {report:?}");
    assert!(
        report.sat_clauses > 0,
        "sat.clauses not reported: {report:?}"
    );
    let json = report.to_json();
    assert!(!json.contains("\"universe\": 0,"), "{json}");
    assert!(!json.contains("\"vars\": 0,"), "{json}");
    assert!(!json.contains("\"clauses\": 0,"), "{json}");
}
