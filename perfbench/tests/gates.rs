//! The benchmark's own tests: its correctness gates fire on a wrong
//! decision and on a corrupted header, every workload runs at reduced
//! size with no failure, and `BENCHMARK.json` lists exactly the metrics
//! the code reports.

use std::sync::Mutex;

use clue_perfbench::engine::{ChurnSpec, EngineSpec, LargeSpec, Neighbor, Table};
use clue_perfbench::fleet::FleetSpec;
use clue_perfbench::{run, Fault, Outcome, RunConfig, Workload, END_TO_END, PER_LAYER};

fn engine(table: Table, churn: Option<ChurnSpec>) -> EngineSpec {
    EngineSpec {
        table,
        neighbor: Neighbor::SameIsp,
        pool: 2048,
        burst: 256,
        workers: 2,
        setup_reps: 2,
        min_bursts: 8,
        churn,
        fleet: None,
        large: None,
    }
}

/// The traced phases at reduced size: an update phase, a fleet phase
/// and a large-table phase.
fn phases() -> EngineSpec {
    EngineSpec {
        fleet: Some(FleetSpec {
            routers: 64,
            burst: 128,
            workers: 2,
            seconds: 0.1,
        }),
        large: Some(LargeSpec {
            table: Table::Modern(20_000),
            pool: 4096,
            seconds: 0.1,
        }),
        ..engine(Table::Paper(2000), churn())
    }
}

fn churn() -> Option<ChurnSpec> {
    Some(ChurnSpec {
        updates: 200,
        publishes: 5,
    })
}

#[test]
fn the_update_phase_checks_the_final_snapshot() {
    let o = run_small(engine(Table::Paper(2000), churn()), Fault::None, true);
    assert_clean(&o, true);
    assert!(o
        .report
        .iter()
        .any(|l| l.contains("final snapshot matches a fresh compile: true")));
    assert!(o.metrics["writer.publishes"] >= 5.0);
    assert!(o.metrics["core.publish_us"] > 0.0);
}

/// Runs one at a time: the counting allocator and its switch are
/// process-wide, and the test harness runs tests on parallel threads.
static SERIAL: Mutex<()> = Mutex::new(());

fn run_small(spec: EngineSpec, fault: Fault, trace: bool) -> Outcome {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run(&RunConfig {
        spec,
        seed: 7,
        seconds: 0.2,
        trace,
        fault,
    })
}

fn assert_clean(o: &Outcome, trace: bool) {
    assert_eq!(o.failed, 0, "report: {:#?}", o.report);
    assert_eq!(o.exit_code(), 0);
    assert!(o.attempted > 0);
    let json = o.json(trace);
    assert!(json.starts_with("{\"correct\": true, "), "{json}");
    for d in if trace { PER_LAYER } else { END_TO_END } {
        assert!(
            json.contains(&format!("\"{}\": {{\"value\": ", d.name)),
            "{} missing",
            d.name
        );
    }
    if !trace {
        for d in END_TO_END {
            let v = o.metrics[d.name];
            assert!(v.is_finite() && v > 0.0, "{} = {v}", d.name);
        }
    }
}

#[test]
fn a_wrong_decision_fails_the_run() {
    let o = run_small(
        engine(Table::Paper(2000), None),
        Fault::WrongDecision,
        false,
    );
    assert_eq!(o.failed, 1);
    assert!(o.error_frac() > 0.0);
    assert_ne!(o.exit_code(), 0);
    assert!(o.json(false).starts_with("{\"correct\": false, "));
}

#[test]
fn a_corrupted_header_fails_the_run() {
    let o = run_small(
        engine(Table::Paper(2000), None),
        Fault::CorruptHeader,
        false,
    );
    assert!(o.failed >= 1);
    assert!(o.error_frac() > 0.0);
    assert_ne!(o.exit_code(), 0);
}

#[test]
fn a_wrong_decision_in_the_update_phase_fails_the_run() {
    let o = run_small(
        engine(Table::Paper(2000), churn()),
        Fault::WrongDecision,
        true,
    );
    // One in the untraced phase, one in the update phase.
    assert_eq!(o.failed, 2);
    assert_ne!(o.exit_code(), 0);
}

#[test]
fn smoke_paper() {
    assert_clean(
        &run_small(engine(Table::Paper(2000), None), Fault::None, false),
        false,
    );
}

#[test]
fn smoke_route_servers() {
    let spec = EngineSpec {
        neighbor: Neighbor::RouteServers,
        ..engine(Table::Paper(2000), None)
    };
    assert_clean(&run_small(spec, Fault::None, false), false);
}

#[test]
fn traced_runs_report_every_layer() {
    let o = run_small(phases(), Fault::None, true);
    assert_clean(&o, true);
    let tr = o.tracer.as_ref().expect("traced runs keep their spans");
    assert!(!tr.spans().is_empty());
    for name in [
        "writer.publishes",
        "fleet.flows_per_s",
        "fleet.refs_saved_frac",
        "fleet.mem_bytes",
        "dfz.fwd_pps",
        "dfz.cpu_ns_per_pkt",
        "dfz.core.compile_s",
        "dfz.mem_refs_per_packet",
    ] {
        assert!(o.metrics[name] > 0.0, "{name}");
    }
}

#[test]
fn counts_repeat_exactly_for_one_seed() {
    let deterministic = [
        "mem_bytes",
        "mem_refs_per_packet",
        "refs_saved_frac",
        "core.mem_bytes_per_prefix",
        "core.probe_refs_per_pkt",
        "core.walk_refs_per_pkt",
        "core.final_frac",
        "core.continued_frac",
        "core.arena_bytes",
        "core.bucket_bytes",
        "core.dict_bytes",
    ];
    let a = run_small(engine(Table::Paper(2000), None), Fault::None, true);
    let b = run_small(engine(Table::Paper(2000), None), Fault::None, true);
    for name in deterministic {
        assert_eq!(a.metrics[name], b.metrics[name], "{name}");
    }
    let fleet_counts = [
        "fleet.mem_bytes",
        "fleet.refs_per_flow",
        "fleet.refs_saved_frac",
        "fleet.hops_per_flow",
        "fleet.link_hit_frac",
        "dfz.mem_bytes",
        "dfz.mem_refs_per_packet",
        "dfz.core.bucket_bytes",
    ];
    let (a, b) = (
        run_small(phases(), Fault::None, true),
        run_small(phases(), Fault::None, true),
    );
    for name in fleet_counts {
        assert_eq!(a.metrics[name], b.metrics[name], "{name}");
    }
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let compact: String = text.split_whitespace().collect();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", d.name, d.unit);
        assert!(
            compact.contains(&entry),
            "{entry} missing from BENCHMARK.json"
        );
    }
    let names = compact.matches("\"name\":").count();
    assert_eq!(
        names,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
    for w in Workload::ALL {
        assert!(
            compact.contains(&format!("\"name\":\"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

#[test]
fn the_binary_rejects_bad_arguments_without_a_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
