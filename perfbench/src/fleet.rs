//! The fleet phase of a traced run.
//!
//! `Fleet::build(FleetConfig::new(routers, seed))`, then bursts of
//! `Fleet::run_flows` routing the same flows across `workers` threads.
//! Every burst's statistics must equal the single-threaded
//! `run_flows_sequential` reference, and no flow may be dropped. It is
//! the only load where clues chain from hop to hop over thousands of
//! per-link engines, so it measures the continuation walk and hop
//! resolution. Its timings drift by a factor of two to five with the
//! memory load of the host's other tenants (the hops are dependent,
//! latency-bound lookups over ~74 MB of engines), so it runs inside the
//! traced run and reports per-layer figures only.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use clue_netsim::{Fleet, FleetConfig};

use crate::stats::median_u64;
use crate::trace::Tracer;
use crate::{alloc, line};

/// Sequential runs timed for `fleet.ns_per_hop`.
const PROBE_RUNS: usize = 8;
/// Trace ids of the fleet phase start here.
const FLEET_TRACE_BASE: u64 = 2 << 32;

/// Parameters of the fleet phase.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Target router count of `FleetConfig::new`.
    pub routers: usize,
    /// Flows per `run_flows` call.
    pub burst: usize,
    /// Routing worker threads.
    pub workers: usize,
    /// Length of the burst loop, seconds.
    pub seconds: f64,
}

/// What the fleet phase measured and checked.
pub struct FleetPhase {
    /// Flows routed.
    pub attempted: u64,
    /// Flows dropped, or routed in a burst that differed from the
    /// reference.
    pub failed: u64,
    /// `fleet.*` per-layer metrics.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines.
    pub report: Vec<String>,
}

/// Runs the fleet phase; its spans go to `tracer`.
pub fn run(spec: &FleetSpec, seed: u64, tracer: &mut Tracer) -> FleetPhase {
    // The counting allocator runs during the build (never during a
    // burst) to give the fleet's retained heap bytes.
    let before = alloc::live_bytes();
    alloc::set_counting(true);
    let t0 = Instant::now();
    let fleet = Fleet::build(FleetConfig::new(spec.routers, seed))
        .expect("the default fleet shape compiles");
    let t1 = Instant::now();
    alloc::set_counting(false);
    let retained = alloc::live_bytes() - before;
    let root = tracer.record(FLEET_TRACE_BASE, None, "fleet_setup", t0, t1);
    tracer.record(FLEET_TRACE_BASE, Some(root), "fleet.build", t0, t1);

    let reference = fleet.run_flows_sequential(spec.burst);
    let mut seq_ns = Vec::with_capacity(PROBE_RUNS);
    for _ in 0..PROBE_RUNS {
        let t = Instant::now();
        let s = fleet.run_flows_sequential(spec.burst);
        seq_ns.push(t.elapsed().as_nanos() as u64);
        debug_assert_eq!(s, reference);
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut wall_ns = Vec::new();
    let mut overhead_ns = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(spec.seconds);
    let mut id = FLEET_TRACE_BASE + 1;
    while Instant::now() < deadline || wall_ns.is_empty() {
        let b0 = Instant::now();
        let report = fleet.run_flows(spec.burst, spec.workers);
        let b1 = Instant::now();
        let wall = (b1 - b0).as_nanos() as u64;
        attempted += report.stats.flows;
        failed += if report.stats == reference {
            report.stats.dropped
        } else {
            report.stats.flows
        };
        wall_ns.push(wall);
        overhead_ns.push(wall.saturating_sub(report.elapsed_ns));
        let root = tracer.record(id, None, "fleet_burst", b0, b1);
        tracer.record(id, Some(root), "fleet.run_flows", b0, b1);
        id += 1;
    }

    let s = &reference;
    let crossings = s.link_hits() + s.link_problematic() + s.link_misses() + s.link_clueless();
    let bursts = wall_ns.len();
    let p50_ns = median_u64(&mut wall_ns);
    let hop0 = s.per_hop.first().map_or(0, |h| h.clue_refs);
    let mut m = BTreeMap::new();
    m.insert("fleet.build_s", (t1 - t0).as_secs_f64());
    m.insert("fleet.mem_bytes", retained as f64);
    m.insert(
        "fleet.flows_per_s",
        s.delivered as f64 / (p50_ns.max(1.0) / 1e9),
    );
    m.insert(
        "fleet.refs_per_flow",
        s.clue_refs as f64 / s.delivered.max(1) as f64,
    );
    m.insert("fleet.refs_saved_frac", s.savings());
    m.insert(
        "fleet.ns_per_hop",
        median_u64(&mut seq_ns) / s.hops.max(1) as f64,
    );
    m.insert("fleet.hops_per_flow", s.hops as f64 / s.flows.max(1) as f64);
    m.insert(
        "fleet.link_hit_frac",
        s.link_hits() as f64 / crossings.max(1) as f64,
    );
    m.insert(
        "fleet.hop0_refs_share",
        hop0 as f64 / s.clue_refs.max(1) as f64,
    );
    m.insert("fleet.call_overhead_us", median_u64(&mut overhead_ns) / 1e3);
    let report = vec![
        format!(
            "fleet phase: {} routers, {} directed links, {bursts} bursts of {} flows ({} workers)",
            fleet.router_count(),
            fleet.directed_link_count(),
            spec.burst,
            spec.workers
        ),
        line(
            "fleet_burst_p50_us",
            p50_ns / 1e3,
            "us",
            "one run_flows call",
        ),
    ];
    FleetPhase {
        attempted,
        failed,
        metrics: m,
        report,
    }
}
