//! Wire-to-wire forwarding benchmark for the clue-routing workspace.
//!
//! One process drives the system through its public functions. Per
//! burst of packets: `Ipv4Packet::parse` on each header, `serve_lookups`
//! over an `EpochCell<CompressedEngine>`, the clue rewrite, and
//! `Ipv4Packet::to_bytes`. The traced runs add an update phase, a fleet
//! phase (`Fleet::run_flows`) and a 1M-prefix phase. Load is a closed
//! loop with one generator. See `README.md` in this directory for the
//! workloads, the metrics and what each per-layer metric should move.

pub mod alloc;
pub mod cpu;
pub mod engine;
pub mod fleet;
pub mod host;
pub mod stats;
pub mod trace;
pub mod wire;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use engine::{ChurnSpec, EngineSpec, LargeSpec, Neighbor, Table};
use trace::Tracer;

/// A metric's name and unit, as printed and as listed in
/// `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics every untraced run reports, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("cpu_ns_per_pkt", "ns"),
    m("setup_s", "s"),
    m("mem_bytes", "B"),
    m("mem_refs_per_packet", "refs/pkt"),
    m("refs_saved_frac", "frac"),
];

/// The per-layer metrics every traced run reports. A metric of a phase
/// the workload's traced run does not have reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("wire.decode_ns_per_pkt", "ns"),
    m("wire.encode_ns_per_pkt", "ns"),
    m("wire.allocs_per_pkt", "count"),
    m("wire.share_of_burst", "frac"),
    m("runtime.serve_ns_per_pkt", "ns"),
    m("runtime.call_overhead_us", "us"),
    m("runtime.busy_frac", "frac"),
    m("runtime.backpressure_per_job", "count"),
    m("runtime.allocs_per_pkt", "count"),
    m("runtime.scaling_x", "x"),
    m("runtime.max_staleness", "epochs"),
    m("core.lookup_ns_per_pkt", "ns"),
    m("core.cram_l1_miss", "refs/pkt"),
    m("core.cram_l2_miss", "refs/pkt"),
    m("core.cram_l3_miss", "refs/pkt"),
    m("core.probe_refs_per_pkt", "refs/pkt"),
    m("core.walk_refs_per_pkt", "refs/pkt"),
    m("core.final_frac", "frac"),
    m("core.continued_frac", "frac"),
    m("core.miss_frac", "frac"),
    m("core.clueless_frac", "frac"),
    m("core.precompute_s", "s"),
    m("core.compile_s", "s"),
    m("core.arena_bytes", "B"),
    m("core.bucket_bytes", "B"),
    m("core.dict_bytes", "B"),
    m("core.mem_bytes_per_prefix", "B"),
    m("core.apply_us_per_update", "us"),
    m("core.publish_us", "us"),
    m("writer.update_p50_ms", "ms"),
    m("writer.update_p90_ms", "ms"),
    m("writer.publishes", "count"),
    m("fleet.build_s", "s"),
    m("fleet.mem_bytes", "B"),
    m("fleet.flows_per_s", "1/s"),
    m("fleet.refs_per_flow", "refs/pkt"),
    m("fleet.refs_saved_frac", "frac"),
    m("fleet.ns_per_hop", "ns"),
    m("fleet.hops_per_flow", "hops"),
    m("fleet.link_hit_frac", "frac"),
    m("fleet.hop0_refs_share", "frac"),
    m("fleet.call_overhead_us", "us"),
    m("trace.untraced_pps", "1/s"),
    m("trace.traced_pps", "1/s"),
    m("trace.overhead_frac", "frac"),
    m("span.burst.self_us", "us"),
    m("span.burst.wire.decode.self_us", "us"),
    m("span.burst.runtime.serve.self_us", "us"),
    m("span.burst.wire.encode.self_us", "us"),
    m("span.setup.self_us", "us"),
    m("span.setup.core.precompute.self_us", "us"),
    m("span.setup.core.compile.self_us", "us"),
    m("span.update.self_us", "us"),
    m("span.update.core.apply.self_us", "us"),
    m("span.update.core.compile.self_us", "us"),
    m("span.update.core.publish.self_us", "us"),
    m("span.fleet_setup.fleet.build.self_us", "us"),
    m("span.fleet_burst.fleet.run_flows.self_us", "us"),
    m("dfz.fwd_pps", "1/s"),
    m("dfz.batch_p50_us", "us"),
    m("dfz.cpu_ns_per_pkt", "ns"),
    m("dfz.setup_s", "s"),
    m("dfz.mem_bytes", "B"),
    m("dfz.mem_refs_per_packet", "refs/pkt"),
    m("dfz.refs_saved_frac", "frac"),
    m("dfz.wire.share_of_burst", "frac"),
    m("dfz.runtime.serve_ns_per_pkt", "ns"),
    m("dfz.runtime.call_overhead_us", "us"),
    m("dfz.runtime.scaling_x", "x"),
    m("dfz.core.lookup_ns_per_pkt", "ns"),
    m("dfz.core.cram_l1_miss", "refs/pkt"),
    m("dfz.core.cram_l2_miss", "refs/pkt"),
    m("dfz.core.cram_l3_miss", "refs/pkt"),
    m("dfz.core.precompute_s", "s"),
    m("dfz.core.compile_s", "s"),
    m("dfz.core.arena_bytes", "B"),
    m("dfz.core.bucket_bytes", "B"),
    m("dfz.core.dict_bytes", "B"),
    m("dfz.core.mem_bytes_per_prefix", "B"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 40k-prefix 1999-shape sender and a same-ISP receiver; its traced
    /// run ends with an update phase and a fleet phase.
    Paper40k,
    /// The same sender and a route-server receiver; its traced run ends
    /// with the pipeline on a 1M-prefix modern-DFZ table.
    Rs40k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Paper40k, Workload::Rs40k];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper40k => "paper-40k",
            Workload::Rs40k => "rs-40k",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The full-size parameters the benchmark runs, with `workers`
    /// serving threads.
    pub fn spec(self, workers: usize) -> EngineSpec {
        // Bursts of 8192: with 1024-packet bursts the runtime's per-call
        // thread start-up dominates, and its cost moves several-fold
        // with the host's scheduling load.
        let paper = EngineSpec {
            table: Table::Paper(40_000),
            neighbor: Neighbor::SameIsp,
            pool: 1 << 16,
            burst: 8192,
            workers,
            setup_reps: 9,
            min_bursts: 1000,
            churn: Some(ChurnSpec {
                updates: 1000,
                publishes: 30,
            }),
            fleet: Some(fleet::FleetSpec {
                routers: 1024,
                burst: 1024,
                workers,
                seconds: 3.0,
            }),
            large: None,
        };
        match self {
            Workload::Paper40k => paper,
            Workload::Rs40k => EngineSpec {
                neighbor: Neighbor::RouteServers,
                churn: None,
                fleet: None,
                large: Some(LargeSpec {
                    table: Table::Modern(1_000_000),
                    pool: 1 << 17,
                    seconds: 6.0,
                }),
                ..paper
            },
        }
    }
}

/// A deliberate fault, for checking that the benchmark's gates fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault.
    #[default]
    None,
    /// One served decision is replaced by a wrong one.
    WrongDecision,
    /// One input header has a byte flipped after its checksum.
    CorruptHeader,
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// What to run.
    pub spec: EngineSpec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured region, seconds.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Injected fault (tests only).
    pub fault: Fault,
}

/// What a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (packets, flows, plus end-of-run checks).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Every reported metric value by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (metrics the JSON line does not
    /// carry, sample counts).
    pub report: Vec<String>,
    /// Serving threads used.
    pub workers: usize,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The process exit code: non-zero when any check failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0)
    }

    /// The result line: `correct`, `attempted`, `failed` and the end-to-
    /// end (`trace == false`) or per-layer metrics, each with its unit.
    pub fn json(&self, trace: bool) -> String {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs one configured benchmark.
pub fn run(cfg: &RunConfig) -> Outcome {
    engine::run(&cfg.spec, cfg)
}

/// Adds the traced run's span self times (median per span, in
/// microseconds) to `metrics` under `span.<root>[.<name>].self_us`.
pub fn span_metrics(tracer: &Tracer, metrics: &mut BTreeMap<&'static str, f64>) {
    let names: BTreeMap<String, &'static str> = PER_LAYER
        .iter()
        .filter_map(|d| {
            let key = d.name.strip_prefix("span.")?.strip_suffix(".self_us")?;
            Some((key.to_owned(), d.name))
        })
        .collect();
    for (key, st) in tracer.self_times() {
        if let Some(&name) = names.get(&key) {
            metrics.insert(name, st.median_ns / 1e3);
        }
    }
}

/// Copies each `<prefix><name>` metric of [`PER_LAYER`] from `name` in
/// `from`.
pub fn prefixed_metrics(
    prefix: &str,
    from: &BTreeMap<&'static str, f64>,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    for d in PER_LAYER {
        if let Some(v) = d.name.strip_prefix(prefix).and_then(|n| from.get(n)) {
            metrics.insert(d.name, *v);
        }
    }
}

/// The report line of one metric.
pub fn line(name: &str, value: f64, unit: &str, note: &str) -> String {
    if note.is_empty() {
        format!("  {name:<28} {value:>16.4} {unit}")
    } else {
        format!("  {name:<28} {value:>16.4} {unit}  ({note})")
    }
}
