//! The engine workloads: `paper-40k` and `rs-40k`.
//!
//! Per burst, one generator thread decodes the header bytes
//! (`Ipv4Packet::parse`), serves the lookups across the runtime's
//! workers (`serve_lookups` over an `EpochCell<CompressedEngine>`),
//! rewrites each packet's clue to its decision and re-encodes it
//! (`Ipv4Packet::to_bytes`). The burst is then checked against the
//! scalar engine's reference decisions, computed in set-up, and the
//! output bytes against the benchmark's own encoder — all outside the
//! burst's timing. The traced run of `paper-40k` ends with an update
//! phase: a writer thread applies route updates to the `ClueEngine`,
//! recompiles and publishes into the cell being served. The traced run
//! of `rs-40k` ends with the same pipeline on a 1M-prefix table.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use clue_core::{
    ClueEngine, CompiledBackend, CompressedConfig, CompressedEngine, Decision, EngineConfig,
    EngineStats, EpochCell, Method, DEFAULT_INTERLEAVE,
};
use clue_lookup::Family;
use clue_netsim::{serve_lookups, RuntimeConfig, ServeReport};
use clue_tablegen::{
    derive_neighbor, end_state, generate, generate_churn, synthesize_ipv4, synthesize_ipv4_modern,
    ChurnConfig, NeighborConfig, RouteUpdate, TrafficConfig, UpdateKind,
};
use clue_trie::{BinaryTrie, Cost, Ip4, Prefix};
use clue_wire::Ipv4Packet;

use crate::fleet::{self, FleetSpec};
use crate::stats::{median_f64, median_u64, quantile, Bursts};
use crate::trace::Tracer;
use crate::wire::{self, Header};
use crate::{alloc, cpu, line, prefixed_metrics, span_metrics, Fault, Outcome, RunConfig};

type Engine = CompressedEngine<Ip4>;

/// Input TTL of every generated header.
const TTL: u8 = 64;
/// Bursts timed for each single-threaded or scaling probe of the
/// traced run.
const PROBE_BURSTS: usize = 32;
/// Bursts the update phase serves at least.
const MIN_UPDATE_BURSTS: usize = 8;
/// Trace ids of updates start here (bursts and set-ups count from 0).
const UPDATE_TRACE_BASE: u64 = 1 << 32;

/// Which table generator shapes the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// `synthesize_ipv4`: the 1999 (Mae-East era) length histogram.
    Paper(usize),
    /// `synthesize_ipv4_modern`: the modern default-free-zone shape.
    Modern(usize),
}

/// How the receiver's table is derived from the sender's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Neighbor {
    /// `NeighborConfig::same_isp`: nearly identical tables.
    SameIsp,
    /// `NeighborConfig::route_servers`: more refinements and unrelated
    /// prefixes, so more clues are problematic or missing.
    RouteServers,
}

/// The large-table phase of a traced run: the same pipeline on another
/// table, reported under `dfz.*`.
#[derive(Debug, Clone, Copy)]
pub struct LargeSpec {
    /// Sender table size and shape.
    pub table: Table,
    /// Distinct headers generated.
    pub pool: usize,
    /// Length of the phase's burst loop, seconds.
    pub seconds: f64,
}

/// The route-update stream of a traced run's update phase.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    /// Updates generated (more than the phase applies).
    pub updates: usize,
    /// Snapshots the writer publishes before the phase ends.
    pub publishes: usize,
}

/// Parameters of an engine workload.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// Sender table size and shape.
    pub table: Table,
    /// The receiver's relation to the sender.
    pub neighbor: Neighbor,
    /// Distinct headers generated; bursts cycle through them.
    pub pool: usize,
    /// Packets per burst (one `serve_lookups` call).
    pub burst: usize,
    /// Serving worker threads.
    pub workers: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Bursts a run waits for before it ends.
    pub min_bursts: usize,
    /// The traced run's update phase, if any.
    pub churn: Option<ChurnSpec>,
    /// The traced run's fleet phase, if any.
    pub fleet: Option<FleetSpec>,
    /// The traced run's large-table phase, if any.
    pub large: Option<LargeSpec>,
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(Family::Regular, Method::Advance)
}

/// SplitMix64: the source addresses and identification fields.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated inputs: the two tables and the header pool.
struct Inputs {
    sender: Vec<Prefix<Ip4>>,
    receiver: Vec<Prefix<Ip4>>,
    /// Input header fields, one per pool slot.
    headers: Vec<Header>,
    /// The encoded pool, back to back.
    bytes: Vec<u8>,
    /// `bytes[offsets[i]..offsets[i + 1]]` is header `i`.
    offsets: Vec<usize>,
    /// The churn stream, if any.
    batches: Vec<Vec<RouteUpdate<Ip4>>>,
}

impl Inputs {
    fn generate(spec: &EngineSpec, seed: u64, fault: Fault) -> Self {
        let sender = match spec.table {
            Table::Paper(n) => synthesize_ipv4(n, seed),
            Table::Modern(n) => synthesize_ipv4_modern(n, seed),
        };
        let neighbor = match spec.neighbor {
            Neighbor::SameIsp => NeighborConfig::same_isp(seed.wrapping_add(1)),
            Neighbor::RouteServers => NeighborConfig::route_servers(seed.wrapping_add(1)),
        };
        let receiver = derive_neighbor(&sender, &neighbor);
        let traffic = TrafficConfig {
            count: spec.pool,
            ..TrafficConfig::paper(seed.wrapping_add(2))
        };
        let dests = generate(&sender, &receiver, &traffic);
        assert!(
            !dests.is_empty(),
            "traffic generation produced no destinations"
        );
        // The honest clue: the sender's BMP of each destination.
        let t1: BinaryTrie<Ip4, ()> = sender.iter().map(|p| (*p, ())).collect();
        let headers: Vec<Header> = dests
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let r = mix(seed.wrapping_add(4), i as u64);
                Header {
                    src: r as u32,
                    dst: d.0,
                    ident: (r >> 32) as u16,
                    ttl: TTL,
                    clue_len: t1
                        .lookup(d)
                        .map(|id| t1.prefix(id).len())
                        .filter(|&l| l > 0),
                }
            })
            .collect();
        let mut bytes = Vec::with_capacity(headers.len() * 24);
        let mut offsets = Vec::with_capacity(headers.len() + 1);
        offsets.push(0);
        for h in &headers {
            wire::encode(h, &mut bytes);
            offsets.push(bytes.len());
        }
        if fault == Fault::CorruptHeader {
            bytes[19] ^= 0x01; // last destination byte, after the checksum
        }
        let batches = match spec.churn {
            // BGP-feed mix and locality, but small batches: at 40k
            // prefixes one update costs about a quarter of a recompile,
            // so small batches keep the compile visible in the latency.
            Some(c) => generate_churn(
                &receiver,
                &ChurnConfig {
                    mean_batch: 1,
                    ..ChurnConfig::bgp(c.updates, seed.wrapping_add(3))
                },
            ),
            None => Vec::new(),
        };
        Inputs {
            sender,
            receiver,
            headers,
            bytes,
            offsets,
            batches,
        }
    }

    fn header_bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Reference decisions from the scalar engine, computed once in set-up.
struct Reference {
    bmp: Vec<Option<Prefix<Ip4>>>,
    cost: Vec<Cost>,
    /// Clue-less lookup cost of the same destination (the baseline of
    /// `refs_saved_frac`).
    baseline: Vec<u32>,
    /// Churn only: per pool slot, `(epoch, bmp)` from the epoch on
    /// which the BMP changes. Empty when it never changes.
    history: Vec<Vec<(u64, Option<Prefix<Ip4>>)>>,
}

impl Reference {
    fn compute(scalar: &mut ClueEngine<Ip4>, inputs: &Inputs) -> Self {
        let n = inputs.headers.len();
        let mut bmp = Vec::with_capacity(n);
        let mut cost = Vec::with_capacity(n);
        let mut baseline = Vec::with_capacity(n);
        for h in &inputs.headers {
            let dest = Ip4(h.dst);
            let clue = h.clue_len.map(|l| Prefix::of_address(dest, l));
            let mut c = Cost::new();
            bmp.push(scalar.lookup(dest, clue, None, &mut c));
            cost.push(c);
            let mut base = Cost::new();
            scalar.common_lookup(dest, &mut base);
            baseline.push(base.total() as u32);
        }
        let history = if inputs.batches.is_empty() {
            Vec::new()
        } else {
            bmp_history(inputs, &bmp)
        };
        Reference {
            bmp,
            cost,
            baseline,
            history,
        }
    }

    /// Whether `got` is the reference BMP of slot `i` on some epoch in
    /// `[e0, e1]`.
    fn bmp_ok(&self, i: usize, got: Option<Prefix<Ip4>>, e0: u64, e1: u64) -> bool {
        let mut current = self.bmp[i];
        let Some(changes) = self.history.get(i) else {
            return got == current;
        };
        for &(e, b) in changes {
            if e <= e0 {
                current = b;
            } else if e <= e1 && b == got {
                return true;
            } else if e > e1 {
                break;
            }
        }
        current == got
    }
}

/// Replays the churn stream on the receiver table and records, for each
/// pool destination, the epochs on which its BMP changes. Batch `b` is
/// published as epoch `b + 1`.
fn bmp_history(
    inputs: &Inputs,
    initial: &[Option<Prefix<Ip4>>],
) -> Vec<Vec<(u64, Option<Prefix<Ip4>>)>> {
    let mut table: BinaryTrie<Ip4, ()> = inputs.receiver.iter().map(|p| (*p, ())).collect();
    let mut order: Vec<usize> = (0..inputs.headers.len()).collect();
    order.sort_unstable_by_key(|&i| inputs.headers[i].dst);
    let sorted: Vec<u32> = order.iter().map(|&i| inputs.headers[i].dst).collect();
    let mut current = initial.to_vec();
    let mut history = vec![Vec::new(); initial.len()];
    let mut touched = Vec::new();
    for (b, batch) in inputs.batches.iter().enumerate() {
        touched.clear();
        for u in batch {
            match u.kind {
                UpdateKind::Announce => {
                    table.insert(u.prefix, ());
                }
                UpdateKind::Withdraw => {
                    table.remove(&u.prefix);
                }
                UpdateKind::Modify => continue,
            }
            let lo = sorted.partition_point(|&d| d < u.prefix.first_address().0);
            let hi = sorted.partition_point(|&d| d <= u.prefix.last_address().0);
            touched.extend_from_slice(&order[lo..hi]);
        }
        touched.sort_unstable();
        touched.dedup();
        for &i in &touched {
            let now = table
                .lookup(Ip4(inputs.headers[i].dst))
                .map(|r| table.prefix(r));
            if now != current[i] {
                current[i] = now;
                history[i].push((b as u64 + 1, now));
            }
        }
    }
    history
}

/// The per-burst buffers of the pipeline, reused across bursts.
struct Pipeline {
    slots: Vec<usize>,
    dests: Vec<Ip4>,
    clues: Vec<Option<Prefix<Ip4>>>,
    packets: Vec<Option<Ipv4Packet>>,
    decisions: Vec<Decision<Ip4>>,
    out: Vec<Vec<u8>>,
    expected: Vec<u8>,
}

/// Timestamps and runtime figures of one burst.
struct Burst {
    t0: Instant,
    /// Process CPU time over the burst, all threads.
    cpu_ns: u64,
    t_decoded: Instant,
    t_served: Instant,
    t_end: Instant,
    report: ServeReport,
    /// Allocations counted during decode, serve and encode.
    allocs: [u64; 3],
    /// Epochs of the cell before and after the serve call.
    epochs: (u64, u64),
}

impl Pipeline {
    fn new(burst: usize) -> Self {
        Pipeline {
            slots: vec![0; burst],
            dests: vec![Ip4(0); burst],
            clues: vec![None; burst],
            packets: vec![None; burst],
            decisions: Vec::with_capacity(burst),
            out: vec![Vec::new(); burst],
            expected: Vec::with_capacity(32),
        }
    }

    /// Decode → serve → rewrite + encode for the pool slots starting at
    /// `first` (wrapping).
    fn run(
        &mut self,
        inputs: &Inputs,
        cell: &EpochCell<Engine>,
        config: &RuntimeConfig,
        first: usize,
    ) -> Burst {
        let pool = inputs.headers.len();
        for (j, s) in self.slots.iter_mut().enumerate() {
            *s = (first + j) % pool;
        }
        let a0 = alloc::allocs();
        let c0 = cpu::process_ns();
        let t0 = Instant::now();
        for j in 0..self.slots.len() {
            let parsed = Ipv4Packet::parse(inputs.header_bytes(self.slots[j])).ok();
            let (dest, clue) = match &parsed {
                Some(p) => (p.dst, p.clue.decode(p.dst)),
                None => (Ip4(0), None),
            };
            self.dests[j] = dest;
            self.clues[j] = clue;
            self.packets[j] = parsed;
        }
        let t_decoded = Instant::now();
        let a1 = alloc::allocs();
        let e0 = cell.current_epoch();
        let report = serve_lookups(
            cell,
            &self.dests,
            &self.clues,
            &mut self.decisions,
            config,
            None,
        );
        let e1 = cell.current_epoch();
        let t_served = Instant::now();
        let a2 = alloc::allocs();
        for ((p, d), out) in self
            .packets
            .iter_mut()
            .zip(&self.decisions)
            .zip(&mut self.out)
        {
            if let Some(p) = p {
                p.ttl = p.ttl.wrapping_sub(1);
                if let Some(bmp) = d.bmp {
                    p.clue = clue_core::ClueHeader::with_clue(&bmp);
                }
                *out = p.to_bytes();
            }
        }
        let t_end = Instant::now();
        let cpu_ns = cpu::process_ns() - c0;
        let a3 = alloc::allocs();
        Burst {
            t0,
            cpu_ns,
            t_decoded,
            t_served,
            t_end,
            report,
            allocs: [a1 - a0, a2 - a1, a3 - a2],
            epochs: (e0, e1),
        }
    }

    /// Checks every packet of the last burst and returns the failures.
    /// Without a writer each decision must equal the reference exactly;
    /// beside one (`churn`), its BMP must be one valid on an epoch the
    /// burst was served across. Adds the burst's costs and classes to
    /// `tally` when given.
    fn check(
        &mut self,
        inputs: &Inputs,
        reference: &Reference,
        b: &Burst,
        churn: bool,
        mut tally: Option<&mut Tally>,
    ) -> u64 {
        let mut failed = 0;
        for j in 0..self.slots.len() {
            let i = self.slots[j];
            if self.packets[j].is_none() {
                failed += 1;
                continue;
            }
            let d = &self.decisions[j];
            if let Some(t) = tally.as_deref_mut() {
                t.packets += 1;
                t.refs += d.cost.total();
                t.probe_refs += d.cost.hash_probes;
                t.walk_refs += d.cost.trie_nodes;
                t.baseline += u64::from(reference.baseline[i]);
            }
            // The cell swaps the snapshot before it bumps the epoch
            // counter, so a burst may see one epoch past the last read.
            let decision_ok = if churn {
                reference.bmp_ok(i, d.bmp, b.epochs.0, b.epochs.1 + 1)
            } else {
                d.bmp == reference.bmp[i] && d.cost == reference.cost[i]
            };
            let h = inputs.headers[i];
            let want = Header {
                ttl: h.ttl - 1,
                clue_len: d
                    .bmp
                    .map_or(h.clue_len, |p| Some(p.len()).filter(|&l| l > 0)),
                ..h
            };
            self.expected.clear();
            wire::encode(&want, &mut self.expected);
            if !decision_ok || self.out[j] != self.expected {
                failed += 1;
            }
        }
        if let Some(t) = tally {
            t.stats.merge(&b.report.stats);
        }
        failed
    }
}

/// Sums over the first pass through the pool, in which every pool slot
/// is served once: for a given seed these repeat exactly on the static
/// workloads.
#[derive(Debug, Default)]
struct Tally {
    packets: u64,
    refs: u64,
    probe_refs: u64,
    walk_refs: u64,
    baseline: u64,
    stats: EngineStats,
}

/// Per-burst samples of one measured phase.
#[derive(Debug, Default)]
struct Samples {
    bursts: Bursts,
    decode_ns: Vec<u64>,
    serve_ns: Vec<u64>,
    encode_ns: Vec<u64>,
    overhead_ns: Vec<u64>,
    busy_ns: u64,
    worker_ns: u64,
    jobs: u64,
    backpressure: u64,
    max_staleness: u64,
    allocs: [u64; 3],
}

impl Samples {
    fn push(&mut self, b: &Burst, workers: usize) {
        let serve = (b.t_served - b.t_decoded).as_nanos() as u64;
        self.bursts.push(
            b.report.packets,
            (b.t_end - b.t0).as_nanos() as u64,
            b.cpu_ns,
        );
        self.decode_ns.push((b.t_decoded - b.t0).as_nanos() as u64);
        self.serve_ns.push(serve);
        self.encode_ns
            .push((b.t_end - b.t_served).as_nanos() as u64);
        self.overhead_ns
            .push(serve.saturating_sub(b.report.elapsed_ns));
        self.busy_ns += b.report.cores.iter().map(|c| c.busy_ns).sum::<u64>();
        self.worker_ns += b.report.elapsed_ns * workers as u64;
        self.jobs += b.report.cores.iter().map(|c| c.batches).sum::<u64>();
        self.backpressure += b.report.cores.iter().map(|c| c.backpressure).sum::<u64>();
        self.max_staleness = self.max_staleness.max(
            b.report
                .cores
                .iter()
                .map(|c| c.max_staleness)
                .max()
                .unwrap_or(0),
        );
        for (acc, a) in self.allocs.iter_mut().zip(b.allocs) {
            *acc += a;
        }
    }

    fn packets(&self) -> u64 {
        self.bursts.packets.iter().sum()
    }

    /// Median over bursts of `ns / packets`.
    fn per_packet(&self, ns: &[u64]) -> f64 {
        let mut v: Vec<f64> = ns
            .iter()
            .zip(&self.bursts.packets)
            .map(|(&t, &n)| t as f64 / n.max(1) as f64)
            .collect();
        median_f64(&mut v)
    }
}

/// Times of one set-up repetition, seconds.
struct SetupTimes {
    precompute: f64,
    compile: f64,
    total: f64,
}

/// `ClueEngine::precomputed` + `CompiledBackend::compile` +
/// `EpochCell::new`, timed.
fn set_up(
    inputs: &Inputs,
    tracer: Option<&mut Tracer>,
    rep: u64,
) -> (ClueEngine<Ip4>, EpochCell<Engine>, SetupTimes) {
    let t0 = Instant::now();
    let scalar = ClueEngine::precomputed(&inputs.sender, &inputs.receiver, engine_config());
    let t1 = Instant::now();
    let engine = <Engine as CompiledBackend<Ip4>>::compile(&scalar, &CompressedConfig)
        .expect("an Advance/Regular engine always compiles");
    let t2 = Instant::now();
    let cell = EpochCell::new(engine);
    let t3 = Instant::now();
    if let Some(tr) = tracer {
        let root = tr.record(rep, None, "setup", t0, t3);
        tr.record(rep, Some(root), "core.precompute", t0, t1);
        tr.record(rep, Some(root), "core.compile", t1, t2);
    }
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let times = SetupTimes {
        precompute: s(t0, t1),
        compile: s(t1, t2),
        total: s(t0, t3),
    };
    (scalar, cell, times)
}

/// What the churn writer measured.
#[derive(Debug, Default)]
struct WriterLog {
    applied: usize,
    latency_ns: Vec<u64>,
    apply_ns_per_update: Vec<u64>,
    publish_ns: Vec<u64>,
}

fn apply_update(engine: &mut ClueEngine<Ip4>, u: &RouteUpdate<Ip4>) {
    match u.kind {
        UpdateKind::Announce => engine.add_receiver_route(u.prefix),
        UpdateKind::Withdraw => {
            engine.remove_receiver_route(&u.prefix);
        }
        UpdateKind::Modify => {
            engine.remove_receiver_route(&u.prefix);
            engine.add_receiver_route(u.prefix);
        }
    }
}

/// The churn writer: apply a batch, recompile, publish; until `stop` or
/// the end of the stream. Each update is recorded as a span tree.
fn write_updates(
    live: &mut ClueEngine<Ip4>,
    cell: &EpochCell<Engine>,
    batches: &[Vec<RouteUpdate<Ip4>>],
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> WriterLog {
    alloc::exclude_this_thread();
    let mut log = WriterLog::default();
    for (b, batch) in batches.iter().enumerate() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let t0 = Instant::now();
        for u in batch {
            apply_update(live, u);
        }
        let t1 = Instant::now();
        let engine = <Engine as CompiledBackend<Ip4>>::compile(live, &CompressedConfig)
            .expect("an Advance/Regular engine always compiles");
        let t2 = Instant::now();
        cell.publish(engine);
        let t3 = Instant::now();
        log.applied = b + 1;
        log.latency_ns.push((t3 - t0).as_nanos() as u64);
        log.apply_ns_per_update
            .push((t1 - t0).as_nanos() as u64 / batch.len().max(1) as u64);
        log.publish_ns.push((t3 - t2).as_nanos() as u64);
        let id = UPDATE_TRACE_BASE + b as u64;
        let root = tracer.record(id, None, "update", t0, t3);
        tracer.record(id, Some(root), "core.apply", t0, t1);
        tracer.record(id, Some(root), "core.compile", t1, t2);
        tracer.record(id, Some(root), "core.publish", t2, t3);
    }
    log
}

/// What the update phase of a traced run measured and checked.
struct UpdatePhase {
    log: WriterLog,
    attempted: u64,
    failed: u64,
    max_staleness: u64,
    final_ok: bool,
    tracer: Tracer,
}

/// The update phase of a traced run: the generator serves at one worker
/// while a writer thread applies the churn stream
/// to the scalar engine, recompiles and publishes into the served cell,
/// until `churn.publishes` snapshots are out. Every burst is checked
/// against the BMPs valid over the epochs it was served across; the
/// final snapshot against a fresh compile of the end-state table.
#[allow(clippy::too_many_arguments)]
fn update_phase(
    inputs: &Inputs,
    reference: &Reference,
    cell: &EpochCell<Engine>,
    live: &mut ClueEngine<Ip4>,
    pipe: &mut Pipeline,
    churn: ChurnSpec,
    fault: Fault,
    origin: Instant,
) -> UpdatePhase {
    let config = RuntimeConfig::with_workers(1);
    let stop = AtomicBool::new(false);
    let mut tracer = Tracer::new(origin);
    let (mut attempted, mut failed, mut max_staleness) = (0u64, 0u64, 0u64);
    let log = std::thread::scope(|scope| {
        let (batches, stop_ref, tr, live) = (&inputs.batches, &stop, &mut tracer, &mut *live);
        let writer = scope.spawn(move || write_updates(live, cell, batches, stop_ref, tr));
        let mut bursts = 0usize;
        while bursts < MIN_UPDATE_BURSTS
            || (cell.current_epoch() < churn.publishes as u64 && !writer.is_finished())
        {
            let first = (bursts * pipe.slots.len()) % inputs.headers.len();
            let b = pipe.run(inputs, cell, &config, first);
            if fault == Fault::WrongDecision && bursts == 3 {
                pipe.decisions[0].bmp = None;
            }
            failed += pipe.check(inputs, reference, &b, true, None);
            attempted += pipe.slots.len() as u64;
            max_staleness = b
                .report
                .cores
                .iter()
                .map(|c| c.max_staleness)
                .fold(max_staleness, u64::max);
            bursts += 1;
        }
        stop.store(true, Ordering::Release);
        writer.join().expect("churn writer panicked")
    });
    let final_ok = final_snapshot_matches(inputs, live, cell, log.applied);
    UpdatePhase {
        log,
        attempted,
        failed,
        max_staleness,
        final_ok,
        tracer,
    }
}

/// The churn end check: the live engine freezes bit-identically to a
/// fresh build of the end-state table, and the last published snapshot
/// answers the pool exactly like a fresh compile of it.
fn final_snapshot_matches(
    inputs: &Inputs,
    live: &ClueEngine<Ip4>,
    cell: &EpochCell<Engine>,
    applied: usize,
) -> bool {
    let end = end_state(&inputs.receiver, &inputs.batches[..applied]);
    let fresh = ClueEngine::precomputed(&inputs.sender, &end, engine_config());
    let (Ok(a), Ok(b)) = (live.freeze(), fresh.freeze()) else {
        return false;
    };
    if !a.bit_identical(&b) {
        return false;
    }
    let fresh = <Engine as CompiledBackend<Ip4>>::compile(&fresh, &CompressedConfig)
        .expect("an Advance/Regular engine always compiles");
    let mut reader = cell.reader();
    let served = reader.pin();
    let dests: Vec<Ip4> = inputs.headers.iter().map(|h| Ip4(h.dst)).collect();
    let clues: Vec<Option<Prefix<Ip4>>> = inputs
        .headers
        .iter()
        .map(|h| h.clue_len.map(|l| Prefix::of_address(Ip4(h.dst), l)))
        .collect();
    let mut x = vec![Decision::default(); dests.len()];
    let mut y = vec![Decision::default(); dests.len()];
    let sx = served.lookup_batch_interleaved(&dests, &clues, &mut x, DEFAULT_INTERLEAVE);
    let sy = fresh.lookup_batch_interleaved(&dests, &clues, &mut y, DEFAULT_INTERLEAVE);
    x == y
        && sx == sy
        && served.memory_bytes() == fresh.memory_bytes()
        && served.tag_prefixes() == fresh.tag_prefixes()
}

/// Runs an engine workload.
pub fn run(spec: &EngineSpec, cfg: &RunConfig) -> Outcome {
    let origin = Instant::now();
    let inputs = Inputs::generate(spec, cfg.seed, cfg.fault);
    let mut tracer = cfg.trace.then(|| Tracer::new(origin));

    // Set-up, repeated; the last repetition is the one served.
    let mut setups = Vec::with_capacity(spec.setup_reps);
    let mut built = None;
    for rep in 0..spec.setup_reps.max(1) {
        drop(built.take());
        let (scalar, cell, times) = set_up(&inputs, tracer.as_mut(), rep as u64);
        setups.push(times);
        built = Some((scalar, cell));
    }
    let (mut scalar, ref cell) = built.expect("at least one set-up");
    let reference = Reference::compute(&mut scalar, &inputs);

    let (mem_bytes, arena, bucket, dict, cram) = {
        let mut reader = cell.reader();
        let e = reader.pin();
        (
            e.memory_bytes(),
            e.arena_bytes(),
            e.bucket_bytes(),
            e.dict_bytes(),
            e.cram(),
        )
    };

    let config = RuntimeConfig::with_workers(spec.workers);
    let mut pipe = Pipeline::new(spec.burst);
    let mut tally = Tally::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut next = 0usize;
    let mut burst_id = 0u64;
    // A traced run splits its time and has no minimum burst count.
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let min_bursts = if cfg.trace { 0 } else { spec.min_bursts };

    let mut phase = |traced_phase: bool| {
        let mut samples = Samples::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline || samples.bursts.len() < min_bursts {
            let b = pipe.run(&inputs, cell, &config, next);
            if cfg.fault == Fault::WrongDecision && burst_id == 3 {
                pipe.decisions[0].bmp = None;
            }
            let first_pass = burst_id * (spec.burst as u64) < inputs.headers.len() as u64;
            failed += pipe.check(
                &inputs,
                &reference,
                &b,
                false,
                first_pass.then_some(&mut tally),
            );
            attempted += spec.burst as u64;
            samples.push(&b, spec.workers);
            if let (true, Some(tr)) = (traced_phase, tracer.as_mut()) {
                let root = tr.record(burst_id, None, "burst", b.t0, b.t_end);
                tr.record(burst_id, Some(root), "wire.decode", b.t0, b.t_decoded);
                tr.record(
                    burst_id,
                    Some(root),
                    "runtime.serve",
                    b.t_decoded,
                    b.t_served,
                );
                tr.record(burst_id, Some(root), "wire.encode", b.t_served, b.t_end);
            }
            burst_id += 1;
            next = (next + spec.burst) % inputs.headers.len();
        }
        samples
    };
    let untraced = phase(false);
    let traced = cfg.trace.then(|| {
        alloc::set_counting(true);
        let samples = phase(true);
        alloc::set_counting(false);
        samples
    });

    let summary = untraced.bursts.summary();
    let packets = tally.packets.max(1) as f64;
    let receivers = inputs.receiver.len().max(1) as f64;
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median_f64(&mut setups.iter().map(f).collect::<Vec<_>>());
    let mut metrics = BTreeMap::new();
    let m = &mut metrics;
    m.insert("fwd_pps", summary.rate);
    m.insert("batch_p50_us", summary.p50_ns / 1e3);
    m.insert("cpu_ns_per_pkt", summary.cpu_ns_per_pkt);
    m.insert("setup_s", setup_median(|s| s.total));
    m.insert("mem_bytes", mem_bytes as f64);
    m.insert("mem_refs_per_packet", tally.refs as f64 / packets);
    m.insert(
        "refs_saved_frac",
        1.0 - tally.refs as f64 / tally.baseline.max(1) as f64,
    );

    let mut report = vec![
        format!(
            "bursts: {} of {} packets ({} workers), {} pool headers, {} receiver prefixes",
            untraced.bursts.len(),
            spec.burst,
            spec.workers,
            inputs.headers.len(),
            inputs.receiver.len()
        ),
        line(
            "fwd_pps",
            summary.rate,
            "1/s",
            "packets over the summed time of the fastest half of the bursts",
        ),
        line(
            "pps_all_bursts",
            summary.rate_all,
            "1/s",
            "packets over the summed time of every burst",
        ),
        line(
            "batch_p25_us",
            summary.p25_ns / 1e3,
            "us",
            "25th-percentile burst time",
        ),
        line(
            "batch_p50_us",
            summary.p50_ns / 1e3,
            "us",
            "median burst time",
        ),
        line(
            "batch_p99_us",
            summary.p99_ns / 1e3,
            "us",
            &format!(
                "{} bursts, {} beyond it",
                summary.bursts,
                summary.bursts / 100
            ),
        ),
        line(
            "mem_bytes_per_prefix",
            mem_bytes as f64 / receivers,
            "B",
            "whole engine",
        ),
    ];

    if let Some(mut traced) = traced {
        let tp = traced.packets().max(1) as f64;
        let (single_ns, scaling) = probes(&inputs, cell, spec, &mut pipe, &config);
        let traced_pps = traced.bursts.summary().rate;
        let wire_ns: u64 = traced.decode_ns.iter().chain(&traced.encode_ns).sum();
        let burst_ns: u64 = traced.bursts.ns.iter().sum();
        let mut staleness = untraced.max_staleness.max(traced.max_staleness);
        let m = &mut metrics;
        m.insert(
            "wire.decode_ns_per_pkt",
            traced.per_packet(&traced.decode_ns),
        );
        m.insert(
            "wire.encode_ns_per_pkt",
            traced.per_packet(&traced.encode_ns),
        );
        m.insert(
            "wire.allocs_per_pkt",
            (traced.allocs[0] + traced.allocs[2]) as f64 / tp,
        );
        m.insert(
            "wire.share_of_burst",
            wire_ns as f64 / burst_ns.max(1) as f64,
        );
        m.insert(
            "runtime.serve_ns_per_pkt",
            traced.per_packet(&traced.serve_ns),
        );
        m.insert(
            "runtime.call_overhead_us",
            median_u64(&mut traced.overhead_ns) / 1e3,
        );
        m.insert(
            "runtime.busy_frac",
            traced.busy_ns as f64 / traced.worker_ns.max(1) as f64,
        );
        m.insert(
            "runtime.backpressure_per_job",
            traced.backpressure as f64 / traced.jobs.max(1) as f64,
        );
        m.insert("runtime.allocs_per_pkt", traced.allocs[1] as f64 / tp);
        m.insert("runtime.scaling_x", scaling);
        m.insert("core.lookup_ns_per_pkt", single_ns);
        m.insert("core.cram_l1_miss", cram.expected_l1_misses);
        m.insert("core.cram_l2_miss", cram.expected_l2_misses);
        m.insert("core.cram_l3_miss", cram.expected_l3_misses);
        m.insert("core.probe_refs_per_pkt", tally.probe_refs as f64 / packets);
        m.insert("core.walk_refs_per_pkt", tally.walk_refs as f64 / packets);
        let total = tally.stats.total().max(1) as f64;
        m.insert("core.final_frac", tally.stats.finals as f64 / total);
        m.insert("core.continued_frac", tally.stats.continued as f64 / total);
        m.insert("core.miss_frac", tally.stats.misses as f64 / total);
        m.insert("core.clueless_frac", tally.stats.clueless as f64 / total);
        m.insert("core.precompute_s", setup_median(|s| s.precompute));
        m.insert("core.compile_s", setup_median(|s| s.compile));
        m.insert("core.arena_bytes", arena as f64);
        m.insert("core.bucket_bytes", bucket as f64);
        m.insert("core.dict_bytes", dict as f64);
        m.insert("core.mem_bytes_per_prefix", mem_bytes as f64 / receivers);
        m.insert("trace.untraced_pps", summary.rate);
        m.insert("trace.traced_pps", traced_pps);
        m.insert(
            "trace.overhead_frac",
            1.0 - traced_pps / summary.rate.max(1e-9),
        );
        let mut tr = tracer.take().expect("traced run has a tracer");
        if let Some(churn) = spec.churn {
            let mut up = update_phase(
                &inputs,
                &reference,
                cell,
                &mut scalar,
                &mut pipe,
                churn,
                cfg.fault,
                origin,
            );
            attempted += up.attempted + 1;
            failed += up.failed + u64::from(!up.final_ok);
            staleness = staleness.max(up.max_staleness);
            let mut update_ms: Vec<f64> =
                up.log.latency_ns.iter().map(|&t| t as f64 / 1e6).collect();
            let (p50, p90) = (quantile(&mut update_ms, 0.5), quantile(&mut update_ms, 0.9));
            m.insert(
                "core.apply_us_per_update",
                median_u64(&mut up.log.apply_ns_per_update) / 1e3,
            );
            m.insert("core.publish_us", median_u64(&mut up.log.publish_ns) / 1e3);
            m.insert("writer.update_p50_ms", p50);
            m.insert("writer.update_p90_ms", p90);
            m.insert("writer.publishes", up.log.latency_ns.len() as f64);
            report.push(line(
                "update_p50_ms",
                p50,
                "ms",
                &format!("{} publishes", update_ms.len()),
            ));
            report.push(line("update_p90_ms", p90, "ms", ""));
            report.push(format!(
                "  final snapshot matches a fresh compile: {}",
                up.final_ok
            ));
            tr.merge(up.tracer);
        }
        m.insert("runtime.max_staleness", staleness as f64);
        if let Some(f) = &spec.fleet {
            let phase = fleet::run(f, cfg.seed, &mut tr);
            attempted += phase.attempted;
            failed += phase.failed;
            m.extend(phase.metrics);
            report.extend(phase.report);
        }
        if let Some(large) = &spec.large {
            let phase = large_phase(spec, large, cfg.seed);
            attempted += phase.attempted;
            failed += phase.failed;
            prefixed_metrics("dfz.", &phase.metrics, m);
            report.push(format!(
                "large-table phase ({:?}, {} s): {}",
                large.table, large.seconds, phase.report[0]
            ));
        }
        span_metrics(&tr, m);
        return finish(attempted, failed, metrics, report, spec.workers, Some(tr));
    }
    finish(attempted, failed, metrics, report, spec.workers, None)
}

/// The large-table phase of a traced run: a traced run of the same
/// pipeline on `large.table`, with one set-up. Its spans are not kept.
fn large_phase(spec: &EngineSpec, large: &LargeSpec, seed: u64) -> Outcome {
    let sub = EngineSpec {
        table: large.table,
        pool: large.pool,
        setup_reps: 1,
        min_bursts: 0,
        churn: None,
        fleet: None,
        large: None,
        ..*spec
    };
    run(
        &sub,
        &RunConfig {
            spec: sub,
            seed,
            seconds: large.seconds,
            trace: true,
            fault: Fault::None,
        },
    )
}

/// Packs a run's results, with `error_frac` first in the report.
fn finish(
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    mut report: Vec<String>,
    workers: usize,
    tracer: Option<Tracer>,
) -> Outcome {
    report.insert(
        1,
        line(
            "error_frac",
            failed as f64 / attempted.max(1) as f64,
            "frac",
            "",
        ),
    );
    Outcome {
        attempted,
        failed,
        metrics,
        report,
        workers,
        tracer,
    }
}

/// The traced run's single-thread probes on the served snapshot: the
/// engine's batch lookup alone (ns/packet, median over bursts), and the
/// runtime's scaling from 1 worker to `nproc` on the same bursts.
fn probes(
    inputs: &Inputs,
    cell: &EpochCell<Engine>,
    spec: &EngineSpec,
    pipe: &mut Pipeline,
    config: &RuntimeConfig,
) -> (f64, f64) {
    let one = RuntimeConfig {
        workers: 1,
        ..config.clone()
    };
    let many = RuntimeConfig {
        workers: crate::host::available_parallelism(),
        ..config.clone()
    };
    let mut lookup_ns = Vec::with_capacity(PROBE_BURSTS);
    let mut serve1 = Vec::with_capacity(PROBE_BURSTS);
    let mut serve_n = Vec::with_capacity(PROBE_BURSTS);
    let mut out = vec![Decision::default(); spec.burst];
    let mut sink = Vec::new();
    for k in 0..PROBE_BURSTS {
        let first = (k * spec.burst) % inputs.headers.len();
        pipe.run(inputs, cell, config, first);
        {
            let mut reader = cell.reader();
            let engine = reader.pin();
            let t = Instant::now();
            engine.lookup_batch_interleaved(&pipe.dests, &pipe.clues, &mut out, DEFAULT_INTERLEAVE);
            lookup_ns.push(t.elapsed().as_nanos() as u64);
        }
        for (cfg, v) in [(&one, &mut serve1), (&many, &mut serve_n)] {
            let t = Instant::now();
            serve_lookups(cell, &pipe.dests, &pipe.clues, &mut sink, cfg, None);
            v.push(t.elapsed().as_nanos() as u64);
        }
    }
    let per_pkt = median_u64(&mut lookup_ns) / spec.burst as f64;
    let scaling = median_u64(&mut serve1) / median_u64(&mut serve_n).max(1.0);
    (per_pkt, scaling)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bmp_ok_accepts_any_epoch_of_the_window() {
        let p = |s: &str| Some(s.parse::<Prefix<Ip4>>().expect("valid prefix"));
        let r = Reference {
            bmp: vec![p("10.0.0.0/8")],
            cost: vec![Cost::new()],
            baseline: vec![0],
            history: vec![vec![(2, p("10.1.0.0/16")), (5, None)]],
        };
        assert!(r.bmp_ok(0, p("10.0.0.0/8"), 0, 1));
        assert!(!r.bmp_ok(0, p("10.1.0.0/16"), 0, 1));
        assert!(r.bmp_ok(0, p("10.1.0.0/16"), 1, 2));
        assert!(!r.bmp_ok(0, p("10.0.0.0/8"), 2, 4));
        assert!(r.bmp_ok(0, None, 4, 6));
        assert!(!r.bmp_ok(0, p("10.1.0.0/16"), 5, 9));
    }
}
