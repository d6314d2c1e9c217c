//! The compiled network and the shared-nothing multi-core serving
//! runtime.
//!
//! [`CompiledNetwork`] is the one read-only view of a live [`Network`]
//! with every clue engine compiled to a [`CompiledBackend`]: routable
//! from `&self` and shareable across threads. The frozen alias
//! ([`FrozenNetwork`]) adds the stage-profiled walk; the stride alias
//! ([`StrideNetwork`]) is what the CLI and benches time. There is no
//! mutex, no rwlock and no message channel anywhere on the serving
//! path:
//!
//! * **Per-core replicas.** Each worker owns a private replica of
//!   every compiled engine it serves from
//!   ([`CompiledBackend::replicate`] detaches telemetry handles; the
//!   immutable arenas and hop tables are `Arc`-shared, so priming is a
//!   handful of refcount bumps). Replica priming happens before the
//!   timed region and is reported separately
//!   ([`CoreStats::replica_clone_ns`]).
//! * **One scoped job driver.** Every leg runs on the crate's one
//!   driver: the calling thread serves as worker 0 beside
//!   `workers − 1` scoped threads, a barrier starts the clock once
//!   every replica is primed, and a join returns per-worker results in
//!   worker order. At one worker no thread starts, so the batch stays
//!   on the caller's core. Jobs are dealt up front, job `k` to worker
//!   `k % workers`, so there is no queue and no lock;
//!   [`serve_lookups`] deals `out` itself in `batch`-sized chunks and
//!   each worker writes its decisions in place.
//! * **Deterministic partitioning.** Jobs are contiguous packet-index
//!   ranges and every packet derives its own SplitMix64 RNG stream
//!   from its index, so what a worker computes is independent of which
//!   worker computes it; the per-worker accumulators fold with
//!   commutative integer merges. [`CompiledNetwork::run_workload`] is
//!   therefore **bit-identical to
//!   [`run_workload_per_packet`](crate::run_workload_per_packet) at
//!   any worker count**, on every backend — the property
//!   `tests/runtime_equivalence.rs` pins down.
//! * **Barrier-free churn propagation.** [`serve_lookups`] serves from
//!   an [`EpochCell`]: each worker holds a pinned [`EpochReader`] and
//!   re-clones its replica at the first batch boundary after a
//!   publish — no barrier, no coordination with other cores, and the
//!   epochs-behind lag is attributed per core
//!   ([`CoreStats::max_staleness`]).
//!
//! Three details make the network walk fast enough to beat the scalar
//! reference by the gated 3x even before true parallelism: router
//! lookups run on compiled engines (the stride backend's
//! direct-indexed root plus multibit nodes instead of a bit-by-bit
//! trie walk); next-hop resolution is tag-indexed, the compiled lookup
//! returning a dense payload index
//! ([`CompiledBackend::lookup_finish_tag`]) into a per-engine hop table
//! resolved through the FIB once, at compile time, instead of a FIB
//! hash probe per hop; and each worker walks `WALK_LANES` packets in
//! lockstep, decoding-and-prefetching every packet's next lookup
//! ([`CompiledBackend::lookup_prepare`]) a full lane rotation before
//! resolving it, so the dependent loads of one walk hide behind the
//! other lanes' work. None of the three changes any recorded
//! statistic: the compiled engines are tick-parity with the scalar
//! engines (the `*_prop` suites), the hop tables resolve exactly what
//! the FIB resolves while neither charges anything, and lane order
//! only permutes commutative accumulator merges.

use std::sync::Arc;
use std::time::Instant;

use clue_core::{
    BackendError, ClueHeader, CompiledBackend, CompressedEngine, Decision, EngineStats, EpochCell,
    EpochReader, FreezeError, FrozenEngine, PreparedLookup, QuarantineGate, StageProfiler,
    StrideConfig, StrideEngine, StrideError, DEFAULT_INTERLEAVE, NO_TAG,
};
use clue_telemetry::RuntimeTelemetry;
use clue_trie::{Address, BinaryTrie, Cost, Prefix};

use crate::driver::{drive, ranges};
use crate::network::{Hop, HopRecord, Network, PathTrace};
use crate::sim::{draw_packet, Accum, RunStats};
use crate::topology::RouterId;

/// The number of worker cores [`RuntimeConfig::default`] uses: every
/// core the OS reports, falling back to one.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Tuning knobs of the serving runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker cores (default: [`available_workers`]).
    pub workers: usize,
    /// Packets per job — the unit of work dealt to a worker and of
    /// replica refresh (churn is observed at job boundaries).
    pub batch: usize,
    /// Interleave group for the workers' prefetched batch loops
    /// (engine serving only; `<= 1` disables prefetch).
    pub prefetch: usize,
    /// Reputation-layer quarantine switch for the served link. Workers
    /// read it once per job at the epoch-refresh boundary: while
    /// engaged, the job is served entirely clue-less — the hot path
    /// stays branchless within a batch and never touches the flag
    /// per packet.
    pub gate: Option<std::sync::Arc<QuarantineGate>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: available_workers(),
            batch: 512,
            prefetch: DEFAULT_INTERLEAVE,
            gate: None,
        }
    }
}

impl RuntimeConfig {
    /// A config with the given worker count and every other knob at
    /// its default.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig { workers, ..Default::default() }
    }
}

/// One worker core's attribution for a run.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Packets this core served.
    pub packets: u64,
    /// Jobs this core served.
    pub batches: u64,
    /// Nanoseconds spent inside lookups (excludes priming and replica
    /// refreshes).
    pub busy_ns: u64,
    /// Replica clones: the priming clone plus one per observed epoch
    /// publish.
    pub replica_clones: u64,
    /// Nanoseconds spent cloning replicas (priming + refreshes).
    pub replica_clone_ns: u64,
    /// Worst epochs-behind-the-writer this core served a batch at.
    pub max_staleness: u64,
    /// Always 0: jobs are dealt up front, so no worker ever waits on
    /// a full or empty queue. Kept so readers of the field still build.
    pub backpressure: u64,
}

/// What a runtime run did, beyond its workload result: wall-clock of
/// the timed region, setup cost kept out of it, and per-core
/// attribution.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Nanoseconds from "every replica primed" to "every worker
    /// joined" — the steady-state serving time.
    pub elapsed_ns: u64,
    /// Total nanoseconds workers spent priming their replicas, all of
    /// it **outside** the timed region.
    pub replica_clone_ns: u64,
    /// Per-core attribution, indexed by worker.
    pub cores: Vec<CoreStats>,
}

impl RuntimeReport {
    /// Packets per second over the timed region.
    pub fn pps(&self) -> f64 {
        let packets: u64 = self.cores.iter().map(|c| c.packets).sum();
        packets as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    /// Each core's packets per second over its own busy time.
    pub fn per_core_pps(&self) -> Vec<f64> {
        per_core_pps(&self.cores)
    }

    /// Flushes this report into a telemetry bundle.
    pub fn record(&self, t: &RuntimeTelemetry) {
        record_cores(&self.cores, t);
    }
}

/// Each core's packets per second over the nanoseconds *it* spent
/// serving ([`CoreStats::busy_ns`]), not over the shared window — jobs
/// are dealt round-robin, so packets per core are near-equal by
/// construction and only the busy time tells the cores apart. A core
/// that never served reports 0.
fn per_core_pps(cores: &[CoreStats]) -> Vec<f64> {
    cores
        .iter()
        .map(|c| if c.busy_ns == 0 { 0.0 } else { c.packets as f64 / (c.busy_ns as f64 / 1e9) })
        .collect()
}

/// Flushes per-core attribution into a telemetry bundle — shared by
/// the network and the engine-serving legs.
fn record_cores(cores: &[CoreStats], t: &RuntimeTelemetry) {
    t.workers.set(cores.len() as f64);
    for c in cores {
        t.record_core(c.packets, c.batches, c.replica_clones, c.busy_ns);
        t.replica_clone_us.observe(c.replica_clone_ns / 1_000);
    }
}

// ---------------------------------------------------------------------
// Prefix → hop resolution
// ---------------------------------------------------------------------

/// Next-hop sentinel codes in [`TagHop::code`].
const EMPTY_HOP: u32 = u32::MAX;
const LOCAL_HOP: u32 = u32::MAX - 1;

/// One lookup tag's precomputed forwarding state: the prefix the tag
/// names and the FIB's decision for it. Built once per engine at
/// compile time, so the hot walk turns “hash the found prefix into the
/// FIB” into a single tag-addressed array read.
#[derive(Debug, Clone, Copy)]
struct TagHop<A: Address> {
    prefix: Prefix<A>,
    /// [`EMPTY_HOP`] (prefix not in this FIB), [`LOCAL_HOP`], or the
    /// next-hop router id.
    code: u32,
}

/// Resolves every tag of `engine` through the router's FIB.
fn tag_hops<A: Address, E: CompiledBackend<A>>(
    engine: &E,
    fib: &BinaryTrie<A, Hop>,
) -> Vec<TagHop<A>> {
    engine
        .tag_prefixes()
        .iter()
        .map(|&p| TagHop {
            prefix: p,
            code: match fib.get(&p).map(|r| *fib.value(r)) {
                None => EMPTY_HOP,
                Some(Hop::Local) => LOCAL_HOP,
                Some(Hop::Via(nh)) => {
                    assert!((nh as u32) < LOCAL_HOP, "router id collides with hop sentinel");
                    nh as u32
                }
            },
        })
        .collect()
}

// ---------------------------------------------------------------------
// Backend-compiled network
// ---------------------------------------------------------------------

/// One router's serving state: backend-compiled engines plus their
/// tag → hop tables. The tables are immutable after construction and
/// `Arc`-shared into every worker replica — together with the engines'
/// own `Arc`-shared arenas this makes [`Self::replicate`] a handful of
/// refcount bumps even at million-prefix scale.
#[derive(Debug, Clone)]
struct CompiledRouter<A: Address, E: CompiledBackend<A>> {
    base: E,
    /// Neighbor id → index into `engines`, [`NO_ENGINE`] if none: a
    /// direct-indexed table, since router ids are small and dense.
    by_neighbor: Arc<Vec<u32>>,
    engines: Vec<E>,
    /// `base`'s tag → forwarding-decision table.
    base_hops: Arc<Vec<TagHop<A>>>,
    /// Per-neighbor-engine tag tables, parallel to `engines`.
    engine_hops: Arc<Vec<Vec<TagHop<A>>>>,
    participates: bool,
}

/// “No per-neighbor engine” sentinel in
/// [`CompiledRouter::by_neighbor`].
const NO_ENGINE: u32 = u32::MAX;

impl<A: Address, E: CompiledBackend<A>> CompiledRouter<A, E> {
    /// A worker-private replica: every engine re-cloned with telemetry
    /// detached ([`CompiledBackend::replicate`]); the hop state is
    /// `Arc`-shared.
    fn replicate(&self) -> CompiledRouter<A, E> {
        CompiledRouter {
            base: self.base.replicate(),
            by_neighbor: Arc::clone(&self.by_neighbor),
            engines: self.engines.iter().map(E::replicate).collect(),
            base_hops: Arc::clone(&self.base_hops),
            engine_hops: Arc::clone(&self.engine_hops),
            participates: self.participates,
        }
    }
}

/// A read-only view of a [`Network`] with every clue engine compiled
/// to one [`CompiledBackend`] and every engine tag resolved to its
/// forwarding decision: routable from `&self`, shareable across
/// threads. Every backend serves bit-identical results (the Cost-parity
/// contract); they differ only in bytes touched per lookup.
#[derive(Debug)]
pub struct CompiledNetwork<'n, A: Address, E: CompiledBackend<A>> {
    net: &'n Network<A>,
    routers: Vec<CompiledRouter<A, E>>,
}

/// The serving runtime on the multibit stride backend — the historical
/// name, and still the default the CLI and fleet drive.
pub type StrideNetwork<'n, A> = CompiledNetwork<'n, A, StrideEngine<A>>;

/// The serving runtime on the entropy-compressed backend.
pub type CompressedNetwork<'n, A> = CompiledNetwork<'n, A, CompressedEngine<A>>;

/// The compiled network on the frozen backend — the only backend with a
/// stage-profiled routing path.
pub type FrozenNetwork<'n, A> = CompiledNetwork<'n, A, FrozenEngine<A>>;

impl<'n, A: Address> FrozenNetwork<'n, A> {
    /// Freezes every engine in `net`. Fails if any engine is not
    /// freezable (non-Regular family, indexed table, or an LRU cache —
    /// caches make per-packet cost history-dependent, which the
    /// deterministic multi-core walk cannot reproduce).
    pub fn freeze(net: &'n Network<A>) -> Result<Self, FreezeError> {
        Self::compile(net, &()).map_err(|e| match e {
            BackendError::Freeze(e) => e,
            BackendError::Stride(_) => unreachable!("frozen compilation has no stride stage"),
        })
    }

    /// Forwards one packet exactly like [`Network::route_packet`] —
    /// same hops, same per-hop [`Cost`], same Section 5.4 shifted work
    /// — from `&self`, attributing every hop's engine lookup to
    /// pipeline stages in `prof` (see [`StageProfiler`]). Semantically
    /// inert: the profiled engine paths observe the walk deltas, they
    /// never alter them. The shifted-work leg is raw FIB trie work
    /// rather than an engine lookup and stays unprofiled.
    pub fn route_packet_profiled(
        &self,
        src: RouterId,
        dest: A,
        prof: &mut StageProfiler,
    ) -> PathTrace<A> {
        let shift = self.net.config().shift_work_to_edges;
        let mut hops = Vec::new();
        let mut header = ClueHeader::none();
        let mut prev: Option<RouterId> = None;
        let mut cur = src;
        let mut delivered = false;
        let max_hops = self.net.topology().len() * 2 + 4;

        for _ in 0..max_hops {
            let mut cost = Cost::new();
            let node = &self.routers[cur];
            let fib = &self.net.routers()[cur].fib;
            let engine_slot =
                prev.map_or(NO_ENGINE, |p| node.by_neighbor.get(p).copied().unwrap_or(NO_ENGINE));
            let used_clue =
                node.participates && engine_slot != NO_ENGINE && header.clue.is_some();
            let bmp = if used_clue {
                let engine = &node.engines[engine_slot as usize];
                engine.lookup_profiled(dest, header.decode(dest), &mut cost, prof).0
            } else {
                node.base.lookup_profiled(dest, None, &mut cost, prof).0
            };
            let next = bmp.and_then(|p| fib.get(&p)).map(|r| *fib.value(r));

            let mut shift_cost = Cost::new();
            if node.participates {
                if let Some(p) = bmp {
                    header = ClueHeader::with_clue(&p);
                }
                if shift {
                    if let Some(p) = self.net.shifted_bmp(next, bmp, dest, &mut shift_cost) {
                        header = ClueHeader::with_clue(&p);
                    }
                }
            }

            hops.push(HopRecord { router: cur, from: prev, bmp, cost, shift_cost, used_clue });

            match next {
                Some(Hop::Local) => {
                    delivered = true;
                    break;
                }
                Some(Hop::Via(nh)) => {
                    prev = Some(cur);
                    cur = nh;
                }
                None => break,
            }
        }
        PathTrace { dest, hops, delivered }
    }

    /// As [`Self::run_workload`], routing every packet through
    /// [`Self::route_packet_profiled`] and aggregating a
    /// [`StageProfiler`]: one contiguous packet range and one profiler
    /// per worker, merged in worker order like the cost accumulators,
    /// so the predicted half of the attribution (visits, ticks, bytes)
    /// is bit-identical for a given seed regardless of worker count —
    /// only the measured nanoseconds vary with the machine.
    ///
    /// # Panics
    /// Panics if `sources` is empty or the network has no origins.
    pub fn profile_workload(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        workers: usize,
    ) -> (RunStats, StageProfiler) {
        assert!(!sources.is_empty(), "need at least one source");
        let origins = self.net.config().origins.clone();
        assert!(!origins.is_empty(), "need at least one origin");

        let n = self.net.topology().len();
        let per_worker = packets.div_ceil(workers.max(1)) as u64;
        let run = drive(
            workers,
            ranges(packets as u64, per_worker),
            |_| (Accum::new(n), StageProfiler::new()),
            |(acc, prof), (lo, hi)| {
                for i in lo..hi {
                    let (src, dest) = draw_packet(self.net, sources, &origins, seed, i);
                    acc.record(&self.route_packet_profiled(src, dest, prof));
                }
            },
        );
        let mut acc = Accum::new(n);
        let mut prof = StageProfiler::new();
        for (a, p) in &run.results {
            acc.merge(a);
            prof.merge(p);
        }
        (acc.finish(packets), prof)
    }
}

impl<'n, A: Address> StrideNetwork<'n, A> {
    /// Stride-compiles every engine in `net`. Fails like a freeze
    /// fails (non-Regular family, indexed table, cache) or if the
    /// stride shape is invalid.
    pub fn freeze(net: &'n Network<A>, stride: StrideConfig) -> Result<Self, StrideError> {
        Self::compile(net, &stride).map_err(|e| match e {
            BackendError::Stride(e) => e,
            BackendError::Freeze(e) => StrideError::Freeze(e),
        })
    }
}

impl<'n, A: Address, E: CompiledBackend<A>> CompiledNetwork<'n, A, E> {
    /// Compiles every engine in `net` to backend `E`. Fails like a
    /// freeze fails (non-Regular family, indexed table, cache) or if
    /// the backend rejects its configuration.
    pub fn compile(net: &'n Network<A>, config: &E::Config) -> Result<Self, BackendError> {
        let n = net.topology().len();
        let routers = net
            .routers()
            .iter()
            .map(|r| {
                let mut by_neighbor = vec![NO_ENGINE; n];
                let mut engines = Vec::with_capacity(r.engines.len());
                for (&nb, e) in &r.engines {
                    by_neighbor[nb] = engines.len() as u32;
                    engines.push(E::compile(e, config)?);
                }
                let base = E::compile(&r.base, config)?;
                let base_hops = tag_hops(&base, &r.fib);
                let engine_hops = engines.iter().map(|e| tag_hops(e, &r.fib)).collect();
                Ok(CompiledRouter {
                    base,
                    by_neighbor: Arc::new(by_neighbor),
                    engines,
                    base_hops: Arc::new(base_hops),
                    engine_hops: Arc::new(engine_hops),
                    participates: r.participates,
                })
            })
            .collect::<Result<Vec<_>, BackendError>>()?;
        Ok(CompiledNetwork { net, routers })
    }

    /// The live network this view was compiled from.
    pub fn network(&self) -> &'n Network<A> {
        self.net
    }

    /// Routes `packets` random packets through the multi-core
    /// runtime. Bit-identical to
    /// [`run_workload_per_packet`](crate::run_workload_per_packet) for
    /// the same seed at any worker count.
    ///
    /// # Panics
    /// Panics if `sources` is empty or the network has no origins.
    pub fn run_workload(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        workers: usize,
    ) -> RunStats {
        self.run_workload_timed(sources, packets, seed, &RuntimeConfig::with_workers(workers), None)
            .0
    }

    /// As [`Self::run_workload`], returning the runtime report
    /// (steady-state wall clock with replica priming hoisted out of
    /// it, per-core attribution) and optionally flushing it into a
    /// telemetry bundle.
    ///
    /// # Panics
    /// Panics if `sources` is empty or the network has no origins.
    pub fn run_workload_timed(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        config: &RuntimeConfig,
        telemetry: Option<&RuntimeTelemetry>,
    ) -> (RunStats, RuntimeReport) {
        assert!(!sources.is_empty(), "need at least one source");
        let origins = self.net.config().origins.clone();
        assert!(!origins.is_empty(), "need at least one origin");
        let n = self.net.topology().len();
        let run = drive(
            config.workers,
            ranges(packets as u64, config.batch as u64),
            |w| {
                let t0 = Instant::now();
                let replicas: Vec<CompiledRouter<A, E>> =
                    self.routers.iter().map(CompiledRouter::replicate).collect();
                let stats = CoreStats {
                    worker: w,
                    replica_clones: 1,
                    replica_clone_ns: t0.elapsed().as_nanos() as u64,
                    ..CoreStats::default()
                };
                (replicas, stats, Accum::new(n))
            },
            |(replicas, stats, acc), (lo, hi)| {
                let t = Instant::now();
                route_job_into(self.net, replicas, sources, &origins, seed, lo, hi, acc);
                stats.busy_ns += t.elapsed().as_nanos() as u64;
                stats.packets += hi - lo;
                stats.batches += 1;
            },
        );

        let mut acc = Accum::new(n);
        let mut cores = Vec::with_capacity(run.results.len());
        for (_, c, a) in run.results {
            acc.merge(&a);
            cores.push(c);
        }
        let replica_clone_ns = cores.iter().map(|c| c.replica_clone_ns).sum();
        let report = RuntimeReport { elapsed_ns: run.elapsed_ns, replica_clone_ns, cores };
        if let Some(t) = telemetry {
            report.record(t);
        }
        (acc.finish(packets), report)
    }
}

/// In-flight packet walks interleaved per worker. Each lane's next
/// lookup is decoded — and its first probe line prefetched — when the
/// packet *advances*, a full lane rotation before it resolves, so the
/// other lanes' work hides the fetch latency. Sized to keep the lane
/// state (a few hundred bytes) comfortably in L1 while still covering
/// an LLC miss with ~7 lanes' worth of work.
const WALK_LANES: usize = 8;

/// One in-flight packet walk: where the packet is, what its header
/// carries, and the decoded (already-prefetched) op for the lookup it
/// will run next.
#[derive(Clone, Copy)]
struct Flight<A: Address> {
    dest: A,
    header: ClueHeader,
    prev: Option<RouterId>,
    cur: RouterId,
    pos: usize,
    engine_slot: u32,
    used_clue: bool,
    clue: Option<Prefix<A>>,
    op: PreparedLookup,
}

/// Decodes the lookup a packet will run at its current router — engine
/// choice, decoded clue, start line prefetched — without resolving it.
#[inline]
fn prepare<A: Address, E: CompiledBackend<A>>(
    routers: &[CompiledRouter<A, E>],
    dest: A,
    header: &ClueHeader,
    prev: Option<RouterId>,
    cur: RouterId,
) -> (u32, bool, Option<Prefix<A>>, PreparedLookup) {
    let node = &routers[cur];
    let engine_slot =
        prev.map_or(NO_ENGINE, |p| node.by_neighbor.get(p).copied().unwrap_or(NO_ENGINE));
    let used_clue = node.participates && engine_slot != NO_ENGINE && header.clue.is_some();
    if used_clue {
        let clue = header.decode(dest);
        let op = node.engines[engine_slot as usize].lookup_prepare(dest, clue);
        (engine_slot, true, clue, op)
    } else {
        (engine_slot, false, None, node.base.lookup_prepare(dest, None))
    }
}

/// Routes packets `lo..hi` of the seeded workload, walking up to
/// [`WALK_LANES`] packets in lockstep. Every hop matches
/// [`Network::route_packet`] — same hops, same per-hop [`Cost`], same
/// Section 5.4 shifted work — recorded straight into the accumulator
/// instead of materialising a `PathTrace`. Lanes only change the order packets' hops execute in,
/// and [`Accum`]'s merges are commutative, so the folded [`RunStats`]
/// is unchanged.
#[allow(clippy::too_many_arguments)]
fn route_job_into<A: Address, E: CompiledBackend<A>>(
    net: &Network<A>,
    routers: &[CompiledRouter<A, E>],
    sources: &[RouterId],
    origins: &[RouterId],
    seed: u64,
    lo: u64,
    hi: u64,
    acc: &mut Accum,
) {
    let config = net.config();
    let live = net.routers();
    let max_hops = net.topology().len() * 2 + 4;

    let launch = |i: u64| -> Flight<A> {
        let (src, dest) = draw_packet(net, sources, origins, seed, i);
        let header = ClueHeader::none();
        let (engine_slot, used_clue, clue, op) = prepare(routers, dest, &header, None, src);
        Flight { dest, header, prev: None, cur: src, pos: 0, engine_slot, used_clue, clue, op }
    };

    let mut lanes: [Option<Flight<A>>; WALK_LANES] = [None; WALK_LANES];
    let mut next_packet = lo;
    let mut in_flight = 0usize;
    for lane in lanes.iter_mut() {
        if next_packet >= hi {
            break;
        }
        *lane = Some(launch(next_packet));
        next_packet += 1;
        in_flight += 1;
    }

    while in_flight > 0 {
        for lane in lanes.iter_mut() {
            // The flight mutates in place — no per-hop move of the
            // lane state in and out of the `Option`.
            let Some(f) = lane.as_mut() else { continue };
            let node = &routers[f.cur];
            let mut cost = Cost::new();
            let (tag, table) = if f.used_clue {
                let e = f.engine_slot as usize;
                let (tag, _) = node.engines[e].lookup_finish_tag(f.op, f.dest, f.clue, &mut cost);
                (tag, node.engine_hops[e].as_slice())
            } else {
                let (tag, _) = node.base.lookup_finish_tag(f.op, f.dest, None, &mut cost);
                (tag, node.base_hops.as_slice())
            };

            // Tag → (prefix, decision): one array read where the
            // reference path hashes the found prefix into the FIB.
            let (bmp, next) = if tag == NO_TAG {
                (None, None)
            } else {
                let th = &table[tag as usize];
                let next = match th.code {
                    EMPTY_HOP => None,
                    LOCAL_HOP => Some(Hop::Local),
                    nh => Some(Hop::Via(nh as RouterId)),
                };
                (Some(th.prefix), next)
            };

            if node.participates {
                if let Some(p) = bmp {
                    f.header = ClueHeader::with_clue(&p);
                }
                if config.shift_work_to_edges {
                    if let Some(Hop::Via(nh)) = next {
                        if config.core.contains(&nh) {
                            // Shifted-work charges tick straight into
                            // `cost`: the reference folds them in with
                            // a category-wise `+=` before recording,
                            // so charging in place sums identically.
                            let nb_fib = &live[nh].fib;
                            let nb_bmp = match bmp.and_then(|p| nb_fib.node_of_prefix(&p)) {
                                Some(start) => nb_fib
                                    .lookup_from(start, f.dest, &mut cost)
                                    .map(|r| nb_fib.prefix(r)),
                                None => nb_fib
                                    .lookup_counted(f.dest, &mut cost)
                                    .map(|r| nb_fib.prefix(r)),
                            };
                            if let Some(p) = nb_bmp {
                                f.header = ClueHeader::with_clue(&p);
                            }
                        }
                    }
                }
            }

            acc.record_hop(f.pos, f.cur, bmp.map_or(0, |p| p.len()), cost, f.used_clue);

            let retired = match next {
                Some(Hop::Local) => {
                    acc.record_delivered();
                    true
                }
                Some(Hop::Via(nh)) => {
                    f.prev = Some(f.cur);
                    f.cur = nh;
                    f.pos += 1;
                    if f.pos >= max_hops {
                        true
                    } else {
                        let (engine_slot, used_clue, clue, op) =
                            prepare(routers, f.dest, &f.header, f.prev, f.cur);
                        f.engine_slot = engine_slot;
                        f.used_clue = used_clue;
                        f.clue = clue;
                        f.op = op;
                        false
                    }
                }
                None => true,
            };
            if retired {
                if next_packet < hi {
                    *lane = Some(launch(next_packet));
                    next_packet += 1;
                } else {
                    *lane = None;
                    in_flight -= 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine-level serving over an EpochCell
// ---------------------------------------------------------------------

/// What one [`serve_lookups`] run did.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Packets served.
    pub packets: u64,
    /// Nanoseconds from "every replica primed" to "every worker
    /// joined".
    pub elapsed_ns: u64,
    /// Total priming-clone nanoseconds, outside the timed region
    /// (mid-run refresh clones are inside it, attributed per core).
    pub replica_clone_ns: u64,
    /// Merged resolution-class counts.
    pub stats: EngineStats,
    /// Per-core attribution, indexed by worker.
    pub cores: Vec<CoreStats>,
}

impl ServeReport {
    /// Packets per second over the timed region.
    pub fn pps(&self) -> f64 {
        self.packets as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    /// Each core's packets per second over its own busy time.
    pub fn per_core_pps(&self) -> Vec<f64> {
        per_core_pps(&self.cores)
    }
}

/// Serves one batch workload from an [`EpochCell`] across per-core
/// engine replicas — the engine-level serving loop, generic over any
/// [`CompiledBackend`] (stride by default; the compressed backend
/// drops in unchanged).
///
/// `out` is resized to `dests.len()` and split into `batch`-sized
/// chunks; chunk `k` is worker `k % workers`'s job. Each worker
/// registers an [`clue_core::EpochReader`], clones a private replica
/// from the pinned snapshot (priming, outside the timed region), then
/// runs the prefetched batch lookup on its replica straight into its
/// own chunks of `out`. At every job boundary the worker compares its
/// replica's epoch with the cell's: a newer publish triggers a re-pin
/// and re-clone — churn propagates to every core without any barrier,
/// and the observed lag lands in [`CoreStats::max_staleness`] (and
/// the `staleness_epochs` histogram when telemetry is attached).
///
/// With no concurrent publish the decisions are exactly
/// `engine.lookup_batch` of the same inputs, independent of worker
/// count and timing.
///
/// # Panics
/// Panics unless `dests` and `clues` have equal lengths.
pub fn serve_lookups<A: Address, E: CompiledBackend<A>>(
    cell: &EpochCell<E>,
    dests: &[A],
    clues: &[Option<Prefix<A>>],
    out: &mut Vec<Decision<A>>,
    config: &RuntimeConfig,
    telemetry: Option<&RuntimeTelemetry>,
) -> ServeReport {
    assert_eq!(dests.len(), clues.len(), "one clue slot per destination");
    let batch = config.batch.max(1);
    let gate = config.gate.as_deref();
    out.clear();
    out.resize(dests.len(), Decision::default());

    let run = drive(
        config.workers,
        out.chunks_mut(batch).enumerate(),
        |w| ServeCore::prime(cell, w, batch),
        |core, (k, chunk)| {
            let lo = k * batch;
            let hi = lo + chunk.len();
            core.serve(&dests[lo..hi], &clues[lo..hi], chunk, config.prefetch, gate, telemetry);
        },
    );

    let mut classes = EngineStats::default();
    let mut cores = Vec::with_capacity(run.results.len());
    for core in run.results {
        classes.merge(&core.classes);
        cores.push(core.stats);
    }
    let report = ServeReport {
        packets: dests.len() as u64,
        elapsed_ns: run.elapsed_ns,
        replica_clone_ns: cores.iter().map(|c| c.replica_clone_ns).sum(),
        stats: classes,
        cores,
    };
    if let Some(t) = telemetry {
        record_cores(&report.cores, t);
    }
    report
}

/// One serving core's private state: its epoch reader, the replica it
/// serves from and its attribution.
struct ServeCore<'c, A: Address, E> {
    reader: EpochReader<'c, E>,
    replica: E,
    epoch: u64,
    stats: CoreStats,
    classes: EngineStats,
    /// Quarantine substitution buffer: sized once, reused every gated
    /// job, so engaging the gate allocates nothing on the hot path.
    no_clues: Vec<Option<Prefix<A>>>,
}

impl<'c, A: Address, E: CompiledBackend<A>> ServeCore<'c, A, E> {
    /// Registers a reader and clones the priming replica.
    fn prime(cell: &'c EpochCell<E>, worker: usize, batch: usize) -> Self {
        let mut reader = cell.reader();
        let t0 = Instant::now();
        let (replica, epoch) = {
            let guard = reader.pin();
            (guard.replicate(), guard.epoch())
        };
        let stats = CoreStats {
            worker,
            replica_clones: 1,
            replica_clone_ns: t0.elapsed().as_nanos() as u64,
            ..CoreStats::default()
        };
        ServeCore {
            reader,
            replica,
            epoch,
            stats,
            classes: EngineStats::default(),
            no_clues: vec![None; batch],
        }
    }

    /// Serves one job into `out`, first picking up any publish since
    /// the replica was cloned.
    fn serve(
        &mut self,
        dests: &[A],
        clues: &[Option<Prefix<A>>],
        out: &mut [Decision<A>],
        prefetch: usize,
        gate: Option<&QuarantineGate>,
        telemetry: Option<&RuntimeTelemetry>,
    ) {
        // Churn propagation, no barrier: a publish since this replica
        // was cloned is observed here, at the job boundary, by this
        // core alone.
        let current = self.reader.current_epoch();
        let staleness = current.saturating_sub(self.epoch);
        if let Some(t) = telemetry {
            t.staleness_epochs.observe(staleness);
        }
        if current != self.epoch {
            self.stats.max_staleness = self.stats.max_staleness.max(staleness);
            let t = Instant::now();
            let guard = self.reader.pin();
            self.replica = guard.replicate();
            self.epoch = guard.epoch();
            let ns = t.elapsed().as_nanos() as u64;
            self.stats.replica_clones += 1;
            self.stats.replica_clone_ns += ns;
            if let Some(t) = telemetry {
                t.replica_clone_us.observe(ns / 1_000);
            }
        }
        // The quarantine switch, observed per job like churn: while
        // the reputation layer holds the gate engaged, this batch
        // serves clue-less — same engine, same decisions (soundness),
        // no clue-table probes.
        let clues = match gate {
            Some(g) if g.is_engaged() => &self.no_clues[..dests.len()],
            _ => clues,
        };
        let t = Instant::now();
        let s = self.replica.lookup_batch_interleaved(dests, clues, out, prefetch);
        self.stats.busy_ns += t.elapsed().as_nanos() as u64;
        self.classes.merge(&s);
        self.stats.packets += dests.len() as u64;
        self.stats.batches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::sim::run_workload_per_packet;
    use crate::topology::Topology;
    use clue_core::{ClueEngine, EngineConfig, Method, Stage};
    use clue_lookup::Family;
    use clue_trie::Ip4;

    fn build(method: Method) -> (Network<Ip4>, Vec<RouterId>) {
        let (topo, edges) = Topology::backbone(4, 2);
        let mut cfg = NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, method));
        cfg.specifics_per_origin = 12;
        cfg.seed = 42;
        (Network::build(topo, cfg), edges)
    }

    /// A backbone in the Section 5.4 mode: edges resolve packets in the
    /// core routers' tables for them.
    fn build_shifting() -> (Network<Ip4>, Vec<RouterId>) {
        let (topo, edges) = Topology::backbone(4, 1);
        let mut cfg =
            NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, Method::Advance));
        cfg.specifics_per_origin = 8;
        cfg.core = vec![0, 1, 2, 3];
        cfg.shift_work_to_edges = true;
        cfg.seed = 11;
        (Network::build(topo, cfg), edges)
    }

    #[test]
    fn runtime_equals_scalar_reference_at_several_worker_counts() {
        let (mut net, edges) = build(Method::Advance);
        let seq = run_workload_per_packet(&mut net, &edges, 150, 7);
        let stride = StrideNetwork::freeze(&net, StrideConfig::default()).unwrap();
        for workers in [1, 2, 4, 8] {
            let rt = stride.run_workload(&edges, 150, 7, workers);
            assert_eq!(rt, seq, "bit-identity at {workers} workers");
        }
    }

    #[test]
    fn every_backend_serves_the_identical_workload() {
        use clue_core::{CompressedConfig, FrozenEngine};
        let (mut net, edges) = build(Method::Advance);
        let seq = run_workload_per_packet(&mut net, &edges, 120, 9);
        let frozen: CompiledNetwork<Ip4, FrozenEngine<Ip4>> =
            CompiledNetwork::compile(&net, &()).unwrap();
        assert_eq!(frozen.run_workload(&edges, 120, 9, 3), seq, "frozen backend");
        let compressed = CompressedNetwork::compile(&net, &CompressedConfig).unwrap();
        assert_eq!(compressed.run_workload(&edges, 120, 9, 3), seq, "compressed backend");
    }

    #[test]
    fn compressed_serving_matches_the_plain_batch_lookup() {
        use clue_core::CompressedConfig;
        let (engine, dests, clues) = engine_fixture();
        let compressed = engine.freeze_compressed(CompressedConfig).unwrap();
        let (want, want_stats) = compressed.lookup_batch_vec(&dests, &clues);
        let cell = EpochCell::new(compressed);
        let cfg = RuntimeConfig { workers: 3, batch: 128, ..RuntimeConfig::default() };
        let mut got = Vec::new();
        let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, None);
        assert_eq!(got, want, "compressed serving decisions");
        assert_eq!(report.stats, want_stats, "compressed serving class counts");
    }

    #[test]
    fn more_workers_than_jobs_still_cover_every_packet() {
        let (mut net, edges) = build(Method::Simple);
        let seq = run_workload_per_packet(&mut net, &edges, 17, 5);
        let frozen = FrozenNetwork::freeze(&net).unwrap();
        let cfg = RuntimeConfig { workers: 8, batch: 4, ..RuntimeConfig::default() };
        let (stats, report) = frozen.run_workload_timed(&edges, 17, 5, &cfg, None);
        assert_eq!(stats, seq, "5 jobs over 8 workers");
        assert_eq!(report.cores.len(), 8);
        let hops: u64 = stats.per_router.iter().map(|s| s.samples()).sum();
        assert_eq!(hops, stats.total_hops);
    }

    #[test]
    fn cached_networks_refuse_to_freeze() {
        let (topo, edges) = Topology::backbone(4, 2);
        let mut cfg =
            NetworkConfig::new(edges, EngineConfig::new(Family::Regular, Method::Advance));
        cfg.specifics_per_origin = 8;
        cfg.cache_capacity = Some(16);
        cfg.seed = 1;
        let net: Network<Ip4> = Network::build(topo, cfg);
        assert_eq!(FrozenNetwork::freeze(&net).unwrap_err(), FreezeError::CacheEnabled);
    }

    #[test]
    fn profiled_routing_matches_live_routing_hop_by_hop() {
        for (mut net, edges) in [build(Method::Advance), build_shifting()] {
            let origins = net.config().origins.clone();
            let packets: Vec<_> =
                (0..60).map(|i| draw_packet(&net, &edges, &origins, 21, i)).collect();
            let mut prof = StageProfiler::new();
            let profiled: Vec<_> = {
                let frozen = FrozenNetwork::freeze(&net).unwrap();
                let mut route = |&(src, dest)| frozen.route_packet_profiled(src, dest, &mut prof);
                packets.iter().map(&mut route).collect()
            };
            let (mut charged, mut shifted) = (0u64, 0u64);
            for (&(src, dest), p) in packets.iter().zip(&profiled) {
                let l = net.route_packet(src, dest);
                assert_eq!(p.delivered, l.delivered);
                assert_eq!(p.hops.len(), l.hops.len());
                for (ph, lh) in p.hops.iter().zip(&l.hops) {
                    let hop = |h: &HopRecord<Ip4>| (h.router, h.bmp, h.used_clue);
                    assert_eq!(hop(ph), hop(lh));
                    assert_eq!(ph.cost, lh.cost, "cost parity at router {}", ph.router);
                    assert_eq!(ph.shift_cost, lh.shift_cost);
                    charged += ph.cost.total();
                    shifted += ph.shift_cost.total();
                }
            }
            // Every charged tick is attributed to exactly one stage; the
            // unprofiled shift leg charges shift_cost, not cost.
            assert_eq!(prof.total_ticks(), charged);
            assert!(prof.stage(Stage::Root).visits > 0);
            assert_eq!(shifted > 0, net.config().shift_work_to_edges);
        }
    }

    #[test]
    fn profile_workload_matches_run_workload_at_any_worker_count() {
        let (net, edges) = build(Method::Advance);
        let frozen = FrozenNetwork::freeze(&net).unwrap();
        let plain = frozen.run_workload(&edges, 90, 17, 3);
        let (s1, p1) = frozen.profile_workload(&edges, 90, 17, 1);
        let (s4, p4) = frozen.profile_workload(&edges, 90, 17, 4);
        assert_eq!(s1, plain, "profiling must not change the workload stats");
        assert_eq!(s4, plain);
        assert_eq!(p1.lookups(), plain.total_hops, "one profiled lookup per hop");
        assert_eq!(p4.lookups(), p1.lookups());
        // The predicted half of the attribution is deterministic; only
        // the measured nanoseconds depend on the machine and workers.
        assert_eq!(p4.total_ticks(), p1.total_ticks());
        assert_eq!(p4.total_bytes(), p1.total_bytes());
        for stage in Stage::all() {
            assert_eq!(p4.stage(stage).visits, p1.stage(stage).visits, "{}", stage.label());
            assert_eq!(p4.stage(stage).ticks, p1.stage(stage).ticks, "{}", stage.label());
            assert_eq!(p4.stage(stage).bytes, p1.stage(stage).bytes, "{}", stage.label());
        }
        assert!(p1.total_ticks() > 0);
    }

    #[test]
    fn per_core_rates_divide_by_each_cores_own_busy_time() {
        let core =
            |worker, busy_ns| CoreStats { worker, packets: 1_000, busy_ns, ..CoreStats::default() };
        let cores = vec![core(0, 1_000_000), core(1, 2_000_000), core(2, 0)];
        let report = RuntimeReport { elapsed_ns: 4_000_000, replica_clone_ns: 0, cores };
        assert_eq!(report.per_core_pps(), vec![1e6, 5e5, 0.0], "an idle core reports 0");
        let serve = ServeReport {
            packets: 3_000,
            elapsed_ns: 4_000_000,
            replica_clone_ns: 0,
            stats: EngineStats::default(),
            cores: report.cores.clone(),
        };
        assert_eq!(serve.per_core_pps(), report.per_core_pps());
    }

    #[test]
    fn runtime_report_attributes_every_packet_to_a_core() {
        let (net, edges) = build(Method::Advance);
        let stride = StrideNetwork::freeze(&net, StrideConfig::default()).unwrap();
        let cfg = RuntimeConfig { workers: 3, batch: 16, ..RuntimeConfig::default() };
        let (stats, report) = stride.run_workload_timed(&edges, 200, 5, &cfg, None);
        assert_eq!(stats.packets, 200);
        assert_eq!(report.cores.len(), 3);
        let attributed: u64 = report.cores.iter().map(|c| c.packets).sum();
        assert_eq!(attributed, 200);
        assert!(report.cores.iter().all(|c| c.replica_clones == 1));
        assert!(report.replica_clone_ns > 0);
        assert!(report.pps() > 0.0);
        assert_eq!(report.per_core_pps().len(), 3);
    }

    #[test]
    fn runtime_flushes_telemetry() {
        let (net, edges) = build(Method::Simple);
        let stride = StrideNetwork::freeze(&net, StrideConfig::default()).unwrap();
        let t = RuntimeTelemetry::detached();
        let cfg = RuntimeConfig { workers: 2, batch: 32, ..RuntimeConfig::default() };
        stride.run_workload_timed(&edges, 100, 3, &cfg, Some(&t));
        assert_eq!(t.workers.get(), 2.0);
        assert_eq!(t.packets_total.get(), 100);
        assert!(t.batches_total.get() >= 4, "100 packets / batch 32 needs >= 4 jobs");
        assert_eq!(t.replica_clones_total.get(), 2, "one priming clone per core");
    }

    #[test]
    fn shift_work_mode_is_preserved() {
        let (mut net, edges) = build_shifting();
        let seq = run_workload_per_packet(&mut net, &edges, 60, 2);
        let stride = StrideNetwork::freeze(&net, StrideConfig::default()).unwrap();
        assert_eq!(stride.run_workload(&edges, 60, 2, 4), seq, "stride backend");
        let frozen = FrozenNetwork::freeze(&net).unwrap();
        assert_eq!(frozen.run_workload(&edges, 60, 2, 4), seq, "frozen backend");
        assert!(seq.per_router.iter().any(|s| s.sum().total() > 0));
    }

    fn engine_fixture() -> (ClueEngine<Ip4>, Vec<Ip4>, Vec<Option<Prefix<Ip4>>>) {
        let parse = |s: &str| s.parse::<Prefix<Ip4>>().unwrap();
        let prefixes: Vec<Prefix<Ip4>> = (0u32..64)
            .map(|i| Prefix::new(Ip4::from((10 << 24) | (i << 16)), 16))
            .chain((0u32..64).map(|i| Prefix::new(Ip4::from((10 << 24) | (i << 16) | (5 << 8)), 24)))
            .collect();
        let engine = ClueEngine::precomputed(
            &prefixes,
            &prefixes,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let mut dests = Vec::new();
        let mut clues = Vec::new();
        for i in 0..3000u32 {
            dests.push(Ip4::from((10 << 24) | ((i % 64) << 16) | ((i % 7) * 251)));
            clues.push(if i % 3 == 0 { Some(parse("10.0.0.0/8")) } else { Some(Prefix::new(Ip4::from((10 << 24) | ((i % 64) << 16)), 16)) });
        }
        (engine, dests, clues)
    }

    #[test]
    fn serving_matches_the_plain_batch_lookup() {
        let (engine, dests, clues) = engine_fixture();
        let stride = engine.freeze_stride(StrideConfig::default()).unwrap();
        let cell = EpochCell::new(stride.replicate());
        // (packets, workers, batch): the fixture at 1/2/4 workers, then
        // the driver's edge shapes — no packets; one packet over 8
        // workers, so 7 get no job; a length that is not a multiple of
        // the batch; batch 1.
        let n = dests.len();
        let shapes = [
            (n, 1, 128),
            (n, 2, 128),
            (n, 4, 128),
            (0, 4, 128),
            (1, 8, 128),
            (1000, 3, 96),
            (37, 4, 1),
        ];
        for (len, workers, batch) in shapes {
            let (dests, clues) = (&dests[..len], &clues[..len]);
            let (want, want_stats) = stride.lookup_batch_vec(dests, clues);
            let cfg = RuntimeConfig { workers, batch, ..RuntimeConfig::default() };
            let mut got = Vec::new();
            let report = serve_lookups(&cell, dests, clues, &mut got, &cfg, None);
            let shape = format!("{len} packets, {workers} workers, batch {batch}");
            assert_eq!(got, want, "decisions: {shape}");
            assert_eq!(report.stats, want_stats, "class counts: {shape}");
            assert_eq!(report.packets, len as u64);
            // Job k covers packets [k·batch, …) and goes to worker
            // k % workers.
            let mut share = vec![0u64; workers];
            for (k, lo) in (0..len).step_by(batch).enumerate() {
                share[k % workers] += (len - lo).min(batch) as u64;
            }
            let packets: Vec<u64> = report.cores.iter().map(|c| c.packets).collect();
            assert_eq!(packets, share, "round-robin share: {shape}");
            assert_eq!(report.cores.iter().map(|c| c.max_staleness).max(), Some(0));
        }
    }

    #[test]
    fn ipv6_serving_matches_the_plain_batch_lookup() {
        use clue_core::CompressedConfig;
        use clue_tablegen::{
            derive_neighbor, generate, synthesize_ipv6, NeighborConfig, TrafficConfig,
        };
        use clue_trie::{BinaryTrie, Ip6};
        let sender = synthesize_ipv6(1500, 403);
        let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(404));
        let traffic = TrafficConfig { count: 2000, ..TrafficConfig::paper(501) };
        let dests = generate(&sender, &receiver, &traffic);
        let sender_fib: BinaryTrie<Ip6, ()> = sender.iter().map(|&p| (p, ())).collect();
        let clues: Vec<Option<Prefix<Ip6>>> =
            dests.iter().map(|&d| sender_fib.lookup(d).map(|r| sender_fib.prefix(r))).collect();
        let engine = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        )
        .freeze_compressed(CompressedConfig)
        .unwrap();
        let (want, want_stats) = engine.lookup_batch_vec(&dests, &clues);
        let none: Vec<Option<Prefix<Ip6>>> = vec![None; dests.len()];
        let (want_gated, want_gated_stats) = engine.lookup_batch_vec(&dests, &none);
        let cell = EpochCell::new(engine);
        let gate = std::sync::Arc::new(QuarantineGate::default());
        for workers in [1, 2, 4] {
            let cfg = RuntimeConfig {
                workers,
                batch: 128,
                gate: Some(gate.clone()),
                ..RuntimeConfig::default()
            };
            let mut got = Vec::new();
            let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, None);
            assert_eq!(got, want, "IPv6 decisions at {workers} workers");
            assert_eq!(report.stats, want_stats, "IPv6 class counts at {workers} workers");
            gate.engage();
            let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, None);
            assert_eq!(got, want_gated, "gated IPv6 decisions at {workers} workers");
            assert_eq!(report.stats, want_gated_stats, "gated IPv6 counts at {workers} workers");
            gate.lift();
        }
        assert!(want_stats.finals > 0, "the IPv6 fixture exercises clued lookups");
    }

    #[test]
    fn engaged_gate_serves_exactly_like_an_all_none_clue_run() {
        let (engine, dests, clues) = engine_fixture();
        let stride = engine.freeze_stride(StrideConfig::default()).unwrap();
        let none_clues: Vec<Option<Prefix<Ip4>>> = vec![None; dests.len()];
        let (want_quarantined, want_quarantined_stats) =
            stride.lookup_batch_vec(&dests, &none_clues);
        let (want_clued, _) = stride.lookup_batch_vec(&dests, &clues);
        let cell = EpochCell::new(stride);
        let gate = std::sync::Arc::new(QuarantineGate::default());
        gate.engage();
        let cfg = RuntimeConfig {
            workers: 2,
            batch: 128,
            gate: Some(gate.clone()),
            ..RuntimeConfig::default()
        };
        let mut got = Vec::new();
        let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, None);
        assert_eq!(got, want_quarantined, "an engaged gate must serve clue-less");
        assert_eq!(report.stats, want_quarantined_stats);
        let clued = |s: &EngineStats| s.finals + s.continued + s.misses;
        assert_eq!(clued(&report.stats), 0, "no clue may cross an engaged gate");
        // Lifting the gate restores clued serving with the same config.
        gate.lift();
        let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, None);
        assert_eq!(got, want_clued, "a lifted gate must serve clues again");
        assert!(clued(&report.stats) > 0);
    }

    #[test]
    fn publishes_propagate_to_every_core_without_a_barrier() {
        let (engine, dests, clues) = engine_fixture();
        let stride = engine.freeze_stride(StrideConfig::default()).unwrap();
        let (want, _) = stride.lookup_batch_vec(&dests, &clues);
        let cell = EpochCell::new(stride.replicate());
        // Publish a bit-identical recompile before serving: every core
        // primes at epoch 1... unless it pinned before the publish, in
        // which case it must observe the publish at a job boundary and
        // re-clone. Either way the decisions cannot change.
        cell.publish(stride.replicate());
        let t = RuntimeTelemetry::detached();
        let cfg = RuntimeConfig { workers: 2, batch: 64, ..RuntimeConfig::default() };
        let mut got = Vec::new();
        let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, Some(&t));
        assert_eq!(got, want, "a bit-identical publish never changes decisions");
        // Every core primed from the freshest snapshot (pin loads the
        // current pointer), so no refresh was needed; the staleness
        // histogram saw only zeros.
        assert_eq!(report.cores.len(), 2);
        assert!(t.staleness_epochs.snapshot().count > 0);
    }

    #[test]
    fn mid_run_publish_refreshes_replicas_at_a_job_boundary() {
        let (engine, dests, clues) = engine_fixture();
        let stride = engine.freeze_stride(StrideConfig::default()).unwrap();
        let cell = EpochCell::new(stride.replicate());
        // A writer hammers bit-identical publishes while the runtime
        // serves: workers must keep answering correctly and observe at
        // least the publishes' existence (staleness/refresh counters),
        // with zero locks anywhere on the path.
        let (want, _) = stride.lookup_batch_vec(&dests, &clues);
        std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                for _ in 0..50 {
                    cell.publish(stride.replicate());
                    cell.reclaim();
                    std::thread::yield_now();
                }
            });
            let cfg = RuntimeConfig { workers: 4, batch: 16, ..RuntimeConfig::default() };
            let mut got = Vec::new();
            let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, None);
            assert_eq!(got, want, "bit-identical publishes never change decisions");
            assert_eq!(report.packets, dests.len() as u64);
            publisher.join().unwrap();
        });
        assert_eq!(cell.current_epoch(), 50);
    }

    #[test]
    fn every_tag_hop_answers_exactly_like_the_fib() {
        let (net, _) = build(Method::Advance);
        let stride = StrideNetwork::freeze(&net, StrideConfig::default()).unwrap();
        let mut tags = 0;
        for (compiled, live) in stride.routers.iter().zip(net.routers()) {
            let fib = &live.fib;
            let tables = std::iter::once((&compiled.base, compiled.base_hops.as_slice()))
                .chain(compiled.engines.iter().zip(compiled.engine_hops.iter().map(Vec::as_slice)));
            for (engine, table) in tables {
                assert_eq!(engine.tag_prefixes().len(), table.len());
                for (&p, th) in engine.tag_prefixes().iter().zip(table) {
                    let want = match fib.get(&p).map(|r| *fib.value(r)) {
                        None => EMPTY_HOP,
                        Some(Hop::Local) => LOCAL_HOP,
                        Some(Hop::Via(nh)) => nh as u32,
                    };
                    assert_eq!((th.prefix, th.code), (p, want), "tag for {p}");
                    tags += 1;
                }
            }
        }
        assert!(tags > 0);
    }
}
