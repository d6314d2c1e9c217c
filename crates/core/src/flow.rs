//! The clue lookup, written once for every compiled backend.
//!
//! The paper's clue procedure (§3.1, Figure 5) is one algorithm,
//! layered the same way over any lookup structure: probe the clue
//! table; an entry with no continuation pointer is final (its FD is the
//! answer); otherwise run the restricted search from the pointer and
//! fall back to the FD when it finds nothing deeper; an unknown clue
//! falls back to the full lookup. [`CompiledBackend`] carries that
//! procedure as provided methods — the classify step (Clueless /
//! Malformed), the one [`Cost::hash_probe`], the Final / Continued /
//! Miss dispatch, the split `lookup_prepare` / `lookup_finish_tag`
//! form, and the interleaved batch loop with its decode-and-prefetch
//! pass — monomorphised per backend.
//!
//! Each backend supplies only its layout primitives, through the
//! sealed [`Layout`] supertrait: one root walk and one continued walk
//! that return a `Hit` (the deepest route found), the conversions of a
//! `Hit` to a prefix and to a tag, and its clue index ([`ClueIndex`]:
//! the probe and its prefetch target).
//!
//! Every implementation honors the same semantic baseline — identical
//! BMP, [`LookupClass`] and tick-identical [`Cost`] versus the scalar
//! engine — so backends are interchangeable *results-wise* and differ
//! only in bytes touched per lookup. The equivalence property tests
//! (`tests/*_prop.rs`) enforce this per backend.

use std::fmt;

use clue_telemetry::{BatchTelemetry, LookupClass, LookupEvent, LookupTelemetry};
use clue_trie::{Address, Cost, Prefix};

use crate::backend::BackendError;
use crate::cram::{CramLevel, CramReport};
use crate::engine::{ClueEngine, EngineStats, Method};
use crate::frozen::{Decision, NO_ROUTE};

/// Default interleave group for the prefetched batch loop: 8 packets
/// in flight cover an L2 miss on the machines we target without
/// spilling the per-group state out of registers. Benchmarked against
/// 1/4/16 in `clue-bench/benches/stride.rs`.
pub const DEFAULT_INTERLEAVE: usize = 8;

/// Hard cap on the interleave group: the decoded ops live in a fixed
/// stack buffer so the group loop never touches the allocator (larger
/// requests are clamped, which is semantically inert).
const MAX_INTERLEAVE: usize = 64;

/// “No match” sentinel returned by
/// [`CompiledBackend::lookup_finish_tag`]; every real tag is below it.
pub const NO_TAG: u32 = NO_ROUTE;

/// A packet decoded by the classify step: either a full walk (with its
/// already-determined class) or a clue probe whose home counter is
/// precomputed — the resolve step starts at the slot the prefetch
/// pointed to instead of re-deriving it.
#[derive(Clone, Copy)]
enum PacketOp {
    /// Clue not consulted: Clueless or Malformed, walk from the root.
    Walk(LookupClass),
    /// Clue consulted: probe length `len`'s window from counter `k`.
    Probe { k: u32, len: u8 },
}

/// An opaque decoded lookup with its first probe line already
/// requested from memory — the caller-driven form of the interleaved
/// batch loop's two passes, for callers that interleave *walks* rather
/// than flat batches (see [`CompiledBackend::lookup_prepare`]).
#[derive(Clone, Copy)]
pub struct PreparedLookup(PacketOp);

/// A backend's clue table: where a clue's entry lives and what it
/// holds. Sealed (public in a private module).
pub trait ClueIndex<A: Address> {
    /// A probed entry (an index into the backend's entry storage).
    type Entry: Copy;

    /// Whether the probe's home slot is address-computable, so the
    /// batch loop can prefetch it a pass ahead. Without it the batch
    /// runs one pass per packet.
    const PREFETCHABLE: bool;

    /// The probe counter a lookup of `clue` starts from.
    fn home(&self, clue: Prefix<A>) -> u32;

    /// Requests the line the probe of length `len` from `home` reads.
    fn prefetch(&self, len: u8, home: u32);

    /// The entry of `clue`, probing from `home`; `None` for an unknown
    /// clue.
    fn probe(&self, clue: Prefix<A>, home: u32) -> Option<Self::Entry>;

    /// The entry's continuation vertex (the paper's Ptr), `None` when
    /// the entry is final.
    fn continuation(&self, entry: Self::Entry) -> Option<u32>;

    /// The entry's FD field.
    fn fd(&self, entry: Self::Entry) -> Option<Prefix<A>>;

    /// The FD field's dense tag ([`NO_TAG`] when absent).
    fn fd_tag(&self, entry: Self::Entry) -> u32;
}

/// The per-layout primitives the shared flow runs on. Sealed (public
/// in a private module): only this crate's backends implement it.
pub trait Layout<A: Address> {
    /// The deepest route a walk found.
    type Hit: Copy;

    /// The walk found no route.
    const NO_HIT: Self::Hit;

    /// The clue table behind the probe.
    type Clues: ClueIndex<A>;

    /// The clue table.
    fn clues(&self) -> &Self::Clues;

    /// Requests the first line a root walk of `dest` reads.
    fn prefetch_root(&self, dest: A);

    /// The full (clueless) lookup: root-down walk, charging one
    /// [`Cost::trie_node`] per binary vertex the scalar walk visits.
    fn root_walk(&self, dest: A, cost: &mut Cost) -> Self::Hit;

    /// The continued walk from clue vertex `start` at depth `depth`,
    /// honoring the Claim-1 continue bit; charged like the scalar
    /// continuation.
    fn continued_walk(&self, start: u32, depth: u8, dest: A, cost: &mut Cost) -> Self::Hit;

    /// The route prefix of `hit` on `dest`'s path.
    fn hit_prefix(&self, hit: Self::Hit, dest: A) -> Option<Prefix<A>>;

    /// The dense tag of `hit` ([`NO_TAG`] for [`Self::NO_HIT`]).
    fn hit_tag(&self, hit: Self::Hit) -> u32;

    /// The batch counters the batch loop records into.
    fn batch_telemetry(&self) -> Option<&BatchTelemetry>;
}

/// A compiled, read-only lookup engine: compilation from a scalar
/// engine, a layout self-description feeding the [`CramReport`] cache
/// model, and the shared clue flow (see the module docs) in scalar,
/// split (prepare / finish-to-tag) and batched interleaved forms.
pub trait CompiledBackend<A: Address>:
    Layout<A> + Clone + fmt::Debug + Send + Sync + Sized + 'static
{
    /// The canonical lowercase backend name.
    const NAME: &'static str;

    /// Backend-specific compilation knobs.
    type Config: Clone + Default + Send + Sync;

    /// Compiles a scalar engine into this backend.
    fn compile(engine: &ClueEngine<A>, config: &Self::Config) -> Result<Self, BackendError>;

    /// The compiled method flavour.
    fn method(&self) -> Method;

    /// The tag → prefix dictionary behind [`Self::lookup_finish_tag`]:
    /// every prefix a lookup can resolve to (route vertices, then
    /// FD-only prefixes in canonical order), identical on every backend
    /// compiled from the same snapshot.
    fn tag_prefixes(&self) -> &[Prefix<A>];

    /// A telemetry-detached per-core replica.
    fn replicate(&self) -> Self;

    /// The attached per-lookup telemetry (inherited from the scalar
    /// engine at compile time), which the batch loop records into.
    fn telemetry(&self) -> Option<&LookupTelemetry>;

    /// Total resident bytes of every compiled structure.
    fn memory_bytes(&self) -> usize;

    /// Bytes of the walk arena (what a clueless lookup traverses).
    fn arena_bytes(&self) -> u64;

    /// Bytes of the clue-probe structures.
    fn bucket_bytes(&self) -> u64;

    /// Bytes of the tag → prefix dictionary.
    fn dict_bytes(&self) -> u64;

    /// The walk arena as `(bytes, expected visits per uniform-random
    /// clueless lookup)` levels, hottest first — input to the CRAM
    /// cache-residency model.
    fn cram_levels(&self) -> Vec<CramLevel>;

    /// Runs the [`CramReport`] cache model over this layout.
    fn cram(&self) -> CramReport {
        CramReport::build(
            self.cram_levels(),
            self.arena_bytes(),
            self.bucket_bytes(),
            self.dict_bytes(),
        )
    }

    /// One lookup: the scalar [`ClueEngine::lookup`] flow with learning,
    /// caching and self-mutation compiled out. Returns the BMP and the
    /// resolution class; charges `cost` tick-for-tick like the scalar
    /// path.
    ///
    /// Does **not** record telemetry or stats — the batch API owns
    /// those so their branches amortize.
    #[inline]
    fn lookup(
        &self,
        dest: A,
        clue: Option<Prefix<A>>,
        cost: &mut Cost,
    ) -> (Option<Prefix<A>>, LookupClass) {
        let (hit, entry, class) = resolve(self, classify(self, dest, clue), clue, dest, cost);
        (bmp(self, hit, entry, dest), class)
    }

    /// As [`Self::lookup`], packaged as a [`Decision`].
    fn lookup_decision(&self, dest: A, clue: Option<Prefix<A>>) -> Decision<A> {
        let mut cost = Cost::new();
        let (bmp, class) = self.lookup(dest, clue, &mut cost);
        Decision { bmp, class, cost }
    }

    /// Decodes one packet and prefetches the cache line its lookup
    /// will start from (the root or the clue probe's home), without
    /// resolving it. Resolve with [`Self::lookup_finish_tag`], passing
    /// the same `dest` and `clue`; the longer the caller waits between
    /// the two, the more of the fetch latency is hidden.
    #[inline]
    fn lookup_prepare(&self, dest: A, clue: Option<Prefix<A>>) -> PreparedLookup {
        let op = classify(self, dest, clue);
        match op {
            PacketOp::Walk(_) => self.prefetch_root(dest),
            PacketOp::Probe { k, len } => self.clues().prefetch(len, k),
        }
        PreparedLookup(op)
    }

    /// Resolves a prepared lookup to a dense route tag: the winning
    /// payload's index in [`Self::tag_prefixes`], [`NO_TAG`] for no
    /// match. `tag_prefixes()[tag]` is exactly the prefix
    /// [`Self::lookup`] returns, with the same class and [`Cost`]
    /// charges — so a caller that maps every result through a
    /// per-prefix side table (say prefix → next hop) indexes a
    /// tag-addressed array instead of hashing a prefix key.
    #[inline]
    fn lookup_finish_tag(
        &self,
        op: PreparedLookup,
        dest: A,
        clue: Option<Prefix<A>>,
        cost: &mut Cost,
    ) -> (u32, LookupClass) {
        let (hit, entry, class) = resolve(self, op.0, clue, dest, cost);
        let tag = match self.hit_tag(hit) {
            NO_TAG => entry.map_or(NO_TAG, |e| self.clues().fd_tag(e)),
            tag => tag,
        };
        (tag, class)
    }

    /// Batched lookup at the default interleave
    /// ([`DEFAULT_INTERLEAVE`]); see [`Self::lookup_batch_interleaved`].
    ///
    /// # Panics
    /// Panics unless `dests`, `clues` and `out` have equal lengths.
    fn lookup_batch(
        &self,
        dests: &[A],
        clues: &[Option<Prefix<A>>],
        out: &mut [Decision<A>],
    ) -> EngineStats {
        self.lookup_batch_interleaved(dests, clues, out, DEFAULT_INTERLEAVE)
    }

    /// Batched lookup: resolves `dests[i]` with `clues[i]` into
    /// `out[i]` and returns the per-class counts for the batch. Packets
    /// run in lockstep groups of `group`: pass one decodes each packet
    /// and prefetches its first probe target, pass two resolves the
    /// group while the fetches are in flight. `group <= 1` — and a
    /// backend whose probe home is not address-computable — runs one
    /// pass per packet; larger groups are clamped to 64 so the decoded
    /// ops stay on the stack. Decisions and stats are identical at
    /// every group size: interleave is a latency treatment, not a
    /// semantic one.
    ///
    /// The telemetry branch is hoisted out of the per-packet loop; with
    /// per-lookup telemetry attached, every packet records a full
    /// [`LookupEvent`] (mirroring the scalar engine's event stream).
    ///
    /// # Panics
    /// Panics unless `dests`, `clues` and `out` have equal lengths.
    fn lookup_batch_interleaved(
        &self,
        dests: &[A],
        clues: &[Option<Prefix<A>>],
        out: &mut [Decision<A>],
        group: usize,
    ) -> EngineStats {
        assert_eq!(dests.len(), clues.len(), "one clue slot per destination");
        assert_eq!(dests.len(), out.len(), "one decision slot per destination");
        let group = if <Self::Clues as ClueIndex<A>>::PREFETCHABLE { group } else { 1 };
        let (stats, groups, prefetches) = match self.telemetry() {
            None => batch_core(self, dests, clues, out, group, |_, _, _| {}),
            Some(t) => batch_core(self, dests, clues, out, group, |clue_len, class, cost| {
                t.record(&LookupEvent {
                    clue_len,
                    class,
                    search_depth: search_depth(class, cost),
                    cache_hit: None,
                    memory_references: cost.total(),
                });
            }),
        };
        if let Some(bt) = self.batch_telemetry() {
            bt.record_batch(dests.len() as u64, groups, prefetches);
        }
        stats
    }

    /// As [`Self::lookup_batch`], resizing and reusing a caller-supplied
    /// buffer — the steady-state form for drivers that loop over
    /// windows.
    fn lookup_batch_into(
        &self,
        dests: &[A],
        clues: &[Option<Prefix<A>>],
        out: &mut Vec<Decision<A>>,
    ) -> EngineStats {
        out.clear();
        out.resize(dests.len(), Decision::default());
        self.lookup_batch(dests, clues, out)
    }

    /// Allocating convenience over [`Self::lookup_batch`].
    fn lookup_batch_vec(
        &self,
        dests: &[A],
        clues: &[Option<Prefix<A>>],
    ) -> (Vec<Decision<A>>, EngineStats) {
        let mut out = Vec::new();
        let stats = self.lookup_batch_into(dests, clues, &mut out);
        (out, stats)
    }
}

/// A resolved lookup before it is read out as a prefix or a tag: the
/// walk's hit, the probed clue entry (whose FD is the fallback when the
/// hit is empty) and the class.
type Resolved<A, E> = (
    <E as Layout<A>>::Hit,
    Option<<<E as Layout<A>>::Clues as ClueIndex<A>>::Entry>,
    LookupClass,
);

/// The classify step: Clueless (no clue, or the Common method),
/// Malformed (the clue does not contain `dest`), else a probe from the
/// clue's home counter.
#[inline]
fn classify<A: Address, E: CompiledBackend<A>>(
    engine: &E,
    dest: A,
    clue: Option<Prefix<A>>,
) -> PacketOp {
    match (engine.method(), clue) {
        (Method::Common, _) | (_, None) => PacketOp::Walk(LookupClass::Clueless),
        (_, Some(s)) if s.contains(dest) => {
            PacketOp::Probe { k: engine.clues().home(s), len: s.len() }
        }
        (_, Some(_)) => PacketOp::Walk(LookupClass::Malformed),
    }
}

/// The Final / Continued / Miss dispatch. The probe charges the
/// paper's single mandatory [`Cost::hash_probe`]; the layout's walks
/// charge the rest.
#[inline]
fn resolve<A: Address, E: Layout<A>>(
    engine: &E,
    op: PacketOp,
    clue: Option<Prefix<A>>,
    dest: A,
    cost: &mut Cost,
) -> Resolved<A, E> {
    match op {
        PacketOp::Walk(class) => (engine.root_walk(dest, cost), None, class),
        PacketOp::Probe { k, len } => {
            cost.hash_probe();
            let s = clue.expect("a probe op is only decoded from a present clue");
            let clues = engine.clues();
            match clues.probe(s, k) {
                // Unknown clue: full lookup, nothing learned.
                None => (engine.root_walk(dest, cost), None, LookupClass::Miss),
                Some(entry) => match clues.continuation(entry) {
                    None => (E::NO_HIT, Some(entry), LookupClass::Final),
                    Some(start) => (
                        engine.continued_walk(start, len, dest, cost),
                        Some(entry),
                        LookupClass::Continued,
                    ),
                },
            }
        }
    }
}

/// Reads a resolved lookup out as a prefix: the hit, else the entry's
/// FD.
#[inline]
fn bmp<A: Address, E: Layout<A>>(
    engine: &E,
    hit: E::Hit,
    entry: Option<<E::Clues as ClueIndex<A>>::Entry>,
    dest: A,
) -> Option<Prefix<A>> {
    engine.hit_prefix(hit, dest).or_else(|| entry.and_then(|e| engine.clues().fd(e)))
}

/// The batch loop body. With `group > 1` each group is resolved in
/// two passes — decode-and-prefetch, then finish from the decoded ops
/// — so every prefetch has a group's worth of work to hide behind and
/// the classify/hash step runs once per packet. Returns `(stats,
/// groups, prefetches)` for the batch telemetry record.
fn batch_core<A: Address, E: CompiledBackend<A>>(
    engine: &E,
    dests: &[A],
    clues: &[Option<Prefix<A>>],
    out: &mut [Decision<A>],
    group: usize,
    mut record: impl FnMut(Option<u8>, LookupClass, Cost),
) -> (EngineStats, u64, u64) {
    let mut stats = EngineStats::default();
    let mut groups = 0u64;
    let mut prefetches = 0u64;
    if group <= 1 {
        groups = dests.len() as u64;
        for ((&dest, &clue), slot) in dests.iter().zip(clues).zip(out.iter_mut()) {
            let mut cost = Cost::new();
            let (bmp, class) = engine.lookup(dest, clue, &mut cost);
            bump(&mut stats, class);
            record(clue.map(|s| s.len()), class, cost);
            *slot = Decision { bmp, class, cost };
        }
    } else {
        let group = group.min(MAX_INTERLEAVE);
        let mut ops = [PreparedLookup(PacketOp::Walk(LookupClass::Clueless)); MAX_INTERLEAVE];
        for ((dests, clues), out) in
            dests.chunks(group).zip(clues.chunks(group)).zip(out.chunks_mut(group))
        {
            groups += 1;
            prefetches += dests.len() as u64;
            for ((&dest, &clue), op) in dests.iter().zip(clues).zip(ops.iter_mut()) {
                *op = engine.lookup_prepare(dest, clue);
            }
            for (((&dest, &clue), slot), op) in
                dests.iter().zip(clues).zip(out.iter_mut()).zip(&ops)
            {
                let mut cost = Cost::new();
                let (hit, entry, class) = resolve(engine, op.0, clue, dest, &mut cost);
                let bmp = bmp(engine, hit, entry, dest);
                bump(&mut stats, class);
                record(clue.map(|s| s.len()), class, cost);
                *slot = Decision { bmp, class, cost };
            }
        }
    }
    (stats, groups, prefetches)
}

/// Counts one resolved lookup in its class.
#[inline]
pub(crate) fn bump(stats: &mut EngineStats, class: LookupClass) {
    match class {
        LookupClass::Clueless => stats.clueless += 1,
        LookupClass::Final => stats.finals += 1,
        LookupClass::Continued => stats.continued += 1,
        LookupClass::Miss => stats.misses += 1,
        LookupClass::Malformed => stats.malformed += 1,
    }
}

/// The scalar engine reports the continuation's cost as the search
/// depth; for a Continued lookup that is everything but the mandatory
/// table probe.
#[inline]
fn search_depth(class: LookupClass, cost: Cost) -> u64 {
    if class == LookupClass::Continued {
        cost.total() - cost.hash_probes
    } else {
        0
    }
}
