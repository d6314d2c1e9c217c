//! Selecting and compiling a backend: [`BackendKind`] names the three
//! read-only compilations of a [`ClueEngine`](crate::ClueEngine) — the
//! pointer-flattened [`FrozenEngine`], the multibit [`StrideEngine`]
//! and the entropy-compressed [`CompressedEngine`] — that the serving
//! runtime, the fleet simulator and the CLI can run on, and
//! [`BackendError`] says why a compilation was refused. Each engine
//! implements [`crate::CompiledBackend`] in its own module; the clue
//! flow they share is written once, in `flow.rs`.

use std::fmt;
use std::str::FromStr;

use crate::compressed::CompressedEngine;
use crate::flow::CompiledBackend;
use crate::frozen::{FreezeError, FrozenEngine};
use crate::stride::{StrideEngine, StrideError};

/// Why a backend could not be compiled from a scalar engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The scalar engine's configuration cannot be frozen at all.
    Freeze(FreezeError),
    /// The frozen snapshot cannot be stride-expanded as configured.
    Stride(StrideError),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Freeze(e) => write!(f, "freeze failed: {e}"),
            BackendError::Stride(e) => write!(f, "stride compilation failed: {e}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<FreezeError> for BackendError {
    fn from(e: FreezeError) -> Self {
        BackendError::Freeze(e)
    }
}

impl From<StrideError> for BackendError {
    fn from(e: StrideError) -> Self {
        BackendError::Stride(e)
    }
}

/// The compiled backends a consumer can select by name (CLI `--backend`
/// flags, runtime configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The pointer-flattened BFS arena ([`FrozenEngine`]).
    Frozen,
    /// The multibit direct-indexed expansion ([`StrideEngine`]).
    Stride,
    /// The entropy-compressed bitmap arena ([`CompressedEngine`]).
    Compressed,
}

impl BackendKind {
    /// Every selectable backend, in presentation order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Frozen, BackendKind::Stride, BackendKind::Compressed];

    /// The canonical lowercase name (`frozen`, `stride`, `compressed`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Frozen => FrozenEngine::<clue_trie::Ip4>::NAME,
            BackendKind::Stride => StrideEngine::<clue_trie::Ip4>::NAME,
            BackendKind::Compressed => CompressedEngine::<clue_trie::Ip4>::NAME,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "frozen" => Ok(BackendKind::Frozen),
            "stride" => Ok(BackendKind::Stride),
            "compressed" => Ok(BackendKind::Compressed),
            other => Err(format!("unknown backend '{other}' (expected frozen|stride|compressed)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedConfig;
    use crate::engine::{ClueEngine, EngineConfig, Method};
    use crate::flow::NO_TAG;
    use crate::frozen::Decision;
    use crate::stride::StrideConfig;
    use clue_lookup::Family;
    use clue_telemetry::LookupClass;
    use clue_trie::{Address, Cost, Ip4, Ip6, Prefix};

    fn p<A: Address + FromStr<Err = clue_trie::ParseAddressError>>(s: &str) -> Prefix<A> {
        s.parse().unwrap()
    }

    fn engine<A: Address>(sender: &[Prefix<A>], receiver: &[Prefix<A>]) -> ClueEngine<A> {
        ClueEngine::precomputed(
            sender,
            receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        )
    }

    fn engine4() -> ClueEngine<Ip4> {
        let sender = [p("10.0.0.0/8"), p("10.1.0.0/16"), p("192.168.0.0/16")];
        let receiver = [
            p("10.0.0.0/8"),
            p("10.1.0.0/16"),
            p("10.1.2.0/24"),
            p("10.2.0.0/16"),
            p("192.168.0.0/16"),
        ];
        engine(&sender, &receiver)
    }

    fn cases4() -> Vec<(Ip4, Option<Prefix<Ip4>>)> {
        let a = |s: &str| s.parse::<Ip4>().unwrap();
        vec![
            (a("10.1.2.3"), None),
            (a("10.1.2.3"), Some(p("10.1.0.0/16"))),
            (a("192.168.3.4"), Some(p("192.168.0.0/16"))),
            (a("10.1.2.3"), Some(p("192.168.0.0/16"))),
            (a("10.1.2.3"), Some(p("10.1.2.0/24"))),
            (a("11.1.2.3"), None),
        ]
    }

    /// A hand-built IPv6 pair: a default route, /48s under a sender
    /// /32, a /64 under one /48 and a /128 host under that.
    fn engine6() -> ClueEngine<Ip6> {
        let sender = [
            p("2001:db8::/32"),
            p("2001:db8:1::/48"),
            p("2001:db8:2::/48"),
            p("2001:db8:3::/48"),
        ];
        let receiver = [
            p("::/0"),
            p("2001:db8:1::/48"),
            p("2001:db8:2::/48"),
            p("2001:db8:2:5::/64"),
            p("2001:db8:2:5::1/128"),
            p("2001:db8:3::/48"),
            p("2001:db9::/48"),
        ];
        engine(&sender, &receiver)
    }

    fn cases6() -> Vec<(Ip6, Option<Prefix<Ip6>>)> {
        let a = |s: &str| s.parse::<Ip6>().unwrap();
        vec![
            (a("2001:db8:2:5::1"), None),                             // clueless
            (a("2001:db8:1::9"), Some(p("2001:db8:1::/48"))),         // final
            (a("2001:db8:2:5::1"), Some(p("2001:db8:2::/48"))),       // continued to the /128
            (a("2001:db8:2:5::2"), Some(p("2001:db8:2::/48"))),       // continued to the /64
            (a("2001:db8:2:6::1"), Some(p("2001:db8:2::/48"))),       // continued, FD fallback
            (a("2001:db8:2:5::1"), Some(p("2001:db8::/32"))),         // problematic /32
            (a("2001:db8:4::1"), Some(p("2001:db8::/32"))),           // problematic, FD = ::/0
            (a("2001:db8:2::1"), Some(p("2001:db8:1::/48"))),         // malformed
            (a("2001:db8:2:5::1"), Some(p("2001:db8:2:5::/64"))),     // unknown clue
            (a("2001:db9::1"), None),                                 // clueless, other /48
        ]
    }

    /// The scalar engine's `(bmp, cost)` per case: the reference every
    /// backend must reproduce.
    fn scalar_reference<A: Address>(
        mut scalar: ClueEngine<A>,
        cases: &[(A, Option<Prefix<A>>)],
    ) -> Vec<(Option<Prefix<A>>, Cost)> {
        cases
            .iter()
            .map(|&(dest, clue)| {
                let mut cost = Cost::new();
                (scalar.lookup(dest, clue, None, &mut cost), cost)
            })
            .collect()
    }

    fn exercise<A: Address, E: CompiledBackend<A>>(
        scalar: &ClueEngine<A>,
        cases: &[(A, Option<Prefix<A>>)],
    ) -> Vec<Decision<A>> {
        let backend = E::compile(scalar, &E::Config::default()).unwrap();
        let mut decisions = Vec::new();
        for &(dest, clue) in cases {
            let d = backend.lookup_decision(dest, clue);
            // The tagged path agrees with the value path.
            let mut cost = Cost::new();
            let op = backend.lookup_prepare(dest, clue);
            let (tag, class) = backend.lookup_finish_tag(op, dest, clue, &mut cost);
            let tag_bmp = (tag != NO_TAG).then(|| backend.tag_prefixes()[tag as usize]);
            assert_eq!(tag_bmp, d.bmp, "{} tag path for {dest} {clue:?}", E::NAME);
            assert_eq!(class, d.class, "{} tag class for {dest} {clue:?}", E::NAME);
            assert_eq!(cost, d.cost, "{} tag cost for {dest} {clue:?}", E::NAME);
            decisions.push(d);
        }
        // Batched form agrees with the scalar form, prefetched or not.
        let dests: Vec<A> = cases.iter().map(|c| c.0).collect();
        let clues: Vec<Option<Prefix<A>>> = cases.iter().map(|c| c.1).collect();
        for group in [1, 4] {
            let mut out = vec![Decision::default(); cases.len()];
            backend.lookup_batch_interleaved(&dests, &clues, &mut out, group);
            assert_eq!(out, decisions, "{} batch parity at group {group}", E::NAME);
        }
        // Layout self-description is coherent.
        assert!(backend.arena_bytes() > 0, "{}", E::NAME);
        assert!(
            backend.arena_bytes() + backend.bucket_bytes() + backend.dict_bytes()
                <= backend.memory_bytes() as u64,
            "{} byte split exceeds the resident total",
            E::NAME
        );
        let cram = backend.cram();
        assert!(cram.expected_refs >= 1.0, "{} every walk visits the root", E::NAME);
        assert!(cram.expected_l1_misses <= cram.expected_refs, "{}", E::NAME);
        assert!(cram.expected_l2_misses <= cram.expected_l1_misses, "{}", E::NAME);
        assert!(cram.expected_l3_misses <= cram.expected_l2_misses, "{}", E::NAME);
        // A table this small is fully L2-resident (the stride root
        // array alone overflows L1 by design — 8192 direct-indexed
        // slots at the default 13 initial bits).
        assert_eq!(cram.expected_l2_misses, 0.0, "{}", E::NAME);
        let replica = backend.replicate();
        assert_eq!(
            replica.lookup_decision(dests[0], clues[0]),
            decisions[0],
            "{} replica parity",
            E::NAME
        );
        decisions
    }

    fn agree<A: Address>(scalar: ClueEngine<A>, cases: &[(A, Option<Prefix<A>>)]) -> Vec<LookupClass> {
        let frozen = exercise::<A, FrozenEngine<A>>(&scalar, cases);
        let stride = exercise::<A, StrideEngine<A>>(&scalar, cases);
        let compressed = exercise::<A, CompressedEngine<A>>(&scalar, cases);
        assert_eq!(frozen, stride);
        assert_eq!(frozen, compressed);
        let want = scalar_reference(scalar, cases);
        for (d, &(bmp, cost)) in frozen.iter().zip(&want) {
            assert_eq!((d.bmp, d.cost), (bmp, cost), "backends vs the scalar engine");
        }
        frozen.iter().map(|d| d.class).collect()
    }

    #[test]
    fn all_backends_agree_with_each_other() {
        agree(engine4(), &cases4());
        // IPv6: the bucket hash folds both 64-bit halves of the clue
        // and the compressed walk rebuilds prefixes at width 128.
        let classes = agree(engine6(), &cases6());
        for class in [
            LookupClass::Clueless,
            LookupClass::Final,
            LookupClass::Continued,
            LookupClass::Malformed,
            LookupClass::Miss,
        ] {
            assert!(classes.contains(&class), "IPv6 cases cover {class:?}: {classes:?}");
        }
    }

    #[test]
    fn compressed_arena_is_the_smallest() {
        let scalar = engine4();
        let frozen = FrozenEngine::compile(&scalar, &()).unwrap();
        let stride = StrideEngine::compile(&scalar, &StrideConfig::default()).unwrap();
        let compressed = CompressedEngine::compile(&scalar, &CompressedConfig).unwrap();
        let fa = frozen.arena_bytes();
        let sa = stride.arena_bytes();
        let ca = compressed.arena_bytes();
        assert!(ca * 3 < fa, "compressed {ca} vs frozen {fa}");
        assert!(ca < sa, "compressed {ca} vs stride {sa}");
    }

    #[test]
    fn kinds_round_trip_through_names() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
        }
        assert!("planb".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Compressed.to_string(), "compressed");
    }
}
