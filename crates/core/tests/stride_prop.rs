//! Property tests for the stride-compiled fast path: over arbitrary
//! table pairs, stride shapes and workloads (honest, missing and
//! malformed clues alike), [`StrideEngine`] must be indistinguishable
//! from both the scalar [`ClueEngine`] and the [`FrozenEngine`] it was
//! compiled from — same BMPs, same [`LookupClass`], same per-packet
//! [`Cost`] tick for tick — at every interleave group size.

use clue_core::{
    ClueEngine, CompiledBackend, EngineConfig, FrozenEngine, Method, StrideConfig, StrideEngine,
};
use clue_lookup::{reference_bmp, Family};
use clue_trie::{Cost, Ip4, Prefix};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix<Ip4>> {
    (0u32..256, prop_oneof![Just(6u8), Just(8), Just(12), Just(16), Just(20), Just(24)])
        .prop_map(|(bits, len)| Prefix::new(Ip4(bits << 24 | bits << 16 | bits << 4), len))
}

fn arb_tables() -> impl Strategy<Value = (Vec<Prefix<Ip4>>, Vec<Prefix<Ip4>>)> {
    (
        proptest::collection::hash_set(arb_prefix(), 1..40),
        proptest::collection::hash_set(arb_prefix(), 1..40),
        proptest::collection::hash_set(arb_prefix(), 0..20),
    )
        .prop_map(|(shared, s_only, r_only)| {
            let sender: Vec<_> = shared.union(&s_only).copied().collect();
            let receiver: Vec<_> = shared.union(&r_only).copied().collect();
            (sender, receiver)
        })
}

/// Random but structurally valid stride shapes, including degenerate
/// ones (1-bit root, tiny inner chunks, chunks that do not divide the
/// remaining width evenly).
fn arb_stride() -> impl Strategy<Value = StrideConfig> {
    (1u8..=20, 1u8..=16).prop_map(|(initial, inner)| StrideConfig::new(initial, inner))
}

/// Destinations biased into covered space so every lookup class shows
/// up, plus honest clues (with occasional raw-bit malformed ones).
fn workload(sender: &[Prefix<Ip4>], raws: &[u32]) -> (Vec<Ip4>, Vec<Option<Prefix<Ip4>>>) {
    let mut dests = Vec::with_capacity(raws.len());
    let mut clues = Vec::with_capacity(raws.len());
    for (i, &r) in raws.iter().enumerate() {
        let dest = if i % 2 == 0 {
            let p = sender[i % sender.len()];
            let noise = if p.len() == 32 { 0 } else { r >> p.len() };
            Ip4(p.bits().0 | noise)
        } else {
            Ip4(r)
        };
        let clue = match i % 5 {
            // Malformed: a clue string unrelated to the destination.
            4 => Some(Prefix::new(Ip4(!dest.0), 16)).filter(|c| !c.contains(dest)),
            _ => reference_bmp(sender, dest).filter(|c| !c.is_empty()),
        };
        dests.push(dest);
        clues.push(clue);
    }
    (dests, clues)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stride decisions equal both the scalar engine's and the frozen
    /// engine's — BMP, class and cost — for every method and a random
    /// stride shape.
    #[test]
    fn stride_matches_scalar_and_frozen(
        (sender, receiver) in arb_tables(),
        config in arb_stride(),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (dests, clues) = workload(&sender, &raws);
        for method in [Method::Common, Method::Simple, Method::Advance] {
            let mut scalar = ClueEngine::precomputed(
                &sender, &receiver, EngineConfig::new(Family::Regular, method));
            let frozen: FrozenEngine<Ip4> = scalar.freeze().unwrap();
            let stride: StrideEngine<Ip4> = frozen.compile_stride(config).unwrap();
            let mut out = vec![Default::default(); dests.len()];
            let stats = stride.lookup_batch(&dests, &clues, &mut out);
            for ((&dest, &clue), d) in dests.iter().zip(&clues).zip(&out) {
                let mut cost = Cost::new();
                let want = scalar.lookup(dest, clue, None, &mut cost);
                prop_assert_eq!(
                    d.bmp, want, "{} {:?} dest {} clue {:?}", method, config, dest, clue);
                prop_assert_eq!(
                    d.cost, cost, "{} {:?} dest {} clue {:?}", method, config, dest, clue);
                let f = frozen.lookup_decision(dest, clue);
                prop_assert_eq!(d, &f, "stride != frozen for dest {} clue {:?}", dest, clue);
            }
            // Same packets, same classes: the scalar engine's running
            // tallies must equal the batch's return.
            prop_assert_eq!(stats, scalar.stats());
        }
    }

    /// The interleave group is semantically inert: every group size
    /// (prefetch off, default, clamped-large) yields bit-identical
    /// decisions and stats.
    #[test]
    fn interleave_group_is_inert(
        (sender, receiver) in arb_tables(),
        config in arb_stride(),
        raws in proptest::collection::vec(any::<u32>(), 1..20),
        group in prop_oneof![Just(0usize), Just(1), Just(3), Just(8), Just(200)],
    ) {
        let (dests, clues) = workload(&sender, &raws);
        let engine = ClueEngine::precomputed(
            &sender, &receiver, EngineConfig::new(Family::Regular, Method::Advance));
        let frozen = engine.freeze().unwrap();
        let stride = frozen.compile_stride(config).unwrap();
        let (baseline, s1) = stride.lookup_batch_vec(&dests, &clues);
        let mut out = vec![Default::default(); dests.len()];
        let s2 = stride.lookup_batch_interleaved(&dests, &clues, &mut out, group);
        prop_assert_eq!(&baseline, &out, "group {} diverged", group);
        prop_assert_eq!(s1, s2);
    }
}
