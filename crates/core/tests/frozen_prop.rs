//! Property tests for the frozen pipeline: over arbitrary table pairs
//! and workloads, [`FrozenEngine::lookup_batch`] must be
//! indistinguishable from the scalar [`ClueEngine`] path — same BMPs,
//! same per-packet [`Cost`] tick for tick, same class tallies.

use clue_core::{ClueEngine, CompiledBackend, EngineConfig, FrozenEngine, Method};
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

/// Destinations biased into covered space so every lookup class shows
/// up, plus honest clues (with occasional raw-bit malformed ones).
fn workload(
    sender: &[Prefix<Ip4>],
    raws: &[u32],
) -> (Vec<Ip4>, Vec<Option<Prefix<Ip4>>>) {
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

    /// Batched-frozen decisions equal the scalar engine's, cost
    /// included, for every method.
    #[test]
    fn frozen_batch_matches_scalar_engine(
        (sender, receiver) in arb_tables(),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (dests, clues) = workload(&sender, &raws);
        for method in [Method::Common, Method::Simple, Method::Advance] {
            let mut scalar = ClueEngine::precomputed(
                &sender, &receiver, EngineConfig::new(Family::Regular, method));
            let frozen: FrozenEngine<Ip4> = scalar.freeze().unwrap();
            let mut out = vec![Default::default(); dests.len()];
            let batch_stats = frozen.lookup_batch(&dests, &clues, &mut out);
            for ((&dest, &clue), d) in dests.iter().zip(&clues).zip(&out) {
                let mut cost = Cost::new();
                let want = scalar.lookup(dest, clue, None, &mut cost);
                prop_assert_eq!(d.bmp, want, "{} dest {} clue {:?}", method, dest, clue);
                prop_assert_eq!(d.cost, cost, "{} dest {} clue {:?}", method, dest, clue);
            }
            // Same packets, same classes: the scalar engine's running
            // tallies must equal the batch's return.
            prop_assert_eq!(batch_stats, scalar.stats());
        }
    }

    /// A frozen engine is a pure function: re-running any batch yields
    /// identical decisions (no hidden learning or cache state).
    #[test]
    fn frozen_lookups_are_stateless(
        (sender, receiver) in arb_tables(),
        raws in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        let (dests, clues) = workload(&sender, &raws);
        let engine = ClueEngine::precomputed(
            &sender, &receiver, EngineConfig::new(Family::Regular, Method::Advance));
        let frozen = engine.freeze().unwrap();
        let (first, s1) = frozen.lookup_batch_vec(&dests, &clues);
        let (again, s2) = frozen.lookup_batch_vec(&dests, &clues);
        prop_assert_eq!(first, again);
        prop_assert_eq!(s1, s2);
    }
}
