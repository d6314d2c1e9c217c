//! Live-churn serving costs: how expensive is one epoch publish
//! (freeze + swap + retire), what does reading through an epoch pin add
//! over a bare frozen lookup, and what does the whole builder+readers
//! driver sustain. Run with `BENCH_TELEMETRY_OUT=BENCH_churn.json` to
//! dump the measurements as JSON.

use std::hint::black_box;

use clue_bench::isp_pair;
use clue_core::{ClueEngine, CompiledBackend, Decision, EngineConfig, EpochEngine, Method};
use clue_lookup::Family;
use clue_netsim::{run_churn, ChurnDriverConfig};
use clue_tablegen::{generate_churn, ChurnConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// One `publish_from` call: from-scratch freeze of the live engine plus
/// the atomic swap and retire bookkeeping. This is the per-batch price
/// the builder thread pays, so it bounds the sustainable update rate.
fn bench_epoch_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_publish");
    for n in [1_000usize, 5_000, 20_000] {
        let pair = isp_pair(n, 16, 42);
        let live = ClueEngine::precomputed(
            &pair.sender,
            &pair.receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let epochs = EpochEngine::new(&live).expect("regular hashed engine freezes");
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("publish_from", n), |b| {
            b.iter(|| {
                let epoch = epochs.publish_from(black_box(&live)).unwrap();
                black_box(epoch)
            })
        });
        // Nothing pins, so every retired snapshot should already be
        // reclaimed; a growing backlog here would poison the numbers.
        epochs.reclaim();
        assert_eq!(epochs.retired_count(), 0);
    }
    group.finish();
}

/// A reader's view: pin + batched lookups + unpin, against the same
/// batch on a bare `FrozenEngine`. The difference is the whole epoch
/// machinery overhead on the serving path.
fn bench_pinned_lookups(c: &mut Criterion) {
    let pair = isp_pair(10_000, 2_000, 42);
    let scalar = ClueEngine::precomputed(
        &pair.sender,
        &pair.receiver,
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    let frozen = scalar.freeze().expect("regular hashed engine freezes");
    let epochs = EpochEngine::new(&scalar).expect("regular hashed engine freezes");
    let mut reader = epochs.reader();
    let mut out = vec![Decision::default(); pair.dests.len()];

    let mut group = c.benchmark_group("epoch_read");
    group.throughput(Throughput::Elements(pair.dests.len() as u64));
    group.bench_function(BenchmarkId::new("advance", "bare-frozen"), |b| {
        b.iter(|| {
            let stats = frozen.lookup_batch(black_box(&pair.dests), &pair.clues, &mut out);
            black_box(stats.finals)
        })
    });
    group.bench_function(BenchmarkId::new("advance", "epoch-pinned"), |b| {
        b.iter(|| {
            let guard = reader.pin();
            let stats = guard.lookup_batch(black_box(&pair.dests), &pair.clues, &mut out);
            black_box(stats.finals)
        })
    });
    group.finish();
}

/// The full driver: a builder applying a BGP-style stream and
/// republishing per batch while readers serve continuously.
fn bench_churn_driver(c: &mut Criterion) {
    let sender = clue_tablegen::synthesize_ipv4(3_000, 7);
    let receiver = clue_tablegen::derive_neighbor(
        &sender,
        &clue_tablegen::NeighborConfig::same_isp(8),
    );
    let batches = generate_churn(&receiver, &ChurnConfig::bgp(400, 9));
    let updates: usize = batches.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group("churn_driver");
    group.sample_size(10);
    group.throughput(Throughput::Elements(updates as u64));
    for readers in [1usize, 4] {
        let mut cfg = ChurnDriverConfig::new(readers, 11);
        cfg.check = false;
        group.bench_function(BenchmarkId::new("bgp_400", readers), |b| {
            b.iter(|| {
                let report = run_churn(&sender, &receiver, &batches, &cfg, None, None).unwrap();
                black_box(report.lookups_total)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_epoch_publish, bench_pinned_lookups, bench_churn_driver);
criterion_main!(benches);
