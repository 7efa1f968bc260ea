//! Live knowledge-graph acceptance suite: streaming triple ingestion with
//! continuous star-join subscriptions must be **equivalent** to batch
//! loading — for 8 chaos seeds and shard counts {1, 4}, registering a
//! subscription and streaming triples through the pipeline yields exactly
//! the match set obtained by batch-loading the same triples and running
//! `execute_star` once at the end. On top of the equivalence drill:
//! concurrent snapshot reads never observe a half-applied batch, a slow
//! KG consumer cannot silently drop triples (bounded `triples` topic with
//! blocking backpressure), the count-typed `kg.*` series are bit-identical
//! single vs sharded, and the `kg.ingest_to_match_ns` histogram plus
//! `KgHealth` surface in metrics and health.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use datacron::core::kg::{LiveKg, LiveKgConfig};
use datacron::core::realtime::RealTimeLayer;
use datacron::core::sharded::ShardedRealTimeLayer;
use datacron::core::system::DatacronSystem;
use datacron::core::DatacronConfig;
use datacron::geo::{
    BoundingBox, EntityId, EquiGrid, GeoPoint, PositionReport, StCellEncoder, TimeInterval,
    Timestamp,
};
use datacron::rdf::term::{Term, Triple};
use datacron::rdf::vocab;
use datacron::store::store::{StExecution, StarQuery};
use datacron::store::{LiveStore, StoreConfig};
use datacron::stream::faults::{ChaosSource, FaultPlan};
use datacron::stream::parallel::ShardedConfig;

const SEEDS: [u64; 8] = [1, 7, 23, 42, 97, 1234, 0xDEAD_BEEF, u64::MAX / 3];
const SHARD_COUNTS: [usize; 2] = [1, 4];

fn config() -> DatacronConfig {
    DatacronConfig::maritime(BoundingBox::new(0.0, 38.0, 6.0, 42.0))
}

/// A seed-shaped fleet with one turn per entity (critical points → RDF
/// triples) and a chaos pass (drops, duplicates, reorders) over it.
fn stream(seed: u64) -> Vec<PositionReport> {
    let entities = 4 + seed % 5;
    let mut all = Vec::new();
    for e in 0..entities {
        let mut p = GeoPoint::new(0.5 + 0.5 * e as f64, 39.0 + 0.2 * e as f64);
        for i in 0..80i64 {
            let heading = if i < 40 { 90.0 } else { 180.0 };
            all.push(PositionReport {
                speed_mps: 8.0,
                heading_deg: heading,
                ..PositionReport::basic(EntityId::vessel(e), Timestamp::from_secs(i * 10), p)
            });
            p = p.destination(heading, 80.0);
        }
    }
    all.sort_by_key(|r| (r.ts, r.entity));
    ChaosSource::new(all.into_iter(), FaultPlan::chaos(seed)).collect()
}

/// The continuous queries under test: a plain star join over heading
/// changes, and the same join constrained to a spatio-temporal window
/// (exercises the dictionary's st pushdown on the live path).
fn queries() -> Vec<StarQuery> {
    let arms = vec![
        (vocab::rdf_type(), Some(vocab::semantic_node_class())),
        (vocab::event_type(), Some(Term::str("change_in_heading"))),
    ];
    vec![
        StarQuery { arms: arms.clone(), st: None },
        StarQuery {
            arms,
            st: Some((
                BoundingBox::new(0.0, 38.0, 3.0, 42.0),
                TimeInterval::new(Timestamp::from_secs(0), Timestamp::from_secs(500)),
            )),
        },
    ]
}

fn subject_set(terms: &[Term]) -> BTreeSet<String> {
    terms.iter().map(|t| format!("{t:?}")).collect()
}

fn match_set(matches: &[datacron::store::StarMatch]) -> BTreeSet<String> {
    matches.iter().map(|m| format!("{:?}", m.subject)).collect()
}

/// Runs the pipeline single-threaded with no KG attached and captures the
/// full `triples` stream, then batch-loads it into a fresh [`LiveStore`]
/// in **one** `ingest_batch` and runs each query once at the end — the
/// reference the live paths must reproduce exactly.
fn batch_reference(input: &[PositionReport]) -> Vec<BTreeSet<String>> {
    let cfg = config();
    let mut layer = RealTimeLayer::new(cfg.clone(), Vec::new(), Vec::new());
    let mut triples_rx = layer.triples.consumer();
    for r in input {
        layer.ingest(*r);
    }
    layer.flush();
    let mut all: Vec<Triple> = Vec::new();
    loop {
        let batch = triples_rx.drain().expect("unbounded topic never lags");
        if batch.is_empty() {
            break;
        }
        all.extend(batch);
    }
    assert!(!all.is_empty(), "the fixture must produce triples");

    let grid = EquiGrid::new(cfg.extent, cfg.st_grid_cells, cfg.st_grid_cells);
    let encoder = StCellEncoder::new(grid, cfg.epoch, cfg.st_bucket_millis);
    let store = LiveStore::new(encoder, StoreConfig::default());
    store.ingest_batch(&all);
    queries()
        .iter()
        .map(|q| {
            let (push, _) = store.snapshot().execute_star(q, StExecution::Pushdown);
            let (post, _) = store.snapshot().execute_star(q, StExecution::PostFilter);
            assert_eq!(subject_set(&push), subject_set(&post), "execution modes agree");
            subject_set(&push)
        })
        .collect()
}

#[test]
fn live_matches_equal_batch_load_then_query() {
    for seed in SEEDS {
        let input = stream(seed);
        let expected = batch_reference(&input);
        assert!(
            !expected[0].is_empty(),
            "seed {seed}: the fixture must produce heading-change matches"
        );

        // Single-threaded: the system drains the KG on every ingest.
        let mut system =
            DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
        let kg = system.enable_live_kg(LiveKgConfig::default());
        let mut handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
        for r in &input {
            system.ingest(*r);
        }
        system.realtime.flush();
        system.sync_batch();
        for (i, handle) in handles.iter_mut().enumerate() {
            let matches = handle.matches.drain().expect("match topic never overflows here");
            assert_eq!(
                match_set(&matches), expected[i],
                "seed {seed}, single-threaded, query {i}"
            );
        }
        assert!(system.health().kg.expect("kg enabled").is_clean(), "seed {seed}");

        // Sharded: the KG drains at the barrier points.
        for shards in SHARD_COUNTS {
            let (mut sharded, kg) = ShardedRealTimeLayer::with_live_kg(
                config(),
                Vec::new(),
                Vec::new(),
                ShardedConfig::with_shards(shards),
                LiveKgConfig::default(),
            );
            let mut handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
            sharded.ingest_batch(input.iter().copied());
            sharded.flush();
            for (i, handle) in handles.iter_mut().enumerate() {
                let matches = handle.matches.drain().expect("match topic never overflows here");
                assert_eq!(
                    match_set(&matches), expected[i],
                    "seed {seed}, {shards} shards, query {i}"
                );
            }
            let shutdown = sharded.finish();
            let health = shutdown.health.kg.expect("kg enabled");
            assert!(health.is_clean(), "seed {seed}, {shards} shards");
        }
    }
}

#[test]
fn kg_counters_are_bit_identical_single_vs_sharded() {
    let kg_counters = |snap: &datacron::obs::MetricsSnapshot| -> Vec<(String, u64)> {
        snap.counters()
            .iter()
            .filter(|(name, _)| name.starts_with("kg."))
            .cloned()
            .collect()
    };
    for seed in [7u64, 42] {
        let input = stream(seed);

        let mut system =
            DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
        let kg = system.enable_live_kg(LiveKgConfig::default());
        let _handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
        for r in &input {
            system.ingest(*r);
        }
        system.realtime.flush();
        system.sync_batch();
        let expected = kg_counters(&system.metrics());
        assert!(
            expected.iter().any(|(n, v)| n == "kg.matches_emitted" && *v > 0),
            "seed {seed}: the fixture must emit matches"
        );

        for shards in SHARD_COUNTS {
            let (mut sharded, kg) = ShardedRealTimeLayer::with_live_kg(
                config(),
                Vec::new(),
                Vec::new(),
                ShardedConfig::with_shards(shards),
                LiveKgConfig::default(),
            );
            let _handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
            sharded.ingest_batch(input.iter().copied());
            sharded.flush();
            let got = kg_counters(&sharded.metrics());
            sharded.finish();
            assert_eq!(got, expected, "seed {seed}, {shards} shards");
        }
    }
}

#[test]
fn health_and_metrics_expose_the_kg_section() {
    let input = stream(42);
    let mut system = DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
    let kg = system.enable_live_kg(LiveKgConfig::default());
    let _handle = kg.subscribe(queries().remove(0));
    for r in &input {
        system.ingest(*r);
    }
    system.realtime.flush();
    system.sync_batch();

    let health = system.health().kg.expect("health carries the KG section");
    assert!(health.ingested_triples > 0);
    assert!(health.st_subjects > 0);
    assert_eq!(health.subscriptions, 1);
    assert!(health.matches_emitted > 0);
    assert!(health.is_clean());

    let snap = system.metrics();
    assert_eq!(snap.counter("kg.ingested_triples"), Some(health.ingested_triples));
    assert_eq!(snap.counter("kg.matches_emitted"), Some(health.matches_emitted));
    assert_eq!(snap.counter("kg.subscriptions"), Some(1));
    let hist = snap.histogram("kg.ingest_to_match_ns").expect("latency histogram registered");
    assert_eq!(hist.count, health.matches_emitted, "one latency sample per streamed match");
    assert!(snap.gauge("kg.watermark").unwrap_or(0) > 0);
    assert_eq!(snap.gauge("kg.triples_lost"), Some(0));
}

#[test]
fn concurrent_snapshots_never_observe_a_partial_batch() {
    let input = stream(97);
    let mut system = DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
    let kg = system.enable_live_kg(LiveKgConfig::default());
    let done = AtomicBool::new(false);
    let pinned = AtomicBool::new(false);

    std::thread::scope(|s| {
        let reader_kg = kg.clone();
        let (done_ref, pinned_ref) = (&done, &pinned);
        let reader = s.spawn(move || {
            let mut last_watermark = 0u64;
            let mut observed = 0u64;
            while !done_ref.load(Ordering::Acquire) {
                let snap = reader_kg.store().snapshot();
                pinned_ref.store(true, Ordering::Release);
                let watermark = snap.triple_count();
                // A generation is immutable and complete: the segment sum
                // always equals the watermark (never a half-applied batch),
                // and pinned reads are stable.
                assert_eq!(snap.generation().triple_count(), watermark);
                assert_eq!(snap.triple_count(), watermark, "pinned snapshot is stable");
                assert!(watermark >= last_watermark, "watermark is monotone");
                last_watermark = watermark;
                observed += 1;
            }
            observed
        });

        // In release builds the writer can finish before the reader thread
        // is even scheduled; start writing only once a snapshot is pinned.
        while !pinned.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        for r in &input {
            system.ingest(*r);
        }
        system.realtime.flush();
        system.sync_batch();
        done.store(true, Ordering::Release);
        let observed = reader.join().expect("reader thread");
        assert!(observed > 0, "the reader actually raced the writer");
    });
    assert!(kg.health().ingested_triples > 0);
}

/// Satellite regression: with the KG attached, the `triples` topic is
/// bounded under a **blocking** overflow policy — a slow consumer stalls
/// the publisher instead of losing data, and every produced triple is
/// accounted for in the store (`published == consumed == ingested`).
#[test]
fn slow_kg_consumer_cannot_silently_drop_triples() {
    let kg_config = LiveKgConfig {
        triples_capacity: 8, // tiny: the pipeline outruns the drainer at once
        ..LiveKgConfig::default()
    };
    let kg = LiveKg::new(&config(), kg_config);
    let mut layer = RealTimeLayer::new(config(), Vec::new(), Vec::new());
    kg.attach(&mut layer);
    let input = stream(23);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let drainer_kg: Arc<LiveKg> = kg.clone();
        let done_ref = &done;
        // A deliberately slow consumer: drains, then naps.
        s.spawn(move || {
            while !done_ref.load(Ordering::Acquire) {
                drainer_kg.drain();
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            drainer_kg.drain();
        });
        for r in &input {
            layer.ingest(*r);
        }
        layer.flush();
        done.store(true, Ordering::Release);
    });
    kg.drain();

    let stats = layer.triples.stats();
    let health = kg.health();
    assert!(stats.published > 8, "the fixture overruns the tiny topic");
    assert_eq!(stats.consumed, stats.published, "every triple was consumed");
    assert_eq!(health.ingested_triples, stats.published, "every triple reached the store");
    assert_eq!(health.triples_lost, 0, "nothing was lost, silently or otherwise");
    assert_eq!(stats.dropped, 0, "blocking backpressure never drops");
    assert!(health.is_clean());
}

/// A live resize must be invisible to the knowledge graph: subscriptions
/// registered before the resize keep matching across it (the KG detaches
/// the drained fleet at the epoch boundary and re-attaches the new one),
/// no triple is lost or double-ingested, and the count-typed `kg.*`
/// series still equal the single-threaded run's at end of stream.
#[test]
fn live_kg_survives_mid_stream_resizes() {
    let kg_counters = |snap: &datacron::obs::MetricsSnapshot| -> Vec<(String, u64)> {
        snap.counters()
            .iter()
            .filter(|(name, _)| name.starts_with("kg."))
            .cloned()
            .collect()
    };
    for seed in [7u64, 42] {
        let input = stream(seed);
        let expected = batch_reference(&input);

        // Single-threaded reference for the kg.* counter series.
        let mut system =
            DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
        let single_kg = system.enable_live_kg(LiveKgConfig::default());
        let _single_handles: Vec<_> =
            queries().into_iter().map(|q| single_kg.subscribe(q)).collect();
        for r in &input {
            system.ingest(*r);
        }
        system.realtime.flush();
        system.sync_batch();
        let expected_counters = kg_counters(&system.metrics());

        let (mut sharded, kg) = ShardedRealTimeLayer::with_live_kg(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(2),
            LiveKgConfig::default(),
        );
        let mut handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
        let third = input.len() / 3;
        for (i, r) in input.iter().enumerate() {
            if i == third {
                sharded.resize(8).expect("resize 2 -> 8 with KG attached");
            }
            if i == 2 * third {
                sharded.resize(4).expect("resize 8 -> 4 with KG attached");
            }
            sharded.ingest(*r);
            sharded.poll_outputs();
        }
        sharded.flush();
        for (i, handle) in handles.iter_mut().enumerate() {
            let matches = handle.matches.drain().expect("match topic never overflows here");
            assert_eq!(
                match_set(&matches),
                expected[i],
                "seed {seed}, query {i}: matches must survive the resizes"
            );
        }
        let got_counters = kg_counters(&sharded.metrics());
        assert_eq!(got_counters, expected_counters, "seed {seed}: kg.* series continuous");
        let health = sharded.finish().health.kg.expect("kg enabled");
        assert!(health.is_clean(), "seed {seed}: no triple lost or left behind");
    }
}
