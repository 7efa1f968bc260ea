//! `net_kg_live`: the full path, open loop. One generator thread sends a
//! 4,096-entity scenario over one `NetClient` connection on a schedule
//! compressed from the records' event time; an ingest thread takes the
//! records off the `NetServer` topic into a 2-shard
//! `ShardedRealTimeLayer::with_live_kg`, drains four standing star
//! subscriptions as a live subscriber would, and issues ad-hoc windowed
//! snapshot queries on a fixed schedule.

use crate::calib;
use crate::common::{self, Context, Ctx, Outcome, Targets};
use crate::digest::{input_digest, Digest};
use crate::openloop::{backlog_growing, due_latency_ms, schedule};
use crate::stats::{mean, median, pooled_rate, Summary};
use crate::trace::{rebase, Span, Tracer};
use datacron::core::sharded::ShardedRealTimeLayer;
use datacron::core::system::DatacronSystem;
use datacron::core::{DatacronConfig, LiveKg, LiveKgConfig, RealTimeLayer};
use datacron::data::rng::SeededRng;
use datacron::data::scenario::ScenarioSpec;
use datacron::geo::{
    BoundingBox, EquiGrid, PositionReport, StCellEncoder, TimeInterval, Timestamp,
};
use datacron::net::{ClientConfig, ClientStats, NetClient, NetServer, ServerConfig};
use datacron::obs::{MetricsSnapshot, ObsRegistry};
use datacron::rdf::term::{Term, Triple};
use datacron::rdf::vocab;
use datacron::store::{LiveStore, StExecution, StarQuery, StoreConfig, SubscriptionHandle};
use datacron::stream::bus::Consumer;
use datacron::stream::parallel::ShardedConfig;
use datacron::stream::Topic;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCENARIO: &str = include_str!("../workloads/net_kg_live.scenario");
/// Worker shards of the sharded layer.
const SHARDS: usize = 2;
/// Mean send rate of the nominal open-loop run, records/s.
const NOMINAL_RPS: f64 = 5_000.0;
/// Rates tried for `sustained_rps`, records/s (traced run).
const LADDER: [f64; 5] = [5_000.0, 7_500.0, 11_250.0, 16_875.0, 25_312.5];
/// Length of one ladder rung's schedule.
const RUNG_SECONDS: f64 = 1.5;
/// The `match_p99_ms` limit a ladder rung must meet.
const MATCH_P99_LIMIT_MS: f64 = 50.0;
/// The live subscriber's cadence: outputs are polled, the KG drained and
/// the subscriptions read once per tick. Every drain that carries triples
/// commits one store generation, so the cadence bounds how many
/// generations a run creates.
const POLL_EVERY: Duration = Duration::from_millis(10);
/// Ad-hoc snapshot query period.
const QUERY_EVERY: Duration = Duration::from_millis(8);
/// Event-time width of an ad-hoc query window.
const QUERY_WINDOW_MS: i64 = 120_000;
/// Records per `ingest_batch` on the closed-loop sharded arm.
const CHUNK: usize = 512;
/// Untraced repeats of the closed-loop sharded arm per open-loop run.
const ARM_REPEATS: usize = 3;
/// Repeats of the per-record arm per open-loop run: one takes a fifth of
/// a second, so it needs more of them for a steady `record_rps`.
const RECORD_ARM_REPEATS: usize = 6;
/// Open-loop runs per benchmark run, at least. `match_p50_ms` is their
/// median: a stall of the host can leave one run's consumer a second
/// behind (p50 near 500 ms, against 8 ms), and the median of three drops
/// that run.
const MIN_OPEN_RUNS: usize = 3;
/// Records the `DatacronSystem` arm replays (a prefix of the input).
const SYSTEM_ARM_RECORDS: usize = 8_192;
/// Forecast reads on the per-record arm: `READS` every `READ_EVERY`
/// records (the system arm drains its subscriptions at the same cadence).
const READ_EVERY: usize = 64;
const READS: usize = 16;
/// A generator whose p99 lateness exceeds this invalidates the run.
const LATE_LIMIT_MS: f64 = 25.0;
/// How long the ingest thread waits for stragglers after the generator is done.
const DRAIN_GRACE: Duration = Duration::from_secs(20);

/// The four standing subscriptions: two plain, two spatio-temporally
/// windowed, over the labels the scenario emits. (`gap_end` needs an
/// entity to report again after a gap; with one round per cohort the
/// scenario's silenced entities never do, so no subscription waits on it.)
fn subscriptions(spec: &ScenarioSpec, input: &[PositionReport]) -> Vec<StarQuery> {
    let node = (vocab::rdf_type(), Some(vocab::semantic_node_class()));
    let event = |label: &str| (vocab::event_type(), Some(Term::str(label)));
    let e = spec.extent;
    let (t0, t1) = (
        input.first().map_or(0, |r| r.ts.0),
        input.last().map_or(0, |r| r.ts.0) + 1,
    );
    let mid = t0 + (t1 - t0) / 2;
    let west = BoundingBox::new(
        e.min_lon,
        e.min_lat,
        (e.min_lon + e.max_lon) / 2.0,
        e.max_lat,
    );
    let north = BoundingBox::new(
        e.min_lon,
        (e.min_lat + e.max_lat) / 2.0,
        e.max_lon,
        e.max_lat,
    );
    vec![
        StarQuery {
            arms: vec![node.clone(), event("change_in_heading")],
            st: None,
        },
        StarQuery {
            arms: vec![node.clone(), event("speed_change")],
            st: None,
        },
        StarQuery {
            arms: vec![node.clone(), event("speed_change")],
            st: Some((west, TimeInterval::new(Timestamp(t0), Timestamp(t1)))),
        },
        StarQuery {
            arms: vec![node, event("change_in_heading")],
            st: Some((north, TimeInterval::new(Timestamp(mid), Timestamp(t1)))),
        },
    ]
}

/// The `k`-th ad-hoc query: every semantic node in one quadrant of the
/// extent over the last `QUERY_WINDOW_MS` of event time before `now_ms`.
fn adhoc_query(spec: &ScenarioSpec, k: u64, now_ms: i64) -> StarQuery {
    let e = spec.extent;
    let (w, h) = ((e.max_lon - e.min_lon) / 2.0, (e.max_lat - e.min_lat) / 2.0);
    let (qx, qy) = ((k % 2) as f64, ((k / 2) % 2) as f64);
    let bbox = BoundingBox::new(
        e.min_lon + qx * w,
        e.min_lat + qy * h,
        e.min_lon + (qx + 1.0) * w,
        e.min_lat + (qy + 1.0) * h,
    );
    StarQuery {
        arms: vec![(vocab::rdf_type(), Some(vocab::semantic_node_class()))],
        st: Some((
            bbox,
            TimeInterval::new(Timestamp(now_ms - QUERY_WINDOW_MS), Timestamp(now_ms + 1)),
        )),
    }
}

fn is_node_type(t: &Triple) -> bool {
    t.p == vocab::rdf_type() && t.o == vocab::semantic_node_class()
}

fn iri(t: &Term) -> String {
    t.as_iri().map_or_else(|| format!("{t:?}"), str::to_owned)
}

/// The untimed in-process reference: which report produced which node,
/// the output digest, and the batch-load-then-query match sets.
struct Reference {
    /// Node IRI → index of the report whose ingest produced it.
    producer: HashMap<String, usize>,
    /// Outputs + flush digest, in input order.
    digest: u64,
    /// Per subscription: every matching node IRI (flush included).
    expected: Vec<BTreeSet<String>>,
}

fn reference(
    cfg: &DatacronConfig,
    context: &Context,
    input: &[PositionReport],
    queries: &[StarQuery],
) -> Reference {
    let mut layer = RealTimeLayer::new(cfg.clone(), context.0.clone(), context.1.clone());
    let mut triples_rx = layer.triples.consumer();
    let mut producer = HashMap::new();
    let mut d = Digest::default();
    let mut all: Vec<Triple> = Vec::new();
    for (c, slice) in input.chunks(CHUNK).enumerate() {
        for (j, out) in layer
            .ingest_batch(slice.iter().copied())
            .into_iter()
            .enumerate()
        {
            d.absorb(&out);
            for t in out.triples.iter().filter(|t| is_node_type(t)) {
                producer.insert(iri(&t.s), c * CHUNK + j);
            }
            layer.recycle(out);
        }
        all.extend(triples_rx.drain().expect("unbounded topic never lags"));
    }
    d.absorb(&layer.flush());
    all.extend(triples_rx.drain().expect("unbounded topic never lags"));
    let grid = EquiGrid::new(cfg.extent, cfg.st_grid_cells, cfg.st_grid_cells);
    let store = LiveStore::new(
        StCellEncoder::new(grid, cfg.epoch, cfg.st_bucket_millis),
        StoreConfig::default(),
    );
    store.ingest_batch(&all);
    let expected = queries
        .iter()
        .map(|q| {
            store
                .snapshot()
                .execute_star(q, StExecution::Pushdown)
                .0
                .iter()
                .map(iri)
                .collect()
        })
        .collect();
    Reference {
        producer,
        digest: d.finish(),
        expected,
    }
}

/// Server, client, sharded layer with the live KG, and subscriptions.
struct Rig {
    server: NetServer,
    records: Consumer<PositionReport>,
    client: NetClient,
    layer: ShardedRealTimeLayer,
    kg: Arc<LiveKg>,
    subs: Vec<SubscriptionHandle>,
}

fn build(cfg: &DatacronConfig, context: &Context, queries: &[StarQuery], session: u64) -> Rig {
    let obs = ObsRegistry::new();
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.ingest");
    let records = topic.consumer();
    let server = NetServer::bind("127.0.0.1:0", ServerConfig::default(), topic, &obs)
        .expect("loopback server binds");
    let client = NetClient::connect(
        ClientConfig::new(server.local_addr().to_string(), session),
        &obs,
    )
    .expect("loopback client connects");
    let (layer, kg, subs) = live_layer(cfg, context, queries);
    Rig {
        server,
        records,
        client,
        layer,
        kg,
        subs,
    }
}

/// The 2-shard layer with the live KG attached and the subscriptions
/// registered before the first record.
fn live_layer(
    cfg: &DatacronConfig,
    context: &Context,
    queries: &[StarQuery],
) -> (ShardedRealTimeLayer, Arc<LiveKg>, Vec<SubscriptionHandle>) {
    let (layer, kg) = ShardedRealTimeLayer::with_live_kg(
        cfg.clone(),
        context.0.clone(),
        context.1.clone(),
        ShardedConfig::with_shards(SHARDS),
        LiveKgConfig::default(),
    );
    let subs = queries.iter().map(|q| kg.subscribe(q.clone())).collect();
    (layer, kg, subs)
}

/// What the generator thread saw.
#[derive(Default)]
struct Sent {
    late_ns: Vec<u64>,
    sent_ns: Vec<u64>,
    busy_ns: u64,
    stats: ClientStats,
    errors: u64,
    spans: Vec<Span>,
}

/// Sends `input` on the `due` schedule (ns after `start`), never early
/// and never slowed by the system: a late record is sent at once.
fn generate(
    mut client: NetClient,
    input: &[PositionReport],
    due: &[u64],
    origin: Instant,
    start: Instant,
    trace: bool,
    done: &AtomicBool,
) -> Sent {
    let mut s = Sent {
        late_ns: Vec::with_capacity(input.len()),
        sent_ns: Vec::with_capacity(input.len()),
        ..Sent::default()
    };
    let mut tracer = Tracer::new(trace, origin);
    let since_origin = |t: Instant| (t - origin).as_nanos() as u64;
    tracer.begin("timed.gen", 0);
    let mut i = 0;
    let mut group = 0u64;
    while i < input.len() {
        let due_at = start + Duration::from_nanos(due[i]);
        let now = Instant::now();
        if now < due_at {
            tracer.span("gen.wait", group, || std::thread::sleep(due_at - now));
        }
        let g0 = Instant::now();
        tracer.begin("net.send", group);
        while i < input.len() && start + Duration::from_nanos(due[i]) <= Instant::now() {
            let t = Instant::now();
            s.late_ns
                .push(since_origin(t).saturating_sub(since_origin(start) + due[i]));
            if client.send(input[i]).is_err() {
                s.errors += 1;
            }
            s.sent_ns.push(since_origin(Instant::now()));
            i += 1;
        }
        tracer.end();
        s.busy_ns += g0.elapsed().as_nanos() as u64;
        group += 1;
    }
    let f0 = Instant::now();
    match tracer.span("net.finish", group, || client.finish()) {
        Ok(stats) => s.stats = stats,
        Err(_) => s.errors += 1,
    }
    s.busy_ns += f0.elapsed().as_nanos() as u64;
    tracer.end();
    done.store(true, Ordering::Release);
    s.spans = tracer.into_spans();
    s
}

/// What one open-loop run measured.
#[derive(Default)]
struct OpenRun {
    records: usize,
    /// Per record: ns after the start of sending when it was due.
    due_ns: Vec<u64>,
    sent: Sent,
    /// Per record: ns after origin when the ingest thread took it off the topic.
    seen_ns: Vec<u64>,
    /// ns after origin when sending started.
    start_ns: u64,
    /// (subscription index, node IRI, ns after origin received).
    matches: Vec<(usize, String, u64)>,
    /// Sharded outputs + flush digest (when flushed).
    digest: u64,
    /// Records taken off the topic or merged out of order or not equal to
    /// what was sent.
    delivery_errors: u64,
    outputs: usize,
    backlog: Vec<(u64, u64)>,
    query_ms: Vec<f64>,
    candidates: Vec<u64>,
    submit_ns: u64,
    poll_ns: u64,
    /// KG drain time spent inside the ingest thread's poll calls, and inside its
    /// flush call.
    poll_drain_ns: u64,
    flush_drain_ns: u64,
    nacks: u64,
    match_drops: u64,
    snap: MetricsSnapshot,
    skew: f64,
    shutdown_dups: u64,
    spans: Vec<Span>,
}

/// One open-loop run over the first `n` records at `rate` records/s.
fn open_run(
    spec: &ScenarioSpec,
    mut rig: Rig,
    input: &[PositionReport],
    rate: f64,
    flush: bool,
    trace: bool,
) -> OpenRun {
    let n = input.len();
    let events: Vec<i64> = input.iter().map(|r| r.ts.0).collect();
    let due = schedule(&events, rate);
    let origin = Instant::now();
    let since = |t: Instant| (t - origin).as_nanos() as u64;
    let done = AtomicBool::new(false);
    let mut run = OpenRun {
        records: n,
        seen_ns: Vec::with_capacity(n),
        ..OpenRun::default()
    };
    let mut outputs = Vec::with_capacity(n);
    let mut tracer = Tracer::new(trace, origin);
    let client = rig.client;
    let start = origin + Duration::from_millis(2);
    run.start_ns = since(start);
    let sent = std::thread::scope(|scope| {
        let generator = scope.spawn(|| generate(client, input, &due, origin, start, trace, &done));
        let mut submitted = 0usize;
        let mut next_query = start;
        let mut queries = 0u64;
        let mut last_ts = input.first().map_or(0, |r| r.ts.0);
        let mut last_progress = Instant::now();
        let mut next_poll = start + POLL_EVERY;
        tracer.begin("timed.ingest", 0);
        let mut batch_id = 0u64;
        loop {
            let wait = next_poll.saturating_duration_since(Instant::now());
            let batch = tracer.span("bus.poll", batch_id, || {
                if wait.is_zero() {
                    rig.records.poll(4096)
                } else {
                    rig.records.poll_wait(4096, wait)
                }
            });
            let batch = batch.expect("unbounded ingest topic never lags");
            let now = since(Instant::now());
            for r in &batch {
                let i = run.seen_ns.len();
                run.delivery_errors += u64::from(input.get(i) != Some(r));
                run.seen_ns.push(now);
                last_ts = last_ts.max(r.ts.0);
            }
            if !batch.is_empty() {
                submitted += batch.len();
                let s0 = Instant::now();
                tracer.span("sharded.ingest_batch", batch_id, || {
                    rig.layer.ingest_batch(batch)
                });
                run.submit_ns += s0.elapsed().as_nanos() as u64;
                last_progress = Instant::now();
            }
            // The subscriber's cadence: outputs, KG drain and subscription
            // matches are taken once per tick.
            if Instant::now() >= next_poll {
                let (p0, d0) = (Instant::now(), drain_ns(&rig.kg));
                let outs = tracer.span("sharded.poll_outputs", batch_id, || {
                    rig.layer.poll_outputs()
                });
                run.poll_ns += p0.elapsed().as_nanos() as u64;
                run.poll_drain_ns += drain_ns(&rig.kg) - d0;
                if !outs.is_empty() {
                    last_progress = Instant::now();
                }
                for o in outs {
                    run.delivery_errors += u64::from(input.get(outputs.len()) != Some(&o.report));
                    outputs.push(o.output);
                }
                drain_subs(
                    &mut tracer,
                    batch_id,
                    &mut rig.subs,
                    origin,
                    &mut run.matches,
                    &mut run.match_drops,
                );
                let backlog = rig
                    .server
                    .health()
                    .records_ingested
                    .saturating_sub(submitted as u64);
                run.backlog.push((since(Instant::now()), backlog));
                next_poll = (next_poll + POLL_EVERY).max(Instant::now());
            }
            if Instant::now() >= next_query && submitted > 0 {
                let q = adhoc_query(spec, queries, last_ts);
                let q0 = Instant::now();
                let (_, stats) = tracer.span("store.execute_star", queries, || {
                    rig.kg.snapshot().execute_star(&q, StExecution::Pushdown)
                });
                run.query_ms.push(q0.elapsed().as_nanos() as f64 / 1e6);
                run.candidates.push(stats.seed_candidates);
                queries += 1;
                next_query = (next_query + QUERY_EVERY).max(Instant::now());
            }
            batch_id += 1;
            let gen_done = done.load(Ordering::Acquire);
            if gen_done && outputs.len() == n {
                break;
            }
            if gen_done && last_progress.elapsed() > DRAIN_GRACE {
                break;
            }
        }
        if flush {
            let d0 = drain_ns(&rig.kg);
            let flushed = tracer.span("sharded.flush", 0, || rig.layer.flush());
            run.flush_drain_ns += drain_ns(&rig.kg) - d0;
            let mut d = Digest::default();
            for o in &outputs {
                d.absorb(o);
            }
            d.absorb(&flushed);
            run.digest = d.finish();
            drain_subs(
                &mut tracer,
                batch_id,
                &mut rig.subs,
                origin,
                &mut run.matches,
                &mut run.match_drops,
            );
        }
        tracer.end();
        generator.join().expect("generator thread does not panic")
    });
    run.outputs = outputs.len();
    run.due_ns = due;
    run.nacks = rig.server.health().nacks_sent + sent.stats.nacks_seen;
    run.snap = rig.layer.metrics();
    let loads = rig.layer.shard_loads().to_vec();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    run.skew = loads.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
    run.spans = tracer.into_spans();
    run.spans
        .extend(rebase(sent.spans.clone(), run.spans.len()));
    run.sent = sent;
    let shutdown = rig.layer.finish();
    run.shutdown_dups = shutdown.duplicates + shutdown.late;
    rig.server.shutdown();
    run
}

/// Total KG drain time so far (the program's `kg.drain_ns` sum).
fn drain_ns(kg: &LiveKg) -> u64 {
    kg.metrics_snapshot()
        .histogram("kg.drain_ns")
        .map_or(0, |h| h.sum)
}

fn drain_subs(
    tracer: &mut Tracer,
    id: u64,
    subs: &mut [SubscriptionHandle],
    origin: Instant,
    matches: &mut Vec<(usize, String, u64)>,
    drops: &mut u64,
) {
    tracer.begin("kg.subscriptions", id);
    for (k, h) in subs.iter_mut().enumerate() {
        match h.matches.drain() {
            Ok(batch) => {
                let at = (Instant::now() - origin).as_nanos() as u64;
                matches.extend(batch.iter().map(|m| (k, iri(&m.subject), at)));
            }
            Err(lagged) => *drops += lagged.skipped,
        }
    }
    tracer.end();
}

/// Closed-loop sharded arm: the input through the sharded layer with the
/// live KG and the same subscriptions, in fixed batches. Returns
/// (records/s, outputs received, mean kernel time in s). The shard workers
/// run on while the driving thread would time the kernel, so the kernel
/// brackets the arm instead of running inside it.
fn sharded_arm(
    cfg: &DatacronConfig,
    context: &Context,
    queries: &[StarQuery],
    input: &[PositionReport],
    tracer: &mut Tracer,
) -> (f64, usize, f64) {
    let (mut layer, _kg, mut subs) = live_layer(cfg, context, queries);
    let (mut got, mut matches, mut drops) = (0usize, Vec::new(), 0u64);
    let mut host = calib::Sampler::new(false);
    let origin = Instant::now();
    tracer.begin("timed.sharded_arm", 0);
    let t0 = Instant::now();
    for (id, slice) in input.chunks(CHUNK).enumerate() {
        let id = id as u64;
        tracer.span("sharded.ingest_batch", id, || {
            layer.ingest_batch(slice.iter().copied())
        });
        got += tracer
            .span("sharded.poll_outputs", id, || layer.poll_outputs())
            .len();
        drain_subs(tracer, id, &mut subs, origin, &mut matches, &mut drops);
    }
    while got < input.len() {
        let outs = tracer.span("sharded.poll_outputs", 0, || {
            layer.poll_outputs_timeout(Duration::from_millis(1))
        });
        got += outs.len();
    }
    tracer.span("sharded.flush", 0, || layer.flush());
    drain_subs(tracer, 0, &mut subs, origin, &mut matches, &mut drops);
    let wall = t0.elapsed().as_secs_f64();
    tracer.end();
    layer.finish();
    host.close();
    (input.len() as f64 / wall, got, host.kernel_s())
}

/// Per-record arm: the input through one `RealTimeLayer::ingest` per
/// record (the single-threaded stream baseline, no KG), with a quota of
/// forecast reads of entities whose history fills the FLP window.
/// Returns (records/s excluding reads and kernel samples, read latencies
/// in us, misses, mean kernel time in s).
fn record_arm(
    cfg: &DatacronConfig,
    context: &Context,
    input: &[PositionReport],
    seed: u64,
) -> (f64, Vec<f64>, u64, f64) {
    let mut layer = RealTimeLayer::new(cfg.clone(), context.0.clone(), context.1.clone());
    let mut rng = SeededRng::new(seed ^ 0xF0CA_57ED);
    let mut targets = Targets::new(cfg.flp_window as u32);
    let (mut reads, mut misses, mut read_ns) = (Vec::new(), 0u64, 0u64);
    let mut host = calib::Sampler::new(true);
    let t0 = Instant::now();
    for (i, r) in input.iter().enumerate() {
        let out = layer.ingest(*r);
        targets.observe(r.entity, out.accepted);
        layer.recycle(out);
        if (i + 1) % READ_EVERY == 0 && !targets.known.is_empty() {
            let q0 = Instant::now();
            misses +=
                common::forecast_reads(&layer, &targets, &mut rng, READS, &mut reads, |_, _| {});
            read_ns += q0.elapsed().as_nanos() as u64;
            read_ns += host.tick();
        }
    }
    layer.flush();
    let wall = (t0.elapsed().as_nanos() as u64).saturating_sub(read_ns) as f64 / 1e9;
    (input.len() as f64 / wall, reads, misses, host.kernel_s())
}

/// `kg.single_rps`: `DatacronSystem` with the same live KG and
/// subscriptions (it drains the KG on every ingest), per record, over a
/// prefix of the input: every drain commits a store generation and the
/// store does not compact them, so the cost of this arm grows faster
/// than linearly with its length.
fn system_arm(
    cfg: &DatacronConfig,
    context: &Context,
    queries: &[StarQuery],
    input: &[PositionReport],
) -> f64 {
    let mut system = DatacronSystem::new(
        cfg.clone(),
        context.0.clone(),
        context.1.clone(),
        StoreConfig::default(),
    );
    let kg = system.enable_live_kg(LiveKgConfig::default());
    let mut subs: Vec<SubscriptionHandle> =
        queries.iter().map(|q| kg.subscribe(q.clone())).collect();
    let (mut matches, mut drops) = (Vec::new(), 0u64);
    let mut off = Tracer::new(false, Instant::now());
    let origin = Instant::now();
    let t0 = Instant::now();
    for (i, r) in input.iter().enumerate() {
        system.ingest(*r);
        if (i + 1) % READ_EVERY == 0 {
            drain_subs(&mut off, 0, &mut subs, origin, &mut matches, &mut drops);
        }
    }
    system.realtime.flush();
    system.sync_batch();
    drain_subs(&mut off, 0, &mut subs, origin, &mut matches, &mut drops);
    input.len() as f64 / t0.elapsed().as_secs_f64()
}

/// Match latencies (ms from the producing report's due time) of one run,
/// and the per-subscription sets received.
fn match_latencies(
    run: &OpenRun,
    reference: &Reference,
    subs: usize,
) -> (Vec<f64>, Vec<BTreeSet<String>>, u64) {
    let mut sets = vec![BTreeSet::new(); subs];
    let mut duplicates = 0u64;
    let mut lat = Vec::new();
    for (k, subject, at) in &run.matches {
        duplicates += u64::from(!sets[*k].insert(subject.clone()));
        if let Some(&i) = reference.producer.get(subject) {
            if i < run.records {
                let due = run.start_ns + run.due_ns[i];
                lat.extend(due_latency_ms(&[due], &[*at]));
            }
        }
    }
    (lat, sets, duplicates)
}

/// Runs `net_kg_live`.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let spec = common::scenario(SCENARIO, ctx.seed);
    let shipped = common::config(&spec);
    // A traced run stage-times every record on every shard.
    let cfg = DatacronConfig {
        stage_sample_every: if ctx.trace {
            1
        } else {
            shipped.stage_sample_every
        },
        ..shipped.clone()
    };
    let context = common::context(&spec);

    // Set-up, repeated (`common::setups_done`): generate, build server +
    // client + sharded layer + KG + subscriptions. The last rig is the
    // first one measured.
    let (mut setups, mut gens, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut setups_norm = Vec::new();
    let mut input = Vec::new();
    let mut rig = None;
    let mut k = 0u64;
    while !common::setups_done(&setups) {
        k += 1;
        if let Some(r) = rig.take() {
            teardown(r);
        }
        let kernel_s = calib::kernel();
        let s0 = Instant::now();
        let (generated, gen) = common::generate(&spec);
        input = generated;
        let queries = subscriptions(&spec, &input);
        rig = Some(build(&cfg, &context, &queries, k));
        let took = s0.elapsed().as_secs_f64();
        // The kernel brackets the set-up: its mean is the host's speed.
        let kernel_s = (kernel_s + calib::kernel()) / 2.0;
        setups.push(took);
        setups_norm.push(took / calib::slowdown(kernel_s));
        gens.push(gen.as_secs_f64());
        digests.push(input_digest(&input));
    }
    let queries = subscriptions(&spec, &input);
    out.records = input.len();
    out.input_digest = digests[0];
    out.gate(
        "input.deterministic",
        digests.iter().all(|&d| d == digests[0]),
        format!("{digests:x?}"),
    );
    out.set("raw.setup_s", median(&setups));
    out.set("setup_s", median(&setups_norm));
    out.set("data.gen_s", median(&gens));
    out.note("records", input.len());
    out.note("entities", spec.entities());
    out.note("nominal_rps", NOMINAL_RPS);
    out.set(
        "predict.short_history_panics",
        common::short_history_panics(&cfg) as f64,
    );

    // Measure: nominal open-loop runs, each followed by the closed-loop
    // sharded arm and the per-record system arm, until the window closes.
    let (start, deadline) = (Instant::now(), ctx.deadline());
    let (mut runs, mut sharded, mut per_record, mut single) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut reads, mut misses, mut read_count) = (Vec::new(), 0u64, 0usize);
    let (mut traced_arm, mut plain_arm) = (Vec::new(), Vec::new());
    let (mut sharded_norm, mut per_record_norm, mut kernels) = (Vec::new(), Vec::new(), Vec::new());
    let mut session = k + 10;
    loop {
        let r = rig
            .take()
            .unwrap_or_else(|| build(&cfg, &context, &queries, session));
        session += 1;
        runs.push(open_run(&spec, r, &input, NOMINAL_RPS, true, ctx.trace));
        let mut tracer = Tracer::new(ctx.trace, Instant::now());
        for _ in 0..ARM_REPEATS {
            let (rps, got, kernel_s) = sharded_arm(
                &cfg,
                &context,
                &queries,
                &input,
                &mut Tracer::new(false, Instant::now()),
            );
            out.ops(input.len() as u64, input.len().abs_diff(got) as u64);
            sharded.push(rps);
            sharded_norm.push(rps * calib::slowdown(kernel_s));
            kernels.push(kernel_s * 1e3);
        }
        let (rps, got, kernel_s) = sharded_arm(&cfg, &context, &queries, &input, &mut tracer);
        out.ops(input.len() as u64, input.len().abs_diff(got) as u64);
        sharded.push(rps);
        sharded_norm.push(rps * calib::slowdown(kernel_s));
        kernels.push(kernel_s * 1e3);
        if ctx.trace {
            traced_arm.push(rps);
            let mut off = Tracer::new(false, Instant::now());
            plain_arm.push(sharded_arm(&shipped, &context, &queries, &input, &mut off).0);
        }
        for _ in 0..RECORD_ARM_REPEATS {
            let (rps, r_us, m, kernel_s) = record_arm(&cfg, &context, &input, ctx.seed);
            per_record.push(rps);
            per_record_norm.push(rps * calib::slowdown(kernel_s));
            kernels.push(kernel_s * 1e3);
            reads.push(Summary::of(&r_us));
            misses += m;
            read_count += r_us.len();
        }
        if ctx.trace {
            single.push(system_arm(
                &cfg,
                &context,
                &queries,
                &input[..input.len().min(SYSTEM_ARM_RECORDS)],
            ));
        }
        // MIN_OPEN_RUNS at least (their ad-hoc queries together are also
        // enough for a supported `kgquery_p99_ms`). An iteration takes about
        // twelve seconds, so stop once another would end more than half of
        // one past the window.
        let per_iteration = start.elapsed() / runs.len() as u32;
        if runs.len() >= MIN_OPEN_RUNS && Instant::now() + per_iteration / 2 >= deadline {
            break;
        }
    }
    out.set("peak_rss_mb", common::peak_rss_mb());
    // As measured, and host-normalised arm by arm (see `calib`). The
    // per-record arm runs on one thread, and its rate is pooled over the
    // arms (records over timed wall). The sharded arm's two workers and
    // driver share both cores, and a neighbour's burst of load can stall
    // a few arms in a row by 3x, which the one-thread kernel does not see:
    // its rate is the median over the arms.
    out.set("host.kernel_ms", mean(&kernels));
    out.set("raw.ingest_rps", median(&sharded));
    out.set("raw.record_rps", pooled_rate(&per_record));
    out.set("ingest_rps", median(&sharded_norm));
    out.set("record_rps", pooled_rate(&per_record_norm));
    out.set("kg.sharded_rps", median(&sharded));
    out.set("kg.single_rps", median(&single));
    out.set(
        "forecast_p50_us",
        median(&reads.iter().map(|s| s.p50).collect::<Vec<_>>()),
    );
    out.set(
        "forecast_p99_us",
        median(&reads.iter().map(|s| s.p99).collect::<Vec<_>>()),
    );
    out.note_summary(
        "forecast_us.last_arm",
        reads.last().expect("a system arm ran"),
    );
    out.ops(read_count as u64, misses);
    out.note("forecast_misses", misses);
    out.note("open_runs", runs.len());

    // The reference, untimed, then every latency and gate from it.
    let reference = reference(&cfg, &context, &input, &queries);
    let mut per_run = Vec::new();
    out.note(
        "expected_matches",
        format!(
            "{:?}",
            reference
                .expected
                .iter()
                .map(BTreeSet::len)
                .collect::<Vec<_>>()
        ),
    );
    for (k, run) in runs.iter().enumerate() {
        let (lat, sets, duplicates) = match_latencies(run, &reference, queries.len());
        per_run.push(Summary::of(&lat));
        let expected: usize = reference.expected.iter().map(BTreeSet::len).sum();
        let missing: usize = reference
            .expected
            .iter()
            .zip(&sets)
            .map(|(e, s)| e.difference(s).count())
            .sum();
        let extra: usize = reference
            .expected
            .iter()
            .zip(&sets)
            .map(|(e, s)| s.difference(e).count())
            .sum();
        out.ops(
            expected as u64,
            (missing + extra) as u64 + duplicates + run.match_drops,
        );
        out.gate(
            &format!("run{k}.live_matches_eq_batch"),
            missing == 0 && extra == 0 && duplicates == 0 && run.match_drops == 0,
            format!("expected {expected}, missing {missing}, extra {extra}, duplicates {duplicates}, dropped {}", run.match_drops),
        );
        let undelivered = (run.records - run.outputs.min(run.records)) as u64;
        out.ops(
            run.records as u64,
            run.delivery_errors + undelivered + run.shutdown_dups,
        );
        out.gate(
            &format!("run{k}.delivery_exactly_once_in_order"),
            run.delivery_errors == 0
                && run.seen_ns.len() == run.records
                && run.outputs == run.records
                && run.shutdown_dups == 0,
            format!(
                "seen {}, merged {}, of {}, out-of-order/unequal {}, late+dup {}",
                run.seen_ns.len(),
                run.outputs,
                run.records,
                run.delivery_errors,
                run.shutdown_dups
            ),
        );
        out.gate(
            &format!("run{k}.digest_eq_reference"),
            run.digest == reference.digest,
            format!("{:016x} vs {:016x}", run.digest, reference.digest),
        );
        out.ops(
            run.records as u64 + run.query_ms.len() as u64,
            run.sent.errors,
        );
        let late = Summary::of(
            &run.sent
                .late_ns
                .iter()
                .map(|&l| l as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        out.gate(
            &format!("run{k}.generator_on_schedule"),
            late.p99 <= LATE_LIMIT_MS,
            format!("late p99 {} ms, max {} ms", late.p99, late.max),
        );
    }
    // Open loop: most of this latency is the subscriber's cadence, which
    // the host's speed does not scale, so it is reported as measured.
    let match_p50 = median(&per_run.iter().map(|s| s.p50).collect::<Vec<_>>());
    out.set("match_p50_ms", match_p50);
    out.set("raw.match_p50_ms", match_p50);
    out.set(
        "match_p99_ms",
        median(&per_run.iter().map(|s| s.p99).collect::<Vec<_>>()),
    );
    for (k, s) in per_run.iter().enumerate() {
        out.note_summary(&format!("match_ms.run{k}"), s);
    }
    out.note("ingest_rps.arms", format!("{sharded:.0?}"));
    out.note("record_rps.arms", format!("{per_record:.0?}"));
    out.note("kernel_ms.arms", format!("{kernels:.2?}"));

    // Per-layer figures from the last nominal run.
    let last = runs.last().expect("at least one open-loop run");
    layer_figures(&mut out, last);
    let queries_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.query_ms.iter().copied())
        .collect();
    let kgq = Summary::of(&queries_ms);
    out.set("kgquery_p50_ms", kgq.p50);
    out.set("kgquery_p99_ms", kgq.p99);
    out.note_summary("kgquery_ms", &kgq);

    if ctx.trace {
        out.set(
            "trace.overhead_share",
            median(&traced_arm) / median(&plain_arm) - 1.0,
        );
        let sustained = ladder(
            &mut out, &spec, &cfg, &context, &queries, &input, &reference,
        );
        out.set("sustained_rps", sustained);
        out.file_spans(last.spans.clone(), last.poll_drain_ns + last.flush_drain_ns);
    }
    out.check_bypassed(&["spill."]);
    out
}

fn teardown(rig: Rig) {
    drop(rig.client);
    rig.layer.finish();
    rig.server.shutdown();
}

/// Per-layer figures of one open-loop run.
fn layer_figures(out: &mut Outcome, run: &OpenRun) {
    common::program_figures(out, &run.snap);
    let s = &run.sent;
    out.set("net.send_busy_s", s.busy_ns as f64 / 1e9);
    let wire: Vec<f64> = s
        .sent_ns
        .iter()
        .zip(&run.seen_ns)
        .map(|(&a, &b)| b.saturating_sub(a) as f64 / 1e6)
        .collect();
    out.set("net.wire_ms_p99", Summary::of(&wire).p99);
    out.set("net.replayed", s.stats.replayed as f64);
    out.set("net.reconnects", s.stats.reconnects as f64);
    out.set("net.nacks", run.nacks as f64);
    out.set(
        "bus.backlog_max",
        run.backlog.iter().map(|b| b.1).max().unwrap_or(0) as f64,
    );
    out.set(
        "bus.backlog_end",
        run.backlog.last().map_or(0, |b| b.1) as f64,
    );
    out.set("sharded.submit_busy_s", run.submit_ns as f64 / 1e9);
    out.set(
        "sharded.poll_busy_s",
        run.poll_ns.saturating_sub(run.poll_drain_ns) as f64 / 1e9,
    );
    out.set("sharded.shard_skew", run.skew);
    let ingest_s = common::hist_s(&run.snap, "stage.ingest_ns");
    out.set("realtime.busy_s", ingest_s);
    out.set(
        "realtime.ns_per_record",
        ingest_s * 1e9 / run.records as f64,
    );
    out.set("store.query_busy_s", run.query_ms.iter().sum::<f64>() / 1e3);
    out.set(
        "store.candidates_per_query",
        run.candidates.iter().sum::<u64>() as f64 / run.candidates.len().max(1) as f64,
    );
    let late = Summary::of(
        &s.late_ns
            .iter()
            .map(|&l| l as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    out.set("gen.late_ms_p99", late.p99);
    out.set("gen.late_ms_max", late.max);
    out.note_summary("gen.late_ms", &late);
    out.note_summary("net.wire_ms", &Summary::of(&wire));
}

/// `sustained_rps`: the highest ladder rate whose run meets the
/// `match_p99_ms` limit, delivers every record and match, and shows no
/// growing backlog. Each rung sends the first `rate * RUNG_SECONDS`
/// records of the input.
fn ladder(
    out: &mut Outcome,
    spec: &ScenarioSpec,
    cfg: &DatacronConfig,
    context: &Context,
    queries: &[StarQuery],
    input: &[PositionReport],
    reference: &Reference,
) -> f64 {
    let mut best = 0.0;
    for (k, &rate) in LADDER.iter().enumerate() {
        let n = ((rate * RUNG_SECONDS) as usize).min(input.len());
        let rig = build(cfg, context, queries, 100 + k as u64);
        let run = open_run(spec, rig, &input[..n], rate, false, false);
        let (lat, sets, duplicates) = match_latencies(&run, reference, queries.len());
        let missing: usize = reference
            .expected
            .iter()
            .zip(&sets)
            .map(|(e, s)| {
                e.iter()
                    .filter(|x| {
                        reference.producer.get(*x).is_some_and(|&i| i < n) && !s.contains(*x)
                    })
                    .count()
            })
            .sum();
        let tail = Summary::of(&lat);
        // The limit applies to the highest percentile the rung's samples
        // support (p99 from 1,000 matches up).
        let p99 = tail.tail;
        let growing = backlog_growing(&run.backlog, (rate * 0.025).max(256.0));
        let delivered =
            run.outputs == n && run.delivery_errors == 0 && missing == 0 && duplicates == 0;
        out.note(&format!("ladder.{rate}"), format!("records={n} match_ms_tail=p{} {p99} growing={growing} delivered={delivered} samples={}", tail.tail_q * 100.0, lat.len()));
        if delivered && !growing && p99 > 0.0 && p99 <= MATCH_P99_LIMIT_MS {
            best = rate;
        } else {
            break;
        }
    }
    best
}
