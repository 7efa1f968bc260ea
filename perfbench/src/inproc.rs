//! The two closed-loop, in-process workloads: `hotpath64` and
//! `fleet64k_spill`. Both replay a generated scenario through one
//! `RealTimeLayer`, once through `ingest_batch` in fixed chunks with
//! forecast reads between chunks, and once through per-record `ingest`.

use crate::calib;
use crate::common::{self, Context, Ctx, Outcome, Targets};
use crate::digest::{input_digest, Digest};
use crate::stats::{mean, median, pooled_rate, Summary};
use crate::trace::{rebase, Span, Tracer};
use datacron::core::{DatacronConfig, RealTimeLayer};
use datacron::data::rng::SeededRng;
use datacron::data::scenario::ScenarioSpec;
use datacron::geo::PositionReport;
use datacron::obs::MetricsSnapshot;
use std::time::Instant;

/// Parameters of one in-process workload.
pub struct Params {
    /// The scenario file's text.
    pub scenario: &'static str,
    /// Records per `ingest_batch` call.
    pub chunk: usize,
    /// Forecast reads issued after every chunk.
    pub reads_per_chunk: usize,
    /// Memory-tier resident budget (`None` = every entity resident).
    pub budget: Option<usize>,
}

/// Batched passes per per-record pass: the batched arm also carries the
/// forecast and detection figures, whose per-pass medians need more
/// passes to settle.
const BATCHED_PER_RECORD_PASS: usize = 2;

/// `hotpath64`: 64 entities with long tracks, no budget, no KG, no net.
pub const HOTPATH64: Params = Params {
    scenario: include_str!("../workloads/hotpath64.scenario"),
    chunk: 512,
    reads_per_chunk: 4,
    budget: None,
};

/// `fleet64k_spill`: a 65,536-entity mixed fleet under a resident budget
/// of 8,192 in the memory tier.
pub const FLEET64K_SPILL: Params = Params {
    scenario: include_str!("../workloads/fleet64k_spill.scenario"),
    chunk: 1024,
    reads_per_chunk: 32,
    budget: Some(8192),
};

/// What one pass over the input measured.
#[derive(Default)]
struct Pass {
    /// First submit to flush return, forecast reads and kernel samples
    /// excluded, ns.
    wall_ns: u64,
    /// Time inside the layer's ingest, recycle and flush calls, ns.
    realtime_ns: u64,
    /// Per-call forecast latencies, us.
    read_us: Vec<f64>,
    /// Per detection (record that produced a critical point): chunk
    /// submit to outputs returned, ms.
    detect_ms: Vec<f64>,
    /// Output counts: accepted, critical points, triples, links, area events.
    counts: [u64; 5],
    /// Forecast reads of known entities that returned `None`.
    forecast_misses: u64,
    /// Highest residency after any chunk.
    max_resident: usize,
    snap: MetricsSnapshot,
    /// Outputs + flush + health + counters digest (digest passes only).
    digest: u64,
    /// Digest of every forecast answer (digest passes only).
    forecast_digest: u64,
    spans: Vec<Span>,
    /// Mean calibration kernel time over the pass, s (0 when none ran).
    kernel_s: f64,
}

fn layer(
    cfg: &DatacronConfig,
    ctx: &Context,
    budget: Option<usize>,
    sample_every: Option<u64>,
) -> RealTimeLayer {
    let mut cfg = cfg.clone();
    cfg.max_resident_entities = budget;
    if let Some(every) = sample_every {
        cfg.stage_sample_every = every;
    }
    RealTimeLayer::new(cfg, ctx.0.clone(), ctx.1.clone())
}

fn count(counts: &mut [u64; 5], out: &datacron::core::IngestOutput) {
    counts[0] += u64::from(out.accepted);
    counts[1] += out.critical_points.len() as u64;
    counts[2] += out.triples.len() as u64;
    counts[3] += out.links.len() as u64;
    counts[4] += out.area_events.len() as u64;
}

/// One batched pass: chunks through `ingest_batch`, a fixed quota of
/// forecast reads of seeded known entities after each chunk, then flush.
/// `calibrate`: none, the host-speed kernel before the pass only
/// (`Some(false)`), or before it and between its chunks (`Some(true)`).
fn batched(
    input: &[PositionReport],
    mut layer: RealTimeLayer,
    p: &Params,
    seed: u64,
    tracer: &mut Tracer,
    digest: bool,
    calibrate: Option<bool>,
) -> Pass {
    let mut pass = Pass::default();
    let mut d = Digest::default();
    let mut fd = Digest::default();
    let mut host = calibrate.map(calib::Sampler::new);
    let mut rng = SeededRng::new(seed ^ 0xF0CA_57ED);
    let mut targets = Targets::new(common::MIN_FORECAST_HISTORY);
    let mut read_ns = 0u64;
    tracer.begin("timed.batched", 0);
    let t0 = Instant::now();
    for (id, slice) in input.chunks(p.chunk).enumerate() {
        let id = id as u64;
        let c0 = Instant::now();
        let outputs = tracer.span("realtime.ingest_batch", id, || {
            layer.ingest_batch(slice.iter().copied())
        });
        let c1 = Instant::now();
        let chunk_ms = (c1 - c0).as_secs_f64() * 1e3;
        pass.max_resident = pass.max_resident.max(layer.resident_entity_count());
        for (r, out) in slice.iter().zip(&outputs) {
            count(&mut pass.counts, out);
            if !out.critical_points.is_empty() {
                pass.detect_ms.push(chunk_ms);
            }
            targets.observe(r.entity, out.accepted);
            if digest {
                d.absorb(out);
            }
        }
        let r0 = Instant::now();
        tracer.span("realtime.recycle", id, || {
            outputs.into_iter().for_each(|o| layer.recycle(o))
        });
        pass.realtime_ns += ((c1 - c0) + r0.elapsed()).as_nanos() as u64;
        read_ns += host.as_mut().map_or(0, calib::Sampler::tick);
        if targets.known.is_empty() {
            continue;
        }
        let q0 = Instant::now();
        pass.forecast_misses += tracer.span("predict.predict_location", id, || {
            common::forecast_reads(
                &layer,
                &targets,
                &mut rng,
                p.reads_per_chunk,
                &mut pass.read_us,
                |target, answer| {
                    if digest {
                        fd.absorb(&(target, answer));
                    }
                },
            )
        });
        read_ns += q0.elapsed().as_nanos() as u64;
    }
    let f0 = Instant::now();
    let flush = tracer.span("realtime.flush", 0, || layer.flush());
    pass.realtime_ns += f0.elapsed().as_nanos() as u64;
    pass.wall_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(read_ns);
    tracer.end();
    if digest {
        d.absorb(&flush);
        d.absorb(&layer.health());
        d.absorb(&layer.metrics_snapshot().counters_only());
    }
    pass.digest = d.finish();
    pass.forecast_digest = fd.finish();
    pass.kernel_s = host.map_or(0.0, |h| h.kernel_s());
    pass.snap = layer.metrics_snapshot();
    pass
}

/// One per-record pass: every record through `ingest`, then flush;
/// `calibrate` as for [`batched`].
fn per_record(
    input: &[PositionReport],
    mut layer: RealTimeLayer,
    chunk: usize,
    tracer: &mut Tracer,
    digest: bool,
    calibrate: Option<bool>,
) -> Pass {
    let mut pass = Pass::default();
    let mut d = Digest::default();
    let mut host = calibrate.map(calib::Sampler::new);
    let mut kernel_ns = 0u64;
    tracer.begin("timed.per_record", 0);
    let t0 = Instant::now();
    for (id, slice) in input.chunks(chunk).enumerate() {
        tracer.begin("realtime.ingest", id as u64);
        for r in slice {
            let out = layer.ingest(*r);
            count(&mut pass.counts, &out);
            if digest {
                d.absorb(&out);
            }
            layer.recycle(out);
        }
        tracer.end();
        pass.max_resident = pass.max_resident.max(layer.resident_entity_count());
        kernel_ns += host.as_mut().map_or(0, calib::Sampler::tick);
    }
    let flush = tracer.span("realtime.flush", 0, || layer.flush());
    pass.wall_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(kernel_ns);
    pass.realtime_ns = pass.wall_ns;
    tracer.end();
    if digest {
        d.absorb(&flush);
        d.absorb(&layer.health());
        d.absorb(&layer.metrics_snapshot().counters_only());
    }
    pass.digest = d.finish();
    pass.snap = layer.metrics_snapshot();
    pass.kernel_s = host.map_or(0.0, |h| h.kernel_s());
    pass
}

fn spill_counts(snap: &MetricsSnapshot) -> (i64, i64) {
    (
        snap.gauge("spill.evictions").unwrap_or(0),
        snap.gauge("spill.rehydrations").unwrap_or(0),
    )
}

/// Runs one in-process workload.
pub fn run(ctx: &Ctx, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let spec: ScenarioSpec = common::scenario(p.scenario, ctx.seed);
    let cfg = common::config(&spec);
    let context = common::context(&spec);

    // Set-up, repeated (`common::setups_done`): generate the input, build
    // the layer, warm up on a prefix. The median is `setup_s`; the inputs
    // must agree.
    let (mut setups, mut gens, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut setups_norm = Vec::new();
    let mut input = Vec::new();
    while !common::setups_done(&setups) {
        drop(std::mem::take(&mut input));
        let kernel_s = calib::kernel();
        let s0 = Instant::now();
        let (generated, gen) = common::generate(&spec);
        input = generated;
        let mut warm = layer(&cfg, &context, p.budget, None);
        for slice in input[..input.len().min(4 * p.chunk)].chunks(p.chunk) {
            for o in warm.ingest_batch(slice.iter().copied()) {
                warm.recycle(o);
            }
        }
        drop(warm);
        let took = s0.elapsed().as_secs_f64();
        // The kernel brackets the set-up: its mean is the host's speed.
        let kernel_s = (kernel_s + calib::kernel()) / 2.0;
        setups.push(took);
        setups_norm.push(took / calib::slowdown(kernel_s));
        gens.push(gen.as_secs_f64());
        digests.push(input_digest(&input));
    }
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
    out.set(
        "predict.short_history_panics",
        common::short_history_panics(&cfg) as f64,
    );

    // The untimed digest passes run first and double as the warm-up of
    // the allocator and caches. fleet64k_spill's resident reference runs
    // after the peak-memory reading, so that reading is the budgeted arm's.
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);
    let digest_pass = batched(
        &input,
        layer(&cfg, &context, p.budget, None),
        p,
        ctx.seed,
        &mut off,
        true,
        None,
    );
    let per_record_digest = p.budget.is_none().then(|| {
        per_record(
            &input,
            layer(&cfg, &context, None, None),
            p.chunk,
            &mut off,
            true,
            None,
        )
    });

    // Measure: two batched passes, then a per-record pass, until the
    // window closes after a pass (once both arms have one). A traced run
    // alternates an untraced batched pass (for the overhead share) with a
    // traced one and closes with one traced per-record pass.
    let deadline = ctx.deadline();
    let (mut bat, mut rec, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    let traced_every = ctx.trace.then_some(1);
    'measure: loop {
        for _ in 0..BATCHED_PER_RECORD_PASS {
            if !ctx.trace && !rec.is_empty() && Instant::now() >= deadline {
                break 'measure;
            }
            if ctx.trace {
                let mut off = Tracer::new(false, origin);
                plain.push(batched(
                    &input,
                    layer(&cfg, &context, p.budget, None),
                    p,
                    ctx.seed,
                    &mut off,
                    false,
                    None,
                ));
            }
            let mut tracer = Tracer::new(ctx.trace, origin);
            let mut pass = batched(
                &input,
                layer(&cfg, &context, p.budget, traced_every),
                p,
                ctx.seed,
                &mut tracer,
                false,
                Some(!ctx.trace),
            );
            pass.spans = tracer.into_spans();
            bat.push(pass);
        }
        if !ctx.trace || Instant::now() >= deadline {
            let mut tracer = Tracer::new(ctx.trace, origin);
            let mut pass = per_record(
                &input,
                layer(&cfg, &context, p.budget, traced_every),
                p.chunk,
                &mut tracer,
                false,
                Some(!ctx.trace),
            );
            pass.spans = tracer.into_spans();
            rec.push(pass);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    out.set("peak_rss_mb", common::peak_rss_mb());
    let n = input.len() as f64;
    // Records over timed wall, pooled over every pass of the arm: as
    // measured, and host-normalised pass by pass (see `calib`).
    let rps = |passes: &[Pass], normalise: bool| {
        pooled_rate(
            &passes
                .iter()
                .map(|q| {
                    let scale = if normalise {
                        calib::slowdown(q.kernel_s)
                    } else {
                        1.0
                    };
                    n / (q.wall_ns as f64 / 1e9) * scale
                })
                .collect::<Vec<_>>(),
        )
    };
    let kernels: Vec<f64> = bat.iter().chain(&rec).map(|q| q.kernel_s * 1e3).collect();
    out.set("host.kernel_ms", mean(&kernels));
    out.set("raw.ingest_rps", rps(&bat, false));
    out.set("raw.record_rps", rps(&rec, false));
    out.set("ingest_rps", rps(&bat, true));
    out.set("record_rps", rps(&rec, true));
    out.note(
        "passes",
        format!("batched={} per_record={}", bat.len(), rec.len()),
    );
    // Tails per pass, then the median across passes: a pass that a
    // neighbour's burst of load slowed moves the median of the passes
    // less than it moves one pooled percentile.
    let reads: Vec<Summary> = bat.iter().map(|q| Summary::of(&q.read_us)).collect();
    out.set(
        "forecast_p50_us",
        median(&reads.iter().map(|s| s.p50).collect::<Vec<_>>()),
    );
    out.set(
        "forecast_p99_us",
        median(&reads.iter().map(|s| s.p99).collect::<Vec<_>>()),
    );
    out.note_summary(
        "forecast_us.last_pass",
        reads.last().expect("a batched pass"),
    );
    // The p50 of each pass, averaged over passes (like the pooled rates, it
    // moves only by the share of the run spent in each of the host's
    // phases): as measured, and host-normalised pass by pass.
    let detect: Vec<Summary> = bat.iter().map(|q| Summary::of(&q.detect_ms)).collect();
    out.set(
        "raw.match_p50_ms",
        mean(&detect.iter().map(|s| s.p50).collect::<Vec<_>>()),
    );
    out.set(
        "match_p50_ms",
        mean(
            &detect
                .iter()
                .zip(&bat)
                .map(|(s, q)| s.p50 / calib::slowdown(q.kernel_s))
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "match_p99_ms",
        median(&detect.iter().map(|s| s.p99).collect::<Vec<_>>()),
    );
    out.note_summary("match_ms.last_pass", detect.last().expect("a batched pass"));
    let per_pass = |v: &[Pass]| {
        v.iter()
            .map(|q| format!("{:.0}", n / (q.wall_ns as f64 / 1e9)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("ingest_rps.passes", per_pass(&bat));
    out.note("record_rps.passes", per_pass(&rec));
    let kernel_ms = |v: &[Pass]| {
        v.iter()
            .map(|q| format!("{:.2}", q.kernel_s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("kernel_ms.batched_passes", kernel_ms(&bat));
    out.note("kernel_ms.per_record_passes", kernel_ms(&rec));

    let last = bat.last().expect("at least one batched pass");
    let busy = median(
        &bat.iter()
            .map(|q| q.realtime_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    out.set("realtime.busy_s", busy);
    out.set("realtime.ns_per_record", busy * 1e9 / n);
    out.set(
        "predict.busy_s",
        median(
            &bat.iter()
                .map(|q| q.read_us.iter().sum::<f64>() / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    common::program_figures(&mut out, &last.snap);
    if ctx.trace {
        let traced = median(&bat.iter().map(|q| q.wall_ns as f64).collect::<Vec<_>>());
        let untraced = median(&plain.iter().map(|q| q.wall_ns as f64).collect::<Vec<_>>());
        out.set("trace.overhead_share", traced / untraced - 1.0);
        // The per-record pass is its own timed root.
        let mut spans = last.spans.clone();
        spans.extend(rebase(
            rec.last().map(|q| q.spans.clone()).unwrap_or_default(),
            spans.len(),
        ));
        out.file_spans(spans, 0);
    }

    // Operations: every record of every pass, every forecast read.
    let all: Vec<&Pass> = bat.iter().chain(&rec).chain(&plain).collect();
    let misses: u64 = all.iter().map(|q| q.forecast_misses).sum();
    let read_count: usize = all.iter().map(|q| q.read_us.len()).sum();
    out.ops(
        all.len() as u64 * input.len() as u64 + read_count as u64,
        misses,
    );
    out.note("forecast_misses", misses);

    // Gates, outside every timed section.
    let same_counts = all.iter().all(|q| q.counts == all[0].counts);
    out.gate(
        "passes.same_outputs",
        same_counts,
        format!("{:?}", all.iter().map(|q| q.counts).collect::<Vec<_>>()),
    );
    let spills: Vec<(i64, i64)> = bat
        .iter()
        .chain(&plain)
        .map(|q| spill_counts(&q.snap))
        .collect();
    out.gate(
        "spill.counts_repeat",
        spills.iter().all(|&s| s == spills[0]),
        format!("batched {spills:?}"),
    );
    if let Some(budget) = p.budget {
        let max = all.iter().map(|q| q.max_resident).max().unwrap_or(0);
        out.gate(
            "spill.budget_respected",
            max <= budget,
            format!("max resident {max} of {budget}"),
        );
        out.gate(
            "spill.exercised",
            spills[0].0 > 0 && spills[0].1 > 0,
            format!("{:?}", spills[0]),
        );
    }
    let same = digest_pass.counts == all[0].counts;
    out.gate(
        "passes.same_outputs_as_digest_pass",
        same,
        format!("{:?} vs {:?}", digest_pass.counts, all[0].counts),
    );
    match per_record_digest {
        // hotpath64: the batched digest equals the per-record digest.
        Some(r) => {
            let b = &digest_pass;
            out.gate(
                "digest.batched_eq_per_record",
                b.digest == r.digest,
                format!("{:016x} vs {:016x}", b.digest, r.digest),
            );
            out.check_bypassed(&[&["spill."], common::NET_KG_FIGURES].concat());
        }
        // fleet64k_spill: the budgeted digest, forecasts included, equals
        // a resident reference over the same input and reads.
        None => {
            let b = &digest_pass;
            let r = batched(
                &input,
                layer(&cfg, &context, None, None),
                p,
                ctx.seed,
                &mut off,
                true,
                None,
            );
            out.gate(
                "digest.budgeted_eq_resident",
                b.digest == r.digest,
                format!("{:016x} vs {:016x}", b.digest, r.digest),
            );
            out.gate(
                "digest.forecasts_budgeted_eq_resident",
                b.forecast_digest == r.forecast_digest,
                format!("{:016x} vs {:016x}", b.forecast_digest, r.forecast_digest),
            );
            out.check_bypassed(common::NET_KG_FIGURES);
        }
    }
    out
}
