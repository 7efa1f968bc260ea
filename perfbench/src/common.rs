//! What every workload shares: the metric catalogue, the outcome record,
//! scenario inputs, the shipped configuration, and readings taken from
//! the program's own metrics.

use crate::stats::Summary;
use crate::trace::{layer_self_ns, root_wall_ns, Span};
use datacron::core::{DatacronConfig, RealTimeLayer};
use datacron::data::rng::SeededRng;
use datacron::data::scenario::{ScenarioGenerator, ScenarioSpec};
use datacron::geo::{BoundingBox, EntityId, GeoPoint, Polygon, PositionReport, Timestamp};
use datacron::obs::MetricsSnapshot;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_rps", "1/s"),
    ("record_rps", "1/s"),
    ("match_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("forecast_p50_us", "us"),
    ("forecast_p99_us", "us"),
    ("match_p99_ms", "ms"),
    ("data.gen_s", "s"),
    ("net.send_busy_s", "s"),
    ("net.wire_ms_p99", "ms"),
    ("net.replayed", "count"),
    ("net.reconnects", "count"),
    ("net.nacks", "count"),
    ("bus.backlog_max", "count"),
    ("bus.backlog_end", "count"),
    ("sharded.submit_busy_s", "s"),
    ("sharded.poll_busy_s", "s"),
    ("sharded.submit_to_merge_ms_p99", "ms"),
    ("sharded.shard_skew", "ratio"),
    ("realtime.busy_s", "s"),
    ("realtime.ns_per_record", "ns"),
    ("realtime.stage.clean_s", "s"),
    ("realtime.stage.synopses_s", "s"),
    ("realtime.stage.link_s", "s"),
    ("realtime.stage.rdf_s", "s"),
    ("realtime.stage.cep_s", "s"),
    ("realtime.unattributed_share", "share"),
    ("spill.evictions", "count"),
    ("spill.rehydrations", "count"),
    ("spill.evict_s", "s"),
    ("spill.rehydrate_s", "s"),
    ("spill.trigger_s", "s"),
    ("spill.spilled_bytes", "bytes"),
    ("predict.busy_s", "s"),
    ("predict.short_history_panics", "count"),
    ("kg.drain_s", "s"),
    ("kg.triples_per_generation", "count"),
    ("kg.ingest_to_match_ms_p99", "ms"),
    ("kg.match_drops", "count"),
    ("kg.triples_lost", "count"),
    ("kg.single_rps", "1/s"),
    ("kg.sharded_rps", "1/s"),
    ("store.query_busy_s", "s"),
    ("store.candidates_per_query", "count"),
    ("kgquery_p50_ms", "ms"),
    ("kgquery_p99_ms", "ms"),
    ("sustained_rps", "1/s"),
    ("gen.late_ms_p99", "ms"),
    ("gen.late_ms_max", "ms"),
    ("error_share", "share"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.bus_s", "s"),
    ("trace.gen_s", "s"),
    ("trace.kg_s", "s"),
    ("trace.net_s", "s"),
    ("trace.predict_s", "s"),
    ("trace.realtime_s", "s"),
    ("trace.sharded_s", "s"),
    ("trace.store_s", "s"),
    ("trace.overhead_share", "share"),
    ("host.kernel_ms", "ms"),
    ("raw.setup_s", "s"),
    ("raw.ingest_rps", "1/s"),
    ("raw.record_rps", "1/s"),
    ("raw.match_p50_ms", "ms"),
];

/// Figures of the network, bus, sharded, KG, store and generator layers:
/// all 0 on the in-process workloads.
pub const NET_KG_FIGURES: &[&str] = &[
    "net.",
    "bus.",
    "sharded.",
    "kg.",
    "store.",
    "gen.",
    "kgquery",
    "sustained",
    "trace.net",
    "trace.bus",
    "trace.gen",
    "trace.kg",
    "trace.sharded",
    "trace.store",
];

/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Set-ups continue past [`SETUP_REPEATS`] until they have taken this
/// long together (a set-up of a few milliseconds needs more samples for a
/// steady median), up to [`SETUP_MAX_REPEATS`].
pub const SETUP_SECONDS: f64 = 1.5;

/// Most set-ups per run.
pub const SETUP_MAX_REPEATS: usize = 50;

/// Whether the set-ups timed so far (seconds each) are enough.
pub fn setups_done(setups: &[f64]) -> bool {
    let n = setups.len();
    n >= SETUP_MAX_REPEATS || (n >= SETUP_REPEATS && setups.iter().sum::<f64>() >= SETUP_SECONDS)
}

/// Layers a span can be filed under (the prefix of its name).
pub const TRACE_LAYERS: &[&str] = &[
    "bus", "gen", "kg", "net", "predict", "realtime", "sharded", "store",
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (spans on, every record stage-timed).
    pub trace: bool,
}

impl Ctx {
    /// When the measuring window that starts now ends.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Everything one run found out.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every computed figure, by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (records, reads, matches, sends, queries, gates).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness gates: name, passed, detail.
    pub gates: Vec<(String, bool, String)>,
    /// Records in the generated input.
    pub records: usize,
    /// FNV digest of the generated input.
    pub input_digest: u64,
    /// Free-form facts for the report (sample counts, parameters).
    pub notes: Vec<(String, String)>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a figure.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "{name} is not in the metric catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records a correctness gate; a failed gate is a failed operation.
    pub fn gate(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.attempted += 1;
        self.failed += u64::from(!passed);
        self.gates.push((name.to_string(), passed, detail.into()));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a fact for the report.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a timing summary's sample count and supported tail.
    pub fn note_summary(&mut self, key: &str, s: &Summary) {
        self.note(
            key,
            format!(
                "count={} p50={} tail=p{} {} max={}",
                s.count,
                s.p50,
                s.tail_q * 100.0,
                s.tail,
                s.max
            ),
        );
    }

    /// Files the traced spans: per-layer self times, the `unattributed`
    /// residual and the wall time they reconcile to (a gate).
    pub fn file_spans(&mut self, spans: Vec<Span>, kg_drain_ns: u64) {
        let mut layers = layer_self_ns(&spans);
        // The KG drains inside the sharded layer's poll and flush calls,
        // out of the benchmark's sight; its exact drain time comes from
        // the program's `kg.drain_ns` histogram and moves from the
        // sharded layer's self time to the KG's.
        if kg_drain_ns > 0 {
            let sharded = layers.entry("sharded").or_insert(0);
            let moved = kg_drain_ns.min(*sharded);
            *sharded -= moved;
            *layers.entry("kg").or_insert(0) += moved;
        }
        let wall = root_wall_ns(&spans);
        let named: u64 = layers
            .iter()
            .filter(|(l, _)| **l != "unattributed")
            .map(|(_, t)| t)
            .sum();
        let unattributed = layers.get("unattributed").copied().unwrap_or(0);
        let unknown: Vec<&str> = layers
            .keys()
            .copied()
            .filter(|l| *l != "unattributed" && !TRACE_LAYERS.contains(l))
            .collect();
        self.gate(
            "trace.reconciles",
            named + unattributed == wall && wall > 0 && unknown.is_empty(),
            format!("named {named} ns + unattributed {unattributed} ns vs wall {wall} ns; unknown layers {unknown:?}"),
        );
        for layer in TRACE_LAYERS {
            let ns = layers.get(layer).copied().unwrap_or(0);
            let name: &'static str = match *layer {
                "bus" => "trace.bus_s",
                "gen" => "trace.gen_s",
                "kg" => "trace.kg_s",
                "net" => "trace.net_s",
                "predict" => "trace.predict_s",
                "realtime" => "trace.realtime_s",
                "sharded" => "trace.sharded_s",
                _ => "trace.store_s",
            };
            self.set(name, ns as f64 / 1e9);
        }
        self.set("trace.unattributed_s", unattributed as f64 / 1e9);
        self.set("trace.wall_s", wall as f64 / 1e9);
        self.note("trace.spans", spans.len());
        self.spans = spans;
    }

    /// Checks that every figure of a layer this workload bypasses reads 0
    /// (names starting with one of `prefixes`).
    pub fn check_bypassed(&mut self, prefixes: &[&str]) {
        let nonzero: Vec<String> = self
            .metrics
            .iter()
            .filter(|(n, v)| prefixes.iter().any(|p| n.starts_with(p)) && **v != 0.0)
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        let detail = format!("bypassed {prefixes:?}; non-zero: {nonzero:?}");
        self.gate("bypass.zero", nonzero.is_empty(), detail);
    }
}

/// A workload's input shape, parsed by `datacron-data`'s scenario parser
/// from the file under `perfbench/workloads/`, reseeded from `--seed`.
pub fn scenario(text: &str, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::parse(text).expect("the benchmark's scenario files parse");
    spec.seed = seed;
    spec
}

/// Generates the input; returns it with the generation time.
pub fn generate(spec: &ScenarioSpec) -> (Vec<PositionReport>, Duration) {
    let t0 = Instant::now();
    let input = ScenarioGenerator::new(spec.clone()).collect_reports();
    (input, t0.elapsed())
}

/// The shipped configuration for a scenario: aviation thresholds for a
/// mixed fleet (they admit slow movers), maritime for vessels only —
/// the same choice the scenario runner makes.
pub fn config(spec: &ScenarioSpec) -> DatacronConfig {
    if spec.aircraft > 0 {
        DatacronConfig::aviation(spec.extent)
    } else {
        DatacronConfig::maritime(spec.extent)
    }
}

/// Stationary context of a layer: protected areas and ports.
pub type Context = (Vec<(u64, Polygon)>, Vec<(u64, GeoPoint)>);

/// Monitoring context derived from the scenario extent, as the scenario
/// runner builds it: two protected areas and two ports, so area events
/// and link discovery do real work.
pub fn context(spec: &ScenarioSpec) -> Context {
    let e = &spec.extent;
    let (w, h) = (e.max_lon - e.min_lon, e.max_lat - e.min_lat);
    let rect = |lon0: f64, lat0: f64, lon1: f64, lat1: f64| {
        Polygon::rect(BoundingBox::new(lon0, lat0, lon1, lat1))
    };
    let regions = vec![
        (
            1u64,
            rect(
                e.min_lon + 0.2 * w,
                e.min_lat + 0.2 * h,
                e.min_lon + 0.45 * w,
                e.min_lat + 0.45 * h,
            ),
        ),
        (
            2u64,
            rect(
                e.min_lon + 0.55 * w,
                e.min_lat + 0.55 * h,
                e.min_lon + 0.8 * w,
                e.min_lat + 0.8 * h,
            ),
        ),
    ];
    let mid = e.min_lat + 0.5 * h;
    let ports = vec![
        (1u64, GeoPoint::new(e.min_lon + 0.25 * w, mid)),
        (2u64, GeoPoint::new(e.min_lon + 0.75 * w, mid)),
    ];
    (regions, ports)
}

/// Peak resident memory of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of a histogram in the program's metrics, seconds.
pub fn hist_s(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9)
}

/// Figures every workload reads from the program's own metrics snapshot:
/// stage sums (exact when every record is stage-timed), the realtime
/// residual, spill and KG series. A layer the workload does not run
/// reads 0 here because the program recorded nothing for it.
pub fn program_figures(out: &mut Outcome, snap: &MetricsSnapshot) {
    let stages = [
        ("realtime.stage.clean_s", "stage.clean_ns"),
        ("realtime.stage.synopses_s", "stage.synopses_ns"),
        ("realtime.stage.link_s", "stage.link_ns"),
        ("realtime.stage.rdf_s", "stage.rdf_ns"),
        ("realtime.stage.cep_s", "stage.cep_ns"),
    ];
    let mut named = 0.0;
    for (metric, hist) in stages {
        let s = hist_s(snap, hist);
        named += s;
        out.set(metric, s);
    }
    let ingest = hist_s(snap, "stage.ingest_ns");
    out.set(
        "realtime.unattributed_share",
        if ingest > 0.0 {
            1.0 - named / ingest
        } else {
            0.0
        },
    );
    let gauge = |n: &str| snap.gauge(n).unwrap_or(0) as f64;
    out.set("spill.evictions", gauge("spill.evictions"));
    out.set("spill.rehydrations", gauge("spill.rehydrations"));
    out.set("spill.spilled_bytes", gauge("spill.spilled_bytes"));
    out.set("spill.evict_s", hist_s(snap, "spill.evict_ns"));
    out.set("spill.rehydrate_s", hist_s(snap, "spill.rehydrate_ns"));
    out.set("spill.trigger_s", hist_s(snap, "spill.trigger_ns"));
    out.set("kg.drain_s", hist_s(snap, "kg.drain_ns"));
    out.set("kg.match_drops", gauge("kg.match_drops"));
    out.set("kg.triples_lost", gauge("kg.triples_lost"));
    let generation = gauge("kg.generation");
    let triples = snap.counter("kg.ingested_triples").unwrap_or(0) as f64;
    out.set(
        "kg.triples_per_generation",
        if generation > 0.0 {
            triples / generation
        } else {
            0.0
        },
    );
    out.set(
        "kg.ingest_to_match_ms_p99",
        snap.histogram("kg.ingest_to_match_ns")
            .map_or(0.0, |h| h.p99() as f64 / 1e6),
    );
    out.set(
        "sharded.submit_to_merge_ms_p99",
        snap.histogram("exec.submit_to_merge_ns")
            .map_or(0.0, |h| h.p99() as f64 / 1e6),
    );
}

/// Accepted reports an entity needs before forecast reads target it.
///
/// `predict_location` panics on a history of exactly 4 or 5 reports
/// (`RmfStarPredictor::select_mode` clamps with min 2 > max n - 4), a
/// defect of the program this benchmark does not change. Reads target
/// entities with at least 6 reports; [`short_history_panics`] keeps the
/// defect visible as a per-layer count until it is fixed.
pub const MIN_FORECAST_HISTORY: u32 = 6;

/// Forecast targets: known entities in the order they reached `min`
/// accepted reports.
pub struct Targets {
    min: u32,
    accepted: HashMap<EntityId, u32>,
    /// Entities eligible as targets.
    pub known: Vec<EntityId>,
}

impl Targets {
    /// Targets need `min` (at least [`MIN_FORECAST_HISTORY`]) accepted
    /// reports.
    pub fn new(min: u32) -> Targets {
        Targets {
            min: min.max(MIN_FORECAST_HISTORY),
            accepted: HashMap::new(),
            known: Vec::new(),
        }
    }

    /// Notes one ingested record of `entity`.
    pub fn observe(&mut self, entity: EntityId, accepted: bool) {
        if accepted {
            let n = self.accepted.entry(entity).or_insert(0);
            *n += 1;
            if *n == self.min {
                self.known.push(entity);
            }
        }
    }
}

/// Forecast horizon of every read: `k` steps of `step_seconds`.
pub const HORIZON: (usize, f64) = (6, 10.0);

/// Issues `n` `predict_location` reads of seeded targets, timing each
/// call into `latencies_us` and handing each answer to `answer`. Returns
/// how many reads of a known entity answered `None`.
pub fn forecast_reads(
    layer: &RealTimeLayer,
    targets: &Targets,
    rng: &mut SeededRng,
    n: usize,
    latencies_us: &mut Vec<f64>,
    mut answer: impl FnMut(EntityId, &Option<Vec<GeoPoint>>),
) -> u64 {
    let mut misses = 0;
    for _ in 0..n {
        let target = targets.known[rng.index(targets.known.len())];
        let s = Instant::now();
        let forecast = layer.predict_location(target, HORIZON.0, HORIZON.1);
        latencies_us.push(s.elapsed().as_nanos() as f64 / 1e3);
        misses += u64::from(forecast.is_none());
        answer(target, &forecast);
    }
    misses
}

/// How many of the histories of 1 to 5 reports make `predict_location`
/// panic, probed on a throwaway layer (panic output silenced).
pub fn short_history_panics(cfg: &DatacronConfig) -> u64 {
    let mut layer = RealTimeLayer::new(cfg.clone(), Vec::new(), Vec::new());
    let e = cfg.extent;
    let start = GeoPoint::new((e.min_lon + e.max_lon) / 2.0, (e.min_lat + e.max_lat) / 2.0);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut panics = 0;
    for k in 1..=5i64 {
        let entity = EntityId::vessel(1_000_000 + k as u64);
        let mut p = start;
        // A turning, accelerating track: RMF* only selects a mode (the
        // defective path) when the velocities are not steady.
        for i in 0..k {
            let (heading, speed) = (90.0 + 40.0 * i as f64, 5.0 + 3.0 * i as f64);
            layer.ingest(PositionReport {
                speed_mps: speed,
                heading_deg: heading,
                ..PositionReport::basic(entity, Timestamp::from_secs(i * 10), p)
            });
            p = p.destination(heading, speed * 10.0);
        }
        let probe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            layer.predict_location(entity, HORIZON.0, HORIZON.1)
        }));
        panics += u64::from(probe.is_err());
    }
    std::panic::set_hook(hook);
    panics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_repeat_until_enough_time_or_the_cap() {
        assert!(!setups_done(&[0.5; 4]), "fewer than the minimum");
        assert!(setups_done(&[0.5; SETUP_REPEATS]));
        assert!(!setups_done(&[0.01; SETUP_REPEATS]), "short set-ups go on");
        assert!(setups_done(&[0.01; SETUP_MAX_REPEATS]));
    }
}
