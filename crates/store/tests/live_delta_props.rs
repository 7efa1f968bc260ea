//! Delta-driven subscription evaluation: after *every* batch, the
//! cumulative emissions of each subscription equal one `execute_star` over
//! that batch's snapshot, however the stream is cut into batches and
//! whenever the subscription was registered.

use datacron_geo::{BoundingBox, EquiGrid, GeoPoint, StCellEncoder, TimeInterval, Timestamp};
use datacron_rdf::term::{Term, Triple};
use datacron_store::{
    anchored_node_triples, LiveStore, StExecution, StarQuery, StoreConfig, SubscriptionHandle,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn store() -> LiveStore {
    let grid = EquiGrid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 16, 16);
    LiveStore::new(
        StCellEncoder::new(grid, Timestamp(0), 60_000),
        StoreConfig::default(),
    )
}

fn subject(i: u8) -> Term {
    Term::iri(format!("n:{i}"))
}

/// A subscription under test with everything it has emitted so far.
struct Watched {
    query: StarQuery,
    handle: SubscriptionHandle,
    emitted: HashSet<Term>,
}

impl Watched {
    fn register(live: &LiveStore, query: StarQuery) -> Self {
        let handle = live.subscribe(query.clone(), 1 << 16);
        Self {
            query,
            handle,
            emitted: HashSet::new(),
        }
    }

    /// Drains the new matches; `Err` names a subject emitted twice.
    fn drain(&mut self) -> Result<Vec<Term>, String> {
        let fresh: Vec<Term> = self
            .handle
            .matches
            .drain()
            .expect("capacity exceeds every emission")
            .into_iter()
            .map(|m| m.subject)
            .collect();
        for s in &fresh {
            if !self.emitted.insert(s.clone()) {
                return Err(format!("{s:?} emitted twice"));
            }
        }
        Ok(fresh)
    }

    /// The reference: one star query over the current snapshot.
    fn reference(&self, live: &LiveStore) -> HashSet<Term> {
        let snap = live.snapshot();
        let (push, _) = snap.execute_star(&self.query, StExecution::Pushdown);
        let (post, _) = snap.execute_star(&self.query, StExecution::PostFilter);
        assert_eq!(push, post, "pushdown and post-filter agree");
        push.into_iter().collect()
    }
}

/// Predicate `k` of the generated graphs; `p:late` only ever appears in
/// the second half of a stream.
fn predicate(k: u8) -> Term {
    match k {
        4 => Term::iri("p:late"),
        k => Term::iri(format!("p:{k}")),
    }
}

/// Objects 0..4 are constants; 4..8 name subjects 0..4, so a term can be
/// seen as an object before it is ever a subject.
fn object(k: u8) -> Term {
    if k < 4 {
        Term::iri(format!("o:{k}"))
    } else {
        subject(k - 4)
    }
}

fn window(k: u8) -> Option<(BoundingBox, TimeInterval)> {
    match k {
        0 => None,
        1 => Some((
            BoundingBox::new(0.0, 0.0, 5.0, 10.0),
            TimeInterval::new(Timestamp(0), Timestamp(3_600_000)),
        )),
        _ => Some((
            BoundingBox::new(2.0, 2.0, 8.0, 8.0),
            TimeInterval::new(Timestamp(0), Timestamp(1_800_000)),
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random star-shaped graphs split at random batch boundaries, with
    /// subscriptions registered before, during and after the stream.
    #[test]
    fn cumulative_emissions_equal_the_snapshot_after_every_batch(
        raw in proptest::collection::vec((0u8..10, 0u8..5, 0u8..8), 1..90),
        anchored in proptest::collection::vec(proptest::bool::ANY, 10..11),
        cuts in proptest::collection::vec(0usize..90, 0..14),
        subs in proptest::collection::vec((0u8..5, 0u8..6, 0u8..10, 0u8..3, 0usize..16), 1..5),
    ) {
        // One unit per generated triple; a subject's first triple carries
        // its anchor triples along when the subject is anchored, so it is
        // spatio-temporally encoded unless it was seen as an object first.
        let mut seen = HashSet::new();
        let half = raw.len() / 2;
        let units: Vec<Vec<Triple>> = raw
            .iter()
            .enumerate()
            .map(|(i, &(s, p, o))| {
                let p = if p == 4 && i < half { 0 } else { p };
                let t = Triple::new(subject(s), predicate(p), object(o));
                if seen.insert(s) && anchored[s as usize] {
                    let point = GeoPoint::new(f64::from(s) + 0.5, 9.5 - f64::from(s));
                    let ts = Timestamp(i64::from(s) * 150_000);
                    anchored_node_triples(&subject(s), &point, ts, &[t])
                } else {
                    vec![t]
                }
            })
            .collect();
        let mut bounds: Vec<usize> = cuts.into_iter().filter(|&c| c > 0 && c < units.len()).collect();
        bounds.push(0);
        bounds.push(units.len());
        bounds.sort_unstable();
        bounds.dedup();
        let batches: Vec<Vec<Triple>> =
            bounds.windows(2).map(|w| units[w[0]..w[1]].concat()).collect();

        let live = store();
        let mut watched: Vec<Watched> = Vec::new();
        let mut pending: Vec<(usize, StarQuery)> = subs
            .iter()
            .map(|&(p1, p2, o1, st, at)| {
                let mut arms = vec![(predicate(p1), (o1 < 6).then(|| object(o1)))];
                if p2 < 5 {
                    arms.push((predicate(p2), None));
                }
                (at % (batches.len() + 1), StarQuery { arms, st: window(st) })
            })
            .collect();
        for b in 0..=batches.len() {
            // Registration backfills what is already committed.
            for (_, query) in pending.iter().filter(|(at, _)| *at == b) {
                let mut w = Watched::register(&live, query.clone());
                w.drain().map_err(TestCaseError::fail)?;
                prop_assert_eq!(&w.emitted, &w.reference(&live), "backfill at batch {}", b);
                watched.push(w);
            }
            pending.retain(|(at, _)| *at != b);
            let Some(batch) = batches.get(b) else { break };
            let summary = live.ingest_batch(batch);
            let mut fresh = 0u64;
            for w in &mut watched {
                fresh += w.drain().map_err(TestCaseError::fail)?.len() as u64;
                prop_assert_eq!(&w.emitted, &w.reference(&live), "after batch {}", b);
            }
            prop_assert_eq!(summary.new_matches, fresh);
            prop_assert_eq!(summary.match_ns.len() as u64, fresh);
        }
        let total: u64 = watched.iter().map(|w| w.emitted.len() as u64).sum();
        prop_assert_eq!(live.stats().matches_emitted, total);
    }
}

/// Each case the delta rule must get right, one batch at a time.
#[test]
fn delta_rule_cases_emit_exactly_once() {
    let live = store();
    let (a, b, late, other) = (
        Term::iri("p:a"),
        Term::iri("p:b"),
        Term::iri("p:late"),
        Term::iri("p:z"),
    );
    let x = Term::iri("o:x");
    let two_arms = StarQuery {
        arms: vec![(a.clone(), None), (b.clone(), Some(x.clone()))],
        st: None,
    };
    let mut q = Watched::register(&live, two_arms.clone());
    let mut lately = Watched::register(
        &live,
        StarQuery {
            arms: vec![(late.clone(), None)],
            st: None,
        },
    );
    let ingest = |triples: Vec<Triple>| live.ingest_batch(&triples).new_matches;

    // n:2 is first seen as an object; n:1 gets one arm of two.
    let n = |i: u8| subject(i);
    assert_eq!(
        ingest(vec![
            Triple::new(n(1), a.clone(), Term::iri("o:1")),
            Triple::new(n(0), other.clone(), n(2)),
        ]),
        0
    );
    assert!(q.drain().unwrap().is_empty());

    // n:1 completes its arms across batches; n:2 becomes a subject.
    assert_eq!(
        ingest(vec![
            Triple::new(n(1), b.clone(), x.clone()),
            Triple::new(n(2), a.clone(), Term::iri("o:1")),
        ]),
        1
    );
    assert_eq!(q.drain().unwrap(), vec![n(1)]);

    // The subject first seen as an object matches; a non-arm triple and a
    // second arm triple for the already-matched n:1 emit nothing again.
    assert_eq!(
        ingest(vec![
            Triple::new(n(2), b.clone(), x.clone()),
            Triple::new(n(1), other.clone(), Term::iri("o:9")),
            Triple::new(n(1), a.clone(), Term::iri("o:2")),
        ]),
        1
    );
    assert_eq!(q.drain().unwrap(), vec![n(2)]);

    // Registered mid-stream: backfill, then only what later batches add.
    let mut mid = Watched::register(&live, two_arms);
    assert_eq!(mid.drain().unwrap().len(), 2);

    // The `p:late` label appears for the first time, on a new and on a
    // pre-existing subject; n:4 completes both arms in one batch.
    assert_eq!(
        ingest(vec![
            Triple::new(n(3), late.clone(), Term::iri("o:1")),
            Triple::new(n(1), late, Term::iri("o:2")),
            Triple::new(n(4), a, Term::iri("o:3")),
            Triple::new(n(4), b, x),
        ]),
        4
    );
    // Emission follows ascending subject id: n:1 was encoded first.
    assert_eq!(lately.drain().unwrap(), vec![n(1), n(3)]);
    assert_eq!(q.drain().unwrap(), vec![n(4)]);
    assert_eq!(mid.drain().unwrap(), vec![n(4)]);
    for w in [&q, &lately, &mid] {
        assert_eq!(w.emitted, w.reference(&live));
    }
}
