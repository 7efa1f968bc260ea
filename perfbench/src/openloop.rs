//! Open-loop arithmetic: the send schedule, latency from the due time,
//! and the growing-backlog test behind `sustained_rps`.
//!
//! An open-loop generator sends on a schedule whatever the system does,
//! so every latency is measured from when a record was *due*, not from
//! when it happened to be sent: a stall then shows as latency on every
//! record queued behind it, instead of silently slowing the generator.

/// Due times (ns after the start of sending) for records with the given
/// event times, compressed to a mean `rate` records per second.
///
/// Records sharing one event time (a reporting tick of the whole active
/// cohort) are spread evenly over the gap to the next tick, so a tick is
/// not one instantaneous burst. The scenario's rush-hour ticks are closer
/// together in event time, so they still arrive as a real burst.
pub fn schedule(event_ms: &[i64], rate: f64) -> Vec<u64> {
    let n = event_ms.len();
    if n == 0 {
        return Vec::new();
    }
    // Tick boundaries: indices where the event time changes.
    let mut starts: Vec<usize> = vec![0];
    starts.extend((1..n).filter(|&i| event_ms[i] != event_ms[i - 1]));
    let tick_ms = |k: usize| event_ms[starts[k]] as f64;
    let last_gap = if starts.len() > 1 {
        tick_ms(starts.len() - 1) - tick_ms(starts.len() - 2)
    } else {
        1.0
    };
    let span_ms = tick_ms(starts.len() - 1) + last_gap - tick_ms(0);
    let ns_per_ms = (n as f64 / rate) * 1e9 / span_ms;
    let mut due = Vec::with_capacity(n);
    for k in 0..starts.len() {
        let lo = starts[k];
        let hi = starts.get(k + 1).copied().unwrap_or(n);
        let gap = if k + 1 < starts.len() {
            tick_ms(k + 1) - tick_ms(k)
        } else {
            last_gap
        };
        let base = (tick_ms(k) - tick_ms(0)) * ns_per_ms;
        let width = hi - lo;
        for j in 0..width {
            due.push((base + gap * ns_per_ms * j as f64 / width as f64) as u64);
        }
    }
    due
}

/// Latency of each observed record from its due time, in milliseconds.
/// A record observed before it was due (impossible for a correct
/// schedule) reads as 0.
pub fn due_latency_ms(due_ns: &[u64], observed_ns: &[u64]) -> Vec<f64> {
    due_ns
        .iter()
        .zip(observed_ns)
        .map(|(&d, &o)| o.saturating_sub(d) as f64 / 1e6)
        .collect()
}

/// Whether a backlog series `(t_ns, backlog)` kept growing: the mean of
/// its last third exceeds the mean of its first third by more than
/// `floor` records. A burst that builds a queue and then drains does not
/// count; a rate the system cannot keep up with does.
pub fn backlog_growing(samples: &[(u64, u64)], floor: f64) -> bool {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return false;
    };
    let span = last.0.saturating_sub(first.0);
    if span == 0 {
        return false;
    }
    let mean_in = |lo: u64, hi: u64| {
        let vals: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t >= lo && *t <= hi)
            .map(|&(_, b)| b as f64)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let head = mean_in(first.0, first.0 + span / 3);
    let tail = mean_in(last.0 - span / 3, last.0);
    tail - head > floor
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A FIFO consumer with a fixed service time that stops serving for
    /// `stall_ns` from `stall_at`: when each record is observed done.
    fn fifo(due: &[u64], service_ns: u64, stall_at: u64, stall_ns: u64) -> Vec<u64> {
        let mut free_at = 0u64;
        due.iter()
            .map(|&d| {
                let mut start = d.max(free_at);
                if start >= stall_at && start < stall_at + stall_ns {
                    start = stall_at + stall_ns;
                }
                free_at = start + service_ns;
                free_at
            })
            .collect()
    }

    #[test]
    fn schedule_hits_the_mean_rate_and_spreads_ticks() {
        // 4 ticks of 10 records, 1 s apart in event time.
        let events: Vec<i64> = (0..4)
            .flat_map(|t| std::iter::repeat_n(t * 1000, 10))
            .collect();
        let due = schedule(&events, 1000.0);
        assert_eq!(due.len(), 40);
        // 40 records at 1000/s span 40 ms: ticks start 10 ms apart.
        assert_eq!(due[0], 0);
        assert_eq!(due[10], 10_000_000);
        assert_eq!(
            due[1], 1_000_000,
            "records of one tick are spread over its gap"
        );
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn a_burst_tick_arrives_as_a_burst() {
        // Ticks 1 s apart, then three ticks 1/3 s apart (a 3x burst).
        let events: Vec<i64> = [0, 1000, 2000, 2333, 2666, 3000]
            .iter()
            .flat_map(|&t| std::iter::repeat_n(t, 5))
            .collect();
        let due = schedule(&events, 100.0);
        let normal_gap = due[5] - due[0];
        let burst_gap = due[15] - due[10];
        assert!(
            burst_gap * 2 < normal_gap,
            "burst {burst_gap} vs normal {normal_gap}"
        );
    }

    #[test]
    fn a_stalled_consumer_shows_as_growing_latency_from_due() {
        // 1000 rec/s, 100 us service: unloaded latency is the service time.
        let due: Vec<u64> = (0..2000u64).map(|i| i * 1_000_000).collect();
        let done = fifo(&due, 100_000, 500_000_000, 200_000_000);
        let lat = due_latency_ms(&due, &done);
        assert!((lat[10] - 0.1).abs() < 1e-9);
        // Records due during the 200 ms stall queue behind it: the first
        // waits the whole stall, and the queue drains afterwards.
        assert!(lat[500] >= 200.0 - 1e-9, "{}", lat[500]);
        let max = lat.iter().copied().fold(0.0, f64::max);
        assert!(max >= 200.0);
        assert!(
            lat[1999] < 1.0,
            "the backlog drains once the consumer resumes"
        );
    }

    #[test]
    fn latency_grows_for_a_consumer_slower_than_the_rate() {
        let due: Vec<u64> = (0..1000u64).map(|i| i * 1_000_000).collect();
        // 1.2 ms service at 1 ms spacing: every record waits longer.
        let done = fifo(&due, 1_200_000, u64::MAX, 0);
        let lat = due_latency_ms(&due, &done);
        assert!(lat.windows(2).all(|w| w[1] > w[0]));
        assert!(lat[999] > 150.0);
    }

    #[test]
    fn backlog_detector_separates_growth_from_bursts() {
        let t = |i: u64| i * 1_000_000;
        let flat: Vec<(u64, u64)> = (0..300).map(|i| (t(i), 40 + i % 7)).collect();
        assert!(!backlog_growing(&flat, 100.0));
        let growing: Vec<(u64, u64)> = (0..300).map(|i| (t(i), i * 5)).collect();
        assert!(backlog_growing(&growing, 100.0));
        // A burst in the middle that drains again.
        let burst: Vec<(u64, u64)> = (0..300)
            .map(|i| (t(i), if (120..180).contains(&i) { 5000 } else { 20 }))
            .collect();
        assert!(!backlog_growing(&burst, 100.0));
        // Slow growth below the floor is noise.
        let slow: Vec<(u64, u64)> = (0..300).map(|i| (t(i), i / 10)).collect();
        assert!(!backlog_growing(&slow, 100.0));
        assert!(!backlog_growing(&[], 1.0));
    }
}
