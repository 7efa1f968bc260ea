//! Host speed: a fixed calibration kernel timed alongside every pass.
//!
//! The shared host this benchmark runs on changes speed by up to 2×
//! between phases that last seconds to minutes (the VM's share of the
//! core and its clock), and a run of any length can fall wholly in one
//! phase. The kernel is fixed work that uses the core the way ingest
//! does and never calls into the program. Timed just before a pass and
//! then every [`SAMPLE_EVERY`] of it (between chunks, outside the pass's
//! timed wall), it says how fast the host ran during that pass, and the
//! host-normalised figures scale each pass's measured time to a host
//! that runs the kernel in [`REFERENCE_S`]. A change to the program
//! moves the passes and not the kernel, so it shows in full.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Kernel time of the reference host, s (about its time on a 2-vCPU
/// Xeon VM in a middling phase).
pub const REFERENCE_S: f64 = 0.010;

/// Pass time between two kernel samples.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Rounds of the kernel; one takes about 3 ms on the reference host.
const ROUNDS: usize = 3;

/// Keys, records and strings per round.
const PER_ROUND: usize = 1 << 13;

/// Bytes of one IRI-like string.
const IRI_BYTES: usize = 48;

/// The kernel's working set (about 0.6 MB), allocated once per thread
/// so that a sample never allocates and never depends on the state the
/// program left the heap in.
struct Scratch {
    last: HashMap<u64, (f64, f64)>,
    words: Vec<u64>,
    iris: Vec<[u8; IRI_BYTES]>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        last: HashMap::with_capacity(2 * 4096),
        words: Vec::with_capacity(PER_ROUND),
        iris: Vec::with_capacity(PER_ROUND),
    });
}

/// The kernel: float trigonometry (a haversine per record), hash-map
/// inserts over 4,096 keys, IRI-like string formatting, and sorting.
/// Returns its wall time, s.
pub fn kernel() -> f64 {
    SCRATCH.with(|scratch| {
        let Scratch { last, words, iris } = &mut *scratch.borrow_mut();
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut acc = 0.0f64;
        for _ in 0..ROUNDS {
            last.clear();
            words.clear();
            iris.clear();
            for i in 0..PER_ROUND {
                let key = next() & 0xFFF;
                let lat = (next() % 180_000) as f64 / 1000.0 - 90.0;
                let lon = (next() % 360_000) as f64 / 1000.0 - 180.0;
                let (plat, plon) = last.insert(key, (lat, lon)).unwrap_or((0.0, 0.0));
                let (p1, p2) = (plat.to_radians(), lat.to_radians());
                let dl = (lon - plon).to_radians();
                let a = ((p2 - p1) / 2.0).sin().powi(2)
                    + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
                acc += 2.0 * a.sqrt().atan2((1.0 - a).sqrt());
                words.push(next());
                let mut iri = [0u8; IRI_BYTES];
                let _ = write!(&mut iri[..], "http://example.org/entity/{key}/t/{i}");
                iris.push(iri);
            }
            words.sort_unstable();
            iris.sort_unstable();
            acc += words[acc as usize & 0xFFF] as f64 * 1e-30 + f64::from(iris[7][30]);
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    })
}

/// Kernel samples of one pass.
#[derive(Debug)]
pub struct Sampler {
    samples: Vec<f64>,
    last: Instant,
    in_pass: bool,
}

impl Sampler {
    /// Times the kernel once, before the pass starts; with `in_pass`,
    /// [`Sampler::tick`] samples again every [`SAMPLE_EVERY`].
    pub fn new(in_pass: bool) -> Sampler {
        Sampler {
            samples: vec![kernel()],
            last: Instant::now(),
            in_pass,
        }
    }

    /// Called between chunks: times the kernel when [`SAMPLE_EVERY`] has
    /// passed since the last sample. Returns the time it took, ns, for
    /// the caller to take out of the pass's timed wall.
    pub fn tick(&mut self) -> u64 {
        if !self.in_pass || self.last.elapsed() < SAMPLE_EVERY {
            return 0;
        }
        let t0 = Instant::now();
        self.samples.push(kernel());
        self.last = Instant::now();
        (self.last - t0).as_nanos() as u64
    }

    /// Times the kernel once more, after the pass has ended.
    pub fn close(&mut self) {
        self.samples.push(kernel());
    }

    /// Mean kernel time over the pass, s.
    pub fn kernel_s(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

/// How much slower than the reference host this one ran, from a kernel
/// time taken next to a pass: a rate measured in the pass times this, or a
/// time divided by it, reads as it would on the reference host.
pub fn slowdown(kernel_s: f64) -> f64 {
    kernel_s / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_kernel_time_over_the_reference() {
        // A pass next to a kernel 1.5x the reference's ran on a host 1.5x
        // slower: its rate reads 1.5x higher, its times lower.
        assert!((slowdown(1.5 * REFERENCE_S) - 1.5).abs() < 1e-12);
        assert!((slowdown(REFERENCE_S) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_does_work() {
        assert!(kernel() > 0.0);
    }

    #[test]
    fn sampler_samples_on_schedule_and_reports_what_it_took() {
        let mut off = Sampler::new(false);
        std::thread::sleep(SAMPLE_EVERY);
        assert_eq!(off.tick(), 0, "no samples inside the pass");
        assert_eq!(off.samples.len(), 1);
        let mut on = Sampler::new(true);
        assert_eq!(on.tick(), 0, "too soon for another sample");
        std::thread::sleep(SAMPLE_EVERY);
        assert!(on.tick() > 0);
        assert_eq!(on.samples.len(), 2);
        let mean = (on.samples[0] + on.samples[1]) / 2.0;
        assert!((on.kernel_s() - mean).abs() < 1e-15);
    }
}
