//! FNV-1a 64 digests: over `Debug` text for outputs (the bit-faithful
//! comparison the repository's equivalence suites use, streamed so no
//! output text is held), and over raw field bits for generated inputs.

use datacron::geo::PositionReport;
use std::fmt::{self, Write as _};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    /// Absorbs the `Debug` form of `value`.
    pub fn absorb(&mut self, value: &impl fmt::Debug) {
        write!(self, "{value:?}").expect("fmt::Write to a hasher never fails");
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a generated input: every field of every record, bit-exact.
pub fn input_digest(input: &[PositionReport]) -> u64 {
    let mut d = Digest::default();
    for r in input {
        d.bytes(&[r.entity.kind as u8]);
        d.bytes(&r.entity.id.to_le_bytes());
        d.bytes(&r.ts.0.to_le_bytes());
        for f in [
            r.point.lon,
            r.point.lat,
            r.altitude_m,
            r.speed_mps,
            r.heading_deg,
            r.vertical_rate_mps,
        ] {
            d.bytes(&f.to_bits().to_le_bytes());
        }
    }
    d.finish()
}
