//! The checkpoint payload encoding: length-prefixed, little-endian,
//! schema-free.
//!
//! Every value a checkpoint persists is written with [`Enc`] and read
//! back with [`Dec`]. The format is deliberately minimal — fixed-width
//! little-endian integers, `f64` as raw IEEE-754 bits (lossless, NaN
//! payloads included), `u64` length prefixes for sequences — because the
//! crash-safety property the pipeline tests is *byte-identical
//! round-trips*: `encode(decode(encode(x))) == encode(x)` for every
//! persisted type. Floats as bits (never text) is what makes similarity
//! scores survive a round-trip exactly.
//!
//! Decoding is total: malformed input yields a [`WireError`], never a
//! panic, even though in practice the surrounding checkpoint file format
//! has already checksum-verified the bytes.

use catapult_graph::{Graph, Label, TallyCounts, VertexId};
use std::time::Duration;

/// Why a payload failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value did.
    Truncated,
    /// Input kept going after the last expected value.
    Trailing,
    /// A structurally invalid value (bad edge, oversized length, …).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Trailing => write!(f, "payload has trailing bytes"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder.
#[derive(Clone, Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` as `u64` (the format is 64-bit regardless of host).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `f64` as raw IEEE-754 bits — lossless for every value including
    /// NaNs, which text formatting would not be.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Unprefixed raw bytes — for fixed-width fields (file magic) whose
    /// length is part of the format itself.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Length-prefixed `u32` sequence.
    pub fn u32s(&mut self, v: &[u32]) {
        self.usize(v.len());
        for &x in v {
            self.u32(x);
        }
    }

    /// Length-prefixed `u64` sequence.
    pub fn u64s(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// Length-prefixed `f64` sequence (bit-exact).
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// A [`Duration`] as whole seconds + subsecond nanos (lossless).
    pub fn duration(&mut self, v: Duration) {
        self.u64(v.as_secs());
        self.u32(v.subsec_nanos());
    }

    /// A [`Graph`]: vertex labels then edge endpoint pairs.
    pub fn graph(&mut self, g: &Graph) {
        self.usize(g.vertex_count());
        for &Label(l) in g.labels() {
            self.u32(l);
        }
        self.usize(g.edge_count());
        for (_, e) in g.edges() {
            self.u32(e.u.0);
            self.u32(e.v.0);
        }
    }

    /// A [`TallyCounts`] snapshot (both counters).
    pub fn tally(&mut self, t: &TallyCounts) {
        self.u64(t.exact);
        self.u64(t.budget_exhausted);
    }

    /// Nested clusters (`Vec<Vec<u32>>`).
    pub fn clusters(&mut self, cs: &[Vec<u32>]) {
        self.usize(cs.len());
        for c in cs {
            self.u32s(c);
        }
    }
}

/// Cursor-based decoder over an encoded payload.
#[derive(Clone, Copy, Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the whole payload was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// A `u64` narrowed to `usize`, bounded by the bytes actually
    /// remaining when used as a sequence length elsewhere.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("length exceeds usize"))
    }

    /// A sequence length: decoded and sanity-bounded against the bytes
    /// remaining (each element takes ≥ 1 byte), so corrupt lengths fail
    /// fast instead of attempting absurd allocations.
    fn len_capped(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(WireError::Malformed("sequence length exceeds payload"));
        }
        Ok(n)
    }

    /// `f64` from raw bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Boolean.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean byte")),
        }
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.len_capped(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Exactly `n` unprefixed raw bytes (fixed-width fields).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::Malformed("utf-8 string"))
    }

    /// Length-prefixed `u32` sequence.
    pub fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.len_capped(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Length-prefixed `u64` sequence.
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.len_capped(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Length-prefixed `f64` sequence (bit-exact).
    pub fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.len_capped(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// A [`Duration`].
    pub fn duration(&mut self) -> Result<Duration, WireError> {
        let secs = self.u64()?;
        let nanos = self.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(WireError::Malformed("duration nanos"));
        }
        Ok(Duration::new(secs, nanos))
    }

    /// A [`Graph`] (validated vertex/edge structure).
    pub fn graph(&mut self) -> Result<Graph, WireError> {
        let nv = self.len_capped(4)?;
        let mut g = Graph::with_capacity(nv, 0);
        for _ in 0..nv {
            g.add_vertex(Label(self.u32()?));
        }
        let ne = self.len_capped(8)?;
        for _ in 0..ne {
            let a = self.u32()?;
            let b = self.u32()?;
            g.add_edge(VertexId(a), VertexId(b))
                .map_err(|_| WireError::Malformed("invalid edge"))?;
        }
        Ok(g)
    }

    /// A [`TallyCounts`] snapshot.
    pub fn tally(&mut self) -> Result<TallyCounts, WireError> {
        Ok(TallyCounts {
            exact: self.u64()?,
            budget_exhausted: self.u64()?,
        })
    }

    /// Nested clusters (`Vec<Vec<u32>>`).
    pub fn clusters(&mut self) -> Result<Vec<Vec<u32>>, WireError> {
        let n = self.len_capped(8)?;
        (0..n).map(|_| self.u32s()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        for l in [3u32, 1, 4, 1] {
            g.add_vertex(Label(l));
        }
        g.add_edge(VertexId(0), VertexId(1)).unwrap();
        g.add_edge(VertexId(1), VertexId(2)).unwrap();
        g.add_edge(VertexId(2), VertexId(3)).unwrap();
        g
    }

    #[test]
    fn primitives_roundtrip_byte_identically() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.bool(true);
        e.str("hällo");
        e.u32s(&[1, 2, 3]);
        e.f64s(&[0.1, f64::INFINITY]);
        e.duration(Duration::new(5, 999_999_999));
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "hällo");
        assert_eq!(d.u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.f64s().unwrap(), vec![0.1, f64::INFINITY]);
        assert_eq!(d.duration().unwrap(), Duration::new(5, 999_999_999));
        d.finish().unwrap();
    }

    #[test]
    fn graph_and_tally_roundtrip() {
        let g = sample_graph();
        let t = TallyCounts {
            exact: 10,
            budget_exhausted: 2,
        };
        let mut e = Enc::new();
        e.graph(&g);
        e.tally(&t);
        e.clusters(&[vec![1, 2], vec![], vec![9]]);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        let g2 = d.graph().unwrap();
        assert_eq!(g2.labels(), g.labels());
        assert_eq!(
            g2.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        assert_eq!(d.tally().unwrap(), t);
        assert_eq!(d.clusters().unwrap(), vec![vec![1, 2], vec![], vec![9u32]]);
        d.finish().unwrap();

        // Byte-identical re-encode: encode(decode(encode(x))) == encode(x).
        let mut e2 = Enc::new();
        e2.graph(&g2);
        e2.tally(&t);
        e2.clusters(&[vec![1, 2], vec![], vec![9]]);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn decode_errors_are_total() {
        let mut e = Enc::new();
        e.str("hello");
        let bytes = e.into_bytes();
        // Truncate mid-string: the length guard fires before the read.
        let mut d = Dec::new(&bytes[..bytes.len() - 2]);
        assert_eq!(
            d.str(),
            Err(WireError::Malformed("sequence length exceeds payload"))
        );
        // Truncate inside the length prefix itself.
        let mut d = Dec::new(&bytes[..4]);
        assert_eq!(d.str(), Err(WireError::Truncated));
        // Trailing garbage is caught by finish().
        let mut extended = bytes.clone();
        extended.push(0);
        let mut d = Dec::new(&extended);
        d.str().unwrap();
        assert_eq!(d.finish(), Err(WireError::Trailing));
        // An absurd length fails fast instead of allocating.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let huge = e.into_bytes();
        assert!(Dec::new(&huge).u32s().is_err());
        // A self-loop edge is structurally rejected.
        let mut e = Enc::new();
        e.usize(1);
        e.u32(0);
        e.usize(1);
        e.u32(0);
        e.u32(0);
        let bad = e.into_bytes();
        assert!(matches!(
            Dec::new(&bad).graph(),
            Err(WireError::Malformed("invalid edge"))
        ));
    }
}
