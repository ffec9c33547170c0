//! Checkpoint payload encodings for the clustering phase.
//!
//! Three whole-stage payloads ([`MiningCkpt`], [`CoarseCkpt`],
//! [`ClusteringCkpt`]) mark the phase's pipeline boundaries, and one
//! intra-stage payload ([`FineState`]) lets a resume land *inside* fine
//! clustering: the work/done lists, the RNG stream position
//! (`StdRng::state`, restored with `StdRng::from_state`) and the kernel
//! tally as of the last split boundary, plus the similarity cache as it
//! stands. Every payload round-trips byte-identically through
//! [`catapult_ckpt::wire`]; the resume-equals-uninterrupted property
//! test leans on that directly.

use crate::pipeline::Clustering;
use catapult_ckpt::wire::{Dec, Enc, WireError};
use catapult_graph::{Completeness, TallyCounts};
use catapult_mining::subtree::FrequentSubtree;

/// The fine-clustering stage's resumable state: the last split boundary
/// plus the similarity cache. A flush taken mid-split still records the
/// boundary before that split (the cluster in flight on top of `work`,
/// the RNG before its first seed is drawn, the tally as of its start);
/// a resume redoes the split, and the rows already computed come back
/// as cache hits that replay their completeness tags.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FineState {
    /// Clusters already at or under the size cap.
    pub done: Vec<Vec<u32>>,
    /// Oversized clusters still to split; the next split pops the last.
    pub work: Vec<Vec<u32>>,
    /// RNG stream position to resume from.
    pub rng: [u64; 4],
    /// Kernel completeness counts up to the boundary.
    pub tally: TallyCounts,
    /// Memoized pairwise-similarity entries, keyed by unordered
    /// isomorphism-class pair (`a <= b`), sorted by key so the encoding
    /// is byte-identical regardless of which worker filled which entry.
    pub cache: Vec<CacheEntry>,
}

/// One persisted similarity-cache entry: unordered class pair, the
/// similarity value, and the completeness tag the kernel reported when
/// the value was first computed (replayed into the tally on every hit).
pub(crate) type CacheEntry = (u32, u32, f64, Completeness);

// Codes 2, 3 and 4 were the retired `DeadlineExceeded`, `Cancelled` and
// `Degraded` tags; they stay unassigned so the remaining codes keep their
// meaning.
fn completeness_code(c: Completeness) -> u32 {
    match c {
        Completeness::Exact => 0,
        Completeness::BudgetExhausted => 1,
    }
}

fn completeness_from_code(v: u32) -> Result<Completeness, WireError> {
    Ok(match v {
        0 => Completeness::Exact,
        1 => Completeness::BudgetExhausted,
        _ => return Err(WireError::Malformed("unknown completeness tag")),
    })
}

pub(crate) fn encode_fine_state(s: &FineState) -> Vec<u8> {
    let mut e = Enc::new();
    e.clusters(&s.done);
    e.clusters(&s.work);
    e.u64s(&s.rng);
    e.tally(&s.tally);
    e.usize(s.cache.len());
    for &(a, b, value, tag) in &s.cache {
        e.u32(a);
        e.u32(b);
        e.f64(value);
        e.u32(completeness_code(tag));
    }
    e.into_bytes()
}

pub(crate) fn decode_fine_state(bytes: &[u8]) -> Result<FineState, WireError> {
    let mut d = Dec::new(bytes);
    let done = d.clusters()?;
    let work = d.clusters()?;
    let rng = fixed4(d.u64s()?)?;
    let tally = d.tally()?;
    let cache_len = d.usize()?;
    let mut cache = Vec::with_capacity(cache_len.min(bytes.len()));
    for _ in 0..cache_len {
        let a = d.u32()?;
        let b = d.u32()?;
        let value = d.f64()?;
        let tag = completeness_from_code(d.u32()?)?;
        cache.push((a, b, value, tag));
    }
    d.finish()?;
    Ok(FineState {
        done,
        work,
        rng,
        tally,
        cache,
    })
}

/// Payload of the `mining` stage checkpoint: the mined coarse features,
/// the stage's kernel audit, and the RNG position after the stage.
#[derive(Clone, Debug)]
pub(crate) struct MiningCkpt {
    pub features: Vec<FrequentSubtree>,
    pub mining: TallyCounts,
    pub rng: [u64; 4],
}

pub(crate) fn encode_mining(c: &MiningCkpt) -> Vec<u8> {
    let mut e = Enc::new();
    encode_features(&mut e, &c.features);
    e.tally(&c.mining);
    e.u64s(&c.rng);
    e.into_bytes()
}

pub(crate) fn decode_mining(bytes: &[u8]) -> Result<MiningCkpt, WireError> {
    let mut d = Dec::new(bytes);
    let features = decode_features(&mut d)?;
    let mining = d.tally()?;
    let rng = fixed4(d.u64s()?)?;
    d.finish()?;
    Ok(MiningCkpt {
        features,
        mining,
        rng,
    })
}

/// Payload of the `coarse` stage checkpoint: clusters after coarse
/// k-means *and* lazy sampling, plus everything the `mining` payload
/// carries (the later stage subsumes the earlier one).
#[derive(Clone, Debug)]
pub(crate) struct CoarseCkpt {
    pub clusters: Vec<Vec<u32>>,
    pub features: Vec<FrequentSubtree>,
    pub mining: TallyCounts,
    pub rng: [u64; 4],
}

pub(crate) fn encode_coarse(c: &CoarseCkpt) -> Vec<u8> {
    let mut e = Enc::new();
    e.clusters(&c.clusters);
    encode_features(&mut e, &c.features);
    e.tally(&c.mining);
    e.u64s(&c.rng);
    e.into_bytes()
}

pub(crate) fn decode_coarse(bytes: &[u8]) -> Result<CoarseCkpt, WireError> {
    let mut d = Dec::new(bytes);
    let clusters = d.clusters()?;
    let features = decode_features(&mut d)?;
    let mining = d.tally()?;
    let rng = fixed4(d.u64s()?)?;
    d.finish()?;
    Ok(CoarseCkpt {
        clusters,
        features,
        mining,
        rng,
    })
}

/// Payload of the `clustering` stage checkpoint: the phase's complete
/// output plus the RNG position the next stage starts from.
#[derive(Clone, Debug)]
pub(crate) struct ClusteringCkpt {
    pub clustering: Clustering,
    pub rng: [u64; 4],
}

pub(crate) fn encode_clustering(c: &ClusteringCkpt) -> Vec<u8> {
    let mut e = Enc::new();
    e.clusters(&c.clustering.clusters);
    encode_features(&mut e, &c.clustering.features);
    e.duration(c.clustering.elapsed);
    e.tally(&c.clustering.mining);
    e.tally(&c.clustering.fine);
    e.u64s(&c.rng);
    e.into_bytes()
}

pub(crate) fn decode_clustering(bytes: &[u8]) -> Result<ClusteringCkpt, WireError> {
    let mut d = Dec::new(bytes);
    let clusters = d.clusters()?;
    let features = decode_features(&mut d)?;
    let elapsed = d.duration()?;
    let mining = d.tally()?;
    let fine = d.tally()?;
    let rng = fixed4(d.u64s()?)?;
    d.finish()?;
    Ok(ClusteringCkpt {
        clustering: Clustering {
            clusters,
            features,
            elapsed,
            mining,
            fine,
        },
        rng,
    })
}

fn encode_features(e: &mut Enc, features: &[FrequentSubtree]) {
    e.usize(features.len());
    for t in features {
        e.graph(&t.tree);
        e.u32s(&t.canonical);
        e.u32s(&t.transactions);
    }
}

fn decode_features(d: &mut Dec<'_>) -> Result<Vec<FrequentSubtree>, WireError> {
    let n = d.usize()?;
    if n > d.remaining() {
        return Err(WireError::Malformed("sequence length exceeds payload"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(FrequentSubtree {
            tree: d.graph()?,
            canonical: d.u32s()?,
            transactions: d.u32s()?,
        });
    }
    Ok(out)
}

fn fixed4(v: Vec<u64>) -> Result<[u64; 4], WireError> {
    <[u64; 4]>::try_from(v).map_err(|_| WireError::Malformed("rng state must be 4 words"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::{Completeness, Graph, Label, Tally, VertexId};

    fn tree() -> FrequentSubtree {
        let mut g = Graph::new();
        g.add_vertex(Label(3));
        g.add_vertex(Label(5));
        g.add_edge(VertexId(0), VertexId(1)).unwrap();
        FrequentSubtree {
            canonical: catapult_graph::canonical::canonical_tokens(&g),
            tree: g,
            transactions: vec![0, 4, 9],
        }
    }

    fn tally() -> TallyCounts {
        let t = Tally::new();
        t.record(Completeness::Exact);
        t.record(Completeness::Exact);
        t.record(Completeness::BudgetExhausted);
        t.counts()
    }

    #[test]
    fn fine_state_roundtrips_byte_identically() {
        let s = FineState {
            done: vec![vec![1, 2], vec![7]],
            work: vec![vec![3, 4, 5, 6]],
            rng: [1, u64::MAX, 0, 42],
            tally: tally(),
            cache: vec![
                (0, 2, 0.5, Completeness::Exact),
                (1, 1, 1.0, Completeness::Exact),
                (1, 3, 0.125, Completeness::BudgetExhausted),
            ],
        };
        let bytes = encode_fine_state(&s);
        let back = decode_fine_state(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(encode_fine_state(&back), bytes, "re-encode byte-identical");
    }

    #[test]
    fn stage_payloads_roundtrip() {
        let m = MiningCkpt {
            features: vec![tree(), tree()],
            mining: tally(),
            rng: [9, 8, 7, 6],
        };
        let bytes = encode_mining(&m);
        let back = decode_mining(&bytes).unwrap();
        assert_eq!(encode_mining(&back), bytes);
        assert_eq!(back.features.len(), 2);
        assert_eq!(back.features[0].transactions, vec![0, 4, 9]);

        let c = CoarseCkpt {
            clusters: vec![vec![0, 1], vec![2]],
            features: vec![tree()],
            mining: tally(),
            rng: [1, 2, 3, 4],
        };
        let bytes = encode_coarse(&c);
        assert_eq!(encode_coarse(&decode_coarse(&bytes).unwrap()), bytes);

        let cl = ClusteringCkpt {
            clustering: Clustering {
                clusters: vec![vec![0, 2], vec![1]],
                features: vec![tree()],
                elapsed: std::time::Duration::from_micros(1234),
                mining: tally(),
                fine: TallyCounts::default(),
            },
            rng: [11, 12, 13, 14],
        };
        let bytes = encode_clustering(&cl);
        assert_eq!(
            encode_clustering(&decode_clustering(&bytes).unwrap()),
            bytes
        );
    }

    #[test]
    fn truncated_payloads_fail_loudly() {
        let s = FineState {
            done: vec![vec![1]],
            work: vec![],
            rng: [0; 4],
            tally: TallyCounts::default(),
            cache: vec![(0, 1, 0.75, Completeness::BudgetExhausted)],
        };
        let bytes = encode_fine_state(&s);
        assert!(decode_fine_state(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes;
        extended.push(0);
        assert!(decode_fine_state(&extended).is_err());
    }

    #[test]
    fn every_completeness_tag_roundtrips_and_retired_codes_are_rejected() {
        let tags = [Completeness::Exact, Completeness::BudgetExhausted];
        assert_eq!(tags.map(completeness_code), [0, 1]);
        let s = FineState {
            done: vec![],
            work: vec![],
            rng: [0; 4],
            tally: TallyCounts::default(),
            cache: (0..).zip(tags).map(|(b, tag)| (0, b, 0.5, tag)).collect(),
        };
        assert_eq!(decode_fine_state(&encode_fine_state(&s)).unwrap(), s);
        for retired in [2, 3, 4] {
            assert!(matches!(
                completeness_from_code(retired),
                Err(WireError::Malformed(_))
            ));
        }
    }

    #[test]
    fn unknown_cache_completeness_tag_is_rejected() {
        let s = FineState {
            done: vec![],
            work: vec![],
            rng: [0; 4],
            tally: TallyCounts::default(),
            cache: vec![(2, 3, 0.5, Completeness::Exact)],
        };
        let mut bytes = encode_fine_state(&s);
        // The completeness code is the trailing little-endian u32.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            decode_fine_state(&bytes),
            Err(WireError::Malformed(_))
        ));
    }
}
