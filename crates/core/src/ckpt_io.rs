//! Checkpoint payload encodings for the end-to-end pipeline, plus the
//! run fingerprint that ties a checkpoint directory to one
//! (dataset, config, budget) triple.
//!
//! Two whole-stage payloads extend the clustering phase's checkpoints
//! (owned by `catapult-cluster`) to the full Algorithm 1 run: the CSG
//! set after summarization, and the final [`SelectionResult`]. Every
//! payload round-trips byte-identically through
//! [`catapult_ckpt::wire`] — the resume-equals-uninterrupted property
//! test compares [`result_digest`]s, which are built from the same
//! encoders.

use crate::catapult::{CatapultConfig, CatapultResult};
use crate::report::PipelineReport;
use crate::select::{SelectedPattern, SelectionResult};
use catapult_ckpt::wire::{Dec, Enc, WireError};
use catapult_ckpt::{fnv1a, Fingerprint};
use catapult_cluster::{SimilarityKind, Strategy};
use catapult_csg::{Csg, IdSet};
use catapult_graph::{Graph, VertexId};

/// The fingerprint binding a checkpoint directory to this run: a
/// checkpoint written under any other (dataset, config, budget) triple
/// is rejected loudly instead of silently resumed.
///
/// Execution-mode knobs that cannot change a run's output — thread
/// count and the recorder — are deliberately excluded, so a crashed
/// 8-thread run can resume on 1 thread (or vice versa) and still
/// reproduce the original bytes.
#[must_use]
pub fn fingerprint(db: &[Graph], cfg: &CatapultConfig) -> Fingerprint {
    Fingerprint {
        dataset_hash: dataset_hash(db),
        config_hash: config_hash(cfg),
        eta_min: cfg.budget.eta_min() as u64,
        eta_max: cfg.budget.eta_max() as u64,
        gamma: cfg.budget.gamma() as u64,
    }
}

/// FNV-1a over the wire encoding of every graph in `db`, in order.
/// Order matters: cluster members are database indices.
#[must_use]
pub fn dataset_hash(db: &[Graph]) -> u64 {
    let mut e = Enc::new();
    e.usize(db.len());
    for g in db {
        e.graph(g);
    }
    fnv1a(&e.into_bytes())
}

/// FNV-1a over every configuration field that can change the pipeline's
/// output: clustering strategy and parameters, the sampling plan, the
/// walk count, the seed, both node caps (the clustering phase's and the
/// pipeline-wide override), and the full budget (size distribution
/// included).
#[must_use]
pub fn config_hash(cfg: &CatapultConfig) -> u64 {
    let c = &cfg.clustering;
    let sim_tag = |k: SimilarityKind| match k {
        SimilarityKind::Mcs => 1u8,
        SimilarityKind::Mccs => 2u8,
    };
    let mut e = Enc::new();
    match c.strategy {
        Strategy::CoarseOnly => {
            e.u8(0);
            e.u8(0);
        }
        Strategy::FineOnly(k) => {
            e.u8(1);
            e.u8(sim_tag(k));
        }
        Strategy::Hybrid(k) => {
            e.u8(2);
            e.u8(sim_tag(k));
        }
    }
    e.usize(c.max_cluster_size);
    e.f64(c.miner.min_support);
    e.usize(c.miner.max_edges);
    e.usize(c.miner.max_patterns_per_level);
    e.usize(c.max_features);
    e.u64(c.search.node_cap);
    match &c.sampling {
        None => e.bool(false),
        Some(s) => {
            e.bool(true);
            e.f64(s.eager.epsilon);
            e.f64(s.eager.rho);
            e.f64(s.eager.phi);
            e.f64(s.lazy.z);
            e.f64(s.lazy.p);
            e.f64(s.lazy.e);
        }
    }
    e.usize(cfg.walks);
    e.u64(cfg.seed);
    e.u64(cfg.search.node_cap);
    // ηmin/ηmax/γ are first-class fingerprint fields (so a mismatch
    // names them directly); only the size distribution — including any
    // custom per-size caps, via its deterministic Debug form — belongs
    // to the config hash.
    e.str(&format!("{:?}", cfg.budget.distribution()));
    fnv1a(&e.into_bytes())
}

/// Encode the CSG set (payload of the `csg` stage checkpoint).
#[must_use]
pub fn encode_csgs(csgs: &[Csg]) -> Vec<u8> {
    let mut e = Enc::new();
    e.usize(csgs.len());
    for c in csgs {
        e.graph(&c.graph);
        encode_idsets(&mut e, &c.vertex_members);
        encode_idsets(&mut e, &c.edge_members);
        e.u32s(&c.cluster);
        e.usize(c.member_images.len());
        for img in &c.member_images {
            let ids: Vec<u32> = img.iter().map(|v| v.0).collect();
            e.u32s(&ids);
        }
    }
    e.into_bytes()
}

/// Decode a `csg` stage payload.
pub fn decode_csgs(bytes: &[u8]) -> Result<Vec<Csg>, WireError> {
    let mut d = Dec::new(bytes);
    let n = d.usize()?;
    if n > d.remaining() {
        return Err(WireError::Malformed("sequence length exceeds payload"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let graph = d.graph()?;
        let vertex_members = decode_idsets(&mut d)?;
        let edge_members = decode_idsets(&mut d)?;
        let cluster = d.u32s()?;
        let m = d.usize()?;
        if m > d.remaining() {
            return Err(WireError::Malformed("sequence length exceeds payload"));
        }
        let mut member_images = Vec::with_capacity(m);
        for _ in 0..m {
            member_images.push(d.u32s()?.into_iter().map(VertexId).collect());
        }
        out.push(Csg {
            graph,
            vertex_members,
            edge_members,
            cluster,
            member_images,
        });
    }
    d.finish()?;
    Ok(out)
}

/// Encode the final [`SelectionResult`] (payload of the `selection`
/// stage checkpoint, saved *after* the earlier stages' audits are
/// spliced in, so a resumed load is the complete answer).
#[must_use]
pub fn encode_selection(r: &SelectionResult) -> Vec<u8> {
    let mut e = Enc::new();
    e.usize(r.selected.len());
    for s in &r.selected {
        e.graph(&s.pattern);
        e.f64(s.score);
        e.usize(s.source_csg);
    }
    e.duration(r.elapsed);
    report_into(&mut e, &r.report);
    e.into_bytes()
}

/// Decode a `selection` stage payload.
pub fn decode_selection(bytes: &[u8]) -> Result<SelectionResult, WireError> {
    let mut d = Dec::new(bytes);
    let n = d.usize()?;
    if n > d.remaining() {
        return Err(WireError::Malformed("sequence length exceeds payload"));
    }
    let mut selected = Vec::with_capacity(n);
    for _ in 0..n {
        selected.push(SelectedPattern {
            pattern: d.graph()?,
            score: d.f64()?,
            source_csg: d.usize()?,
        });
    }
    let elapsed = d.duration()?;
    let report = report_from(&mut d)?;
    d.finish()?;
    Ok(SelectionResult {
        selected,
        elapsed,
        report,
    })
}

/// Canonical bytes of everything a run produced *except* wall-clock
/// durations: clusters, features count, CSGs, selected patterns with
/// scores, and the kernel audit. Two runs are equivalent iff their
/// digests match — the resume property tests compare exactly this.
#[must_use]
pub fn result_digest(r: &CatapultResult) -> Vec<u8> {
    let mut e = Enc::new();
    e.clusters(&r.clustering.clusters);
    e.usize(r.clustering.features.len());
    e.tally(&r.clustering.mining);
    e.tally(&r.clustering.fine);
    let mut d = Enc::new();
    d.usize(r.selection.selected.len());
    for s in &r.selection.selected {
        d.graph(&s.pattern);
        d.f64(s.score);
        d.usize(s.source_csg);
    }
    report_into(&mut d, &r.selection.report);
    e.bytes(&d.into_bytes());
    e.bytes(&encode_csgs(&r.csgs));
    e.into_bytes()
}

fn report_into(e: &mut Enc, r: &PipelineReport) {
    e.tally(&r.mining);
    e.tally(&r.clustering);
    e.tally(&r.scoring);
}

fn report_from(d: &mut Dec<'_>) -> Result<PipelineReport, WireError> {
    Ok(PipelineReport {
        mining: d.tally()?,
        clustering: d.tally()?,
        scoring: d.tally()?,
    })
}

fn encode_idsets(e: &mut Enc, sets: &[IdSet]) {
    e.usize(sets.len());
    for s in sets {
        let ids: Vec<u32> = s.iter().collect();
        e.u32s(&ids);
    }
}

fn decode_idsets(d: &mut Dec<'_>) -> Result<Vec<IdSet>, WireError> {
    let n = d.usize()?;
    if n > d.remaining() {
        return Err(WireError::Malformed("sequence length exceeds payload"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut set = IdSet::new();
        for id in d.u32s()? {
            set.insert(id);
        }
        out.push(set);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::{Completeness, Label, SearchBudget, Tally, TallyCounts};

    fn pattern(n: u32) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.add_vertex(Label(i % 2));
        }
        for i in 0..n {
            g.add_edge(VertexId(i), VertexId((i + 1) % n)).unwrap();
        }
        g
    }

    fn tally() -> TallyCounts {
        let t = Tally::new();
        t.record(Completeness::Exact);
        t.record(Completeness::BudgetExhausted);
        t.counts()
    }

    #[test]
    fn selection_result_roundtrips_byte_identically() {
        let r = SelectionResult {
            selected: vec![
                SelectedPattern {
                    pattern: pattern(4),
                    score: 1.5,
                    source_csg: 2,
                },
                SelectedPattern {
                    pattern: pattern(3),
                    score: -0.0,
                    source_csg: 0,
                },
            ],
            elapsed: std::time::Duration::from_micros(987),
            report: PipelineReport {
                mining: tally(),
                clustering: TallyCounts::default(),
                scoring: tally(),
            },
        };
        let bytes = encode_selection(&r);
        let back = decode_selection(&bytes).unwrap();
        assert_eq!(encode_selection(&back), bytes, "re-encode byte-identical");
        assert_eq!(back.report, r.report);
        assert_eq!(back.selected.len(), 2);
        assert_eq!(back.selected[0].score.to_bits(), 1.5f64.to_bits());
        assert_eq!(back.selected[1].score.to_bits(), (-0.0f64).to_bits());
        assert!(decode_selection(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn csgs_roundtrip_byte_identically() {
        let csgs = vec![Csg::build(&[pattern(3), pattern(4), pattern(3)], &[0, 2])];
        let bytes = encode_csgs(&csgs);
        let back = decode_csgs(&bytes).unwrap();
        assert_eq!(encode_csgs(&back), bytes, "re-encode byte-identical");
        assert_eq!(back[0].cluster, vec![0, 2]);
        assert_eq!(back[0].vertex_members, csgs[0].vertex_members);
        assert_eq!(back[0].member_images, csgs[0].member_images);
        assert!(decode_csgs(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn fingerprint_tracks_output_affecting_knobs_only() {
        let db = vec![pattern(3), pattern(5)];
        let base = CatapultConfig::default();
        let fp = fingerprint(&db, &base);
        // Execution-mode knobs leave the fingerprint alone…
        let observed = CatapultConfig {
            recorder: catapult_obs::Recorder::enabled(),
            ..base.clone()
        };
        assert_eq!(fingerprint(&db, &observed), fp);
        // …output-affecting knobs do not.
        let reseeded = CatapultConfig {
            seed: base.seed + 1,
            ..base.clone()
        };
        assert_ne!(fingerprint(&db, &reseeded).config_hash, fp.config_hash);
        let mut resized = base.clone();
        resized.clustering.max_cluster_size += 1;
        assert_ne!(fingerprint(&db, &resized).config_hash, fp.config_hash);
        let mut recapped = base.clone();
        recapped.clustering.search = SearchBudget::nodes(30_000);
        assert_ne!(fingerprint(&db, &recapped).config_hash, fp.config_hash);
        assert_ne!(fingerprint(&db[..1], &base).dataset_hash, fp.dataset_hash);
    }
}
