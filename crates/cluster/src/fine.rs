//! Fine clustering (Algorithm 3).
//!
//! Clusters larger than the threshold `N` are recursively split in two by
//! MCCS (or MCS) seed dissimilarity: a first seed is drawn at random, the
//! graph most dissimilar to it becomes the second seed, and every remaining
//! graph joins the seed it is more similar to. Newly produced clusters
//! still exceeding `N` go back on the work list.
//!
//! Every MCS/MCCS call runs under the configured [`SearchBudget`] and its
//! [`Completeness`] is recorded: when a search is cut short, its truncated
//! common subgraph is *not* treated as the true MCS — the split decision
//! falls back to an exact label-multiset similarity instead, and the
//! degradation is surfaced in [`FineOutcome::kernel`].
//!
//! Similarities are memoized per *isomorphism class* ([`SimCache`]):
//! DB graphs are interned by canonical form, one MCS/MCCS runs per
//! unordered class pair (on the class representatives), and every other
//! member pair replays the cached value and completeness tag. The cache
//! persists through the fine-state checkpoint, so a resumed run reuses
//! instead of recomputing.

use crate::ckpt_io::{decode_fine_state, encode_fine_state, CacheEntry, FineState};
use catapult_ckpt::{CkptError, StageStore};
use catapult_graph::canonical::{canonical_form, CanonTokens};
use catapult_graph::mcs::{self, McsConfig};
use catapult_graph::{Completeness, Graph, SearchBudget, Tally, TallyCounts};
use rand::rngs::StdRng;
use rand::Rng;
use rayon::par_map;
use std::collections::BTreeMap;
#[allow(clippy::disallowed_types)] // the `SimCache` lock, shared by the ω workers
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which common-subgraph similarity drives the split (Exp 1 compares both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimilarityKind {
    /// Maximum common subgraph (`ω_mcs`).
    Mcs,
    /// Maximum *connected* common subgraph (`ω_mccs`, the paper's choice).
    Mccs,
}

/// Parameters for fine clustering.
#[derive(Clone, Debug)]
pub struct FineConfig {
    /// Maximum cluster size `N`.
    pub max_cluster_size: usize,
    /// Similarity measure for seed splitting.
    pub similarity: SimilarityKind,
    /// Execution budget for each MCS/MCCS computation (node cap defaulting
    /// to 100k expansions per search).
    pub budget: SearchBudget,
}

impl Default for FineConfig {
    fn default() -> Self {
        FineConfig {
            max_cluster_size: 20,
            similarity: SimilarityKind::Mccs,
            budget: SearchBudget::nodes(DEFAULT_MCS_CAP),
        }
    }
}

/// Default per-search node cap for fine-clustering MCS/MCCS calls.
pub const DEFAULT_MCS_CAP: u64 = 100_000;

/// Exact, cheap fallback similarity: vertex-label multiset intersection
/// over the larger vertex count. Used for split decisions whose MCS/MCCS
/// search was cut short — a truncated common subgraph systematically
/// understates similarity, which would bias seed selection toward the
/// pairs that happened to hit the budget.
fn label_vector_similarity(a: &Graph, b: &Graph) -> f64 {
    let denom = a.vertex_count().max(b.vertex_count());
    if denom == 0 {
        return 0.0;
    }
    let mut la = a.labels().to_vec();
    let mut lb = b.labels().to_vec();
    la.sort_unstable();
    lb.sort_unstable();
    let (mut i, mut j, mut common) = (0, 0, 0usize);
    while i < la.len() && j < lb.len() {
        match la[i].cmp(&lb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common as f64 / denom as f64
}

/// One MCS/MCCS similarity computation under the configured budget,
/// *without* memoization or tally recording. Exact searches return the
/// paper's `ω = |G_mcs| / min(|E1|, |E2|)`; degraded searches fall back
/// to [`label_vector_similarity`] so a truncated MCS is never mistaken
/// for the true one. The completeness tag is returned alongside the
/// value so cache hits can replay it into the tally.
fn raw_similarity(a: &Graph, b: &Graph, cfg: &FineConfig) -> (f64, Completeness) {
    let mcfg = McsConfig {
        connected: cfg.similarity == SimilarityKind::Mccs,
        budget: cfg.budget.with_default_cap(DEFAULT_MCS_CAP),
        pruning: true,
    };
    let (value, tag) = mcs::similarity(a, b, mcfg);
    if tag.is_exact() {
        (value, tag)
    } else {
        (label_vector_similarity(a, b), tag)
    }
}

/// Memoized pairwise-similarity matrix, keyed by *isomorphism class*:
/// every DB graph is interned by its canonical form
/// ([`catapult_graph::canonical::canonical_form`]), and one similarity
/// value is computed — on the class representatives — per unordered
/// class pair, no matter how many member pairs ask for it.
///
/// Determinism: class ids are assigned in first-seen DB order and the
/// representative is the lowest DB index of each class, so the cache's
/// keying, the inputs of every cached computation, and therefore every
/// cached value are pure functions of the DB — independent of thread
/// count, lookup interleaving, and resume point. Each lookup records
/// the pair's (deterministic) completeness tag into the tally whether
/// it hit or missed, so [`TallyCounts`] stay identical to an unmemoized
/// schedule of the same lookups. Two racing workers may both compute
/// the same miss — the duplicated work only shifts the hit/miss probe
/// counters, never a value or a tally count.
pub(crate) struct SimCache {
    /// DB index → isomorphism-class id (dense, first-seen order).
    class_of: Vec<u32>,
    /// Class id → lowest DB index of that class; all cached values are
    /// computed on these representatives.
    rep_of: Vec<u32>,
    /// Unordered class pair `(lo, hi)` → (similarity, completeness).
    /// `BTreeMap` so snapshots serialize in key order byte-identically.
    /// Writes are value-deterministic (every worker computes the same
    /// similarity for a class pair), so insertion order cannot change
    /// any cached value.
    #[allow(clippy::disallowed_types)] // value-deterministic writes, sorted reads
    entries: Mutex<BTreeMap<(u32, u32), (f64, Completeness)>>,
}

impl SimCache {
    /// Intern every DB graph's canonical form. Graphs whose canonical
    /// form hit the refinement work cap get a fallback form that may
    /// split one true class into several — that only reduces sharing,
    /// never correctness.
    pub(crate) fn build(db: &[Graph]) -> SimCache {
        let mut ids: BTreeMap<CanonTokens, u32> = BTreeMap::new();
        let mut class_of = Vec::with_capacity(db.len());
        let mut rep_of: Vec<u32> = Vec::new();
        for (i, g) in db.iter().enumerate() {
            let form = canonical_form(g);
            let id = match ids.get(&form) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(rep_of.len()).unwrap_or(u32::MAX);
                    ids.insert(form, id);
                    rep_of.push(u32::try_from(i).unwrap_or(u32::MAX));
                    id
                }
            };
            class_of.push(id);
        }
        SimCache {
            class_of,
            rep_of,
            #[allow(clippy::disallowed_types)] // the cache lock declared above
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<(u32, u32), (f64, Completeness)>> {
        // A poisoned lock only means some worker panicked after a plain
        // insert/read; the map itself is always in a consistent state.
        // xtask-allow: taint -- keyed BTreeMap cache: inserts commute and snapshots read it sorted
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Prefill from a checkpoint snapshot. Entries whose class ids fall
    /// outside this DB's class space (impossible unless the checkpoint
    /// belongs to a different DB, which the store fingerprint already
    /// rules out) are dropped rather than trusted.
    pub(crate) fn seed(&self, entries: &[CacheEntry]) {
        let classes = self.rep_of.len();
        let mut map = self.lock();
        for &(a, b, value, tag) in entries {
            if (a as usize) < classes && (b as usize) < classes {
                map.insert((a, b), (value, tag));
            }
        }
    }

    /// Sorted, serialization-ready view of every cached entry.
    pub(crate) fn snapshot(&self) -> Vec<CacheEntry> {
        self.lock()
            .iter()
            .map(|(&(a, b), &(value, tag))| (a, b, value, tag))
            .collect()
    }

    /// The isomorphism-class id of DB graph `g` (test hook for the
    /// equal-canonical-forms-share-an-entry property).
    #[cfg(test)]
    pub(crate) fn class_of(&self, g: u32) -> u32 {
        self.class_of[g as usize]
    }
}

/// Memoized MCS/MCCS similarity between DB graphs `g` and `seed`,
/// recording kernel completeness into `tally` on hits and misses alike.
fn similarity(
    g: u32,
    seed: u32,
    db: &[Graph],
    cache: &SimCache,
    cfg: &FineConfig,
    tally: &Tally,
) -> f64 {
    let (a, b) = (&db[g as usize], &db[seed as usize]);
    if a.edge_count().min(b.edge_count()) == 0 {
        // Same as the unmemoized path: nothing to search, nothing to record.
        return 0.0;
    }
    let (ca, cb) = (cache.class_of[g as usize], cache.class_of[seed as usize]);
    let key = (ca.min(cb), ca.max(cb));
    if let Some((value, tag)) = cache.lock().get(&key).copied() {
        tally.record(tag);
        cfg.budget.probe.add("mcs", "cache_hits", 1);
        return value;
    }
    cfg.budget.probe.add("mcs", "cache_misses", 1);
    let ra = &db[cache.rep_of[key.0 as usize] as usize];
    let rb = &db[cache.rep_of[key.1 as usize] as usize];
    let (value, tag) = raw_similarity(ra, rb, cfg);
    tally.record(tag);
    // The tag is stored, not consumed, and replayed into the caller's
    // tally on every later hit; the single cache lock nests inside no
    // other lock. xtask-allow: completeness-flow, lock-order-xfn
    cache.lock().insert(key, (value, tag));
    value
}

/// ω(G, `seed`) for each of `targets` (∞ for the seed itself, so it can
/// never be pulled away from its own side).
///
/// Parallel audit: no RNG is captured (seeds were drawn before the
/// fan-out), the closure reads only shared state plus the commutative
/// `Tally`, and ordered collection keeps result `[i]` aligned with
/// `targets[i]` — identical across thread counts.
fn omega_chunk(
    db: &[Graph],
    targets: &[u32],
    seed: u32,
    cfg: &FineConfig,
    tally: &Tally,
    cache: &SimCache,
) -> Vec<f64> {
    let compute = |&g: &u32| {
        if g == seed {
            f64::INFINITY
        } else {
            similarity(g, seed, db, cache, cfg, tally)
        }
    };
    par_map(targets, compute)
}

/// Split one oversized cluster into two by seed dissimilarity
/// (Algorithm 3, lines 6–21) around the already-drawn `seed1`. `row`
/// returns ω(G, seed) for each given graph; the caller fans it out in
/// checkpoint-sized chunks. The split is a pure function of (cluster,
/// seed1, similarities), so a resumed run that redoes it reaches the same
/// halves, with the rows a crashed run had computed coming back as cache
/// hits.
fn split(
    cluster: &[u32],
    seed1: u32,
    mut row: impl FnMut(&[u32], u32) -> Result<Vec<f64>, CkptError>,
) -> Result<(Vec<u32>, Vec<u32>), CkptError> {
    debug_assert!(cluster.len() >= 2);
    let rest: Vec<u32> = cluster.iter().copied().filter(|&g| g != seed1).collect();
    let omega1 = row(&rest, seed1)?;
    // Second seed: the most dissimilar graph (deterministic tie-break on id).
    // Callers split only oversized clusters (`> max_cluster_size ≥ 1`), so
    // `rest` — and with it `omega1` — is never empty here. `total_cmp`
    // keeps the selection well-defined even if a similarity turned NaN.
    #[allow(clippy::expect_used)]
    let (seed2_pos, _) = omega1
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1).then(rest[a.0].cmp(&rest[b.0])))
        .expect("cluster has at least two members");
    let seed2 = rest[seed2_pos];
    let omega2 = row(&rest, seed2)?;
    let mut c1 = vec![seed1];
    let mut c2 = vec![seed2];
    for (i, &g) in rest.iter().enumerate() {
        if g == seed2 {
            continue;
        }
        if omega1[i] > omega2[i] {
            c1.push(g);
        } else {
            c2.push(g);
        }
    }
    c1.sort_unstable();
    c2.sort_unstable();
    Ok((c1, c2))
}

/// Result of a fine-clustering run: the clusters plus an audit of every
/// MCS/MCCS kernel call made while splitting.
#[derive(Clone, Debug)]
pub struct FineOutcome {
    /// The final clusters, each at most `max_cluster_size` graphs.
    pub clusters: Vec<Vec<u32>>,
    /// Completeness counts over all MCS/MCCS calls; non-exact calls had
    /// their split decisions made by the label-vector fallback.
    pub kernel: TallyCounts,
}

/// Run Algorithm 3: split every cluster larger than `N` until all clusters
/// fit (or a cluster refuses to shrink, in which case it is cut in half
/// deterministically to guarantee termination — this only happens when all
/// members are identical), reporting per-kernel-call completeness.
pub fn fine_cluster(
    db: &[Graph],
    clusters: Vec<Vec<u32>>,
    cfg: &FineConfig,
    rng: &mut StdRng,
) -> FineOutcome {
    match fine_inner(db, clusters, cfg, rng, None) {
        Ok(out) => out,
        // A store-free run performs no checkpoint I/O and cannot fail.
        Err(_) => unreachable!("checkpoint-free fine clustering cannot fail"),
    }
}

/// As [`fine_cluster`], checkpointing progress into `store`'s
/// `fine` slot every [`StageStore::chunk_pairs`] similarity rows and —
/// when the store is resuming — continuing from any compatible `fine`
/// checkpoint already on disk. A checkpoint taken mid-split resumes at
/// that split's start with the similarity cache it had filled. Given the
/// same seed and inputs, an interrupted-then-resumed run returns exactly
/// what the uninterrupted run would have.
pub fn fine_cluster_resumable(
    db: &[Graph],
    clusters: Vec<Vec<u32>>,
    cfg: &FineConfig,
    rng: &mut StdRng,
    store: &StageStore,
) -> Result<FineOutcome, CkptError> {
    fine_inner(db, clusters, cfg, rng, Some(store))
}

/// Flush the fine stage's state — a split boundary plus the cache as it
/// stands — to the store (no-op without one).
fn write_state(
    store: Option<&StageStore>,
    seq: &mut u64,
    done: &[Vec<u32>],
    work: &[Vec<u32>],
    rng: [u64; 4],
    tally: TallyCounts,
    cache: &SimCache,
) -> Result<(), CkptError> {
    let Some(st) = store else {
        return Ok(());
    };
    let state = FineState {
        done: done.to_vec(),
        work: work.to_vec(),
        rng,
        tally,
        cache: cache.snapshot(),
    };
    st.save("fine", *seq, &encode_fine_state(&state))?;
    *seq += 1;
    Ok(())
}

/// The shared engine behind [`fine_cluster`] and
/// [`fine_cluster_resumable`] (and the pipeline's store-aware fine
/// stage).
pub(crate) fn fine_inner(
    db: &[Graph],
    clusters: Vec<Vec<u32>>,
    cfg: &FineConfig,
    rng: &mut StdRng,
    store: Option<&StageStore>,
) -> Result<FineOutcome, CkptError> {
    let n = cfg.max_cluster_size;
    let tally = Tally::new();
    // Counts restored from a checkpoint; this process's own records live
    // in `tally` and the two are merged at every flush and at the end.
    let mut baseline = TallyCounts::default();
    let mut done: Vec<Vec<u32>> = Vec::new();
    let mut work: Vec<Vec<u32>> = Vec::new();
    let mut restored_cache: Vec<CacheEntry> = Vec::new();
    let mut seq: u64 = 0;
    let mut resumed = false;
    if let Some(st) = store {
        if let Some((loaded_seq, state)) = st.load_decoded("fine", decode_fine_state)? {
            done = state.done;
            work = state.work;
            *rng = StdRng::from_state(state.rng);
            baseline = state.tally;
            restored_cache = state.cache;
            seq = loaded_seq + 1;
            resumed = true;
        }
    }
    if !resumed {
        for c in clusters {
            if c.len() > n {
                work.push(c);
            } else if !c.is_empty() {
                done.push(c);
            }
        }
    }
    // Progress accounting (`--progress` ETA): each cluster in the queue
    // is one item; a split retires its input and enqueues its halves, so
    // the total grows by the extra pieces as the run discovers them.
    let items = &cfg.budget.probe;
    items.add("items", "total", (done.len() + work.len()) as u64);
    items.add("items", "done", done.len() as u64);
    let chunk = store.map_or(usize::MAX, StageStore::chunk_pairs);
    // Memoized similarity matrix, shared across every split this run
    // performs and — through the checkpoint — across resumes, so no
    // class pair's MCS is ever computed twice.
    let cache = SimCache::build(db);
    cache.seed(&restored_cache);
    // The cluster stays on top of `work` until its split finishes, so
    // every mid-split flush records the boundary before the split: this
    // queue, the RNG before seed₁ is drawn, and the tally at the start.
    while let Some(cluster) = work.last() {
        let rng_start = rng.state();
        let tally_start = baseline.merge(tally.counts());
        let seed1 = cluster[rng.gen_range(0..cluster.len())];
        // ω(G, seed) for every member, `chunk` rows per checkpoint flush.
        // Chunking cannot change the values — every row is computed
        // independently — so chunked and monolithic runs agree. The flush
        // comes before each chunk but the split's first, so it always
        // holds rows computed since the last one (the post-split flush
        // covers the final chunk).
        let mut first_chunk = true;
        let (c1, c2) = split(cluster, seed1, |targets, seed| {
            let mut omega = Vec::with_capacity(targets.len());
            for piece in targets.chunks(chunk) {
                if !std::mem::take(&mut first_chunk) {
                    write_state(
                        store,
                        &mut seq,
                        &done,
                        &work,
                        rng_start,
                        tally_start,
                        &cache,
                    )?;
                }
                omega.extend(omega_chunk(db, piece, seed, cfg, &tally, &cache));
            }
            Ok(omega)
        })?;
        let cluster_len = cluster.len();
        work.pop();
        let (work_before, done_before) = (work.len(), done.len());
        for mut c in [c1, c2] {
            if c.len() == cluster_len {
                // Degenerate split (all graphs identical): halve by index.
                let tail = c.split_off(c.len() / 2);
                for piece in [c, tail] {
                    if piece.len() > n {
                        work.push(piece);
                    } else if !piece.is_empty() {
                        done.push(piece);
                    }
                }
                break;
            }
            if c.len() > n {
                work.push(c);
            } else if !c.is_empty() {
                done.push(c);
            }
        }
        // One input retired, `pushed` pieces enqueued: the known total
        // grows by the difference, and finished pieces count as done.
        let pushed = (work.len() - work_before) + (done.len() - done_before);
        items.add("items", "total", pushed.saturating_sub(1) as u64);
        items.add("items", "done", (done.len() - done_before) as u64);
        write_state(
            store,
            &mut seq,
            &done,
            &work,
            rng.state(),
            baseline.merge(tally.counts()),
            &cache,
        )?;
    }
    done.sort_by_key(|c| c[0]);
    Ok(FineOutcome {
        clusters: done,
        kernel: baseline.merge(tally.counts()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::{Label, VertexId};
    use rand::SeedableRng;

    fn ring(n: u32) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(Label(0));
        }
        for i in 0..n {
            g.add_edge(VertexId(i), VertexId((i + 1) % n)).unwrap();
        }
        g
    }

    fn chain(n: u32) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(Label(0));
        }
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
        }
        g
    }

    #[test]
    fn splits_until_under_threshold() {
        let db: Vec<Graph> = (0..12)
            .map(|i| if i % 2 == 0 { ring(6) } else { chain(6) })
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let cfg = FineConfig {
            max_cluster_size: 4,
            ..Default::default()
        };
        let out = fine_cluster(&db, vec![(0..12).collect()], &cfg, &mut rng).clusters;
        assert!(out.iter().all(|c| c.len() <= 4));
        let mut all: Vec<u32> = out.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn small_clusters_untouched() {
        let db: Vec<Graph> = (0..4).map(|_| ring(5)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let cfg = FineConfig {
            max_cluster_size: 10,
            ..Default::default()
        };
        let input = vec![vec![0, 1], vec![2, 3]];
        let out = fine_cluster(&db, input.clone(), &cfg, &mut rng).clusters;
        assert_eq!(out, input);
    }

    #[test]
    fn identical_graphs_terminate() {
        let db: Vec<Graph> = (0..9).map(|_| ring(5)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let cfg = FineConfig {
            max_cluster_size: 2,
            ..Default::default()
        };
        let out = fine_cluster(&db, vec![(0..9).collect()], &cfg, &mut rng).clusters;
        assert!(out.iter().all(|c| c.len() <= 2));
        assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 9);
    }

    #[test]
    fn exact_run_reports_all_exact_kernels() {
        let db: Vec<Graph> = (0..12)
            .map(|i| if i % 2 == 0 { ring(6) } else { chain(6) })
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let cfg = FineConfig {
            max_cluster_size: 4,
            ..Default::default()
        };
        let out = fine_cluster(&db, vec![(0..12).collect()], &cfg, &mut rng);
        assert!(out.kernel.total() > 0);
        assert!(out.kernel.all_exact());
        assert!(out.clusters.iter().all(|c| c.len() <= 4));
    }

    #[test]
    fn truncated_mcs_is_surfaced_not_trusted() {
        // A 2-node MCS budget trips on every non-trivial pair: the audit
        // must report the degradation, and the partition must still be
        // valid (fallback similarity decides the splits).
        let db: Vec<Graph> = (0..12)
            .map(|i| if i % 2 == 0 { ring(6) } else { chain(6) })
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let cfg = FineConfig {
            max_cluster_size: 4,
            budget: catapult_graph::SearchBudget::nodes(2),
            ..Default::default()
        };
        let out = fine_cluster(&db, vec![(0..12).collect()], &cfg, &mut rng);
        assert!(out.kernel.degraded() > 0, "budget trips must be recorded");
        assert!(out.clusters.iter().all(|c| c.len() <= 4));
        let mut all: Vec<u32> = out.clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn equal_canonical_forms_share_one_cache_entry() {
        // Graph 1 is graph 0 with vertices relabeled (same ring, rotated
        // edge insertion order) — isomorphic, so one class; the chain is
        // its own class.
        let mut rotated = Graph::new();
        for _ in 0..6 {
            rotated.add_vertex(Label(0));
        }
        for i in 0..6u32 {
            rotated
                .add_edge(VertexId((i + 3) % 6), VertexId((i + 4) % 6))
                .unwrap();
        }
        let db = vec![ring(6), rotated, chain(6)];
        let cache = SimCache::build(&db);
        assert_eq!(cache.class_of(0), cache.class_of(1));
        assert_ne!(cache.class_of(0), cache.class_of(2));

        let cfg = FineConfig::default();
        let tally = Tally::new();
        let first = similarity(0, 2, &db, &cache, &cfg, &tally);
        let second = similarity(1, 2, &db, &cache, &cfg, &tally);
        assert_eq!(first.to_bits(), second.to_bits(), "hit replays the value");
        assert_eq!(
            cache.snapshot().len(),
            1,
            "isomorphic graphs share a single entry"
        );
        // Hit and miss both recorded, so the audit still counts 2 calls.
        assert_eq!(tally.counts().total(), 2);
    }

    #[test]
    fn same_class_mccs_is_not_assumed_to_be_one() {
        // Two copies of a disconnected graph (two triangles): the MCCS of
        // the pair is a single triangle, so ω = 3/6 — a cache that
        // shortcut same-class pairs to 1.0 would get this wrong.
        let mut g = Graph::new();
        for _ in 0..6 {
            g.add_vertex(Label(0));
        }
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(VertexId(a), VertexId(b)).unwrap();
        }
        let db = vec![g.clone(), g];
        let cache = SimCache::build(&db);
        assert_eq!(cache.class_of(0), cache.class_of(1));
        let cfg = FineConfig::default();
        let tally = Tally::new();
        let s = similarity(0, 1, &db, &cache, &cfg, &tally);
        assert!((s - 0.5).abs() < 1e-12, "got {s}");
        assert!(tally.counts().all_exact());
    }

    #[test]
    fn cache_seed_prefills_and_skips_foreign_classes() {
        let db = vec![ring(6), chain(6)];
        let cache = SimCache::build(&db);
        cache.seed(&[
            (0, 1, 0.25, Completeness::Exact),
            (7, 9, 0.5, Completeness::Exact), // outside this DB's class space
        ]);
        assert_eq!(cache.snapshot(), vec![(0, 1, 0.25, Completeness::Exact)]);
        // A lookup on the seeded pair is a pure hit: the (made-up) value
        // is replayed rather than recomputed.
        let cfg = FineConfig::default();
        let tally = Tally::new();
        let s = similarity(0, 1, &db, &cache, &cfg, &tally);
        assert!((s - 0.25).abs() < 1e-12);
        assert_eq!(tally.counts().total(), 1);
    }

    #[test]
    fn label_fallback_is_exact_and_bounded() {
        let a = ring(6);
        let b = chain(4);
        let s = label_vector_similarity(&a, &b);
        // 4 common unlabeled vertices over max(6, 4).
        assert!((s - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(label_vector_similarity(&Graph::new(), &Graph::new()), 0.0);
    }

    #[test]
    fn mccs_split_separates_topology_families() {
        // 6 rings (ids 0..6) and 6 chains (ids 6..12). With one label a
        // 6-chain is a 6-ring minus an edge, so every pair would have
        // ω = 5/min(6, 5) = 1.0 and nothing would separate them. The
        // chains therefore carry a label the rings lack: ω(ring, chain) is
        // exactly 0 (no shared edge label), ω within a family is 1.0.
        let relabel = |g: Graph| {
            let edges: Vec<(u32, u32)> = g.edges().map(|(_, e)| (e.u.0, e.v.0)).collect();
            Graph::from_parts(&vec![Label(1); g.vertex_count()], &edges)
        };
        let db: Vec<Graph> = (0..6)
            .map(|_| ring(6))
            .chain((0..6).map(|_| relabel(chain(6))))
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let cfg = FineConfig {
            max_cluster_size: 6,
            ..Default::default()
        };
        let out = fine_cluster(&db, vec![(0..12).collect()], &cfg, &mut rng).clusters;
        let mut all: Vec<u32> = out.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<u32>>());
        for c in &out {
            assert!(
                c.iter().all(|&g| g < 6) || c.iter().all(|&g| g >= 6),
                "cluster {c:?} mixes rings and chains"
            );
        }
    }
}
