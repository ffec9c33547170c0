//! The three workloads: their seeded inputs, the timed operation, and a
//! traced replay of the same library calls.
//!
//! Every workload builds its repository from a *data seed* (fixed per
//! workload unless overridden) and its evaluation queries from the run
//! seed. The program under test only ever sees the generated graphs, after
//! a round trip through the gSpan transaction text format.

use catapult_cluster::{cluster_graphs, Clustering, ClusteringConfig};
use catapult_core::ckpt_io::result_digest;
use catapult_core::{
    find_canned_patterns, run_catapult, CatapultConfig, CatapultResult, IncrementalCatapult,
    IncrementalConfig, PatternBudget, SelectionConfig, SelectionResult, UpdateStats,
};
use catapult_csg::{build_csgs_recorded, Csg};
use catapult_datasets::{
    aids_profile, emol_profile, generate, pubchem_profile, random_queries, MoleculeProfile,
};
use catapult_graph::fmt::{parse_graphs, write_graphs};
use catapult_graph::{Graph, LabelInterner};
use catapult_obs::{Recorder, Snapshot, Stopwatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Evaluation queries per run. The paper's workloads are 200–1000
/// queries; 40 000 keeps the missed percentage (5–8% of queries) within a
/// few percent of itself from one query seed to the next.
const QUERIES: usize = 40_000;
/// Query sizes in edges (inclusive).
const QUERY_EDGES: (usize, usize) = (4, 25);
/// Data seed of every workload when `--data-seed` is not given.
pub const DEFAULT_DATA_SEED: u64 = 7;
/// `paper`: repository size. Small enough that one operation takes a few
/// seconds, so a run repeats it often; selection still dominates.
const PAPER_GRAPHS: usize = 50;
/// `cluster`: repository size. Large enough that clustering dominates.
const CLUSTER_GRAPHS: usize = 800;
/// Seed of the pipeline's own RNG (k-means, random walks, refreshes).
const PIPELINE_SEED: u64 = 0xCA7A_9017;
/// `grow`: repository size before the first arrival.
const GROW_REPOSITORY: usize = 150;
/// `grow`: number of insert + refresh rounds.
const GROW_BATCHES: usize = 8;
/// `grow`: arrivals per round.
const GROW_BATCH: usize = 40;
/// `grow`: MCCS similarity an arrival needs to join an existing cluster.
/// Above the library default (0.5) so that dissimilar arrivals pool as
/// outliers and the pool matures into new clusters during the run.
const GROW_ASSIGNMENT_THRESHOLD: f64 = 0.7;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's default selection settings on a 50-graph repository:
    /// greedy selection dominates.
    Paper,
    /// An 800-graph repository with a small panel: clustering dominates.
    Cluster,
    /// Batches of arrivals interleaved with panel refreshes on a
    /// maintained [`IncrementalCatapult`].
    Grow,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Cluster, Workload::Grow];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Cluster => "cluster",
            Workload::Grow => "grow",
        }
    }

    /// Selections one timed operation makes: one pipeline run, or one
    /// refresh per `grow` round.
    pub fn selections_per_op(self) -> usize {
        match self {
            Workload::Paper | Workload::Cluster => 1,
            Workload::Grow => GROW_BATCHES,
        }
    }

    /// The pattern budget every selected panel must respect.
    pub fn budget(self) -> PatternBudget {
        match self {
            Workload::Paper => PatternBudget::paper_default(),
            Workload::Cluster => small_budget(3, 5, 6),
            Workload::Grow => small_budget(3, 8, 10),
        }
    }

    fn pipeline_config(self, recorder: Recorder) -> CatapultConfig {
        let walks = match self {
            Workload::Cluster => 20,
            _ => 100,
        };
        CatapultConfig {
            budget: self.budget(),
            walks,
            seed: PIPELINE_SEED,
            recorder,
            ..CatapultConfig::default()
        }
    }
}

fn small_budget(eta_min: usize, eta_max: usize, gamma: usize) -> PatternBudget {
    match PatternBudget::new(eta_min, eta_max, gamma) {
        Ok(b) => b,
        Err(e) => unreachable!("constant budget is valid: {e}"),
    }
}

fn grow_config(recorder: &Recorder) -> IncrementalConfig {
    let defaults = IncrementalConfig::default();
    IncrementalConfig {
        assignment_threshold: GROW_ASSIGNMENT_THRESHOLD,
        // The stage probe only counts kernel work; it does not change it.
        search: defaults
            .search
            .clone()
            .with_probe(recorder.stage_probe("grow")),
        selection: SelectionConfig {
            budget: Workload::Grow.budget(),
            walks: 50,
            recorder: recorder.clone(),
            ..SelectionConfig::default()
        },
        ..defaults
    }
}

/// `grow`'s extra inputs.
#[derive(Debug)]
pub struct GrowInputs {
    /// The maintained instance after set-up (untraced configuration).
    pub base: IncrementalCatapult,
    /// The set-up clustering of the repository.
    pub clusters: Vec<Vec<u32>>,
    /// Size of the repository before the first arrival.
    pub repository: usize,
    /// Arrivals, one batch per round.
    pub batches: Vec<Vec<Graph>>,
}

/// Everything a run needs, built by [`setup`].
#[derive(Debug)]
pub struct Inputs {
    /// The database: for `grow`, the repository followed by every arrival.
    pub db: Vec<Graph>,
    /// Evaluation queries drawn from `db`.
    pub queries: Vec<Graph>,
    /// `grow` only.
    pub grow: Option<GrowInputs>,
}

/// Generate `count` molecules, write them as gSpan text and parse them
/// back through `interner` (shared, so labels agree across profiles).
fn load(
    profile: &MoleculeProfile,
    count: usize,
    seed: u64,
    interner: &mut LabelInterner,
) -> Result<Vec<Graph>, String> {
    let generated = generate(profile, count, seed);
    let text = write_graphs(&generated.graphs, &generated.interner);
    parse_graphs(&text, interner).map_err(|e| format!("generated {} text: {e}", profile.name))
}

/// Build a workload's inputs: repository from `data_seed`, queries from
/// `query_seed`, plus `grow`'s initial clustering.
pub fn setup(w: Workload, data_seed: u64, query_seed: u64) -> Result<Inputs, String> {
    let mut interner = LabelInterner::new();
    let (db, grow) = match w {
        Workload::Paper => (
            load(&aids_profile(), PAPER_GRAPHS, data_seed, &mut interner)?,
            None,
        ),
        Workload::Cluster => (
            load(&aids_profile(), CLUSTER_GRAPHS, data_seed, &mut interner)?,
            None,
        ),
        Workload::Grow => {
            let repo = load(&aids_profile(), GROW_REPOSITORY, data_seed, &mut interner)?;
            let profiles = [emol_profile(), pubchem_profile(), aids_profile()];
            let batches = (0..GROW_BATCHES)
                .map(|b| {
                    let seed = data_seed.wrapping_mul(1_000).wrapping_add(b as u64 + 1);
                    load(
                        &profiles[b % profiles.len()],
                        GROW_BATCH,
                        seed,
                        &mut interner,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mut rng = StdRng::seed_from_u64(PIPELINE_SEED);
            let clusters = cluster_graphs(&repo, &ClusteringConfig::default(), &mut rng).clusters;
            let base = IncrementalCatapult::new(
                repo.clone(),
                clusters.clone(),
                grow_config(&Recorder::disabled()),
            );
            let mut db = repo;
            let repository = db.len();
            db.extend(batches.iter().flatten().cloned());
            let grow = GrowInputs {
                base,
                clusters,
                repository,
                batches,
            };
            (db, Some(grow))
        }
    };
    let queries = random_queries(&db, QUERIES, QUERY_EDGES, query_seed);
    Ok(Inputs { db, queries, grow })
}

/// One selection made by an operation.
#[derive(Clone, Debug)]
pub struct Panel {
    /// The selected patterns.
    pub patterns: Vec<Graph>,
    /// For each pattern, the CSG graph that proposed it.
    pub sources: Vec<Graph>,
    /// The panel was selected over `db[..db_len]`.
    pub db_len: usize,
}

/// What one timed operation produced.
#[derive(Debug)]
pub struct OpOutcome {
    /// Wall time of the timed region.
    pub run_s: f64,
    /// Every selection the operation made, in order.
    pub panels: Vec<Panel>,
    /// FNV-1a of the concatenated [`result_digest`]s.
    pub digest: u64,
    /// Searches that ended on their node cap.
    pub degraded: u64,
    /// Recorder contents (traced operations only).
    pub snapshot: Option<Snapshot>,
    /// `grow`: [`UpdateStats`] summed over the rounds.
    pub grow: UpdateStats,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn pipeline_degraded(r: &CatapultResult) -> u64 {
    let report = r.report();
    report.mining.degraded() + report.clustering.degraded() + report.scoring.degraded()
}

fn panel(sel: &SelectionResult, csgs: &[Csg], db_len: usize) -> Panel {
    Panel {
        patterns: sel.patterns(),
        sources: sel
            .selected
            .iter()
            .map(|s| csgs[s.source_csg].graph.clone())
            .collect(),
        db_len,
    }
}

fn pipeline_outcome(run_s: f64, r: &CatapultResult, db_len: usize, rec: &Recorder) -> OpOutcome {
    OpOutcome {
        run_s,
        panels: vec![panel(&r.selection, &r.csgs, db_len)],
        digest: catapult_ckpt::fnv1a(&result_digest(r)),
        degraded: pipeline_degraded(r),
        snapshot: rec.snapshot(),
        grow: UpdateStats::default(),
    }
}

/// Run the workload's timed operation with tracing off.
pub fn run_untraced(w: Workload, inputs: &Inputs) -> OpOutcome {
    match (&inputs.grow, w) {
        (Some(g), Workload::Grow) => grow_op(g, g.base.clone(), &Recorder::disabled()),
        _ => {
            let cfg = w.pipeline_config(Recorder::disabled());
            let clock = Stopwatch::start();
            let r = run_catapult(&inputs.db, &cfg);
            let run_s = secs(clock.elapsed());
            pipeline_outcome(run_s, &r, inputs.db.len(), &cfg.recorder)
        }
    }
}

/// Run the workload's operation traced: the benchmark opens a span around
/// every public layer call, and the library's own spans and kernel
/// counters land in the same recorder.
pub fn run_traced(w: Workload, inputs: &Inputs) -> OpOutcome {
    let rec = Recorder::enabled();
    match (&inputs.grow, w) {
        (Some(g), Workload::Grow) => {
            let inc = IncrementalCatapult::new(
                inputs.db[..g.repository].to_vec(),
                g.clusters.clone(),
                grow_config(&rec),
            );
            grow_op(g, inc, &rec)
        }
        _ => {
            let cfg = w.pipeline_config(rec.clone());
            let clock = Stopwatch::start();
            let r = traced_pipeline(&inputs.db, &cfg);
            let run_s = secs(clock.elapsed());
            pipeline_outcome(run_s, &r, inputs.db.len(), &rec)
        }
    }
}

/// [`run_catapult`] recomposed from its layers, in the same order and
/// with the same configuration plumbing, so the result digest matches.
fn traced_pipeline(db: &[Graph], cfg: &CatapultConfig) -> CatapultResult {
    let rec = &cfg.recorder;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let clustering_cfg = ClusteringConfig {
        search: cfg.search.overlay(&cfg.clustering.search),
        recorder: rec.clone(),
        ..cfg.clustering.clone()
    };
    let clustering = {
        let _span = rec.span("bench.cluster_graphs");
        cluster_graphs(db, &clustering_cfg, &mut rng)
    };
    let csgs = {
        let _span = rec.span("bench.build_csgs");
        build_csgs_recorded(db, &clustering.clusters, rec)
    };
    let mut selection = {
        let _span = rec.span("bench.find_canned_patterns");
        let select_cfg = SelectionConfig {
            budget: cfg.budget.clone(),
            walks: cfg.walks,
            search: cfg.search.clone(),
            recorder: rec.clone(),
            ..SelectionConfig::default()
        };
        find_canned_patterns(db, &csgs, &select_cfg, &mut rng)
    };
    selection.report.mining = clustering.mining;
    selection.report.clustering = clustering.fine;
    CatapultResult {
        selection,
        csgs,
        clustering,
    }
}

/// Digest of one `grow` round: the refreshed selection together with the
/// maintained clusters and CSGs it was selected from, and the round's
/// update statistics.
fn grow_round_digest(
    inc: &IncrementalCatapult,
    sel: &SelectionResult,
    stats: &UpdateStats,
) -> Vec<u8> {
    let state = CatapultResult {
        selection: sel.clone(),
        csgs: inc.csgs().to_vec(),
        clustering: Clustering {
            clusters: inc.clusters().to_vec(),
            features: Vec::new(),
            elapsed: Duration::ZERO,
            mining: Default::default(),
            fine: Default::default(),
        },
    };
    let mut bytes = result_digest(&state);
    for n in [
        stats.assigned,
        stats.outliers,
        stats.rebuilt_csgs,
        stats.new_clusters,
        stats.degraded_probes,
    ] {
        bytes.extend_from_slice(&(n as u64).to_le_bytes());
    }
    bytes
}

/// Insert every batch into `inc`, refreshing the panel after each; only
/// the inserts and refreshes are timed.
fn grow_op(g: &GrowInputs, mut inc: IncrementalCatapult, rec: &Recorder) -> OpOutcome {
    let batches = g.batches.clone();
    let mut run = Duration::ZERO;
    let mut panels = Vec::with_capacity(batches.len());
    let mut digest_bytes = Vec::new();
    let mut degraded = 0u64;
    let mut sum = UpdateStats::default();
    for batch in batches {
        let clock = Stopwatch::start();
        let stats = {
            let _span = rec.span("bench.insert_batch");
            inc.insert_batch(batch)
        };
        let sel = {
            let _span = rec.span("bench.refresh_patterns");
            inc.refresh_patterns()
        };
        run += clock.elapsed();
        degraded += stats.degraded_probes as u64 + sel.report.scoring.degraded();
        sum.assigned += stats.assigned;
        sum.outliers += stats.outliers;
        sum.rebuilt_csgs += stats.rebuilt_csgs;
        sum.new_clusters += stats.new_clusters;
        sum.degraded_probes += stats.degraded_probes;
        digest_bytes.extend(grow_round_digest(&inc, &sel, &stats));
        panels.push(panel(&sel, inc.csgs(), inc.len()));
    }
    OpOutcome {
        run_s: secs(run),
        panels,
        digest: catapult_ckpt::fnv1a(&digest_bytes),
        degraded,
        snapshot: rec.snapshot(),
        grow: sum,
    }
}
