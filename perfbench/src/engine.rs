//! The engine workloads, `paper-build` and `sim-steady`, and the
//! durable cycle the traced `sim-steady` run adds.
//!
//! One *cycle* is a whole engine lifecycle driven through the public
//! entry points: `Engine::new` (plus, for a durable cycle, attaching a
//! `DurableMirror`, which writes the checkpoint image), then
//! `step_transaction` until the run's transaction target, then
//! `run_observed` / `run_and_crash_at(End)`, which report and drop the
//! engine, and for a durable cycle `recover_dir` on the real files.
//! Each phase is timed as a whole; no single step is ever timed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use semcluster::{CrashPoint, DurableMirror, Engine, ObsConfig, RunReport, SimConfig};
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{
    plan_placement_in, AllResident, ClusteringPolicy, HintPolicy, PlacementTarget, ScoreScratch,
    SplitPolicy, WeightModel,
};
use semcluster_faults::FsFaultConfig;
use semcluster_obs::{allocation_counts, ProfileReport};
use semcluster_sim::SimRng;
use semcluster_storage::{
    recover_dir, PageId, StorageManager, PAGES_FILE, PAGE_OVERHEAD_BYTES, WAL_FILE,
};
use semcluster_vdm::{Database, ObjectId, SyntheticDbSpec};
use semcluster_workload::StructureDensity;

use crate::checks;
use crate::Metrics;

/// Transactions measured per `paper-build` cycle: enough for the run
/// phase to last more than a second.
pub const PAPER_TXNS: u64 = 300_000;
/// Transactions measured per `sim-steady` cycle.
pub const SIM_STEADY_TXNS: u64 = 1_000_000;
/// Transactions measured per durable cycle.
pub const DURABLE_TXNS: u64 = 50_000;

/// The engine workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineWorkload {
    /// Paper scale (500 MB, 1000 frames), hi10-100.
    PaperBuild,
    /// Default 32 MB scale, med5-5 with prefetch, a long measured run.
    SimSteady,
}

impl EngineWorkload {
    /// Cycles a run of `seconds` makes: fixed by the run length alone
    /// (from a nominal cycle time), so the same arguments always make
    /// the same cycles, and at least three for a median.
    pub fn cycles(self, seconds: f64) -> u64 {
        let nominal_s = match self {
            EngineWorkload::PaperBuild => 8.0,
            EngineWorkload::SimSteady => 5.0,
        };
        ((seconds / nominal_s).ceil() as u64).max(3)
    }

    /// The simulated configuration of cycle `cycle` of a run seeded
    /// with `seed`: every cycle simulates its own database, so a run's
    /// median spans several.
    pub fn config(self, seed: u64, cycle: u64) -> SimConfig {
        let base = match self {
            EngineWorkload::PaperBuild => {
                SimConfig::paper_scale().with_workload(StructureDensity::High10, 100.0)
            }
            EngineWorkload::SimSteady => SimConfig::default()
                .with_workload(StructureDensity::Med5, 5.0)
                .with_prefetch(PrefetchScope::WithinDatabase),
        };
        let mut cfg = base
            .with_clustering(ClusteringPolicy::NoLimit)
            .with_split(SplitPolicy::Linear)
            .with_replacement(ReplacementPolicy::ContextSensitive)
            .with_seed(seed.wrapping_mul(1_000).wrapping_add(cycle));
        cfg.measured_txns = match self {
            EngineWorkload::PaperBuild => PAPER_TXNS,
            EngineWorkload::SimSteady => SIM_STEADY_TXNS,
        };
        cfg
    }

    /// `sim-steady`'s configuration for a durable cycle: shorter, and
    /// retaining the log so the run can crash and recover.
    pub fn durable_config(seed: u64) -> SimConfig {
        let mut cfg = EngineWorkload::SimSteady.config(seed, 0);
        cfg.measured_txns = DURABLE_TXNS;
        cfg.retain_log = true;
        cfg
    }
}

/// File-store traffic of one durable cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableStats {
    /// Wall seconds of `recover_dir` on the crashed store.
    pub recovery_s: f64,
    /// Wall seconds of the checkpoint (attaching the mirror).
    pub checkpoint_s: f64,
    /// Commits made durable (fsync succeeded).
    pub commits: u64,
    /// Commits whose fsync failed (never acknowledged).
    pub failed_commits: u64,
    /// Fsyncs after the checkpoint.
    pub fsyncs: u64,
    /// Write syscalls after the checkpoint.
    pub writes: u64,
    /// Bytes made durable after the checkpoint.
    pub bytes_synced: u64,
    /// Redo operations the first recovery applied.
    pub redone: u64,
}

/// What one cycle measured.
pub struct Cycle {
    /// `Engine::new` (+ checkpoint), seconds.
    pub setup_s: f64,
    /// Stepping every transaction, seconds.
    pub run_s: f64,
    /// Report plus engine drop, seconds.
    pub teardown_s: f64,
    /// The whole cycle, recovery included, seconds.
    pub total_s: f64,
    /// Transactions stepped (warmup + measured).
    pub txns: u64,
    /// The run's report.
    pub report: RunReport,
    /// The phase profile, when the cycle was traced.
    pub profile: Option<ProfileReport>,
    /// Objects right after set-up.
    pub objects: usize,
    /// Pages right after set-up.
    pub pages: usize,
    /// File-store traffic (durable cycles only).
    pub durable: Option<DurableStats>,
}

/// Run one cycle. `traced` attaches the phase profiler; `check_layout`
/// runs the placement check on the freshly loaded store (untimed);
/// `durable_in` makes it a durable cycle with its store directory made
/// under that path.
pub fn cycle(
    cfg: &SimConfig,
    traced: bool,
    check_layout: bool,
    durable_in: Option<&Path>,
    violations: &mut Vec<String>,
) -> Cycle {
    let obs = if traced {
        ObsConfig::default().profile()
    } else {
        ObsConfig::default()
    };
    let dir = durable_in.map(fresh_dir);
    let t0 = Instant::now();
    let mut engine = Engine::with_obs(cfg.clone(), obs);
    let mut checkpoint_s = 0.0;
    if let Some(dir) = &dir {
        let tc = Instant::now();
        let attached = DurableMirror::create(dir, FsFaultConfig::default())
            .and_then(|m| engine.attach_mirror(m));
        checkpoint_s = tc.elapsed().as_secs_f64();
        if let Err(e) = attached {
            violations.push(format!("durable: mirror set-up failed: {e}"));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    // The checkpoint image is what the store files hold right after it.
    let checkpoint = Checkpoint {
        seconds: checkpoint_s,
        bytes: dir.as_deref().map_or(0, |d| {
            let (pages, wal) = store_bytes(d);
            (pages.len() + wal.len()) as u64
        }),
    };
    let (objects, pages) = (
        engine.database().object_count(),
        engine.store().page_count(),
    );
    if check_layout {
        if let Err(e) = check_placement(engine.database(), engine.store()) {
            violations.push(e);
        }
    }

    let t1 = Instant::now();
    while engine.step_transaction() {}
    let run_s = t1.elapsed().as_secs_f64();
    let txns = engine.completed_txns();
    if txns != engine.target_txns() {
        violations.push(format!(
            "engine: stopped after {txns} of {} transactions",
            engine.target_txns()
        ));
    }

    let t2 = Instant::now();
    let (report, profile, teardown_s, durable) = match &dir {
        None => {
            let (report, obs) = engine.run_observed();
            (report, obs.profile, t2.elapsed().as_secs_f64(), None)
        }
        Some(dir) => {
            let outcome = engine.run_and_crash_at(CrashPoint::End);
            let teardown_s = t2.elapsed().as_secs_f64();
            let stats = verify_recovery(dir, &outcome, checkpoint, violations);
            let _ = std::fs::remove_dir_all(dir);
            (outcome.report, None, teardown_s, Some(stats))
        }
    };
    // The timed phases only: the checks in between are not the program's
    // work.
    let total_s = setup_s + run_s + teardown_s + durable.map_or(0.0, |d| d.recovery_s);
    if let Err(e) = checks::littles_law(&report, cfg.users, cfg.think_time.as_secs_f64()) {
        violations.push(e);
    }
    if let Err(e) = checks::attribution_residual(&report) {
        violations.push(e);
    }
    Cycle {
        setup_s,
        run_s,
        teardown_s,
        total_s,
        txns,
        report,
        profile,
        objects,
        pages,
        durable,
    }
}

/// The checkpoint's cost, measured outside the mirror.
#[derive(Clone, Copy)]
struct Checkpoint {
    seconds: f64,
    bytes: u64,
}

fn fresh_dir(scratch: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = scratch.join(format!(
        "store-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_bytes(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(dir.join(PAGES_FILE)).unwrap_or_default(),
        std::fs::read(dir.join(WAL_FILE)).unwrap_or_default(),
    )
}

/// Recover the crashed store twice: every acknowledged commit must be
/// a winner of the first recovery, neither pass may report an
/// invariant violation, and the second must leave both files
/// byte-identical.
fn verify_recovery(
    dir: &Path,
    outcome: &semcluster::CrashOutcome,
    checkpoint: Checkpoint,
    violations: &mut Vec<String>,
) -> DurableStats {
    let mut stats = DurableStats {
        checkpoint_s: checkpoint.seconds,
        ..DurableStats::default()
    };
    let Some(artifacts) = &outcome.file else {
        violations.push("durable: the run left no file store".into());
        return stats;
    };
    let fs = artifacts.report.stats;
    stats.commits = artifacts.stats.commits_ok;
    stats.failed_commits = artifacts.stats.commits_failed;
    let checkpoint_writes = artifacts.checkpoint_syscalls - artifacts.checkpoint_fsyncs;
    stats.fsyncs = fs.fsyncs - artifacts.checkpoint_fsyncs;
    stats.writes = fs.writes - checkpoint_writes;
    stats.bytes_synced = fs.bytes_synced.saturating_sub(checkpoint.bytes);
    violations.extend(artifacts.errors.iter().map(|e| format!("durable: {e}")));

    let t = Instant::now();
    let first = recover_dir(dir);
    stats.recovery_s = t.elapsed().as_secs_f64();
    let first = match first {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("durable: recovery failed: {e}"));
            return stats;
        }
    };
    stats.redone = first.redone;
    let before = store_bytes(dir);
    match recover_dir(dir) {
        Ok(second) => {
            violations.extend(
                second
                    .violations
                    .iter()
                    .map(|v| format!("durable: 2nd recovery: {v}")),
            );
            if store_bytes(dir) != before {
                violations.push("durable: a second recovery changed the store files".into());
            }
        }
        Err(e) => violations.push(format!("durable: 2nd recovery failed: {e}")),
    }
    violations.extend(
        first
            .violations
            .iter()
            .map(|v| format!("durable: recovery: {v}")),
    );
    let acked: Vec<u64> = outcome.acked.iter().map(|t| t.raw()).collect();
    if let Err(e) = checks::acked_are_winners(&acked, &first.winners) {
        violations.push(e);
    }
    stats
}

/// The placement check over the public accessors.
fn check_placement(db: &Database, store: &StorageManager) -> Result<(), String> {
    let mut slots: Vec<Vec<(u32, u32)>> = Vec::with_capacity(store.page_count());
    let mut pages = Vec::with_capacity(store.page_count());
    for p in 0..store.page_count() {
        let page = store
            .page(PageId(p as u32))
            .map_err(|e| format!("placement: page {p}: {e}"))?;
        slots.push(page.objects().iter().map(|&(o, s)| (o.0, s)).collect());
        pages.push((page.capacity(), page.used()));
    }
    checks::placement(
        db.object_count(),
        pages
            .iter()
            .zip(&slots)
            .map(|(&(capacity, used), objects)| checks::PageView {
                capacity,
                used,
                objects,
            }),
    )?;
    for id in 0..db.object_count() as u32 {
        let page = store.page_of(ObjectId(id));
        let on = page.and_then(|p| slots.get(p.0 as usize));
        if !on.is_some_and(|s| s.iter().any(|&(o, _)| o == id)) {
            return Err(format!(
                "placement: page_of({id}) = {page:?} does not hold it"
            ));
        }
    }
    Ok(())
}

/// Set-up replayed from outside, one public call at a time: the
/// engine's `SyntheticDbSpec::build`, then its load-time placement loop
/// (`plan_placement_in` over every object in id order with full
/// visibility, as the engine does for the No_limit family).
pub struct Replay {
    /// `SyntheticDbSpec::build` wall seconds.
    pub build_s: f64,
    /// Heap allocations the build made.
    pub build_allocs: u64,
    /// Load-time placement wall seconds.
    pub load_s: f64,
    /// Candidate pages examined per placed object.
    pub examined_per_object: f64,
    /// Dropping the database, wall seconds.
    pub drop_s: f64,
    /// Objects the replay built.
    pub objects: usize,
    /// Pages the replay laid out.
    pub pages: usize,
}

/// Replay the engine's set-up for `cfg` (a No_limit-family policy).
pub fn replay_setup(cfg: &SimConfig) -> Replay {
    // The engine draws the database seed first from its seeded RNG and
    // sizes the module count from the target object count.
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let (fanout, depth) = match cfg.workload.density {
        StructureDensity::Low3 => ((1usize, 3usize), 6usize),
        StructureDensity::Med5 => ((4, 9), 3),
        StructureDensity::High10 => ((10, 15), 2),
    };
    let mean_fanout = (fanout.0 + fanout.1) as f64 / 2.0;
    let (mut tree_nodes, mut level) = (1.0, 1.0);
    for _ in 0..depth {
        level *= mean_fanout;
        tree_nodes += level;
    }
    let version_prob = 0.2;
    let per_module = tree_nodes * 2.0 * (1.0 + version_prob);
    let spec = SyntheticDbSpec {
        modules: ((cfg.target_objects() as f64 / per_module).round() as usize).max(1),
        depth,
        fanout,
        representations: vec!["layout".into(), "netlist".into()],
        correspondence_prob: 0.5,
        version_prob,
        body_bytes: (64, 512),
        seed: rng.below(u64::MAX / 2),
    };

    let (_, allocs0) = allocation_counts();
    let t = Instant::now();
    let db = spec.build().0;
    let build_s = t.elapsed().as_secs_f64();
    let (_, allocs1) = allocation_counts();

    let weights = match cfg.hints {
        HintPolicy::UserHints => WeightModel::with_hint(cfg.session_hint),
        HintPolicy::NoHints => WeightModel::no_hints(),
    };
    let t = Instant::now();
    let mut store = StorageManager::new(cfg.page_bytes);
    let reserve = (cfg.page_bytes - PAGE_OVERHEAD_BYTES) * 3 / 10;
    let mut scratch = ScoreScratch::with_capacity(db.object_count(), 0);
    let mut examined = 0u64;
    for i in 0..db.object_count() {
        let id = ObjectId(i as u32);
        let size = db.get(id).map_or(0, |o| o.size_bytes());
        let plan = plan_placement_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoLimit,
            &weights,
            id,
            size,
            &mut scratch,
        );
        examined += plan.examined.len() as u64;
        let placed = match plan.target {
            PlacementTarget::Existing(page) => store.place(id, size, page),
            PlacementTarget::Append => store.append_reserving(id, size, reserve).map(|_| ()),
        };
        placed.expect("replayed placement follows the engine's own plan");
        scratch.put_examined(plan.examined);
    }
    let load_s = t.elapsed().as_secs_f64();
    let (objects, pages) = (db.object_count(), store.page_count());
    drop(scratch);
    drop(store);
    let t = Instant::now();
    drop(db);
    let drop_s = t.elapsed().as_secs_f64();
    Replay {
        build_s,
        build_allocs: allocs1 - allocs0,
        load_s,
        examined_per_object: examined as f64 / objects.max(1) as f64,
        drop_s,
        objects,
        pages,
    }
}

/// Self wall seconds of every profiled stack whose innermost phase is
/// `phase`.
fn phase_s(profile: &ProfileReport, phase: &str) -> f64 {
    profile
        .phases()
        .filter(|(path, _)| path.rsplit(';').next() == Some(phase))
        .map(|(_, s)| s.wall_ns as f64 / 1e9)
        .sum()
}

/// Per-layer metrics of a traced cycle, its untraced twin, the set-up
/// replay and a durable cycle; zero for whatever the run did not do.
pub fn layer_metrics(
    m: &mut Metrics,
    run: Option<(&Cycle, &Cycle, &Replay)>,
    durable: Option<DurableStats>,
    violations: &mut Vec<String>,
) {
    if let Some((traced, _, replay)) = run {
        if (replay.objects, replay.pages) != (traced.objects, traced.pages) {
            violations.push(format!(
                "replay: built {} objects on {} pages, the engine {} on {}",
                replay.objects, replay.pages, traced.objects, traced.pages
            ));
        }
    }
    let profile = run.and_then(|(t, _, _)| t.profile.as_ref());
    let phase = |name: &str| profile.map_or(0.0, |p| phase_s(p, name));
    let allocs: u64 = profile.map_or(0, |p| p.phases().map(|(_, s)| s.allocs).sum());
    let replay = |f: fn(&Replay) -> f64| run.map_or(0.0, |(_, _, r)| f(r));
    let traced = |f: fn(&Cycle) -> f64| run.map_or(0.0, |(t, _, _)| f(t));
    m.push("vdm.build_s", replay(|r| r.build_s), "s");
    m.push(
        "vdm.build_allocs",
        replay(|r| r.build_allocs as f64),
        "count",
    );
    m.push("vdm.drop_s", replay(|r| r.drop_s), "s");
    m.push("clustering.load_s", replay(|r| r.load_s), "s");
    m.push(
        "clustering.load_examined_per_object",
        replay(|r| r.examined_per_object),
        "count",
    );
    m.push(
        "setup.other_s",
        run.map_or(0.0, |(_, u, r)| u.setup_s - r.build_s - r.load_s),
        "s",
    );
    m.push("sim.event_pop_s", phase("event_pop"), "s");
    m.push("sim.loop_other_s", phase("run"), "s");
    m.push(
        "sim.allocs_per_txn",
        allocs as f64 / traced(|t| t.txns as f64).max(1.0),
        "count",
    );
    m.push("buffer.lookup_s", phase("buffer_lookup"), "s");
    m.push("buffer.prefetch_s", phase("prefetch"), "s");
    m.push("buffer.hit_ratio", traced(|t| t.report.hit_ratio), "ratio");
    m.push("clustering.score_s", phase("placement_score"), "s");
    m.push("lock.acquire_s", phase("lock_acquire"), "s");
    m.push("wal.append_s", phase("wal_append"), "s");
    m.push("wal.flush_s", phase("wal_flush"), "s");
    let d = durable.unwrap_or_default();
    let per_commit = |x: u64| x as f64 / d.commits.max(1) as f64;
    m.push("storage.fsyncs_per_commit", per_commit(d.fsyncs), "count");
    m.push("storage.writes_per_commit", per_commit(d.writes), "count");
    m.push(
        "storage.bytes_synced_per_commit",
        per_commit(d.bytes_synced),
        "B",
    );
    m.push("storage.checkpoint_s", d.checkpoint_s, "s");
    m.push("storage.recovery_s", d.recovery_s, "s");
    m.push("wal.recovery_redo_ops", d.redone as f64, "count");
}
