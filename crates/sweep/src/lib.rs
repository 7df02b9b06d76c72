//! # br-sweep
//!
//! The parallel paper-scale reproduction engine: one invocation fans the
//! whole experiment grid — workload × switch-translation heuristic set ×
//! input seed — across CPU cores and regenerates every results table of
//! the paper's evaluation (Tables 4–8 plus the sequence-length figures)
//! into versioned files under `results/`.
//!
//! Three properties make the engine worth having over a `for` loop
//! around [`br_harness::run_suite`]:
//!
//! * **Parallel scheduling.** Grid cells are independent, so a
//!   dependency-free atomic-cursor scheduler ([`scheduler::parallel_map`])
//!   keeps every core busy. Results are delivered by grid index, so the
//!   report — and every file written — is **byte-identical regardless of
//!   thread count**.
//! * **Content-addressed caching.** The expensive stages (the
//!   training-and-reordering pipeline and the measurement runs) are
//!   cached on disk keyed by a hash of the printed module IR, the stage
//!   options, and the input bytes ([`cache::ArtifactCache`]). A re-run
//!   after editing only documentation is almost free; a re-run after
//!   touching the optimizer recomputes exactly the cells whose inputs
//!   changed. Reorder artifacts carry the proof certificates the
//!   certifying pipeline emitted, and a cache hit is trusted only after
//!   every certificate passes the independent checker
//!   (`br_analysis::cert::check`) — a tampered artifact silently demotes
//!   to a recomputation.
//! * **Seed replication.** `--seeds K` re-runs the grid under K
//!   perturbed input seeds and reports the spread of the headline
//!   numbers (`stability.csv`), separating the transformation's effect
//!   from input-generator luck.
//!
//! ```no_run
//! use br_sweep::{run_sweep, SweepConfig};
//!
//! let mut config = SweepConfig::smoke();
//! config.out_dir = std::env::temp_dir().join("sweep-results");
//! config.cache_dir = Some(std::env::temp_dir().join("sweep-cache"));
//! let outcome = run_sweep(&config).expect("sweep succeeds");
//! println!(
//!     "{} cells in {:?}; {} cache hits; wrote {} files",
//!     outcome.cells,
//!     outcome.elapsed,
//!     outcome.cache_hits,
//!     outcome.files.len(),
//! );
//! ```

pub mod artifact;
pub mod cache;
pub mod report;
pub mod scheduler;

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use br_harness::{MeasuredRun, ProgramResult, SuiteResult};
use br_ir::print_module;
use br_minic::{compile, HeuristicSet, Options};
use br_reorder::{reorder_module, LayoutMode, ReorderOptions};
use br_vm::{pct_change, run, PredictorConfig, Scheme, TimeModel, VmOptions};
use br_workloads::{InputSpec, Workload};

use cache::{fnv1a, ArtifactCache, FORMAT_VERSION};

/// Configuration for one sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Heuristic sets to sweep (columns of Table 4/8).
    pub sets: Vec<HeuristicSet>,
    /// Block-layout passes to sweep. The first entry fills the paper
    /// tables and `stability.csv`; every entry contributes to the
    /// layout-interaction study (`layout.csv` and the report's
    /// interaction table), which quantifies whether branch reordering
    /// and profile-guided layout compose or cannibalize.
    pub layouts: Vec<LayoutMode>,
    /// Workload names to run; empty means all 17.
    pub workloads: Vec<String>,
    /// Input-seed replications; seed 0 is the canonical paper grid,
    /// further seeds perturb the input generators.
    pub seeds: u32,
    /// Worker threads; 0 picks the machine's available parallelism.
    pub threads: usize,
    /// Bytes of training input per workload.
    pub train_size: usize,
    /// Bytes of test input per workload.
    pub test_size: usize,
    /// Use the exhaustive ordering search instead of the greedy one.
    pub exhaustive: bool,
    /// Directory the result files are written into.
    pub out_dir: PathBuf,
    /// Artifact cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

impl SweepConfig {
    /// The full paper grid: all sets, all workloads, paper input sizes.
    pub fn full() -> SweepConfig {
        SweepConfig {
            sets: HeuristicSet::ALL.to_vec(),
            layouts: vec![LayoutMode::Greedy, LayoutMode::ExtTsp],
            workloads: Vec::new(),
            seeds: 1,
            threads: 0,
            train_size: 12 * 1024,
            test_size: 16 * 1024,
            exhaustive: false,
            out_dir: PathBuf::from("results"),
            cache_dir: Some(PathBuf::from("target/sweep-cache")),
        }
    }

    /// The full grid at reduced input sizes, for quick local runs.
    pub fn quick() -> SweepConfig {
        SweepConfig {
            train_size: 3 * 1024,
            test_size: 4 * 1024,
            ..SweepConfig::full()
        }
    }

    /// A tiny grid for CI smoke tests: three branch-heavy workloads,
    /// three heuristic sets (including Set IV, so the dispatch-synthesis
    /// path and its certificates are exercised), quick input sizes, two
    /// threads.
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            sets: vec![
                HeuristicSet::SET_I,
                HeuristicSet::SET_II,
                HeuristicSet::SET_IV,
            ],
            workloads: vec!["wc".into(), "cb".into(), "grep".into()],
            threads: 2,
            ..SweepConfig::quick()
        }
    }

    /// A stable one-line description of the grid, embedded in the report
    /// header (never includes thread count or timings, which must not
    /// influence the output bytes).
    pub fn descriptor(&self) -> String {
        let workloads = if self.workloads.is_empty() {
            "all".to_string()
        } else {
            self.workloads.join(",")
        };
        let sets: Vec<&str> = self.sets.iter().map(|s| s.name).collect();
        let layouts: Vec<&str> = self.layouts.iter().map(|l| l.name()).collect();
        format!(
            "sets={} layouts={} workloads={} seeds={} train={} test={} search={}",
            sets.join(","),
            layouts.join(","),
            workloads,
            self.seeds,
            self.train_size,
            self.test_size,
            if self.exhaustive {
                "exhaustive"
            } else {
                "greedy"
            },
        )
    }
}

/// A sweep failure: configuration, pipeline, or I/O.
#[derive(Clone, Debug)]
pub struct SweepError {
    /// Human-readable description, prefixed with the cell it came from.
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SweepError {}

/// One measured run together with the static size of the module that
/// produced it (cached as a single artifact so a warm sweep never needs
/// to re-parse the module).
#[derive(Clone, Debug)]
pub struct MeasuredCell {
    /// The measured run.
    pub run: MeasuredRun,
    /// Static instruction count of the measured module.
    pub static_size: usize,
}

/// Stage timings and cache outcomes for one grid cell — diagnostics
/// only, reported on stderr and never written into result files.
#[derive(Clone, Debug)]
pub struct CellMetrics {
    /// Heuristic set name.
    pub set: &'static str,
    /// Layout mode name.
    pub layout: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Input seed replication index.
    pub seed: u32,
    /// Wall-clock time of the training + reordering stage.
    pub reorder_time: Duration,
    /// Combined wall-clock time of both measurement runs.
    pub measure_time: Duration,
    /// Whether the reorder stage was replayed from the cache.
    pub reorder_cached: bool,
    /// How many of the two measurement runs were replayed.
    pub measures_cached: u32,
}

/// Per-seed headline numbers for `stability.csv`.
#[derive(Clone, Debug)]
pub struct StabilityRow {
    /// Heuristic set name.
    pub set: &'static str,
    /// Workload name.
    pub workload: String,
    /// Input seed replication index.
    pub seed: u32,
    /// `%` change in dynamic instructions at this seed.
    pub insts_pct: f64,
    /// `%` change in conditional branches at this seed.
    pub branches_pct: f64,
}

/// One cell of the reordering × layout interaction study (`layout.csv`),
/// seed 0 only: how the reordered module compares to the original under
/// each layout mode, so adjacent rows isolate what layout adds on top of
/// reordering.
#[derive(Clone, Debug)]
pub struct LayoutRow {
    /// Layout mode name.
    pub layout: &'static str,
    /// Heuristic set name.
    pub set: &'static str,
    /// Workload name.
    pub workload: String,
    /// `%` change in dynamic taken branches (the layout headline).
    pub taken_pct: f64,
    /// `%` change in dynamic instructions.
    pub insts_pct: f64,
    /// `%` change in modelled Ultra-SPARC cycles (Table 7's model).
    pub cycles_pct: f64,
}

/// Compute a [`LayoutRow`] from one measured program under one
/// (set, layout) cell.
fn layout_row(layout: LayoutMode, set: HeuristicSet, p: &ProgramResult) -> LayoutRow {
    let model = TimeModel::ultra_sparc();
    let cfg = PredictorConfig::ultra_sparc();
    let base_core = model.core_cycles(&p.original.stats, p.original.mispredictions(cfg));
    let base = model.total_cycles(&p.original.stats, p.original.mispredictions(cfg), base_core);
    let new = model.total_cycles(
        &p.reordered.stats,
        p.reordered.mispredictions(cfg),
        base_core,
    );
    LayoutRow {
        layout: layout.name(),
        set: set.name,
        workload: p.name.clone(),
        taken_pct: pct_change(
            p.reordered.stats.taken_branches,
            p.original.stats.taken_branches,
        ),
        insts_pct: p.insts_pct(),
        cycles_pct: pct_change(new, base),
    }
}

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Seed-0 suite results, one per heuristic set, in config order.
    /// A suite whose every cell panicked is dropped (see [`SweepOutcome::failed`]).
    pub suites: Vec<SuiteResult>,
    /// Per-seed headline spread (all seeds, including 0), first
    /// configured layout only.
    pub stability: Vec<StabilityRow>,
    /// The seed-0 reordering × layout interaction rows, in grid order.
    pub layout_rows: Vec<LayoutRow>,
    /// Result files written, in a fixed order.
    pub files: Vec<PathBuf>,
    /// Per-cell stage metrics, in grid order.
    pub metrics: Vec<CellMetrics>,
    /// Artifact-cache hits across the whole run.
    pub cache_hits: u64,
    /// Artifact-cache misses across the whole run.
    pub cache_misses: u64,
    /// Grid cells executed.
    pub cells: usize,
    /// Cells whose worker panicked, labelled
    /// `{set}/{layout}/{workload}/seed{N}: worker panicked: {message}`,
    /// in grid order. A panic is isolated
    /// to its cell: the rest of the grid completes, the failed cells are
    /// listed in `report.txt`, and the tables aggregate only the
    /// surviving cells.
    pub failed: Vec<String>,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

/// The paper's full predictor sweep (Table 6): (0,1) and (0,2) at every
/// table size.
fn predictor_sweep() -> Vec<PredictorConfig> {
    let mut predictors = PredictorConfig::sweep(Scheme::OneBit);
    predictors.extend(PredictorConfig::sweep(Scheme::TwoBit));
    predictors
}

/// Input spec for replication `seed`: seed 0 is the workload's canonical
/// spec, others shift the generator seed by a fixed odd stride.
fn replicated(spec: InputSpec, seed: u32) -> InputSpec {
    InputSpec::new(spec.kind, spec.seed + 7919 * u64::from(seed))
}

struct Cell {
    set: HeuristicSet,
    layout: LayoutMode,
    workload: Workload,
    seed: u32,
}

/// Whether every certificate in a restored reorder artifact passes the
/// independent checker with its recorded content address. A cached
/// artifact is trusted only under this predicate.
fn certificates_hold(report: &br_reorder::ReorderReport) -> bool {
    let Some(summary) = &report.validation else {
        return false;
    };
    summary
        .certificates
        .iter()
        .all(|c| br_analysis::check(&c.text).is_ok_and(|checked| checked.sig == c.sig))
}

struct CellOutput {
    program: ProgramResult,
    metrics: CellMetrics,
}

/// Run one grid cell: compile, train + reorder (cached), measure
/// original and reordered (cached), and package a [`ProgramResult`].
fn run_cell(
    config: &SweepConfig,
    cache: &ArtifactCache,
    cell: &Cell,
) -> Result<CellOutput, SweepError> {
    let label = format!(
        "{}/{}/{}/seed{}",
        cell.set.name,
        cell.layout.name(),
        cell.workload.name,
        cell.seed
    );
    let err = |message: String| SweepError {
        message: format!("{label}: {message}"),
    };

    let mut module = compile(cell.workload.source, &Options::with_heuristics(cell.set))
        .map_err(|e| err(format!("compile error: {e}")))?;
    br_opt::optimize(&mut module);
    let module_text = print_module(&module);

    let train = replicated(cell.workload.training, cell.seed).generate(config.train_size);
    let test = replicated(cell.workload.test, cell.seed).generate(config.test_size);

    // Stage 1: training + reordering, cached on (module, input, search).
    // The pipeline runs in `certify` mode, so the artifact carries one
    // proof certificate per committed reordering; a cache hit replays
    // the artifact only after every certificate passes the independent
    // checker — a corrupted or forged artifact is demoted to a miss and
    // the stage recomputes.
    let search = if config.exhaustive {
        "exhaustive"
    } else {
        "greedy"
    };
    // Sets III and IV compile to identical module text (Set IV differs
    // only in the reorderer's structure planning), so the dispatch mode
    // must be part of the key or their cells would collide.
    let dispatch = if cell.set.opt_tree {
        "opttree"
    } else {
        "chain"
    };
    let reorder_key = fnv1a(&[
        b"reorder",
        FORMAT_VERSION.as_bytes(),
        module_text.as_bytes(),
        &train,
        search.as_bytes(),
        dispatch.as_bytes(),
        cell.layout.name().as_bytes(),
    ]);
    let reorder_start = Instant::now();
    let mut reorder_cached = true;
    let cached = cache.get(reorder_key).and_then(|text| {
        let parsed = artifact::read_reorder(&text).filter(certificates_hold);
        if parsed.is_none() {
            cache.demote_hit();
        }
        parsed
    });
    let report = match cached {
        Some(report) => report,
        None => {
            reorder_cached = false;
            let opts = ReorderOptions {
                exhaustive: config.exhaustive,
                certify: true,
                opt_tree: cell.set.opt_tree,
                layout: cell.layout,
                ..ReorderOptions::default()
            };
            let report = reorder_module(&module, &train, &opts)
                .map_err(|e| err(format!("training run trapped: {e}")))?;
            match &report.validation {
                Some(v) if v.is_clean() => {}
                Some(v) => {
                    return Err(err(format!(
                        "reordering failed certification: {}",
                        v.failures[0]
                    )))
                }
                None => return Err(err("pipeline returned no validation summary".to_string())),
            }
            cache.put(reorder_key, &artifact::write_reorder(&report));
            report
        }
    };
    let reorder_time = reorder_start.elapsed();
    let reordered_text = print_module(&report.module);

    // Stage 2: measurement, cached on (module, input, vm options). The
    // original module's artifact is shared by every seed that generates
    // the same test input, and by every future sweep over this module.
    let vm = VmOptions {
        predictors: predictor_sweep(),
        ..VmOptions::default()
    };
    let vm_desc = {
        let preds: Vec<String> = vm.predictors.iter().map(artifact::predictor_str).collect();
        format!(
            "ijump={} preds=[{}]",
            vm.indirect_jump_insts,
            preds.join(",")
        )
    };
    let mut measures_cached = 0u32;
    let measure_start = Instant::now();
    let mut measure = |m: &br_ir::Module, text: &str| -> Result<MeasuredCell, SweepError> {
        let key = fnv1a(&[
            b"measure",
            FORMAT_VERSION.as_bytes(),
            text.as_bytes(),
            &test,
            vm_desc.as_bytes(),
        ]);
        let cached = cache.get(key).and_then(|text| {
            let parsed = artifact::read_measure(&text);
            if parsed.is_none() {
                cache.demote_hit();
            }
            parsed
        });
        if let Some(cell) = cached {
            measures_cached += 1;
            return Ok(cell);
        }
        let out = run(m, &test, &vm).map_err(|e| err(format!("test run trapped: {e}")))?;
        let cell = MeasuredCell {
            run: MeasuredRun {
                exit: out.exit,
                output: out.output,
                stats: out.stats,
                predictors: out.predictor_results,
            },
            static_size: m.static_size(),
        };
        cache.put(key, &artifact::write_measure(&cell));
        Ok(cell)
    };
    let original = measure(&module, &module_text)?;
    let reordered = measure(&report.module, &reordered_text)?;
    let measure_time = measure_start.elapsed();

    if original.run.exit != reordered.run.exit || original.run.output != reordered.run.output {
        return Err(err("reordering changed observable behaviour".to_string()));
    }

    Ok(CellOutput {
        metrics: CellMetrics {
            set: cell.set.name,
            layout: cell.layout.name(),
            workload: cell.workload.name,
            seed: cell.seed,
            reorder_time,
            measure_time,
            reorder_cached,
            measures_cached,
        },
        program: ProgramResult {
            name: cell.workload.name.to_string(),
            original_static: original.static_size,
            reordered_static: reordered.static_size,
            original: original.run,
            reordered: reordered.run,
            report,
        },
    })
}

/// Resolve the configured workload names against the registry.
fn selected_workloads(config: &SweepConfig) -> Result<Vec<Workload>, SweepError> {
    if config.workloads.is_empty() {
        return Ok(br_workloads::all());
    }
    config
        .workloads
        .iter()
        .map(|name| {
            br_workloads::by_name(name).ok_or_else(|| SweepError {
                message: format!("unknown workload `{name}`"),
            })
        })
        .collect()
}

/// Run the whole sweep: build the grid, fan it across workers, assemble
/// the per-set suites, and write every result file under
/// [`SweepConfig::out_dir`].
///
/// Result files depend only on the grid configuration — never on thread
/// count, cache state, or timing — so two runs of the same config
/// produce byte-identical files.
///
/// A cell whose worker *panics* does not abort the sweep: the panic is
/// caught, the cell is recorded in [`SweepOutcome::failed`] and listed
/// in `report.txt`, and the rest of the grid keeps running.
///
/// # Errors
///
/// Fails on an unknown workload name, the first cell whose pipeline
/// traps, an I/O error writing the results, or a grid where every
/// seed-0 cell panicked.
pub fn run_sweep(config: &SweepConfig) -> Result<SweepOutcome, SweepError> {
    let start = Instant::now();
    let workloads = selected_workloads(config)?;
    if config.sets.is_empty() || config.layouts.is_empty() || config.seeds == 0 {
        return Err(SweepError {
            message: "empty grid: need at least one heuristic set, one layout mode, and one seed"
                .to_string(),
        });
    }
    let cache = match &config.cache_dir {
        Some(dir) => ArtifactCache::at(dir).map_err(|e| SweepError {
            message: format!("cannot create cache dir {}: {e}", dir.display()),
        })?,
        None => ArtifactCache::disabled(),
    };

    // Grid order is the report order: seed-major, then layout, then set,
    // then the paper's workload order. parallel_map returns results by
    // index, so everything downstream is deterministic.
    let mut grid = Vec::new();
    for seed in 0..config.seeds {
        for &layout in &config.layouts {
            for &set in &config.sets {
                for &workload in &workloads {
                    grid.push(Cell {
                        set,
                        layout,
                        workload,
                        seed,
                    });
                }
            }
        }
    }
    let threads = if config.threads == 0 {
        scheduler::default_threads()
    } else {
        config.threads
    };
    // Panic isolation: a cell whose worker panics becomes a failed-cell
    // record instead of tearing the whole grid down. Pipeline *errors*
    // (trapping runs, behaviour divergence) still abort the sweep — they
    // indicate a broken configuration, not one poisoned input.
    let results =
        scheduler::parallel_map_isolated(&grid, threads, |_, cell| run_cell(config, &cache, cell));

    let mut programs: Vec<Option<ProgramResult>> = Vec::with_capacity(results.len());
    let mut metrics = Vec::with_capacity(results.len());
    let mut failed = Vec::new();
    for (r, cell) in results.into_iter().zip(&grid) {
        match r {
            Ok(Ok(out)) => {
                metrics.push(out.metrics);
                programs.push(Some(out.program));
            }
            Ok(Err(e)) => return Err(e),
            Err(panic_msg) => {
                failed.push(format!(
                    "{}/{}/{}/seed{}: worker panicked: {panic_msg}",
                    cell.set.name,
                    cell.layout.name(),
                    cell.workload.name,
                    cell.seed
                ));
                programs.push(None);
            }
        }
    }

    // Seed 0 under the first configured layout fills the paper tables,
    // and every (seed, first-layout) cell contributes a stability row —
    // so those outputs keep their pre-layout-dimension meaning. Every
    // seed-0 (layout, set) cell additionally contributes an interaction
    // row. `programs` is in grid order, so chunks of `workloads.len()`
    // are (seed, layout, set) suites; failed cells leave gaps that are
    // simply absent from their suite.
    let per_suite = workloads.len();
    let suites_per_seed = config.layouts.len() * config.sets.len();
    let mut suites = Vec::new();
    let mut stability = Vec::new();
    let mut layout_rows = Vec::new();
    for (chunk_idx, chunk) in programs.chunks(per_suite).enumerate() {
        let seed = (chunk_idx / suites_per_seed) as u32;
        let layout = config.layouts[(chunk_idx % suites_per_seed) / config.sets.len()];
        let set = config.sets[chunk_idx % config.sets.len()];
        let survivors: Vec<ProgramResult> = chunk.iter().flatten().cloned().collect();
        if layout == config.layouts[0] {
            for p in &survivors {
                stability.push(StabilityRow {
                    set: set.name,
                    workload: p.name.clone(),
                    seed,
                    insts_pct: p.insts_pct(),
                    branches_pct: p.branches_pct(),
                });
            }
        }
        if seed == 0 {
            for p in &survivors {
                layout_rows.push(layout_row(layout, set, p));
            }
            if layout == config.layouts[0] && !survivors.is_empty() {
                suites.push(SuiteResult {
                    heuristics: set,
                    programs: survivors,
                });
            }
        }
    }
    if suites.is_empty() {
        return Err(SweepError {
            message: format!(
                "every seed-0 cell failed; first failure: {}",
                failed.first().map_or("<none>", |s| s.as_str())
            ),
        });
    }

    let files =
        report::write_all(config, &suites, &stability, &layout_rows, &failed).map_err(|e| {
            SweepError {
                message: format!("writing results: {e}"),
            }
        })?;

    Ok(SweepOutcome {
        suites,
        stability,
        layout_rows,
        files,
        metrics,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cells: grid.len(),
        failed,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(tag: &str, cache: bool) -> SweepConfig {
        let base = std::env::temp_dir().join(format!("br-sweep-{tag}-{}", std::process::id()));
        SweepConfig {
            sets: vec![HeuristicSet::SET_I],
            layouts: vec![LayoutMode::Greedy],
            workloads: vec!["wc".into()],
            seeds: 2,
            threads: 2,
            train_size: 512,
            test_size: 768,
            exhaustive: false,
            out_dir: base.join("out"),
            cache_dir: cache.then(|| base.join("cache")),
        }
    }

    fn cleanup(config: &SweepConfig) {
        let _ = std::fs::remove_dir_all(config.out_dir.parent().unwrap());
    }

    #[test]
    fn layout_dimension_expands_the_grid_and_fills_interaction_rows() {
        let mut config = test_config("layout-dim", false);
        config.layouts = vec![LayoutMode::Greedy, LayoutMode::ExtTsp];
        config.seeds = 1;
        let outcome = run_sweep(&config).expect("sweep");
        assert_eq!(outcome.cells, 2, "1 seed x 2 layouts x 1 set x 1 workload");
        // One interaction row per seed-0 cell, grid order: greedy first.
        assert_eq!(outcome.layout_rows.len(), 2);
        assert_eq!(outcome.layout_rows[0].layout, "greedy");
        assert_eq!(outcome.layout_rows[1].layout, "exttsp");
        // Tables and stability keep their pre-layout meaning: first
        // configured layout only.
        assert_eq!(outcome.suites.len(), 1);
        assert_eq!(outcome.stability.len(), 1);
        let report =
            std::fs::read_to_string(config.out_dir.join("report.txt")).expect("report.txt");
        assert!(
            report.contains("Layout x reordering interaction"),
            "{report}"
        );
        assert!(report.contains("verdict set I:"), "{report}");
        let csv = std::fs::read_to_string(config.out_dir.join("layout.csv")).expect("layout.csv");
        assert!(
            csv.starts_with("layout,set,program,taken_pct,insts_pct,cycles_pct\n"),
            "{csv}"
        );
        assert_eq!(csv.lines().count(), 3, "{csv}");
        cleanup(&config);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let mut config = test_config("unknown", false);
        config.workloads = vec!["no-such-program".into()];
        let err = run_sweep(&config).unwrap_err();
        assert!(err.message.contains("no-such-program"), "{err}");
        cleanup(&config);
    }

    #[test]
    fn sweep_is_deterministic_and_cache_replays() {
        let config = test_config("det", true);
        let first = run_sweep(&config).expect("first run");
        assert_eq!(first.cells, 2);
        assert_eq!(first.cache_hits, 0, "cold cache cannot hit");
        let snapshot: Vec<(PathBuf, Vec<u8>)> = first
            .files
            .iter()
            .map(|f| (f.clone(), std::fs::read(f).expect("result file")))
            .collect();

        // Second run: same bytes, now served from the cache.
        let second = run_sweep(&config).expect("second run");
        assert!(second.cache_hits > 0, "warm cache must hit");
        for (path, bytes) in &snapshot {
            assert_eq!(
                &std::fs::read(path).expect("result file"),
                bytes,
                "{path:?}"
            );
        }

        // Single-threaded, cache off: still the same bytes.
        let mut uncached = config.clone();
        uncached.threads = 1;
        uncached.cache_dir = None;
        run_sweep(&uncached).expect("uncached run");
        for (path, bytes) in &snapshot {
            assert_eq!(
                &std::fs::read(path).expect("result file"),
                bytes,
                "{path:?}"
            );
        }
        cleanup(&config);
    }

    #[test]
    fn tampered_cached_certificates_are_recomputed() {
        let config = test_config("cert-tamper", true);
        let first = run_sweep(&config).expect("first run");
        let snapshot: Vec<(PathBuf, Vec<u8>)> = first
            .files
            .iter()
            .map(|f| (f.clone(), std::fs::read(f).expect("result file")))
            .collect();

        // Corrupt every cached reorder artifact inside a certificate
        // body (same line count, so the artifact still parses — only the
        // independent checker can catch it).
        let cache_dir = config.cache_dir.clone().expect("cache configured");
        let mut tampered = 0u64;
        let artifacts = std::fs::read_dir(&cache_dir)
            .expect("cache dir")
            .flat_map(|shard| std::fs::read_dir(shard.expect("dir entry").path()))
            .flatten();
        for entry in artifacts {
            let path = entry.expect("dir entry").path();
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            if !text.starts_with("reorder v") || !text.contains("\ncert ") {
                continue;
            }
            let forged = text.replacen("brcert v1", "brcert v9", 1);
            assert_ne!(forged, text, "reorder artifact must embed a certificate");
            std::fs::write(&path, forged).expect("tamper write");
            tampered += 1;
        }
        assert!(tampered > 0, "no reorder artifacts found to tamper");

        // The warm run must notice (demoted hits → recomputation) and
        // still produce byte-identical results.
        let second = run_sweep(&config).expect("second run");
        assert!(
            second.cache_misses >= tampered,
            "tampered artifacts must be recomputed, not replayed \
             ({} misses, {tampered} tampered)",
            second.cache_misses
        );
        for (path, bytes) in &snapshot {
            assert_eq!(
                &std::fs::read(path).expect("result file"),
                bytes,
                "{path:?}"
            );
        }
        cleanup(&config);
    }
}
