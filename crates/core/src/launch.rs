//! The `launch` command (§III-C): run a built workload on a simulator
//! backend, collect its outputs, and run the post-run hook.
//!
//! Backend selection goes through the [`crate::simulator`] registry:
//! `--sim <backend>` picks any registered backend, and the default is the
//! workload's own choice (custom Spike when the `spike` option is set,
//! QEMU otherwise).
//!
//! Every simulation runs as a task on the depgraph executor
//! ([`run_sim_tasks`]): `launch`, `test` and `cosim` build one task per
//! job and spread them over a [`LaunchOptions::threads`]-wide pool, and
//! [`crate::install::run_installed`] does the same per installed node.
//! The results come back in job order, so output is the same at every
//! width.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use marshal_depgraph::{ExecOptions, Graph, StateDb, Task};
use marshal_firmware::BootBinary;
use marshal_image::FsImage;
use marshal_sim_functional::LaunchMode;
use marshal_sim_rtl::HardwareConfig;
use marshal_trace::Recorder;

use crate::build::{BuildProducts, Builder, JobArtifacts, JobKind};
use crate::checkpoint::{checkpoint_key, CheckpointLoad, CheckpointStore};
use crate::error::MarshalError;
use crate::imagestore::PoolPin;
use crate::output::{collect_outputs, load_hook_script, run_post_hook};
use crate::simulator::{default_backend, simulator_for, BackendOptions, SimRun, Simulator};
use crate::warnings::{Severity, Warning};

/// Options for the `launch` command.
#[derive(Debug, Clone)]
pub struct LaunchOptions {
    /// Guest watchdog budget (`--timeout-insts`): maximum guest
    /// instructions before a hung payload is terminated. `None` keeps the
    /// simulator default.
    pub timeout_insts: Option<u64>,
    /// Simulator backend (`--sim`): a name the [`crate::simulator`]
    /// registry resolves. `None` uses the workload's default backend.
    pub sim: Option<String>,
    /// Hardware configuration for the cycle-exact backend (`--hw`).
    pub hw: Option<HardwareConfig>,
    /// Disable boot checkpointing (`--no-checkpoint`): always boot cold
    /// and never write a snapshot. The escape hatch when a checkpoint is
    /// suspected of masking a boot-path change.
    pub no_checkpoint: bool,
    /// Jobs simulated at once (`-j N`). The default, `1`, runs them one
    /// after another; `0` is clamped to `1`.
    pub threads: usize,
}

impl Default for LaunchOptions {
    fn default() -> LaunchOptions {
        LaunchOptions {
            timeout_insts: None,
            sim: None,
            hw: None,
            no_checkpoint: false,
            threads: 1,
        }
    }
}

impl LaunchOptions {
    /// The backend-construction options this launch implies.
    pub fn backend_options(&self) -> BackendOptions {
        BackendOptions {
            timeout_insts: self.timeout_insts,
            hw: self.hw.clone(),
        }
    }
}

/// The result of launching one job.
#[derive(Debug, Clone)]
pub struct LaunchOutput {
    /// The job's qualified name.
    pub job: String,
    /// The full serial log.
    pub serial: String,
    /// The payload's exit code.
    pub exit_code: i64,
    /// Guest instructions executed.
    pub instructions: u64,
    /// Whether the guest watchdog terminated a hung payload. The serial
    /// log and whatever outputs the guest produced are still collected.
    pub timed_out: bool,
    /// Directory holding `uartlog` and collected outputs.
    pub job_dir: PathBuf,
    /// Non-fatal diagnostics (e.g. declared outputs a timed-out guest never
    /// wrote), in order. The CLI prints each once; the library itself never
    /// writes to stderr.
    pub warnings: Vec<Warning>,
}

/// Reads a job's built artifacts back from disk, verifying each against
/// its checksum sidecar (see [`crate::integrity`]).
///
/// # Errors
///
/// [`MarshalError::Other`] when artifacts are missing or malformed (run
/// `build` first); [`MarshalError::Corrupt`] when an artifact no longer
/// matches its recorded checksum (run `build --force` to rebuild).
pub fn load_artifacts(job: &JobArtifacts) -> Result<LoadedJob, MarshalError> {
    load_kind(&job.kind)
}

/// [`load_artifacts`] given only a job's [`JobKind`]: `install` loads
/// manifest nodes through it, so both flows verify the same checksum
/// sidecars.
pub(crate) fn load_kind(kind: &JobKind) -> Result<LoadedJob, MarshalError> {
    match kind {
        JobKind::Linux {
            boot_path,
            disk_path,
        } => {
            let boot_bytes = crate::integrity::read_verified(boot_path)?;
            let boot = BootBinary::from_bytes(&boot_bytes)
                .map_err(|e| MarshalError::Other(format!("boot binary: {e}")))?;
            let disk = match disk_path {
                Some(p) => {
                    let bytes = crate::integrity::read_verified(p)?;
                    Some(
                        FsImage::from_bytes(&bytes)
                            .map_err(|e| MarshalError::Other(format!("disk image: {e}")))?,
                    )
                }
                None => None,
            };
            Ok(LoadedJob::Linux { boot, disk })
        }
        JobKind::Bare { bin_path } => {
            let bin = crate::integrity::read_verified(bin_path)?;
            Ok(LoadedJob::Bare { bin })
        }
    }
}

/// In-memory artifacts of a built job.
///
/// The `Linux` variant dominates in size and in frequency — boxing it would
/// add an allocation per job for no saving in the common case.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LoadedJob {
    /// Linux: boot binary + optional disk.
    Linux {
        /// The boot binary.
        boot: BootBinary,
        /// The disk image (None for diskless builds).
        disk: Option<FsImage>,
    },
    /// Bare-metal binary.
    Bare {
        /// MEXE bytes.
        bin: Vec<u8>,
    },
}

/// Runs loaded artifacts through a backend with boot checkpointing: a
/// verified checkpoint for the (backend config, boot, disk) key skips the
/// boot phase; an eligible cold boot writes a fresh checkpoint for later
/// launches. With `store` = `None` (or for bare jobs) this is exactly
/// [`Simulator::run`].
///
/// Checkpoint damage is never fatal — a corrupt file is quarantined, the
/// boot runs cold, and the returned warnings say so. At worst a checkpoint
/// costs one cold boot; it can never change an answer.
///
/// # Errors
///
/// Simulation errors ([`MarshalError::Sim`]), exactly as an uncheckpointed
/// run would report them.
pub fn run_checkpointed(
    backend: &dyn Simulator,
    loaded: &LoadedJob,
    mode: LaunchMode,
    store: Option<&CheckpointStore>,
    context: &str,
    rec: &Recorder,
) -> Result<(SimRun, Vec<Warning>), MarshalError> {
    let (Some(store), LoadedJob::Linux { boot, disk }, LaunchMode::Run) = (store, loaded, mode)
    else {
        return Ok((backend.run(loaded, mode)?, Vec::new()));
    };
    let boot_fp = boot.fingerprint();
    let disk_fp = disk.as_ref().map(FsImage::fingerprint);
    let key = checkpoint_key(backend.config_fingerprint(), boot_fp, disk_fp);
    let key_text = key.to_string();
    let mut warnings = Vec::new();
    let span = rec.span(
        "checkpoint-restore",
        &[("key", &key_text), ("job", context)],
    );
    let (resume, outcome) = match store.load(key) {
        CheckpointLoad::Hit(snap) => (Some(snap), "hit"),
        CheckpointLoad::Miss => (None, "miss"),
        CheckpointLoad::Corrupt {
            quarantined,
            detail,
        } => {
            warnings.push(
                Warning::with_code(
                    context.to_owned(),
                    format!(
                        "boot checkpoint failed verification ({detail}); quarantined to {} \
                         and booting cold",
                        quarantined.display()
                    ),
                    "checkpoint-corrupt",
                )
                .severity(Severity::Degraded),
            );
            (None, "corrupt")
        }
    };
    span.end_with(&[("outcome", outcome)]);
    // The span just closed names the job and key; the instant does not
    // repeat them.
    rec.instant(&format!("checkpoint-{outcome}"), &[]);
    let (run, captured) = backend.run_resumed(loaded, mode, resume.as_ref())?;
    if let Some(snap) = &captured {
        match store.save(key, boot_fp, disk_fp, snap) {
            Ok(()) => rec.instant("checkpoint-saved", &[("key", &key_text), ("job", context)]),
            Err(e) => warnings.push(Warning::with_code(
                context.to_owned(),
                format!("boot checkpoint not saved: {e}"),
                "checkpoint-write-failed",
            )),
        }
    }
    Ok((run, warnings))
}

/// Runs one job on the backend `opts.sim` names (the workload's default
/// backend when unset), with `opts.timeout_insts` overriding the guest
/// watchdog's instruction budget.
///
/// # Errors
///
/// Unknown backend names, simulation errors, and artifact errors.
pub fn simulate_job(job: &JobArtifacts, opts: &LaunchOptions) -> Result<SimRun, MarshalError> {
    simulate_job_with(job, opts, None, &Recorder::disabled()).map(|(run, _)| run)
}

/// [`simulate_job`] with an optional checkpoint store and a recorder for
/// checkpoint hit/miss instants.
///
/// # Errors
///
/// See [`simulate_job`].
pub fn simulate_job_with(
    job: &JobArtifacts,
    opts: &LaunchOptions,
    store: Option<&CheckpointStore>,
    rec: &Recorder,
) -> Result<(SimRun, Vec<Warning>), MarshalError> {
    let loaded = load_artifacts(job)?;
    let backend = simulator_for(backend_name(job, opts), &job.spec, &opts.backend_options())?;
    run_checkpointed(
        backend.as_ref(),
        &loaded,
        LaunchMode::Run,
        store,
        &job.name,
        rec,
    )
}

/// Runs one simulation task per `(id, work)` pair on the depgraph
/// executor: a [`Graph`] of independent tasks over a `threads`-wide
/// `LocalRunner` pool, with in-memory state (nothing is persisted, so no
/// task is ever up to date) and no task spans — the work records its own
/// `sim` span.
///
/// Every task runs even when another fails, so what lands on disk does
/// not depend on `threads`. Results come back in input order.
///
/// # Errors
///
/// The error of the first pair (in input order) whose work failed.
pub(crate) fn run_sim_tasks<T, F>(
    tasks: impl IntoIterator<Item = (String, F)>,
    threads: usize,
) -> Result<Vec<T>, MarshalError>
where
    T: Send + 'static,
    F: Fn() -> Result<T, MarshalError> + Send + Sync + 'static,
{
    type Slot<T> = Arc<Mutex<Option<Result<T, MarshalError>>>>;
    let mut graph = Graph::new();
    let mut slots: Vec<Slot<T>> = Vec::new();
    for (id, work) in tasks {
        let slot: Slot<T> = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        graph.add(Task::new(id, move || {
            let result = work();
            let status = result.as_ref().map(|_| ()).map_err(ToString::to_string);
            *out.lock().expect("result slot poisoned") = Some(result);
            status
        }))?;
        slots.push(slot);
    }
    let exec = ExecOptions {
        keep_going: true,
        threads: threads.clamp(1, slots.len().max(1)),
        // The work journals its own spans: no `task` spans, no counters.
        recorder: Recorder::disabled(),
        progress: None,
    };
    graph.execute_with(&mut StateDb::in_memory(), &exec)?;
    slots
        .into_iter()
        .map(|slot| {
            let result = slot.lock().expect("result slot poisoned").take();
            // A panicking task re-raises in `execute_with`, so every slot
            // is filled by now.
            result.expect("every simulation task ran")
        })
        .collect()
}

/// What a launch task needs from the [`Builder`], owned so the task can
/// run on an executor thread.
struct LaunchContext {
    rec: Recorder,
    workdir: PathBuf,
    run_root: PathBuf,
    opts: LaunchOptions,
}

/// The backend a job launches on: `--sim` when given, else the workload's
/// default.
fn backend_name<'a>(job: &'a JobArtifacts, opts: &'a LaunchOptions) -> &'a str {
    opts.sim
        .as_deref()
        .unwrap_or_else(|| default_backend(&job.spec))
}

/// Launches `jobs` as one `sim:<job>@<backend>` task each (see
/// [`run_sim_tasks`]), returning their outputs in job order.
fn launch_jobs(
    builder: &Builder,
    products: &BuildProducts,
    jobs: &[JobArtifacts],
    opts: &LaunchOptions,
) -> Result<Vec<LaunchOutput>, MarshalError> {
    let ctx = Arc::new(LaunchContext {
        rec: builder.recorder().clone(),
        workdir: builder.workdir().to_owned(),
        run_root: builder.run_dir(&products.workload),
        opts: opts.clone(),
    });
    let tasks = jobs.iter().map(|job| {
        let id = format!("sim:{}@{}", job.name, backend_name(job, opts));
        let (ctx, job) = (Arc::clone(&ctx), job.clone());
        (id, move || launch_one(&ctx, &job))
    });
    run_sim_tasks(tasks, opts.threads)
}

/// Launches one job of a built workload and collects its outputs.
///
/// # Errors
///
/// Simulation, collection, and I/O errors; bad `index`.
pub fn launch_job(
    builder: &Builder,
    products: &BuildProducts,
    index: usize,
    opts: &LaunchOptions,
) -> Result<LaunchOutput, MarshalError> {
    let job = products.jobs.get(index).ok_or_else(|| {
        MarshalError::Other(format!(
            "workload `{}` has no job index {index}",
            products.workload
        ))
    })?;
    let mut outputs = launch_jobs(builder, products, std::slice::from_ref(job), opts)?;
    Ok(outputs.pop().expect("one task per job"))
}

/// One launch task: simulate `job`, then collect its outputs and stats
/// into `ctx.run_root/<job>/`.
fn launch_one(ctx: &LaunchContext, job: &JobArtifacts) -> Result<LaunchOutput, MarshalError> {
    let (rec, opts) = (&ctx.rec, &ctx.opts);
    let backend_name = backend_name(job, opts);
    let store = (!opts.no_checkpoint).then(|| CheckpointStore::new(&ctx.workdir));
    // Pin the checkpoint directory while this launch may read or write it,
    // so a concurrent `marshal clean` defers pruning (blob-pool semantics).
    let _pin = store.as_ref().and_then(|s| PoolPin::acquire(s.dir()).ok());
    let span = rec.sim_span(backend_name, &job.name);
    let run = simulate_job_with(job, opts, store.as_ref(), rec);
    match &run {
        Ok((r, _)) => span.end_with(&[
            ("outcome", if r.result.timed_out { "timeout" } else { "ok" }),
            ("exit_code", &r.result.exit_code.to_string()),
            ("instructions", &r.result.instructions.to_string()),
            ("uartlog_bytes", &r.result.serial.len().to_string()),
        ]),
        Err(_) => span.end_with(&[("outcome", "error")]),
    }
    let (run, mut warnings) = run?;
    let result = run.result;
    if result.timed_out {
        rec.watchdog_fired(&job.name, result.instructions);
    }
    let job_dir = ctx.run_root.join(&job.name);
    if result.timed_out {
        // The watchdog killed the guest mid-run: salvage what it produced
        // (uartlog always, declared outputs when they exist) instead of
        // failing collection on outputs it never got to write.
        let missed = crate::output::salvage_outputs(
            &job_dir,
            &result.serial,
            result.image.as_ref(),
            &job.spec.outputs,
        )?;
        for path in &missed {
            warnings.push(Warning::with_code(
                job.name.clone(),
                format!("output `{path}` missing after watchdog timeout"),
                "watchdog-missing-output",
            ));
        }
    } else {
        collect_outputs(
            &job_dir,
            &result.serial,
            result.image.as_ref(),
            &job.spec.outputs,
        )?;
    }
    match &run.report {
        // The cycle-exact backend reports real timing.
        Some(report) => crate::output::write_stats(
            &job_dir,
            report.counters.cycles,
            report.counters.user_cycles,
            report.counters.kernel_cycles,
            report.counters.instructions,
            report.freq_mhz,
        )?,
        // Functional simulation has no timing model: report instruction
        // counts as pseudo-cycles (like wall-clock on QEMU, only roughly
        // meaningful).
        None => crate::output::write_stats(
            &job_dir,
            result.instructions,
            result.instructions,
            0,
            result.instructions,
            1000,
        )?,
    }
    Ok(LaunchOutput {
        job: job.name.clone(),
        serial: result.serial,
        exit_code: result.exit_code,
        instructions: result.instructions,
        timed_out: result.timed_out,
        job_dir,
        warnings,
    })
}

/// The result of launching a whole workload (every job) plus the post-run
/// hook.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Per-job outputs, in job order.
    pub jobs: Vec<LaunchOutput>,
    /// The run's root directory.
    pub run_root: PathBuf,
    /// Lines printed by the post-run hook, if one ran.
    pub hook_log: Vec<String>,
}

/// Launches every job of a built workload, up to
/// [`LaunchOptions::threads`] at once, then runs the `post-run-hook`.
///
/// # Errors
///
/// The lowest-index failing job's error, or hook errors.
pub fn launch_workload(
    builder: &Builder,
    products: &BuildProducts,
    opts: &LaunchOptions,
) -> Result<WorkloadRun, MarshalError> {
    let run_root = builder.run_dir(&products.workload);
    let jobs = launch_jobs(builder, products, &products.jobs, opts)?;
    let hook_log = match &products.top_spec.post_run_hook {
        Some(hook) => {
            let (source, mut extra_args) = load_hook_script(hook, products.source_dir.as_deref())?;
            let mut args: Vec<String> = jobs.iter().map(|j| j.job.clone()).collect();
            args.append(&mut extra_args);
            run_post_hook(&source, &run_root, &args)?
        }
        None => Vec::new(),
    };
    Ok(WorkloadRun {
        jobs,
        run_root,
        hook_log,
    })
}
