//! In-process traced replay of the marshalbench workloads.
//!
//! `marshalbench/traced.py` drives this program over stdin, one command per
//! line, and makes every workload change (overlay edits, workdir wipes)
//! itself, so the replay runs exactly the operations the end-to-end run
//! sends to `marshal`. Each operation does what one `marshal` process does
//! (workload setup, a fresh `Builder`, a run journal, the command), composed
//! from the layers' public functions, with a timer around each call. Timings
//! stay in memory and are written out by `report`.
//!
//! Commands, their words separated by tabs; every reply ends with the line
//! `.end <exit code>`:
//!
//! ```text
//! workdir DIR            operate on DIR (as `--workdir DIR`)
//! search DIR             add a workload search directory (as `-d DIR`)
//! mode TRACE JOURNAL     TRACE 1 times each layer call, 0 does not;
//!                        JOURNAL 1 records a run journal per operation
//! op KIND SPEC           run one operation, printing the CLI's lines
//! iter                   close the current iteration
//! probe SCRATCH SPEC...  time single layer calls on the specs' data
//! report                 print every recorded sample as JSON
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use marshal_config::{expand_jobs, resolve_workload};
use marshal_core::checkpoint::{checkpoint_key, CheckpointLoad, CheckpointStore};
use marshal_core::cosim::{compare_behaviour, observe_backend, CosimOptions};
use marshal_core::launch::{load_artifacts, LoadedJob};
use marshal_core::output::{collect_outputs, load_hook_script, run_post_hook, write_stats};
use marshal_core::simulator::{default_backend, simulator_for, BackendOptions, Simulator};
use marshal_core::test::compare_run;
use marshal_core::{BuildOptions, BuildProducts, Builder, PoolPin, TestOutcome};
use marshal_depgraph::Hasher128;
use marshal_image::{BlobStore, FsImage, Node};
use marshal_script::{HostEnv, Interp, Value};
use marshal_sim_functional::LaunchMode;
use marshal_trace::Recorder;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replay state: where operations run, and every timing recorded so far.
struct Replay {
    workdir: PathBuf,
    search_dirs: Vec<String>,
    traced: bool,
    journal: bool,
    /// Metric -> spec -> one value per operation (milliseconds).
    samples: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Metric totals of the operation in progress.
    op_totals: BTreeMap<&'static str, f64>,
    /// Layer self times (ms) and counters of the iteration in progress.
    current: BTreeMap<&'static str, f64>,
    iterations: Vec<BTreeMap<&'static str, f64>>,
}

impl Replay {
    /// Runs `f`; when tracing, adds its time to the layer `bucket`'s self
    /// time and to `metric` of the current operation. Returns the result
    /// and the milliseconds it took (0 when not tracing).
    fn span<T>(
        &mut self,
        bucket: &'static str,
        metric: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        if !self.traced {
            return (f(), 0.0);
        }
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        *self.current.entry(bucket).or_default() += ms;
        if let Some(m) = metric {
            *self.op_totals.entry(m).or_default() += ms;
        }
        (out, ms)
    }

    fn count(&mut self, counter: &'static str, n: usize) {
        *self.current.entry(counter).or_default() += n as f64;
    }

    /// What `marshal` does before any command: workload setup, the
    /// builder over the workdir's state database, and the run journal.
    fn open(&mut self, command: &str, spec: &str) -> Res<(Builder, Recorder)> {
        let workdir = self.workdir.clone();
        let journal = self.journal;
        let (setup, _) = self.span("setup", Some("workloads.setup"), || {
            marshal_workloads::setup(&workdir)
        });
        let setup = setup.map_err(err)?;
        let mut search = setup.search;
        for d in &self.search_dirs {
            search.add_dir(d);
        }
        let (builder, _) = self.span("build", None, || {
            Builder::new(setup.board, search, &workdir)
        });
        let mut builder = builder.map_err(err)?;
        let (rec, _) = self.span("journal", None, || {
            if journal {
                Recorder::create(&workdir, command, &[("workload", spec)]).unwrap_or_default()
            } else {
                Recorder::disabled()
            }
        });
        builder.set_recorder(rec.clone());
        Ok((builder, rec))
    }

    /// `Builder::build`, preceded by the config resolution and host-init it
    /// runs internally, each timed on its own; the build's self time is its
    /// own time minus those two.
    fn build(
        &mut self,
        builder: &mut Builder,
        spec: &str,
        opts: &BuildOptions,
    ) -> Res<BuildProducts> {
        let (resolved, config_ms) = self.span("config", Some("config.resolve"), || {
            let r = resolve_workload(builder.search(), spec)?;
            let jobs = expand_jobs(builder.search(), &r)?;
            Ok::<_, marshal_config::ConfigError>((r, jobs.len()))
        });
        let (resolved, jobs) = resolved.map_err(err)?;
        *self.op_totals.entry("config.jobs").or_default() += jobs as f64;
        let mut script_ms = 0.0;
        if let Some(line) = &resolved.spec.host_init {
            let dir = builder
                .source_dir(spec)
                .ok_or_else(|| format!("`{spec}` has host-init but no source directory"))?;
            let (ran, ms) = self.span("script", Some("script.host_init"), || host_init(&dir, line));
            ran?;
            script_ms = ms;
        }
        let start = self.traced.then(Instant::now);
        let products = builder.build(spec, opts).map_err(err)?;
        if let Some(start) = start {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            *self.current.entry("build").or_default() += (ms - config_ms - script_ms).max(0.0);
            if products.report.executed.is_empty() {
                *self.op_totals.entry("depgraph.noop_build").or_default() += ms;
            }
        }
        Ok(products)
    }

    /// One operation, as the `marshal` CLI runs it; returns its exit code.
    fn op(&mut self, kind: &str, spec: &str, out: &mut Vec<String>) -> i32 {
        let command = match kind {
            "build" | "build_noop" => "build",
            "launch" | "launch_rtl" => "launch",
            other => other,
        };
        self.op_totals.clear();
        let code = match self.open(command, spec) {
            Ok((mut builder, rec)) => {
                let code = match kind {
                    "build" | "build_noop" => self.op_build(&mut builder, spec, out),
                    "launch" => self.op_launch(&mut builder, spec, None, &rec, out),
                    "launch_rtl" => self.op_launch(&mut builder, spec, Some("rtl"), &rec, out),
                    "cosim" => self.op_cosim(&mut builder, spec, &rec, out),
                    "test" => self.op_test(&mut builder, spec, &rec, out),
                    other => Err(format!("unknown operation `{other}`")),
                };
                self.span("journal", None, || rec.finish());
                code
            }
            Err(e) => Err(e),
        };
        for (metric, total) in std::mem::take(&mut self.op_totals) {
            if self.traced {
                self.samples
                    .entry(metric.to_owned())
                    .or_default()
                    .entry(spec.to_owned())
                    .or_default()
                    .push(total);
            }
        }
        code.unwrap_or_else(|e| {
            out.push(format!("error: {e}"));
            1
        })
    }

    fn op_build(&mut self, builder: &mut Builder, spec: &str, out: &mut Vec<String>) -> Res<i32> {
        let products = self.build(builder, spec, &BuildOptions::default())?;
        let report = &products.report;
        self.count("tasks_run", report.executed.len());
        self.count("tasks_up_to_date", report.skipped.len());
        out.push(format!(
            "built `{}`: {} job(s), {} task(s) run, {} up to date",
            products.workload,
            products.jobs.len(),
            report.executed.len(),
            report.skipped.len()
        ));
        Ok(if report.success() { 0 } else { 1 })
    }

    fn op_launch(
        &mut self,
        builder: &mut Builder,
        spec: &str,
        sim: Option<&str>,
        rec: &Recorder,
        out: &mut Vec<String>,
    ) -> Res<i32> {
        let products = self.build(builder, spec, &BuildOptions::default())?;
        let runs = self.launch(builder, &products, sim, rec, out)?;
        Ok(if runs.iter().all(|(_, _, code)| *code == 0) {
            0
        } else {
            1
        })
    }

    /// `launch_workload`, split at its layer calls: artifact load, boot
    /// checkpoint lookup, simulation, checkpoint save, output collection,
    /// and the post-run hook. Returns (job, serial, exit code) per job.
    fn launch(
        &mut self,
        builder: &Builder,
        products: &BuildProducts,
        sim: Option<&str>,
        rec: &Recorder,
        out: &mut Vec<String>,
    ) -> Res<Vec<(String, String, i64)>> {
        let store = CheckpointStore::new(builder.workdir());
        let _pin = PoolPin::acquire(store.dir()).ok();
        let mut runs = Vec::new();
        for job in &products.jobs {
            let name = sim.unwrap_or_else(|| default_backend(&job.spec));
            let span = rec.sim_span(name, &job.name);
            let (loaded, _) = self.span("load", None, || {
                let loaded = load_artifacts(job).map_err(err)?;
                let backend = simulator_for(name, &job.spec, &BackendOptions::default());
                Ok::<_, String>((loaded, backend.map_err(err)?))
            });
            let (loaded, backend) = loaded?;
            let (lookup, _) = self.span("checkpoint", None, || {
                checkpoint_lookup(&store, backend.as_ref(), &loaded)
            });
            if let Some((_, _, _, snap)) = &lookup {
                self.count("checkpoint_loads", 1);
                self.count("checkpoint_hits", usize::from(snap.is_some()));
            }
            let resume = lookup.as_ref().and_then(|l| l.3.as_ref());
            let (run, _) = self.span("sim", None, || {
                backend.run_resumed(&loaded, LaunchMode::Run, resume)
            });
            let (run, captured) = run.map_err(err)?;
            if let (Some(snap), Some((key, boot_fp, disk_fp, _))) = (&captured, &lookup) {
                let (saved, _) = self.span("checkpoint", None, || {
                    store.save(*key, *boot_fp, *disk_fp, snap)
                });
                saved?;
            }
            let result = run.result;
            span.end_with(&[
                ("outcome", if result.timed_out { "timeout" } else { "ok" }),
                ("exit_code", &result.exit_code.to_string()),
                ("instructions", &result.instructions.to_string()),
                ("uartlog_bytes", &result.serial.len().to_string()),
            ]);
            if result.timed_out {
                return Err(format!("job `{}` timed out", job.name));
            }
            let job_dir = builder.run_dir(&products.workload).join(&job.name);
            let (collected, _) = self.span("collect", Some("launch.collect"), || {
                collect_outputs(
                    &job_dir,
                    &result.serial,
                    result.image.as_ref(),
                    &job.spec.outputs,
                )?;
                match &run.report {
                    Some(r) => write_stats(
                        &job_dir,
                        r.counters.cycles,
                        r.counters.user_cycles,
                        r.counters.kernel_cycles,
                        r.counters.instructions,
                        r.freq_mhz,
                    ),
                    None => write_stats(
                        &job_dir,
                        result.instructions,
                        result.instructions,
                        0,
                        result.instructions,
                        1000,
                    ),
                }
            });
            collected.map_err(err)?;
            if let Some(r) = &run.report {
                out.push(format!(
                    "counters `{}` {} {} {}",
                    job.name, r.counters.instructions, r.counters.cycles, r.counters.mispredicts
                ));
            }
            out.push(format!("job `{}` exited {}", job.name, result.exit_code));
            runs.push((job.name.clone(), result.serial, result.exit_code));
        }
        if let Some(hook) = &products.top_spec.post_run_hook {
            let run_root = builder.run_dir(&products.workload);
            let mut args: Vec<String> = runs.iter().map(|(job, _, _)| job.clone()).collect();
            let (log, _) = self.span("hook", Some("launch.post_hook"), || {
                let (source, mut extra) = load_hook_script(hook, products.source_dir.as_deref())?;
                args.append(&mut extra);
                run_post_hook(&source, &run_root, &args)
            });
            out.extend(log.map_err(err)?);
        }
        Ok(runs)
    }

    /// `cosim_workload` on its default pair (qemu, rtl): both observations
    /// are simulation, the comparison is its own layer.
    fn op_cosim(
        &mut self,
        builder: &mut Builder,
        spec: &str,
        rec: &Recorder,
        out: &mut Vec<String>,
    ) -> Res<i32> {
        let products = self.build(builder, spec, &BuildOptions::default())?;
        let opts = CosimOptions {
            recorder: rec.clone(),
            checkpoints: Some(CheckpointStore::new(builder.workdir())),
            ..CosimOptions::default()
        };
        let (a_name, b_name) = &opts.backends;
        let mut agreed = 0;
        for job in &products.jobs {
            let (observed, _) = self.span("sim", None, || {
                Ok::<_, String>((
                    observe_backend(a_name, job, &opts).map_err(err)?,
                    observe_backend(b_name, job, &opts).map_err(err)?,
                ))
            });
            let (a, b) = observed?;
            let (divergence, _) = self.span("compare", Some("cosim.compare"), || {
                compare_behaviour(&a, &b)
            });
            match divergence {
                None => {
                    agreed += 1;
                    out.push(format!(
                        "job `{}`: {} and {} agree ({} vs {} instructions)",
                        job.name, a.backend, b.backend, a.instructions, b.instructions
                    ));
                }
                Some(d) => out.push(format!(
                    "job `{}`: DIVERGENCE between {} and {}: {d}",
                    job.name, a.backend, b.backend
                )),
            }
        }
        if agreed != products.jobs.len() {
            return Ok(1);
        }
        out.push(format!(
            "cosim `{}`: {agreed} job(s) agree on {a_name} vs {b_name}",
            products.workload
        ));
        Ok(0)
    }

    /// `test_workload_report`: build, launch, compare against references.
    fn op_test(
        &mut self,
        builder: &mut Builder,
        spec: &str,
        rec: &Recorder,
        out: &mut Vec<String>,
    ) -> Res<i32> {
        let products = self.build(builder, spec, &BuildOptions::default())?;
        let runs = self.launch(builder, &products, None, rec, &mut Vec::new())?;
        let serials: Vec<(String, String)> = runs
            .into_iter()
            .map(|(job, serial, _)| (job, serial))
            .collect();
        let (outcomes, _) = self.span("compare", Some("test.compare"), || {
            compare_run(&products, &serials)
        });
        let mut code = 0;
        for outcome in outcomes.map_err(err)? {
            out.push(match outcome {
                TestOutcome::Pass => "PASS".to_owned(),
                TestOutcome::NoReference => "PASS (no reference output)".to_owned(),
                TestOutcome::Fail { job, missing } => {
                    code = 1;
                    format!("FAIL {job}: missing `{missing}`")
                }
                TestOutcome::TimedOut { job, .. } => {
                    code = 1;
                    format!("FAIL {job}: watchdog timeout")
                }
            });
        }
        Ok(code)
    }

    fn end_iteration(&mut self) {
        let mut it = std::mem::take(&mut self.current);
        it.insert("mode.traced", f64::from(u8::from(self.traced)));
        it.insert("mode.journal", f64::from(u8::from(self.journal)));
        self.iterations.push(it);
    }

    fn report(&self) -> String {
        let mut s = String::from("{\"samples\": {");
        for (i, (metric, by_spec)) in self.samples.iter().enumerate() {
            let _ = write!(s, "{}\"{metric}\": {{", if i > 0 { ", " } else { "" });
            for (j, (spec, values)) in by_spec.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}\"{spec}\": {}",
                    if j > 0 { ", " } else { "" },
                    list(values)
                );
            }
            s.push('}');
        }
        s.push_str("}, \"iterations\": [");
        for (i, it) in self.iterations.iter().enumerate() {
            s.push_str(if i > 0 { ", " } else { "" });
            s.push_str(&object(it.iter().map(|(k, v)| (*k, *v))));
        }
        s.push_str("]}");
        s
    }
}

/// The boot-checkpoint lookup `launch::run_checkpointed` performs: key
/// from the backend configuration and the artifacts' fingerprints, then a
/// store load. `None` for jobs that never checkpoint (bare metal).
#[allow(clippy::type_complexity)]
fn checkpoint_lookup(
    store: &CheckpointStore,
    backend: &dyn Simulator,
    loaded: &LoadedJob,
) -> Option<(
    marshal_depgraph::Fingerprint,
    marshal_depgraph::Fingerprint,
    Option<marshal_depgraph::Fingerprint>,
    Option<marshal_sim_functional::BootSnapshot>,
)> {
    let LoadedJob::Linux { boot, disk } = loaded else {
        return None;
    };
    let boot_fp = boot.fingerprint();
    let disk_fp = disk.as_ref().map(FsImage::fingerprint);
    let key = checkpoint_key(backend.config_fingerprint(), boot_fp, disk_fp);
    let snap = match store.load(key) {
        CheckpointLoad::Hit(snap) => Some(snap),
        CheckpointLoad::Miss | CheckpointLoad::Corrupt { .. } => None,
    };
    Some((key, boot_fp, disk_fp, snap))
}

/// Runs a workload's host-init line (`script args...`) as `Builder::build`
/// does.
fn host_init(dir: &Path, line: &str) -> Res<()> {
    let mut parts = line.split_whitespace();
    let script = dir.join(parts.next().unwrap_or(""));
    let argv: Vec<Value> = parts.map(|a| Value::Str(a.to_owned())).collect();
    let source = std::fs::read_to_string(&script)
        .map_err(|e| format!("host-init {}: {e}", script.display()))?;
    Interp::new()
        .run(&source, &mut HostEnv::new(dir), &argv)
        .map(|_| ())
        .map_err(|e| format!("host-init: {e}"))
}

// ------------------------------------------------------------------ probes

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f()?;
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&mut secs))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn read_tree(dir: &Path, files: &mut Vec<Vec<u8>>) -> Res<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            read_tree(&path, files)?;
        } else if path.is_file() {
            files.push(std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    Ok(())
}

/// Times single layer calls on the specs' own data, each repeated and
/// reported as a median, under `scratch` (emptied afterwards).
fn probe(replay: &Replay, scratch: &Path, specs: &[String]) -> Res<BTreeMap<&'static str, f64>> {
    let mut m = BTreeMap::new();
    let open = |workdir: &Path, materialize: &Path| -> Res<Builder> {
        let setup = marshal_workloads::setup(materialize).map_err(err)?;
        let mut search = setup.search;
        for d in &replay.search_dirs {
            search.add_dir(d);
        }
        Builder::new(setup.board, search, workdir).map_err(err)
    };
    let mut builder = open(&replay.workdir, &replay.workdir)?;

    // Overlay bytes: the input of hashing, image assembly and the blob store.
    let mut overlays = Vec::new();
    for spec in specs {
        let resolved = resolve_workload(builder.search(), spec).map_err(err)?;
        if let (Some(rel), Some(dir)) = (&resolved.spec.overlay, builder.source_dir(spec)) {
            overlays.push((spec.clone(), dir.join(rel)));
        }
    }
    let (edit_spec, edit_dir) = overlays.first().cloned().ok_or("no spec has an overlay")?;
    let mut files = Vec::new();
    for (_, dir) in &overlays {
        read_tree(dir, &mut files)?;
    }
    let overlay_bytes: usize = files.iter().map(Vec::len).sum();
    let secs = median_secs(5, || {
        let mut h = Hasher128::new();
        for f in &files {
            h.update(f);
        }
        black_box(h.finish());
        Ok(())
    })?;
    m.insert("depgraph.hash_mb_s", overlay_bytes as f64 / secs / 1e6);

    let (mut overlay_s, mut fp_s, mut ser_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut image = FsImage::new();
    let mut serialized = 0;
    for _ in 0..5 {
        let start = Instant::now();
        image = FsImage::new();
        for (_, dir) in &overlays {
            image.overlay_host_dir(dir, "/").map_err(err)?;
        }
        overlay_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(image.fingerprint());
        fp_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        serialized = black_box(image.to_bytes()).len();
        ser_s.push(start.elapsed().as_secs_f64());
    }
    let image_bytes = image.total_size() as f64;
    m.insert("image.overlay_ms", median(&mut overlay_s) * 1e3);
    m.insert(
        "image.fingerprint_mb_s",
        image_bytes / median(&mut fp_s) / 1e6,
    );
    m.insert(
        "image.serialize_mb_s",
        serialized as f64 / median(&mut ser_s) / 1e6,
    );

    let blobs: Vec<_> = image
        .walk()
        .into_iter()
        .filter_map(|(_, node)| match node {
            Node::File { data, .. } => Some(data.clone()),
            _ => None,
        })
        .collect();
    let blob_bytes: usize = blobs.iter().map(|b| b.len()).sum();
    let (mut put_s, mut get_s) = (Vec::new(), Vec::new());
    for rep in 0..3 {
        let dir = scratch.join(format!("blobs-{rep}"));
        let store = BlobStore::new(&dir);
        let start = Instant::now();
        for b in &blobs {
            store.put(b).map_err(err)?;
        }
        put_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for b in &blobs {
            black_box(store.get(b.fingerprint()).map_err(err)?);
        }
        get_s.push(start.elapsed().as_secs_f64());
        std::fs::remove_dir_all(&dir).map_err(err)?;
    }
    m.insert(
        "image.blob_put_mb_s",
        blob_bytes as f64 / median(&mut put_s) / 1e6,
    );
    m.insert(
        "image.blob_get_mb_s",
        blob_bytes as f64 / median(&mut get_s) / 1e6,
    );

    // Incremental build: one new file in the first overlay, then removed.
    let edit = edit_dir.join("marshalbench-probe.bin");
    let mut incr = Vec::new();
    for rep in 0..2u8 {
        std::fs::write(&edit, vec![rep; 64 << 10]).map_err(err)?;
        let start = Instant::now();
        let products = builder
            .build(&edit_spec, &BuildOptions::default())
            .map_err(err)?;
        incr.push(start.elapsed().as_secs_f64());
        if products.report.executed.is_empty() {
            return Err(format!("editing {} rebuilt nothing", edit.display()));
        }
    }
    std::fs::remove_file(&edit).map_err(err)?;
    builder
        .build(&edit_spec, &BuildOptions::default())
        .map_err(err)?;
    m.insert("build.incr_ms", median(&mut incr) * 1e3);

    // Cold builds of every spec at -j 1 and -j 2, alternating.
    let (mut j1, mut j2) = (Vec::new(), Vec::new());
    let sources = scratch.join("cold-sources");
    for rep in 0..2 {
        for jobs in [1, 2] {
            let workdir = scratch.join(format!("cold-{rep}-{jobs}"));
            let mut cold = open(&workdir, &sources)?;
            let opts = BuildOptions {
                jobs: Some(jobs),
                ..BuildOptions::default()
            };
            let start = Instant::now();
            for spec in specs {
                cold.build(spec, &opts).map_err(err)?;
            }
            let secs = start.elapsed().as_secs_f64();
            if jobs == 1 { &mut j1 } else { &mut j2 }.push(secs);
            std::fs::remove_dir_all(&workdir).map_err(err)?;
        }
    }
    let cold_j2 = median(&mut j2);
    m.insert("build.cold_ms", cold_j2 * 1e3);
    m.insert("depgraph.cold_speedup_j2", median(&mut j1) / cold_j2);

    // Every job's artifacts, loaded once.
    let mut jobs = Vec::new();
    for spec in specs {
        let products = builder.build(spec, &BuildOptions::default()).map_err(err)?;
        for job in products.jobs {
            let loaded = load_artifacts(&job).map_err(err)?;
            jobs.push((job, loaded));
        }
    }
    probe_checkpoints(scratch, &jobs, &mut m)?;
    probe_backends(&jobs, &mut m)?;
    std::fs::remove_dir_all(scratch).map_err(err)?;
    Ok(m)
}

/// Cold boot vs restore, and checkpoint save/load, on the default backend:
/// sums over every Linux job (one pass over the workload), median of 3.
fn probe_checkpoints(
    scratch: &Path,
    jobs: &[(marshal_core::JobArtifacts, LoadedJob)],
    m: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let mut sums: [Vec<f64>; 4] = Default::default();
    let mut bytes = 0;
    for rep in 0..3 {
        let dir = scratch.join(format!("ckpt-{rep}"));
        let store = CheckpointStore::new(&dir);
        let (mut cold, mut restored, mut save, mut load) = (0.0, 0.0, 0.0, 0.0);
        bytes = 0;
        for (job, loaded) in jobs {
            let LoadedJob::Linux { boot, disk } = loaded else {
                continue;
            };
            let backend = simulator_for(
                default_backend(&job.spec),
                &job.spec,
                &BackendOptions::default(),
            )
            .map_err(err)?;
            let start = Instant::now();
            let (cold_run, snap) = backend
                .run_resumed(loaded, LaunchMode::Run, None)
                .map_err(err)?;
            cold += start.elapsed().as_secs_f64();
            let snap = snap.ok_or_else(|| format!("job `{}` left no boot checkpoint", job.name))?;
            let (boot_fp, disk_fp) = (boot.fingerprint(), disk.as_ref().map(FsImage::fingerprint));
            let key = checkpoint_key(backend.config_fingerprint(), boot_fp, disk_fp);
            let start = Instant::now();
            store.save(key, boot_fp, disk_fp, &snap)?;
            save += start.elapsed().as_secs_f64();
            bytes += std::fs::metadata(store.path_for(key)).map_err(err)?.len();
            // A fresh store has an empty in-memory cache: this reads the file.
            let start = Instant::now();
            let loaded_snap = match CheckpointStore::new(&dir).load(key) {
                CheckpointLoad::Hit(s) => s,
                _ => return Err(format!("job `{}`: saved checkpoint did not load", job.name)),
            };
            load += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let (warm_run, _) = backend
                .run_resumed(loaded, LaunchMode::Run, Some(&loaded_snap))
                .map_err(err)?;
            restored += start.elapsed().as_secs_f64();
            if warm_run.result.serial != cold_run.result.serial
                || warm_run.result.instructions != cold_run.result.instructions
            {
                return Err(format!(
                    "job `{}`: restored run differs from cold boot",
                    job.name
                ));
            }
        }
        for (v, s) in sums.iter_mut().zip([cold, restored, save, load]) {
            v.push(s * 1e3);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    let [cold, restored, save, load] = &mut sums;
    m.insert("sim.cold_boot_ms", median(cold));
    m.insert("sim.restored_run_ms", median(restored));
    m.insert("checkpoint.save_ms", median(save));
    m.insert("checkpoint.load_ms", median(load));
    m.insert("checkpoint.bytes", bytes as f64);
    Ok(())
}

/// Restored runs of every job on each backend: guest speed, the RTL
/// timing model's speed and share, and the simulated statistics, which
/// must repeat exactly.
fn probe_backends(
    jobs: &[(marshal_core::JobArtifacts, LoadedJob)],
    m: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let mut secs = BTreeMap::new();
    for name in ["qemu", "spike", "rtl"] {
        let mut stats: Option<(u64, u64, u64)> = None;
        let mut times = Vec::new();
        for _ in 0..2 {
            let (mut t, mut insts, mut cycles, mut mispredicts) = (0.0, 0, 0, 0);
            for (job, loaded) in jobs {
                let backend =
                    simulator_for(name, &job.spec, &BackendOptions::default()).map_err(err)?;
                let (_, snap) = backend
                    .run_resumed(loaded, LaunchMode::Run, None)
                    .map_err(err)?;
                let start = Instant::now();
                let (run, _) = backend
                    .run_resumed(loaded, LaunchMode::Run, snap.as_ref())
                    .map_err(err)?;
                t += start.elapsed().as_secs_f64();
                insts += run.result.instructions;
                if let Some(r) = &run.report {
                    cycles += r.counters.cycles;
                    mispredicts += r.counters.mispredicts;
                }
            }
            if stats.is_some_and(|s| s != (insts, cycles, mispredicts)) {
                return Err(format!(
                    "{name}: simulated statistics differ between identical runs"
                ));
            }
            stats = Some((insts, cycles, mispredicts));
            times.push(t);
        }
        let t = median(&mut times);
        let (insts, cycles, mispredicts) = stats.expect("two repetitions ran");
        m.insert(
            match name {
                "qemu" => "sim.qemu.minst_s",
                "spike" => "sim.spike.minst_s",
                _ => "sim.rtl.minst_s",
            },
            insts as f64 / t / 1e6,
        );
        if name == "qemu" {
            m.insert("sim.instructions", insts as f64);
        }
        if name == "rtl" {
            m.insert("sim.rtl.mcycles_s", cycles as f64 / t / 1e6);
            m.insert("rtl.cycles", cycles as f64);
            m.insert("rtl.mispredicts", mispredicts as f64);
        }
        secs.insert(name, t);
    }
    // Derived: the share of an rtl run the timing model adds over qemu.
    m.insert("sim.rtl.timing_share", 1.0 - secs["qemu"] / secs["rtl"]);
    Ok(())
}

// -------------------------------------------------------------------- JSON

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| number(*v)).collect();
    format!("[{}]", items.join(", "))
}

fn object<'a>(entries: impl Iterator<Item = (&'a str, f64)>) -> String {
    let items: Vec<String> = entries
        .map(|(k, v)| format!("\"{k}\": {}", number(v)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() {
    let mut replay = Replay {
        workdir: PathBuf::from("marshal-workdir"),
        search_dirs: Vec::new(),
        traced: true,
        journal: true,
        samples: BTreeMap::new(),
        op_totals: BTreeMap::new(),
        current: BTreeMap::new(),
        iterations: Vec::new(),
    };
    let stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("stdin is readable");
        let words: Vec<&str> = line.split('\t').collect();
        let mut out = Vec::new();
        let code = match words.as_slice() {
            ["workdir", dir] => {
                replay.workdir = PathBuf::from(dir);
                0
            }
            ["search", dir] => {
                replay.search_dirs.push((*dir).to_owned());
                0
            }
            ["mode", trace, journal] => {
                replay.traced = *trace == "1";
                replay.journal = *journal == "1";
                0
            }
            ["op", kind, spec] => replay.op(kind, spec, &mut out),
            ["iter"] => {
                replay.end_iteration();
                0
            }
            ["probe", scratch, specs @ ..] => {
                let specs: Vec<String> = specs.iter().map(|s| (*s).to_owned()).collect();
                match probe(&replay, Path::new(scratch), &specs) {
                    Ok(m) => {
                        out.push(object(m.into_iter()));
                        0
                    }
                    Err(e) => {
                        out.push(format!("error: {e}"));
                        1
                    }
                }
            }
            ["report"] => {
                out.push(replay.report());
                0
            }
            _ => {
                out.push(format!("error: unknown command `{line}`"));
                2
            }
        };
        let mut w = stdout.lock();
        for l in out {
            writeln!(w, "{l}").expect("stdout is writable");
        }
        writeln!(w, ".end {code}").expect("stdout is writable");
        w.flush().expect("stdout is writable");
    }
}
