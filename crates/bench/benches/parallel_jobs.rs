//! E8 (§IV-B): "Each job is instantiated as a node in the simulated
//! cluster and run in parallel. This optimization reduced the runtime for
//! our experiment from about two weeks to roughly two days."
//!
//! Measures the built 10-job `intspeed.json` suite launched cycle-exactly
//! (`launch --sim rtl --no-checkpoint`) at `-j 1` vs `-j 10`, and asserts
//! that both widths produce identical per-job serial logs.

use marshal_bench::{builder_in, criterion_group, criterion_main, scratch, Criterion};
use marshal_core::launch::{launch_workload, LaunchOptions};
use marshal_core::BuildOptions;
use marshal_depgraph::{ExecOptions, Graph, StateDb, Task};

fn bench_parallel_jobs(c: &mut Criterion) {
    let root = scratch("parallel-jobs");
    let mut builder = builder_in(&root);
    let products = builder
        .build("intspeed.json", &BuildOptions::default())
        .expect("build intspeed");
    let launch = |threads: usize| {
        let opts = LaunchOptions {
            sim: Some("rtl".to_owned()),
            no_checkpoint: true,
            threads,
            ..LaunchOptions::default()
        };
        launch_workload(&builder, &products, &opts).expect("launch intspeed")
    };

    // Print the §IV-B data: wall-clock speedup at 10 nodes.
    let t0 = std::time::Instant::now();
    let serial = launch(1);
    let serial_time = t0.elapsed();
    let t0 = std::time::Instant::now();
    let parallel = launch(10);
    let parallel_time = t0.elapsed();
    assert_eq!(serial.jobs.len(), 10);
    assert_eq!(serial.jobs.len(), parallel.jobs.len());
    for (s, p) in serial.jobs.iter().zip(&parallel.jobs) {
        assert_eq!(s.job, p.job);
        assert_eq!(s.serial, p.serial, "{}: -j 1 and -j 10 logs differ", s.job);
    }
    let cores = ExecOptions::host_threads();
    println!("== §IV-B parallel jobs (10-job intspeed, cycle-exact) ==");
    println!("  host cores: {cores}");
    println!("  -j 1:  {serial_time:?}");
    println!("  -j 10: {parallel_time:?}");
    println!(
        "  speedup:  {:.2}x — bounded by min(jobs, cores) = {}x; the paper's \
         FPGA cluster ran all 10 nodes concurrently (~2 weeks -> ~2 days)",
        serial_time.as_secs_f64() / parallel_time.as_secs_f64(),
        cores.min(10)
    );

    let mut group = c.benchmark_group("parallel_jobs");
    group.sample_size(10);
    for (label, threads) in [("serial_10_jobs", 1), ("parallel_10_jobs", 10)] {
        group.bench_function(label, |b| b.iter(|| launch(threads).jobs.len()));
    }
    group.finish();
    let _ = std::fs::remove_dir_all(root);
}

/// A wide build graph with CPU-bound tasks: one root fanning out to 16
/// independent "image" tasks, each joined by a "finalize" task — the shape
/// `marshal build -j N` schedules for a multi-job workload.
fn build_graph(work: u64) -> Graph {
    let spin = move |seed: u64| {
        // Deterministic busy work standing in for image assembly.
        let mut acc = seed;
        for i in 0..work {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
    };
    let mut g = Graph::new();
    g.add(Task::new("root", move || {
        spin(1);
        Ok(())
    }))
    .unwrap();
    for i in 0..16 {
        g.add(
            Task::new(format!("img{i:02}"), move || {
                spin(i + 2);
                Ok(())
            })
            .dep("root"),
        )
        .unwrap();
    }
    let mut finalize = Task::new("finalize", move || {
        spin(99);
        Ok(())
    });
    for i in 0..16 {
        finalize = finalize.dep(format!("img{i:02}"));
    }
    g.add(finalize).unwrap();
    g
}

fn bench_parallel_build(c: &mut Criterion) {
    const WORK: u64 = 2_000_000;

    // Print the `-j N` sweep: wall-clock speedup of the task scheduler at
    // the thread counts the CLI exposes, with identical reports throughout.
    println!("== `-j N` parallel build (18-task graph, 16-wide fan-out) ==");
    let g = build_graph(WORK);
    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let mut db = StateDb::in_memory();
        let t0 = std::time::Instant::now();
        let report = g
            .execute_with(
                &mut db,
                &ExecOptions {
                    keep_going: false,
                    threads,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(report.executed.len(), 18, "-j {threads} runs every task");
        let serial = *baseline.get_or_insert(elapsed);
        println!(
            "  -j {threads}: {elapsed:?} ({:.2}x vs -j 1)",
            serial.as_secs_f64() / elapsed.as_secs_f64()
        );
    }

    let mut group = c.benchmark_group("parallel_build");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let g = build_graph(WORK);
        group.bench_function(format!("build_j{threads}"), |b| {
            b.iter(|| {
                let mut db = StateDb::in_memory();
                let report = g
                    .execute_with(
                        &mut db,
                        &ExecOptions {
                            keep_going: false,
                            threads,
                            ..ExecOptions::default()
                        },
                    )
                    .unwrap();
                report.executed.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_jobs, bench_parallel_build);
criterion_main!(benches);
