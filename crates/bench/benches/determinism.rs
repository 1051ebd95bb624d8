//! E10 (§IV-C): exact-cycle repeatability of cycle-exact simulation, and
//! the cost of a full boot + payload on each simulator tier (the paper's
//! functional-first methodology relies on the speed gap).

use marshal_bench::{criterion_group, criterion_main, Criterion};
use marshal_core::{BuildOptions, JobKind};
use marshal_firmware::BootBinary;
use marshal_image::FsImage;
use marshal_sim_functional::{Functional, LaunchMode, SimKind};
use marshal_sim_rtl::{FireSim, HardwareConfig};

fn bench_determinism(c: &mut Criterion) {
    let root = marshal_bench::scratch("det");
    let mut builder = marshal_bench::builder_in(&root);
    let products = builder
        .build("coremark.json", &BuildOptions::default())
        .unwrap();
    let JobKind::Linux {
        boot_path,
        disk_path,
    } = &products.jobs[0].kind
    else {
        panic!()
    };
    let boot = BootBinary::from_bytes(&std::fs::read(boot_path).unwrap()).unwrap();
    let disk = FsImage::from_bytes(&std::fs::read(disk_path.as_ref().unwrap()).unwrap()).unwrap();

    // Print the §IV-C data: repeated cycle counts.
    let sim = FireSim::new(HardwareConfig::boom_tage());
    let counts: Vec<u64> = (0..3)
        .map(|_| {
            sim.launch(&boot, Some(&disk), LaunchMode::Run, None)
                .unwrap()
                .1
                .counters
                .cycles
        })
        .collect();
    println!("== §IV-C cycle-exact repeatability (coremark on boom-tage) ==");
    println!("  three runs: {counts:?}");
    assert!(counts.windows(2).all(|w| w[0] == w[1]));
    println!("  identical to the cycle: yes");

    let mut group = c.benchmark_group("simulation_tiers");
    group.sample_size(10);
    group.bench_function("qemu_functional", |b| {
        b.iter(|| {
            Functional::new(SimKind::Qemu)
                .launch(&boot, Some(&disk), LaunchMode::Run, None)
                .unwrap()
                .0
                .instructions
        })
    });
    group.bench_function("spike_functional", |b| {
        b.iter(|| {
            Functional::new(SimKind::Spike)
                .launch(&boot, Some(&disk), LaunchMode::Run, None)
                .unwrap()
                .0
                .instructions
        })
    });
    group.bench_function("firesim_cycle_exact", |b| {
        b.iter(|| {
            sim.launch(&boot, Some(&disk), LaunchMode::Run, None)
                .unwrap()
                .1
                .counters
                .cycles
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(root);
}

criterion_group!(benches, bench_determinism);
criterion_main!(benches);
