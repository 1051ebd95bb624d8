//! §III-E: `install` runs the exact same artifacts as `launch`. Installed
//! nodes load through the same checksum-verified loader and run on the
//! same backend code, so every node matches a `launch --sim rtl` of its
//! job, and a damaged artifact is refused instead of simulated.

mod common;

use marshal_core::install::{install_workload, run_installed};
use marshal_core::launch::{simulate_job, LaunchOptions};
use marshal_core::{BuildOptions, JobKind, MarshalError};
use marshal_sim_rtl::HardwareConfig;

#[test]
fn installed_nodes_match_launch_on_rtl() {
    let root = common::tmpdir("install-matches-launch");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("intspeed.json", &BuildOptions::default())
        .unwrap();
    let (manifest, _) = install_workload(&builder, &products).unwrap();

    let nodes = run_installed(&manifest, HardwareConfig::rocket()).unwrap();
    let names: Vec<&str> = nodes.iter().map(|n| n.name.as_str()).collect();
    let expected: Vec<&str> = manifest.jobs.iter().map(|j| j.name.as_str()).collect();
    assert_eq!(names, expected, "nodes come back in manifest order");
    assert_eq!(nodes.len(), 10);

    let opts = LaunchOptions {
        sim: Some("rtl".to_owned()),
        hw: Some(HardwareConfig::rocket()),
        ..LaunchOptions::default()
    };
    for (node, job) in nodes.iter().zip(&products.jobs) {
        let launched = simulate_job(job, &opts).unwrap();
        let report = launched.report.expect("rtl reports timing");
        assert_eq!(node.result.serial, launched.result.serial, "{}", job.name);
        assert_eq!(node.result.exit_code, launched.result.exit_code);
        assert_eq!(node.result.instructions, launched.result.instructions);
        assert_eq!(node.report.counters, report.counters, "{}", job.name);
    }
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn installed_run_refuses_a_damaged_disk_image() {
    let root = common::tmpdir("install-corrupt");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let (manifest, _) = install_workload(&builder, &products).unwrap();
    let JobKind::Linux {
        disk_path: Some(disk),
        ..
    } = &products.jobs[0].kind
    else {
        panic!("hello builds a Linux job with a disk");
    };

    let mut bytes = std::fs::read(disk).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(disk, bytes).unwrap();

    match run_installed(&manifest, HardwareConfig::rocket()) {
        Err(MarshalError::Corrupt(msg)) => {
            assert!(msg.contains(&disk.display().to_string()), "{msg}");
            assert!(msg.contains("build --force"), "{msg}");
        }
        other => panic!("expected a checksum error, got {other:?}"),
    }
    std::fs::remove_dir_all(root).unwrap();
}
