//! The SPEC2017 branch-predictor experiment (§IV-B, Fig. 6, Listing 3).
//!
//! Builds the intspeed workload once, installs it, and runs every job as a
//! parallel cluster node on two BOOM configurations — the older Gshare
//! predictor and the newer TAGE-based predictor — then regenerates the
//! per-benchmark score series of Fig. 6 and the CSV of Listing 3.
//!
//! ```text
//! cargo run --release --example spec2017
//! ```

use std::collections::BTreeMap;

use marshal_core::{install, output, BuildOptions, Builder};
use marshal_sim_rtl::HardwareConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("firemarshal-spec2017-{}", std::process::id()));
    std::fs::create_dir_all(&root)?;
    let setup = marshal_workloads::setup(&root)?;
    let mut builder = Builder::new(setup.board, setup.search, root.join("work"))?;

    // Build once: the artifacts are shared by both hardware configurations
    // (the experiment varies ONLY the hardware).
    println!("building intspeed (10 jobs)...");
    let products = builder.build("intspeed.json", &BuildOptions::default())?;
    let (manifest, _) = install::install_workload(&builder, &products)?;

    let mut scores: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for hw in [HardwareConfig::boom_gshare(), HardwareConfig::boom_tage()] {
        let config_name = hw.name.clone();
        println!(
            "\nrunning {config_name} ({} parallel nodes)...",
            manifest.jobs.len()
        );
        let nodes = install::run_installed(&manifest, hw)?;

        // Collect per-node outputs the way FireSim hands them back, then
        // run the workload's own post-run hook to produce Listing 3's CSV.
        let run_root = builder.run_dir(&products.workload).join(&config_name);
        let mut job_dirs = Vec::new();
        for node in &nodes {
            let job_dir = run_root.join(&node.name);
            output::collect_outputs(
                &job_dir,
                &node.result.serial,
                node.result.image.as_ref(),
                &products.top_spec.outputs,
            )?;
            output::write_stats(
                &job_dir,
                node.report.counters.cycles,
                node.report.counters.user_cycles,
                node.report.counters.kernel_cycles,
                node.report.counters.instructions,
                node.report.freq_mhz,
            )?;
            job_dirs.push(node.name.clone());
        }
        let (hook, _) = output::load_hook_script(
            products.top_spec.post_run_hook.as_deref().unwrap(),
            products.source_dir.as_deref(),
        )?;
        output::run_post_hook(&hook, &run_root, &job_dirs)?;

        let csv = std::fs::read_to_string(run_root.join("results.csv"))?;
        println!("results.csv ({config_name}):\n{csv}");
        for line in csv.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            scores
                .entry(f[0].to_owned())
                .or_default()
                .insert(config_name.clone(), f[4].parse()?);
        }

        // Branch predictor summary per node.
        println!("per-node predictor behaviour ({config_name}):");
        for node in &nodes {
            println!(
                "  {:>24}  cycles {:>9}  branch-acc {:>6.2}%  ipc {:.3}",
                node.name,
                node.report.counters.cycles,
                node.report.counters.branch_accuracy() * 100.0,
                node.report.counters.ipc()
            );
        }
    }

    // --- Fig. 6: score per benchmark, both configurations ----------------
    println!("\n=== Fig. 6: SPEC2017 intspeed scores (higher is better) ===");
    println!(
        "{:>18} {:>12} {:>12} {:>8}",
        "benchmark", "boom-gshare", "boom-tage", "tage/gs"
    );
    let mut gshare_prod = 1.0f64;
    let mut tage_prod = 1.0f64;
    let mut n = 0u32;
    for (bench, per_config) in &scores {
        let g = per_config["boom-gshare"];
        let t = per_config["boom-tage"];
        gshare_prod *= g;
        tage_prod *= t;
        n += 1;
        println!("{bench:>18} {g:>12.2} {t:>12.2} {:>8.3}", t / g);
    }
    let geo = |p: f64| p.powf(1.0 / n as f64);
    println!(
        "{:>18} {:>12.2} {:>12.2} {:>8.3}  (geometric mean)",
        "overall",
        geo(gshare_prod),
        geo(tage_prod),
        geo(tage_prod) / geo(gshare_prod)
    );
    let _ = std::fs::remove_dir_all(root);
    Ok(())
}
