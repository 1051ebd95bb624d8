//! Quickstart: the typical FireMarshal flow (Fig. 2 of the paper) on the
//! bundled `hello` workload.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use marshal_core::{launch, BuildOptions, Builder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("firemarshal-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&root)?;

    // 1. Set up the board and bundled workloads (normally shipped with the
    //    SoC development framework).
    let setup = marshal_workloads::setup(&root)?;
    let mut builder = Builder::new(setup.board, setup.search, root.join("work"))?;

    // 2. `marshal build hello.json` — spec to artifacts.
    println!("== build ==");
    let products = builder.build("hello.json", &BuildOptions::default())?;
    println!(
        "built `{}`: {} task(s) executed, {} skipped",
        products.workload,
        products.report.executed.len(),
        products.report.skipped.len()
    );
    for job in &products.jobs {
        println!("  job {} -> {:?}", job.name, job.kind);
    }

    // 3. `marshal launch hello.json` — run in functional simulation.
    println!("\n== launch (functional simulation) ==");
    let run = launch::launch_workload(&builder, &products, &Default::default())?;
    for line in run.jobs[0].serial.lines() {
        println!("  | {line}");
    }
    println!(
        "exit code {}, outputs in {}",
        run.jobs[0].exit_code,
        run.jobs[0].job_dir.display()
    );
    println!(
        "collected /output/hello.txt: {:?}",
        std::fs::read_to_string(run.jobs[0].job_dir.join("output/hello.txt"))?
    );

    // 4. `marshal test hello.json` — compare against the reference.
    println!("\n== test ==");
    let outcomes = marshal_core::test::compare_run(
        &products,
        &[(run.jobs[0].job.clone(), run.jobs[0].serial.clone())],
    )?;
    println!("reference comparison: {outcomes:?}");

    // 5. `marshal install hello.json` + cycle-exact run of the SAME
    //    artifacts.
    println!("\n== install + cycle-exact run ==");
    let (manifest, path) = marshal_core::install::install_workload(&builder, &products)?;
    println!("manifest at {}", path.display());
    let nodes = marshal_core::install::run_installed(
        &manifest,
        marshal_sim_rtl::HardwareConfig::boom_tage(),
    )?;
    let report = &nodes[0].report;
    println!(
        "cycle-exact: {} cycles, {} instructions, IPC {:.3}, branch accuracy {:.2}%",
        report.counters.cycles,
        report.counters.instructions,
        report.counters.ipc(),
        report.counters.branch_accuracy() * 100.0
    );
    let _ = std::fs::remove_dir_all(root);
    Ok(())
}
