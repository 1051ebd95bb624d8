//! The `marshal` command-line tool (Table I of the paper).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match marshal_core::cli::parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // `help` and `trace` need no workload setup (and must not create or
    // touch the workdir).
    if let Some((code, log)) = marshal_core::cli::run_without_setup(&parsed) {
        print_log(&log);
        return ExitCode::from(code as u8);
    }
    let setup = match marshal_workloads::setup(std::path::Path::new(&parsed.workdir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: workload setup failed: {e}");
            return ExitCode::from(1);
        }
    };
    let (code, log) = marshal_core::cli::run_command(&parsed, setup.board, setup.search);
    print_log(&log);
    ExitCode::from(code as u8)
}

fn print_log(log: &[String]) {
    for line in log {
        println!("{line}");
    }
}
