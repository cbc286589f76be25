//! `sctbench --workload NAME --seed N --seconds S --trace 0|1`
//! runs one workload and prints a record line (host, every figure) and,
//! last, the result line. `sctbench compare BASE CHANGE` compares two
//! files of such output. Run from the repository root.

use sctbench::report::{self, Host};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["serve-warm", "serve-edit", "vm-run"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("sctbench: {msg}");
    eprintln!(
        "usage: sctbench --workload {} --seed N --seconds S --trace 0|1\n       sctbench compare BASE CHANGE",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, change] = &args[..] else {
            return usage("compare takes two result files");
        };
        return match sctbench::compare::compare(Path::new(base), Path::new(change)) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::from(1),
            Err(e) => usage(&e),
        };
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = flag("--workload").filter(|w| WORKLOADS.contains(w)) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or malformed --seed");
    };
    let Some(seconds) = flag("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("missing or malformed --seconds");
    };
    let trace = match flag("--trace") {
        Some("1") => true,
        Some("0") | None => false,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let host = Host::sample();
    let work = PathBuf::from(format!(".bench_work/{workload}-{}", std::process::id()));
    let outcome = match workload {
        "serve-warm" => sctbench::serve::warm(seed, seconds, trace, &work),
        "serve-edit" => sctbench::serve::edit(seed, seconds, trace, &work),
        _ => Ok(sctbench::vm::run(seed, seconds, trace)),
    };
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(out) => {
            report::print(workload, seed, trace, &host, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sctbench: {workload} failed: {e}");
            ExitCode::from(1)
        }
    }
}
