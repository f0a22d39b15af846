//! Command-line entry point: parses the flags strictly, runs one
//! workload, and prints the result object as the last line of stdout.

use std::path::PathBuf;
use std::process::{Command as Process, ExitCode};

use tsr_wire::Json;
use tsrbench::args::{self, Command, USAGE};
use tsrbench::run;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of `program args` on stdout, or `"unknown"`.
fn probe(program: &str, args: &[&str]) -> String {
    Process::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Scratch and output directories, next to the executable inside the
/// build directory, so nothing the benchmark writes can land on a
/// checked-in file.
fn dirs() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok((
        dir.join("tsrbench-work")
            .join(std::process::id().to_string()),
        dir.join("tsrbench-out"),
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match args::parse(&argv, nproc()) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(opts)) => opts,
        Err(e) => {
            eprintln!("tsrbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (work, trace_dir) = match dirs() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tsrbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = run::run(&opts, &work, &trace_dir);
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("tsrbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = out.failed == 0;
    let metrics: Vec<(String, Json)> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            (
                name.clone(),
                Json::Obj(
                    [
                        ("value".to_string(), Json::Float(*value)),
                        ("unit".to_string(), Json::str(*unit)),
                    ]
                    .into(),
                ),
            )
        })
        .collect();
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let record = Json::obj([
        ("workload", Json::str(opts.workload.name())),
        ("seed", Json::Int(i128::from(opts.seed))),
        ("seconds", Json::Float(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("inputs_digest", Json::str(&out.inputs.digest)),
        ("nproc", Json::Int(nproc() as i128)),
        ("rustc", Json::str(probe("rustc", &["--version"]))),
        (
            "git_rev",
            Json::str(probe("git", &["--git-dir=.git", "rev-parse", "HEAD"])),
        ),
        ("key_bits", Json::Int(opts.key_bits as i128)),
        ("scale", Json::Float(opts.scale)),
        ("packages", Json::Int(out.inputs.packages as i128)),
        ("served_packages", Json::Int(out.inputs.served as i128)),
        ("package_bytes", Json::Int(out.inputs.package_bytes as i128)),
        ("connections", Json::Int(tsrbench::args::CONNS as i128)),
        (
            "waves",
            Json::Int((opts.rounds * tsrbench::plan::WAVE_SIZES.len()) as i128),
        ),
        ("fail_ratio", Json::Float(fail_ratio)),
        ("read_rps", Json::Float(out.read_rates.0)),
        ("read_mib_s", Json::Float(out.read_rates.1)),
        (
            "read_p50_p90_p99_p999_us",
            Json::arr(out.read_quantiles_us.map(Json::Float)),
        ),
        ("fleet_lateness_p99_us", Json::Float(out.lateness.0)),
        ("wave_lateness_p99_ms", Json::Float(out.lateness.1)),
        (
            "errors",
            Json::arr(out.errors.iter().map(|e| Json::str(e.clone()))),
        ),
        ("trace_file", out.trace_file.map_or(Json::Null, Json::str)),
    ]);
    println!("{}", record.encode());
    for (name, (value, unit)) in &out.metrics {
        eprintln!("{name:<34} {value:>14.3} {unit}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(i128::from(out.attempted))),
        ("failed", Json::Int(i128::from(out.failed))),
        ("metrics", Json::Obj(metrics.into_iter().collect())),
    ]);
    println!("{}", result.encode());
    ExitCode::SUCCESS
}
