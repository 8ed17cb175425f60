//! End-to-end and per-layer benchmark of KShot fleet campaigns.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload catalogue-4cve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the benchmark runs fresh processes, each setting up
//! and running one `kshot_fleet::run_campaign` of the workload's fleet
//! size, for `--seconds` seconds, and reports the medians of
//! `machines_per_s` and `setup_s` and the highest `peak_rss_mb`. With
//! `--trace 1` it pairs every campaign with a traced drive of the same
//! fleet in another process, which times each layer's public calls from
//! this package, and reports the per-layer metrics. Every campaign and drive
//! passes the correctness gate in [`gate`], or the result reads
//! `"correct": false`. The last line of standard output is the JSON
//! result; the lines before it are the same metrics as a table.
//!
//! Workloads, their fleet sizes and the simulated patch times the gate
//! holds them to are in `workloads.json`, with the map from each
//! per-layer metric to the end-to-end metric and workload it should
//! move.

mod campaign;
mod fixture;
mod gate;
mod run;
mod sample;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

const USAGE: &str =
    "usage: kshot-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn main_inner() -> Result<(), String> {
    let mut argv = std::env::args().skip(1);
    let first = argv.next().ok_or(USAGE)?;
    if first == "child" {
        let kind = argv.next().ok_or("child needs a kind")?;
        let w = spec::workload(&argv.next().ok_or("child needs a workload")?)?;
        let seed = parse_u64("child seed", argv.next())?;
        return run::run_child(&kind, &w, seed);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut flag = Some(first);
    while let Some(f) = flag {
        match f.as_str() {
            "--workload" => workload = Some(argv.next().ok_or("--workload needs a value")?),
            "--seed" => seed = Some(parse_u64(&f, argv.next())?),
            "--seconds" => seconds = Some(parse_u64(&f, argv.next())?),
            "--trace" => {
                trace = Some(match parse_u64(&f, argv.next())? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        flag = argv.next();
    }
    let args = run::Args {
        workload: spec::workload(&workload.ok_or(USAGE)?)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.filter(|&s| s > 0).ok_or(USAGE)?,
        trace: trace.unwrap_or(false),
    };
    run::run(&args)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kshot-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
