//! The spex benchmark: four seeded workloads driven through the library's
//! public API, each answer checked against a known answer. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-check --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! with the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`).

mod corpus;
mod edits;
mod fleet;
mod gauge;
mod oracle;
mod rng;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod workloads;

use workloads::{Config, Outcome};

/// A workload's entry point.
type Workload = fn(&Config) -> Outcome;

const WORKLOADS: &[(&str, Workload)] = &[
    ("fleet-analyze", workloads::fleet_analyze),
    ("fleet-check", workloads::fleet_check),
    ("edit-loop", workloads::edit_loop),
    ("catalog-analyze", workloads::catalog_analyze),
];

const USAGE: &str =
    "usage: spex-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<(Workload, Config), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        workload: "",
        seed: 0,
        seconds: 10.0,
        trace: false,
        set_up_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let run = WORKLOADS
                    .iter()
                    .find(|(n, _)| n == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                cfg.workload = run.0;
                workload = Some(run.1);
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            workloads::SET_UP_ONLY_FLAG => cfg.set_up_only = value == "1",
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() {
    // `fleet-check` builds its db in a child process of this program.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, seed] = args.as_slice() {
        if flag == workloads::BUILD_DB_FLAG {
            let seed = seed.parse().expect("a numeric seed");
            workloads::print_fleet_db(seed);
            return;
        }
    }
    let (run, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&cfg);
    if let Some((name, value, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("metric {name} is not a number: {value}");
        std::process::exit(1);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
