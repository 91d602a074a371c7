//! End-to-end solve benchmark for `mshc`: SE and GA at the paper's
//! 100-task / 20-machine preset, plus a small-suite tournament.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload se-100x20 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every workload is a closed loop: one caller in one process issues each
//! solve after the previous one returns, with the pool sized to the
//! available parallelism. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the traced variant (see `layers`) and prints the
//! per-layer metrics. The last stdout line is one JSON object; the exit
//! code is non-zero when any output check failed.

mod layers;
mod reference;
mod util;
mod workload;

use workload::Preset;

/// Result of one benchmark run: checks counted, metrics and notes.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one checked output; `failure` says what was wrong with it.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(msg) = failure {
            self.failed += 1;
            eprintln!("check failed: {msg}");
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    preset: &'static Preset,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut preset, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                preset = Some(
                    Preset::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds: must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        preset: preset.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = workload::PRESETS.iter().map(|p| p.name).collect();
            eprintln!(
                "error: {e}\nusage: mshc-perfbench --workload <{}> --seed <u64> --seconds <s> \
                 --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        layers::run(args.preset, args.seed, args.seconds)
    } else {
        workload::run(args.preset, args.seed, args.seconds)
    };
    println!("{} on {} threads", args.preset.name, workload::threads());
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.json());
    std::process::exit(if report.failed == 0 { 0 } else { 1 });
}
