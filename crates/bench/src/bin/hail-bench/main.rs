//! `hail-bench`: one fixed suite — five named workloads, the end-to-end
//! metrics a user of the system sees, per-layer probes and a replayed
//! trace. See `README.md` next to this file.
//!
//! ```text
//! hail-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, this process
//! hail-bench run   [--seed n] [--seconds s] [--repeat k] [--out file]    all five, untraced
//! hail-bench trace [--seed n] [--seconds s] [--out file]                 all five, traced + probes
//! hail-bench diff <a.json> <b.json>                                      apply BENCHMARK.json's bounds
//! ```

mod data;
mod diff;
mod json;
mod probes;
mod replay;
mod run;
mod spans;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

/// Registered knobs change what the engine does (threads, pruning,
/// sharing, re-indexing); a run with one set measures another system.
fn knobs_set() -> Vec<&'static str> {
    hail_core::knobs::list()
        .iter()
        .filter(|k| k.read_raw().is_some())
        .map(|k| k.name)
        .collect()
}

/// `--flag value` pairs after the subcommand; `--quick` takes no value.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument '{flag}'"));
            }
            let value = if flag == "--quick" {
                "1".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .clone()
            };
            pairs.push((flag[2..].to_string(), value));
        }
        Ok(Flags(pairs))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(data::DEFAULT_SEED),
            Some(s) => match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
            .ok_or_else(|| format!("--seed '{s}' is not a whole number")),
        }
    }

    pub fn seconds(&self, default: f64) -> Result<f64, String> {
        match self.get("seconds") {
            None => Ok(default),
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("--seconds '{s}' is not a positive number")),
        }
    }

    pub fn quick(&self) -> bool {
        self.get("quick").is_some()
    }
}

/// One workload in this process; the result line is the last line of
/// stdout.
fn single(flags: &Flags, spec: &spec::Spec) -> Result<bool, String> {
    let args = run::Args {
        workload: flags
            .get("workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: flags.seed()?,
        seconds: flags.seconds(spec.run_seconds)?,
        trace: match flags.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace '{other}' is neither 0 nor 1")),
        },
        quick: flags.quick(),
        spans_out: flags.get("spans").map(String::from),
    };
    let outcome = if args.trace {
        run::per_layer(&args, spec)?
    } else {
        run::end_to_end(&args)?
    };
    println!(
        "{}: seed {} · {} s · {} ops attempted, {} failed, {} timed samples",
        args.workload, args.seed, args.seconds, outcome.attempted, outcome.failed, outcome.samples
    );
    for reason in &outcome.reasons {
        println!("  failed: {reason}");
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value) in &outcome.metrics {
        println!(
            "  {name:<44} {value:>16.4} {}",
            spec.unit_of(name).unwrap_or("")
        );
    }
    println!("{}", outcome.to_json(spec).render());
    Ok(outcome.correct())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let spec = spec::load();
    match args.first().map(String::as_str) {
        Some("run") => suite::run_all(&Flags::parse(&args[1..])?, &spec, false),
        Some("trace") => suite::run_all(&Flags::parse(&args[1..])?, &spec, true),
        Some("diff") => match &args[1..] {
            [a, b] => diff::files(a, b, &spec),
            _ => Err("usage: hail-bench diff <a.json> <b.json>".into()),
        },
        Some(flag) if flag.starts_with("--") => single(&Flags::parse(args)?, &spec),
        _ => Err(
            "usage: hail-bench run | trace | diff <a> <b> | --workload <name> \
                  --seed <n> --seconds <s> --trace <0|1>"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let set = knobs_set();
    if !set.is_empty() {
        eprintln!("hail-bench: refusing to run with engine knobs set: {set:?}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hail-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, trace: bool) -> run::Args {
        run::Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.05,
            trace,
            quick: true,
            spans_out: None,
        }
    }

    fn names(metrics: &[(String, f64)]) -> Vec<&str> {
        metrics.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn benchmark_json_declares_the_workloads_and_per_layer_metrics_the_code_has() {
        let spec = spec::load();
        assert_eq!(spec.workloads, workloads::NAMES);
        let declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(declared, run::per_layer_names());
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        }
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    }

    /// The `--quick` smoke: every workload end to end, untraced and
    /// traced, every gate passing, and the result lines carrying
    /// exactly the declared metric names — no more, no fewer.
    #[test]
    fn quick_mode_drives_all_five_workloads_and_the_trace() {
        let spec = spec::load();
        let end_to_end: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let per_layer: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        for workload in workloads::NAMES {
            let untraced = run::end_to_end(&quick(workload, false)).expect(workload);
            assert!(untraced.correct(), "{workload}: {:?}", untraced.reasons);
            assert_eq!(names(&untraced.metrics), end_to_end, "{workload}");
            assert!(untraced.metrics.iter().all(|(_, v)| *v > 0.0), "{workload}");

            let traced = run::per_layer(&quick(workload, true), &spec).expect(workload);
            assert!(traced.correct(), "{workload}: {:?}", traced.reasons);
            assert_eq!(names(&traced.metrics), per_layer, "{workload}");

            // The result line has the contract's four keys and parses back.
            let line = untraced.to_json(&spec).render();
            let parsed = json::Json::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = parsed.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                parsed.get("metrics").unwrap().entries().len(),
                end_to_end.len()
            );
        }
    }

    #[test]
    fn an_unknown_workload_is_refused() {
        assert!(run::end_to_end(&quick("nope", false)).is_err());
    }

    #[test]
    fn flags_parse_pairs_and_the_bare_quick_switch() {
        let args: Vec<String> = ["--seed", "0x10", "--quick", "--seconds", "2.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.seed().unwrap(), 16);
        assert_eq!(flags.seconds(15.0).unwrap(), 2.5);
        assert!(flags.quick());
        assert!(Flags::parse(&["--seed".to_string()]).is_err());
        assert!(Flags::parse(&["stray".to_string()]).is_err());
    }
}
