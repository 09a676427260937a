//! `hail-bench run` / `hail-bench trace`: every workload, each in its
//! own child process (so `peak_rss_mb` is one workload's and no state
//! leaks between them), one table at the end.

use crate::json::Json;
use crate::spec::Spec;
use crate::stats::median;
use crate::workloads::R;
use crate::Flags;
use std::process::Command;

/// First line of a command's stdout, or "unknown" — provenance only.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// One workload's runs, one entry per repeat.
#[derive(Default)]
struct Collected {
    attempted: Vec<f64>,
    failed: Vec<f64>,
    /// (metric, unit, values) in the order the child printed them.
    metrics: Vec<(String, String, Vec<f64>)>,
}

impl Collected {
    fn add(&mut self, result: &Json) -> R<()> {
        let num = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result line has no '{key}'"))
        };
        self.attempted.push(num("attempted")?);
        self.failed.push(num("failed")?);
        let metrics = result
            .get("metrics")
            .ok_or("result line has no 'metrics'")?;
        for (name, m) in metrics.entries() {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, values)) => values.push(value),
                None => self
                    .metrics
                    .push((name.clone(), unit.to_string(), vec![value])),
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        Json::obj(vec![
            ("attempted", nums(&self.attempted)),
            ("failed", nums(&self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, values)| {
                            (
                                name.clone(),
                                Json::obj(vec![
                                    ("unit", Json::str(unit.as_str())),
                                    ("values", nums(values)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs one workload in a child of this executable and returns its
/// result line, echoing everything else it printed.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, flags: &Flags) -> R<(Json, bool)> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if flags.quick() {
        cmd.arg("--quick");
    }
    if let Some(dir) = flags.get("spans") {
        cmd.args(["--spans", &format!("{dir}.{workload}")]);
    }
    // `output()` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    match Json::parse(last) {
        Ok(result) if result.get("metrics").is_some() => Ok((result, out.status.success())),
        _ => Err(format!(
            "the {workload} child printed no result (exit {}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// All workloads, `--repeat` times each (repeat `r` uses seed + r), and
/// the table. `Ok(false)` when any run failed a correctness gate.
pub fn run_all(flags: &Flags, spec: &Spec, trace: bool) -> R<bool> {
    let seed = flags.seed()?;
    let seconds = flags.seconds(spec.run_seconds)?;
    let repeat: u64 = match flags.get("repeat") {
        None => 1,
        Some(s) => s
            .parse()
            .ok()
            .filter(|k| *k >= 1)
            .ok_or_else(|| format!("--repeat '{s}' is not a positive whole number"))?,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = Json::obj(vec![
        ("mode", Json::str(if trace { "trace" } else { "run" })),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::Num(repeat as f64)),
        ("quick", Json::Bool(flags.quick())),
        ("nproc", Json::Num(nproc as f64)),
        (
            "git_sha",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        ("client_threads", Json::Num(1.0)),
        ("max_engine_threads", Json::Num(2.0)),
    ]);
    println!("hail-bench {}", meta.render());

    let mut all_correct = true;
    let mut collected: Vec<(String, Collected)> = Vec::new();
    for workload in &spec.workloads {
        let mut runs = Collected::default();
        for r in 0..repeat {
            let (result, ok) = child(workload, seed.wrapping_add(r), seconds, trace, flags)?;
            all_correct &= ok && result.get("correct").and_then(Json::as_bool) == Some(true);
            runs.add(&result)?;
        }
        collected.push((workload.clone(), runs));
    }

    // One row per metric, one column per workload (median over repeats).
    print!("\n{:<44}", "metric [unit]");
    for (workload, _) in &collected {
        print!(" {workload:>14}");
    }
    println!();
    let row = |label: String, cell: &dyn Fn(&Collected) -> f64| {
        print!("{label:<44}");
        for (_, runs) in &collected {
            print!(" {:>14.4}", cell(runs));
        }
        println!();
    };
    if let Some((_, first)) = collected.first() {
        for (i, (name, unit, _)) in first.metrics.iter().enumerate() {
            row(format!("{name} [{unit}]"), &|runs| {
                runs.metrics.get(i).map_or(f64::NAN, |(_, _, v)| median(v))
            });
        }
    }
    row("ops attempted [count]".into(), &|runs| {
        runs.attempted.iter().sum()
    });
    row("failed_share [ratio]".into(), &|runs| {
        runs.failed.iter().sum::<f64>() / runs.attempted.iter().sum::<f64>()
    });

    if let Some(path) = flags.get("out") {
        let doc = Json::obj(vec![
            ("meta", meta),
            (
                "workloads",
                Json::Obj(
                    collected
                        .iter()
                        .map(|(w, runs)| (w.clone(), runs.to_json()))
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}
