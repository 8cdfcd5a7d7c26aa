//! dmbench — the Direct Mesh benchmark (see `BENCHMARK.json`, README.md).
//!
//! ```text
//! dmbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! dmbench list
//! dmbench run [--quick] [--seed <n>] [--seconds <s>] [--repeat <r>] [--out <file>]
//! dmbench compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload, as `BENCHMARK.json`'s
//! command invokes it: its last line of standard output is the result
//! object. `run` does that for every workload in a process each and
//! gathers the results into one file; `compare` judges two such files
//! against the bounds in `BENCHMARK.json`.

mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Cfg, Outcome, FULL, QUICK};

/// Flag values by name; bare flags map to "1".
struct Flags(BTreeMap<String, String>);

impl Flags {
    /// `--name value` pairs; names in `bare` take no value.
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if bare.contains(&name) => {
                    flags.insert(name.to_string(), "1".to_string());
                }
                Some(name) => {
                    let v = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), v.clone());
                }
                None => return Err(format!("unexpected argument {a:?}")),
            }
        }
        Ok(Flags(flags))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Build outputs, scratch stores and traces all live under the cargo
/// target directory, inside the checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("dmbench/target"))
}

fn metric_object(list: &[Metric], out: &Outcome) -> Json {
    Json::Obj(
        list.iter()
            .map(|m| {
                let value = out.metrics.get(m.name).copied().unwrap_or(0.0);
                let entry = BTreeMap::from([
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), Json::Obj(entry))
            })
            .collect(),
    )
}

/// One run of one workload; prints the info line and the result line.
fn run_workload(flags: &Flags) -> Result<(), String> {
    let workload: String = flags.get("workload", String::new())?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let trace = flags.get("trace", 0u8)? != 0;
    let target = target_dir();
    let cfg = Cfg {
        seed: flags.get("seed", 1u64)?,
        seconds: flags.get("seconds", 10.0f64)?,
        trace,
        sizing: if flags.has("quick") { QUICK } else { FULL },
        scratch: target
            .join("dmbench-scratch")
            .join(format!("{workload}-{}", std::process::id())),
        trace_out: target
            .join("dmbench")
            .join(format!("trace-{workload}.json")),
        workload,
    };
    let out = workloads::run(&cfg).map_err(|e| format!("{}: {e}", cfg.workload))?;

    // Context first: everything the run computed, whichever list it is on.
    let mut info = BTreeMap::from([
        ("workload".to_string(), Json::Str(cfg.workload.clone())),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        (
            "answers_digest".to_string(),
            Json::Str(format!("{:016x}", out.digest)),
        ),
    ]);
    for (k, v) in out.notes.iter().chain(out.metrics.iter()) {
        info.insert(k.to_string(), Json::Num(*v));
    }
    println!("{}", Json::Obj(info).dump());

    let list: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let result = BTreeMap::from([
        ("correct".to_string(), Json::Bool(out.failed == 0)),
        (
            "attempted".to_string(),
            Json::Num(out.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        ("metrics".to_string(), metric_object(list, &out)),
    ]);
    println!("{}", Json::Obj(result).dump());
    Ok(())
}

fn list() {
    println!("{:<40} {:<6} workloads", "metric", "unit");
    for (title, ms) in [
        ("end to end", &END_TO_END[..]),
        ("per layer", &PER_LAYER[..]),
    ] {
        println!("-- {title}");
        for m in ms {
            let on = m.workloads();
            let on = if on.len() == WORKLOADS.len() {
                "all".to_string()
            } else if on.is_empty() {
                "none (expected 0)".to_string()
            } else {
                on.join(", ")
            };
            println!("{:<40} {:<6} {on}", m.name, m.unit);
        }
    }
}

/// Run every workload in a process of its own — `--repeat` untraced
/// runs and one traced run each — and write the results to one file.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let quick = flags.has("quick");
    let seed: u64 = flags.get("seed", 1)?;
    let seconds: f64 = flags.get("seconds", if quick { 1.0 } else { 10.0 })?;
    let repeat: usize = flags.get("repeat", 1)?;
    let out_path: PathBuf = flags.get("out", target_dir().join("dmbench").join("results.json"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut workloads = BTreeMap::new();
    for w in WORKLOADS {
        let mut runs = Vec::new();
        let mut traced = Json::Null;
        for i in 0..=repeat {
            let trace = i == repeat;
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if quick {
                cmd.arg("--quick");
            }
            let output = cmd.output().map_err(|e| e.to_string())?;
            if !output.status.success() {
                return Err(format!(
                    "{w} exited with {}: {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let result =
                Json::parse(lines.next().unwrap_or("")).map_err(|e| format!("{w}: {e}"))?;
            let info = Json::parse(lines.next().unwrap_or("")).map_err(|e| format!("{w}: {e}"))?;
            let correct = result.get("correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            let values: BTreeMap<String, Json> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .map(|m| {
                    m.iter()
                        .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Json::Null)))
                        .collect()
                })
                .unwrap_or_default();
            eprintln!(
                "{w} trace={} correct={correct} digest={}",
                u8::from(trace),
                info.get("answers_digest")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
            );
            for (k, v) in &values {
                eprintln!("  {k:<40} {}", v.dump());
            }
            if trace {
                traced = Json::Obj(values);
            } else {
                runs.push(Json::Obj(BTreeMap::from([
                    ("correct".to_string(), Json::Bool(correct)),
                    (
                        "answers_digest".to_string(),
                        info.get("answers_digest").cloned().unwrap_or(Json::Null),
                    ),
                    ("metrics".to_string(), Json::Obj(values)),
                ])));
            }
        }
        workloads.insert(
            w.to_string(),
            Json::Obj(BTreeMap::from([
                ("runs".to_string(), Json::Arr(runs)),
                ("per_layer".to_string(), traced),
            ])),
        );
    }
    let doc = Json::Obj(BTreeMap::from([
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("quick".to_string(), Json::Bool(quick)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]));
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out_path, doc.dump() + "\n").map_err(|e| e.to_string())?;
    eprintln!("wrote {}", out_path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verb = args.first().map(String::as_str).unwrap_or("");
    let result = match verb {
        "list" => {
            list();
            Ok(true)
        }
        "run" => Flags::parse(&args[1..], &["quick"]).and_then(|f| run_all(&f)),
        "compare" => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: dmbench compare <a.json> <b.json>".to_string()),
        },
        _ => Flags::parse(&args, &["quick"]).and_then(|f| run_workload(&f).map(|()| true)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dmbench: {e}");
            ExitCode::from(2)
        }
    }
}
