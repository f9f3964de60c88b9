//! What one benchmark process records, and how it prints it.
//!
//! The metric names and units are declared once, in `BENCHMARK.json`; the
//! benchmark refuses to print a result whose metric set differs from the
//! declaration, so the two cannot drift apart.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;

use gcr_json::Json;

use crate::stats::{percentile, quartiles};

/// Everything a run measured, keyed by metric name.
#[derive(Default)]
pub struct Run {
    /// Simulated scenarios started.
    pub attempted: u64,
    /// One line per failed scenario or failed cross-check.
    pub failures: Vec<String>,
    /// Samples per metric; the printed value is their median.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-scenario host times in ms (the source of `scenario_ms_p*`).
    pub scenario_ms: Vec<f64>,
    /// Digests and other exact facts for the detail line.
    pub facts: BTreeMap<String, String>,
}

impl Run {
    /// Run one simulated scenario: it counts as attempted, and it fails if
    /// it returns an error or panics.
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(format!("{what}: {e}"));
                None
            }
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".to_string());
                self.fail(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// Record a failed check.
    pub fn fail(&mut self, msg: String) {
        eprintln!("perfbench: FAIL {msg}");
        self.failures.push(msg);
    }

    /// Add one sample of a metric.
    pub fn push(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// Add one sample of every metric in `m`.
    pub fn push_all(&mut self, m: &BTreeMap<String, f64>) {
        for (k, v) in m {
            self.push(k, *v);
        }
    }

    /// Record `peak_rss_mb` once, after the first pass. Repeated passes
    /// keep memory the finished simulations never give back, so a later
    /// reading would grow with the pass count and so with host speed.
    pub fn record_peak_rss(&mut self) {
        if self.samples.contains_key("peak_rss_mb") {
            return;
        }
        match peak_rss_mb() {
            Ok(mb) => self.push("peak_rss_mb", mb),
            Err(e) => self.fail(e),
        }
    }

    /// Record an exact fact (digest, count) for the detail line.
    pub fn fact(&mut self, name: &str, v: impl ToString) {
        self.facts.insert(name.to_string(), v.to_string());
    }

    /// Fail unless `got` equals the pinned value (only checked on the
    /// default seed, where pins exist).
    pub fn check_pin(&mut self, what: &str, got: u64, pinned: u64) {
        self.fact(what, format!("{got:#018x}"));
        if got != pinned {
            self.fail(format!(
                "{what}: digest {got:#018x} differs from pinned {pinned:#018x}"
            ));
        }
    }
}

/// A metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The end-to-end and per-layer metric lists from `BENCHMARK.json`.
pub struct Declaration {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    /// Read the declaration from the checkout root.
    pub fn load(path: &Path) -> Result<Declaration, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            let arr = doc.arr_field(key).map_err(|e| format!("{key}: {e}"))?;
            arr.iter()
                .map(|m| {
                    Ok(Declared {
                        name: m.str_field("name").map_err(|e| e.to_string())?.to_string(),
                        unit: m.str_field("unit").map_err(|e| e.to_string())?.to_string(),
                    })
                })
                .collect()
        };
        Ok(Declaration {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// The peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The checkout's HEAD and whether tracked files differ from it. A
/// checkout without `.git` (an exported tree) reports `unknown`.
fn revision() -> (String, Json) {
    if !Path::new(".git").exists() {
        return ("unknown (no .git in the checkout)".to_string(), Json::Null);
    }
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .arg("--no-optional-locks")
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match (
        git(&["rev-parse", "HEAD"]),
        git(&["status", "--porcelain", "--untracked-files=no"]),
    ) {
        (Some(rev), Some(status)) => (rev, Json::Bool(!status.is_empty())),
        _ => ("unknown (git unavailable)".to_string(), Json::Null),
    }
}

/// Print the detail line and, last, the result line. Errors mean the
/// benchmark itself is inconsistent with its declaration.
pub fn finish(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    decl: &Declaration,
    mut run: Run,
) -> Result<(), String> {
    if !trace && !run.scenario_ms.is_empty() {
        let p50 = percentile(&run.scenario_ms, 50.0);
        let p90 = percentile(&run.scenario_ms, 90.0);
        run.push("scenario_ms_p50", p50);
        run.push("scenario_ms_p90", p90);
    }
    let declared = if trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    let undeclared: Vec<&String> = run
        .samples
        .keys()
        .filter(|k| !declared.iter().any(|d| &d.name == *k))
        .collect();
    if !undeclared.is_empty() {
        return Err(format!("measured but not declared: {undeclared:?}"));
    }
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for d in declared {
        let v = match run.samples.get(&d.name).filter(|v| !v.is_empty()) {
            Some(v) => v.as_slice(),
            // A failed scenario leaves metrics unmeasured; the result still
            // prints (as incorrect) so the failure is reported, not lost.
            None if !run.failures.is_empty() => &[0.0],
            None => return Err(format!("declared but not measured: {}", d.name)),
        };
        let (q1, med, q3) = quartiles(v);
        if !med.is_finite() && run.failures.is_empty() {
            return Err(format!("{} is not a finite number", d.name));
        }
        let med = if med.is_finite() { med } else { 0.0 };
        metrics.push((
            d.name.clone(),
            Json::obj([
                ("value", Json::from(med)),
                ("unit", Json::from(d.unit.as_str())),
            ]),
        ));
        detail.push((
            d.name.clone(),
            Json::obj([
                ("n", Json::from(v.len())),
                ("median", Json::from(med)),
                ("q1", Json::from(q1)),
                ("q3", Json::from(q3)),
                (
                    "values",
                    Json::from(v.iter().map(|x| Json::from(*x)).collect::<Vec<_>>()),
                ),
            ]),
        ));
    }
    let (rev, dirty) = revision();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut facts: Vec<(String, Json)> = run
        .facts
        .iter()
        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
        .collect();
    facts.push((
        "scenario_samples".to_string(),
        Json::from(run.scenario_ms.len()),
    ));
    let info = Json::obj([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::Bool(trace)),
        ("git_rev", Json::from(rev)),
        ("git_dirty", dirty),
        ("available_parallelism", Json::from(parallelism)),
        (
            "failures",
            Json::from(
                run.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("facts", Json::obj(facts)),
        ("samples", Json::obj(detail)),
    ]);
    println!("{}", Json::obj([("detail", info)]).dump());
    let result = Json::obj([
        ("correct", Json::Bool(run.failures.is_empty())),
        ("attempted", Json::from(run.attempted)),
        // A scenario that fails several checks is still one failed operation.
        (
            "failed",
            Json::from((run.failures.len() as u64).min(run.attempted)),
        ),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.dump());
    Ok(())
}
