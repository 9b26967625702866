//! CI bench-delta gate: re-measures the benchmark reports and compares the
//! *dimensionless* metrics against the committed `BENCH_*.json` baselines.
//!
//! Absolute throughputs (events/sec, wall seconds) track the host machine
//! and are useless as a cross-machine regression gate; ratios — slowdown
//! vs. native, shadow space factor, wire-vs-text size, decode-vs-text
//! speedup — cancel machine speed and stay comparable between the committed
//! baseline (one machine) and a CI runner (another). The gate fails only
//! when a ratio moves more than the tolerance in its *bad* direction:
//! improvements never fail, so re-baselining is only needed after a
//! deliberate performance change.

use crate::driver::Json;

/// Default gate tolerance: a metric may move 20% in its bad direction.
pub const DEFAULT_GATE_TOLERANCE: f64 = 0.20;

/// One gated comparison.
struct Check {
    name: String,
    baseline: f64,
    current: f64,
    /// `true` when an increase is a regression (slowdowns, space factors);
    /// `false` when a decrease is (speedups).
    worse_when_higher: bool,
    /// Multiplier on the gate tolerance: 1.0 for deterministic or
    /// best-of-stabilized ratios, wider for timing-over-timing ratios
    /// whose run-to-run variance on sub-millisecond regions exceeds the
    /// default tolerance (see `PERFORMANCE.md`).
    tolerance_scale: f64,
}

impl Check {
    /// Relative movement in the bad direction (negative = improved).
    fn regression(&self) -> f64 {
        if self.baseline == 0.0 {
            return 0.0;
        }
        let delta = (self.current - self.baseline) / self.baseline;
        if self.worse_when_higher {
            delta
        } else {
            -delta
        }
    }
}

fn lookup<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        Json::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// Extracts `"key": <number>` from raw JSON text, searching forward from
/// the first occurrence of `anchor`. A full parser is overkill for the
/// self-generated baseline files; corrupt baselines surface as a gate
/// error, not a wrong verdict.
fn extract_after(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let start = text.find(anchor)?;
    let tail = &text[start..];
    let kpos = tail.find(&format!("\"{key}\":"))?;
    let after = tail[kpos..].split_once(':')?.1;
    let num: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    num.parse().ok()
}

/// The per-tool ratios gated from `BENCH_parallel_driver.json`.
const GATED_TOOLS: [&str; 6] =
    ["nulgrind", "memcheck", "callgrind", "helgrind", "aprof-rms", "aprof-trms"];

fn driver_checks(baseline: &str, current: &Json) -> Result<Vec<Check>, String> {
    let tools = lookup(current, "tool_overheads")
        .and_then(|v| match v {
            Json::Arr(items) => Some(items),
            _ => None,
        })
        .ok_or("current report has no tool_overheads")?;
    let mut checks = Vec::new();
    for name in GATED_TOOLS {
        let entry = tools
            .iter()
            .find(|t| {
                matches!(lookup(t, "tool"), Some(Json::Str(s)) if s == name)
            })
            .ok_or_else(|| format!("current report lacks tool {name}"))?;
        let anchor = format!("\"tool\": \"{name}\"");
        // Space factors are deterministic byte counts and get the tight
        // tolerance; slowdowns divide two wall-clock timings and swing
        // with runner load even best-of-3, so they get 2.5× — still far
        // below the >100% movements a real hot-path regression produces.
        for (key, worse_when_higher, tolerance_scale) in
            [("slowdown_vs_native", true, 2.5), ("space_factor", true, 1.0)]
        {
            let base = extract_after(baseline, &anchor, key)
                .ok_or_else(|| format!("baseline lacks {key} for {name}"))?;
            let cur = lookup(entry, key)
                .and_then(as_f64)
                .ok_or_else(|| format!("current report lacks {key} for {name}"))?;
            checks.push(Check {
                name: format!("{name}.{key}"),
                baseline: base,
                current: cur,
                worse_when_higher,
                tolerance_scale,
            });
        }
    }
    Ok(checks)
}

fn wire_checks(baseline: &str, current: &Json) -> Result<Vec<Check>, String> {
    let mut checks = Vec::new();
    // The size ratio is a deterministic byte count; the decode speedup
    // divides two sub-millisecond timings and measurably swings ±25%
    // run-to-run even best-of-7, so it gets 2.5× the tolerance — a
    // backstop against large decode regressions, not a precision gate.
    for (key, worse_when_higher, tolerance_scale) in [
        ("wire_vs_text_size_ratio", true, 1.0),
        ("decode_vs_text_speedup", false, 2.5),
    ] {
        let base = extract_after(baseline, "{", key)
            .ok_or_else(|| format!("baseline lacks {key}"))?;
        let cur = lookup(current, key)
            .and_then(as_f64)
            .ok_or_else(|| format!("current report lacks {key}"))?;
        checks.push(Check {
            name: format!("wire.{key}"),
            baseline: base,
            current: cur,
            worse_when_higher,
            tolerance_scale,
        });
    }
    Ok(checks)
}

/// Runs the bench-delta gate: re-measures both reports (the parallel-driver
/// one with `jobs` workers) and compares dimensionless metrics against the
/// baseline file contents.
///
/// Returns `Ok(report)` when every metric is within `tolerance` of its
/// baseline (in the bad direction), `Err(report)` when any regressed.
pub fn bench_gate(
    driver_baseline: &str,
    wire_baseline: &str,
    jobs: usize,
    tolerance: f64,
) -> Result<String, String> {
    let driver_now = crate::parallel_driver_report(jobs);
    let wire_now = crate::wire_report();
    let mut checks = driver_checks(driver_baseline, &driver_now).map_err(|e| format!("{e}\n"))?;
    checks.extend(wire_checks(wire_baseline, &wire_now).map_err(|e| format!("{e}\n"))?);

    let mut out = format!(
        "bench gate: {} dimensionless metrics, tolerance {:.0}% in the bad direction \
         (timing ratios 2.5x that; see PERFORMANCE.md)\n",
        checks.len(),
        tolerance * 100.0
    );
    let mut failed = false;
    for c in &checks {
        let reg = c.regression();
        let verdict = if reg > tolerance * c.tolerance_scale {
            failed = true;
            "REGRESSED"
        } else if reg < 0.0 {
            "improved"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "  {:<34} baseline {:>10.4}  current {:>10.4}  {:>+7.1}%  {}\n",
            c.name,
            c.baseline,
            c.current,
            reg * 100.0,
            verdict
        ));
    }
    if failed {
        Err(out)
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_finds_anchored_numbers() {
        let text = r#"{
          "tool_overheads": [
            {"tool": "nulgrind", "slowdown_vs_native": 1.10, "space_factor": 1.0},
            {"tool": "aprof-rms", "slowdown_vs_native": 2.50, "space_factor": 16.0}
          ]
        }"#;
        assert_eq!(
            extract_after(text, "\"tool\": \"aprof-rms\"", "slowdown_vs_native"),
            Some(2.50)
        );
        assert_eq!(extract_after(text, "\"tool\": \"nulgrind\"", "space_factor"), Some(1.0));
        assert_eq!(extract_after(text, "\"tool\": \"absent\"", "space_factor"), None);
    }

    #[test]
    fn regression_direction_is_respected() {
        let slow = Check {
            name: "x".into(),
            baseline: 2.0,
            current: 2.6,
            worse_when_higher: true,
            tolerance_scale: 1.0,
        };
        assert!(slow.regression() > 0.29 && slow.regression() < 0.31);
        let speedup = Check {
            name: "y".into(),
            baseline: 2.0,
            current: 2.6,
            worse_when_higher: false,
            tolerance_scale: 1.0,
        };
        assert!(speedup.regression() < 0.0, "a higher speedup is an improvement");
    }
}
