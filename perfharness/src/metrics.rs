//! Metric values, the result line, order statistics and peak RSS.

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What one benchmark run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes plus whole-run output checks).
    pub attempted: u64,
    /// Attempted operations that panicked or failed an output check.
    pub failed: u64,
    /// Why each failure happened, for stderr.
    pub failures: Vec<String>,
    /// The metrics, in listing order.
    pub metrics: Vec<Metric>,
    /// Wall time of each untraced pass (s), for stderr.
    pub pass_walls: Vec<f64>,
    /// Time per set-up of each set-up block (s), for stderr.
    pub setup_blocks: Vec<f64>,
}

impl Outcome {
    /// Records one operation; `Err` counts it as failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which no metric should produce,
/// become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        s.strip_suffix(".0").map_or(s.clone(), str::to_string)
    } else {
        "0".to_string()
    }
}

/// Median of `xs` (mean of the middle pair for even counts; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 if empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of means: `xs` dealt round-robin into `groups` groups (fewer
/// when `xs` is shorter), the median of the groups' means. Samples taken
/// in time order make each group span the whole run, so a host that
/// runs slow for part of the run moves every group alike instead of
/// tipping a plain median from one speed mode to the other.
pub fn median_of_means(xs: &[f64], groups: usize) -> f64 {
    let g = groups.min(xs.len()).max(1);
    let means: Vec<f64> = (0..g)
        .map(|i| {
            let members: Vec<f64> = xs.iter().skip(i).step_by(g).copied().collect();
            members.iter().sum::<f64>() / members.len().max(1) as f64
        })
        .collect();
    median(&means)
}

/// Geometric mean of positive values (0 if empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Returns the allocator's free memory to the kernel, then restarts the
/// kernel's peak-RSS tracking. Returns the resident set size right after
/// (bytes), so `peak_rss_bytes() - baseline` is the memory that the work
/// done after this call added on top of what was live, independent of how
/// fragmented earlier work left the heap.
pub fn reset_peak_rss() -> u64 {
    release_free_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_kb("VmRSS:") * 1024
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and only hands free pages of
    // glibc's heaps back to the kernel; it is thread-safe and leaves every
    // live allocation untouched.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set size of this process in bytes since the last
/// [`reset_peak_rss`] (`VmHWM`; 0 where `/proc` does not provide it).
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:") * 1024
}

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_means_deals_round_robin() {
        // Groups {1, 3, 5} and {2, 4, 6}: means 3 and 4.
        assert_eq!(median_of_means(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2), 3.5);
        assert_eq!(median_of_means(&[2.0, 9.0], 5), 5.5);
        assert_eq!(median_of_means(&[], 5), 0.0);
    }

    #[test]
    fn result_line_keeps_digits_and_shape() {
        let mut o = Outcome::default();
        o.record(Ok(()));
        o.push("wall_s", "s", 1.2345678901);
        o.push("model.x", "count", 42.0);
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.2345678901, \"unit\": \"s\"}, \
             \"model.x\": {\"value\": 42, \"unit\": \"count\"}}}"
        );
        o.record(Err("boom".into()));
        assert!(o
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
