//! Reproduces **Figure 8** — initial compilation time vs. prefix groups.
//!
//! Sweeps the §6.1 policy workload's prefix-group knob for
//! `N ∈ {100, 200, 300}` participants and measures the wall-clock time of
//! a full pipeline run (policy compilation + VNH computation +
//! composition). The paper reports minutes at 1,000 groups (Python);
//! the **shape** to reproduce is super-linear (≈quadratic) growth in the
//! group count, driven by pairwise policy interaction, with VNH
//! computation a visible fraction of the total.
//!
//! Run: `cargo run --release -p sdx-bench --bin repro_fig8 [--json out.json]`

use sdx_bench::{fmt_duration, print_table, row, Workbench};
use sdx_telemetry::MetricsSnapshot;

fn main() {
    let participants = [100usize, 200, 300];
    // policy_prefixes sweeps the group count (≈ blocks of 16 prefixes).
    let sweep = [3_200usize, 6_400, 9_600, 12_800, 16_000, 19_200, 22_400];

    let mut metrics = MetricsSnapshot::default();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &n in &participants {
        for &px in &sweep {
            let wb = Workbench::new(n, 25_000, px, 8 + n as u64);
            // Warm-up run excluded (a long-lived controller has its
            // policies compiled already); then measure an *initial*
            // compile: the phase-A units the warm-up cached are dropped
            // again.
            let mut compiler = wb.compiler();
            let mut vnh = sdx_core::vnh::VnhAllocator::default();
            let _ = compiler.compile_all(&wb.rs, &mut vnh).expect("warm-up");
            compiler.clear_unit_cache();
            let mut vnh = sdx_core::vnh::VnhAllocator::default();
            let report = compiler.compile_all(&wb.rs, &mut vnh).expect("compile");
            metrics.absorb(report.metrics_snapshot());
            rows.push(vec![
                n.to_string(),
                report.stats.group_count.to_string(),
                report.stats.forwarding_rules.to_string(),
                fmt_duration(report.stats.total),
                fmt_duration(report.stats.vnh_time),
                fmt_duration(report.stats.compose_time),
            ]);
            json.push(row([
                ("participants", n.into()),
                ("policy_prefixes", px.into()),
                ("prefix_groups", report.stats.group_count.into()),
                ("forwarding_rules", report.stats.forwarding_rules.into()),
                (
                    "compile_ms",
                    (report.stats.total.as_secs_f64() * 1e3).into(),
                ),
                ("vnh_ms", (report.stats.vnh_time.as_secs_f64() * 1e3).into()),
                (
                    "compose_ms",
                    (report.stats.compose_time.as_secs_f64() * 1e3).into(),
                ),
            ]));
        }
    }
    print_table(
        "Figure 8: initial compilation time vs prefix groups",
        &[
            "participants",
            "prefix groups",
            "flow rules",
            "compile",
            "VNH",
            "compose",
        ],
        &rows,
    );
    println!(
        "\n  expected shape (paper): compile time grows super-linearly\n  \
         (≈quadratically) with prefix groups; more participants ⇒ slower at\n  \
         equal group count. Absolute times are far below the paper's\n  \
         (Rust pipeline vs. their Python prototype)."
    );
    sdx_bench::report("fig8", &json, &metrics);
}
