//! Paper-style rendering of tQUAD results: the Table IV phase summary and
//! the Figure 6/7 bandwidth-over-time charts.

use crate::phase::Phase;
use crate::profile::TquadProfile;
use crate::series::SliceEntry;
use tq_report::{f, Align, Json, SeriesChart, Table};

/// Which bandwidth measure a figure plots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Measure {
    /// Read accesses, stack included (Fig. 6).
    ReadIncl,
    /// Read accesses, stack excluded.
    ReadExcl,
    /// Write accesses, stack included.
    WriteIncl,
    /// Write accesses, stack excluded (Fig. 7).
    WriteExcl,
}

impl Measure {
    /// Human-readable description, phrased as the paper's captions.
    pub fn caption(self) -> &'static str {
        match self {
            Measure::ReadIncl => "read accesses including the stack area",
            Measure::ReadExcl => "read accesses excluding the stack area",
            Measure::WriteIncl => "write accesses including the stack area",
            Measure::WriteExcl => "write accesses excluding the stack area",
        }
    }

    /// The bytes of `e` this measure counts.
    pub fn of(self, e: &SliceEntry) -> u64 {
        match self {
            Measure::ReadIncl => e.r_incl,
            Measure::ReadExcl => e.r_excl,
            Measure::WriteIncl => e.w_incl,
            Measure::WriteExcl => e.w_excl,
        }
    }
}

/// Build the Table IV equivalent: per phase, per member kernel — activity
/// span, average read/write bandwidth (bytes/instruction) with stack
/// included and excluded, peak (R+W) bandwidth, and the phase's aggregate
/// maximum bandwidth.
pub fn phase_table(profile: &TquadProfile, phases: &[Phase]) -> Table {
    let mut t = Table::new(format!(
        "Phases in the execution path (slice interval = {} instructions, {} slices total)",
        profile.interval,
        profile.n_slices()
    ))
    .col("phase", Align::Left)
    .col("phase span", Align::Left)
    .col("% span", Align::Right)
    .col("kernel", Align::Left)
    .col("activity", Align::Right)
    .col("avg R incl", Align::Right)
    .col("avg R excl", Align::Right)
    .col("avg W incl", Align::Right)
    .col("avg W excl", Align::Right)
    .col("max R+W incl", Align::Right)
    .col("max R+W excl", Align::Right)
    .col("aggregate MBW", Align::Right);

    let total = profile.n_slices();
    for (pi, phase) in phases.iter().enumerate() {
        let aggregate: f64 = phase
            .kernels
            .iter()
            .filter_map(|rtn| {
                let k = &profile.kernels[rtn.idx()];
                profile.stats(k, true).map(|s| s.max_total_bpi)
            })
            .sum();
        for (ki, rtn) in phase.kernels.iter().enumerate() {
            let k = &profile.kernels[rtn.idx()];
            let incl = profile.stats(k, true);
            let excl = profile.stats(k, false);
            let first_row = ki == 0;
            t.row(vec![
                if first_row {
                    format!("phase-{}", pi + 1)
                } else {
                    String::new()
                },
                if first_row {
                    format!("{}-{}", phase.span.0, phase.span.1)
                } else {
                    String::new()
                },
                if first_row {
                    f(phase.span_pct(total), 4)
                } else {
                    String::new()
                },
                k.name.clone(),
                incl.map(|s| s.activity_span.to_string())
                    .unwrap_or_default(),
                incl.map(|s| f(s.avg_read_bpi, 4)).unwrap_or_default(),
                excl.map(|s| f(s.avg_read_bpi, 4)).unwrap_or_default(),
                incl.map(|s| f(s.avg_write_bpi, 4)).unwrap_or_default(),
                excl.map(|s| f(s.avg_write_bpi, 4)).unwrap_or_default(),
                incl.map(|s| f(s.max_total_bpi, 4)).unwrap_or_default(),
                excl.map(|s| f(s.max_total_bpi, 4)).unwrap_or_default(),
                if first_row {
                    f(aggregate, 4)
                } else {
                    String::new()
                },
            ]);
        }
    }
    t
}

/// Build a Figure 6/7-style chart: one lane per kernel, bandwidth in
/// bytes/instruction per slice, over `0..n_slices` (optionally capped, as
/// Fig. 7 cuts off the silent second half).
pub fn figure_chart(
    profile: &TquadProfile,
    kernel_names: &[&str],
    measure: Measure,
    width: usize,
    max_slices: Option<u64>,
) -> SeriesChart {
    let n = max_slices
        .unwrap_or_else(|| profile.n_slices())
        .min(profile.n_slices());
    let mut chart = SeriesChart::new(
        format!(
            "Memory bandwidth usage (bytes/instruction), {}; slice = {} instructions, showing {} of {} slices",
            measure.caption(),
            profile.interval,
            n,
            profile.n_slices()
        ),
        width,
    );
    for name in kernel_names {
        let Some(k) = profile.kernel(name) else {
            continue;
        };
        let interval = profile.interval as f64;
        let values = k.series.dense(n, |e| measure.of(e));
        chart.series(*name, values.into_iter().map(|v| v / interval).collect());
    }
    chart
}

/// Machine-readable form of a full profile (per-kernel sparse slice
/// series included). Key order is fixed and kernels appear in routine
/// order, so the canonical rendering of the result is deterministic —
/// `tq-profd` serves it as the tquad profile and relies on it for
/// byte-identical replies.
pub fn profile_json(profile: &TquadProfile) -> Json {
    let kernels: Vec<Json> = profile
        .kernels
        .iter()
        .map(|k| {
            let entries: Vec<Json> = k
                .series
                .entries()
                .iter()
                .map(|e| {
                    Json::obj([
                        ("slice", Json::from(e.slice)),
                        ("r_incl", Json::from(e.r_incl)),
                        ("r_excl", Json::from(e.r_excl)),
                        ("w_incl", Json::from(e.w_incl)),
                        ("w_excl", Json::from(e.w_excl)),
                    ])
                })
                .collect();
            Json::obj([
                ("rtn", Json::from(k.rtn.0)),
                ("name", Json::from(k.name.as_str())),
                ("main_image", Json::from(k.main_image)),
                ("calls", Json::from(k.calls)),
                ("series", Json::from(entries)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("interval", Json::from(profile.interval)),
        ("total_icount", Json::from(profile.total_icount)),
        ("dropped_accesses", Json::from(profile.dropped_accesses)),
        ("prefetches_ignored", Json::from(profile.prefetches_ignored)),
    ];
    // Present only for reduced-instrumentation runs, so full profiles
    // render byte-identically to their pre-`--instr` form (the profd
    // cache and the repro fixtures depend on that).
    if let Some(note) = &profile.instr {
        fields.push((
            "instr",
            Json::obj([
                ("spec", Json::from(note.spec.as_str())),
                ("coverage_ppm", Json::from(note.coverage_ppm)),
                ("filled_slices", Json::from(note.filled_slices)),
                ("measured_slices", Json::from(note.measured_slices)),
            ]),
        ));
    }
    fields.push(("kernels", Json::from(kernels)));
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;
    use crate::series::KernelSeries;
    use tq_isa::RoutineId;

    fn sample_profile() -> TquadProfile {
        let mut s0 = KernelSeries::new();
        s0.record(0, true, 100, false);
        s0.record(1, false, 50, true);
        let mut s1 = KernelSeries::new();
        s1.record(2, true, 10, false);
        TquadProfile {
            interval: 100,
            total_icount: 300,
            kernels: vec![
                KernelProfile {
                    rtn: RoutineId(0),
                    name: "alpha".into(),
                    main_image: true,
                    calls: 1,
                    series: s0,
                },
                KernelProfile {
                    rtn: RoutineId(1),
                    name: "beta".into(),
                    main_image: true,
                    calls: 2,
                    series: s1,
                },
            ],
            dropped_accesses: 0,
            prefetches_ignored: 0,
            instr: None,
        }
    }

    #[test]
    fn phase_table_renders_rows_per_kernel() {
        let p = sample_profile();
        let phases = vec![
            Phase {
                span: (0, 1),
                kernels: vec![RoutineId(0)],
            },
            Phase {
                span: (2, 2),
                kernels: vec![RoutineId(1)],
            },
        ];
        let t = phase_table(&p, &phases);
        assert_eq!(t.len(), 2);
        let s = t.render();
        assert!(s.contains("phase-1"));
        assert!(s.contains("alpha"));
        assert!(s.contains("phase-2"));
        assert!(s.contains("beta"));
    }

    #[test]
    fn figure_chart_selects_measure_and_scale() {
        let p = sample_profile();
        let c = figure_chart(&p, &["alpha", "beta"], Measure::ReadIncl, 16, None);
        let s = c.render();
        // alpha peaks at 100 B / 100 instr = 1 B/instr.
        assert!(s.contains("peak 1.0000"), "{s}");
        // beta reads 10 B in its slice → 0.1 B/instr.
        assert!(s.contains("peak 0.1000"), "{s}");
    }

    #[test]
    fn figure_chart_caps_slices() {
        let p = sample_profile();
        let c = figure_chart(&p, &["beta"], Measure::ReadIncl, 16, Some(2));
        // beta is only active in slice 2, which is cut off.
        assert!(c.render().contains("peak 0.0000"));
    }

    #[test]
    fn unknown_kernels_are_skipped() {
        let p = sample_profile();
        let c = figure_chart(&p, &["nope"], Measure::WriteExcl, 16, None);
        assert_eq!(c.render().lines().count(), 1, "title only");
    }

    #[test]
    fn profile_json_is_deterministic_and_complete() {
        let p = sample_profile();
        let a = profile_json(&p).render();
        let b = profile_json(&p).render();
        assert_eq!(a, b, "canonical rendering is stable");
        let v = Json::parse(&a).unwrap();
        assert_eq!(v.get("interval").unwrap().as_u64(), Some(100));
        let kernels = v.get("kernels").unwrap().as_arr().unwrap();
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].get("name").unwrap().as_str(), Some("alpha"));
        let entries = kernels[0].get("series").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("r_incl").unwrap().as_u64(), Some(100));
    }
}
