//! Rendering of `explain` output: the optimizer's full costed plan table
//! (the Section 7 / Table 4 surface), one row per enumerated plan,
//! cheapest first — plus, on profiled reports, the ledger-measured cost
//! beside every prediction.

use ml4all_core::chooser::OptimizerReport;
use ml4all_dataflow::RNG_STREAM_VERSION;

/// Render the report as an aligned text table: rank, plan, estimated
/// iterations, preparation / per-iteration / total modelled cost, the
/// measured cost when the report was profiled (`ExplainRequest::measured`),
/// and the Appendix D platform mapping of every operator. The footer pins
/// the RNG stream version so the seed-compatibility contract of the run is
/// part of the rendered surface.
pub fn render_report(report: &OptimizerReport) -> String {
    // The measured column only appears on profiled reports; a diverged
    // plan inside one renders a dash. The calibrated column only appears
    // on reports priced under a calibration snapshot, so a cold engine's
    // output is byte-identical to a pre-calibration build's.
    let measured = report.choices.iter().any(|c| c.measured_s.is_some());
    let calibrated = report.choices.iter().any(|c| c.calibrated_s.is_some());
    let mut header = vec![
        "#".to_string(),
        "plan".to_string(),
        "est.iter".to_string(),
        "prep(s)".to_string(),
        "iter(s)".to_string(),
        "total(s)".to_string(),
    ];
    if calibrated {
        header.push("calibrated(s)".to_string());
    }
    if measured {
        header.push("measured(s)".to_string());
    }
    header.push("platforms".to_string());
    let mut rows: Vec<Vec<String>> = vec![header];
    for (rank, choice) in report.choices.iter().enumerate() {
        let mix = if choice.mapping.is_mixed() {
            " (mixed)"
        } else {
            ""
        };
        let mut row = vec![
            format!("{}", rank + 1),
            choice.plan.name(),
            format!("{}", choice.estimated_iterations),
            format!("{:.3}", choice.preparation_s),
            format!("{:.6}", choice.per_iteration_s),
            format!("{:.3}", choice.total_s),
        ];
        if calibrated {
            row.push(match choice.calibrated_s {
                Some(c) => format!("{c:.3}"),
                None => "-".to_string(),
            });
        }
        if measured {
            row.push(match choice.measured_s {
                Some(m) => format!("{m:.3}"),
                None => "-".to_string(),
            });
        }
        row.push(format!("{}{mix}", choice.mapping.describe()));
        rows.push(row);
    }

    let columns = rows[0].len();
    let mut widths = vec![0usize; columns];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }

    let mut out = String::new();
    for row in &rows {
        for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            // The last column is left-aligned and unpadded.
            if i + 1 < row.len() {
                out.extend(std::iter::repeat_n(' ', w - cell.chars().count()));
            }
        }
        out.push('\n');
    }
    if !report.estimates.is_empty() {
        out.push_str(&format!(
            "speculation: {:.2} simulated s across {} variant estimate{}\n",
            report.speculation_sim_s,
            report.estimates.len(),
            if report.estimates.len() == 1 { "" } else { "s" }
        ));
    }
    if report.cache_hit {
        out.push_str("plan cache: hit (speculation skipped)\n");
    }
    if let Some(stamp) = &report.calibration {
        out.push_str(&format!(
            "calibration gen {}, residual conf {:.2}\n",
            stamp.generation, stamp.residual_confidence
        ));
    }
    out.push_str(&format!("rng stream v{RNG_STREAM_VERSION}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_core::chooser::{choose_plan, OptimizerConfig};
    use ml4all_dataflow::ClusterSpec;
    use ml4all_gd::GradientKind;

    fn report() -> OptimizerReport {
        let cluster = ClusterSpec::paper_testbed();
        let data = ml4all_datasets::registry::adult()
            .build(800, 7, &cluster)
            .unwrap();
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
        choose_plan(&data, &config, &cluster).unwrap()
    }

    #[test]
    fn table_lists_every_plan_with_costs_and_platforms() {
        let report = report();
        let table = render_report(&report);
        let lines: Vec<&str> = table.lines().collect();
        // Header + 11 plans + rng footer.
        assert_eq!(lines.len(), 13);
        assert!(lines[0].contains("plan") && lines[0].contains("total(s)"));
        assert!(!lines[0].contains("measured(s)"), "no measured column");
        for choice in &report.choices {
            assert!(
                table.contains(&choice.plan.name()),
                "missing {}",
                choice.plan.name()
            );
        }
        assert!(table.contains("transform="), "platform column missing");
        assert_eq!(
            lines[12],
            format!("rng stream v{RNG_STREAM_VERSION}"),
            "seed-compatibility footer"
        );
    }

    #[test]
    fn the_speculation_footer_counts_the_variants_speculated() {
        use ml4all_core::estimator::SpeculationConfig;
        use ml4all_gd::GdVariant;
        let cluster = ClusterSpec::paper_testbed();
        let data = ml4all_datasets::registry::adult()
            .build(800, 7, &cluster)
            .unwrap();
        let config = OptimizerConfig::new(GradientKind::LogisticRegression)
            .with_tolerance(0.05)
            .with_speculation(SpeculationConfig {
                sample_size: 200,
                max_iterations: 400,
                ..SpeculationConfig::default()
            });
        let footer = |config: &OptimizerConfig| {
            let report = choose_plan(&data, config, &cluster).unwrap();
            let table = render_report(&report);
            let line = table.lines().find(|l| l.starts_with("speculation:"));
            line.expect("speculation footer").to_string()
        };
        assert!(footer(&config).ends_with(" across 3 variant estimates"));
        let pinned = config.with_pinned_variant(GdVariant::Stochastic);
        assert!(footer(&pinned).ends_with(" across 1 variant estimate"));
    }

    #[test]
    fn cache_hits_render_a_marker_line_cold_reports_do_not() {
        let mut report = report();
        let cold = render_report(&report);
        assert!(!cold.contains("plan cache"));
        report.cache_hit = true;
        let warm = render_report(&report);
        assert!(warm.contains("plan cache: hit (speculation skipped)"));
    }

    #[test]
    fn calibrated_column_and_footer_appear_only_on_calibrated_reports() {
        use ml4all_core::calibration::CalibrationSnapshot;
        let cluster = ClusterSpec::paper_testbed();
        let data = ml4all_datasets::registry::adult()
            .build(800, 7, &cluster)
            .unwrap();
        let mut snapshot = CalibrationSnapshot::identity();
        snapshot.generation = 3;
        let config = OptimizerConfig::new(GradientKind::LogisticRegression)
            .with_fixed_iterations(100)
            .with_calibration(snapshot);
        let calibrated = choose_plan(&data, &config, &cluster).unwrap();
        let table = render_report(&calibrated);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("calibrated(s)"));
        assert!(
            lines[0].find("total(s)").unwrap() < lines[0].find("calibrated(s)").unwrap(),
            "calibrated column sits beside total"
        );
        assert!(table.contains("calibration gen 3, residual conf 0.00"));
        // The identity snapshot renders the same numbers in both columns.
        for line in lines.iter().skip(1).take(11) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cells[5], cells[6], "{line}");
        }
        // And the cold table is untouched — no column, no footer.
        let cold = render_report(&report());
        assert!(!cold.contains("calibrated(s)"));
        assert!(!cold.contains("calibration gen"));
    }

    #[test]
    fn measured_column_appears_only_when_profiled() {
        let mut report = report();
        for choice in &mut report.choices {
            choice.measured_s = Some(choice.total_s);
        }
        // A diverged plan renders a dash without dropping the column.
        report.choices[3].measured_s = None;
        let table = render_report(&report);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("measured(s)"));
        assert!(lines[4].split_whitespace().any(|cell| cell == "-"));
        // Every other row carries a numeric measurement.
        for (i, line) in lines.iter().enumerate().skip(1).take(11) {
            if i == 4 {
                continue;
            }
            assert!(
                line.contains('.'),
                "row {i} should show a measured cost: {line}"
            );
        }
    }
}
