//! Figure rendering: ASCII bar charts and text heatmaps.

/// A named series of (label, value) points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name.
    pub name: String,
    /// Data points.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// New series.
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn point(&mut self, label: impl Into<String>, value: f64) -> &mut Series {
        self.points.push((label.into(), value));
        self
    }

    /// Maximum value (0 for an empty series).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }
}

/// Horizontal ASCII bar chart for one series.
pub fn bar_chart(series: &Series, width: usize) -> String {
    let max = series.max().max(f64::EPSILON);
    let label_w = series
        .points
        .iter()
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = format!("{}\n", series.name);
    for (label, value) in &series.points {
        let bars = ((value / max) * width as f64).round() as usize;
        out.push_str(&format!(
            "  {label:<label_w$} | {} {value:.2}\n",
            "#".repeat(bars)
        ));
    }
    out
}

/// Text heatmap: rows × columns of fractions rendered as percentages with
/// shade glyphs.
pub fn heatmap(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    values: &[Vec<f64>],
) -> String {
    let shade = |v: f64| -> char {
        match v {
            v if v >= 0.8 => '█',
            v if v >= 0.6 => '▓',
            v if v >= 0.4 => '▒',
            v if v >= 0.2 => '░',
            v if v > 0.0 => '·',
            _ => ' ',
        }
    };
    let row_w = row_labels
        .iter()
        .map(|l| l.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = format!("{title}\n");
    out.push_str(&format!("{:row_w$}  ", ""));
    for c in col_labels {
        out.push_str(&format!("{:>24}", c));
    }
    out.push('\n');
    for (i, row_label) in row_labels.iter().enumerate() {
        out.push_str(&format!("{row_label:<row_w$}  "));
        for j in 0..col_labels.len() {
            let v = values.get(i).and_then(|r| r.get(j)).copied().unwrap_or(0.0);
            out.push_str(&format!("{:>18}{:>5.1}%", shade(v), v * 100.0));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Series {
        let mut s = Series::new("endpoints");
        s.point("News", 7.0).point("Search", 2.0);
        s
    }

    #[test]
    fn bar_chart_scales() {
        let chart = bar_chart(&series(), 20);
        let news_line = chart.lines().find(|l| l.contains("News")).unwrap();
        let search_line = chart.lines().find(|l| l.contains("Search")).unwrap();
        let count = |l: &str| l.matches('#').count();
        assert_eq!(count(news_line), 20);
        assert!(count(search_line) < count(news_line));
    }

    #[test]
    fn heatmap_renders_all_cells() {
        let hm = heatmap(
            "Figure 4",
            &["Advertising".into(), "Payments".into()],
            &["loadUrl".into(), "postUrl".into()],
            &[vec![0.95, 0.05], vec![0.9, 0.3]],
        );
        assert!(hm.contains("Advertising"));
        assert!(hm.contains("95.0%"));
        assert!(hm.contains("30.0%"));
    }

    #[test]
    fn empty_series_is_safe() {
        let s = Series::new("empty");
        assert_eq!(s.max(), 0.0);
        let _ = bar_chart(&s, 10);
    }
}
