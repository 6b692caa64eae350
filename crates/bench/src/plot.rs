//! Minimal self-contained SVG chart renderer.
//!
//! The figure harnesses print ASCII previews for the terminal and write
//! proper SVG charts next to their text output, so the reproduction's
//! figures are directly comparable to the paper's. No dependencies: the
//! renderer emits hand-built SVG with nice-number axis ticks, a legend and
//! scatter/line series.

use std::fmt::Write as _;

/// How a series is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesStyle {
    /// Individual circular markers.
    Scatter,
    /// Poly-line through the points in the given order.
    Line,
}

/// One named data series.
#[derive(Debug, Clone)]
struct Series {
    name: String,
    points: Vec<(f64, f64)>,
    style: SeriesStyle,
    color: &'static str,
}

/// Color cycle (colorblind-safe Okabe-Ito subset).
const COLORS: [&str; 6] = [
    "#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9",
];

/// An SVG chart under construction.
///
/// # Example
///
/// ```
/// use lightnas_bench::plot::{SeriesStyle, SvgPlot};
///
/// let mut p = SvgPlot::new("latency vs accuracy", "latency (ms)", "top-1 (%)");
/// p.add_series("LightNets", vec![(20.0, 75.5), (24.0, 76.1)], SeriesStyle::Line);
/// let svg = p.render();
/// assert!(svg.starts_with("<svg"));
/// ```
#[derive(Debug, Clone)]
pub struct SvgPlot {
    title: String,
    x_label: String,
    y_label: String,
    width: f64,
    height: f64,
    series: Vec<Series>,
}

impl SvgPlot {
    /// Creates an empty 720×480 chart.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        Self {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            width: 720.0,
            height: 480.0,
            series: Vec::new(),
        }
    }

    /// Appends a series; colors cycle automatically.
    pub fn add_series(&mut self, name: &str, points: Vec<(f64, f64)>, style: SeriesStyle) {
        let color = COLORS[self.series.len() % COLORS.len()];
        self.series.push(Series {
            name: name.to_string(),
            points,
            style,
            color,
        });
    }

    /// Number of series added so far.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    fn bounds(&self) -> ((f64, f64), (f64, f64)) {
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.series {
            for &(x, y) in &s.points {
                xmin = xmin.min(x);
                xmax = xmax.max(x);
                ymin = ymin.min(y);
                ymax = ymax.max(y);
            }
        }
        if !xmin.is_finite() {
            return ((0.0, 1.0), (0.0, 1.0));
        }
        if (xmax - xmin).abs() < 1e-12 {
            xmax = xmin + 1.0;
        }
        if (ymax - ymin).abs() < 1e-12 {
            ymax = ymin + 1.0;
        }
        // 5% padding.
        let (dx, dy) = ((xmax - xmin) * 0.05, (ymax - ymin) * 0.05);
        ((xmin - dx, xmax + dx), (ymin - dy, ymax + dy))
    }

    /// Renders the chart to an SVG string.
    pub fn render(&self) -> String {
        let ((xmin, xmax), (ymin, ymax)) = self.bounds();
        let (w, h) = (self.width, self.height);
        let (ml, mr, mt, mb) = (64.0, 150.0, 40.0, 52.0); // margins (legend right)
        let plot_w = w - ml - mr;
        let plot_h = h - mt - mb;
        let sx = |x: f64| ml + (x - xmin) / (xmax - xmin) * plot_w;
        let sy = |y: f64| mt + plot_h - (y - ymin) / (ymax - ymin) * plot_h;

        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif">"#
        );
        let _ = write!(svg, r#"<rect width="{w}" height="{h}" fill="white"/>"#);
        // Title and axis labels.
        let _ = write!(
            svg,
            r#"<text x="{}" y="24" text-anchor="middle" font-size="15" font-weight="bold">{}</text>"#,
            ml + plot_w / 2.0,
            escape(&self.title)
        );
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}" text-anchor="middle" font-size="12">{}</text>"#,
            ml + plot_w / 2.0,
            h - 12.0,
            escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="16" y="{}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {})">{}</text>"#,
            mt + plot_h / 2.0,
            mt + plot_h / 2.0,
            escape(&self.y_label)
        );
        // Frame.
        let _ = write!(
            svg,
            r##"<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#444"/>"##
        );
        // Ticks and grid.
        for x in nice_ticks(xmin, xmax, 7) {
            let px = sx(x);
            let _ = write!(
                svg,
                r##"<line x1="{px}" y1="{mt}" x2="{px}" y2="{}" stroke="#ddd"/>"##,
                mt + plot_h
            );
            let _ = write!(
                svg,
                r#"<text x="{px}" y="{}" text-anchor="middle" font-size="10">{}</text>"#,
                mt + plot_h + 16.0,
                fmt_tick(x)
            );
        }
        for y in nice_ticks(ymin, ymax, 6) {
            let py = sy(y);
            let _ = write!(
                svg,
                r##"<line x1="{ml}" y1="{py}" x2="{}" y2="{py}" stroke="#ddd"/>"##,
                ml + plot_w
            );
            let _ = write!(
                svg,
                r#"<text x="{}" y="{}" text-anchor="end" font-size="10">{}</text>"#,
                ml - 6.0,
                py + 3.5,
                fmt_tick(y)
            );
        }
        // Series.
        for s in &self.series {
            match s.style {
                SeriesStyle::Line => {
                    let pts: Vec<String> = s
                        .points
                        .iter()
                        .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
                        .collect();
                    let _ = write!(
                        svg,
                        r#"<polyline points="{}" fill="none" stroke="{}" stroke-width="2"/>"#,
                        pts.join(" "),
                        s.color
                    );
                }
                SeriesStyle::Scatter => {}
            }
            for &(x, y) in &s.points {
                let _ = write!(
                    svg,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{}" fill-opacity="0.75"/>"#,
                    sx(x),
                    sy(y),
                    s.color
                );
            }
        }
        // Legend.
        for (i, s) in self.series.iter().enumerate() {
            let ly = mt + 14.0 + i as f64 * 18.0;
            let lx = ml + plot_w + 12.0;
            let _ = write!(
                svg,
                r#"<circle cx="{lx}" cy="{ly}" r="4" fill="{}"/>"#,
                s.color
            );
            let _ = write!(
                svg,
                r#"<text x="{}" y="{}" font-size="11">{}</text>"#,
                lx + 10.0,
                ly + 3.5,
                escape(&s.name)
            );
        }
        svg.push_str("</svg>");
        svg
    }
}

/// "Nice numbers" tick positions covering `[lo, hi]` with about `n` ticks.
fn nice_ticks(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let span = (hi - lo).max(1e-12);
    let raw_step = span / n.max(2) as f64;
    let mag = 10f64.powf(raw_step.log10().floor());
    let norm = raw_step / mag;
    let step = if norm < 1.5 {
        1.0
    } else if norm < 3.0 {
        2.0
    } else if norm < 7.0 {
        5.0
    } else {
        10.0
    } * mag;
    let first = (lo / step).ceil() * step;
    let mut ticks = Vec::new();
    let mut t = first;
    while t <= hi + step * 1e-9 {
        ticks.push(t);
        t += step;
    }
    ticks
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 1000.0 || (v.fract().abs() < 1e-9 && v.abs() < 1e7) {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_produces_wellformed_svg() {
        let mut p = SvgPlot::new("t", "x", "y");
        p.add_series("a", vec![(0.0, 0.0), (1.0, 2.0)], SeriesStyle::Line);
        p.add_series("b", vec![(0.5, 1.0)], SeriesStyle::Scatter);
        let svg = p.render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("polyline"));
        assert_eq!(svg.matches("<circle").count(), 3 + 2); // 3 data + 2 legend
    }

    #[test]
    fn ticks_are_sorted_and_inside_range() {
        let t = nice_ticks(18.4, 33.2, 7);
        assert!(t.len() >= 4);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert!(t.first().copied().expect("non-empty") >= 18.4 - 1e-9);
        assert!(t.last().copied().expect("non-empty") <= 33.2 + 1e-9);
    }

    #[test]
    fn ticks_choose_round_steps() {
        for t in nice_ticks(0.0, 100.0, 6) {
            assert!(
                (t % 20.0).abs() < 1e-9 || (t % 25.0).abs() < 1e-9,
                "odd tick {t}"
            );
        }
    }

    #[test]
    fn empty_plot_still_renders() {
        let p = SvgPlot::new("empty", "x", "y");
        let svg = p.render();
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn labels_are_escaped() {
        let p = SvgPlot::new("a < b & c", "x", "y");
        let svg = p.render();
        assert!(svg.contains("a &lt; b &amp; c"));
    }
}
