//! Figure and series containers plus plain-text rendering.

use std::fmt::Write as _;

/// Experiment scale: the paper's populations are large (up to 5000 nodes); the smaller
/// scales keep unit tests, doc tests and benchmark iterations fast while preserving the
/// qualitative behaviour, and the larger scales stress the sharded engine beyond the
/// paper.
///
/// All tiers at a glance (nodes shown for the paper's 5000-node experiments):
///
/// Every tier analyses each sample in place, on the driver thread.
///
/// | Tier    | Nodes vs paper | Nodes   | Rounds vs paper | Sample every | Engine        | Connectivity, in-degree  |
/// |---------|----------------|---------|-----------------|--------------|---------------|--------------------------|
/// | `Tiny`  | ÷40            | 125     | ÷5 (min 20)     | 2            | event-driven  | CSR pipeline             |
/// | `Quick` | ÷10            | 500     | ÷2 (min 40)     | 2            | event-driven  | CSR pipeline             |
/// | `Paper` | ×1             | 5 000   | ×1              | 5            | event-driven  | CSR pipeline             |
/// | `Large` | ×20            | 100 000 | ÷4 (min 25)     | 10           | sharded ×4    | CSR pipeline             |
/// | `Huge`  | ×200           | 1 000 000 | ÷8 (min 12)   | 20           | sharded ×8    | incremental trackers     |
#[non_exhaustive]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// A few dozen nodes, a few dozen rounds; used by doc tests and smoke tests.
    Tiny,
    /// Roughly a tenth of the paper's populations; the scale `xtask outputs` gates the
    /// matrices at.
    Quick,
    /// The paper's populations and durations.
    Paper,
    /// Beyond the paper: 20× its populations (100k nodes for the 5000-node experiments),
    /// shortened durations, and the sharded phase-parallel engine. Exercised by the CI
    /// `scale-smoke` job and the PeerSwap-style randomness-vs-scale comparisons.
    Large,
    /// The million-node tier: 200× the paper's populations, heavily shortened durations,
    /// eight sharded workers and the incremental connectivity metrics — the full
    /// CSR + BFS pipeline per sample would dominate the run at this size.
    Huge,
}

impl Scale {
    /// Scales a node count.
    pub fn nodes(self, paper_value: usize) -> usize {
        match self {
            Scale::Tiny => (paper_value / 40).max(5),
            Scale::Quick => (paper_value / 10).max(20),
            Scale::Paper => paper_value,
            Scale::Large => paper_value * 20,
            Scale::Huge => paper_value * 200,
        }
    }

    /// Scales a round count.
    pub(crate) fn rounds(self, paper_value: u64) -> u64 {
        match self {
            Scale::Tiny => (paper_value / 5).max(20),
            Scale::Quick => (paper_value / 2).max(40),
            Scale::Paper => paper_value,
            Scale::Large => (paper_value / 4).max(25),
            Scale::Huge => (paper_value / 8).max(12),
        }
    }

    /// How often (in rounds) metrics are sampled at this scale.
    pub(crate) fn sample_every(self) -> u64 {
        match self {
            Scale::Tiny => 2,
            Scale::Quick => 2,
            Scale::Paper => 5,
            Scale::Large => 10,
            Scale::Huge => 20,
        }
    }

    /// The engine selector used at this scale: the paper scales keep the event-driven
    /// engine (`0`), [`Scale::Large`] runs the sharded engine with four worker threads
    /// and [`Scale::Huge`] with eight.
    pub(crate) fn engine_threads(self) -> usize {
        match self {
            Scale::Tiny | Scale::Quick | Scale::Paper => 0,
            Scale::Large => 4,
            Scale::Huge => 8,
        }
    }

    /// Whether runs at this scale read the largest component off one union-find pass
    /// over the snapshot's edges instead of building the full CSR graph on every sample
    /// (see
    /// [`ExperimentParams::incremental_components`](crate::runner::ExperimentParams::incremental_components)).
    /// The same switch turns on the incremental in-degree tracker
    /// ([`ExperimentParams::incremental_indegree`](crate::runner::ExperimentParams::incremental_indegree)):
    /// both serve the tier that cannot afford the CSR pipeline per sample.
    pub(crate) fn incremental_components(self) -> bool {
        matches!(self, Scale::Huge)
    }

    /// Parses a scale name (`tiny`, `quick`, `paper`/`full`, `large`, `huge`).
    pub fn parse(text: &str) -> Option<Scale> {
        match text.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "quick" => Some(Scale::Quick),
            "paper" | "full" => Some(Scale::Paper),
            "large" => Some(Scale::Large),
            "huge" => Some(Scale::Huge),
            _ => None,
        }
    }
}

/// One plotted series: a label and a list of `(x, y)` points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"α=25, γ=50"` or `"croupier"`).
    pub label: String,
    /// The data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub(crate) fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub(crate) fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// The data behind one regenerated figure of the paper.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FigureData {
    /// Short identifier (e.g. `"fig1"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureData {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Renders the figure as an aligned plain-text table (x values as rows, one column per
    /// series) — what the `figures` binary prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "# x: {} | y: {}", self.x_label, self.y_label);
        let mut header = format!("{:>12}", self.x_label);
        for series in &self.series {
            let _ = write!(header, " {:>18}", series.label);
        }
        let _ = writeln!(out, "{header}");

        // Collect the union of x values, sorted.
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("x values must be comparable"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        for x in xs {
            let mut row = format!("{x:>12.3}");
            for series in &self.series {
                let y = series
                    .points
                    .iter()
                    .find(|(px, _)| (px - x).abs() < 1e-12)
                    .map(|(_, y)| *y);
                match y {
                    Some(y) => {
                        let _ = write!(row, " {y:>18.6}");
                    }
                    None => {
                        let _ = write!(row, " {:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// Serialises the figure as pretty-printed JSON.
    ///
    /// Emitted by hand because the offline build has no `serde_json`. The output parses
    /// to the same document `serde_json` would produce for this type (field names, order
    /// and values match; only whitespace differs), so downstream plotting scripts are
    /// unaffected.
    pub fn to_json(&self) -> String {
        let series = self.series.iter().map(|series| {
            let points = series.points.iter();
            Json::Object(vec![
                ("label", series.label.as_str().into()),
                (
                    "points",
                    Json::array(points.map(|&(x, y)| Json::inline_array([x, y]))),
                ),
            ])
        });
        Json::Object(vec![
            ("id", self.id.as_str().into()),
            ("title", self.title.as_str().into()),
            ("x_label", self.x_label.as_str().into()),
            ("y_label", self.y_label.as_str().into()),
            ("series", Json::array(series)),
        ])
        .render()
    }
}

/// A JSON document under construction: the one writer behind every `to_json` of this
/// crate. Objects and arrays print one member per line at two more spaces of indent
/// (`[]` when empty) unless wrapped in [`Json::Inline`].
pub(crate) enum Json {
    /// A scalar, already in JSON syntax.
    Scalar(String),
    /// An object, fields in the given order.
    Object(Vec<(&'static str, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// The wrapped value with all of its members on one line, `", "`-separated.
    Inline(Box<Json>),
}

impl Json {
    pub(crate) fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    pub(crate) fn inline_array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Inline(Box::new(Json::array(items)))
    }

    pub(crate) fn inline_object(fields: Vec<(&'static str, Json)>) -> Json {
        Json::Inline(Box::new(Json::Object(fields)))
    }

    /// The document as text, without a trailing newline.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, indent: usize, inline: bool) {
        type Members<'a> = Vec<(Option<&'a str>, &'a Json)>;
        let (brackets, members): ([char; 2], Members<'_>) = match self {
            Json::Scalar(text) => return out.push_str(text),
            Json::Inline(value) => return value.write(out, indent, true),
            Json::Object(fields) => (
                ['{', '}'],
                fields.iter().map(|(key, v)| (Some(*key), v)).collect(),
            ),
            Json::Array(items) => (['[', ']'], items.iter().map(|v| (None, v)).collect()),
        };
        let newline = |out: &mut String, indent: usize| {
            if !inline {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', indent));
            }
        };
        out.push(brackets[0]);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if inline { ", " } else { "," });
            }
            newline(out, indent + 2);
            if let Some(key) = key {
                let _ = write!(out, "\"{key}\": ");
            }
            value.write(out, indent + 2, inline);
        }
        if !members.is_empty() {
            newline(out, indent);
        }
        out.push(brackets[1]);
    }
}

impl From<&str> for Json {
    fn from(text: &str) -> Json {
        Json::Scalar(json_string(text))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Scalar(json_number(v))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Scalar(v.to_string())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Scalar(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Scalar(v.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or_else(|| Json::Scalar(String::from("null")), Into::into)
    }
}

/// Quotes and escapes `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number (JSON has no NaN/Infinity; they become null).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Keep integral values readable (`5.0` not `5`): serde_json prints `5.0` for
        // f64 too, and plotting scripts treat both the same.
        format!("{v:?}")
    } else {
        String::from("null")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FigureData {
        /// Finds a series by label.
        pub(crate) fn series(&self, label: &str) -> Option<&Series> {
            self.series.iter().find(|s| s.label == label)
        }
    }

    impl Series {
        /// The final y value, if any.
        pub(crate) fn last_y(&self) -> Option<f64> {
            self.points.last().map(|(_, y)| *y)
        }

        /// The mean of the y values over the last `n` points (or all of them if fewer exist).
        pub(crate) fn tail_mean(&self, n: usize) -> Option<f64> {
            if self.points.is_empty() {
                return None;
            }
            let start = self.points.len().saturating_sub(n);
            let tail = &self.points[start..];
            Some(tail.iter().map(|(_, y)| *y).sum::<f64>() / tail.len() as f64)
        }
    }

    #[test]
    fn scale_factors_shrink_populations() {
        assert_eq!(Scale::Paper.nodes(1000), 1000);
        assert_eq!(Scale::Quick.nodes(1000), 100);
        assert!(Scale::Tiny.nodes(1000) <= 30);
        assert!(Scale::Tiny.nodes(10) >= 5);
        assert_eq!(Scale::Paper.rounds(250), 250);
        assert!(Scale::Tiny.rounds(250) < 250);
    }

    #[test]
    fn large_scale_exceeds_the_paper_and_uses_the_sharded_engine() {
        assert_eq!(Scale::Large.nodes(5_000), 100_000);
        assert!(Scale::Large.rounds(200) < 200);
        assert_eq!(Scale::Large.engine_threads(), 4);
        assert_eq!(Scale::Paper.engine_threads(), 0);
        assert_eq!(Scale::Tiny.engine_threads(), 0);
    }

    #[test]
    fn scale_parse_accepts_known_names() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("QUICK"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        assert_eq!(Scale::parse("huge"), Some(Scale::Huge));
        assert_eq!(Scale::parse("galactic"), None);
    }

    #[test]
    fn huge_scale_reaches_a_million_nodes_on_eight_workers() {
        assert_eq!(Scale::Huge.nodes(5_000), 1_000_000);
        assert!(Scale::Huge.rounds(200) <= Scale::Large.rounds(200));
        assert_eq!(Scale::Huge.engine_threads(), 8);
        assert!(Scale::Huge.incremental_components());
        assert!(!Scale::Large.incremental_components());
        assert!(!Scale::Paper.incremental_components());
    }

    #[test]
    fn series_accumulates_points_and_statistics() {
        let mut s = Series::new("test");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        s.push(3.0, 30.0);
        assert_eq!(s.last_y(), Some(30.0));
        assert_eq!(s.tail_mean(2), Some(25.0));
        assert_eq!(s.tail_mean(100), Some(20.0));
        assert_eq!(Series::new("empty").tail_mean(3), None);
    }

    #[test]
    fn table_rendering_includes_all_series() {
        let mut fig = FigureData::new("figX", "Example", "time", "error");
        let mut a = Series::new("a");
        a.push(1.0, 0.5);
        a.push(2.0, 0.25);
        let mut b = Series::new("b");
        b.push(1.0, 0.4);
        fig.series.push(a);
        fig.series.push(b);
        let table = fig.render_table();
        assert!(table.contains("figX"));
        assert!(table.contains('a'));
        assert!(table.contains('b'));
        assert!(table.contains("0.500000"));
        assert!(table.contains('-'), "missing values render as dashes");
    }

    #[test]
    fn json_output_is_well_formed() {
        let mut fig = FigureData::new("fig1", "A \"quoted\" title", "x", "y");
        let mut s = Series::new("croupier");
        s.push(1.0, 0.5);
        s.push(2.5, f64::NAN);
        fig.series.push(s);
        let json = fig.to_json();
        assert!(json.contains("\"id\": \"fig1\""));
        assert!(
            json.contains("\\\"quoted\\\""),
            "quotes must be escaped: {json}"
        );
        assert!(json.contains("[1.0, 0.5]"));
        assert!(
            json.contains("[2.5, null]"),
            "non-finite y becomes null: {json}"
        );
        // Balanced braces/brackets — a cheap well-formedness check without a parser.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close} in {json}");
        }
    }

    #[test]
    fn json_writer_lays_out_nested_inline_and_empty_members() {
        let doc = Json::Object(vec![
            ("name", "a\"b".into()),
            ("round", None::<u64>.into()),
            ("ok", true.into()),
            ("empty", Json::array(Vec::<u64>::new())),
            ("pairs", Json::array([Json::inline_array([1.0, f64::NAN])])),
            (
                "stats",
                Json::inline_object(vec![("min", 1usize.into()), ("mean", 2.5.into())]),
            ),
            ("nested", Json::Object(vec![("k", Some(7u64).into())])),
        ]);
        let expected = r#"{
  "name": "a\"b",
  "round": null,
  "ok": true,
  "empty": [],
  "pairs": [
    [1.0, null]
  ],
  "stats": {"min": 1, "mean": 2.5},
  "nested": {
    "k": 7
  }
}"#;
        assert_eq!(doc.render(), expected);
    }

    #[test]
    fn json_of_empty_figure_has_empty_series_array() {
        let fig = FigureData::new("f", "t", "x", "y");
        assert!(fig.to_json().contains("\"series\": []"));
    }

    #[test]
    fn series_lookup_by_label() {
        let mut fig = FigureData::new("f", "t", "x", "y");
        fig.series.push(Series::new("croupier"));
        assert!(fig.series("croupier").is_some());
        assert!(fig.series("nylon").is_none());
    }
}
