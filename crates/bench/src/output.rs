//! CSV/JSON rows for the `simrank-repro` artifacts.

/// One measured configuration: a single point of one of the paper's figures.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Dataset key ("GQ", "DB", …).
    pub dataset: String,
    /// Algorithm name ("ExactSim", "MC", …).
    pub algorithm: String,
    /// Human-readable parameter description ("eps=1e-3", "r=800,L=15", …).
    pub parameter: String,
    /// Preprocessing / index-construction time in seconds (0 for index-free
    /// methods).
    pub preprocessing_seconds: f64,
    /// Index size in bytes (0 for index-free methods).
    pub index_bytes: usize,
    /// Average single-source query time in seconds.
    pub query_seconds: f64,
    /// Average MaxError against the ground truth.
    pub max_error: f64,
    /// Average Precision@500 against the ground truth.
    pub precision_at_500: f64,
}

impl SweepRow {
    /// The CSV header matching [`SweepRow::to_csv`].
    pub fn csv_header() -> &'static str {
        "dataset,algorithm,parameter,preprocessing_seconds,index_bytes,query_seconds,max_error,precision_at_500"
    }

    /// Serialises the row as one CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{:.6},{},{:.6},{:.3e},{:.4}",
            self.dataset,
            self.algorithm,
            self.parameter.replace(',', ";"),
            self.preprocessing_seconds,
            self.index_bytes,
            self.query_seconds,
            self.max_error,
            self.precision_at_500
        )
    }

    /// Serialises the row as one JSON object (hand-rolled: the offline build
    /// has no serde), for the machine-readable halves of `repro/out/`.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"dataset\":\"{}\",\"algorithm\":\"{}\",\"parameter\":\"{}\",",
                "\"preprocessing_seconds\":{:.6},\"index_bytes\":{},",
                "\"query_seconds\":{:.6},\"max_error\":{:e},\"precision_at_500\":{:.4}}}"
            ),
            self.dataset,
            self.algorithm,
            self.parameter.replace('"', ""),
            self.preprocessing_seconds,
            self.index_bytes,
            self.query_seconds,
            self.max_error,
            self.precision_at_500
        )
    }
}

/// Writes `header` plus one line per row to `path`, creating parent
/// directories as needed. Used by `simrank-repro` for every CSV artifact.
pub fn write_csv_file(
    path: &std::path::Path,
    title: &str,
    header: &str,
    lines: &[String],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut body = String::with_capacity(lines.len() * 64 + header.len() + title.len() + 4);
    body.push_str(&format!("# {title}\n{header}\n"));
    for line in lines {
        body.push_str(line);
        body.push('\n');
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepRow {
        SweepRow {
            dataset: "GQ".into(),
            algorithm: "ExactSim".into(),
            parameter: "eps=1e-3".into(),
            preprocessing_seconds: 0.0,
            index_bytes: 0,
            query_seconds: 1.25,
            max_error: 3.2e-4,
            precision_at_500: 0.998,
        }
    }

    #[test]
    fn csv_row_has_as_many_fields_as_the_header() {
        let row = sample();
        let header_fields = SweepRow::csv_header().split(',').count();
        let row_fields = row.to_csv().split(',').count();
        assert_eq!(header_fields, row_fields);
    }

    #[test]
    fn commas_in_parameters_are_escaped() {
        let mut row = sample();
        row.parameter = "r=50,L=10".into();
        assert!(!row.to_csv().contains("r=50,L"));
        assert!(row.to_csv().contains("r=50;L=10"));
    }

    #[test]
    fn csv_contains_the_values() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("GQ,ExactSim,"));
        assert!(csv.contains("3.200e-4"));
    }

    #[test]
    fn json_row_carries_every_csv_field() {
        let json = sample().to_json();
        for field in SweepRow::csv_header().split(',') {
            assert!(json.contains(&format!("\"{field}\":")), "missing {field}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn write_csv_file_creates_parents_and_content() {
        let dir = std::env::temp_dir().join(format!("exactsim-output-test-{}", std::process::id()));
        let path = dir.join("nested/fig0.csv");
        write_csv_file(&path, "unit", SweepRow::csv_header(), &[sample().to_csv()]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("# unit\n"));
        assert_eq!(content.lines().count(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
