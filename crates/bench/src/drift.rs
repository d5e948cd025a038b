//! The baseline gate: every file in `crates/bench/baselines/` is a
//! table of exact rows, re-collected fresh and diffed against what was
//! recorded.
//!
//! Every file has one shape, `{"rows": [row, …]}`. A row is a flat
//! object whose string fields name it (`"build": "CPI", "kernel":
//! "dispatch"`) and whose other fields are exact integers: simulated
//! cycles and instructions, PAC sign/auth counts, RIPE verdict tallies,
//! store bytes, snapshot-reset costs, profiler attribution (a trap
//! verdict is 0/1). They are all deterministic, so the gate has no
//! threshold. Any difference fails: a changed value, or a row or field
//! present on one side only. A drop fails like growth, because on a
//! deterministic counter it is as often an under-counting bug as a win.
//! A deliberate change lands together with its re-recorded files
//! (`bench_drift --record`), so the change shows in the diff under
//! review. Host measurements (wall-clock, req/s, speedups) never enter
//! a recorded file; the bins print them.
//!
//! Each file has one collector, in the crate's `collect` module, that
//! re-measures its rows. [`check`] runs the gate: the `baselines`
//! integration test runs it in Tier-1, the `bench_drift` bin in release.
//! [`record`] rewrites the files.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use levee_core::json_str;

use crate::collect;
use crate::json::Json;

/// One field of a [`Row`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Value {
    /// A string: part of the row's name.
    Name(String),
    /// An exact counter.
    Count(u64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Name(s) => f.write_str(&json_str(s)),
            Value::Count(n) => write!(f, "{n}"),
        }
    }
}

/// One row of a baseline file, fields in name order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Row(BTreeMap<String, Value>);

impl Row {
    /// Adds (or replaces) a naming field.
    pub(crate) fn name(mut self, field: &str, value: &str) -> Row {
        self.0.insert(field.into(), Value::Name(value.into()));
        self
    }

    /// Adds (or replaces) a counter field.
    pub(crate) fn count(mut self, field: &str, value: u64) -> Row {
        self.0.insert(field.into(), Value::Count(value));
        self
    }

    /// The row's name: its string fields as `field=value`, in field
    /// order (e.g. `build=CPI kernel=dispatch`).
    fn key(&self) -> String {
        let names: Vec<String> = self
            .0
            .iter()
            .filter_map(|(field, v)| match v {
                Value::Name(s) => Some(format!("{field}={s}")),
                Value::Count(_) => None,
            })
            .collect();
        names.join(" ")
    }

    fn counters(&self) -> usize {
        self.0
            .values()
            .filter(|v| matches!(v, Value::Count(_)))
            .count()
    }
}

/// Renders `rows` as a baseline file, one row per line: the naming
/// fields first, then the counters, each group in field order.
fn render(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut fields: Vec<_> = row.0.iter().collect();
            fields.sort_by_key(|(_, v)| matches!(v, Value::Count(_)));
            let fields: Vec<String> = fields
                .iter()
                .map(|(field, v)| format!("{}: {v}", json_str(field)))
                .collect();
            format!("  {{{}}}", fields.join(", "))
        })
        .collect();
    format!("{{\"rows\": [\n{}\n]}}\n", lines.join(",\n"))
}

/// Decodes a baseline file. It must be `{"rows": [row, …]}` and nothing
/// else, with at least one row. Each row must be a flat object of
/// strings and non-negative integers with at least one string, and no
/// two rows may share a name.
pub(crate) fn decode(text: &str) -> Result<Vec<Row>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let rows = match &doc {
        Json::Obj(top) if top.len() == 1 => top.get("rows").and_then(Json::as_arr),
        _ => None,
    }
    .ok_or("expected {\"rows\": [...]} and nothing else")?;
    if rows.is_empty() {
        return Err("no rows: a gate that compares nothing must not pass".into());
    }
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(fields) = row else {
            return Err(format!("row {i} is not an object"));
        };
        let mut decoded = Row::default();
        for (field, v) in fields {
            decoded = match (v, v.as_u64()) {
                (Json::Str(s), _) => decoded.name(field, s),
                (_, Some(n)) => decoded.count(field, n),
                _ => {
                    return Err(format!(
                        "row {i}: {field} is neither a string nor a non-negative integer"
                    ))
                }
            };
        }
        out.push(decoded);
    }
    index(&out)?;
    Ok(out)
}

/// `rows` by name. A row without a name, or two with the same one, is
/// an error.
fn index(rows: &[Row]) -> Result<BTreeMap<String, &Row>, String> {
    let mut by_key = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let key = row.key();
        if key.is_empty() {
            return Err(format!("row {i} has no string field to name it"));
        }
        if by_key.insert(key.clone(), row).is_some() {
            return Err(format!("[{key}]: duplicate row name"));
        }
    }
    Ok(by_key)
}

/// Every difference between `recorded` and `fresh`: a changed value, and
/// a row or a field present on one side only. Empty when they match
/// exactly.
fn diff(recorded: &[Row], fresh: &[Row]) -> Vec<String> {
    let (recorded_by_key, fresh_by_key) = match (index(recorded), index(fresh)) {
        (Ok(r), Ok(f)) => (r, f),
        (r, f) => {
            let r = r.err().map(|e| format!("recorded rows: {e}"));
            let f = f.err().map(|e| format!("fresh rows: {e}"));
            return r.into_iter().chain(f).collect();
        }
    };
    let mut out = Vec::new();
    for was in recorded {
        let key = was.key();
        let Some(now) = fresh_by_key.get(&key) else {
            out.push(format!("[{key}]: recorded row missing from the fresh run"));
            continue;
        };
        for (field, v) in &was.0 {
            match now.0.get(field) {
                None => out.push(format!("[{key}] {field}: recorded {v}, fresh row lacks it")),
                Some(n) if n != v => out.push(format!("[{key}] {field}: recorded {v}, fresh {n}")),
                Some(_) => {}
            }
        }
        for (field, n) in &now.0 {
            if !was.0.contains_key(field) {
                out.push(format!("[{key}] {field}: fresh {n}, not recorded"));
            }
        }
    }
    for now in fresh {
        let key = now.key();
        if !recorded_by_key.contains_key(&key) {
            out.push(format!("[{key}]: fresh row not recorded"));
        }
    }
    out
}

/// Re-measures the rows of one baseline file.
type Collector = fn() -> Vec<Row>;

/// The gated files and the collector that measures each.
pub(crate) const BASELINES: &[(&str, Collector)] = &[
    ("engine_compare.json", collect::engine_compare),
    ("memory_overhead.json", collect::memory_overhead),
    ("defense_matrix.json", collect::defense_matrix),
    ("spec_overhead.json", collect::spec_overhead),
    ("webserver_throughput.json", collect::webserver_throughput),
    ("profile_attribution.json", collect::profile_attribution),
];

/// Where the recorded files live: `crates/bench/baselines/`.
pub fn baseline_dir() -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "baselines"].iter().collect()
}

/// Collects every baseline fresh and diffs it against its file in
/// `dir`. `Ok` carries the number of recorded counters compared;
/// `Err` every difference and unreadable file, each prefixed with its
/// file name.
pub fn check(dir: &Path) -> Result<usize, Vec<String>> {
    let mut compared = 0;
    let mut failures = Vec::new();
    for (file, collect) in BASELINES {
        let fresh = collect();
        let recorded = std::fs::read_to_string(dir.join(file))
            .map_err(|e| e.to_string())
            .and_then(|text| decode(&text));
        match recorded {
            Ok(rows) => {
                compared += rows.iter().map(Row::counters).sum::<usize>();
                failures.extend(diff(&rows, &fresh).iter().map(|d| format!("{file} {d}")));
            }
            Err(e) => failures.push(format!("{file}: {e}")),
        }
    }
    if failures.is_empty() {
        Ok(compared)
    } else {
        Err(failures)
    }
}

/// Rewrites every baseline file in `dir` from its collector.
pub fn record(dir: &Path) -> std::io::Result<()> {
    for (file, collect) in BASELINES {
        std::fs::write(dir.join(file), render(&collect()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(build: &str, cycles: u64) -> Row {
        Row::default()
            .name("build", build)
            .name("kernel", "dispatch")
            .count("insts", 1_000_000)
            .count("cycles", cycles)
    }

    fn rows() -> Vec<Row> {
        vec![cell("vanilla", 2_000_000), cell("CPI", 2_600_000)]
    }

    /// The rows of a recorded baseline file.
    fn recorded(file: &str) -> Vec<Row> {
        let text = std::fs::read_to_string(baseline_dir().join(file)).expect("file exists");
        decode(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
    }

    /// `rows` with counter `field` of row `key` moved by `delta`.
    fn moved(rows: &[Row], key: &str, field: &str, delta: i64) -> Vec<Row> {
        let mut out = rows.to_vec();
        let row = out
            .iter_mut()
            .find(|r| r.key() == key)
            .unwrap_or_else(|| panic!("no row [{key}]"));
        let Some(Value::Count(v)) = row.0.get(field) else {
            panic!("[{key}] has no counter {field}");
        };
        *row = row
            .clone()
            .count(field, v.checked_add_signed(delta).unwrap());
        out
    }

    #[test]
    fn identical_counters_pass() {
        assert_eq!(diff(&rows(), &rows()), Vec::<String>::new());
    }

    #[test]
    fn every_difference_is_reported() {
        let recorded = vec![
            cell("vanilla", 2_000_000),
            cell("CPI", 2_600_000),
            cell("PAC", 2_700_000).count("pac_signs", 60_002),
        ];
        let fresh = vec![
            cell("vanilla", 2_000_001),               // changed value
            cell("PAC", 2_700_000).count("walk", 15), // missing + extra field
            cell("PACTight", 2_700_000),              // extra row
        ]; // and the CPI row is missing
        let report = diff(&recorded, &fresh);
        assert_eq!(
            report,
            [
                "[build=vanilla kernel=dispatch] cycles: recorded 2000000, fresh 2000001",
                "[build=CPI kernel=dispatch]: recorded row missing from the fresh run",
                "[build=PAC kernel=dispatch] pac_signs: recorded 60002, fresh row lacks it",
                "[build=PAC kernel=dispatch] walk: fresh 15, not recorded",
                "[build=PACTight kernel=dispatch]: fresh row not recorded",
            ]
        );
    }

    /// A drop on a deterministic counter is as often an under-counting
    /// bug as a win, so it fails exactly like growth, by any amount.
    #[test]
    fn an_unexplained_drop_fails_like_growth() {
        for cycles in [1_999_999, 2_000_001, 1_880_000, 2_120_000] {
            let fresh = [cell("vanilla", cycles), cell("CPI", 2_600_000)];
            let report = diff(&rows(), &fresh);
            assert_eq!(report.len(), 1, "{report:?}");
            assert!(report[0].contains(&format!("fresh {cycles}")));
        }
    }

    #[test]
    fn missing_fresh_rows_and_shapes_are_errors_not_passes() {
        assert_eq!(diff(&rows(), &[]).len(), 2);
        for bad in [
            "",
            "{}",
            r#"{"rows": [{"build": "CPI", "cycles": 1}], "aggregate": {}}"#,
            r#"{"rows": {"build": "CPI"}}"#,
            r#"{"rows": [["CPI", 1]]}"#,
            r#"{"rows": [{"build": "CPI", "walk_ms": 14.9}]}"#,
            r#"{"rows": [{"build": "CPI", "delta": -1}]}"#,
            r#"{"rows": [{"build": "CPI", "trapped": false}]}"#,
            r#"{"rows": [{"build": "CPI", "fused": [{"op": "CmpBr"}]}]}"#,
            r#"{"rows": [{"cycles": 1}]}"#,
        ] {
            assert!(decode(bad).is_err(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn degenerate_baselines_are_flagged_not_ignored() {
        let err = decode(r#"{"rows": []}"#).unwrap_err();
        assert!(err.contains("no rows"), "{err}");
        // Zero is a value like any other, not an undefined ratio.
        let zero = [cell("vanilla", 0), cell("CPI", 2_600_000)];
        assert_eq!(diff(&zero, &rows()).len(), 1);
        assert_eq!(diff(&rows(), &zero).len(), 1);
    }

    #[test]
    fn duplicate_row_names_are_errors() {
        let page = r#"{"page": "static-page", "insts": 16154, "cycles": 23668}"#;
        let err = decode(&format!("{{\"rows\": [{page}, {page}]}}")).unwrap_err();
        assert_eq!(err, "[page=static-page]: duplicate row name");
        let twice = [cell("CPI", 1), cell("CPI", 2)];
        assert_eq!(
            diff(&rows(), &twice),
            ["fresh rows: [build=CPI kernel=dispatch]: duplicate row name"]
        );
    }

    #[test]
    fn render_then_decode_round_trips() {
        let hostile = Row::default()
            .name("func", "quote\" back\\slash\n名前")
            .count("calls", u64::from(u32::MAX) + 1);
        let rows = [rows(), vec![hostile]].concat();
        let text = render(&rows);
        assert_eq!(decode(&text), Ok(rows));
        // Names come first and `cycles` is followed by another field:
        // the benchmark package edits the first `"cycles": ` count of
        // `engine_compare.json` up to the next comma.
        assert!(text.starts_with(
            "{\"rows\": [\n  {\"build\": \"vanilla\", \"kernel\": \"dispatch\", \
             \"cycles\": 2000000, \"insts\": 1000000},\n"
        ));
    }

    #[test]
    fn webserver_reset_cost_gates_dirty_page_growth() {
        let rows = recorded("webserver_throughput.json");
        for page in ["static-page", "wsgi-test-page", "dynamic-page"] {
            for store in ["array-4K", "array-2M", "two-level", "hashtable"] {
                let key = format!("page={page} store={store}");
                for field in [
                    "pages_dirtied",
                    "bytes_restored",
                    "store_bytes_restored",
                    "meta_entries_dropped",
                ] {
                    assert_eq!(diff(&rows, &moved(&rows, &key, field, 1)).len(), 1);
                }
            }
        }
    }

    #[test]
    fn pool_counters_are_gated_two_sided() {
        let rows = recorded("webserver_throughput.json");
        for field in ["insts", "cycles"] {
            for delta in [-1, 1] {
                let fresh = moved(&rows, "page=dynamic-page store=array-2M", field, delta);
                assert_eq!(diff(&rows, &fresh).len(), 1);
            }
        }
    }

    #[test]
    fn pac_counter_rows_are_gated_two_sided() {
        for (file, key) in [
            ("defense_matrix.json", "build=PAC kernel=dispatch"),
            ("spec_overhead.json", "build=PACTight workload=gcc"),
        ] {
            let rows = recorded(file);
            for field in ["pac_signs", "pac_auths"] {
                for delta in [-1, 1] {
                    let fresh = moved(&rows, key, field, delta);
                    assert_eq!(diff(&rows, &fresh).len(), 1, "{file} [{key}] {field}");
                }
            }
        }
        // A PACTight-incompatible cell quietly starting to pass is a
        // defense-semantics change.
        let rows = recorded("spec_overhead.json");
        let fresh = moved(&rows, "build=PACTight workload=gcc", "trapped", -1);
        assert_eq!(
            diff(&rows, &fresh),
            ["[build=PACTight workload=gcc] trapped: recorded 1, fresh 0"]
        );
    }

    #[test]
    fn ripe_verdicts_are_exact_not_thresholded() {
        let rows = recorded("defense_matrix.json");
        for mechanism in ["safestack", "CPS", "CPI", "PAC", "PACTight"] {
            let key = format!("mechanism={mechanism}");
            assert_eq!(diff(&rows, &moved(&rows, &key, "detected", 1)).len(), 1);
        }
        let fresh = moved(&rows, "mechanism=PAC", "hijacked", -1);
        assert_eq!(
            diff(&rows, &fresh),
            ["[mechanism=PAC] hijacked: recorded 12, fresh 11"]
        );
    }
}
