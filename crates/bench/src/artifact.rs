//! Machine-readable benchmark artifacts.
//!
//! Each benchmark family can drop a `BENCH_<family>.json` file next to its
//! stdout tables so downstream tooling (dashboards, regression trackers)
//! gets the same numbers without scraping aligned-column text. The writer
//! is a deliberately tiny JSON emitter — the container has no serde — with
//! deterministic key order (insertion order), so two runs of the same
//! deterministic figure produce byte-identical artifacts unless wall-clock
//! rates are included.
//!
//! # Examples
//!
//! ```
//! use agilla_bench::artifact::Json;
//!
//! let j = Json::obj([
//!     ("family", Json::str("fig_scale")),
//!     ("motes", Json::int(1024)),
//!     ("rates", Json::arr(vec![Json::num(1.5), Json::num(2.0)])),
//! ]);
//! assert_eq!(
//!     j.render(),
//!     r#"{"family":"fig_scale","motes":1024,"rates":[1.5,2]}"#
//! );
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

/// A JSON value with deterministic (insertion-order) object keys.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(u64),
    /// A finite float; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value.
    pub fn int(n: u64) -> Json {
        Json::Int(n)
    }

    /// A float value.
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// An array value.
    pub fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// An object from `(key, value)` pairs, keys kept in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An optional float: `null` when `None`.
    pub fn opt_num(x: Option<f64>) -> Json {
        x.map_or(Json::Null, Json::Num)
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) if x.is_finite() => {
                // Rust's float Display never emits exponents or infinities
                // for finite values, so this is always valid JSON.
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
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
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `value` to `BENCH_<family>.json` in the current directory (one
/// trailing newline) and reports the outcome on stderr, as
/// `<family>: wrote <path>` or `<family>: artifact not written: <err>`.
/// Benchmark binaries call this after printing their tables; a failure is
/// not fatal — the stdout tables remain the primary output.
pub fn write_artifact(family: &str, value: &Json) {
    match write_artifact_in(std::path::Path::new("."), family, value) {
        Ok(path) => eprintln!("{family}: wrote {}", path.display()),
        Err(e) => eprintln!("{family}: artifact not written: {e}"),
    }
}

/// [`write_artifact`] into an explicit directory (testable without touching
/// the process-global working directory).
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_artifact_in(
    dir: &std::path::Path,
    family: &str,
    value: &Json,
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{family}.json"));
    std::fs::write(&path, value.render() + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::int(42).render(), "42");
        assert_eq!(Json::num(2.5).render(), "2.5");
        assert_eq!(Json::num(10.0).render(), "10");
        assert_eq!(Json::num(f64::NAN).render(), "null");
        assert_eq!(Json::num(f64::INFINITY).render(), "null");
        assert_eq!(Json::opt_num(None).render(), "null");
        assert_eq!(Json::opt_num(Some(1.25)).render(), "1.25");
    }

    #[test]
    fn strings_escape_quotes_and_control_chars() {
        assert_eq!(
            Json::str("a\"b\\c\nd\te\u{1}").render(),
            r#""a\"b\\c\nd\te\u0001""#
        );
    }

    #[test]
    fn objects_keep_insertion_order() {
        let j = Json::obj([
            ("zulu", Json::int(1)),
            ("alpha", Json::arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(j.render(), r#"{"zulu":1,"alpha":[null,false]}"#);
    }

    #[test]
    fn artifact_lands_as_bench_family_json() {
        let dir = std::env::temp_dir().join("agilla_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path =
            write_artifact_in(&dir, "unit_test", &Json::obj([("ok", Json::Bool(true))])).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("BENCH_unit_test.json"), "{path:?}");
        assert_eq!(text, "{\"ok\":true}\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
