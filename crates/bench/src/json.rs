//! The reports as the JSON they are written as.
//!
//! Every report is built once, where it is measured, as the server's
//! [`Json`] object it is printed or written as (the writer and parser
//! `bench_guard` reads it back with). [`field`] and [`num`] build an
//! object's fields; [`at`] reads a value back by dotted path, for
//! `bench_guard`, the text tables and the tests.

pub use jqi_server::json::Json;

/// A named value as a report-object field.
pub fn field(name: &str, value: Json) -> (String, Json) {
    (name.to_string(), value)
}

/// A named number as a report-object field.
pub fn num(name: &str, n: f64) -> (String, Json) {
    field(name, Json::Num(n))
}

/// The value at `path` in `doc`: object keys joined by `.`; a step into
/// an array takes an index, or else the element whose first field is the
/// string `step` (a phase by its name, say `phases.batch.latency`).
pub fn at<'j>(doc: &'j Json, path: &str) -> Option<&'j Json> {
    path.split('.').try_fold(doc, |value, step| match value {
        Json::Arr(items) => match step.parse::<usize>() {
            Ok(index) => items.get(index),
            Err(_) => items.iter().find(|item| match item {
                Json::Obj(fields) => fields.first().and_then(|(_, v)| v.as_str()) == Some(step),
                _ => false,
            }),
        },
        _ => value.get(step),
    })
}

/// The number at `path`, if there is one.
pub fn num_at(doc: &Json, path: &str) -> Option<f64> {
    at(doc, path)?.as_num()
}

/// The number at `path` of a report this crate built; panics naming the
/// path if there is none, so a mistyped path in a table fails loudly.
pub fn f64_at(doc: &Json, path: &str) -> f64 {
    num_at(doc, path).unwrap_or_else(|| panic!("report has no number at {path:?}"))
}

/// The string at `path` of a report this crate built; panics like
/// [`f64_at`].
pub fn str_at<'j>(doc: &'j Json, path: &str) -> &'j str {
    at(doc, path)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("report has no string at {path:?}"))
}

/// The elements of the array at `path` of a report this crate built;
/// panics like [`f64_at`].
pub fn arr_at<'j>(doc: &'j Json, path: &str) -> &'j [Json] {
    at(doc, path)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("report has no array at {path:?}"))
}

/// Every leaf key path of `doc` in document order, each once, with array
/// indices collapsed to `[]`: a report's shape, comparable with the shape
/// of the committed baseline it is guarded against.
#[cfg(test)]
pub(crate) fn leaf_paths(doc: &Json) -> Vec<String> {
    fn walk(value: &Json, path: &str, out: &mut Vec<String>) {
        match value {
            Json::Obj(fields) => {
                for (key, field) in fields {
                    let path = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    walk(field, &path, out);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    walk(item, &format!("{path}[]"), out);
                }
            }
            _ => {
                if !out.iter().any(|p| p == path) {
                    out.push(path.to_string());
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(doc, "", &mut out);
    out
}

/// The committed CI baseline `ci/<name>`, parsed.
#[cfg(test)]
pub(crate) fn ci_baseline(name: &str) -> Json {
    let path = format!("{}/../../ci/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed baseline");
    Json::parse(&text).expect("baseline parses")
}
