//! JSON emission for the `--json` report mode.
//!
//! The reports are written with the server's [`Json`] (the same writer
//! and parser `bench_guard` reads them back with); this module only adds
//! the [`ToJson`] trait the report structs implement, and [`arr`].

pub use jqi_server::json::Json;

/// Report structs that can render themselves as JSON.
pub trait ToJson {
    /// The JSON value of `self`.
    fn to_json(&self) -> Json;
}

/// An array of anything convertible via [`ToJson`].
pub fn arr<'a, T: ToJson + 'a>(items: impl IntoIterator<Item = &'a T>) -> Json {
    Json::Arr(items.into_iter().map(ToJson::to_json).collect())
}
