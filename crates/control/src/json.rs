//! Hand-rolled JSON emission helpers for the provenance endpoint.
//!
//! The control plane emits small, flat documents; a string escape (the analyzer's,
//! shared with its `/analyze` report) and a couple of composition helpers keep the
//! provenance services free of a JSON library.

/// Escapes `s` for inclusion in a JSON string literal (quotes not included).
pub use genealog_analysis::json_escape as escape;

/// Renders a JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Joins already-rendered JSON values into an array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Joins `(key, already-rendered value)` pairs into an object.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&string(key));
        out.push(':');
        out.push_str(&value);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_characters_and_quotes() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn composes_objects_and_arrays() {
        let doc = object([
            ("id", string("3#0")),
            ("n", "4".to_string()),
            ("xs", array(["1".to_string(), "2".to_string()])),
        ]);
        assert_eq!(doc, r#"{"id":"3#0","n":4,"xs":[1,2]}"#);
        assert_eq!(array([]), "[]");
        assert_eq!(object([]), "{}");
    }
}
