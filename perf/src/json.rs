//! JSON output.  Values are `tce_calib`'s [`Json`] (whose parser reads the
//! result files back for `--compare`); this module adds the emitter and a
//! few constructors.

pub use tce_core::calib::json::Json;

/// Serialize on one line.  Numbers print with every digit (`{:?}` is the
/// shortest text that parses back to the same `f64`); whole numbers print
/// without a fraction so counts read as counts.  Non-finite numbers have
/// no JSON spelling and print as `null`.
pub fn to_line(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
            out.push_str(&format!("{}", *n as i64));
        }
        Json::Num(n) => out.push_str(&format!("{n:?}")),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(key, out);
                out.push_str(": ");
                write(item, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// A number value.
pub fn num(x: f64) -> Json {
    Json::Num(x)
}

/// An array of numbers.
pub fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().copied().map(Json::Num).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_round_trips_through_the_parser() {
        let doc = obj([
            ("name", s("a \"quoted\"\\ line\nbreak\ttab \u{1} é")),
            ("count", num(20100.0)),
            ("time", num(1.2034567890123457)),
            ("tiny", num(3.0e-9)),
            ("neg", num(-0.5)),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
            ),
            ("nested", obj([("xs", nums(&[1.0, 2.5, 1.0e21]))])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let line = to_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn whole_numbers_print_as_counts_and_nan_as_null() {
        assert_eq!(to_line(&num(1000.0)), "1000");
        assert_eq!(to_line(&num(0.1)), "0.1");
        assert_eq!(to_line(&num(f64::NAN)), "null");
    }
}
