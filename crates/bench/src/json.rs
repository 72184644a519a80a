//! The one JSON writer behind the `BENCH_*.json` artefacts.

use std::path::Path;

/// A JSON value. Numbers and booleans are stored already formatted
/// ([`Json::lit`], [`Json::fixed`]), so every artefact field fixes its own
/// precision and a deterministic experiment regenerates byte for byte.
pub enum Json {
    Null,
    Lit(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

fn join<T>(out: &mut String, items: &[T], sep: &str, mut each: impl FnMut(&T, &mut String)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        each(item, out);
    }
}

impl Json {
    /// An integer, a boolean, or a float in its shortest form.
    pub fn lit(v: impl std::fmt::Display) -> Json {
        Json::Lit(v.to_string())
    }

    /// A float with exactly `decimals` fractional digits.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Lit(format!("{v:.decimals$}"))
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Depth 0 is the document: its fields go one per line, and a field
    /// that holds an array of objects puts one element per line. Everything
    /// deeper renders inline.
    fn render(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Lit(v) => out.push_str(v),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' | '\\' => out.extend(['\\', c]),
                        '\n' => out.push_str("\\n"),
                        c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                let rows = depth == 1 && matches!(items.first(), Some(Json::Obj(_)));
                let (open, sep, close) = match rows {
                    true => ("[\n    ", ",\n    ", "\n  ]"),
                    false => ("[", ", ", "]"),
                };
                out.push_str(open);
                join(out, items, sep, |v, out| v.render(out, depth + 1));
                out.push_str(close);
            }
            Json::Obj(fields) => {
                let (open, sep, close) = match depth {
                    0 => ("{\n  ", ",\n  ", "\n}\n"),
                    _ => ("{", ", ", "}"),
                };
                out.push_str(open);
                join(out, fields, sep, |(k, v), out| {
                    out.push_str(&format!("\"{k}\": "));
                    v.render(out, depth + 1);
                });
                out.push_str(close);
            }
        }
    }

    pub fn document(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out
    }

    /// Writes the document as `dir/file` and says so.
    pub fn write(&self, dir: &Path, file: &str) {
        let path = dir.join(file);
        std::fs::write(&path, self.document()).expect("write artefact");
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn nested_sample_renders_to_the_expected_literal() {
        let doc = Json::Obj(vec![
            ("name", Json::str("a \"quoted\\\" line\nbreak\ttab")),
            ("none", Json::Null),
            ("scale", Json::Obj(vec![("flows", Json::lit(20_000))])),
            ("loads", Json::Arr(vec![Json::lit(0.15), Json::lit(0.3)])),
            (
                "points",
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("ok", Json::lit(true)),
                        ("ms", Json::fixed(2.0 / 3.0, 3)),
                    ]),
                    Json::Obj(vec![("ok", Json::lit(false)), ("ms", Json::fixed(7.0, 1))]),
                ]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        let expected = r#"{
  "name": "a \"quoted\\\" line\nbreak\u0009tab",
  "none": null,
  "scale": {"flows": 20000},
  "loads": [0.15, 0.3],
  "points": [
    {"ok": true, "ms": 0.667},
    {"ok": false, "ms": 7.0}
  ],
  "empty": []
}
"#;
        assert_eq!(doc.document(), expected);
    }
}
