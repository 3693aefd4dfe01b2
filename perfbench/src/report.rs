//! The result line, the run manifest, and the minimal JSON they use
//! (the parser is compiled for the tests only).
//!
//! The benchmark's last stdout line is the [`Outcome`]: exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. The [`Manifest`] is
//! printed on the line before it and stored with the trace, so every
//! result records how it was produced.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `us`, `1/s`.
    pub unit: String,
}

impl Metric {
    /// A metric named `name` in `unit`.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every correctness check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error replies, timeouts, wrong values,
    /// simulator errors).
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The single-line JSON object the benchmark prints last.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(&m.unit)
            );
        }
        s.push_str("}}");
        s
    }

    #[cfg(test)]
    /// Parses what [`Outcome::to_json`] writes.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not such an object.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let metrics = v
            .get("metrics")?
            .as_object()?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m.get("value")?.as_f64()?,
                    unit: m.get("unit")?.as_str()?.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            metrics,
        })
    }
}

/// How a result was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Kernel dispatch in effect: `avx2` or `scalar`, with the
    /// `MEMLAT_NO_SIMD` setting.
    pub simd: String,
    /// Simulator worker threads, or client connections for the server.
    pub threads: usize,
    /// Cargo profile the benchmark was built with.
    pub profile: String,
    /// Source revision, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Workload parameters as `(name, value)`.
    pub params: Vec<(String, String)>,
}

impl Manifest {
    /// Single-line JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
             \"simd\": {}, \"threads\": {}, \"profile\": {}, \"git_rev\": {}, \"params\": {{",
            quote(&self.workload),
            self.seed,
            number(self.seconds),
            self.trace,
            self.nproc,
            quote(&self.simd),
            self.threads,
            quote(&self.profile),
            quote(&self.git_rev),
        );
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", quote(k), quote(v));
        }
        s.push_str("}}");
        s
    }

    #[cfg(test)]
    /// Parses what [`Manifest::to_json`] writes.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not such an object.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let params = v
            .get("params")?
            .as_object()?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_str()?.to_string())))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            seconds: v.get("seconds")?.as_f64()?,
            trace: v.get("trace")?.as_bool()?,
            nproc: v.get("nproc")?.as_f64()? as usize,
            simd: v.get("simd")?.as_str()?.to_string(),
            threads: v.get("threads")?.as_f64()? as usize,
            profile: v.get("profile")?.as_str()?.to_string(),
            git_rev: v.get("git_rev")?.as_str()?.to_string(),
            params,
        })
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot hold) become `null`.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A parsed JSON value, with which the tests read the output back.
/// Numbers keep their source text so integers beyond 2^53 (seeds)
/// survive.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

#[cfg(test)]
impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    ///
    /// # Errors
    ///
    /// Not an object, or no such member.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    /// The members of an object.
    ///
    /// # Errors
    ///
    /// Not an object.
    pub fn as_object(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("expected an object, got {other:?}")),
        }
    }

    /// A number as `f64`.
    ///
    /// # Errors
    ///
    /// Not a number.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(t) => t.parse().map_err(|e| format!("bad number {t:?}: {e}")),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    /// A non-negative integer as `u64`, exactly.
    ///
    /// # Errors
    ///
    /// Not an unsigned integer.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(t) => t.parse().map_err(|e| format!("bad integer {t:?}: {e}")),
            other => Err(format!("expected an integer, got {other:?}")),
        }
    }

    /// A string.
    ///
    /// # Errors
    ///
    /// Not a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    /// A boolean.
    ///
    /// # Errors
    ///
    /// Not a boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, got {other:?}")),
        }
    }
}

#[cfg(test)]
fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

#[cfg(test)]
fn expect(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {pos}",
            String::from_utf8_lossy(lit)
        ))
    }
}

#[cfg(test)]
fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, b"null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, b"true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, b"false").map(|()| Json::Bool(false)),
        Some(b'"') => string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b":")?;
                members.push((key, value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            Ok(Json::Num(
                String::from_utf8_lossy(&b[start..*pos]).into_owned(),
            ))
        }
        Some(c) => Err(format!("unexpected {:?} at byte {pos}", *c as char)),
    }
}

#[cfg(test)]
fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b"\"")?;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "short \\u escape".to_string())?;
                        let code = u32::from_str_radix(&String::from_utf8_lossy(hex), 16)
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            _ => {
                // Copy one UTF-8 sequence starting at `c`.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && (b[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                out.push_str(&String::from_utf8_lossy(&b[start..end]));
                *pos = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_with_every_digit() {
        let o = Outcome {
            correct: true,
            attempted: 123_456,
            failed: 0,
            metrics: vec![
                Metric::new("keys_per_s", 4_123_456.789_012_3, "1/s"),
                Metric::new("setup_s", 0.812_700_000_000_1, "s"),
                Metric::new("hit_ratio", 1e-7, "ratio"),
            ],
        };
        let line = o.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 123456"));
        assert_eq!(Outcome::from_json(&line).unwrap(), o);
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            workload: "sim_paper".into(),
            seed: u64::MAX,
            seconds: 10.0,
            trace: true,
            nproc: 2,
            simd: "avx2 (MEMLAT_NO_SIMD unset)".into(),
            threads: 1,
            profile: "release".into(),
            git_rev: "unknown".into(),
            params: vec![
                ("servers".into(), "4".into()),
                ("note".into(), "quote \" and µ".into()),
            ],
        };
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn parser_rejects_garbage_and_reads_nesting() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
        let v = Json::parse(" {\"a\": [1, -2.5e3, null, false], \"b\": {\"c\": \"\\u00b5\"}} ")
            .unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str().unwrap(), "µ");
        match v.get("a").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items.len(), 4);
                assert_eq!(items[1].as_f64().unwrap(), -2500.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_finite_values_are_null() {
        let o = Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![Metric::new("x", f64::NAN, "s")],
        };
        assert!(o.to_json().contains("\"value\": null"));
    }
}
