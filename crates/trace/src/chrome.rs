//! Chrome-trace-event JSON sink (Perfetto / `chrome://tracing`
//! loadable) plus a minimal validating parser used by CI to prove the
//! emitted file is well-formed and carries ≥ 1 complete span per worker
//! lane.
//!
//! The file is a bare JSON array of event objects — the "JSON Array
//! Format" every trace viewer accepts. Each traced run becomes one
//! `pid` (Perfetto renders it as a separate process group), each worker
//! slot one `tid` lane within it; spans are complete (`"ph":"X"`)
//! events with microsecond `ts`/`dur`. Successive [`append_run`] calls
//! in one process accumulate into the same file (the file is rewritten
//! per call), so an example that trains several modes produces one
//! trace with one lane group per mode.

use crate::TraceDump;
use std::fmt::Write as _;
use std::sync::Mutex;

struct Accum {
    path: String,
    next_pid: i64,
    events: Vec<String>,
}

/// Per-process accumulators, keyed by path, so one process can keep
/// appending run groups to each trace file it writes.
static ACCUM: Mutex<Vec<Accum>> = Mutex::new(Vec::new());

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Appends one run's spans to the trace file at `path` as a new `pid`
/// group named `run_label`, rewriting the file. Returns the pid used.
pub fn append_run(path: &str, run_label: &str, dump: &TraceDump) -> std::io::Result<i64> {
    let mut guard = ACCUM.lock().expect("chrome trace accumulator poisoned");
    let idx = match guard.iter().position(|a| a.path == path) {
        Some(i) => i,
        None => {
            guard.push(Accum { path: path.to_string(), next_pid: 1, events: Vec::new() });
            guard.len() - 1
        }
    };
    let accum = &mut guard[idx];
    let pid = accum.next_pid;
    accum.next_pid += 1;

    accum.events.push(format!(
        r#"{{"ph":"M","pid":{pid},"tid":0,"name":"process_name","args":{{"name":"{}"}}}}"#,
        json_escape(run_label)
    ));
    let mut lanes: Vec<u32> = dump.events.iter().map(|e| e.worker).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for w in &lanes {
        accum.events.push(format!(
            r#"{{"ph":"M","pid":{pid},"tid":{w},"name":"thread_name","args":{{"name":"worker-{w}"}}}}"#,
        ));
    }
    for e in &dump.events {
        let name = e
            .labels_name(dump)
            .map(json_escape)
            .unwrap_or_else(|| format!("label-{}", e.label));
        // Microsecond resolution with fractional part so sub-µs spans
        // keep a nonzero duration in the viewer.
        accum.events.push(format!(
            r#"{{"ph":"X","pid":{pid},"tid":{},"name":"{name}","ts":{:.3},"dur":{:.3}}}"#,
            e.worker,
            e.start_ns as f64 / 1e3,
            (e.dur_ns.max(1)) as f64 / 1e3,
        ));
    }

    let mut body = String::from("[\n");
    body.push_str(&accum.events.join(",\n"));
    body.push_str("\n]\n");
    std::fs::write(path, body)?;
    Ok(pid)
}

impl crate::SpanEvent {
    fn labels_name<'a>(&self, dump: &'a TraceDump) -> Option<&'a str> {
        dump.labels.get(self.label as usize).map(|s| s.as_str())
    }
}

// ---------------------------------------------------------------------------
// Validator: a deliberately small recursive-descent JSON parser — just
// enough to prove the file parses and to count complete spans per lane.
// ---------------------------------------------------------------------------

/// A parsed JSON value (validator-internal subset representation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // output; map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

/// What [`validate_str`] proved about a trace file.
#[derive(Debug, Clone)]
pub struct TraceFileSummary {
    /// Total number of events in the file.
    pub total_events: usize,
    /// `(pid, tid, complete-span count)` for every lane that carries at
    /// least one `"ph":"X"` event.
    pub span_lanes: Vec<(i64, i64, usize)>,
    /// Number of `thread_name` metadata lanes declared in the file.
    pub named_lanes: usize,
    /// Number of distinct run groups (pids).
    pub runs: usize,
}

impl TraceFileSummary {
    /// Minimum complete-span count across declared worker lanes — the
    /// CI gate asserts this is ≥ 1.
    pub fn min_spans_per_lane(&self) -> usize {
        self.span_lanes.iter().map(|&(_, _, n)| n).min().unwrap_or(0)
    }
}

/// Validates Chrome-trace JSON content: parses, checks the event-array
/// shape, checks every `X` event is complete (string name, numeric
/// nonnegative `ts`/`dur`, integer pid/tid), and demands every
/// `thread_name`-declared lane carries ≥ 1 complete span.
pub fn validate_str(s: &str) -> Result<TraceFileSummary, String> {
    let doc = parse_json(s)?;
    let events = match doc {
        Json::Arr(items) => items,
        _ => return Err("top-level value must be a JSON array of events".to_string()),
    };
    let mut span_lanes: Vec<(i64, i64, usize)> = Vec::new();
    let mut named: Vec<(i64, i64)> = Vec::new();
    let mut pids: Vec<i64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"ph\""))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric \"pid\""))? as i64;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric \"tid\""))? as i64;
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        match ph {
            "X" => {
                ev.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: X event missing string \"name\""))?;
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X event missing numeric \"ts\""))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X event missing numeric \"dur\""))?;
                if ts.is_nan() || dur.is_nan() || ts < 0.0 || dur <= 0.0 {
                    return Err(format!(
                        "event {i}: X event has non-positive extent (ts={ts}, dur={dur})"
                    ));
                }
                match span_lanes.iter_mut().find(|(p, t, _)| *p == pid && *t == tid) {
                    Some((_, _, n)) => *n += 1,
                    None => span_lanes.push((pid, tid, 1)),
                }
            }
            "M" => {
                if ev.get("name").and_then(Json::as_str) == Some("thread_name") {
                    named.push((pid, tid));
                }
            }
            other => return Err(format!("event {i}: unsupported event type \"{other}\"")),
        }
    }
    for (pid, tid) in &named {
        if !span_lanes.iter().any(|(p, t, n)| p == pid && t == tid && *n > 0) {
            return Err(format!(
                "worker lane pid={pid} tid={tid} declares a thread_name but has no complete span"
            ));
        }
    }
    Ok(TraceFileSummary {
        total_events: events.len(),
        span_lanes,
        named_lanes: named.len(),
        runs: pids.len(),
    })
}

/// [`validate_str`] over a file on disk.
pub fn validate_file(path: &str) -> Result<TraceFileSummary, String> {
    let content =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    validate_str(&content)
}

#[cfg(all(test, not(lsgd_model)))]
mod tests {
    use super::*;
    use crate::{PhaseStats, SpanEvent, TraceDump};

    fn dump_with(events: Vec<SpanEvent>) -> TraceDump {
        TraceDump {
            phases: PhaseStats::empty(),
            counters: Vec::new(),
            events,
            labels: crate::Phase::ALL.iter().map(|p| p.name().to_string()).collect(),
            dropped: 0,
            workers: 2,
        }
    }

    #[test]
    fn parser_handles_the_grammar() {
        let v = parse_json(r#" {"a": [1, -2.5e3, "x\n\"y", true, false, null], "b": {}} "#)
            .unwrap();
        assert_eq!(v.get("a").map(|a| matches!(a, Json::Arr(items) if items.len() == 6)), Some(true));
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("[1,2] garbage").is_err());
        assert!(parse_json(r#"{"unterminated": "x"#).is_err());
    }

    #[test]
    fn append_run_emits_valid_perfetto_json() {
        let path = std::env::temp_dir().join("lsgd_trace_chrome_test.json");
        let path = path.to_str().unwrap();
        let dump = dump_with(vec![
            SpanEvent { worker: 0, label: 1, start_ns: 1_000, dur_ns: 2_000 },
            SpanEvent { worker: 1, label: 3, start_ns: 1_500, dur_ns: 500 },
        ]);
        let pid1 = append_run(path, "run-a", &dump).unwrap();
        let pid2 = append_run(path, "run-b", &dump).unwrap();
        assert_ne!(pid1, pid2);
        let summary = validate_file(path).unwrap();
        assert_eq!(summary.runs, 2);
        assert_eq!(summary.named_lanes, 4);
        assert!(summary.min_spans_per_lane() >= 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn validator_rejects_incomplete_spans() {
        let bad = r#"[{"ph":"X","pid":1,"tid":0,"name":"s","ts":0.0,"dur":0.0}]"#;
        assert!(validate_str(bad).is_err());
        let missing = r#"[{"ph":"X","pid":1,"tid":0,"ts":0.0,"dur":1.0}]"#;
        assert!(validate_str(missing).is_err());
        let orphan_lane = r#"[{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"w"}}]"#;
        assert!(validate_str(orphan_lane).is_err());
    }

    #[test]
    fn zero_duration_spans_are_clamped_on_export() {
        let path = std::env::temp_dir().join("lsgd_trace_chrome_clamp.json");
        let path = path.to_str().unwrap();
        let dump = dump_with(vec![SpanEvent { worker: 0, label: 0, start_ns: 0, dur_ns: 0 }]);
        append_run(path, "clamp", &dump).unwrap();
        let summary = validate_file(path).unwrap();
        assert!(summary.min_spans_per_lane() >= 1);
        let _ = std::fs::remove_file(path);
    }
}
