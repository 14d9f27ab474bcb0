//! Chrome trace-event / Perfetto JSON export, and its validating reader.
//!
//! The exporter maps one simulated cycle to one microsecond of trace time
//! (the `ts` unit of the Chrome trace-event format), so a Perfetto or
//! `chrome://tracing` timeline reads directly in cycles. Track layout:
//!
//! | pid | process       | events |
//! |-----|---------------|--------|
//! | 1   | `handlers`    | `B`/`E` spans per hardware thread (tid = pe * 1024 + thread) |
//! | 2   | `noc`         | `i` instants: packet inject (tid 0) and deliver (tid 1) |
//! | 3   | `links`       | `X` complete events per link (tid = router * 256 + port), dur = serialization |
//! | 4   | `deadlines`   | `i` instants per object (tid = object id) |
//! | 5   | `scheduler`   | `X` complete events for fast-forwarded spans |
//! | 6   | `faults`      | `i` instants: injections (tid 0), retries (tid 1), reroutes (tid 2) |
//!
//! Emitted JSON is always well formed even on truncated input: a
//! `HandlerEnd` whose begin was evicted from the ring is skipped, and
//! spans still open when the capture ends are closed at the last
//! timestamp. [`validate_chrome_trace`] checks exactly those invariants
//! (parseable, monotone non-decreasing `ts`, matched begin/end pairs)
//! with a dependency-free JSON reader — the trace smoke tests' oracle.

use crate::event::TraceEvent;
use crate::heatmap::NocHeatmap;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const PID_HANDLERS: u64 = 1;
const PID_NOC: u64 = 2;
const PID_LINKS: u64 = 3;
const PID_DEADLINES: u64 = 4;
const PID_SCHED: u64 = 5;
const PID_FAULTS: u64 = 6;

/// Renders captured events (simulation order) as Chrome trace-event JSON.
///
/// `dropped` is the ring's eviction count, recorded under `otherData`;
/// `heatmap`, when present, is embedded as a custom `nocHeatmap` section
/// Perfetto ignores but tooling can read back.
pub fn export_chrome_trace(
    events: &[TraceEvent],
    dropped: u64,
    heatmap: Option<&NocHeatmap>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n\"displayTimeUnit\": \"ms\",\n");
    let _ = writeln!(s, "\"otherData\": {{\"droppedEvents\": {dropped}}},");
    if let Some(h) = heatmap {
        s.push_str("\"nocHeatmap\": ");
        write_heatmap(&mut s, h);
        s.push_str(",\n");
    }
    s.push_str("\"traceEvents\": [\n");
    let mut rows: Vec<String> = Vec::with_capacity(events.len() + 5);
    for (pid, name) in [
        (PID_HANDLERS, "handlers"),
        (PID_NOC, "noc"),
        (PID_LINKS, "links"),
        (PID_DEADLINES, "deadlines"),
        (PID_SCHED, "scheduler"),
        (PID_FAULTS, "faults"),
    ] {
        rows.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"args\": {{\"name\": \"{name}\"}}}}"
        ));
    }
    // Open-span depth per (pid, tid): a HandlerEnd without a live begin
    // (evicted from the ring) is skipped; leftovers are closed at the end.
    let mut open: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut max_ts = 0u64;
    for ev in events {
        max_ts = max_ts.max(ev.cycle());
        match *ev {
            TraceEvent::FlitInject {
                cycle,
                src,
                dst,
                bytes,
            } => rows.push(format!(
                "{{\"name\": \"inject\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {cycle}, \"pid\": {PID_NOC}, \"tid\": 0, \"args\": {{\"src\": {src}, \"dst\": {dst}, \"bytes\": {bytes}}}}}"
            )),
            TraceEvent::FlitDeliver {
                cycle,
                src,
                dst,
                latency,
            } => rows.push(format!(
                "{{\"name\": \"deliver\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {cycle}, \"pid\": {PID_NOC}, \"tid\": 1, \"args\": {{\"src\": {src}, \"dst\": {dst}, \"latency\": {latency}}}}}"
            )),
            TraceEvent::LinkTransfer {
                cycle,
                router,
                port,
                to,
                flits,
                ser,
            } => rows.push(format!(
                "{{\"name\": \"r{router}.p{port}->r{to}\", \"ph\": \"X\", \"ts\": {cycle}, \"dur\": {ser}, \"pid\": {PID_LINKS}, \"tid\": {}, \"args\": {{\"flits\": {flits}}}}}",
                router as u64 * 256 + port as u64
            )),
            TraceEvent::HandlerStart {
                cycle,
                pe,
                thread,
                object,
            } => {
                let tid = pe as u64 * 1024 + thread as u64;
                *open.entry((PID_HANDLERS, tid)).or_insert(0) += 1;
                rows.push(format!(
                    "{{\"name\": \"o{object}\", \"ph\": \"B\", \"ts\": {cycle}, \"pid\": {PID_HANDLERS}, \"tid\": {tid}, \"args\": {{\"object\": {object}}}}}"
                ));
            }
            TraceEvent::HandlerEnd { cycle, pe, thread } => {
                let tid = pe as u64 * 1024 + thread as u64;
                let depth = open.entry((PID_HANDLERS, tid)).or_insert(0);
                if *depth > 0 {
                    *depth -= 1;
                    rows.push(format!(
                        "{{\"ph\": \"E\", \"ts\": {cycle}, \"pid\": {PID_HANDLERS}, \"tid\": {tid}}}"
                    ));
                }
            }
            TraceEvent::DeadlineMiss {
                cycle,
                object,
                latency,
                budget,
            } => rows.push(format!(
                "{{\"name\": \"miss o{object}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {cycle}, \"pid\": {PID_DEADLINES}, \"tid\": {object}, \"args\": {{\"latency\": {latency}, \"budget\": {budget}}}}}"
            )),
            TraceEvent::FastForward { cycle, span } => rows.push(format!(
                "{{\"name\": \"fast-forward\", \"ph\": \"X\", \"ts\": {cycle}, \"dur\": {span}, \"pid\": {PID_SCHED}, \"tid\": 0, \"args\": {{\"span\": {span}}}}}"
            )),
            TraceEvent::FaultInjected {
                cycle,
                kind,
                target,
                arg,
            } => rows.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {cycle}, \"pid\": {PID_FAULTS}, \"tid\": 0, \"args\": {{\"kind\": {kind}, \"target\": {target}, \"arg\": {arg}}}}}",
                fault_kind_name(kind)
            )),
            TraceEvent::RetryIssued {
                cycle,
                pe,
                thread,
                attempt,
            } => rows.push(format!(
                "{{\"name\": \"retry\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {cycle}, \"pid\": {PID_FAULTS}, \"tid\": 1, \"args\": {{\"pe\": {pe}, \"thread\": {thread}, \"attempt\": {attempt}}}}}"
            )),
            TraceEvent::Reroute {
                cycle,
                router,
                port,
            } => rows.push(format!(
                "{{\"name\": \"reroute r{router}.p{port}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {cycle}, \"pid\": {PID_FAULTS}, \"tid\": 2, \"args\": {{\"router\": {router}, \"port\": {port}}}}}"
            )),
        }
    }
    // Close every span still open at capture end so B/E always pair.
    for (&(pid, tid), &depth) in &open {
        for _ in 0..depth {
            rows.push(format!(
                "{{\"ph\": \"E\", \"ts\": {max_ts}, \"pid\": {pid}, \"tid\": {tid}}}"
            ));
        }
    }
    for (i, row) in rows.iter().enumerate() {
        s.push_str(row);
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("]\n}\n");
    s
}

/// Human-readable label for a [`TraceEvent::FaultInjected`] discriminant.
fn fault_kind_name(kind: u8) -> &'static str {
    match kind {
        0 => "link-transient",
        1 => "link-dead",
        2 => "router-stall",
        3 => "drop",
        4 => "corrupt",
        5 => "pe-crash",
        6 => "pe-restart",
        _ => "fault",
    }
}

fn write_heatmap(s: &mut String, h: &NocHeatmap) {
    let _ = write!(s, "{{\"window\": {}, \"links\": [", h.window);
    for (i, l) in h.links.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"router\": {}, \"port\": {}, \"to\": {}, \"busy_cycles\": {}, \"packets\": {}, \"flits\": {}}}",
            if i == 0 { "" } else { ", " },
            l.router,
            l.port,
            l.to,
            l.busy_cycles,
            l.packets,
            l.flits
        );
    }
    s.push_str("], \"routers\": [");
    for (i, r) in h.routers.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"router\": {}, \"queue_integral\": {}, \"peak_queue\": {}, \"delivered\": {}}}",
            if i == 0 { "" } else { ", " },
            r.router,
            r.queue_integral,
            r.peak_queue,
            r.delivered
        );
    }
    s.push_str("]}");
}

/// What [`validate_chrome_trace`] verified about a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Entries in `traceEvents` (metadata included).
    pub events: usize,
    /// Matched begin/end span pairs.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Complete (`X`) events.
    pub completes: usize,
    /// Largest timestamp seen.
    pub max_ts: u64,
}

/// Parses `json` as a Chrome trace-event file and checks its invariants:
/// syntactically valid JSON, a `traceEvents` array of objects, timestamps
/// monotone non-decreasing in emission order, and every `E` matched by an
/// earlier unclosed `B` on the same `(pid, tid)` track (with none left
/// open at the end).
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let root = json::parse(json)?;
    let obj = root.as_obj().ok_or("root is not an object")?;
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut check = TraceCheck {
        events: events.len(),
        spans: 0,
        instants: 0,
        completes: 0,
        max_ts: 0,
    };
    let mut last_ts: Option<f64> = None;
    let mut open: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let fields = ev.as_obj().ok_or(format!("event {i} is not an object"))?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let ph = get("ph")
            .and_then(json::Value::as_str)
            .ok_or(format!("event {i} has no ph"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = get("ts")
            .and_then(json::Value::as_num)
            .ok_or(format!("event {i} ({ph}) has no ts"))?;
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!("event {i}: ts {ts} < previous {prev}"));
            }
        }
        last_ts = Some(ts);
        check.max_ts = check.max_ts.max(ts as u64);
        let track = (
            get("pid").and_then(json::Value::as_num).unwrap_or(0.0) as u64,
            get("tid").and_then(json::Value::as_num).unwrap_or(0.0) as u64,
        );
        match ph {
            "B" => *open.entry(track).or_insert(0) += 1,
            "E" => {
                let depth = open.entry(track).or_insert(0);
                if *depth == 0 {
                    return Err(format!("event {i}: E without open B on track {track:?}"));
                }
                *depth -= 1;
                check.spans += 1;
            }
            "i" | "I" => check.instants += 1,
            "X" => check.completes += 1,
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    if let Some((track, depth)) = open.iter().find(|(_, &d)| d > 0) {
        return Err(format!("{depth} unclosed B span(s) on track {track:?}"));
    }
    Ok(check)
}

/// A minimal recursive-descent JSON reader — just enough to validate the
/// exporter's own output (and any standard trace file). No numbers beyond
/// f64, strings with the standard escapes.
mod json {
    /// A parsed JSON value. Object keys keep file order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number, as f64.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, keys in file order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {pos}",
                c as char,
                pos = *pos
            ))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => obj(b, pos),
            Some(b'[') => arr(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => lit(b, pos, "null", Value::Null),
            Some(_) => num(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or(format!("bad number at byte {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape whole.
                    // Both are ASCII, so in the `&str` `parse` was handed
                    // the run ends on a char boundary: the input is read
                    // once, not once per character.
                    let run = (b[*pos..].iter())
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(b.len() - *pos);
                    let text = std::str::from_utf8(&b[*pos..*pos + run])
                        .map_err(|_| "invalid UTF-8 in string".to_owned())?;
                    out.push_str(text);
                    *pos += run;
                }
            }
        }
    }

    fn arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected , or ] at byte {}", *pos)),
            }
        }
    }

    fn obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            expect(b, pos, b':')?;
            fields.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected , or }} at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatmap::{LinkLoad, RouterLoad};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::FlitInject {
                cycle: 0,
                src: 5,
                dst: 2,
                bytes: 40,
            },
            TraceEvent::LinkTransfer {
                cycle: 1,
                router: 5,
                port: 0,
                to: 4,
                flits: 6,
                ser: 3,
            },
            TraceEvent::HandlerStart {
                cycle: 2,
                pe: 1,
                thread: 3,
                object: 7,
            },
            TraceEvent::FlitDeliver {
                cycle: 4,
                src: 5,
                dst: 2,
                latency: 4,
            },
            TraceEvent::DeadlineMiss {
                cycle: 5,
                object: 7,
                latency: 900,
                budget: 300,
            },
            TraceEvent::HandlerEnd {
                cycle: 6,
                pe: 1,
                thread: 3,
            },
            TraceEvent::FastForward {
                cycle: 7,
                span: 120,
            },
            TraceEvent::FaultInjected {
                cycle: 8,
                kind: 1,
                target: 5,
                arg: 0,
            },
            TraceEvent::Reroute {
                cycle: 8,
                router: 5,
                port: 0,
            },
            TraceEvent::RetryIssued {
                cycle: 9,
                pe: 1,
                thread: 3,
                attempt: 1,
            },
        ]
    }

    #[test]
    fn export_round_trips_through_validator() {
        let json = export_chrome_trace(&sample_events(), 3, None);
        let check = validate_chrome_trace(&json).expect("own output validates");
        assert_eq!(check.spans, 1);
        assert_eq!(check.instants, 6);
        assert_eq!(check.completes, 2);
        assert_eq!(check.max_ts, 9);
        assert!(json.contains("\"droppedEvents\": 3"));
        assert!(json.contains("\"name\": \"link-dead\""));
        assert!(json.contains("\"name\": \"reroute r5.p0\""));
        assert!(json.contains("\"attempt\": 1"));
    }

    #[test]
    fn orphan_end_is_skipped_and_open_begin_is_closed() {
        // An End whose Begin was evicted, then a Begin that never ends.
        let events = vec![
            TraceEvent::HandlerEnd {
                cycle: 1,
                pe: 0,
                thread: 0,
            },
            TraceEvent::HandlerStart {
                cycle: 2,
                pe: 0,
                thread: 1,
                object: 0,
            },
            TraceEvent::FlitInject {
                cycle: 9,
                src: 0,
                dst: 1,
                bytes: 8,
            },
        ];
        let json = export_chrome_trace(&events, 10, None);
        let check =
            validate_chrome_trace(&json).expect("truncated input still exports well-formed");
        assert_eq!(check.spans, 1, "open span auto-closed at max ts");
        assert_eq!(check.max_ts, 9);
    }

    #[test]
    fn heatmap_section_is_embedded() {
        let h = NocHeatmap {
            window: 50,
            links: vec![LinkLoad {
                router: 1,
                port: 0,
                to: 2,
                busy_cycles: 25,
                packets: 5,
                flits: 30,
            }],
            routers: vec![RouterLoad {
                router: 2,
                queue_integral: 10,
                peak_queue: 2,
                delivered: 5,
            }],
        };
        let json = export_chrome_trace(&sample_events(), 0, Some(&h));
        validate_chrome_trace(&json).expect("valid with heatmap section");
        assert!(json.contains("\"nocHeatmap\""));
        assert!(json.contains("\"busy_cycles\": 25"));
    }

    #[test]
    fn validator_rejects_broken_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // Non-monotone timestamps.
        let bad_ts = r#"{"traceEvents": [
            {"ph": "i", "s": "t", "name": "a", "ts": 5, "pid": 1, "tid": 0},
            {"ph": "i", "s": "t", "name": "b", "ts": 4, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(bad_ts).unwrap_err().contains("ts"));
        // E without B.
        let bad_span = r#"{"traceEvents": [
            {"ph": "E", "ts": 1, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(bad_span)
            .unwrap_err()
            .contains("without open B"));
        // B without E.
        let open_span = r#"{"traceEvents": [
            {"ph": "B", "name": "x", "ts": 1, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(open_span)
            .unwrap_err()
            .contains("unclosed"));
    }

    #[test]
    fn strings_keep_multi_byte_characters_and_escapes() {
        let text = r#"["µs→ 😀", "aé\"\\\n", "\u20ac€\u00e9"]"#;
        let got = json::parse(text).expect("valid JSON");
        let want = ["µs→ 😀", "aé\"\\\n", "€€é"].map(|s| json::Value::Str(s.to_owned()));
        assert_eq!(got, json::Value::Arr(want.to_vec()));
        assert!(json::parse("\"unterminated µ").is_err());
    }

    #[test]
    fn empty_capture_exports_metadata_only() {
        let json = export_chrome_trace(&[], 0, None);
        let check = validate_chrome_trace(&json).expect("empty trace is valid");
        assert_eq!(check.spans + check.instants + check.completes, 0);
        assert!(check.events >= 5, "process metadata present");
    }
}
