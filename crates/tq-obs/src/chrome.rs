//! Chrome trace-event JSON exporter.
//!
//! Renders drained [`SpanEvent`]s as the trace-event format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): an object
//! with a `traceEvents` array of `"M"` (metadata: thread names) and `"X"`
//! (complete: one timed span) events. Timestamps and durations are
//! microseconds; we emit them with nanosecond precision as `micros.nnn`.
//!
//! The crate is dependency-free, so the JSON is hand-rolled here — with
//! exactly the escape set `tq_report::Json` produces (`"`, `\`, `\n`,
//! `\r`, `\t`, other control characters as `\u00xx`), so the output of
//! this exporter re-parses with the workspace's own JSON parser. The
//! verify-script smoke relies on that.

use crate::span::{drain_spans, thread_names, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Synthetic process id for all tracks; the trace describes one process.
const PID: u64 = 1;

pub(crate) fn push_escaped(s: &str, out: &mut String) {
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

/// Nanoseconds rendered as fractional microseconds (`12.345`), the unit
/// Chrome's `ts`/`dur` fields expect. Integer math: no float rounding.
fn push_micros(ns: u64, out: &mut String) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Render `events` (plus `names` as `thread_name` metadata) as a Chrome
/// trace-event JSON document. Events are emitted sorted by start time, so
/// `ts` is monotonically non-decreasing; only tracks that actually carry
/// events get a metadata record.
pub fn chrome_trace(events: &[SpanEvent], names: &BTreeMap<u64, String>) -> String {
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.start_ns, e.tid));

    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    let used: std::collections::BTreeSet<u64> = sorted.iter().map(|e| e.tid).collect();
    for tid in &used {
        if let Some(name) = names.get(tid) {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"args\":{{\"name\":"
            );
            push_escaped(name, &mut out);
            out.push_str("}}");
        }
    }

    for ev in sorted {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        push_escaped(&ev.name, &mut out);
        out.push_str(",\"cat\":");
        push_escaped(ev.cat, &mut out);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\"ts\":",
            ev.tid
        );
        push_micros(ev.start_ns, &mut out);
        out.push_str(",\"dur\":");
        push_micros(ev.dur_ns, &mut out);
        out.push('}');
    }

    out.push_str("]}");
    out
}

/// Drain the global span log and export it: the one-call form used by
/// `--trace-out`. The log is empty afterwards.
pub fn drain_chrome_trace() -> String {
    let events = drain_spans();
    let names = thread_names();
    chrome_trace(&events, &names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use std::borrow::Cow;
    use tq_report::Json;

    fn ev(name: &str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name: Cow::Owned(name.to_string()),
            cat: "test",
            tid,
            start_ns,
            dur_ns,
        }
    }

    fn trace_events(doc: &Json) -> &[Json] {
        doc.get("traceEvents").and_then(Json::as_arr).unwrap()
    }

    #[test]
    fn escapes_hostile_routine_names() {
        let events = [ev("quote\" slash\\ nl\n tab\t bell\u{7}", 1, 0, 10)];
        let text = chrome_trace(&events, &BTreeMap::new());
        assert!(text.contains(r#"quote\" slash\\ nl\n tab\t bell\u0007"#));
        let doc = Json::parse(&text).expect("hostile names still parse");
        let name = trace_events(&doc)[0].get("name").unwrap().as_str().unwrap();
        assert_eq!(name, "quote\" slash\\ nl\n tab\t bell\u{7}");
    }

    #[test]
    fn ts_is_monotonically_non_decreasing() {
        // Deliberately unsorted input: export must sort by start time.
        let events = [
            ev("c", 2, 5_500, 100),
            ev("a", 1, 1_000, 9_000),
            ev("b", 1, 5_500, 100),
            ev("d", 3, 2_250, 4_000),
        ];
        let text = chrome_trace(&events, &BTreeMap::new());
        let doc = Json::parse(&text).unwrap();
        let ts: Vec<f64> = trace_events(&doc)
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(ts.len(), 4);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts not sorted: {ts:?}");
    }

    #[test]
    fn micros_have_nanosecond_precision() {
        let events = [ev("p", 1, 1_234_567, 89)];
        let text = chrome_trace(&events, &BTreeMap::new());
        assert!(text.contains("\"ts\":1234.567"));
        assert!(text.contains("\"dur\":0.089"));
    }

    #[test]
    fn thread_name_metadata_only_for_used_tracks() {
        let mut names = BTreeMap::new();
        names.insert(1, "shard-0".to_string());
        names.insert(9, "idle \"thread\"".to_string());
        let events = [ev("work", 1, 0, 5)];
        let text = chrome_trace(&events, &names);
        let doc = Json::parse(&text).unwrap();
        let metas: Vec<&Json> = trace_events(&doc)
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(metas.len(), 1, "only the used track is labelled");
        assert_eq!(
            metas[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("shard-0")
        );
    }

    #[test]
    fn empty_log_is_still_a_valid_document() {
        let text = chrome_trace(&[], &BTreeMap::new());
        let doc = Json::parse(&text).unwrap();
        assert!(trace_events(&doc).is_empty());
    }

    #[test]
    fn drain_exports_and_clears() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        crate::span::drain_spans();
        {
            let _s = crate::span::span("exported", "test");
        }
        let text = drain_chrome_trace();
        assert!(text.contains("\"exported\""));
        let again = drain_chrome_trace();
        let doc = Json::parse(&again).unwrap();
        assert!(trace_events(&doc).is_empty(), "drain clears the log");
    }
}
