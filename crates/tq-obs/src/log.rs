//! Structured JSON-lines event log.
//!
//! Every record is one JSON object on one line, written to stderr:
//! machine-parseable with `tq_report::Json`, greppable by humans. Like the
//! rest of the crate this is dependency-free and gated: while
//! observability is disabled (or the record's level is filtered out) a log
//! call is one relaxed atomic load and a branch.
//!
//! Severity is filtered by the `TQ_LOG` environment variable: one of
//! `off`, `error`, `warn`, `info` (the default), `debug` or `trace`, in
//! any casing. [`init_from_env`] rejects every other value, so a binary
//! that calls it before any work never runs under a filter it was not
//! asked for. [`set_level`]/[`set_level_off`] override it at runtime.

use std::env::VarError;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::metrics::{counter, Counter};

/// Severity of a log record. Ordered: `Error` is most severe, `Trace`
/// least; a filter at level L admits records with `level <= L`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed and was not recovered.
    Error = 1,
    /// Degraded but handled: sheds, suspect peers, fired faults.
    Warn = 2,
    /// Normal lifecycle milestones (startup, config, recovery).
    Info = 3,
    /// Per-job lifecycle detail; quiet at the default filter.
    Debug = 4,
    /// High-volume internals (per-frame, per-probe).
    Trace = 5,
}

impl Level {
    /// Lowercase name, as rendered into records and accepted by `TQ_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a level name (case-insensitive). `off` is not a record
    /// level — see [`parse_filter`] for the whole `TQ_LOG` grammar.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// One field value. `From` impls cover the workspace's common types so
/// call sites read `("micros", n.into())`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float; non-finite values render as `null`.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String, escaped on render.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Filter states beyond the five levels: `OFF` admits nothing, `UNINIT`
/// means "consult `TQ_LOG` on first use".
const OFF: u8 = 0;
const UNINIT: u8 = 0xFF;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

fn current_level() -> u8 {
    match LEVEL.load(Ordering::Relaxed) {
        UNINIT => lazy_init(),
        v => v,
    }
}

/// Parse a `TQ_LOG` value: `Ok(None)` is `off`, `Ok(Some(level))` admits
/// records at `level` and above. Anything else, the empty string
/// included, is an error.
pub fn parse_filter(s: &str) -> Result<Option<Level>, String> {
    if s.eq_ignore_ascii_case("off") {
        return Ok(None);
    }
    Level::parse(s)
        .map(Some)
        .ok_or_else(|| format!("unknown level `{s}` (off|error|warn|info|debug|trace)"))
}

/// The filter `TQ_LOG` names; unset means `info`.
fn filter_from(var: Result<String, VarError>) -> Result<u8, String> {
    match var {
        Err(VarError::NotPresent) => Ok(Level::Info as u8),
        Err(e) => Err(e.to_string()),
        Ok(v) => Ok(parse_filter(&v)?.map_or(OFF, |l| l as u8)),
    }
}

/// Set the filter from `TQ_LOG`. An unknown value is an error naming the
/// variable, and leaves the filter as it was.
pub fn init_from_env() -> Result<(), String> {
    let filter = filter_from(std::env::var("TQ_LOG")).map_err(|e| format!("TQ_LOG: {e}"))?;
    LEVEL.store(filter, Ordering::Relaxed);
    Ok(())
}

/// First use in a process that never called [`init_from_env`]: an
/// unknown value there falls back to `info`, since a record being
/// emitted cannot fail.
#[cold]
fn lazy_init() -> u8 {
    let filter = filter_from(std::env::var("TQ_LOG")).unwrap_or(Level::Info as u8);
    // A concurrent set_level wins: only replace the uninitialised state.
    let _ = LEVEL.compare_exchange(UNINIT, filter, Ordering::Relaxed, Ordering::Relaxed);
    LEVEL.load(Ordering::Relaxed)
}

/// Whether a record at `level` would be admitted right now. This is the
/// whole disabled fast path: the global gate load plus one filter load.
#[inline]
pub fn level_enabled(level: Level) -> bool {
    crate::enabled() && (level as u8) <= current_level()
}

/// Set the severity filter: records with `level <= filter` are admitted.
/// Overrides whatever `TQ_LOG` said.
pub fn set_level(filter: Level) {
    LEVEL.store(filter as u8, Ordering::Relaxed);
}

/// Silence the log entirely (the `TQ_LOG=off` state).
pub fn set_level_off() {
    LEVEL.store(OFF, Ordering::Relaxed);
}

fn records_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| counter("tq_log_records_total", "Structured log records emitted."))
}

/// Render one record as a single JSON line. Key order is fixed
/// (`ts_ns`, `level`, `target`, `event`, then fields in call order) so
/// records are stable for tests and diffs.
fn render(level: Level, target: &str, event: &str, fields: &[(&str, Value)]) -> String {
    let mut out = String::with_capacity(96 + fields.len() * 24);
    let _ = write!(out, "{{\"ts_ns\":{},\"level\":\"", crate::now_ns());
    out.push_str(level.as_str());
    out.push_str("\",\"target\":");
    crate::chrome::push_escaped(target, &mut out);
    out.push_str(",\"event\":");
    crate::chrome::push_escaped(event, &mut out);
    for (key, value) in fields {
        out.push(',');
        crate::chrome::push_escaped(key, &mut out);
        out.push(':');
        match value {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(v) => crate::chrome::push_escaped(v, &mut out),
        }
    }
    out.push('}');
    out
}

/// Emit one structured record if `level` passes the filter. `target`
/// names the emitting subsystem (`tq-profd`, `tq-cli`…), `event` is a
/// stable machine-matchable name (`job_done`, `overload_shed`…), and
/// `fields` carry the payload.
pub fn emit(level: Level, target: &str, event: &str, fields: &[(&str, Value)]) {
    if !level_enabled(level) {
        return;
    }
    let line = render(level, target, event, fields);
    records_total().inc();
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}

/// [`emit`] at [`Level::Error`].
pub fn error(target: &str, event: &str, fields: &[(&str, Value)]) {
    emit(Level::Error, target, event, fields);
}
/// [`emit`] at [`Level::Warn`].
pub fn warn(target: &str, event: &str, fields: &[(&str, Value)]) {
    emit(Level::Warn, target, event, fields);
}
/// [`emit`] at [`Level::Info`].
pub fn info(target: &str, event: &str, fields: &[(&str, Value)]) {
    emit(Level::Info, target, event, fields);
}
/// [`emit`] at [`Level::Debug`].
pub fn debug(target: &str, event: &str, fields: &[(&str, Value)]) {
    emit(Level::Debug, target, event, fields);
}
/// [`emit`] at [`Level::Trace`].
pub fn trace(target: &str, event: &str, fields: &[(&str, Value)]) {
    emit(Level::Trace, target, event, fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use tq_report::Json;

    #[test]
    fn records_render_as_parseable_json_lines() {
        let line = render(
            Level::Debug,
            "tq-test",
            "job_done",
            &[
                ("tool", "tquad".into()),
                ("micros", 123u64.into()),
                ("cached", true.into()),
                ("note", "quote\" nl\n".into()),
            ],
        );
        assert!(!line.contains('\n'), "one record, one line");
        let doc = Json::parse(&line).expect("record parses");
        assert_eq!(doc.get("level").and_then(Json::as_str), Some("debug"));
        assert_eq!(doc.get("target").and_then(Json::as_str), Some("tq-test"));
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("job_done"));
        assert_eq!(doc.get("micros").and_then(Json::as_u64), Some(123));
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("note").and_then(Json::as_str), Some("quote\" nl\n"));
        assert!(doc.get("ts_ns").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn filter_admits_at_or_above_severity_only() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        set_level(Level::Warn);
        assert!(level_enabled(Level::Error));
        assert!(level_enabled(Level::Warn));
        assert!(!level_enabled(Level::Info));
        assert!(!level_enabled(Level::Debug));
        set_level(Level::Info);
    }

    #[test]
    fn off_silences_everything() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        set_level_off();
        assert!(!level_enabled(Level::Error));
        set_level(Level::Info);
        assert!(level_enabled(Level::Info));
        assert!(!level_enabled(Level::Debug));
    }

    #[test]
    fn disabled_gate_beats_any_filter() {
        let _g = test_lock::hold();
        set_level(Level::Trace);
        crate::set_enabled(false);
        assert!(!level_enabled(Level::Error));
        crate::set_enabled(true);
        assert!(level_enabled(Level::Trace));
        set_level(Level::Info);
    }

    #[test]
    fn level_names_round_trip() {
        for level in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), None, "one spelling per level");
        assert_eq!(Level::parse("off"), None, "off is a filter, not a level");
    }

    #[test]
    fn unset_tq_log_means_info_and_non_unicode_is_rejected() {
        assert_eq!(
            filter_from(Err(VarError::NotPresent)),
            Ok(Level::Info as u8)
        );
        assert_eq!(filter_from(Ok("OFF".into())), Ok(OFF));
        assert!(filter_from(Ok("dbug".into())).is_err());
        let not_unicode = VarError::NotUnicode(std::ffi::OsString::from("info"));
        assert!(filter_from(Err(not_unicode)).is_err());
    }

    #[test]
    fn emit_counts_the_records_it_writes() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        set_level(Level::Info);
        let before = records_total().get();
        emit(Level::Debug, "tq-test", "filtered", &[]);
        assert_eq!(
            records_total().get(),
            before,
            "a filtered record is not counted"
        );
        emit(Level::Info, "tq-test", "written", &[]);
        assert_eq!(records_total().get(), before + 1);
    }

    #[test]
    fn non_finite_floats_render_null() {
        let line = render(
            Level::Info,
            "tq-test",
            "f",
            &[("x", f64::NAN.into()), ("y", 1.5f64.into())],
        );
        assert!(line.contains("\"x\":null"), "{line}");
        assert!(line.contains("\"y\":1.5"), "{line}");
    }
}
