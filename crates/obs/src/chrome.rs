//! Trace export: the span tree's one export, Chrome trace-event JSON.
//!
//! [`chrome_trace`] converts a recorder [`Snapshot`] into the Trace
//! Event Format consumed by `chrome://tracing`, Perfetto, and Speedscope
//! — each closed span becomes a complete (`"ph": "X"`) event, spans
//! still open at snapshot time become begin (`"ph": "B"`) events, and
//! every rayon-shim worker gets its own lane via the `tid` field plus a
//! `thread_name` metadata record. Timestamps are the recorder's
//! monotonic nanoseconds floored to the format's microseconds; the exact
//! ns values ride along in `args` so nothing is lost. Speedscope and
//! Perfetto render the same file as a flame graph, so there is no
//! separate folded-stack export.
//!
//! The writer uses the crate's hand-rolled [`crate::json`] output —
//! zero new dependencies — and is deterministic for a given snapshot:
//! trace events come out in span-creation order.

use crate::json::Value;
use crate::recorder::Snapshot;

/// Schema version stamped on [`chrome_trace`] output. Chrome and
/// Perfetto ignore unknown top-level keys, so the versioned envelope
/// stays loadable by the real consumers while
/// [`crate::manifest::guard_overwrite`] can still protect the file.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Convert a snapshot's span tree to Chrome trace-event JSON.
#[must_use]
pub fn chrome_trace(snapshot: &Snapshot) -> Value {
    let mut events = Value::array();
    // One lane per worker id seen, named up front so the viewer shows
    // "worker 3" instead of a bare tid.
    let mut workers: Vec<u32> = snapshot.spans.iter().map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in workers {
        let mut args = Value::object();
        args.set(
            "name",
            if w == 0 {
                "caller".to_string()
            } else {
                format!("worker {w}")
            },
        );
        let mut meta = Value::object();
        meta.set("name", "thread_name");
        meta.set("ph", "M");
        meta.set("pid", 1u64);
        meta.set("tid", w);
        meta.set("args", args);
        events.push(meta);
    }
    for span in &snapshot.spans {
        let mut args = Value::object();
        args.set("span_id", span.id);
        match span.parent {
            Some(p) => args.set("parent", p),
            None => args.set("parent", Value::Null),
        };
        args.set("start_ns", span.start_ns);
        if let Some(end) = span.end_ns {
            args.set("end_ns", end);
        }
        let mut ev = Value::object();
        ev.set("name", span.name);
        ev.set("cat", "span");
        ev.set("ph", if span.end_ns.is_some() { "X" } else { "B" });
        ev.set("ts", span.start_ns / 1_000);
        if span.end_ns.is_some() {
            ev.set("dur", span.duration_ns() / 1_000);
        }
        ev.set("pid", 1u64);
        ev.set("tid", span.worker);
        ev.set("args", args);
        events.push(ev);
    }
    let mut root = Value::object();
    root.set("schema_version", TRACE_SCHEMA_VERSION);
    root.set("displayTimeUnit", "ms");
    root.set("traceEvents", events);
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_snapshot() -> Snapshot {
        let rec = Recorder::enabled();
        {
            let _root = rec.span("pipeline");
            {
                let _a = rec.span("clustering");
                let _w = crate::worker::enter(2);
                let _b = rec.span("mining");
            }
            let _c = rec.span("selection");
        }
        rec.snapshot().expect("enabled recorder snapshots")
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let trace = chrome_trace(&sample_snapshot());
        let text = trace.render();
        assert_eq!(crate::schema_version_of(&text), Some(TRACE_SCHEMA_VERSION));
        let parsed = crate::json::parse(&text).expect("trace JSON parses");
        let Some(Value::Array(events)) = parsed.get("traceEvents") else {
            panic!("traceEvents missing or not an array");
        };
        assert!(!events.is_empty());
        for ev in events {
            for key in ["name", "ph", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "event missing `{key}`: {ev:?}");
            }
            let Some(Value::Str(ph)) = ev.get("ph") else {
                panic!("ph not a string: {ev:?}");
            };
            match ph.as_str() {
                "X" => {
                    assert!(ev.get("ts").is_some(), "X event missing ts");
                    assert!(ev.get("dur").is_some(), "X event missing dur");
                }
                "B" => assert!(ev.get("ts").is_some(), "B event missing ts"),
                "M" => assert!(
                    ev.get("args").and_then(|a| a.get("name")).is_some(),
                    "metadata event missing args.name"
                ),
                other => panic!("unexpected phase `{other}`"),
            }
        }
    }

    #[test]
    fn chrome_trace_gives_workers_their_own_lanes() {
        let trace = chrome_trace(&sample_snapshot());
        let Some(Value::Array(events)) = trace.get("traceEvents") else {
            panic!("no traceEvents");
        };
        let lane_names: Vec<&Value> = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Value::Str(p)) if p == "M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
            .collect();
        assert!(
            lane_names.contains(&&Value::from("caller")),
            "{lane_names:?}"
        );
        assert!(
            lane_names.contains(&&Value::from("worker 2")),
            "{lane_names:?}"
        );
        // The mining span must sit in worker 2's lane.
        let mining = events
            .iter()
            .find(|e| matches!(e.get("name"), Some(Value::Str(n)) if n == "mining"))
            .expect("mining span exported");
        assert_eq!(mining.get("tid"), Some(&Value::UInt(2)));
    }

    #[test]
    fn open_spans_export_as_begin_events() {
        let rec = Recorder::enabled();
        let _open = rec.span("still_running");
        let snap = rec.snapshot().expect("snapshot");
        let trace = chrome_trace(&snap);
        let Some(Value::Array(events)) = trace.get("traceEvents") else {
            panic!("no traceEvents");
        };
        let open = events
            .iter()
            .find(|e| matches!(e.get("name"), Some(Value::Str(n)) if n == "still_running"))
            .expect("open span exported");
        assert_eq!(open.get("ph"), Some(&Value::Str("B".into())));
        assert!(open.get("dur").is_none());
    }
}
