//! Trace sinks: drained events → Chrome `trace_event` JSON / JSONL.
//!
//! A [`TraceDump`] is the result of draining every registered ring once
//! (see [`Observer::dump`](super::Observer::dump)): a thread-name table
//! plus all events merged and sorted by start timestamp.  Both
//! exporters are pure formatters over that snapshot, so one drain can
//! feed both without losing events.
//!
//! The Chrome format targets `about://tracing` / Perfetto's legacy JSON
//! loader: one top-level object with a `traceEvents` array of complete
//! (`"ph":"X"`) duration events, preceded by `"ph":"M"` metadata events
//! naming each thread.  Timestamps are microseconds (floats, 3 decimal
//! digits → nanosecond resolution survives).

use super::event::{Event, NONE};
use super::json::escape_json;

/// A consistent snapshot of all recorded events.
pub struct TraceDump {
    /// Thread names, indexed by `Event::thread`.
    pub threads: Vec<String>,
    /// All events, sorted by `start_ns` (stable, so same-instant events
    /// keep per-ring order).
    pub events: Vec<Event>,
    /// Total events lost to ring overflow across all threads.
    pub dropped_events: u64,
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

impl TraceDump {
    /// Chrome `trace_event` JSON (object form, loadable in
    /// `about://tracing` and Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.events.len() + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for (tid, name) in self.threads.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            ));
        }
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"cgraph\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{",
                ev.kind.name(),
                ev.thread,
                micros(ev.start_ns),
                micros(ev.dur_ns),
            ));
            let mut sep = "";
            for (key, field) in [("job", ev.job), ("shard", ev.shard), ("round", ev.round)] {
                if field != NONE {
                    out.push_str(&format!("{sep}\"{key}\":{field}"));
                    sep = ",";
                }
            }
            out.push_str(&format!("{sep}\"value\":{}}}}}", ev.value));
        }
        out.push_str(&format!(
            "],\"otherData\":{{\"dropped_events\":{}}}}}",
            self.dropped_events
        ));
        out
    }

    /// Compact JSONL: one event object per line, grep/jq-friendly.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(48 * self.events.len());
        for ev in &self.events {
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
                ev.kind.name(),
                escape_json(self.threads.get(ev.thread as usize).map_or("?", |s| s)),
                ev.start_ns,
                ev.dur_ns,
            ));
            for (key, field) in [("job", ev.job), ("shard", ev.shard), ("round", ev.round)] {
                if field != NONE {
                    out.push_str(&format!(",\"{key}\":{field}"));
                }
            }
            out.push_str(&format!(",\"value\":{}}}\n", ev.value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::event::EventKind;
    use super::super::json::parse_json;
    use super::*;

    fn dump() -> TraceDump {
        TraceDump {
            threads: vec!["main".to_string(), "cgraph-trigger-0".to_string()],
            events: vec![
                Event {
                    kind: EventKind::TriggerChunk,
                    thread: 1,
                    job: NONE,
                    shard: 3,
                    round: 0,
                    start_ns: 1500,
                    dur_ns: 250,
                    value: 4096,
                },
                Event {
                    kind: EventKind::Install,
                    thread: 0,
                    job: 2,
                    shard: 3,
                    round: 0,
                    start_ns: 2000,
                    dur_ns: 100,
                    value: 1,
                },
            ],
            dropped_events: 7,
        }
    }

    #[test]
    fn chrome_json_is_valid_and_schema_complete() {
        let v = parse_json(&dump().chrome_json()).expect("valid json");
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata + 2 span events.
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("M"));
        let span = &evs[2];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(0.25));
        assert_eq!(
            span.get("args").unwrap().get("shard").unwrap().as_f64(),
            Some(3.0)
        );
        // job was NONE → omitted from args.
        assert!(span.get("args").unwrap().get("job").is_none());
        assert_eq!(
            v.get("otherData")
                .unwrap()
                .get("dropped_events")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let text = dump().jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = parse_json(line).expect("valid line");
            assert!(v.get("kind").unwrap().as_str().is_some());
            assert!(v.get("thread").unwrap().as_str().is_some());
        }
    }
}
