//! Process-wide instrumentation: named atomic counters, span timers and a
//! renderable [`Report`] snapshot.
//!
//! Counters and timers are registered lazily by name in a global registry so
//! any crate can increment `fault.slots_simulated` or time `stitch.cycle`
//! without plumbing handles through every call chain. Hot paths should cache
//! the [`Counter`] handle (an `Arc<AtomicU64>`) instead of re-resolving the
//! name each time.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Locks `mutex`, recovering the guard if a panicking task poisoned it.
///
/// Every mutex in this crate protects plain collections that are left in a
/// consistent state at any panic point, so poison carries no correctness
/// signal here — recovering keeps an isolated work-item panic from cascading
/// into an abort of every later registry or queue access.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One named monotonically increasing event counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the counter with an absolute value. For gauges (current
    /// cache bytes, open jobs) that track a level rather than a count.
    #[inline]
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }
}

/// Accumulated wall-clock time for one named span.
struct TimerCell {
    nanos: AtomicU64,
    entries: AtomicU64,
}

struct Registry {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    timers: Mutex<HashMap<String, Arc<TimerCell>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(HashMap::new()),
        timers: Mutex::new(HashMap::new()),
    })
}

/// Returns the counter registered under `name`, creating it at zero on first
/// use. The returned handle can be cached and shared freely across threads.
pub fn counter(name: &str) -> Counter {
    let mut counters = lock_unpoisoned(&registry().counters);
    let cell = counters
        .entry(name.to_owned())
        .or_insert_with(|| Arc::new(AtomicU64::new(0)));
    Counter(Arc::clone(cell))
}

/// Starts timing the span registered under `name`; the elapsed wall-clock
/// time is accumulated when the returned guard drops.
///
/// # Examples
///
/// ```
/// {
///     let _timer = tvs_exec::span("doc.example");
///     // ... timed work ...
/// }
/// assert!(tvs_exec::report().timers.iter().any(|t| t.name == "doc.example"));
/// ```
pub fn span(name: &str) -> SpanGuard {
    let mut timers = lock_unpoisoned(&registry().timers);
    let cell = timers.entry(name.to_owned()).or_insert_with(|| {
        Arc::new(TimerCell {
            nanos: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        })
    });
    SpanGuard {
        cell: Arc::clone(cell),
        started: Instant::now(),
    }
}

/// RAII guard returned by [`span`]; accumulates elapsed time on drop.
pub struct SpanGuard {
    cell: Arc<TimerCell>,
    started: Instant,
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard").finish_non_exhaustive()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let nanos = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.cell.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.cell.entries.fetch_add(1, Ordering::Relaxed);
    }
}

/// Snapshot of one counter in a [`Report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered counter name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshot of one span timer in a [`Report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Registered span name.
    pub name: String,
    /// Total accumulated wall-clock nanoseconds.
    pub total_nanos: u64,
    /// Number of completed spans.
    pub entries: u64,
}

/// A point-in-time snapshot of every registered counter and timer, sorted by
/// name. `Display` renders the `--stats` table the CLI prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All span timers, sorted by name.
    pub timers: Vec<TimerSnapshot>,
}

impl Report {
    /// Looks up a counter value by name, defaulting to 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Renders the report as machine-readable JSON:
    /// `{"counters":{...},"timers":{name:{"total_nanos":n,"entries":n}}}`.
    ///
    /// Keys come out in the report's sorted order, so two snapshots of the
    /// same state serialize byte-identically. This is the serializer behind
    /// `tvs run --stats-json` and the serve daemon's `stats` response.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(&c.name), c.value));
        }
        out.push_str("},\"timers\":{");
        for (i, t) in self.timers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"total_nanos\":{},\"entries\":{}}}",
                json_escape(&t.name),
                t.total_nanos,
                t.entries
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal — the one
/// escaper behind `--stats-json` and the lint JSON renderers.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Takes a [`Report`] snapshot of the global registry.
pub fn report() -> Report {
    let mut counters: Vec<CounterSnapshot> = lock_unpoisoned(&registry().counters)
        .iter()
        .map(|(name, cell)| CounterSnapshot {
            name: name.clone(),
            value: cell.load(Ordering::Relaxed),
        })
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    let mut timers: Vec<TimerSnapshot> = lock_unpoisoned(&registry().timers)
        .iter()
        .map(|(name, cell)| TimerSnapshot {
            name: name.clone(),
            total_nanos: cell.nanos.load(Ordering::Relaxed),
            entries: cell.entries.load(Ordering::Relaxed),
        })
        .collect();
    timers.sort_by(|a, b| a.name.cmp(&b.name));
    Report { counters, timers }
}

/// Resets every registered counter and timer to zero. Handles cached by hot
/// paths stay valid (the cells are zeroed, not replaced).
pub fn reset_stats() {
    for cell in lock_unpoisoned(&registry().counters).values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in lock_unpoisoned(&registry().timers).values() {
        cell.nanos.store(0, Ordering::Relaxed);
        cell.entries.store(0, Ordering::Relaxed);
    }
}

fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counters.is_empty() && self.timers.is_empty() {
            return writeln!(f, "(no stats recorded)");
        }
        let width = self
            .counters
            .iter()
            .map(|c| c.name.len())
            .chain(self.timers.iter().map(|t| t.name.len()))
            .max()
            .unwrap_or(0)
            .max("counter".len());
        if !self.counters.is_empty() {
            writeln!(f, "{:<width$}  {:>14}", "counter", "value")?;
            for c in &self.counters {
                writeln!(f, "{:<width$}  {:>14}", c.name, c.value)?;
            }
        }
        if !self.timers.is_empty() {
            if !self.counters.is_empty() {
                writeln!(f)?;
            }
            writeln!(f, "{:<width$}  {:>14}  {:>8}", "span", "total", "entries")?;
            for t in &self.timers {
                writeln!(
                    f,
                    "{:<width$}  {:>14}  {:>8}",
                    t.name,
                    format_nanos(t.total_nanos),
                    t.entries
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: these tests share the process-global registry with each other
    // and with pool tests, so they assert on deltas / private names only.

    #[test]
    fn counter_accumulates_and_snapshots() {
        let c = counter("test.stats.alpha");
        let before = c.get();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), before + 10);
        assert_eq!(report().counter("test.stats.alpha"), before + 10);
        assert_eq!(report().counter("test.stats.never_registered"), 0);
    }

    #[test]
    fn same_name_same_cell() {
        let a = counter("test.stats.shared");
        let b = counter("test.stats.shared");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), b.get());
        assert!(a.get() >= 7);
    }

    #[test]
    fn span_records_time_and_entries() {
        {
            let _guard = span("test.stats.span");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = report();
        let t = snap
            .timers
            .iter()
            .find(|t| t.name == "test.stats.span")
            .expect("span registered");
        assert!(t.entries >= 1);
        assert!(
            t.total_nanos >= 1_000_000,
            "slept 2ms, saw {}ns",
            t.total_nanos
        );
    }

    #[test]
    fn report_renders_sorted_table() {
        counter("test.stats.render.b").incr();
        counter("test.stats.render.a").incr();
        let snap = report();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let ia = names
            .iter()
            .position(|n| *n == "test.stats.render.a")
            .unwrap();
        let ib = names
            .iter()
            .position(|n| *n == "test.stats.render.b")
            .unwrap();
        assert!(ia < ib, "counters sorted by name");
        let rendered = snap.to_string();
        assert!(rendered.contains("test.stats.render.a"));
        assert!(rendered.contains("counter"));
    }

    #[test]
    fn json_report_is_structured_and_escaped() {
        counter("test.stats.json \"q\"").add(3);
        let json = report().to_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains(r#""test.stats.json \"q\"":3"#), "{json}");
        assert!(json.contains("\"timers\":{"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
    }

    #[test]
    fn format_nanos_units() {
        assert_eq!(format_nanos(999), "999ns");
        assert_eq!(format_nanos(1_500), "1.500us");
        assert_eq!(format_nanos(2_000_000), "2.000ms");
        assert_eq!(format_nanos(3_500_000_000), "3.500s");
    }
}
