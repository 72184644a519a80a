//! Outside-in span recorder. Spans are taken from the benchmark's own
//! code, around the calls into each layer, held in memory, and written as
//! a Chrome trace (`chrome://tracing`, Perfetto) when the run ends.
//!
//! Per-item callbacks (the flow source the engine pulls from, the sink it
//! pushes outcomes to) would be millions of spans; each is recorded as
//! one aggregate span per rep — total time and call count — placed at the
//! start of its parent.

use crate::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub rep: u32,
    /// Calls folded into this span (1 for an ordinary span).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
    /// What one `Instant::now()` + `elapsed()` pair reads for an empty
    /// body; taken off every per-item measurement.
    timer_ns: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        let timer_ns = if enabled {
            let n = 200_000u32;
            let mut acc = 0u64;
            for _ in 0..n {
                let t = Instant::now();
                acc += t.elapsed().as_nanos() as u64;
            }
            acc as f64 / n as f64
        } else {
            0.0
        };
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            timer_ns,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. A no-op handle when
    /// tracing is off.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
            count: 1,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `clock`'s total as one aggregate child of span `parent`,
    /// net of timer overhead.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, clock: &ItemClock) {
        if !self.enabled {
            return;
        }
        let (ns, count) = clock.read();
        let net = (ns as f64 - self.timer_ns * count as f64).max(0.0) as u64;
        let start = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + net,
            parent: Some(parent),
            rep: self.rep,
            count,
        });
    }

    /// Total duration and call count of the spans named `name` in `rep`.
    pub fn total(&self, name: &str, rep: u32) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rep == rep)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + s.count))
    }

    /// Median over the reps that recorded `name` of its per-rep total
    /// duration (ns) and call count. `(0, 0)` if no rep did.
    pub fn median_total(&self, name: &str) -> (f64, f64) {
        let mut per_rep: Vec<(u64, u64)> = (0..=self.rep)
            .map(|r| self.total(name, r))
            .filter(|&(_, n)| n > 0)
            .collect();
        per_rep.sort_unstable();
        per_rep
            .get(per_rep.len() / 2)
            .map_or((0.0, 0.0), |&(ns, n)| (ns as f64, n as f64))
    }

    /// The Chrome-trace events of this run: one process (`pid`) named
    /// after the workload, one track per rep, `ph: "X"` complete events
    /// with microsecond timestamps.
    pub fn chrome_events(&self, workload: &str, pid: u64) -> Vec<Value> {
        let mut name = Value::obj();
        name.set("name", workload);
        let mut process = Value::obj();
        process
            .set("name", "process_name")
            .set("ph", "M")
            .set("pid", pid)
            .set("args", name);
        let spans = self.spans.iter().map(|s| {
            let mut args = Value::obj();
            args.set("workload", workload)
                .set("rep", s.rep as u64)
                .set("count", s.count);
            if let Some(p) = s.parent {
                args.set("parent", self.spans[p].name);
            }
            let mut e = Value::obj();
            e.set("name", s.name)
                .set("ph", "X")
                .set("ts", s.start_ns as f64 / 1e3)
                .set("dur", s.dur_ns() as f64 / 1e3)
                .set("pid", pid)
                .set("tid", s.rep as u64)
                .set("args", args);
            e
        });
        std::iter::once(process).chain(spans).collect()
    }
}

/// Accumulated time and call count of one per-item callback. Shared and
/// atomic because the sharded engine clones its source into every shard
/// thread; each clone adds its own total when dropped.
#[derive(Debug, Default)]
pub struct ItemClock {
    ns: AtomicU64,
    count: AtomicU64,
}

impl ItemClock {
    pub fn add(&self, ns: u64, count: u64) {
        // Statistics only: nothing is published through these counters.
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(count, Ordering::Relaxed);
    }

    pub fn read(&self) -> (u64, u64) {
        (
            self.ns.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        )
    }
}

/// An iterator that times every `next()` of the iterator it wraps.
pub struct TimedSource<I> {
    inner: I,
    clock: Arc<ItemClock>,
    ns: u64,
    count: u64,
}

impl<I> TimedSource<I> {
    pub fn new(inner: I, clock: Arc<ItemClock>) -> Self {
        TimedSource {
            inner,
            clock,
            ns: 0,
            count: 0,
        }
    }
}

impl<I: Clone> Clone for TimedSource<I> {
    fn clone(&self) -> Self {
        TimedSource::new(self.inner.clone(), self.clock.clone())
    }
}

impl<I: Iterator> Iterator for TimedSource<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let t = Instant::now();
        let item = self.inner.next();
        self.ns += t.elapsed().as_nanos() as u64;
        self.count += 1;
        item
    }
}

impl<I> Drop for TimedSource<I> {
    fn drop(&mut self) {
        self.clock.add(self.ns, self.count);
    }
}
