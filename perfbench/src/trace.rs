//! In-memory spans for the traced run, and the timing [`Observer`] that turns
//! IPC-window [`Sample`](ar_system::Sample)s into window spans.

use ar_system::{Observer, ObserverControl, RunInfo, SimEvent};
use ar_types::json::Json;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One recorded interval. Window spans also carry the network-cycle range
/// they covered.
struct Span {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    label: String,
    start: Instant,
    end: Instant,
    cycles: Option<(u64, u64)>,
}

/// The spans of one benchmark process, kept in memory until it exits.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records a span and returns its id, for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        label: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(name, label, parent, start, end, None)
    }

    /// Records the window spans of one run under `parent`.
    pub fn windows(&mut self, parent: usize, label: &str, windows: &[Window]) {
        for w in windows {
            self.push("window", label, Some(parent), w.start, w.end, Some(w.cycles));
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        label: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        cycles: Option<(u64, u64)>,
    ) -> usize {
        let id = self.spans.len();
        let label = label.to_string();
        self.spans.push(Span { id, parent, name, label, start, end, cycles });
        id
    }

    pub fn to_json(&self) -> Json {
        let ns =
            |t: Instant| Json::from(t.saturating_duration_since(self.origin).as_nanos() as u64);
        Json::arr(self.spans.iter().map(|s| {
            let mut fields = vec![
                ("id", Json::from(s.id)),
                ("parent", s.parent.map(Json::from).unwrap_or(Json::Null)),
                ("name", Json::from(s.name)),
                ("label", Json::from(s.label.clone())),
                ("start_ns", ns(s.start)),
                ("end_ns", ns(s.end)),
            ];
            if let Some((first, last)) = s.cycles {
                fields.push(("first_cycle", Json::from(first)));
                fields.push(("last_cycle", Json::from(last)));
            }
            Json::obj(fields)
        }))
    }
}

/// Host time over one IPC window of a run: network cycles `cycles.0` to
/// `cycles.1`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    pub cycles: (u64, u64),
}

impl Window {
    /// Host nanoseconds per simulated network cycle, if the window advanced.
    pub fn ns_per_cycle(&self) -> Option<f64> {
        let cycles = self.cycles.1.checked_sub(self.cycles.0).filter(|&c| c > 0)?;
        Some((self.end - self.start).as_nanos() as f64 / cycles as f64)
    }
}

/// Times the host between consecutive IPC samples of a run. The stretch after
/// the last sample is left out: it ends with the run's report assembly, which
/// is not per-cycle work.
pub struct WindowTimer {
    windows: Rc<RefCell<Vec<Window>>>,
    last: (Instant, u64),
}

impl WindowTimer {
    pub fn new(windows: Rc<RefCell<Vec<Window>>>) -> Self {
        WindowTimer { windows, last: (Instant::now(), 0) }
    }
}

impl Observer for WindowTimer {
    fn on_start(&mut self, _run: &RunInfo<'_>) {
        self.last = (Instant::now(), 0);
    }

    fn on_event(&mut self, event: &SimEvent) -> ObserverControl {
        if let SimEvent::Sample(sample) = event {
            let now = Instant::now();
            let (start, first) = self.last;
            let cycles = (first, sample.network_cycle);
            self.windows.borrow_mut().push(Window { start, end: now, cycles });
            self.last = (now, sample.network_cycle);
        }
        ObserverControl::Continue
    }
}
