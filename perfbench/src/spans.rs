//! The traced run's span recorder.
//!
//! Spans are recorded only here, around calls into each layer's public
//! functions; the program itself is not changed. Each span carries a name,
//! start, end, parent and session id. Spans stay in memory (up to
//! [`RETAIN`]; beyond that only the aggregates grow) and are written out
//! once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim for the output file; later spans still count in the
/// aggregates.
pub const RETAIN: usize = 50_000;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The span's id within its recorder.
    pub id: u32,
    /// Layer-qualified name, e.g. `ui.advance`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Id of the parent span, or [`ROOT`].
    pub parent: u32,
    /// The session the span belongs to.
    pub session: u32,
    /// Chrome trace row: 0 for the main thread, session + 1 for a fleet
    /// task (tasks migrate between workers).
    pub thread: u32,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Completed spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self time (duration minus time covered by children), ns.
    pub self_ns: u64,
}

/// An open span on the recorder's stack.
struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Records nested spans on one thread.
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u32,
    retained: Vec<Span>,
    dropped: u64,
    /// Per-name totals; a handful of names, found by pointer first.
    agg: Vec<(&'static str, Agg)>,
    session: u32,
    thread: u32,
}

impl Recorder {
    /// A recorder whose times count from `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Recorder {
            epoch,
            stack: Vec::new(),
            next_id: 0,
            retained: Vec::new(),
            dropped: 0,
            agg: Vec::new(),
            session: 0,
            thread,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags spans opened from now on with `session`.
    pub fn set_session(&mut self, session: u32) {
        self.session = session;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start_ns = self.now_ns();
        self.stack.push(Open { id, name, start_ns, child_ns: 0 });
    }

    /// Closes the innermost open span, which must be `name`.
    pub fn close(&mut self, name: &'static str) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("close without a matching open");
        assert_eq!(open.name, name, "spans must close innermost first");
        let dur = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map_or(ROOT, |p| {
            p.child_ns += dur;
            p.id
        });
        let a = self.agg_mut(name);
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        let span = Span {
            id: open.id,
            name,
            start_ns: open.start_ns,
            end_ns,
            parent,
            session: self.session,
            thread: self.thread,
        };
        self.keep(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close(name);
        r
    }

    fn keep(&mut self, span: Span) {
        if self.retained.len() < RETAIN {
            self.retained.push(span);
        } else {
            self.dropped += 1;
        }
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        let i = match self.agg.iter().position(|(n, _)| std::ptr::eq(*n, name) || *n == name) {
            Some(i) => i,
            None => {
                self.agg.push((name, Agg::default()));
                self.agg.len() - 1
            }
        };
        &mut self.agg[i].1
    }

    /// Per-name aggregates so far.
    pub fn aggregates(&self) -> impl Iterator<Item = (&'static str, Agg)> + '_ {
        self.agg.iter().copied()
    }

    /// Aggregate of one name (zero when never recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.agg.iter().find(|(n, _)| *n == name).map_or_else(Agg::default, |(_, a)| *a)
    }

    /// Folds another recorder's spans and aggregates into this one.
    pub fn absorb(&mut self, other: Recorder) {
        for (name, a) in other.agg {
            let mine = self.agg_mut(name);
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
        }
        // Parent indices are per recorder; re-base them past ours.
        let base = self.next_id;
        for mut s in other.retained {
            s.id = s.id.wrapping_add(base);
            if s.parent != ROOT {
                s.parent = s.parent.wrapping_add(base);
            }
            self.keep(s);
        }
        self.next_id = self.next_id.wrapping_add(other.next_id);
        self.dropped += other.dropped;
    }

    /// Writes the retained spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto) to `path`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.retained.iter().enumerate() {
            let sep = if i + 1 == self.retained.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"session\":{}}}}}{sep}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.id,
                if s.parent == ROOT { -1 } else { i64::from(s.parent) },
                s.session,
            )?;
        }
        writeln!(out, "],\"otherData\":{{\"spans_not_retained\":{}}}}}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(Instant::now(), 0);
        r.set_session(7);
        r.open("outer");
        r.time("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.close("outer");
        let outer = r.agg("outer");
        let inner = r.agg("inner");
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // The inner span names the outer one as its parent.
        let spans = &r.retained;
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, ROOT);
        assert!(spans.iter().all(|s| s.session == 7));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn misnested_close_panics() {
        let mut r = Recorder::new(Instant::now(), 0);
        r.open("a");
        r.open("b");
        r.close("a");
    }
}
