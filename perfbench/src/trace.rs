//! In-memory span tracer for the traced mode.
//!
//! Spans nest on a stack. Each span carries the layer it measures and the
//! id of the request (or warp op) it belongs to; children inherit their
//! parent's id. When a span closes, its self time — its duration minus
//! the time its child spans covered — is added to its layer's total, so
//! every nanosecond between the root span's start and end is attributed
//! to exactly one layer and the self times sum to the root's duration.
//!
//! A disabled tracer records nothing and reads no clock, which is how the
//! replay runs when it is timed without tracing.

use std::time::Instant;

/// A span's layer. The names are the per-layer metric prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The root span of one traced iteration.
    Total,
    /// `MultiApp::from_names`: trace synthesis.
    WorkloadsGen,
    /// `Simulation::new` for the workload's platform.
    PlatformsNew,
    /// `Simulation::run` for the workload's platform (opaque).
    SimRun,
    /// `Simulation::run` on `ideal`, which has no storage backend.
    SimIdealRun,
    /// `RunResult::to_json_value` plus rendering.
    ReportJson,
    /// The replay loop's own bookkeeping.
    Replay,
    /// One 128 B request of the replay (glue between its child spans).
    Request,
    /// `EventQueue::schedule` / `EventQueue::pop_at`.
    Queue,
    /// `AccessPattern::sectors_into`.
    Coalesce,
    /// `Mmu::translate`.
    Tlb,
    /// `L2Cache::access`, `fill_line` and `invalidate`.
    L2,
    /// `Backend::read`.
    BackendRead,
    /// `Backend::write`.
    BackendWrite,
    /// Checkpoint cadence poll plus `Backend::checkpoint_step`.
    MaintCheckpoint,
    /// Scrub cadence poll plus `Backend::scrub_step`.
    MaintScrub,
    /// Refresh cadence poll plus `Backend::refresh_step`.
    MaintRefresh,
    /// Health cadence poll plus `Backend::health_step`.
    MaintHealth,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = Layer::MaintHealth as usize + 1;
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    layer: Layer,
    id: u64,
    /// Whether this span started its id rather than inheriting it.
    opens_id: bool,
    start_ns: u64,
    child_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    self_ns: [u64; Layer::COUNT],
    root_ns: u64,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            self_ns: [0; Layer::COUNT],
            root_ns: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that inherits its parent's id.
    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        if self.on {
            let id = self.stack.last().map_or(0, |f| f.id);
            self.open(layer, id, false);
        }
    }

    /// Opens a span that starts a new request or op with its own id.
    #[inline]
    pub fn enter_with_id(&mut self, layer: Layer, id: u64) {
        if self.on {
            self.open(layer, id, true);
        }
    }

    fn open(&mut self, layer: Layer, id: u64, opens_id: bool) {
        let start_ns = self.now_ns();
        self.stack.push(Frame {
            layer,
            id,
            opens_id,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost span, which must be of `layer`.
    #[inline]
    pub fn exit(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let frame = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        assert_eq!(frame.layer, layer, "spans must close innermost first");
        let dur = end_ns - frame.start_ns;
        self.self_ns[frame.layer as usize] += dur - frame.child_ns;
        match self.stack.last_mut() {
            Some(parent) => {
                debug_assert!(frame.opens_id || parent.id == frame.id);
                parent.child_ns += dur;
            }
            None => self.root_ns += dur,
        }
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let r = f();
        self.exit(layer);
        r
    }

    /// Self time of `layer` in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }

    /// Summed duration of the root spans in seconds: the sum of every
    /// layer's self time once every span has closed.
    pub fn root_s(&self) -> f64 {
        self.root_ns as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut t = Tracer::enabled();
        t.enter(Layer::Total);
        t.span(Layer::WorkloadsGen, || std::hint::black_box(0u64));
        t.enter_with_id(Layer::Request, 7);
        t.span(Layer::Tlb, || ());
        t.exit(Layer::Request);
        t.exit(Layer::Total);
        assert!(t.self_ns[Layer::Tlb as usize] > 0);
        assert_eq!(t.self_ns.iter().sum::<u64>(), t.root_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.span(Layer::L2, || ());
        assert_eq!(t.self_ns, [0; Layer::COUNT]);
        assert_eq!(t.root_s(), 0.0);
    }
}
