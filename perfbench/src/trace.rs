//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer's public entry
//! points: the simulator itself is never instrumented. A span covers one
//! call or one burst of calls into one layer. `busy_ns` is the time spent
//! inside the layer; it equals `end − start` except for the real pod's
//! source spans, whose calls interleave with the pod's own work.
//!
//! Each measured interval also holds about one clock read, so the tracer
//! measures the interval between two back-to-back reads once and subtracts
//! it from every call's busy time.
//!
//! A disabled tracer runs every closure and records nothing, so the
//! end-to-end runs share the workload builders with the traced run.

use std::fmt::Write as _;
use std::time::Instant;

use albatross_workload::{PacketDesc, TrafficSource};

/// Calls per real-pod source span: the pod's default burst size.
const SOURCE_SPAN_CALLS: u64 = 32;

/// A layer of the simulator, named after its crate module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TrafficSource::next_packet`.
    WorkloadNextPacket,
    /// `FlowSet::generate` and the source constructors.
    WorkloadBuild,
    /// `PodSimulation::new`.
    ContainerNew,
    /// `PodSimulation::run`.
    ContainerRun,
    /// `Engine::schedule` and `Engine::pop_until`.
    SimEngine,
    /// `TwoStageRateLimiter::process`.
    CoreRatelimit,
    /// `PlbEngine::ingress`.
    CoreEngineIngress,
    /// `PlbEngine::cpu_return_into` and `PlbEngine::poll_into`.
    CoreEngineReturn,
    /// `DataCore` enqueue, take and begin.
    GatewayWorker,
    /// `ServicePipeline::process` / `process_offloaded` with their
    /// `MemorySystem` charges.
    GatewayServices,
    /// `FlowStateEngine::on_packet` and `expire`.
    GatewayFlowstate,
    /// `TieredSessionEngine::on_packet` and `expire`.
    FpgaTier,
    /// `DmaEngine::transfer_rx` / `transfer_tx`.
    FpgaDma,
    /// `LatencyHistogram::record` and `RateMeter::record`.
    Telemetry,
    /// Root span of the layer replay.
    Replay,
}

impl Layer {
    /// Layers that report `.ns_per_call` and `.calls_per_pkt`.
    pub const MEASURED: [Layer; 14] = [
        Layer::WorkloadNextPacket,
        Layer::WorkloadBuild,
        Layer::ContainerNew,
        Layer::ContainerRun,
        Layer::SimEngine,
        Layer::CoreRatelimit,
        Layer::CoreEngineIngress,
        Layer::CoreEngineReturn,
        Layer::GatewayWorker,
        Layer::GatewayServices,
        Layer::GatewayFlowstate,
        Layer::FpgaTier,
        Layer::FpgaDma,
        Layer::Telemetry,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::WorkloadNextPacket => "workload.next_packet",
            Layer::WorkloadBuild => "workload.build",
            Layer::ContainerNew => "container.new",
            Layer::ContainerRun => "container.run",
            Layer::SimEngine => "sim.engine",
            Layer::CoreRatelimit => "core.ratelimit",
            Layer::CoreEngineIngress => "core.engine.ingress",
            Layer::CoreEngineReturn => "core.engine.return",
            Layer::GatewayWorker => "gateway.worker",
            Layer::GatewayServices => "gateway.services",
            Layer::GatewayFlowstate => "gateway.flowstate",
            Layer::FpgaTier => "fpga.tier",
            Layer::FpgaDma => "fpga.dma",
            Layer::Telemetry => "telemetry",
            Layer::Replay => "trace.replay",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    layer: Layer,
    /// Start and end, in ns since the tracer was created.
    start_ns: u64,
    end_ns: u64,
    /// Time spent inside the layer.
    busy_ns: u64,
    /// Calls into the layer the span covers.
    calls: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Burst the span belongs to (0 outside bursts).
    burst: u64,
}

/// Sum of a layer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Nanoseconds inside the layer.
    pub busy_ns: u64,
    /// Calls into the layer.
    pub calls: u64,
}

impl Total {
    /// Mean nanoseconds per call (0 when the layer was never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64
        }
    }
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Median interval between two back-to-back clock reads.
    clock_ns: u64,
    spans: Vec<Span>,
    parent: Option<usize>,
    burst: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            clock_ns: if enabled { clock_read_ns() } else { 0 },
            spans: Vec::new(),
            parent: None,
            burst: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` as one call into `layer`.
    pub fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.span(layer, || (f(), 1))
    }

    /// Runs `f` as one span of `layer`; `f` returns its result and the
    /// number of calls it made into the layer. Spans of zero calls are not
    /// recorded.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> (T, u64)) -> T {
        if !self.enabled {
            return f().0;
        }
        let start = Instant::now();
        let (out, calls) = f();
        let end = Instant::now();
        if calls > 0 {
            let busy = self.busy_ns(start, end);
            self.push(layer, start, end, busy, calls);
        }
        out
    }

    /// Time inside one timed interval, less one clock read.
    fn busy_ns(&self, start: Instant, end: Instant) -> u64 {
        (end.duration_since(start).as_nanos() as u64).saturating_sub(self.clock_ns)
    }

    fn push(&mut self, layer: Layer, start: Instant, end: Instant, busy_ns: u64, calls: u64) {
        let span = Span {
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            busy_ns,
            calls,
            parent: self.parent,
            burst: self.burst,
        };
        self.spans.push(span);
    }

    /// Opens a parent span; spans recorded until [`Self::close`] are its
    /// children.
    pub fn open(&mut self, layer: Layer) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.push(layer, now, now, 0, 1);
        self.parent = Some(id);
        id
    }

    /// Closes the span `open` returned, making its parent current again.
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
        self.parent = span.parent;
    }

    /// Starts the next burst: later spans carry its id.
    pub fn next_burst(&mut self) {
        self.burst += 1;
    }

    /// The number of spans so far: a bound for [`Self::totals`] ranges.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Sum of `layer`'s spans among the spans recorded in `range`.
    pub fn totals(&self, range: std::ops::Range<usize>, layer: Layer) -> Total {
        self.spans[range]
            .iter()
            .filter(|s| s.layer == layer)
            .fold(Total::default(), |t, s| Total {
                busy_ns: t.busy_ns + s.busy_ns,
                calls: t.calls + s.calls,
            })
    }

    /// Every span as tab-separated text, one span per line after a header.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tbusy_ns\tcalls\tparent\tburst\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls,
                s.burst
            );
        }
        out
    }
}

/// Median interval between two back-to-back `Instant::now` calls.
fn clock_read_ns() -> u64 {
    let mut samples: Vec<u64> = (0..1001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Wraps the real pod's source: every call is timed, and each run of
/// [`SOURCE_SPAN_CALLS`] calls becomes one `workload.next_packet` span
/// whose `busy_ns` is the time inside those calls.
pub struct TracedSource<'a> {
    inner: &'a mut dyn TrafficSource,
    tracer: &'a mut Tracer,
    first: Option<Instant>,
    last: Option<Instant>,
    busy_ns: u64,
    calls: u64,
}

impl<'a> TracedSource<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut dyn TrafficSource, tracer: &'a mut Tracer) -> Self {
        Self {
            inner,
            tracer,
            first: None,
            last: None,
            busy_ns: 0,
            calls: 0,
        }
    }

    fn flush(&mut self) {
        if let (Some(first), Some(last)) = (self.first.take(), self.last.take()) {
            self.tracer.next_burst();
            self.tracer.push(
                Layer::WorkloadNextPacket,
                first,
                last,
                self.busy_ns,
                self.calls,
            );
        }
        self.busy_ns = 0;
        self.calls = 0;
    }

    /// Records the last partial span.
    pub fn finish(mut self) {
        self.flush();
    }
}

impl TrafficSource for TracedSource<'_> {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        let start = Instant::now();
        let p = self.inner.next_packet();
        let end = Instant::now();
        self.first.get_or_insert(start);
        self.last = Some(end);
        self.busy_ns += self.tracer.busy_ns(start, end);
        self.calls += 1;
        if self.calls == SOURCE_SPAN_CALLS {
            self.flush();
        }
        p
    }
}
