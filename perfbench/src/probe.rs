//! Timing decorators for the simulator's two plug-in interfaces.
//!
//! [`TimedArbiter`] and [`TimedTraffic`] wrap an [`Arbiter`] and a
//! [`TrafficSource`] from outside the simulator, delegate every method
//! unchanged, and add the wall-clock time and call counts of the calls
//! that cross the layer boundary. They are pure observers: a wrapped run
//! produces statistics identical to an unwrapped one, which the benchmark
//! checks on every traced run.
//!
//! The wrappers keep running totals rather than one span per call; the
//! workload zeroes them after the warm-up and reads them at the end.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use noc_sim::{
    Arbiter, Candidate, InjectionRequest, NetSnapshot, OutputCtx, Packet, RouterCtx, RouterId,
    TrafficSource,
};

/// Nanoseconds elapsed since `t0`.
fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// One contended router decision captured for the NN attribution replay:
/// an owned copy of a [`RouterCtx`].
#[derive(Debug, Clone)]
pub struct SampledRouter {
    /// Router arbitrated.
    pub router: RouterId,
    /// Cycle of the decision.
    pub cycle: u64,
    /// Ports per router.
    pub num_ports: usize,
    /// Virtual networks per port.
    pub num_vnets: usize,
    /// Contended outputs and their candidates.
    pub outputs: Vec<(usize, Vec<Candidate>)>,
    /// Network snapshot at the decision.
    pub net: NetSnapshot,
}

/// Call counts and busy time of the arbiter layer.
#[derive(Debug, Clone, Default)]
pub struct ArbTally {
    /// `Arbiter::select` calls.
    pub select_calls: u64,
    /// Nanoseconds inside `select`.
    pub select_ns: u64,
    /// `Arbiter::plan_router` calls.
    pub plan_calls: u64,
    /// Nanoseconds inside `plan_router`.
    pub plan_ns: u64,
    /// Candidates presented to `select`, summed over calls.
    pub candidates: u64,
    /// Network rows the NN policy's documented batching rule evaluates:
    /// one row per contended output of a router with two or more of them
    /// (one batched pass in `plan_router`), plus one scalar row for every
    /// `select` the plan does not cover (the policy's 1% random draws,
    /// which skip the network, are not visible from outside).
    pub nn_rows: u64,
    /// Captured contended routers (only when sampling is on).
    pub samples: Vec<SampledRouter>,
}

/// Capture every `SAMPLE_EVERY`-th contended router, up to `SAMPLE_CAP`.
const SAMPLE_EVERY: u64 = 16;
const SAMPLE_CAP: usize = 4096;

/// An [`Arbiter`] decorator that times `select` and `plan_router`.
pub struct TimedArbiter {
    inner: Box<dyn Arbiter>,
    tally: Rc<RefCell<ArbTally>>,
    sample: bool,
    contended_seen: u64,
    /// `(out_port, candidates)` of the current router's batched plan,
    /// mirroring the NN policy's rule to count its rows.
    plan: Vec<(usize, usize)>,
    plan_key: (RouterId, u64),
}

impl std::fmt::Debug for TimedArbiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedArbiter")
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl TimedArbiter {
    /// Wraps `inner`; totals accumulate in `tally`. With `sample`, every
    /// 16th contended router is copied into the tally for replay.
    pub fn new(inner: Box<dyn Arbiter>, tally: Rc<RefCell<ArbTally>>, sample: bool) -> Self {
        TimedArbiter {
            inner,
            tally,
            sample,
            contended_seen: 0,
            plan: Vec::new(),
            plan_key: (RouterId(usize::MAX), u64::MAX),
        }
    }
}

impl Arbiter for TimedArbiter {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        let t0 = Instant::now();
        let choice = self.inner.select(ctx);
        let ns = ns_since(t0);
        let planned = self.plan_key == (ctx.router, ctx.cycle)
            && self.plan.contains(&(ctx.out_port, ctx.candidates.len()));
        let mut t = self.tally.borrow_mut();
        t.select_calls += 1;
        t.select_ns += ns;
        t.candidates += ctx.candidates.len() as u64;
        t.nn_rows += u64::from(!planned);
        choice
    }

    fn plan_router(&mut self, ctx: &RouterCtx<'_>) {
        let t0 = Instant::now();
        self.inner.plan_router(ctx);
        let ns = ns_since(t0);
        self.plan.clear();
        if ctx.outputs.len() >= 2 {
            self.plan
                .extend(ctx.outputs.iter().map(|(p, c)| (*p, c.len())));
            self.plan_key = (ctx.router, ctx.cycle);
        }
        let mut t = self.tally.borrow_mut();
        t.plan_calls += 1;
        t.plan_ns += ns;
        t.nn_rows += self.plan.len() as u64;
        if self.sample && !ctx.outputs.is_empty() {
            self.contended_seen += 1;
            if self.contended_seen.is_multiple_of(SAMPLE_EVERY) && t.samples.len() < SAMPLE_CAP {
                t.samples.push(SampledRouter {
                    router: ctx.router,
                    cycle: ctx.cycle,
                    num_ports: ctx.num_ports,
                    num_vnets: ctx.num_vnets,
                    outputs: ctx.outputs.to_vec(),
                    net: *ctx.net,
                });
            }
        }
    }

    fn wants_features(&self) -> bool {
        self.inner.wants_features()
    }

    fn end_cycle(&mut self, net: &NetSnapshot) {
        self.inner.end_cycle(net);
    }

    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// A [`TrafficSource`] decorator that times `pull` and `on_delivered`.
#[derive(Debug)]
pub struct TimedTraffic<T> {
    /// The wrapped source.
    pub inner: T,
    /// Nanoseconds inside `pull`/`pull_into`.
    pub pull_ns: u64,
    /// `on_delivered` calls.
    pub delivered_calls: u64,
    /// Nanoseconds inside `on_delivered`.
    pub delivered_ns: u64,
}

impl<T> TimedTraffic<T> {
    /// Wraps `inner` with zeroed totals.
    pub fn new(inner: T) -> Self {
        TimedTraffic {
            inner,
            pull_ns: 0,
            delivered_calls: 0,
            delivered_ns: 0,
        }
    }

    /// Zeroes the totals.
    pub fn reset_counts(&mut self) {
        self.pull_ns = 0;
        self.delivered_calls = 0;
        self.delivered_ns = 0;
    }

    /// Nanoseconds in both timed methods.
    pub fn busy_ns(&self) -> u64 {
        self.pull_ns + self.delivered_ns
    }
}

impl<T: TrafficSource> TrafficSource for TimedTraffic<T> {
    fn pull(&mut self, cycle: u64, net: &NetSnapshot) -> Vec<InjectionRequest> {
        let t0 = Instant::now();
        let out = self.inner.pull(cycle, net);
        self.pull_ns += ns_since(t0);
        out
    }

    fn pull_into(&mut self, cycle: u64, net: &NetSnapshot, out: &mut Vec<InjectionRequest>) {
        let t0 = Instant::now();
        self.inner.pull_into(cycle, net, out);
        self.pull_ns += ns_since(t0);
    }

    fn on_delivered(&mut self, packet: &Packet, cycle: u64) {
        let t0 = Instant::now();
        self.inner.on_delivered(packet, cycle);
        self.delivered_ns += ns_since(t0);
        self.delivered_calls += 1;
    }

    fn is_done(&self, cycle: u64) -> bool {
        self.inner.is_done(cycle)
    }

    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}
