//! The assembled system and its deterministic event loop.

use crate::config::SystemConfig;
use crate::error::RunError;
use crate::mechanism::Mechanism;
use crate::memory::MemoryImage;
use crate::metrics::RunMetrics;
use crate::node::{Effects, NodeState, Sends};
use crate::oracle::FalseAbortOracle;
use crate::telemetry::{TelemetryCollector, TelemetryConfig};
use puno_coherence::directory::{DirAction, DirectoryBank};
use puno_coherence::l1::L1Cache;
use puno_coherence::msg::{CoherenceMsg, TxInfo};
use puno_coherence::predictor::{NullPredictor, PredictedTarget, UnicastPredictor};
use puno_coherence::sharers::SharerSet;
use puno_core::{PunoPredictor, PunoStats, TxLengthBuffer};
use puno_htm::rmw::RmwPredictor;
use puno_htm::unit::HtmUnit;
use puno_htm::{BackoffEngine, HtmStats};
use puno_noc::Network;
use puno_sim::{
    ChannelMask, Cycle, Cycles, EventQueue, FaultInjector, FaultKind, FaultPlan, LineAddr, NodeId,
    SimRng, TraceChannel, TraceEvent, Tracer,
};
use puno_workloads::{ProgramSet, WorkloadParams};

/// Simulation events.
#[derive(Debug)]
pub(crate) enum Event {
    /// Resume a node's core FSM (stale epochs are dropped).
    NodeWake { node: NodeId, epoch: u64 },
    /// Advance the network one cycle. Re-armed while packets are in
    /// flight, as the queue's retimable token: between cycle batches the
    /// run loop parks it at the network's next activity (see
    /// `advance_net_token`).
    NetStep,
    /// A delayed directory send (L2 access / prediction latency elapsed).
    DirSend {
        home: NodeId,
        dst: NodeId,
        msg: CoherenceMsg,
    },
    /// Off-chip memory fetch finished at a home bank.
    MemReady { home: NodeId, addr: LineAddr },
    /// A fault-jittered message whose extra delay has elapsed; injects
    /// without re-probing the fault streams.
    FaultedInject {
        src: NodeId,
        dst: NodeId,
        msg: CoherenceMsg,
    },
    /// A fault fires (scheduled in the plan, or a rate-drawn forced abort
    /// aimed mid-transaction).
    Fault {
        kind: FaultKind,
        node: NodeId,
        magnitude: Cycles,
    },
}

/// Per-bank predictor: baseline banks never unicast; PUNO banks run the
/// P-Buffer/UD machinery.
pub(crate) enum PredictorImpl {
    Null(NullPredictor),
    Puno(Box<PunoPredictor>),
}

impl UnicastPredictor for PredictorImpl {
    fn observe_request(&mut self, now: Cycle, node: NodeId, info: &TxInfo) {
        match self {
            PredictorImpl::Null(p) => p.observe_request(now, node, info),
            PredictorImpl::Puno(p) => p.observe_request(now, node, info),
        }
    }

    fn predict_unicast(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        requester: NodeId,
        req: &TxInfo,
        holders: SharerSet,
        exclusive_owner: bool,
    ) -> Option<PredictedTarget> {
        match self {
            PredictorImpl::Null(p) => {
                p.predict_unicast(now, addr, requester, req, holders, exclusive_owner)
            }
            PredictorImpl::Puno(p) => {
                p.predict_unicast(now, addr, requester, req, holders, exclusive_owner)
            }
        }
    }

    fn on_mispredict_feedback(&mut self, now: Cycle, addr: LineAddr, node: NodeId) {
        match self {
            PredictorImpl::Null(p) => p.on_mispredict_feedback(now, addr, node),
            PredictorImpl::Puno(p) => p.on_mispredict_feedback(now, addr, node),
        }
    }

    fn after_service(&mut self, now: Cycle, addr: LineAddr, holders: SharerSet) {
        match self {
            PredictorImpl::Null(p) => p.after_service(now, addr, holders),
            PredictorImpl::Puno(p) => p.after_service(now, addr, holders),
        }
    }

    fn decision_latency(&self) -> Cycle {
        match self {
            PredictorImpl::Null(p) => p.decision_latency(),
            PredictorImpl::Puno(p) => p.decision_latency(),
        }
    }
}

/// Where a pass of the batch loop stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StopAt {
    /// Every node has retired (or the run failed).
    Completion,
    /// Some node is about to issue its first TX_BEGIN (see
    /// [`System::run_to_first_begin`]).
    FirstBegin,
}

pub struct System {
    config: SystemConfig,
    workload_name: String,
    seed: u64,
    queue: EventQueue<Event>,
    network: Network<CoherenceMsg>,
    nodes: Vec<NodeState>,
    dirs: Vec<DirectoryBank>,
    predictors: Vec<PredictorImpl>,
    memory: MemoryImage,
    oracle: FalseAbortOracle,
    net_step_armed: bool,
    nodes_done: usize,
    finish_cycle: Cycle,
    tracer: Tracer,
    /// Aggregating collector for `RunMetrics::telemetry` (off by default).
    telemetry: Option<TelemetryCollector>,
    /// Channels some sink wants: the tracer's mask unioned with what the
    /// telemetry collector needs. Cached so the per-event check is one
    /// bit test; [`System::recompute_trace_masks`] keeps it (and the
    /// per-node HTM masks) coherent.
    trace_mask: ChannelMask,
    fault: FaultInjector,
    /// Extra delay owed to each node's next injected message (accumulated
    /// by scheduled `DelayJitter` fault events).
    pending_jitter: Vec<Cycles>,
    /// Cycle of the most recently popped event (failure diagnostics).
    last_cycle: Cycle,
    /// Forward-progress watchdog: next sampling cycle and the progress
    /// marker (commits + retired nodes) captured at the previous sample.
    watchdog_next: Cycle,
    watchdog_last: u64,
    /// Running total of transaction commits, maintained by `apply_effects`
    /// so the watchdog's progress marker is O(1) instead of an all-nodes
    /// stats sum.
    progress_commits: u64,
    /// Reused scratch for directory action emission (kept empty between
    /// events; taken/restored around each directory call).
    dir_scratch: Vec<DirAction>,
    /// Reused scratch the node handlers append their sends to (kept empty
    /// between events; `apply_effects` injects and drains it).
    send_scratch: Sends,
    /// Reused scratch for per-cycle network deliveries.
    delivery_scratch: Vec<(NodeId, CoherenceMsg)>,
    /// Host-side throughput accounting (never affects simulated behaviour).
    events_dispatched: u64,
    peak_queue_depth: usize,
    host_wall_secs: f64,
    /// Cycles the NetStep token skipped because no router, ejection, or NI
    /// queue had anything to do (host-side accounting; see
    /// `advance_net_token`).
    quiesced_cycles: u64,
    /// Lines and event interval of the scan armed by
    /// [`System::check_invariants_every`] (host-side).
    invariant_scan: Option<(Vec<LineAddr>, u64)>,
    /// `events_dispatched` value at which the next invariant scan runs;
    /// `u64::MAX` while disarmed.
    next_invariant_scan: u64,
}

impl System {
    /// Assemble a system running `params` under `config.mechanism`.
    pub fn new(config: SystemConfig, params: &WorkloadParams, seed: u64) -> Self {
        let programs = ProgramSet::generate(params, config.nodes(), seed);
        Self::new_shared(config, params, seed, &programs)
    }

    /// Like [`System::new`], but replaying an already generated
    /// [`ProgramSet`] instead of regenerating the trace. The set must come
    /// from the same `(params, seed)` (and cover the mesh); sharing it
    /// across mechanism cells and retries is what makes sweep-scale
    /// execution cheap without touching simulated behaviour.
    ///
    /// Panics on a mesh of more than [`SharerSet::CAPACITY`] nodes: the
    /// directory's holder set has no bit for the rest.
    pub fn new_shared(
        config: SystemConfig,
        params: &WorkloadParams,
        seed: u64,
        programs: &ProgramSet,
    ) -> Self {
        assert!(
            config.mesh.nodes() <= SharerSet::CAPACITY,
            "a mesh of {} nodes exceeds the directory's limit of {} nodes",
            config.mesh.nodes(),
            SharerSet::CAPACITY
        );
        let nodes_n = config.nodes();
        assert_eq!(
            programs.nodes(),
            nodes_n,
            "program set does not cover the mesh"
        );
        debug_assert_eq!(
            programs.seed, seed,
            "program set generated for another seed"
        );
        let root_rng = SimRng::new(seed);
        // The queue's depth peaks at about one event per node (256 on the
        // 16x16 mesh); anything beyond grows once and is kept.
        let mut queue = EventQueue::with_capacity(nodes_n as usize);
        let mut nodes = Vec::with_capacity(nodes_n as usize);
        for i in 0..nodes_n {
            let id = NodeId(i);
            let rmw = config
                .mechanism
                .uses_rmw_predictor()
                .then(RmwPredictor::paper);
            let mut node = NodeState::new(
                id,
                nodes_n,
                L1Cache::new(config.l1),
                HtmUnit::new(id, config.abort_timing, rmw),
                TxLengthBuffer::new(config.puno.txlb_entries),
                BackoffEngine::new(
                    config.mechanism.backoff_kind(),
                    config.backoff,
                    root_rng.derive(0xB0FF ^ i as u64),
                ),
                programs.node(id),
                config.commit_latency,
                config.mechanism.uses_puno() && config.puno.notification_enabled,
            );
            node.set_wakeup_hints(config.mechanism.uses_puno() && config.puno.wakeup_hints);
            if let Some(sig_cfg) = config.signatures {
                node.htm.enable_signatures(sig_cfg);
            }
            queue.schedule_at(0, Event::NodeWake { node: id, epoch: 0 });
            nodes.push(node);
        }
        let dirs = (0..nodes_n)
            .map(|i| DirectoryBank::new(NodeId(i), config.dir))
            .collect();
        // The P-Buffer has exactly one entry per node (Table II); size it
        // to the mesh so non-4x4 configurations work and so the predictor's
        // timestamp decoding (begin = ts / nodes) stays correct.
        let mut puno_cfg = config.puno;
        puno_cfg.pbuffer_entries = nodes_n as usize;
        let predictors = (0..nodes_n)
            .map(|_| {
                if config.mechanism.uses_puno() {
                    PredictorImpl::Puno(Box::new(PunoPredictor::new(puno_cfg)))
                } else {
                    PredictorImpl::Null(NullPredictor)
                }
            })
            .collect();
        let network = Network::new(config.mesh, config.noc);
        Self {
            workload_name: params.name.clone(),
            seed,
            queue,
            network,
            nodes,
            dirs,
            predictors,
            memory: MemoryImage::new(),
            oracle: FalseAbortOracle::default(),
            net_step_armed: false,
            nodes_done: 0,
            finish_cycle: 0,
            tracer: Tracer::off(),
            telemetry: None,
            trace_mask: ChannelMask::NONE,
            fault: FaultInjector::new(FaultPlan::none()),
            pending_jitter: vec![0; nodes_n as usize],
            last_cycle: 0,
            watchdog_next: config.watchdog_window,
            watchdog_last: 0,
            progress_commits: 0,
            dir_scratch: Vec::with_capacity(8),
            send_scratch: Vec::with_capacity(8),
            delivery_scratch: Vec::with_capacity(nodes_n as usize),
            events_dispatched: 0,
            peak_queue_depth: 0,
            host_wall_secs: 0.0,
            quiesced_cycles: 0,
            invariant_scan: None,
            next_invariant_scan: u64::MAX,
            config,
        }
    }

    /// Install a fault plan. Scheduled events are enqueued immediately;
    /// rate-based faults are probed at their hook points. An empty plan is
    /// exactly equivalent to never calling this (no RNG is consulted and no
    /// event is scheduled), so fault-free runs stay bit-identical.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = FaultInjector::new(plan);
        for ev in self.fault.scheduled_events().to_vec() {
            self.queue.schedule_at(
                ev.at,
                Event::Fault {
                    kind: ev.kind,
                    node: ev.node,
                    magnitude: ev.magnitude,
                },
            );
        }
    }

    /// Keep the last `capacity` trace events (all channels) in a ring for
    /// debugging; retrieve them with [`System::trace_dump`]. Shorthand for
    /// [`System::install_tracer`] with an all-channel ring tracer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.install_tracer(Tracer::ring(ChannelMask::ALL, capacity));
    }

    /// Install a configured [`Tracer`] (channel mask, ring, optional JSONL
    /// sink) and propagate the effective channel mask to the nodes.
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.recompute_trace_masks();
    }

    /// Aggregate per-transaction telemetry into `RunMetrics::telemetry`
    /// (abort blame, contention heat, windowed time series).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = Some(TelemetryCollector::new(config));
        self.recompute_trace_masks();
    }

    /// Recompute the cached effective channel mask (tracer ∪ telemetry
    /// needs) and push the HTM slice down to the nodes, which buffer their
    /// own lifecycle events.
    fn recompute_trace_masks(&mut self) {
        let mut mask = self.tracer.mask();
        if self.telemetry.is_some() {
            mask = mask.union(TelemetryCollector::channels());
        }
        self.trace_mask = mask;
        let node_mask = if mask.contains(TraceChannel::Htm) {
            ChannelMask::NONE.with(TraceChannel::Htm)
        } else {
            ChannelMask::NONE
        };
        for n in &mut self.nodes {
            n.set_trace_mask(node_mask);
        }
    }

    /// The installed tracer (ring/JSONL inspection after a run).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (e.g. to flush the JSONL sink mid-run).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Render the retained trace ring.
    pub fn trace_dump(&self) -> String {
        self.tracer.dump()
    }

    /// Record `event` in every interested sink. Callers check
    /// `self.trace_mask` (via [`System::emit`]) before constructing events,
    /// so this is never reached on the tracing-off path.
    fn sink(&mut self, now: Cycle, event: &TraceEvent) {
        self.tracer.record(now, event);
        if let Some(t) = &mut self.telemetry {
            t.observe(now, event);
        }
    }

    /// Lazily build and record one trace event: `f` only runs when some
    /// sink subscribed to `ch`, so disabled tracing costs one bit test.
    #[inline]
    fn emit(&mut self, now: Cycle, ch: TraceChannel, f: impl FnOnce() -> TraceEvent) {
        if self.trace_mask.contains(ch) {
            self.sink(now, &f());
        }
    }

    /// Move the HTM lifecycle events a node buffered during its last call
    /// into the sinks (the buffer allocation is recycled).
    fn drain_node_trace(&mut self, node: NodeId) {
        let idx = node.index();
        if !self.nodes[idx].has_trace_events() {
            return;
        }
        let mut buf = self.nodes[idx].take_trace_buf();
        for (cycle, event) in buf.drain(..) {
            self.sink(cycle, &event);
        }
        self.nodes[idx].restore_trace_buf(buf);
    }

    pub fn memory(&self) -> &MemoryImage {
        &self.memory
    }

    /// Scan the structural coherence invariants over `lines`
    /// (single-writer/multi-reader, directory-owner agreement, sharer
    /// conservatism). Expensive; meant for tests.
    pub fn check_invariants(&self, lines: &[LineAddr]) -> Vec<crate::invariants::Violation> {
        crate::invariants::check(&self.nodes, &self.dirs, lines)
    }

    /// Arm a host-side invariant scan in the run loop: after every
    /// `every`-th dispatched event, [`System::check_invariants`] runs over
    /// `lines` and the run panics on the first violation. The scan only
    /// reads simulated state, so an armed run is bit-identical to an
    /// unarmed one. Disarmed, the loop pays one compare per event.
    pub fn check_invariants_every(&mut self, lines: &[LineAddr], every: u64) {
        assert!(every > 0);
        self.invariant_scan = Some((lines.to_vec(), every));
        self.next_invariant_scan = self.events_dispatched + every;
    }

    /// The armed invariant scan, run from the loop at its event cadence.
    #[cold]
    fn scan_invariants(&mut self) {
        let (lines, every) = self
            .invariant_scan
            .as_ref()
            .expect("invariant scan fired without being armed");
        let every = *every;
        let violations = crate::invariants::check(&self.nodes, &self.dirs, lines);
        assert!(
            violations.is_empty(),
            "coherence invariants violated at cycle {}: {violations:?}",
            self.last_cycle
        );
        self.next_invariant_scan += every;
    }

    pub fn mechanism(&self) -> Mechanism {
        self.config.mechanism
    }

    /// Process one popped event.
    fn dispatch_event(&mut self, now: Cycle, event: Event) {
        match event {
            Event::NodeWake { node, epoch } => self.on_node_wake(now, node, epoch),
            Event::NetStep => self.on_net_step(now),
            Event::DirSend { home, dst, msg } => self.inject(now, home, dst, msg),
            Event::MemReady { home, addr } => {
                let mut actions = std::mem::take(&mut self.dir_scratch);
                debug_assert!(actions.is_empty(), "dir scratch reentered");
                self.dirs[home.index()].mem_ready_into(addr, &mut actions);
                self.apply_dir_actions(now, home, &mut actions);
                self.dir_scratch = actions;
            }
            Event::FaultedInject { src, dst, msg } => self.inject_now(now, src, dst, msg),
            Event::Fault {
                kind,
                node,
                magnitude,
            } => self.on_fault(now, kind, node, magnitude),
        }
    }

    /// Apply one fault at its scheduled firing point. All kinds are
    /// abort-recoverable: messages are delayed or refused, never dropped,
    /// and forced aborts reuse the ordinary abort/restart path.
    fn on_fault(&mut self, now: Cycle, kind: FaultKind, node: NodeId, magnitude: Cycles) {
        self.emit(now, TraceChannel::Fault, || TraceEvent::FaultFired {
            kind,
            node,
            magnitude,
        });
        match kind {
            FaultKind::DelayJitter => {
                // Owed to the node's next injected message; recorded when
                // consumed so the accounting matches messages affected.
                self.pending_jitter[node.index()] += magnitude.max(1);
            }
            FaultKind::LinkStall => {
                self.network.stall_links(now, node, magnitude.max(1));
                self.fault.record_link_stall();
            }
            FaultKind::SpuriousNack => {
                // One-shot: the node's next non-self forward that would
                // have complied is refused instead.
                self.nodes[node.index()].arm_spurious_nack();
            }
            FaultKind::ForcedAbort => {
                let (fired, eff) = self.nodes[node.index()].force_abort(
                    now,
                    &mut self.memory,
                    &mut self.send_scratch,
                );
                if fired {
                    self.fault.record_forced_abort();
                }
                self.drain_node_trace(node);
                self.apply_effects(now, node, eff);
            }
        }
    }

    /// Run to completion and return the metrics, reporting deadlock and
    /// livelock as a structured [`RunError`] (with the NACK wait-for graph
    /// and any retained trace). The system survives the run, so the final
    /// [`System::memory`] image and [`System::trace_dump`] stay readable;
    /// call it on a temporary when only the metrics matter:
    /// `System::new(..).try_run_recycled()`. After
    /// [`System::run_to_first_begin`] it continues the same run.
    pub fn try_run_recycled(&mut self) -> Result<RunMetrics, RunError> {
        self.run_loop(StopAt::Completion)?;
        Ok(self.finalize())
    }

    /// Run until the first cycle sub-batch in which some node would issue
    /// TX_BEGIN, and stop in front of it. Returns the cycle of that
    /// boundary, or `None` when the run finished before any transaction.
    ///
    /// This is the batch loop with an early stop, checked where the loop
    /// would pop its next batch. Every piece of loop state is settled there
    /// (the NoC step token is parked), so a later
    /// [`System::try_run_recycled`] continues exactly as a straight run
    /// would: same simulated fields, same `events_dispatched` and
    /// `quiesced_cycles`. `sweep_all --trace` uses it to skip the
    /// pre-transaction warm-up with its sinks detached.
    pub fn run_to_first_begin(&mut self) -> Result<Option<Cycle>, RunError> {
        self.run_loop(StopAt::FirstBegin)?;
        Ok((self.nodes_done < self.nodes.len()).then_some(self.last_cycle))
    }

    fn run_loop(&mut self, stop: StopAt) -> Result<(), RunError> {
        let t0 = std::time::Instant::now();
        let result = self.run_loop_inner(stop);
        self.host_wall_secs += t0.elapsed().as_secs_f64();
        result
    }

    /// The hot loop: batch-pop every event of the earliest cycle and
    /// dispatch in `(cycle, seq)` order. Per-event this is observably
    /// identical to popping one at a time — the guards (max_cycles,
    /// watchdog) depend only on `now`, which is shared by the whole batch,
    /// and events scheduled mid-batch land at later seqs so the next
    /// `pop_cycle_into` picks them up in exactly the one-at-a-time order.
    ///
    /// A cycle whose only event is the parked NoC step token (most cycles
    /// on a busy mesh) skips the batch: the token is popped alone and
    /// stepped directly, with the same depth sample, guards, event count,
    /// invariant-scan check and token parking as a one-event batch.
    fn run_loop_inner(&mut self, stop: StopAt) -> Result<(), RunError> {
        let mut batch: Vec<Event> = Vec::with_capacity(2 * self.nodes.len());
        loop {
            if self.nodes_done >= self.nodes.len() {
                return Ok(());
            }
            // Checked before every pop (a mid-cycle schedule lands at a
            // later seq and is popped by the *next* `pop_cycle_into`), so
            // the stop lands on the exact sub-batch boundary preceding the
            // first begin.
            if stop == StopAt::FirstBegin && self.nodes.iter().any(NodeState::poised_to_begin) {
                return Ok(());
            }
            self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
            if let Some((now, step)) = self.queue.pop_lone_token() {
                debug_assert!(matches!(step, Event::NetStep), "the token is the NoC step");
                self.last_cycle = now;
                self.guards(now)?;
                self.events_dispatched += 1;
                self.on_net_step(now);
                if self.events_dispatched == self.next_invariant_scan {
                    self.scan_invariants();
                }
                self.advance_net_token();
                continue;
            }
            let Some(now) = self.queue.pop_cycle_into(&mut batch) else {
                return Err(self.deadlock_error());
            };
            self.last_cycle = now;
            self.guards(now)?;
            for event in batch.drain(..) {
                if self.nodes_done >= self.nodes.len() {
                    // The run is over; one-at-a-time popping would never
                    // have dispatched the rest of this cycle either.
                    break;
                }
                self.events_dispatched += 1;
                self.dispatch_event(now, event);
                if self.events_dispatched == self.next_invariant_scan {
                    self.scan_invariants();
                }
            }
            self.advance_net_token();
        }
    }

    /// The livelock guards: max-cycles ceiling and the forward-progress
    /// watchdog.
    fn guards(&mut self, now: Cycle) -> Result<(), RunError> {
        if now >= self.config.max_cycles {
            return Err(self.livelock_error(now, self.config.max_cycles));
        }
        if now >= self.watchdog_next {
            let marker = self.progress_marker();
            if marker == self.watchdog_last {
                return Err(self.livelock_error(now, self.config.watchdog_window));
            }
            self.watchdog_last = marker;
            self.watchdog_next = now + self.config.watchdog_window;
        }
        Ok(())
    }

    /// Monotone system-wide progress measure sampled by the watchdog:
    /// total commits plus retired nodes (so post-commit drain phases still
    /// count as progress). O(1): `apply_effects` maintains the commit total.
    fn progress_marker(&self) -> u64 {
        debug_assert_eq!(
            self.progress_commits,
            self.nodes
                .iter()
                .map(|n| n.htm.stats().commits.get())
                .sum::<u64>(),
            "running commit counter diverged from per-node stats"
        );
        self.progress_commits + self.nodes_done as u64
    }

    /// Render who-waits-on-whom over nacked lines, for failure diagnostics.
    /// Best-effort: built from each node's retry state and the nackers of
    /// its last failed episode (or its in-flight MSHR).
    fn nack_wait_for_graph(&self) -> String {
        let mut lines = Vec::new();
        for n in &self.nodes {
            if n.is_done() {
                continue;
            }
            if let Some(addr) = n.waiting_on() {
                let nackers: Vec<String> = n
                    .last_nackers()
                    .iter()
                    .map(|id| format!("node {}", id.0))
                    .collect();
                lines.push(format!(
                    "  node {} retries line {:#x}, last nacked by [{}]",
                    n.id.0,
                    addr.0,
                    nackers.join(", ")
                ));
            } else if let Some(mshr) = &n.mshr {
                lines.push(format!(
                    "  node {} blocked in-flight on line {:#x} ({} nacks so far)",
                    n.id.0,
                    mshr.addr.0,
                    mshr.nackers.len()
                ));
            }
        }
        if lines.is_empty() {
            "  (no node is waiting on a nacked line)".to_string()
        } else {
            lines.join("\n")
        }
    }

    fn deadlock_error(&self) -> RunError {
        RunError::Deadlock {
            workload: self.workload_name.clone(),
            seed: self.seed,
            cycle: self.last_cycle,
            unfinished_nodes: self
                .nodes
                .iter()
                .filter(|n| !n.is_done())
                .map(|n| n.id.0)
                .collect(),
            wait_for: self.nack_wait_for_graph(),
            trace: self.tracer.dump(),
        }
    }

    fn livelock_error(&self, now: Cycle, commit_window: u64) -> RunError {
        RunError::Livelock {
            workload: self.workload_name.clone(),
            seed: self.seed,
            cycles: now,
            commit_window,
            wait_for: self.nack_wait_for_graph(),
            trace: self.tracer.dump(),
        }
    }

    fn on_node_wake(&mut self, now: Cycle, node: NodeId, epoch: u64) {
        let idx = node.index();
        if self.nodes[idx].epoch != epoch || self.nodes[idx].is_done() {
            return; // stale wake (control flow was redirected by an abort)
        }
        if self.nodes[idx].phase != crate::node::Phase::Ready {
            return; // blocked on the MSHR; its completion will reschedule
        }
        // Forced-abort hook: detect a transaction beginning across this
        // step and (rate permitting) schedule an abort mid-transaction.
        let probe_begin = !self.fault.is_empty() && self.nodes[idx].htm.current().is_none();
        let eff = self.nodes[idx].step(now, &mut self.memory, &mut self.send_scratch);
        if probe_begin && self.nodes[idx].htm.current().is_some() && self.fault.forced_abort() {
            let at = now + self.fault.forced_abort_delay();
            self.queue.schedule_at(
                at,
                Event::Fault {
                    kind: FaultKind::ForcedAbort,
                    node,
                    magnitude: 0,
                },
            );
        }
        self.drain_node_trace(node);
        self.apply_effects(now, node, eff);
    }

    fn on_net_step(&mut self, now: Cycle) {
        let mut delivered = std::mem::take(&mut self.delivery_scratch);
        self.network.step_into(now, &mut delivered);
        if self.network.is_idle() {
            self.net_step_armed = false;
        } else {
            self.queue.schedule_token(now + 1, Event::NetStep);
        }
        for (dst, msg) in delivered.drain(..) {
            self.emit(now, TraceChannel::Noc, || TraceEvent::NocDeliver {
                dst,
                vnet: msg.vnet().index() as u8,
                flits: msg.flits(),
            });
            self.deliver(now, dst, msg);
        }
        self.delivery_scratch = delivered;
    }

    fn deliver(&mut self, now: Cycle, dst: NodeId, msg: CoherenceMsg) {
        self.emit(now, TraceChannel::Coh, || TraceEvent::CohRecv {
            dst,
            kind: msg.trace_kind(),
            addr: msg.addr(),
        });
        match &msg {
            // Home-directory traffic.
            CoherenceMsg::Gets { .. }
            | CoherenceMsg::Getx { .. }
            | CoherenceMsg::Putx { .. }
            | CoherenceMsg::Puts { .. }
            | CoherenceMsg::Unblock { .. }
            | CoherenceMsg::WbData { .. } => {
                debug_assert_eq!(
                    dst,
                    puno_coherence::home_node(msg.addr(), self.config.nodes()),
                    "directory message delivered to a non-home node"
                );
                // The transition event needs the message identity after
                // `handle_into` consumes it; capture it only when traced.
                let dir_info = self
                    .trace_mask
                    .contains(TraceChannel::Dir)
                    .then(|| (msg.trace_kind(), msg.addr()));
                if let CoherenceMsg::Unblock {
                    addr,
                    mp_node: Some(mp),
                    ..
                } = &msg
                {
                    let (addr, mp) = (*addr, *mp);
                    self.emit(now, TraceChannel::Pred, || TraceEvent::PredMispredict {
                        home: dst,
                        addr,
                        node: mp,
                    });
                }
                let mut actions = std::mem::take(&mut self.dir_scratch);
                debug_assert!(actions.is_empty(), "dir scratch reentered");
                self.dirs[dst.index()].handle_into(
                    now,
                    msg,
                    &mut self.predictors[dst.index()],
                    &mut actions,
                );
                self.apply_dir_actions(now, dst, &mut actions);
                self.dir_scratch = actions;
                if let Some((kind, addr)) = dir_info {
                    let (state, busy) = self.dirs[dst.index()].trace_state(addr);
                    self.sink(
                        now,
                        &TraceEvent::DirState {
                            home: dst,
                            kind,
                            addr,
                            state,
                            busy,
                        },
                    );
                }
            }
            // Forwards to sharers/owners.
            CoherenceMsg::Inv { .. }
            | CoherenceMsg::FwdGets { .. }
            | CoherenceMsg::FwdGetx { .. } => {
                // Spurious-NACK hook: a conservative refusal is always
                // protocol-legal (the requester backs off and retries), so
                // a fault may downgrade a would-be Comply to a Nack.
                if !self.fault.is_empty() && self.fault.spurious_nack() {
                    self.nodes[dst.index()].arm_spurious_nack();
                }
                let eff = self.nodes[dst.index()].on_forward(
                    now,
                    &msg,
                    &mut self.memory,
                    &mut self.send_scratch,
                );
                self.drain_node_trace(dst);
                self.apply_effects(now, dst, eff);
            }
            // Responses to a requester (or WbAck to an evictor).
            CoherenceMsg::Data { .. }
            | CoherenceMsg::UpgradeAck { .. }
            | CoherenceMsg::Ack { .. }
            | CoherenceMsg::Nack { .. }
            | CoherenceMsg::WbAck { .. } => {
                let eff = self.nodes[dst.index()].on_response(
                    now,
                    &msg,
                    &mut self.memory,
                    &mut self.send_scratch,
                );
                self.drain_node_trace(dst);
                self.apply_effects(now, dst, eff);
            }
            // Extension: early end of a notified backoff.
            CoherenceMsg::WakeupHint { addr, .. } => {
                let eff = self.nodes[dst.index()].on_wakeup_hint(now, *addr);
                self.drain_node_trace(dst);
                self.apply_effects(now, dst, eff);
            }
        }
    }

    /// Apply and drain directory actions (the buffer is the caller's
    /// reusable scratch; it comes back empty).
    fn apply_dir_actions(&mut self, now: Cycle, home: NodeId, actions: &mut Vec<DirAction>) {
        for action in actions.drain(..) {
            match action {
                DirAction::Send { dst, msg, delay } => {
                    self.emit(now, TraceChannel::Dir, || TraceEvent::DirSend {
                        home,
                        dst,
                        kind: msg.trace_kind(),
                        addr: msg.addr(),
                        delay,
                    });
                    if matches!(
                        &msg,
                        CoherenceMsg::Inv { unicast: true, .. }
                            | CoherenceMsg::FwdGetx { unicast: true, .. }
                    ) {
                        self.emit(now, TraceChannel::Pred, || TraceEvent::PredUnicast {
                            home,
                            addr: msg.addr(),
                            target: dst,
                        });
                    }
                    if delay == 0 {
                        self.inject(now, home, dst, msg);
                    } else {
                        self.queue
                            .schedule_at(now + delay, Event::DirSend { home, dst, msg });
                    }
                }
                DirAction::FetchMem { addr, delay } => {
                    self.emit(now, TraceChannel::Dir, || TraceEvent::DirFetchMem {
                        home,
                        addr,
                        delay,
                    });
                    self.queue
                        .schedule_at(now + delay, Event::MemReady { home, addr });
                }
            }
        }
    }

    /// Inject the sends a node handler appended to `send_scratch`, then
    /// apply its effects.
    fn apply_effects(&mut self, now: Cycle, node: NodeId, eff: Effects) {
        let mut sends = std::mem::take(&mut self.send_scratch);
        for (dst, msg) in sends.drain(..) {
            self.inject(now, node, dst, msg);
        }
        self.send_scratch = sends;
        if let Some(at) = eff.wake_at {
            let epoch = self.nodes[node.index()].epoch;
            self.queue
                .schedule_at(at.max(now), Event::NodeWake { node, epoch });
        }
        if eff.committed {
            self.progress_commits += 1;
        }
        if eff.injected_nack {
            // Recorded at application time: the one-shot arm only counts
            // if it actually downgraded a Comply.
            self.fault.record_spurious_nack();
        }
        if let Some((nacked, aborted)) = eff.oracle_episode {
            self.oracle.record_episode(nacked, aborted);
        }
        if eff.finished {
            self.nodes_done += 1;
            self.finish_cycle = self.finish_cycle.max(now);
        }
    }

    /// Fault hook point: every protocol message passes through here before
    /// entering the network. With an empty plan this is a direct call to
    /// [`System::inject_now`] — no RNG is consulted, keeping fault-free
    /// runs bit-identical.
    fn inject(&mut self, now: Cycle, src: NodeId, dst: NodeId, msg: CoherenceMsg) {
        self.emit(now, TraceChannel::Coh, || TraceEvent::CohSend {
            src,
            dst,
            kind: msg.trace_kind(),
            addr: msg.addr(),
        });
        if !self.fault.is_empty() {
            let owed = std::mem::take(&mut self.pending_jitter[src.index()]);
            let delay = if owed > 0 {
                self.fault.record_jitter(owed);
                Some(owed)
            } else {
                self.fault.message_delay()
            };
            if let Some(stall) = self.fault.link_stall() {
                self.network.stall_links(now, src, stall);
            }
            if let Some(delay) = delay {
                self.queue
                    .schedule_at(now + delay, Event::FaultedInject { src, dst, msg });
                return;
            }
        }
        self.inject_now(now, src, dst, msg);
    }

    fn inject_now(&mut self, now: Cycle, src: NodeId, dst: NodeId, msg: CoherenceMsg) {
        let vnet = msg.vnet();
        let flits = msg.flits();
        self.emit(now, TraceChannel::Noc, || TraceEvent::NocInject {
            src,
            dst,
            vnet: vnet.index() as u8,
            flits,
        });
        self.network.inject(now, src, dst, vnet, flits, msg);
        if !self.net_step_armed {
            self.net_step_armed = true;
            self.queue.schedule_token(now + 1, Event::NetStep);
        }
    }

    /// Event-driven NoC stepping, run between cycle batches: every step
    /// before the network's next activity is a no-op, so park the armed
    /// step token there directly. The target is capped at:
    /// - the next queued event, which may inject. The every-cycle loop's
    ///   token sits at that cycle too, scheduled one cycle earlier, after
    ///   everything already queued; a retimed token takes a fresh sequence
    ///   number after everything already queued, so same-cycle order is
    ///   unchanged;
    /// - the watchdog's next sampling cycle and the max-cycles ceiling, so
    ///   the livelock guards fire at exactly the cycles the every-cycle
    ///   loop samples.
    fn advance_net_token(&mut self) {
        let Some(tc) = self.queue.token_cycle() else {
            return;
        };
        let target = self
            .network
            .next_activity()
            .min(self.queue.peek_cycle_ignoring_token().unwrap_or(Cycle::MAX))
            .min(self.watchdog_next)
            .min(self.config.max_cycles);
        if target > tc {
            self.quiesced_cycles += target - tc;
            self.queue.retime_token(target);
        }
    }

    fn finalize(&mut self) -> RunMetrics {
        let mut htm = HtmStats::default();
        for n in &self.nodes {
            htm.merge(n.htm.stats());
        }
        let mut dir = puno_coherence::DirStats::default();
        for d in &self.dirs {
            dir.merge(d.stats());
        }
        let mut puno = PunoStats::default();
        for p in &self.predictors {
            if let PredictorImpl::Puno(pp) = p {
                puno.merge(pp.stats());
            }
        }
        // The nodes attach the notifications; the predictors never see them.
        puno.notifications = htm.notifications_sent.clone();
        RunMetrics::from_parts(
            &self.workload_name,
            self.config.mechanism.name(),
            self.seed,
            self.finish_cycle,
            htm,
            dir,
            self.network.stats(),
            self.network.link_stats().skew(),
            self.oracle.clone(),
            puno,
            self.fault.stats.clone(),
            crate::metrics::HostPerf {
                wall_secs: self.host_wall_secs,
                events_dispatched: self.events_dispatched,
                peak_queue_depth: self.peak_queue_depth as u64,
                noc_active_scan_ratio: self.network.active_scan_ratio(),
                quiesced_cycles: self.quiesced_cycles,
                ..Default::default()
            }
            .finish(self.finish_cycle),
            self.telemetry.as_ref().map(|t| t.report()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_workloads::micro;

    fn run(mechanism: Mechanism, params: &WorkloadParams, seed: u64) -> RunMetrics {
        let config = SystemConfig::paper(mechanism);
        System::new(config, params, seed)
            .try_run_recycled()
            .unwrap()
    }

    #[test]
    fn private_workload_commits_everything_without_aborts() {
        let params = micro::private_only(20);
        let m = run(Mechanism::Baseline, &params, 1);
        assert_eq!(m.committed, 16 * 20);
        assert_eq!(m.htm.aborts.get(), 0);
        assert_eq!(m.oracle.false_abort_episodes, 0);
        assert!(m.cycles > 0);
    }

    #[test]
    fn counter_workload_is_serializable() {
        // Every committed transactional write is an increment; the final
        // memory values must sum to exactly the number of committed writes.
        let params = micro::counter(4, 25);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let mut sys = System::new(config, &params, 3);
        let metrics = sys.try_run_recycled().unwrap();
        assert_eq!(metrics.committed, 16 * 25);
        let total: u64 = (0..4).map(|i| sys.memory().read(LineAddr(i))).sum();
        // Each committed counter transaction performs exactly one write.
        assert_eq!(total, 16 * 25, "lost or duplicated committed increments");
    }

    #[test]
    fn hotspot_baseline_exhibits_false_aborting() {
        let params = micro::hotspot(30);
        let m = run(Mechanism::Baseline, &params, 5);
        assert!(m.htm.aborts.get() > 0, "hotspot must conflict");
        assert!(
            m.oracle.false_abort_episodes > 0,
            "multicast under contention must produce false aborts"
        );
    }

    #[test]
    fn puno_reports_every_notification_the_nodes_sent() {
        let params = puno_workloads::WorkloadId::Intruder.params().scaled(0.05);
        let m = run(Mechanism::Puno, &params, 1);
        assert!(m.htm.notifications_sent.get() > 0, "no notification sent");
        assert_eq!(m.puno.notifications, m.htm.notifications_sent);
    }

    #[test]
    fn puno_reduces_aborts_on_hotspot() {
        let params = micro::hotspot(30);
        let base = run(Mechanism::Baseline, &params, 5);
        let puno = run(Mechanism::Puno, &params, 5);
        assert_eq!(base.committed, puno.committed, "same offered work");
        assert!(
            (puno.htm.aborts.get() as f64) < base.htm.aborts.get() as f64 * 0.9,
            "PUNO {} vs baseline {} aborts",
            puno.htm.aborts.get(),
            base.htm.aborts.get()
        );
        assert!(puno.puno.unicasts.get() > 0, "prediction must engage");
    }

    #[test]
    fn invariants_hold_throughout_a_contended_run() {
        // Scan single-writer/multi-reader + directory agreement every 64
        // events across the whole hotspot region.
        let params = micro::hotspot(10);
        let lines: Vec<LineAddr> = (0..8).map(LineAddr).collect();
        let config = SystemConfig::paper(Mechanism::Puno);
        let mut sys = System::new(config, &params, 5);
        sys.check_invariants_every(&lines, 64);
        let metrics = sys.try_run_recycled().unwrap();
        assert_eq!(metrics.committed, 16 * 10);
    }

    #[test]
    fn watchdog_trips_on_a_stalled_window() {
        // A watchdog window far below any commit latency must flag the run
        // as livelocked long before max_cycles, with diagnostics attached.
        let params = micro::hotspot(10);
        let mut config = SystemConfig::paper(Mechanism::Baseline);
        config.watchdog_window = 5;
        let err = System::new(config, &params, 1)
            .try_run_recycled()
            .expect_err("a 5-cycle progress window cannot be met");
        match &err {
            crate::error::RunError::Livelock {
                cycles,
                commit_window,
                wait_for,
                ..
            } => {
                assert!(*cycles < config.max_cycles, "watchdog must fire first");
                assert_eq!(*commit_window, 5);
                assert!(!wait_for.is_empty(), "wait-for graph must be rendered");
            }
            other => panic!("expected Livelock, got {other:?}"),
        }
        assert_eq!(err.kind(), "livelock");
        assert!(err.to_string().contains("wait-for graph"));
    }

    #[test]
    fn max_cycles_guard_reports_structured_livelock() {
        let params = micro::hotspot(10);
        let mut config = SystemConfig::paper(Mechanism::Baseline);
        config.max_cycles = 50;
        config.watchdog_window = 1_000_000;
        let err = System::new(config, &params, 1)
            .try_run_recycled()
            .expect_err("50 cycles cannot complete a hotspot run");
        assert_eq!(err.kind(), "livelock");
    }

    #[test]
    fn healthy_runs_pass_the_default_watchdog() {
        let params = micro::hotspot(10);
        let config = SystemConfig::paper(Mechanism::Puno);
        let m = System::new(config, &params, 5)
            .try_run_recycled()
            .expect("default watchdog must not false-trip");
        assert_eq!(m.committed, 16 * 10);
    }

    #[test]
    fn runs_are_deterministic() {
        let params = micro::hotspot(10);
        let a = run(Mechanism::Puno, &params, 9);
        let b = run(Mechanism::Puno, &params, 9);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.htm.aborts.get(), b.htm.aborts.get());
        assert_eq!(a.traffic_router_traversals, b.traffic_router_traversals);
    }

    #[test]
    fn shared_programs_match_per_cell_generation() {
        let params = micro::hotspot(10);
        let config = SystemConfig::paper(Mechanism::Puno);
        let programs = ProgramSet::generate(&params, config.nodes(), 9);
        let shared = System::new_shared(config, &params, 9, &programs)
            .try_run_recycled()
            .unwrap();
        let fresh = run(Mechanism::Puno, &params, 9);
        assert_eq!(
            serde_json::to_string(&shared.deterministic()).unwrap(),
            serde_json::to_string(&fresh.deterministic()).unwrap(),
            "shared-program run must be bit-identical"
        );
    }
}
