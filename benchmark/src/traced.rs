//! The traced pass: one cell run untraced, again under a NoC-channel ring
//! tracer, and its recorded injections replayed through a bare stepped
//! `Network` to time the NoC layer in isolation.
//!
//! The replay is an estimate of the NoC's share of a run, not a
//! measurement inside it: it steps every packet (no express path), and the
//! order of a same-cycle injection relative to that cycle's network step is
//! not recorded, so a packet may leave its queue one cycle later than it did
//! in the run. Neither changes the flits injected or, with XY routing, the
//! router traversals, which is what [`trace_cell`] checks.

use puno_harness::{RunMetrics, System, SystemConfig};
use puno_noc::{Mesh, Network, NocConfig, VirtualNetwork, DATA_FLITS};
use puno_sim::{ChannelMask, Cycle, NodeId, TraceChannel, TraceEvent, Tracer};
use puno_workloads::{ProgramSet, WorkloadParams};
use std::time::Instant;

/// Replays per cell; the median time is reported.
const REPLAYS: usize = 3;

/// One recorded `NocInject`.
#[derive(Clone, Copy, Debug)]
struct Inject {
    cycle: Cycle,
    src: NodeId,
    dst: NodeId,
    vnet: VirtualNetwork,
    flits: u32,
}

/// What one replay through a fresh network did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub secs: f64,
    pub steps: u64,
    pub flits: u64,
    pub traversals: u64,
    pub delivered: u64,
}

/// Everything the traced pass learned about one cell.
pub struct TracedCell {
    /// The untraced serial run (the denominator of the shares).
    pub run: RunMetrics,
    pub untraced_s: f64,
    /// The same cell under the NoC ring tracer.
    pub traced: RunMetrics,
    pub traced_s: f64,
    /// Median replay; `packets` is the number of recorded injections.
    pub replay: Replay,
    pub packets: u64,
}

fn vnet_of(index: u8) -> VirtualNetwork {
    match index {
        0 => VirtualNetwork::Request,
        1 => VirtualNetwork::Forward,
        2 => VirtualNetwork::Response,
        other => panic!("trace recorded unknown virtual network {other}"),
    }
}

/// Step `injects` (in recorded order) through a fresh network until every
/// packet is delivered. A packet injected at cycle `c` is first eligible at
/// the step of cycle `c + 1`, as in the run loop.
fn replay(mesh: Mesh, noc: NocConfig, injects: &[Inject]) -> Replay {
    let mut net: Network<()> = Network::new(mesh, noc);
    let mut out = Vec::new();
    let mut r = Replay::default();
    let Some(first) = injects.first() else {
        return r;
    };
    let t0 = Instant::now();
    let mut next = 0;
    let mut now = first.cycle + 1;
    loop {
        while let Some(ev) = injects.get(next).filter(|ev| ev.cycle < now) {
            net.inject(ev.cycle, ev.src, ev.dst, ev.vnet, ev.flits, ());
            next += 1;
        }
        if net.is_idle() {
            match injects.get(next) {
                Some(ev) => {
                    now = ev.cycle + 1;
                    continue;
                }
                None => break,
            }
        }
        net.step_into(now, &mut out);
        r.steps += 1;
        r.delivered += out.len() as u64;
        now += 1;
    }
    r.secs = t0.elapsed().as_secs_f64();
    r.flits = net.stats().flits_injected();
    r.traversals = net.stats().router_traversals();
    r
}

fn run_timed(
    config: SystemConfig,
    params: &WorkloadParams,
    seed: u64,
    programs: &ProgramSet,
    tracer: Option<Tracer>,
) -> Result<(System, RunMetrics, f64), String> {
    let mut sys = System::new_shared(config, params, seed, programs);
    if let Some(tracer) = tracer {
        sys.install_tracer(tracer);
    }
    let t0 = Instant::now();
    let metrics = sys.try_run_recycled().map_err(|e| {
        let text = e.to_string();
        format!("run error: {}", text.lines().next().unwrap_or(e.kind()))
    })?;
    Ok((sys, metrics, t0.elapsed().as_secs_f64()))
}

/// Run one cell untraced, then traced, then replay its NoC injections.
/// Fails on a run error, a ring that dropped events, or a replay that does
/// not reproduce the run's flits exactly and its router traversals up to
/// what the packets still in flight at the end of the run (injected, never
/// delivered) can add: the replay drains them, the run never counted them.
pub fn trace_cell(
    config: SystemConfig,
    params: &WorkloadParams,
    seed: u64,
    programs: &ProgramSet,
) -> Result<TracedCell, String> {
    let (_, run, untraced_s) = run_timed(config, params, seed, programs, None)?;
    // Each packet records one inject and one deliver event of at least one
    // flit, so twice the flit count always fits the whole run.
    let capacity = (2 * run.traffic_flits_injected as usize).max(1);
    let tracer = Tracer::ring(ChannelMask::NONE.with(TraceChannel::Noc), capacity);
    let (sys, traced, traced_s) = run_timed(config, params, seed, programs, Some(tracer))?;
    let ring = sys.tracer().ring_ref();
    if ring.dropped() > 0 {
        return Err(format!(
            "trace ring dropped {} of {} events",
            ring.dropped(),
            ring.dropped() + ring.len() as u64
        ));
    }
    let delivered_in_run = ring
        .records()
        .filter(|(_, ev)| matches!(ev, TraceEvent::NocDeliver { .. }))
        .count();
    let injects: Vec<Inject> = ring
        .records()
        .filter_map(|&(cycle, ev)| match ev {
            TraceEvent::NocInject {
                src,
                dst,
                vnet,
                flits,
            } => Some(Inject {
                cycle,
                src,
                dst,
                vnet: vnet_of(vnet),
                flits,
            }),
            _ => None,
        })
        .collect();
    drop(sys);

    let mut replays: Vec<Replay> = (0..REPLAYS)
        .map(|_| replay(config.mesh, config.noc, &injects))
        .collect();
    replays.sort_by(|a, b| a.secs.total_cmp(&b.secs));
    let replay = replays[REPLAYS / 2];
    if replay.flits != run.traffic_flits_injected {
        return Err(format!(
            "noc replay injected {} flits, run injected {}",
            replay.flits, run.traffic_flits_injected
        ));
    }
    // A packet crosses at most corner-to-corner hops + 1 routers.
    let corner = NodeId(config.mesh.nodes() as u16 - 1);
    let max_traversals = (config.mesh.hops(NodeId(0), corner) as u64 + 1) * DATA_FLITS as u64;
    let in_flight = injects.len().saturating_sub(delivered_in_run) as u64;
    let (run_t, replay_t) = (run.traffic_router_traversals, replay.traversals);
    if replay_t < run_t || replay_t - run_t > in_flight * max_traversals {
        return Err(format!(
            "noc replay made {replay_t} router traversals, run made {run_t} \
             with {in_flight} packets in flight at its end"
        ));
    }
    if replay.delivered != injects.len() as u64 {
        return Err(format!(
            "noc replay delivered {} of {} packets",
            replay.delivered,
            injects.len()
        ));
    }
    Ok(TracedCell {
        run,
        untraced_s,
        traced,
        traced_s,
        replay,
        packets: injects.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_harness::Mechanism;
    use puno_workloads::WorkloadId;

    #[test]
    fn replay_of_a_2x2_cell_reproduces_its_flits() {
        let config = SystemConfig::tiny(Mechanism::Puno);
        let params = WorkloadId::Intruder.params().scaled(0.1);
        let programs = ProgramSet::generate(&params, config.nodes(), 7);
        let cell = trace_cell(config, &params, 7, &programs).expect("traced cell passes");
        assert!(cell.packets > 0);
        assert_eq!(cell.replay.flits, cell.run.traffic_flits_injected);
        assert_eq!(cell.replay.delivered, cell.packets);
        assert!(cell.replay.traversals >= cell.run.traffic_router_traversals);
        assert_eq!(
            serde_json::to_string(&cell.run.deterministic()).unwrap(),
            serde_json::to_string(&cell.traced.deterministic()).unwrap(),
            "tracing must not change simulated behaviour"
        );
    }

    #[test]
    fn replay_drains_back_to_back_packets() {
        let mesh = Mesh::new(2, 2);
        let inject = |cycle, src, dst, flits| Inject {
            cycle,
            src: NodeId(src),
            dst: NodeId(dst),
            vnet: VirtualNetwork::Response,
            flits,
        };
        let injects = [inject(5, 0, 3, 5), inject(5, 3, 0, 1), inject(40, 1, 2, 5)];
        let r = replay(mesh, NocConfig::default(), &injects);
        assert_eq!(r.flits, 11);
        assert_eq!(r.delivered, 3);
        // Each packet crosses hops + 1 routers, counting its flits at each.
        assert_eq!(r.traversals, 3 * 5 + 3 + 3 * 5);
    }
}
