//! Directory protocol scenario tests: multi-step message choreographies
//! exercising queuing, upgrades, writebacks and the PUNO probe paths, plus
//! a randomized test that random legal request sequences never corrupt the
//! sharer bookkeeping (fixed-seed `SimRng`; the registryless build cannot
//! use proptest).

use puno_coherence::directory::{DirAction, DirConfig, DirectoryBank};
use puno_coherence::msg::{CoherenceMsg, StickyKind, TxInfo};
use puno_coherence::predictor::NullPredictor;
use puno_coherence::sharers::SharerSet;
use puno_sim::{LineAddr, NodeId, SimRng, StaticTxId, Timestamp, TxId};

fn info(ts: u64) -> TxInfo {
    TxInfo {
        tx: TxId(ts),
        timestamp: Timestamp(ts),
        static_tx: StaticTxId(0),
        avg_len_hint: 100,
    }
}

fn gets(addr: u64, req: u16) -> CoherenceMsg {
    CoherenceMsg::Gets {
        addr: LineAddr(addr),
        requester: NodeId(req),
        tx: Some(info(req as u64 + 1)),
    }
}

fn unblock(addr: u64, req: u16, success: bool, nackers: SharerSet) -> CoherenceMsg {
    CoherenceMsg::Unblock {
        addr: LineAddr(addr),
        requester: NodeId(req),
        success,
        nackers,
        owner_kept: false,
        mp_node: None,
        tx: None,
    }
}

/// The successful unblock of a GETS the owner answered, relaying whether
/// the owner kept a shared copy.
fn unblock_kept(addr: u64, req: u16, owner_kept: bool) -> CoherenceMsg {
    CoherenceMsg::Unblock {
        addr: LineAddr(addr),
        requester: NodeId(req),
        success: true,
        nackers: SharerSet::EMPTY,
        owner_kept,
        mp_node: None,
        tx: None,
    }
}

/// Drive a line from first touch to an N-node shared state.
fn seed_shared(bank: &mut DirectoryBank, addr: u64, nodes: &[u16]) {
    let mut p = NullPredictor;
    for (i, &n) in nodes.iter().enumerate() {
        let acts = bank.handle(i as u64 * 100, gets(addr, n), &mut p);
        if i == 0 {
            assert!(matches!(acts[0], DirAction::FetchMem { .. }));
            bank.mem_ready(LineAddr(addr));
            bank.handle(60, unblock(addr, n, true, SharerSet::EMPTY), &mut p);
        } else if i == 1 {
            // Forwarded to the exclusive owner; relay owner-kept.
            bank.handle(i as u64 * 100 + 60, unblock_kept(addr, n, true), &mut p);
        } else {
            bank.handle(
                i as u64 * 100 + 60,
                unblock(addr, n, true, SharerSet::EMPTY),
                &mut p,
            );
        }
    }
    assert_eq!(bank.holders_of(LineAddr(addr)).len() as usize, nodes.len());
}

#[test]
fn five_readers_then_writer_takes_ownership() {
    let mut bank = DirectoryBank::new(NodeId(0), DirConfig::default());
    let mut p = NullPredictor;
    seed_shared(&mut bank, 16, &[1, 2, 3, 4, 5]);
    let acts = bank.handle(
        1000,
        CoherenceMsg::Getx {
            addr: LineAddr(16),
            requester: NodeId(6),
            tx: Some(info(1)),
        },
        &mut p,
    );
    let invs = acts
        .iter()
        .filter(|a| {
            matches!(
                a,
                DirAction::Send {
                    msg: CoherenceMsg::Inv { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(invs, 5, "exhaustive multicast to all five sharers");
    bank.handle(1100, unblock(16, 6, true, SharerSet::EMPTY), &mut p);
    assert_eq!(bank.owner_of(LineAddr(16)), Some(NodeId(6)));
    assert_eq!(bank.holders_of(LineAddr(16)).len(), 1);
}

#[test]
fn queued_requests_service_in_fifo_order() {
    let mut bank = DirectoryBank::new(NodeId(0), DirConfig::default());
    let mut p = NullPredictor;
    seed_shared(&mut bank, 8, &[1, 2]);
    // Episode 1 starts (busy).
    bank.handle(
        500,
        CoherenceMsg::Getx {
            addr: LineAddr(8),
            requester: NodeId(3),
            tx: Some(info(10)),
        },
        &mut p,
    );
    // Two competing requests queue.
    assert!(bank.handle(510, gets(8, 4), &mut p).is_empty());
    assert!(bank
        .handle(
            520,
            CoherenceMsg::Getx {
                addr: LineAddr(8),
                requester: NodeId(5),
                tx: Some(info(20)),
            },
            &mut p,
        )
        .is_empty());
    // Unblock of episode 1 immediately services node 4's GETS (FIFO).
    let acts = bank.handle(600, unblock(8, 3, true, SharerSet::EMPTY), &mut p);
    let fwd_gets_to_new_owner = acts.iter().any(|a| {
        matches!(a, DirAction::Send { dst, msg: CoherenceMsg::FwdGets { requester, .. }, .. }
            if *dst == NodeId(3) && *requester == NodeId(4))
    });
    assert!(fwd_gets_to_new_owner, "queued GETS must go first: {acts:?}");
    // Node 5's GETX is still waiting.
    assert!(bank.is_busy(LineAddr(8)));
}

#[test]
fn upgrade_race_requester_invalidated_while_queued() {
    let mut bank = DirectoryBank::new(NodeId(0), DirConfig::default());
    let mut p = NullPredictor;
    seed_shared(&mut bank, 4, &[1, 2]);
    // Node 2 asks to upgrade, but node 3's GETX is serviced first.
    bank.handle(
        300,
        CoherenceMsg::Getx {
            addr: LineAddr(4),
            requester: NodeId(3),
            tx: Some(info(1)),
        },
        &mut p,
    );
    // Node 2's upgrade GETX queues behind it.
    bank.handle(
        310,
        CoherenceMsg::Getx {
            addr: LineAddr(4),
            requester: NodeId(2),
            tx: Some(info(2)),
        },
        &mut p,
    );
    // Node 3 wins; sharers (1 and 2) invalidated.
    let acts = bank.handle(400, unblock(4, 3, true, SharerSet::EMPTY), &mut p);
    // Node 2's queued request is serviced now — but node 2 is no longer a
    // sharer, so it must receive Data (not UpgradeAck) forwarded from the
    // new owner (node 3).
    assert!(
        acts.iter().any(|a| matches!(
            a,
            DirAction::Send { dst, msg: CoherenceMsg::FwdGetx { requester, .. }, .. }
                if *dst == NodeId(3) && *requester == NodeId(2)
        )),
        "{acts:?}"
    );
}

#[test]
fn writeback_then_reload_uses_l2() {
    let mut bank = DirectoryBank::new(NodeId(0), DirConfig::default());
    let mut p = NullPredictor;
    seed_shared(&mut bank, 2, &[7]);
    // Owner 7 evicts dirty.
    bank.handle(
        100,
        CoherenceMsg::Putx {
            addr: LineAddr(2),
            owner: NodeId(7),
            sticky: StickyKind::None,
        },
        &mut p,
    );
    assert_eq!(bank.owner_of(LineAddr(2)), None);
    // Reload by node 8: L2 hit (no FetchMem) with exclusive grant.
    let acts = bank.handle(200, gets(2, 8), &mut p);
    assert!(acts
        .iter()
        .all(|a| !matches!(a, DirAction::FetchMem { .. })));
    assert!(acts.iter().any(|a| matches!(
        a,
        DirAction::Send {
            msg: CoherenceMsg::Data {
                exclusive: true,
                ..
            },
            ..
        }
    )));
}

#[test]
fn puts_clean_eviction_clears_owner() {
    let mut bank = DirectoryBank::new(NodeId(0), DirConfig::default());
    let mut p = NullPredictor;
    seed_shared(&mut bank, 2, &[7]);
    let acts = bank.handle(
        100,
        CoherenceMsg::Puts {
            addr: LineAddr(2),
            owner: NodeId(7),
            sticky: StickyKind::None,
        },
        &mut p,
    );
    assert!(matches!(
        acts[0],
        DirAction::Send {
            msg: CoherenceMsg::WbAck { .. },
            ..
        }
    ));
    assert_eq!(bank.owner_of(LineAddr(2)), None);
}

#[test]
fn failed_unicast_probe_preserves_all_sharers() {
    use puno_coherence::predictor::{PredictedTarget, UnicastPredictor};
    struct Fixed(NodeId);
    impl UnicastPredictor for Fixed {
        fn observe_request(&mut self, _: u64, _: NodeId, _: &TxInfo) {}
        fn predict_unicast(
            &mut self,
            _: u64,
            _: LineAddr,
            _: NodeId,
            _: &TxInfo,
            h: SharerSet,
            _: bool,
        ) -> Option<PredictedTarget> {
            h.contains(self.0)
                .then_some(PredictedTarget { node: self.0 })
        }
        fn on_mispredict_feedback(&mut self, _: u64, _: LineAddr, _: NodeId) {}
        fn after_service(&mut self, _: u64, _: LineAddr, _: SharerSet) {}
    }

    let mut bank = DirectoryBank::new(NodeId(0), DirConfig::default());
    seed_shared(&mut bank, 32, &[1, 2, 3, 4]);
    let mut fixed = Fixed(NodeId(2));
    let acts = bank.handle(
        900,
        CoherenceMsg::Getx {
            addr: LineAddr(32),
            requester: NodeId(9),
            tx: Some(info(999)),
        },
        &mut fixed,
    );
    assert_eq!(acts.len(), 1, "one probe, no data, no multicast: {acts:?}");
    bank.handle(
        950,
        CoherenceMsg::Unblock {
            addr: LineAddr(32),
            requester: NodeId(9),
            success: false,
            nackers: SharerSet::single(NodeId(2)),
            owner_kept: false,
            mp_node: None,
            tx: None,
        },
        &mut fixed,
    );
    assert_eq!(
        bank.holders_of(LineAddr(32)).len(),
        4,
        "nobody was invalidated"
    );
}

/// Random sequences of (request, immediate successful unblock) keep the
/// directory's bookkeeping sane: at most one owner, owner and sharer state
/// never coexist, and the bank never panics.
#[test]
fn random_episodes_keep_invariants() {
    let mut rng = SimRng::new(0x5eed_0008);
    for case in 0..48 {
        let n_ops = 1 + rng.gen_range(59) as usize;
        let ops: Vec<(u8, u16, u64)> = (0..n_ops)
            .map(|_| {
                (
                    rng.gen_range(3) as u8,
                    rng.gen_range(8) as u16,
                    rng.gen_range(4),
                )
            })
            .collect();
        let mut bank = DirectoryBank::new(NodeId(0), DirConfig::default());
        let mut p = NullPredictor;
        let mut now = 0u64;
        for (kind, node, line) in ops {
            now += 10;
            let addr = LineAddr(line);
            let req = NodeId(node);
            match kind {
                0 => {
                    let acts = bank.handle(now, gets(line, node), &mut p);
                    if acts.iter().any(|a| matches!(a, DirAction::FetchMem { .. })) {
                        bank.mem_ready(addr);
                    }
                    if bank.is_busy(addr) {
                        // Conclude successfully; relay prev owner as kept
                        // when the service was an owner forward.
                        let kept = bank.owner_of(addr).is_some_and(|o| o != req);
                        bank.handle(now + 2, unblock_kept(line, node, kept), &mut p);
                    }
                }
                1 => {
                    let msg = CoherenceMsg::Getx {
                        addr,
                        requester: req,
                        tx: Some(info(now)),
                    };
                    let acts = bank.handle(now, msg, &mut p);
                    if acts.iter().any(|a| matches!(a, DirAction::FetchMem { .. })) {
                        bank.mem_ready(addr);
                    }
                    if bank.is_busy(addr) {
                        bank.handle(now + 2, unblock(line, node, true, SharerSet::EMPTY), &mut p);
                    }
                }
                _ => {
                    // Eviction notice; only meaningful from the owner, but
                    // stale PUTX must be tolerated.
                    bank.handle(
                        now,
                        CoherenceMsg::Putx {
                            addr,
                            owner: req,
                            sticky: StickyKind::None,
                        },
                        &mut p,
                    );
                }
            }
            // Invariants.
            let holders = bank.holders_of(addr);
            if let Some(owner) = bank.owner_of(addr) {
                assert_eq!(holders, SharerSet::single(owner), "case {case}");
            }
            assert!(
                !bank.is_busy(addr),
                "case {case}: episodes are closed each step"
            );
        }
    }
}
