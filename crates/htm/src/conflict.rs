//! Eager conflict detection: how a node answers a forwarded coherence
//! request, given its active transaction's footprint and the time-based
//! priority policy.
//!
//! This is the exact decision procedure of the paper's Figure 1(b) plus the
//! PUNO misprediction rule of Section III-C: a sharer receiving a U-bit
//! request it would *not* have nacked (its priority is lower than the
//! requester's) must still NACK — acking a unicast would let the requester
//! write while other sharers hold copies, violating single-writer/multi-
//! reader — and it sets the MP-bit so the directory can invalidate the stale
//! P-Buffer priority.

use crate::rwset::ReadWriteSets;
use puno_sim::Timestamp;

/// The flavour of a forwarded request, as seen by the receiving node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncomingKind {
    /// Invalidation or forwarded GETX: the requester wants to write.
    Write,
    /// Forwarded GETS: the requester wants to read.
    Read,
}

/// What the receiving node must do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardDecision {
    /// No transactional conflict: comply normally (invalidate/downgrade and
    /// ack or send data).
    Comply,
    /// Conflict and the local transaction loses: abort it, then comply.
    AbortAndComply,
    /// Conflict resolution (or the conservative misprediction rule) keeps
    /// the line here: refuse. `mispredict` is the MP-bit.
    Nack { mispredict: bool },
}

/// Decide the response to a forwarded request: the time-based policy of
/// Figure 1(b) plus PUNO's misprediction rule (Section III-C).
///
/// * `local` — the receiving node's active transaction footprint and
///   timestamp, if a transaction is running (stalled transactions count:
///   their sets are live).
/// * `requester_ts` — the requesting transaction's timestamp; `None` for a
///   non-transactional request, which loses every conflict with a
///   transaction (LogTM nacks it and the requester retries).
/// * `unicast` — the U-bit from the PUNO directory.
///
/// A request that meets no conflict is complied with. A conflict is
/// nacked when the local transaction outranks the requester (or the
/// requester is not transactional) and otherwise aborts the local
/// transaction. A U-bit probe is never complied with: unless it met the
/// older conflicting transaction it was predicted to, it is nacked with the
/// MP-bit set.
pub fn decide_forward(
    local: Option<(&ReadWriteSets, Timestamp)>,
    addr: puno_sim::LineAddr,
    kind: IncomingKind,
    requester_ts: Option<Timestamp>,
    unicast: bool,
) -> ForwardDecision {
    let conflicting =
        local.filter(|(sets, _)| sets.conflicts_with(addr, kind == IncomingKind::Write));
    let Some((_, local_ts)) = conflicting else {
        // No active transaction, or the request misses its footprint:
        // ordinary coherence. A U-bit probe that lands here is a
        // misprediction (the predicted transaction already finished, or
        // its P-Buffer priority was stale enough that the node is not even
        // contending). It is answered with a conservative MP-NACK: complying
        // would let the requester proceed while the other sharers, never
        // sent the invalidation, keep their copies.
        return if unicast {
            ForwardDecision::Nack { mispredict: true }
        } else {
            ForwardDecision::Comply
        };
    };
    match requester_ts {
        // Non-transactional requester conflicts with a transaction: the
        // transaction wins, requester is nacked and will retry.
        None => ForwardDecision::Nack { mispredict: false },
        Some(req_ts) => {
            if local_ts.outranks(req_ts) {
                // Local transaction is older: true NACK.
                ForwardDecision::Nack { mispredict: false }
            } else if unicast {
                // Local transaction is younger but the request was unicast
                // to us as the predicted highest-priority sharer: the
                // prediction is stale. NACK conservatively, set MP-bit.
                ForwardDecision::Nack { mispredict: true }
            } else {
                // Local transaction is younger: it aborts (possibly a false
                // abort, if some other sharer ends up nacking the request).
                ForwardDecision::AbortAndComply
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_sim::LineAddr;

    fn sets(reads: &[u64], writes: &[u64]) -> ReadWriteSets {
        let mut s = ReadWriteSets::new();
        for &r in reads {
            s.record_read(LineAddr(r));
        }
        for &w in writes {
            s.record_write(LineAddr(w));
        }
        s
    }

    #[test]
    fn no_transaction_complies() {
        assert_eq!(
            decide_forward(
                None,
                LineAddr(1),
                IncomingKind::Write,
                Some(Timestamp(5)),
                false
            ),
            ForwardDecision::Comply
        );
    }

    #[test]
    fn read_read_sharing_complies() {
        let s = sets(&[1], &[]);
        assert_eq!(
            decide_forward(
                Some((&s, Timestamp(10))),
                LineAddr(1),
                IncomingKind::Read,
                Some(Timestamp(5)),
                false
            ),
            ForwardDecision::Comply
        );
    }

    #[test]
    fn older_local_tx_nacks_write() {
        let s = sets(&[1], &[]);
        assert_eq!(
            decide_forward(
                Some((&s, Timestamp(5))),
                LineAddr(1),
                IncomingKind::Write,
                Some(Timestamp(10)),
                false
            ),
            ForwardDecision::Nack { mispredict: false }
        );
    }

    #[test]
    fn younger_local_tx_aborts_on_multicast() {
        let s = sets(&[1], &[]);
        assert_eq!(
            decide_forward(
                Some((&s, Timestamp(20))),
                LineAddr(1),
                IncomingKind::Write,
                Some(Timestamp(10)),
                false
            ),
            ForwardDecision::AbortAndComply
        );
    }

    #[test]
    fn younger_local_tx_nacks_with_mp_bit_on_unicast() {
        // The misprediction rule of Section III-C: TxC (younger) receiving
        // TxB's unicast must nack and set MP, not ack — otherwise TxB would
        // write without TxA and TxD's awareness.
        let s = sets(&[1], &[]);
        assert_eq!(
            decide_forward(
                Some((&s, Timestamp(20))),
                LineAddr(1),
                IncomingKind::Write,
                Some(Timestamp(10)),
                true
            ),
            ForwardDecision::Nack { mispredict: true }
        );
    }

    #[test]
    fn correct_unicast_prediction_is_a_clean_nack() {
        let s = sets(&[1], &[]);
        assert_eq!(
            decide_forward(
                Some((&s, Timestamp(5))),
                LineAddr(1),
                IncomingKind::Write,
                Some(Timestamp(10)),
                true
            ),
            ForwardDecision::Nack { mispredict: false }
        );
    }

    #[test]
    fn write_read_conflict_on_forwarded_gets() {
        let s = sets(&[], &[1]);
        // Older reader wins against our younger writer: abort.
        assert_eq!(
            decide_forward(
                Some((&s, Timestamp(20))),
                LineAddr(1),
                IncomingKind::Read,
                Some(Timestamp(10)),
                false
            ),
            ForwardDecision::AbortAndComply
        );
        // Younger reader loses: nack.
        assert_eq!(
            decide_forward(
                Some((&s, Timestamp(5))),
                LineAddr(1),
                IncomingKind::Read,
                Some(Timestamp(10)),
                false
            ),
            ForwardDecision::Nack { mispredict: false }
        );
    }

    #[test]
    fn non_tx_requester_always_loses_against_tx() {
        let s = sets(&[1], &[]);
        assert_eq!(
            decide_forward(
                Some((&s, Timestamp(999))),
                LineAddr(1),
                IncomingKind::Write,
                None,
                false
            ),
            ForwardDecision::Nack { mispredict: false }
        );
    }

    #[test]
    fn unconflicting_unicast_is_conservative_nack() {
        // Stale prediction landed on a node whose tx does not even touch
        // the line: must still nack + MP (other sharers were not consulted).
        let s = sets(&[7], &[]);
        assert_eq!(
            decide_forward(
                Some((&s, Timestamp(5))),
                LineAddr(1),
                IncomingKind::Write,
                Some(Timestamp(10)),
                true
            ),
            ForwardDecision::Nack { mispredict: true }
        );
    }

    #[test]
    fn unicast_is_a_pure_probe_even_without_a_local_tx() {
        // The predicted transaction already committed: the U-bit probe must
        // not surrender the line (other sharers were never consulted); it
        // answers MP-NACK so the directory drops the stale priority and the
        // retry goes out as a normal multicast.
        assert_eq!(
            decide_forward(
                None,
                LineAddr(1),
                IncomingKind::Write,
                Some(Timestamp(10)),
                true
            ),
            ForwardDecision::Nack { mispredict: true }
        );
    }
}
