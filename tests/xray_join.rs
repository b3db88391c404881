//! Oracle test for the xray partition join.
//!
//! A job's [`PartLog`] only appends while the job runs and joins once,
//! at teardown, with the job's partition table and the fabric's wire
//! log. The reference below is the per-hook path it replaced: a
//! `token → record` map updated on every enqueue and grant, with the
//! wire log matched back through the same map. Both are driven with the
//! same random streams (repeated tokens, grants between enqueues, grants
//! and wire records of tokens never enqueued, tags outside the job's key
//! space, co-tenant bursts, repeated wire tags, parts that never reach
//! the wire) and must produce equal `PartRecord` vectors.

use std::collections::HashMap;

use bytescheduler::core::CommKind;
use bytescheduler::net::WireXrayRecord;
use bytescheduler::runtime::token::Token;
use bytescheduler::runtime::traffic::{is_burst_tag, BG_TAG};
use bytescheduler::runtime::PartLog;
use bytescheduler::sim::SimTime;
use bytescheduler::xray::PartRecord;
use proptest::prelude::*;

/// The per-hook join: every enqueue opens a record and points the
/// token's index entry at it, every grant and wire record updates the
/// record the entry points at.
#[derive(Default)]
struct Reference {
    parts: Vec<PartRecord>,
    index: HashMap<u64, usize>,
}

impl Reference {
    fn note_enqueue(&mut self, token: u64, lane: usize, pull: bool, bytes: u64, now: SimTime) {
        let tok = Token::unpack(token);
        let rec = PartRecord::enqueued_at(
            tok.iter, tok.worker, tok.tensor, tok.part, lane, pull, bytes, now,
        );
        self.index.insert(token, self.parts.len());
        self.parts.push(rec);
    }

    fn note_granted(&mut self, token: u64, now: SimTime) {
        if let Some(&i) = self.index.get(&token) {
            self.parts[i].granted = now;
        }
    }

    fn join_wire(mut self, wire: &[WireXrayRecord]) -> Vec<PartRecord> {
        for &(tag, _src, _dst, submitted, started, released, delivered) in wire {
            if is_burst_tag(tag) {
                continue;
            }
            if let Some(&i) = self.index.get(&tag) {
                let p = &mut self.parts[i];
                p.wire_submit = submitted;
                p.wire_start = started;
                p.wire_end = released;
                p.delivered = delivered;
                p.wire_seen = true;
            }
        }
        self.parts
    }
}

/// One scheduler-boundary event: enqueue or grant of a token, after a
/// clock step (0 keeps the instant, so same-instant ties occur).
#[derive(Clone, Debug)]
struct Hook {
    grant: bool,
    token: u64,
    step_ns: u64,
}

/// A random job shape and event streams over it.
#[derive(Clone, Debug)]
struct Case {
    partitions: Vec<Vec<u64>>,
    hooks: Vec<Hook>,
    wire: Vec<WireXrayRecord>,
}

fn token(iter: u64, worker: usize, kind: CommKind, tensor: u32, part: u32) -> u64 {
    Token {
        iter,
        worker,
        kind,
        tensor,
        part,
    }
    .pack()
}

/// Every token of a PS job (a push and a pull per worker and partition)
/// or a ring job (one all-reduce per partition) over `iters` iterations.
fn universe(partitions: &[Vec<u64>], ring: bool, iters: u64, workers: usize) -> Vec<u64> {
    let mut out = Vec::new();
    let kinds: &[CommKind] = if ring {
        &[CommKind::AllReduce]
    } else {
        &[CommKind::Push, CommKind::Pull]
    };
    let workers = if ring { 1 } else { workers };
    for iter in 0..iters {
        for worker in 0..workers {
            for &kind in kinds {
                for (t, parts) in partitions.iter().enumerate() {
                    for p in 0..parts.len() {
                        out.push(token(iter, worker, kind, t as u32, p as u32));
                    }
                }
            }
        }
    }
    out
}

/// A random job and event streams over its tokens. Token picks are
/// reduced modulo a random `focus` (≤ the job's token count), so small
/// focuses repeat tokens often.
fn arb_case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(proptest::collection::vec(1u64..10_000, 1..4), 1..4),
        (any::<bool>(), 1u64..4, 1usize..4, 1usize..24),
        proptest::collection::vec((any::<bool>(), 0usize..10_000, 0u64..3), 0..80),
        // Wire picks: 0-1 = a job token, 2 = out of the key space, 3 = a
        // burst.
        proptest::collection::vec(
            (
                0u8..4,
                0usize..10_000,
                0usize..4,
                (0u64..50, 0u64..50, 0u64..50),
            ),
            0..60,
        ),
    )
        .prop_map(|(partitions, (ring, iters, workers, focus), hooks, wire)| {
            let tokens = universe(&partitions, ring, iters, workers);
            let focus = focus.min(tokens.len());
            let hooks = hooks
                .into_iter()
                .map(|(grant, i, step_ns)| Hook {
                    grant,
                    token: tokens[i % focus],
                    step_ns,
                })
                .collect();
            let wire = wire
                .into_iter()
                .map(|(pick, i, src, (a, b, c))| {
                    let own = tokens[i % focus];
                    let tok = Token::unpack(own);
                    let tag = match pick {
                        0 | 1 => own,
                        2 => match i % 4 {
                            0 => token(iters, tok.worker, tok.kind, tok.tensor, tok.part),
                            1 => token(tok.iter, workers, tok.kind, tok.tensor, tok.part),
                            2 => token(tok.iter, tok.worker, tok.kind, partitions.len() as u32, 0),
                            _ => token(
                                tok.iter,
                                tok.worker,
                                tok.kind,
                                tok.tensor,
                                partitions[tok.tensor as usize].len() as u32,
                            ),
                        },
                        _ => BG_TAG | own,
                    };
                    let t = |x: u64| SimTime::from_nanos(x * 1_000);
                    (tag, src, 4, t(a), t(a + b), t(a + b + c), t(a + b + c + 1))
                })
                .collect();
            Case {
                partitions,
                hooks,
                wire,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The teardown join reproduces the per-hook reference exactly.
    #[test]
    fn part_log_join_matches_the_per_hook_reference(case in arb_case()) {
        let mut log = PartLog::default();
        let mut reference = Reference::default();
        let mut now = SimTime::ZERO;
        for h in &case.hooks {
            now += SimTime::from_nanos(h.step_ns);
            if h.grant {
                log.granted(h.token, now);
                reference.note_granted(h.token, now);
            } else {
                let tok = Token::unpack(h.token);
                let bytes = case.partitions[tok.tensor as usize][tok.part as usize];
                log.enqueued(h.token, now);
                reference.note_enqueue(
                    h.token,
                    tok.kind.lane(),
                    tok.kind == CommKind::Pull,
                    bytes,
                    now,
                );
            }
        }
        let joined = log.into_records(&case.partitions, &case.wire);
        let expected = reference.join_wire(&case.wire);
        prop_assert_eq!(joined, expected);
    }
}
