//! Co-tenant burst traffic: the single injection path for
//! [`BackgroundLoad`](crate::config::BackgroundLoad) bursts.
//!
//! Both the single-job [`crate::world`] driver and the shared-cluster
//! driver (`bs-cluster`) model a synthetic co-tenant the same way: an
//! initial burst per NIC pair, looped on delivery after a jittered gap.
//! [`BurstSource`] owns the timers and the gap RNG; the driver decides
//! which node pairs carry bursts and routes delivered burst events back
//! here.

use std::collections::BTreeSet;

use bs_net::NodeId;
use bs_sim::{SimRng, SimTime};

use crate::config::BackgroundLoad;
use crate::job::Submit;

/// Tag bit marking a co-tenant (background) transfer; subtask tokens
/// never set it ([`Token::pack`](crate::token::Token::pack) rejects
/// iterations from 2^15 on).
pub const BG_TAG: u64 = 1 << 63;

/// True when `tag` identifies a co-tenant burst rather than a scheduled
/// subtask.
pub fn is_burst_tag(tag: u64) -> bool {
    tag & BG_TAG != 0
}

/// A looping co-tenant burst generator over a fixed set of NIC pairs.
///
/// Timers and tags are kept in *job-local* terms; fabric node ids are
/// recorded as delivered (they are already fabric-global). Like a job,
/// the source never calls the fabric: each burst is a [`Submit`] effect
/// the driver applies under a wire tag of its own.
#[derive(Clone, Debug)]
pub struct BurstSource {
    load: BackgroundLoad,
    /// Pending re-submissions: `(when, src, dst, job-local tag)`.
    timers: BTreeSet<(SimTime, usize, usize, u64)>,
    /// Gap jitter (real tenants are not phase-locked; without jitter,
    /// deterministic bursts can starve a connection forever on the FIFO
    /// fabric).
    rng: SimRng,
}

impl BurstSource {
    /// Creates a source; `seed` keys the gap-jitter RNG stream.
    pub fn new(load: BackgroundLoad, seed: u64) -> BurstSource {
        BurstSource {
            load,
            timers: BTreeSet::new(),
            rng: SimRng::new(seed),
        }
    }

    /// Emits the initial bursts of pair `w` into `out`: one from
    /// `server` to `worker` (tag `BG_TAG | 2w`, fighting the worker's
    /// pulls) and one back (tag `BG_TAG | 2w + 1`, fighting its pushes).
    pub fn seed_pair(&self, w: usize, worker: NodeId, server: NodeId, out: &mut Vec<Submit>) {
        let tag = BG_TAG | (2 * w as u64);
        self.emit(server, worker, tag, out);
        self.emit(worker, server, tag + 1, out);
    }

    fn emit(&self, src: NodeId, dst: NodeId, tag: u64, out: &mut Vec<Submit>) {
        let bytes = self.load.burst_bytes;
        out.push(Submit {
            src,
            dst,
            bytes,
            tag,
        });
    }

    /// Earliest pending re-submission, or `MAX` when none.
    pub fn next_time(&self) -> SimTime {
        self.timers
            .first()
            .map(|&(t, _, _, _)| t)
            .unwrap_or(SimTime::MAX)
    }

    /// Emits every burst due at or before `t` into `out`.
    pub fn fire_due(&mut self, t: SimTime, out: &mut Vec<Submit>) {
        while let Some(&(bt, src, dst, tag)) = self.timers.first() {
            if bt > t {
                break;
            }
            self.timers.pop_first();
            self.emit(NodeId(src), NodeId(dst), tag, out);
        }
    }

    /// A burst on a pair delivered (or was killed by a link flap: the
    /// co-tenant does not stop because one burst was lost): schedule the
    /// next one after a jittered gap — uniform in `[0.5g, 1.5g]` plus up
    /// to 50 µs even at `g = 0`, so the co-tenant's cycle drifts relative
    /// to the job's, as real cross traffic does.
    pub fn requeue(&mut self, now: SimTime, src: NodeId, dst: NodeId, tag: u64) {
        let g = self.load.gap_us as f64;
        let gap = self.rng.uniform(0.5 * g, 1.5 * g + 50.0);
        self.timers
            .insert((now + SimTime::from_micros(gap as u64), src.0, dst.0, tag));
    }

    /// Pending re-submission timers (for debug diagnostics).
    pub fn pending(&self) -> usize {
        self.timers.len()
    }
}
