//! The xray partition log: appended during the run, joined once at
//! teardown.
//!
//! While a job runs, every scheduler boundary a partition crosses costs
//! one append of `(token, instant)`: no lookup and no map. Everything
//! else a [`PartRecord`] holds is derived at teardown: iteration, worker,
//! tensor, partition and kind from the packed token; lane, pull flag and
//! payload bytes from the kind and the job's partition table; the wire
//! fields from the fabric's wire log. [`PartLog::into_records`] does that
//! join with one dense `token → record` table over the job's own key
//! space, freed when it returns.
//!
//! The join keeps last-writer-wins rules:
//! - every enqueue opens a fresh record, in enqueue order;
//! - a grant lands on the newest record of its token enqueued before it
//!   (a retransmit's grant overwrites the first one);
//! - a wire record lands on the newest record of its tag at teardown,
//!   and a later wire record of the same tag overwrites an earlier one
//!   (retransmits, and re-run iterations after a migration);
//! - grants and wire records of tags no record holds are ignored.

use bs_core::CommKind;
use bs_net::WireXrayRecord;
use bs_sim::SimTime;
use bs_xray::PartRecord;

use crate::token::Token;
use crate::traffic::is_burst_tag;

/// Marks a grant in [`Note::at`]; no simulated instant reaches it.
const GRANT: u64 = 1 << 63;

/// One scheduler-boundary crossing, in the order the job made it: a
/// token and the instant in nanoseconds, with [`GRANT`] set for a
/// credit grant and clear for an enqueue. Sixteen bytes, because the log
/// holds two per partition for the whole run.
#[derive(Clone, Copy, Debug)]
struct Note {
    token: u64,
    at: u64,
}

impl Note {
    fn granted(self) -> bool {
        self.at & GRANT != 0
    }

    fn instant(self) -> SimTime {
        SimTime::from_nanos(self.at & !GRANT)
    }
}

/// A job's append-only partition log (see the module docs).
#[derive(Debug, Default)]
pub struct PartLog {
    notes: Vec<Note>,
}

impl PartLog {
    /// An empty log with room for `notes` enqueues and grants.
    pub fn with_capacity(notes: usize) -> PartLog {
        PartLog {
            notes: Vec::with_capacity(notes),
        }
    }

    /// The runtime submitted `token` to its scheduler at `at`. For a
    /// push that is also the instant BP produced the gradient; for a
    /// pull, the grant instant that made it legal.
    pub fn enqueued(&mut self, token: u64, at: SimTime) {
        self.push(token, at, 0);
    }

    /// The scheduler released `token` at `at`.
    pub fn granted(&mut self, token: u64, at: SimTime) {
        self.push(token, at, GRANT);
    }

    fn push(&mut self, token: u64, at: SimTime, flag: u64) {
        let at = at.as_nanos();
        assert!(at < GRANT, "partition log instant out of range");
        self.notes.push(Note {
            token,
            at: at | flag,
        });
    }

    /// Joins the log with the job's partition table (`partitions[tensor]
    /// [part]` = payload bytes) and its share of the fabric's wire log
    /// (job-local tags; bursts are skipped) into one record per enqueue,
    /// in enqueue order.
    ///
    /// Panics if an enqueued token names a tensor or partition outside
    /// the table.
    pub fn into_records(self, partitions: &[Vec<u64>], wire: &[WireXrayRecord]) -> Vec<PartRecord> {
        let (keys, enqueues) = KeySpace::covering(&self.notes, partitions);
        let mut parts: Vec<PartRecord> = Vec::with_capacity(enqueues);
        // Key slot → index of the newest record holding that token.
        let mut newest = vec![u32::MAX; keys.len()];
        for note in self.notes {
            if note.granted() {
                if let Some(i) = keys.newest(&newest, note.token) {
                    parts[i].granted = note.instant();
                }
            } else {
                let tok = Token::unpack(note.token);
                let slot = keys
                    .slot_of(&tok)
                    .expect("enqueued token in the partition table");
                newest[slot] = u32::try_from(parts.len()).expect("under 2^32 records");
                parts.push(record(&tok, note.instant(), partitions));
            }
        }
        for &(tag, _src, _dst, submitted, started, released, delivered) in wire {
            if is_burst_tag(tag) {
                continue;
            }
            if let Some(i) = keys.newest(&newest, tag) {
                let p = &mut parts[i];
                p.wire_submit = submitted;
                p.wire_start = started;
                p.wire_end = released;
                p.delivered = delivered;
                p.wire_seen = true;
            }
        }
        parts
    }
}

/// A fresh record for an enqueue of `tok` at `at`, wire fields unset.
fn record(tok: &Token, at: SimTime, partitions: &[Vec<u64>]) -> PartRecord {
    PartRecord::enqueued_at(
        tok.iter,
        tok.worker,
        tok.tensor,
        tok.part,
        tok.kind.lane(),
        tok.kind == CommKind::Pull,
        partitions[tok.tensor as usize][tok.part as usize],
        at,
    )
}

/// The dense key space of a job's tokens:
/// `((iter · workers + worker) · kinds + kind) · parts + flat part`, where
/// the iteration, worker and kind ranges are the ones the log's enqueues
/// reach and `flat part` numbers every (tensor, partition) of the table.
/// A PS job fills it exactly: every iteration enqueues every partition
/// once per worker and direction.
struct KeySpace {
    iters: u64,
    workers: usize,
    kinds: usize,
    /// First flat part of each tensor, plus the total at the end.
    offsets: Vec<usize>,
}

/// A token kind's position in the key space.
fn kind_index(kind: CommKind) -> usize {
    match kind {
        CommKind::Push => 0,
        CommKind::Pull => 1,
        CommKind::AllReduce => 2,
    }
}

impl KeySpace {
    /// The space the log's enqueues reach, and how many there are.
    fn covering(notes: &[Note], partitions: &[Vec<u64>]) -> (KeySpace, usize) {
        let mut offsets = Vec::with_capacity(partitions.len() + 1);
        let mut total = 0;
        for t in partitions {
            offsets.push(total);
            total += t.len();
        }
        offsets.push(total);
        let mut keys = KeySpace {
            iters: 0,
            workers: 0,
            kinds: 0,
            offsets,
        };
        let mut enqueues = 0;
        for note in notes.iter().filter(|n| !n.granted()) {
            let tok = Token::unpack(note.token);
            keys.iters = keys.iters.max(tok.iter + 1);
            keys.workers = keys.workers.max(tok.worker + 1);
            keys.kinds = keys.kinds.max(kind_index(tok.kind) + 1);
            enqueues += 1;
        }
        (keys, enqueues)
    }

    fn len(&self) -> usize {
        self.iters as usize * self.workers * self.kinds * self.offsets[self.offsets.len() - 1]
    }

    /// The slot of `token`, or `None` outside the space.
    fn slot(&self, token: u64) -> Option<usize> {
        self.slot_of(&Token::try_unpack(token)?)
    }

    /// The slot of an unpacked token, or `None` outside the space.
    fn slot_of(&self, tok: &Token) -> Option<usize> {
        let kind = kind_index(tok.kind);
        let tensor = tok.tensor as usize;
        let part = tok.part as usize;
        if tok.iter >= self.iters
            || tok.worker >= self.workers
            || kind >= self.kinds
            || tensor + 1 >= self.offsets.len()
            || part >= self.offsets[tensor + 1] - self.offsets[tensor]
        {
            return None;
        }
        let row = (tok.iter as usize * self.workers + tok.worker) * self.kinds + kind;
        Some(row * self.offsets[self.offsets.len() - 1] + self.offsets[tensor] + part)
    }

    /// The newest record holding `token`, if any.
    fn newest(&self, newest: &[u32], token: u64) -> Option<usize> {
        let i = newest[self.slot(token)?];
        (i != u32::MAX).then_some(i as usize)
    }
}
