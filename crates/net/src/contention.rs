//! Link-contention recording: *which jobs* are active on each NIC
//! direction, and whose bytes occupied the wire when.
//!
//! The driver loop (`bs-runtime`) owns the wire-tag format: every tag it
//! submits names the tenant that submitted the transfer. This crate
//! cannot depend on the runtime, so the recorder takes the extraction
//! function as a plain `fn(u64) -> usize` at enable time and stays
//! tag-layout-agnostic. The active set is a 64-bit mask, so a run that
//! records contention holds at most [`CONTENTION_JOB_LIMIT`] jobs; the
//! cluster driver checks that before it enables the recorder.
//!
//! Two complementary views are recorded per NIC direction (uplinks are
//! ports `0..n`, downlinks `n..2n`):
//!
//! * an *active-set* [`SetSeries`] — bit `j` is set while job `j` has at
//!   least one transfer pending on the direction (submitted and not yet
//!   delivered or dropped), sampled only on change;
//! * *occupancy spans* — `(port, job, bytes, start, end)` per completed
//!   wire occupancy, so byte shares can be split into solo vs contended
//!   time against the active-set series.
//!
//! Recording is strictly observational: the recorder is one of the folds
//! inside the fabric's [`Tap`](crate::tap::Tap) and nothing feeds back,
//! so enabling contention recording cannot change a single simulation
//! event (pinned by the golden byte-identity tests).

use bs_sim::SimTime;
use bs_telemetry::SetSeries;

/// Most jobs one contention recording can track: job `j` is bit `j` of
/// a 64-bit active-set mask.
pub const CONTENTION_JOB_LIMIT: usize = 64;

/// One completed wire occupancy on one NIC direction:
/// `(port, job, bytes, start, end)`.
pub type OccupancySpan = (usize, usize, u64, SimTime, SimTime);

/// The drained recording: per-direction active-job series plus every
/// occupancy span, ready for reduction into a contention matrix.
#[derive(Clone, Debug, Default)]
pub struct ContentionLog {
    /// Number of nodes in the fabric (ports are `2 × nodes`).
    pub nodes: usize,
    /// Per-port active-job bitmask series (up `0..n`, down `n..2n`).
    pub active: Vec<SetSeries>,
    /// Completed wire occupancies, in release order.
    pub occupancy: Vec<OccupancySpan>,
}

/// The per-fabric recorder, held by the fabric's tap while contention
/// recording is enabled.
#[derive(Clone, Debug)]
pub struct ContentionRecorder {
    job_of: fn(u64) -> usize,
    /// Per-port per-job pending transfer counts; bit `j` of the port's
    /// series is set while `pending[port][j] > 0`.
    pending: Vec<Vec<u32>>,
    active: Vec<SetSeries>,
    occupancy: Vec<OccupancySpan>,
}

impl ContentionRecorder {
    /// A recorder for a fabric of `nodes` NICs, starting at `now` with
    /// every direction idle. `job_of` maps a transfer tag to its job
    /// index, which must be below [`CONTENTION_JOB_LIMIT`].
    pub fn new(now: SimTime, nodes: usize, job_of: fn(u64) -> usize) -> ContentionRecorder {
        let mut idle = SetSeries::new();
        idle.record(now, 0);
        ContentionRecorder {
            job_of,
            pending: vec![Vec::new(); 2 * nodes],
            active: vec![idle; 2 * nodes],
            occupancy: Vec::new(),
        }
    }

    fn uplink(&self, src: usize) -> usize {
        src
    }

    fn downlink(&self, dst: usize) -> usize {
        self.active.len() / 2 + dst
    }

    fn job(&self, tag: u64) -> usize {
        let j = (self.job_of)(tag);
        assert!(
            j < CONTENTION_JOB_LIMIT,
            "job index {j} does not fit the {CONTENTION_JOB_LIMIT}-job active-set mask"
        );
        j
    }

    fn inc(&mut self, now: SimTime, port: usize, job: usize) {
        let counts = &mut self.pending[port];
        if counts.len() <= job {
            counts.resize(job + 1, 0);
        }
        counts[job] += 1;
        if counts[job] == 1 {
            let mask = self.active[port].last_mask() | (1 << job);
            self.active[port].record(now, mask);
        }
    }

    fn dec(&mut self, now: SimTime, port: usize, job: usize) {
        let counts = &mut self.pending[port];
        debug_assert!(counts.get(job).copied().unwrap_or(0) > 0, "unbalanced dec");
        if let Some(c) = counts.get_mut(job) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                let mask = self.active[port].last_mask() & !(1 << job);
                self.active[port].record(now, mask);
            }
        }
    }

    /// A transfer entered the fabric: its job becomes active on the
    /// sender uplink and receiver downlink until delivery or drop.
    pub fn on_submit(&mut self, now: SimTime, src: usize, dst: usize, tag: u64) {
        let job = self.job(tag);
        let (up, down) = (self.uplink(src), self.downlink(dst));
        self.inc(now, up, job);
        self.inc(now, down, job);
    }

    /// A transfer was delivered end-to-end: its job's pending count
    /// drops on both directions.
    pub fn on_delivered(&mut self, now: SimTime, src: usize, dst: usize, tag: u64) {
        let job = self.job(tag);
        let (up, down) = (self.uplink(src), self.downlink(dst));
        self.dec(now, up, job);
        self.dec(now, down, job);
    }

    /// A transfer was killed mid-flight and will never deliver: balance
    /// the submit like a delivery at the kill instant.
    pub fn on_dropped(&mut self, now: SimTime, src: usize, dst: usize, tag: u64) {
        self.on_delivered(now, src, dst, tag);
    }

    /// A wire occupancy completed (or was cut short by a kill): record
    /// the byte span on both directions for share attribution.
    pub fn on_wire(
        &mut self,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    ) {
        let job = self.job(tag);
        let (up, down) = (self.uplink(src), self.downlink(dst));
        self.occupancy.push((up, job, bytes, start, end));
        self.occupancy.push((down, job, bytes, start, end));
    }

    /// Drains the recording.
    pub fn take(&mut self) -> ContentionLog {
        let nodes = self.active.len() / 2;
        let mut idle = SetSeries::new();
        idle.record(SimTime::ZERO, 0);
        ContentionLog {
            nodes,
            active: std::mem::replace(&mut self.active, vec![idle; 2 * nodes]),
            occupancy: std::mem::take(&mut self.occupancy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    fn low_bits(tag: u64) -> usize {
        (tag & 0b11) as usize
    }

    #[test]
    fn active_set_tracks_overlapping_jobs_per_direction() {
        let mut r = ContentionRecorder::new(us(0), 2, low_bits);
        // Job 0 and job 1 overlap on node 0's uplink for [10, 20)µs.
        r.on_submit(us(5), 0, 1, 0);
        r.on_submit(us(10), 0, 1, 1);
        r.on_delivered(us(20), 0, 1, 0);
        r.on_delivered(us(30), 0, 1, 1);
        let log = r.take();
        assert_eq!(log.nodes, 2);
        let segs: Vec<_> = log.active[0].segments(us(40)).collect();
        assert_eq!(
            segs,
            vec![
                (us(0), us(5), 0b00),
                (us(5), us(10), 0b01),
                (us(10), us(20), 0b11),
                (us(20), us(30), 0b10),
                (us(30), us(40), 0b00),
            ]
        );
        // Downlink of node 1 (port 2 + 1 = 3) saw the same overlap.
        let down: Vec<_> = log.active[3].segments(us(40)).collect();
        assert_eq!(down, segs);
    }

    #[test]
    fn refcounts_keep_the_bit_while_any_transfer_is_pending() {
        let mut r = ContentionRecorder::new(us(0), 2, low_bits);
        r.on_submit(us(0), 0, 1, 0);
        r.on_submit(us(0), 0, 1, 0); // second transfer, same job
        r.on_delivered(us(10), 0, 1, 0);
        // Still one pending: the bit must stay set.
        assert_eq!(r.active[0].last_mask(), 0b01);
        r.on_dropped(us(20), 0, 1, 0);
        assert_eq!(r.active[0].last_mask(), 0);
    }

    #[test]
    fn occupancy_lands_on_both_directions() {
        let mut r = ContentionRecorder::new(us(0), 3, low_bits);
        r.on_wire(0, 2, 1, 1_000, us(0), us(10));
        let log = r.take();
        assert_eq!(
            log.occupancy,
            vec![(0, 1, 1_000, us(0), us(10)), (5, 1, 1_000, us(0), us(10))]
        );
    }
}
