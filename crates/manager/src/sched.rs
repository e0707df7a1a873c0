//! Fleet scheduling: the weighted-fair ready queue.
//!
//! **Queueing.** Every link carries a *virtual time*: measured worker
//! seconds divided by the link's scheduling weight, accumulated as batches
//! complete. Workers always serve the ready link with the lowest virtual
//! time, so while links are backlogged each receives pool service
//! proportional to its weight — a premium (high-weight) link buys a larger
//! share, but a weight-ε link still has the lowest virtual time eventually
//! and can never starve.
//!
//! Where a link's kernels would be cheapest is not decided here: the worker
//! asks [`qkd_hetero::decide_placement`] per batch and the answer only
//! labels the batch and prices its modeled time (see [`crate::manager`]).
//!
//! The queue hands out *links*, one batch each: the fleet's unit of
//! parallelism is the link batch, and the pool's worker count is the only
//! bound on distillation threads.
//!
//! A [`ReadyQueue`] lives for one [`crate::LinkManager::run`] drain; virtual
//! times start even at every drain, which is exactly the long-run fair
//! share since weights do not change mid-run.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The shared ready queue of one drain: links eligible for service, plus
/// the outstanding-batch count idle workers watch to know when to exit and
/// an optional dispatch budget.
pub(crate) struct ReadyQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    /// Links eligible for service, an unordered set scanned for the minimum
    /// virtual time (fleets are small; a linear scan under the lock beats a
    /// heap's bookkeeping).
    ready: Vec<usize>,
    /// Per-link virtual time: accumulated service seconds over weight.
    vtime: Vec<f64>,
    /// Per-link scheduling weight (validated positive by the spec).
    weights: Vec<f64>,
    /// Links seeded with work this drain (for the virtual-time lag metric).
    active: Vec<bool>,
    /// Batches seeded but not yet completed.
    outstanding: usize,
    /// Dispatches remaining before the drain stops early (`None` = drain
    /// everything).
    budget: Option<usize>,
}

impl ReadyQueue {
    pub(crate) fn new(budget: Option<usize>, weights: Vec<f64>) -> Self {
        let links = weights.len();
        Self {
            state: Mutex::new(QueueState {
                ready: Vec::new(),
                vtime: vec![0.0; links],
                weights,
                active: vec![false; links],
                outstanding: 0,
                budget,
            }),
            cv: Condvar::new(),
        }
    }

    /// A poisoned queue lock means a worker panicked mid-batch; the scoped
    /// pool is about to propagate that panic, so recovering the guard (the
    /// counters may undercount one batch) beats poisoning every other worker
    /// into a second panic.
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks a link ready with `batches` queued batches.
    pub(crate) fn seed(&self, link: usize, batches: usize) {
        if batches == 0 {
            return;
        }
        let mut st = self.lock_state();
        st.ready.push(link);
        st.outstanding += batches;
        if let Some(flag) = st.active.get_mut(link) {
            *flag = true;
        }
    }

    /// Batches seeded and not yet completed.
    pub(crate) fn outstanding(&self) -> usize {
        self.lock_state().outstanding
    }

    /// Blocks until a link is eligible for service and returns it: the worker
    /// serves one batch of that link. Returns `None` once every outstanding
    /// batch has completed or the dispatch budget is spent.
    pub(crate) fn next(&self) -> Option<usize> {
        let mut st = self.lock_state();
        loop {
            if st.budget == Some(0) {
                return None;
            }
            if let Some(link) = Self::pick(&mut st) {
                if let Some(b) = st.budget.as_mut() {
                    *b -= 1;
                    if *b == 0 {
                        // Waiters must wake to observe exhaustion.
                        self.cv.notify_all();
                    }
                }
                return Some(link);
            }
            if st.outstanding == 0 {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Removes the ready link with the lowest virtual time from the ready
    /// set, or `None` when no link is ready.
    fn pick(st: &mut QueueState) -> Option<usize> {
        let mut best: Option<(usize, f64, usize)> = None;
        for (pos, &link) in st.ready.iter().enumerate() {
            let v = st.vtime.get(link).copied().unwrap_or(0.0);
            let better = match best {
                None => true,
                // Ties break towards the lower link id, so the order is
                // deterministic for equal-weight equal-service links.
                Some((_, bv, bl)) => v < bv || (v == bv && link < bl),
            };
            if better {
                best = Some((pos, v, link));
            }
        }
        best.map(|(pos, _, _)| st.ready.swap_remove(pos))
    }

    /// Marks `completed` batches done for `link` after `service_secs` of
    /// measured worker time; re-queues the link when it still has work.
    pub(crate) fn complete(&self, link: usize, service_secs: f64, completed: usize, requeue: bool) {
        let mut st = self.lock_state();
        st.outstanding = st.outstanding.saturating_sub(completed);
        let weight = st.weights.get(link).copied().unwrap_or(1.0);
        if weight > 0.0 && service_secs > 0.0 {
            if let Some(v) = st.vtime.get_mut(link) {
                *v += service_secs / weight;
            }
        }
        if requeue {
            st.ready.push(link);
        }
        if st.outstanding == 0 || st.budget == Some(0) {
            self.cv.notify_all();
        } else if requeue {
            self.cv.notify_one();
        }
    }

    /// Virtual-time lag of the drain so far: the spread between the most- and
    /// least-advanced virtual times over the links that had work. Near zero
    /// means weighted service shares were honoured; a large lag means some
    /// link fell behind its entitlement.
    pub(crate) fn vtime_lag(&self) -> f64 {
        let st = self.lock_state();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        let mut seen = 0usize;
        for (link, &v) in st.vtime.iter().enumerate() {
            if st.active.get(link).copied().unwrap_or(false) {
                seen += 1;
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if seen < 2 {
            0.0
        } else {
            hi - lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a single synthetic worker: every batch takes `service(link)`
    /// seconds; each link starts with `batches` queued. Returns the dispatch
    /// order.
    fn drive(
        queue: &ReadyQueue,
        mut pending: Vec<usize>,
        service: impl Fn(usize) -> f64,
    ) -> Vec<usize> {
        for (link, &batches) in pending.iter().enumerate() {
            queue.seed(link, batches);
        }
        let mut order = Vec::new();
        while let Some(link) = queue.next() {
            order.push(link);
            pending[link] -= 1;
            queue.complete(link, service(link), 1, pending[link] > 0);
        }
        order
    }

    #[test]
    fn wfq_shares_track_weights() {
        let queue = ReadyQueue::new(Some(10), vec![4.0, 1.0]);
        let order = drive(&queue, vec![100, 100], |_| 1.0);
        assert_eq!(order.len(), 10);
        let link0 = order.iter().filter(|&&l| l == 0).count();
        // 4:1 weights over 10 unit-service dispatches → 8:2.
        assert_eq!(link0, 8, "order {order:?}");
        // Weighted virtual times stay level: the lag is bounded by one
        // weighted service quantum.
        assert!(queue.vtime_lag() <= 1.0 + 1e-9);
    }

    #[test]
    fn weighted_jain_stays_high_under_contention_with_unequal_costs() {
        // One premium link next to three standard ones, every link's batches
        // costing something different, all backlogged past the budget.
        // Round-robin would leave the weighted Jain index at ~0.69 here.
        let weights = vec![4.0, 1.0, 1.0, 1.0];
        let cost = [1.0, 2.0, 0.5, 1.5];
        let queue = ReadyQueue::new(Some(40), weights.clone());
        let order = drive(&queue, vec![100; 4], |l| cost[l]);
        assert_eq!(order.len(), 40);
        let shares: Vec<f64> = (0..4)
            .map(|l| order.iter().filter(|&&o| o == l).count() as f64 * cost[l] / weights[l])
            .collect();
        let jain = crate::report::jain_index(&shares);
        assert!(jain >= 0.9, "weighted Jain {jain:.4}, shares {shares:?}");
    }

    #[test]
    fn wfq_compensates_expensive_batches() {
        // Equal weights but link 0's batches cost 3× as much: it should be
        // served ~3× less often.
        let queue = ReadyQueue::new(Some(12), vec![1.0, 1.0]);
        let order = drive(&queue, vec![100, 100], |l| if l == 0 { 3.0 } else { 1.0 });
        let link0 = order.iter().filter(|&&l| l == 0).count();
        assert!(link0 <= 4, "expensive link overserved: {order:?}");
    }

    #[test]
    fn budget_stops_the_drain_with_backlog_left() {
        let queue = ReadyQueue::new(Some(3), vec![1.0]);
        queue.seed(0, 8);
        let mut served = 0;
        while let Some(link) = queue.next() {
            served += 1;
            queue.complete(link, 0.5, 1, true);
        }
        assert_eq!(served, 3);
        assert_eq!(queue.outstanding(), 5);
    }

    #[test]
    fn full_drain_without_budget() {
        let queue = ReadyQueue::new(None, vec![1.0, 1.0]);
        let order = drive(&queue, vec![3, 2], |_| 0.1);
        assert_eq!(order.len(), 5);
        assert_eq!(queue.outstanding(), 0);
    }

    #[test]
    fn placement_labels_cover_all_shapes() {
        // The label values of the `qkd_sched_batches_total{backend=…}` series
        // and of `LinkReport::placement`.
        use qkd_hetero::{DeviceKind, LinkPlacement};
        assert_eq!(LinkPlacement::Cpu.label(), "cpu");
        assert_eq!(
            LinkPlacement::DecodeOnly(DeviceKind::SimFpga).label(),
            "decode:sim-fpga"
        );
        assert_eq!(
            LinkPlacement::Whole(DeviceKind::SimGpu).label(),
            "whole:sim-gpu"
        );
    }
}
