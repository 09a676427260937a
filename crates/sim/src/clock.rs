//! Simulated time primitives: slot pools for wave scheduling.
//!
//! The MapReduce engine simulates task execution by assigning tasks to
//! map slots; a [`SlotPool`] tracks when each slot becomes free so the
//! scheduler can compute wave structure and the job makespan without any
//! wall-clock dependence.

/// A pool of executor slots, each busy until some simulated instant.
#[derive(Debug, Clone)]
pub struct SlotPool {
    busy_until: Vec<f64>,
}

impl SlotPool {
    /// Creates a pool of `slots` slots, all free at time 0.
    pub fn new(slots: usize) -> Self {
        SlotPool {
            busy_until: vec![0.0; slots],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// True if the pool has no slots.
    pub fn is_empty(&self) -> bool {
        self.busy_until.is_empty()
    }

    /// Index of the slot that frees up first.
    pub fn earliest_slot(&self) -> Option<usize> {
        self.busy_until
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
    }

    /// When the given slot becomes free.
    pub fn free_at(&self, slot: usize) -> f64 {
        self.busy_until[slot]
    }

    /// Runs a task of `duration` seconds on `slot`, not starting before
    /// `not_before`. Returns `(start, end)` simulated times.
    pub fn assign(&mut self, slot: usize, duration: f64, not_before: f64) -> (f64, f64) {
        let start = self.busy_until[slot].max(not_before);
        let end = start + duration;
        self.busy_until[slot] = end;
        (start, end)
    }

    /// The instant all slots are idle — the makespan of everything
    /// assigned so far.
    pub fn makespan(&self) -> f64 {
        self.busy_until.iter().copied().fold(0.0, f64::max)
    }

    /// Marks a slot unavailable forever (node failure).
    pub fn kill(&mut self, slot: usize) {
        self.busy_until[slot] = f64::INFINITY;
    }

    /// True if the slot has been killed.
    pub fn is_dead(&self, slot: usize) -> bool {
        self.busy_until[slot].is_infinite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_form_naturally() {
        // 2 slots, 5 tasks of 10 s each → makespan 30 s (3 waves).
        let mut pool = SlotPool::new(2);
        for _ in 0..5 {
            let slot = pool.earliest_slot().unwrap();
            pool.assign(slot, 10.0, 0.0);
        }
        assert_eq!(pool.makespan(), 30.0);
    }

    #[test]
    fn not_before_delays_start() {
        let mut pool = SlotPool::new(1);
        let (start, end) = pool.assign(0, 5.0, 100.0);
        assert_eq!(start, 100.0);
        assert_eq!(end, 105.0);
        // A later task starts when the slot frees.
        let (start, _) = pool.assign(0, 1.0, 0.0);
        assert_eq!(start, 105.0);
    }

    #[test]
    fn earliest_slot_selection() {
        let mut pool = SlotPool::new(3);
        for (slot, busy) in [10.0, 3.0, 7.0].into_iter().enumerate() {
            pool.assign(slot, busy, 0.0);
        }
        assert_eq!(pool.earliest_slot(), Some(1));
        let (start, _) = pool.assign(1, 1.0, 0.0);
        assert_eq!(start, 3.0);
        assert_eq!(pool.earliest_slot(), Some(1));
    }

    #[test]
    fn killed_slots_never_chosen() {
        let mut pool = SlotPool::new(2);
        pool.kill(0);
        assert!(pool.is_dead(0));
        for _ in 0..3 {
            let slot = pool.earliest_slot().unwrap();
            assert_eq!(slot, 1);
            pool.assign(slot, 1.0, 0.0);
        }
    }

    #[test]
    fn empty_pool() {
        let pool = SlotPool::new(0);
        assert!(pool.is_empty());
        assert_eq!(pool.earliest_slot(), None);
        assert_eq!(pool.makespan(), 0.0);
    }
}
