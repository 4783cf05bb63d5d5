//! Bursty thread-load patterns for the monitoring experiments.
//!
//! Figure 8a plots the *actual* number of threads on a loaded back-end node
//! against what each monitoring scheme reports over time. The load pattern
//! is a deterministic schedule of bursts: phases during which `threads`
//! compute-bound threads run, separated by quieter phases.

/// One phase of the load schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstPhase {
    /// Concurrent compute threads during the phase.
    pub threads: u32,
    /// Phase duration in nanoseconds.
    pub duration_ns: u64,
}

/// A repeating schedule of load phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstSchedule {
    phases: Vec<BurstPhase>,
}

impl BurstSchedule {
    /// Build from explicit phases.
    pub fn new(phases: Vec<BurstPhase>) -> BurstSchedule {
        assert!(!phases.is_empty());
        assert!(phases.iter().all(|p| p.duration_ns > 0));
        BurstSchedule { phases }
    }

    /// The Figure 8a pattern: alternating quiet (1 thread), busy (6), spike
    /// (12), busy (4) phases of 50 ms each.
    pub fn fig8a() -> BurstSchedule {
        BurstSchedule::new(vec![
            BurstPhase {
                threads: 1,
                duration_ns: 50_000_000,
            },
            BurstPhase {
                threads: 6,
                duration_ns: 50_000_000,
            },
            BurstPhase {
                threads: 12,
                duration_ns: 50_000_000,
            },
            BurstPhase {
                threads: 4,
                duration_ns: 50_000_000,
            },
        ])
    }

    /// Length of one full cycle.
    pub fn cycle_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_ns).sum()
    }

    /// The phases in order.
    pub fn phases(&self) -> &[BurstPhase] {
        &self.phases
    }

    /// Thread count in force at time `t` (schedule repeats forever).
    pub fn threads_at(&self, t: u64) -> u32 {
        let mut rem = t % self.cycle_ns();
        for p in &self.phases {
            if rem < p.duration_ns {
                return p.threads;
            }
            rem -= p.duration_ns;
        }
        unreachable!("time past cycle end")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_at_follows_schedule_and_wraps() {
        let s = BurstSchedule::new(vec![
            BurstPhase {
                threads: 2,
                duration_ns: 10,
            },
            BurstPhase {
                threads: 5,
                duration_ns: 20,
            },
        ]);
        assert_eq!(s.cycle_ns(), 30);
        assert_eq!(s.threads_at(0), 2);
        assert_eq!(s.threads_at(9), 2);
        assert_eq!(s.threads_at(10), 5);
        assert_eq!(s.threads_at(29), 5);
        assert_eq!(s.threads_at(30), 2); // wrapped
        assert_eq!(s.threads_at(45), 5);
    }

    #[test]
    fn fig8a_pattern_shape() {
        let s = BurstSchedule::fig8a();
        assert_eq!(s.cycle_ns(), 200_000_000);
        let peaks: Vec<u32> = s.phases().iter().map(|p| p.threads).collect();
        assert_eq!(peaks, vec![1, 6, 12, 4]);
    }
}
