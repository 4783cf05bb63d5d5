//! Fabric cost model: latency, bandwidth, and CPU-involvement constants.
//!
//! The constants are calibrated to the paper's testbed era (InfiniBand 4x on
//! a 2007 OSU cluster): one-sided RDMA write ≈ 6 µs, RDMA read ≈ 12 µs,
//! remote atomics ≈ 12–13 µs round trip, host-based TCP/IP 1-byte latency
//! ≈ 50 µs with per-byte copy costs on both CPUs. Calibration notes per
//! experiment are in `EXPERIMENTS.md`.

use crate::cpu::CpuConfig;

/// Cost model for the simulated fabric and node CPUs.
///
/// All latencies are nanoseconds, bandwidths are bytes per microsecond
/// (1 byte/µs = 1 MB/s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricModel {
    /// Round-trip completion latency of a minimal RDMA read.
    pub rdma_read_base_ns: u64,
    /// Completion latency of a minimal RDMA write (posting to remote ack).
    pub rdma_write_base_ns: u64,
    /// Round-trip latency of a remote atomic (CAS / fetch-and-add).
    pub atomic_base_ns: u64,
    /// Latency of a minimal RDMA send (two-sided, NIC-delivered).
    pub rdma_send_base_ns: u64,
    /// Sender-side software overhead of posting any verb (descriptor prep).
    pub post_overhead_ns: u64,
    /// SAN payload bandwidth, bytes per microsecond (≈ MB/s).
    pub ib_bytes_per_us: u64,

    /// One-way base latency of the host TCP/IP path (stack + interrupt).
    pub tcp_base_ns: u64,
    /// TCP payload bandwidth, bytes per microsecond.
    pub tcp_bytes_per_us: u64,
    /// CPU time charged to the *sender* per TCP message (syscall + copy).
    pub tcp_send_cpu_base_ns: u64,
    /// Additional sender CPU per KiB of payload (buffer copy).
    pub tcp_send_cpu_per_kb_ns: u64,
    /// CPU time charged to the *receiver* per TCP message before delivery.
    pub tcp_recv_cpu_base_ns: u64,
    /// Additional receiver CPU per KiB of payload.
    pub tcp_recv_cpu_per_kb_ns: u64,

    /// Per-node CPU scheduling parameters.
    pub cpu: CpuConfig,
}

impl FabricModel {
    /// Constants calibrated to the paper's 2007 InfiniBand 4x testbed.
    pub fn calibrated_2007() -> Self {
        FabricModel {
            rdma_read_base_ns: 12_000,
            rdma_write_base_ns: 6_000,
            atomic_base_ns: 12_500,
            rdma_send_base_ns: 7_000,
            post_overhead_ns: 500,
            ib_bytes_per_us: 900, // ≈ 900 MB/s IB 4x payload rate
            tcp_base_ns: 22_000,  // ≈ 50 µs end-to-end 1-byte with CPU costs
            tcp_bytes_per_us: 450,
            tcp_send_cpu_base_ns: 3_000,
            tcp_send_cpu_per_kb_ns: 1_800,
            tcp_recv_cpu_base_ns: 3_000,
            tcp_recv_cpu_per_kb_ns: 1_800,
            cpu: CpuConfig::default(),
        }
    }

    /// A stable digest of every calibration constant in this model,
    /// formatted `fm1-<16 hex digits>`.
    ///
    /// Bench reports embed it (`dc-bench-report/v2` `fingerprint`), and the
    /// `dc-bench` differ refuses to compare reports produced under
    /// different fingerprints: a calibration change invalidates committed
    /// baselines *loudly* instead of showing up as a wall of numeric
    /// deltas. Changing any field — including the CPU parameters — changes
    /// the digest; the `fm1` prefix versions the digest scheme itself.
    pub fn fingerprint(&self) -> String {
        // FNV-1a, 64-bit. Field order is fixed and append-only.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.rdma_read_base_ns);
        mix(self.rdma_write_base_ns);
        mix(self.atomic_base_ns);
        mix(self.rdma_send_base_ns);
        mix(self.post_overhead_ns);
        mix(self.ib_bytes_per_us);
        mix(self.tcp_base_ns);
        mix(self.tcp_bytes_per_us);
        mix(self.tcp_send_cpu_base_ns);
        mix(self.tcp_send_cpu_per_kb_ns);
        mix(self.tcp_recv_cpu_base_ns);
        mix(self.tcp_recv_cpu_per_kb_ns);
        mix(self.cpu.cores as u64);
        mix(self.cpu.quantum_ns);
        // Derived lookahead bound: folding it in means any future change
        // to how the bound is computed — not just to the base constants —
        // re-fingerprints the model, so sharded and single-threaded
        // baselines can never be diffed across differing lookahead rules.
        mix(self.min_link_latency_ns());
        format!("fm1-{h:016x}")
    }

    /// The minimum one-way virtual latency any fabric message can have:
    /// the floor over every base (per-message) latency constant. This is
    /// the conservative-lookahead bound for the sharded sim driver
    /// (`dc_sim::shard`) — no cross-node send can arrive sooner than this,
    /// so shards may safely advance in windows of this width. Scenarios
    /// whose message set has a higher floor (e.g. every hop also pays a
    /// transfer or CPU cost) may widen the window, never narrow it below
    /// their own minimum delay.
    #[inline]
    pub fn min_link_latency_ns(&self) -> u64 {
        self.rdma_read_base_ns
            .min(self.rdma_write_base_ns)
            .min(self.atomic_base_ns)
            .min(self.rdma_send_base_ns)
            .min(self.tcp_base_ns)
    }

    /// Time to move `len` payload bytes across the SAN at IB bandwidth.
    #[inline]
    pub fn ib_bytes_time(&self, len: usize) -> u64 {
        bytes_time(len, self.ib_bytes_per_us)
    }

    /// Time to move `len` payload bytes across the TCP path.
    #[inline]
    pub fn tcp_bytes_time(&self, len: usize) -> u64 {
        bytes_time(len, self.tcp_bytes_per_us)
    }

    /// Sender-side CPU work for a TCP message of `len` bytes.
    #[inline]
    pub fn tcp_send_cpu(&self, len: usize) -> u64 {
        self.tcp_send_cpu_base_ns + per_kb(len, self.tcp_send_cpu_per_kb_ns)
    }

    /// Receiver-side CPU work for a TCP message of `len` bytes.
    #[inline]
    pub fn tcp_recv_cpu(&self, len: usize) -> u64 {
        self.tcp_recv_cpu_base_ns + per_kb(len, self.tcp_recv_cpu_per_kb_ns)
    }
}

impl Default for FabricModel {
    fn default() -> Self {
        Self::calibrated_2007()
    }
}

/// `len` bytes at `bytes_per_us` bandwidth, in nanoseconds (rounded up).
#[inline]
pub fn bytes_time(len: usize, bytes_per_us: u64) -> u64 {
    if bytes_per_us == 0 {
        return 0;
    }
    ((len as u64) * 1_000).div_ceil(bytes_per_us)
}

#[inline]
fn per_kb(len: usize, per_kb_ns: u64) -> u64 {
    ((len as u64) * per_kb_ns).div_ceil(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_time_matches_bandwidth() {
        // 900 bytes/us: 9000 bytes take 10us.
        assert_eq!(bytes_time(9_000, 900), 10_000);
        // Rounds up: 1 byte still takes ceil(1000/900) = 2ns.
        assert_eq!(bytes_time(1, 900), 2);
        assert_eq!(bytes_time(0, 900), 0);
        assert_eq!(bytes_time(123, 0), 0);
    }

    #[test]
    fn calibration_orders_hold() {
        let m = FabricModel::calibrated_2007();
        // One-sided write is the cheapest verb; atomics cost a round trip.
        assert!(m.rdma_write_base_ns < m.rdma_read_base_ns);
        assert!(m.rdma_write_base_ns < m.atomic_base_ns);
        // End-to-end 1-byte TCP (base + both CPU sides) is several times
        // slower than an RDMA write.
        let tcp_one_byte = m.tcp_base_ns + m.tcp_send_cpu(1) + m.tcp_recv_cpu(1);
        assert!(tcp_one_byte > 4 * m.rdma_write_base_ns);
        // IB moves bytes at least twice as fast as the TCP path.
        assert!(m.ib_bytes_per_us >= 2 * m.tcp_bytes_per_us);
    }

    #[test]
    fn tcp_cpu_costs_scale_with_size() {
        let m = FabricModel::calibrated_2007();
        assert_eq!(m.tcp_send_cpu(0), m.tcp_send_cpu_base_ns);
        assert_eq!(
            m.tcp_send_cpu(2048),
            m.tcp_send_cpu_base_ns + 2 * m.tcp_send_cpu_per_kb_ns
        );
        assert!(m.tcp_recv_cpu(65536) > m.tcp_recv_cpu(1024));
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive_to_every_constant() {
        let base = FabricModel::calibrated_2007();
        assert_eq!(base.fingerprint(), base.fingerprint(), "must be pure");
        assert!(base.fingerprint().starts_with("fm1-"));
        assert_eq!(base.fingerprint().len(), 4 + 16);
        // Perturbing any single constant must change the digest.
        let perturbations: Vec<FabricModel> = vec![
            FabricModel {
                rdma_read_base_ns: base.rdma_read_base_ns + 1,
                ..base.clone()
            },
            FabricModel {
                rdma_write_base_ns: base.rdma_write_base_ns + 1,
                ..base.clone()
            },
            FabricModel {
                atomic_base_ns: base.atomic_base_ns + 1,
                ..base.clone()
            },
            FabricModel {
                rdma_send_base_ns: base.rdma_send_base_ns + 1,
                ..base.clone()
            },
            FabricModel {
                post_overhead_ns: base.post_overhead_ns + 1,
                ..base.clone()
            },
            FabricModel {
                ib_bytes_per_us: base.ib_bytes_per_us + 1,
                ..base.clone()
            },
            FabricModel {
                tcp_base_ns: base.tcp_base_ns + 1,
                ..base.clone()
            },
            FabricModel {
                tcp_bytes_per_us: base.tcp_bytes_per_us + 1,
                ..base.clone()
            },
            FabricModel {
                tcp_send_cpu_base_ns: base.tcp_send_cpu_base_ns + 1,
                ..base.clone()
            },
            FabricModel {
                tcp_send_cpu_per_kb_ns: base.tcp_send_cpu_per_kb_ns + 1,
                ..base.clone()
            },
            FabricModel {
                tcp_recv_cpu_base_ns: base.tcp_recv_cpu_base_ns + 1,
                ..base.clone()
            },
            FabricModel {
                tcp_recv_cpu_per_kb_ns: base.tcp_recv_cpu_per_kb_ns + 1,
                ..base.clone()
            },
            FabricModel {
                cpu: CpuConfig {
                    cores: base.cpu.cores + 1,
                    ..base.cpu
                },
                ..base.clone()
            },
            FabricModel {
                cpu: CpuConfig {
                    quantum_ns: base.cpu.quantum_ns + 1,
                    ..base.cpu
                },
                ..base.clone()
            },
        ];
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.fingerprint());
        for (i, m) in perturbations.iter().enumerate() {
            assert!(
                seen.insert(m.fingerprint()),
                "perturbation {i} collided with an earlier fingerprint"
            );
        }
    }

    #[test]
    fn min_link_latency_is_the_floor_of_every_base_latency() {
        let m = FabricModel::calibrated_2007();
        // The cheapest per-message primitive in the 2007 calibration is
        // the one-sided RDMA write.
        assert_eq!(m.min_link_latency_ns(), m.rdma_write_base_ns);
        for v in [
            m.rdma_read_base_ns,
            m.rdma_write_base_ns,
            m.atomic_base_ns,
            m.rdma_send_base_ns,
            m.tcp_base_ns,
        ] {
            assert!(m.min_link_latency_ns() <= v);
        }
        assert!(m.min_link_latency_ns() > 0, "lookahead must be positive");
    }

    #[test]
    fn profiles_are_cloneable_and_comparable() {
        let a = FabricModel::calibrated_2007();
        let b = a.clone();
        assert_eq!(a, b);
        let slower = FabricModel {
            tcp_base_ns: a.tcp_base_ns + 1,
            ..a.clone()
        };
        assert_ne!(a, slower);
    }
}
