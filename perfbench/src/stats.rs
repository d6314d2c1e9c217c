//! Order statistics over the per-burst samples.

/// Per-burst samples of one measured phase.
#[derive(Debug, Default)]
pub struct Bursts {
    /// Packets of each burst.
    pub packets: Vec<u64>,
    /// Wall time of each burst, nanoseconds.
    pub ns: Vec<u64>,
    /// CPU time the process spent in each burst, nanoseconds, over all
    /// of its threads.
    pub cpu_ns: Vec<u64>,
}

/// What [`Bursts`] summarise to.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Packets over the summed wall time of the fastest half of the
    /// bursts (packets per second).
    pub rate: f64,
    /// Packets over the summed wall time of every burst.
    pub rate_all: f64,
    /// 25th-percentile burst time, nanoseconds.
    pub p25_ns: f64,
    /// Median burst time, nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile burst time, nanoseconds.
    pub p99_ns: f64,
    /// The median over bursts of CPU time per packet, nanoseconds.
    pub cpu_ns_per_pkt: f64,
    /// Bursts summarised.
    pub bursts: usize,
}

impl Bursts {
    /// Records one burst.
    pub fn push(&mut self, packets: u64, ns: u64, cpu_ns: u64) {
        self.packets.push(packets);
        self.ns.push(ns);
        self.cpu_ns.push(cpu_ns);
    }

    /// Bursts recorded.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// `true` before the first burst.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Rates, burst-time quantiles and CPU time per packet.
    pub fn summary(&self) -> Summary {
        let mut by_time: Vec<(u64, u64)> = self
            .ns
            .iter()
            .copied()
            .zip(self.packets.iter().copied())
            .collect();
        by_time.sort_unstable();
        let fast = &by_time[..by_time.len().div_ceil(2)];
        let fast_packets: u64 = fast.iter().map(|&(_, p)| p).sum();
        let fast_ns: u64 = fast.iter().map(|&(t, _)| t).sum();
        let packets: u64 = self.packets.iter().sum();
        let ns: u64 = self.ns.iter().sum();
        let mut times: Vec<f64> = self.ns.iter().map(|&t| t as f64).collect();
        let mut cpu: Vec<f64> = self
            .cpu_ns
            .iter()
            .zip(&self.packets)
            .map(|(&t, &p)| t as f64 / p.max(1) as f64)
            .collect();
        Summary {
            rate: fast_packets as f64 / (fast_ns.max(1) as f64 / 1e9),
            rate_all: packets as f64 / (ns.max(1) as f64 / 1e9),
            p25_ns: quantile(&mut times, 0.25),
            p50_ns: quantile(&mut times, 0.5),
            p99_ns: quantile(&mut times, 0.99),
            cpu_ns_per_pkt: median_f64(&mut cpu),
            bursts: self.ns.len(),
        }
    }
}

/// Median of `v` (sorts it in place); 0 for an empty slice.
pub fn median_u64(v: &mut [u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] as f64 + v[n / 2] as f64) / 2.0
    }
}

/// Median of `v` (sorts it in place); 0 for an empty slice.
pub fn median_f64(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between closest ranks
/// (sorts it in place); 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median_u64(&mut [5, 1, 3]), 3.0);
    }

    #[test]
    fn the_rate_is_that_of_the_fastest_half() {
        let mut b = Bursts::default();
        for t in [5, 1, 4, 2, 3] {
            b.push(100, t * 1_000, t * 2_000);
        }
        let s = b.summary();
        assert_eq!(s.bursts, 5);
        // The fastest three of five bursts: 1, 2 and 3 us.
        assert!((s.rate - 300.0 / 6e-6).abs() < 1.0);
        assert!((s.rate_all - 500.0 / 15e-6).abs() < 1.0);
        assert_eq!(s.p25_ns, 2_000.0);
        assert_eq!(s.p50_ns, 3_000.0);
        assert_eq!(s.cpu_ns_per_pkt, 60.0);
    }
}
