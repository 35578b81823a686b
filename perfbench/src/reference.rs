//! Independent reference computations for the correctness checks.
//!
//! None of these calls into the `analysis` crate: each is a different
//! method for the same quantity, tested below against hand-worked cases.

/// Expected traceable rate of an `eta`-hop path (Eq. 1) when every
/// sender is compromised independently with probability `p`, by
/// enumerating all `2^eta` compromise patterns: a pattern's traceable
/// rate is the sum of its squared runs of compromised senders over
/// `eta^2`.
pub fn traceable_rate_enumerated(eta: usize, p: f64) -> f64 {
    assert!((1..=24).contains(&eta), "enumeration is for short paths");
    let q = 1.0 - p;
    let mut expectation = 0.0;
    for pattern in 0u32..(1 << eta) {
        let mut prob = 1.0;
        let mut sum_sq = 0u64;
        let mut run = 0u64;
        for hop in 0..eta {
            if pattern >> hop & 1 == 1 {
                prob *= p;
                run += 1;
            } else {
                prob *= q;
                sum_sq += run * run;
                run = 0;
            }
        }
        sum_sq += run * run;
        expectation += prob * sum_sq as f64;
    }
    expectation / (eta * eta) as f64
}

/// `P(X_1 + … + X_k <= t)` for independent `X_i ~ Exp(rates[i])`, by
/// uniformization of the pure-birth chain that walks the phases in
/// order: with `Λ = max rate`, the chain jumps at Poisson(`Λ`) epochs and
/// advances from phase `i` with probability `rates[i]/Λ`. Unlike the
/// closed form it needs no distinct rates.
pub fn hypoexp_cdf_uniformized(rates: &[f64], t: f64) -> f64 {
    assert!(!rates.is_empty() && rates.iter().all(|&r| r > 0.0 && r.is_finite()));
    if t <= 0.0 {
        return 0.0;
    }
    let lambda = rates.iter().cloned().fold(0.0, f64::max);
    let mean = lambda * t;
    let steps = (mean + 12.0 * mean.sqrt() + 40.0).ceil() as usize;
    let k = rates.len();
    // dist[i] = P(chain in phase i after n jumps); dist[k] = absorbed.
    let mut dist = vec![0.0; k + 1];
    dist[0] = 1.0;
    let mut log_pois = -mean;
    let mut cdf = 0.0;
    for n in 0..=steps {
        if n > 0 {
            log_pois += mean.ln() - (n as f64).ln();
            for i in (0..k).rev() {
                let advance = dist[i] * rates[i] / lambda;
                dist[i] -= advance;
                dist[i + 1] += advance;
            }
        }
        cdf += log_pois.exp() * dist[k];
    }
    cdf.min(1.0)
}

/// Expected contact count `Σ λ·T` of a world whose pairs meet at `rates`
/// over a horizon `t`.
pub fn expected_contacts(rates: impl IntoIterator<Item = f64>, t: f64) -> f64 {
    rates.into_iter().map(|r| r * t).sum()
}

/// Whether an observed Poisson count lies within `z` standard deviations
/// of its mean (plus one count of slack for small means).
pub fn within_poisson(observed: f64, mean: f64, z: f64) -> bool {
    (observed - mean).abs() <= z * mean.sqrt() + 1.0
}

/// The constant wire packet size, from the wire layout: version (1) ||
/// target type (1) || target id (4) || an 8 KiB body.
pub const WIRE_PACKET_BYTES: u64 = 1 + 1 + 4 + 8 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn traceable_one_and_two_hops() {
        for p in [0.0, 0.1, 0.37, 1.0] {
            let q = 1.0 - p;
            assert!(close(traceable_rate_enumerated(1, p), p));
            // 11 → 4/4, 10 and 01 → 1/4 each.
            assert!(close(traceable_rate_enumerated(2, p), p * p + p * q / 2.0));
        }
    }

    #[test]
    fn traceable_three_hops_at_one_half() {
        // Squared-run sums of 000..111: 0,1,1,4,1,2,4,9 = 22 over 8
        // equally likely patterns, divided by η² = 9.
        assert!(close(traceable_rate_enumerated(3, 0.5), 22.0 / 72.0));
    }

    #[test]
    fn hypoexp_single_phase_is_exponential() {
        for (r, t) in [(0.5, 1.0), (0.1, 30.0), (2.0, 0.25)] {
            let exact = 1.0 - f64::exp(-r * t);
            assert!((hypoexp_cdf_uniformized(&[r], t) - exact).abs() < 1e-10);
        }
    }

    #[test]
    fn hypoexp_two_distinct_phases() {
        // 1 − (b e^{−a t} − a e^{−b t}) / (b − a) at a = 1, b = 2, t = 1.
        let exact = 1.0 - 2.0 * f64::exp(-1.0) + f64::exp(-2.0);
        assert!((hypoexp_cdf_uniformized(&[1.0, 2.0], 1.0) - exact).abs() < 1e-10);
        assert!((hypoexp_cdf_uniformized(&[2.0, 1.0], 1.0) - exact).abs() < 1e-10);
    }

    #[test]
    fn hypoexp_equal_phases_is_erlang() {
        // Erlang-2: 1 − e^{−r t}(1 + r t).
        let (r, t) = (0.5, 3.0);
        let exact = 1.0 - f64::exp(-r * t) * (1.0 + r * t);
        assert!((hypoexp_cdf_uniformized(&[r, r], t) - exact).abs() < 1e-10);
        assert_eq!(hypoexp_cdf_uniformized(&[r, r], 0.0), 0.0);
    }

    #[test]
    fn hypoexp_long_horizon_saturates() {
        // Λt = 540, the Table II first-hop rate at T = 1080.
        let p = hypoexp_cdf_uniformized(&[0.5, 0.5, 0.5, 0.1], 1080.0);
        assert!((p - 1.0).abs() < 1e-10, "{p}");
    }

    #[test]
    fn expected_contacts_sums_rate_times_horizon() {
        assert_eq!(expected_contacts([0.5, 0.25], 8.0), 6.0);
        assert_eq!(expected_contacts([], 8.0), 0.0);
    }

    #[test]
    fn poisson_window() {
        assert!(within_poisson(10_000.0 + 400.0, 10_000.0, 5.0));
        assert!(!within_poisson(10_000.0 + 600.0, 10_000.0, 5.0));
    }

    #[test]
    fn wire_packet_is_8198_bytes() {
        assert_eq!(WIRE_PACKET_BYTES, 8198);
    }
}
