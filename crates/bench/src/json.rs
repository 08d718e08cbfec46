//! Shared helpers for the hand-rolled JSON the benchmark binaries emit
//! (the workspace deliberately has no serde).

/// Normalizes IEEE negative zero to positive zero for JSON output.
///
/// Aggregated simulated quantities can come out as `-0.0` (e.g. a sum of
/// negated durations that is exactly zero), and `format!("{:.3}", -0.0)`
/// prints `-0.000` — valid JSON, but a recurring diff-noise source in the
/// committed `BENCH_*.json` files. `-0.0 == 0.0` in IEEE 754, so the
/// comparison below catches exactly the negative-zero case.
pub fn nz(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_zero_is_normalized() {
        assert_eq!(format!("{:.3}", nz(-0.0)), "0.000");
        assert_eq!(format!("{:.3}", nz(0.0)), "0.000");
        assert_eq!(format!("{:.3}", nz(-1.5)), "-1.500");
        assert_eq!(format!("{:.3}", nz(2.25)), "2.250");
    }
}
