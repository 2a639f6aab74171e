//! The channel substrate's release guards (E14 `radio_scale` is
//! retired; its id is not reused).
//!
//! The paper's efficiency claims are about protocol-level costs; the
//! *simulator's* cost of realizing the channel model is a wall-clock
//! number, and wall-clock numbers come from vi-perf (`bash
//! bench/run.sh`, `--trace` for `radio.ns_per_node_round` and the
//! `radio.phase.*` rows). What stays here is test code only: the
//! bench-input agreement check between the [`vi_radio::Medium`] and
//! the naive `resolve_round_reference` resolver, and the two
//! `#[ignore]`d guards CI runs by name in release, which time
//! themselves and report into no table.
//!
//! Deployments keep node density constant (the area grows with `n`),
//! which is the regime the virtual-infrastructure workloads live in:
//! the naive resolver then still scans every broadcaster for every
//! receiver (quadratic, cubic in dense worst cases), while the medium's
//! per-receiver 3×3-cell queries keep the round near-linear in `n`.

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Instant;
    use vi_radio::channel::{
        resolve_round_reference, Medium, ReceptionBuffer, TopologyDelta, TxIntent,
    };
    use vi_radio::geometry::Point;
    use vi_radio::{AdversaryKind, NodeId, RadioConfig};

    const R1: f64 = 10.0;
    const R2: f64 = 20.0;
    /// Mean spacing between nodes, chosen so each R2 disk holds a handful
    /// of nodes regardless of `n` (constant density).
    const SPACING: f64 = 15.0;

    /// The radio parameters used by the scaling runs.
    fn radio() -> RadioConfig {
        RadioConfig::reliable(R1, R2)
    }

    /// A constant-density deployment: `n` nodes uniform in a square whose
    /// side grows with `sqrt(n)`; every third node broadcasts.
    fn make_intents(n: usize, seed: u64) -> Vec<TxIntent<u64>> {
        let side = (n as f64).sqrt() * SPACING;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| TxIntent {
                node: NodeId::from(i),
                pos: Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)),
                payload: (i % 3 == 0).then_some(i as u64),
            })
            .collect()
    }

    /// Wall-clock seconds for `rounds` [`Medium::resolve_round_cached`]
    /// rounds under `delta`, after a warm-up through the full mode ladder
    /// — `Rebuild` resolves via the churn fallback, the first `Unchanged`
    /// round re-anchors the topology cache — so the timed loop measures
    /// pure steady state of whichever mode `delta` selects.
    fn medium_secs(
        intents: &[TxIntent<u64>],
        delta: TopologyDelta<'_>,
        rounds: u32,
        seed: u64,
    ) -> f64 {
        let mut medium = Medium::new(radio());
        let mut out = ReceptionBuffer::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut resolve = |round: u32, delta| {
            medium.resolve_round_cached(
                u64::from(round),
                intents,
                delta,
                &mut AdversaryKind::None,
                &mut rng,
                &mut out,
            );
        };
        resolve(0, TopologyDelta::Rebuild);
        resolve(0, TopologyDelta::Unchanged);
        let t0 = Instant::now();
        for round in 0..rounds {
            resolve(round, delta);
        }
        t0.elapsed().as_secs_f64()
    }

    /// Wall-clock seconds for `rounds` rounds through the per-round
    /// rebuilt medium ([`TopologyDelta::Rebuild`] every round: the churn
    /// fallback's broadcaster index), the cached-topology medium (static
    /// deployment: [`TopologyDelta::Unchanged`]), and the reference
    /// resolver, on identical inputs.
    ///
    /// Returns `(rebuilt_secs, cached_secs, reference_secs)` per-run
    /// totals. All paths see the same intents; adversary and RNG are
    /// benign/fixed so the comparison is pure resolution cost.
    fn scale_times(n: usize, rounds: u32, seed: u64) -> (f64, f64, f64) {
        let cfg = radio();
        let intents = make_intents(n, seed);
        let rebuilt_secs = medium_secs(&intents, TopologyDelta::Rebuild, rounds, seed);
        let cached_secs = medium_secs(&intents, TopologyDelta::Unchanged, rounds, seed);

        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Instant::now();
        for round in 0..rounds {
            let receptions = resolve_round_reference(
                u64::from(round),
                &cfg,
                &intents,
                &mut AdversaryKind::None,
                &mut rng,
            );
            assert_eq!(receptions.len(), intents.len());
        }
        let reference_secs = t0.elapsed().as_secs_f64();

        (rebuilt_secs, cached_secs, reference_secs)
    }

    /// Median of three timing runs (the shape assertions divide timings,
    /// so single-run jitter matters).
    fn median_times(n: usize, rounds: u32) -> (f64, f64, f64) {
        let mut medium: Vec<f64> = Vec::new();
        let mut cached: Vec<f64> = Vec::new();
        let mut reference: Vec<f64> = Vec::new();
        for seed in 0..3 {
            let (m, c, r) = scale_times(n, rounds, seed);
            medium.push(m);
            cached.push(c);
            reference.push(r);
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            v[v.len() / 2]
        };
        (med(&mut medium), med(&mut cached), med(&mut reference))
    }

    /// Committed per-round budget for the rebuilt medium at n = 5000 (the
    /// CI regression guard): 4× the 0.49 ms/round the churn fallback
    /// measures on the 2-vCPU box (0.488 / 0.490 / 0.488 over three runs;
    /// 0.87–0.89 before the snapshot index), which leaves headroom for
    /// shared-runner noise while still catching an accidental return to
    /// per-receiver lists or to super-linear behaviour.
    const MEDIUM_MS_PER_ROUND_BUDGET_N5000: f64 = 2.0;

    /// The rebuilt medium, the cached-topology medium, and the naive
    /// resolver agree on these bench inputs (the exhaustive
    /// differential checks live in `tests/substrate_properties.rs`).
    #[test]
    fn medium_matches_reference_on_bench_inputs() {
        let cfg = radio();
        let intents = make_intents(300, 7);
        let slow = resolve_round_reference(
            0,
            &cfg,
            &intents,
            &mut AdversaryKind::None,
            &mut StdRng::seed_from_u64(1),
        );
        let mut medium = Medium::new(cfg);
        let mut soa = ReceptionBuffer::new();
        // Churn fallback, re-anchor, steady cache — in that order.
        for delta in [
            TopologyDelta::Rebuild,
            TopologyDelta::Unchanged,
            TopologyDelta::Unchanged,
        ] {
            medium.resolve_round_cached(
                0,
                &intents,
                delta,
                &mut AdversaryKind::None,
                &mut StdRng::seed_from_u64(1),
                &mut soa,
            );
            assert_eq!(soa, slow);
        }
    }

    /// CI regression guard (release smoke): the rebuilt medium must
    /// stay within the committed ms/round budget at n = 5000. Retries
    /// with more rounds before concluding a real regression.
    #[test]
    #[ignore = "wall-clock benchmark; CI runs it explicitly in release (metropolis smoke step)"]
    fn medium_ms_per_round_within_budget() {
        let mut failure = String::new();
        for (attempt, rounds) in [8u32, 16, 32].into_iter().enumerate() {
            let (medium_secs, _, _) = median_times(5000, rounds);
            let ms_per_round = medium_secs * 1000.0 / f64::from(rounds);
            if ms_per_round <= MEDIUM_MS_PER_ROUND_BUDGET_N5000 {
                eprintln!("medium at n=5000: {ms_per_round:.3} ms/round (budget {MEDIUM_MS_PER_ROUND_BUDGET_N5000})");
                return;
            }
            failure = format!(
                "attempt {attempt}: {ms_per_round:.3} ms/round over budget {MEDIUM_MS_PER_ROUND_BUDGET_N5000}"
            );
        }
        panic!("medium ms/round regression at n=5000; last: {failure}");
    }

    /// The acceptance shape: ≥5× over the reference path at n=2000,
    /// and medium runtime growing far slower than the naive path's
    /// quadratic-to-cubic trend.
    ///
    /// Wall-clock assertions are noise-sensitive on shared CI runners,
    /// so a failed attempt is re-measured with more rounds (which
    /// averages scheduler jitter away) before the test concludes the
    /// scaling is actually broken.
    #[test]
    #[ignore = "wall-clock benchmark; CI runs it explicitly in release (bench-smoke step)"]
    fn grid_medium_scales_near_linearly() {
        let mut failure = String::new();
        for (attempt, rounds) in [4u32, 8, 16].into_iter().enumerate() {
            let (medium_500, _, _) = median_times(500, rounds);
            let (medium_2000, _, reference_2000) = median_times(2000, rounds);

            let speedup = reference_2000 / medium_2000.max(f64::MIN_POSITIVE);
            // Growth exponent between n=500 and n=2000 (4x population):
            // ~1 for linear, 2 for quadratic, 3 for cubic. Allow
            // generous slack for timer noise while still excluding the
            // naive trend.
            let exponent = (medium_2000 / medium_500.max(f64::MIN_POSITIVE)).log2() / 2.0;
            if speedup >= 5.0 && exponent < 2.2 {
                return;
            }
            failure = format!(
                "attempt {attempt}: speedup {speedup:.1}x (want >=5x; medium \
                 {medium_2000:.4}s vs reference {reference_2000:.4}s), growth \
                 exponent {exponent:.2} (want <2.2; {medium_500:.4}s -> {medium_2000:.4}s)"
            );
        }
        panic!("grid medium failed the scaling shape on every attempt; last: {failure}");
    }
}
