//! Smoke tests for every experiment driver: each one must run at the quick
//! scale and produce results with the qualitative shape the paper reports.
//! (The full-scale numbers are produced by the `bench` binaries.)

use oram_sim::experiments::{
    fig3, fig5, fig6, fig7, fig9, hash_bandwidth, table2, table3, ExperimentScale,
};
use oram_sim::scheme::SchemePoint;

#[test]
fn figure3_posmap_share_grows_with_capacity_and_shrinks_with_block_size() {
    let fig = fig3::run();
    assert_eq!(fig.series.len(), 4);
    let at = |block: usize, pm: usize, log2: u32| {
        fig.series
            .iter()
            .find(|(s, _)| s.block_bytes == block && s.onchip_posmap_bytes == pm)
            .unwrap()
            .1
            .iter()
            .find(|p| p.log2_capacity == log2)
            .unwrap()
            .posmap_percent
    };
    // 4 GB, 64 B, 8 KB on-chip PosMap: roughly half the traffic is PosMap.
    let headline = at(64, 8 << 10, 32);
    assert!(headline > 40.0 && headline < 75.0, "{headline}");
    // Larger blocks spend relatively less on PosMap.
    assert!(at(128, 8 << 10, 32) < at(64, 8 << 10, 32));
    // The share grows with capacity.
    assert!(at(64, 8 << 10, 40) > at(64, 8 << 10, 30));
}

#[test]
fn table2_latency_scales_sublinearly_with_channels() {
    let t = table2::run(15);
    let by_channels = |c: usize| {
        t.rows
            .iter()
            .find(|r| r.channels == c)
            .unwrap()
            .tree_latency_cycles
    };
    assert!(by_channels(1) > by_channels(2));
    assert!(by_channels(2) > by_channels(4));
    assert!(by_channels(4) > by_channels(8));
    let scaling = by_channels(1) as f64 / by_channels(8) as f64;
    assert!(
        scaling < 8.0,
        "channel scaling must be sub-linear: {scaling}"
    );
}

#[test]
fn figure5_plb_capacity_never_hurts() {
    let fig = fig5::run(ExperimentScale::Quick);
    for row in &fig.rows {
        for (plb, runtime) in &row.normalised_runtime {
            assert!(
                *runtime <= 1.05,
                "{:?} at {plb} bytes: normalised runtime {runtime}",
                row.benchmark
            );
        }
    }
}

#[test]
fn figure6_headline_claims_hold_qualitatively() {
    let fig = fig6::run(ExperimentScale::Quick);
    // PC_X32 beats the baseline; integrity is cheap.
    assert!(fig.pc_speedup_over_baseline() > 1.05);
    assert!(fig.integrity_overhead() < 0.35);
    // All slowdowns are > 1 (ORAM is never free).
    for row in &fig.rows {
        for (_, s) in &row.slowdowns {
            assert!(*s > 1.0);
        }
    }
}

#[test]
fn figure7_posmap_traffic_shrinks_under_plb_designs() {
    // Run a single-capacity quick variant through the public API.
    let fig = fig7::run(ExperimentScale::Quick);
    for &capacity in fig7::CAPACITIES.iter() {
        let posmap_reduction = fig.posmap_reduction(capacity).unwrap();
        assert!(
            posmap_reduction > 0.5,
            "at {capacity} bytes, reduction {posmap_reduction}"
        );
        // Baseline PosMap traffic grows with capacity; PLB designs stay
        // comparatively flat.
        let base = fig.bar(SchemePoint::RX8, capacity).unwrap();
        let pc = fig.bar(SchemePoint::PcX32, capacity).unwrap();
        assert!(base.posmap_bytes_per_access > pc.posmap_bytes_per_access);
    }
}

#[test]
fn figure9_pc_x32_beats_phantom_parameterisation() {
    let fig = fig9::run(ExperimentScale::Quick);
    assert!(fig.geomean_speedup > 3.0, "{}", fig.geomean_speedup);
}

#[test]
fn table3_area_claims() {
    let t = table3::run();
    // PMMAC ≤ 13% of design area, PLB ≈ 10%, frontend share shrinks with
    // channels, no-recursion alternative is >10x.
    for b in &t.breakdowns {
        assert!(b.pmmac_fraction() < 0.14);
        assert!(b.plb_fraction() < 0.12);
    }
    assert!(t.breakdowns[0].frontend_fraction() > t.breakdowns[2].frontend_fraction());
    assert!(t.flat_posmap_mm2 / t.breakdowns[1].total_mm2 > 10.0);
}

#[test]
fn hash_bandwidth_reduction_matches_paper_analytics() {
    let r = hash_bandwidth::run(150);
    let l16 = r.analytic.iter().find(|x| x.leaf_level == 16).unwrap();
    let l32 = r.analytic.iter().find(|x| x.leaf_level == 32).unwrap();
    assert_eq!(l16.merkle_blocks_hashed, 68);
    assert_eq!(l32.merkle_blocks_hashed, 132);
    assert!(r.measured_reduction > 10.0);
}

#[test]
fn experiment_renders_are_nonempty_and_mention_schemes() {
    assert!(fig3::run().render().contains("b64_pm8"));
    assert!(table3::run().render().contains("PMMAC"));
    let f6 = fig6::run(ExperimentScale::Quick).render();
    assert!(f6.contains("R_X8") && f6.contains("PIC_X32"));
}
