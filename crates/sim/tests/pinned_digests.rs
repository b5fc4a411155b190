//! The digest contract: the literal campaign fingerprints recorded in
//! `BENCH_campaign.json` must reproduce bit for bit, both on the product
//! path (a warm per-cell campaign on the timer wheel) and on the
//! per-session oracle (fresh worlds on the reference heap scheduler).
//! Any change to a simulated trajectory, a metric, or the fingerprint
//! encoding moves at least one of these digests.

mod common;

use laqa_sim::{run_campaign_opts, CampaignOptions, CampaignSpec, TestKind, TraceKind, Transport};

/// Assert `spec` fingerprints to `want` on both paths.
fn assert_digest(spec: &CampaignSpec, want: u64, what: &str) {
    let product = run_campaign_opts(spec, CampaignOptions::new(1)).fingerprint();
    assert_eq!(
        product, want,
        "{what}: product path {product:016x} != pinned {want:016x}"
    );
    let oracle = common::oracle(spec).fingerprint();
    assert_eq!(
        oracle, want,
        "{what}: oracle {oracle:016x} != pinned {want:016x}"
    );
}

/// The 2-session T1 × k2 grid the interop and hostile digests run on.
fn pair_grid() -> CampaignSpec {
    CampaignSpec::grid(&[TestKind::T1], &[2], &[7, 21], 8.0)
}

#[test]
fn executor_fingerprint_fp0_is_pinned() {
    let seeds = [7, 21, 35, 49, 63, 77, 91, 105];
    let spec = CampaignSpec::grid(&[TestKind::T1], &[2, 4], &seeds, 8.0);
    assert_digest(&spec, 0xf4a4_0c57_8d4c_39c8, "fp0");
}

#[test]
fn interop_fingerprints_are_pinned() {
    let pinned = [
        (Transport::Rap, 0xb89d_8b99_0c73_b861),
        (Transport::Bbr, 0x0437_deb8_c295_653b),
        (Transport::Nada, 0x9ae4_95b6_5bad_265d),
        (Transport::Tcp, 0x47dd_5aaa_0e7d_cc11),
    ];
    for (transport, want) in pinned {
        let mut spec = pair_grid();
        for s in &mut spec.sessions {
            s.transport = transport;
        }
        assert_digest(&spec, want, transport.label());
    }
}

#[test]
fn hostile_fingerprints_are_pinned() {
    let pinned = [
        (TraceKind::Lte, 0xeaf2_2ef9_d9a0_92a6),
        (TraceKind::Bloat, 0xa411_6560_e56d_4593),
        (TraceKind::Diurnal, 0x357c_3dca_3dd9_51e8),
        (TraceKind::Bonded, 0x4601_75e6_970a_4a9b),
    ];
    for (trace, want) in pinned {
        let mut spec = pair_grid();
        for s in &mut spec.sessions {
            s.trace = Some(trace);
        }
        assert_digest(&spec, want, trace.label());
    }
}
