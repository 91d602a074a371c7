//! Generated instances, pinned bit for bit.
//!
//! Every result the suite reports is computed on instances that
//! `WorkloadSpec::generate` and the structured-kernel generators expand
//! from a seed, so a change to either generator, to the keystream or to
//! `HcSystem`'s construction must keep every bit of `E`, of `Tr` and of
//! the edge list. The hashes were captured while the generators computed
//! each transfer time as one whole product per matrix entry and
//! `next_u64` was two `next_u32` calls.

use mshc::prelude::*;
use mshc::workloads::small_suite;

/// FNV-1a over the little-endian bytes of a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The shape and the bits of every entry, row-major.
fn matrix_hash(m: &Matrix) -> u64 {
    let shape = [m.rows() as u64, m.cols() as u64];
    fnv(shape.into_iter().chain(m.as_slice().iter().map(|v| v.to_bits())))
}

/// The task count and every edge's `(data id, source, destination)`.
fn edges_hash(g: &TaskGraph) -> u64 {
    let edges = g.edges().iter().flat_map(|e| [e.id.raw(), e.src.raw(), e.dst.raw()]);
    fnv(std::iter::once(g.task_count() as u64).chain(edges.map(u64::from)))
}

/// `(E, Tr, edges)` hashes of one instance.
fn hashes(inst: &HcInstance) -> [u64; 3] {
    let sys = inst.system();
    [matrix_hash(sys.exec_matrix()), matrix_hash(sys.transfer_matrix()), edges_hash(inst.graph())]
}

#[test]
fn workload_specs_generate_the_pinned_instances() {
    let large = WorkloadSpec::large(7);
    let wide = WorkloadSpec { tasks: 300, machines: 16, ..large };
    assert_eq!(
        hashes(&large.generate()),
        [0x071f_eacd_808a_93ea, 0x1bbd_9485_07a7_2303, 0x73c5_2f84_8cc9_e6af],
        "100x20"
    );
    assert_eq!(
        hashes(&wide.generate()),
        [0x0739_f03c_9801_51a7, 0x349f_6d16_82d9_1def, 0x2e35_ddcb_9d41_eaa9],
        "300x16"
    );
}

#[test]
fn small_suite_scenarios_generate_the_pinned_instances() {
    // Layered scenarios come from `WorkloadSpec::generate`, the kernels
    // from the structured generator. Scenarios with the same task count
    // draw the same `E` from the same seed.
    let golden: [(&str, [u64; 3]); 8] = [
        (
            "lay30_cmedium_l8_hhigh_ccr0.1",
            [0xb5f7_2f2f_41fc_488b, 0x2680_d654_bbfe_84bb, 0xdc32_ed3d_6a48_a9d0],
        ),
        (
            "fft3_l8_hhigh_ccr0.1",
            [0xfaa4_e12e_2869_3b5b, 0x2f18_1ff9_2419_5edd, 0x338a_72d2_c7ce_13a5],
        ),
        (
            "gauss6_l8_hhigh_ccr0.1",
            [0x06f2_d730_4f8b_6bca, 0xd984_ecc4_e375_e5e6, 0x234f_8047_da70_ae46],
        ),
        (
            "sten4x5_l8_hhigh_ccr0.1",
            [0x06f2_d730_4f8b_6bca, 0x7d5f_e309_2d8b_02ac, 0x9366_33a7_79f1_3455],
        ),
        (
            "lay30_cmedium_l8_hhigh_ccr1",
            [0xb5f7_2f2f_41fc_488b, 0x7727_0677_2795_702a, 0xdc32_ed3d_6a48_a9d0],
        ),
        (
            "fft3_l8_hhigh_ccr1",
            [0xfaa4_e12e_2869_3b5b, 0x3d7a_dd64_23ad_5ccd, 0x338a_72d2_c7ce_13a5],
        ),
        (
            "gauss6_l8_hhigh_ccr1",
            [0x06f2_d730_4f8b_6bca, 0xc63d_a9c7_92eb_8b20, 0x234f_8047_da70_ae46],
        ),
        (
            "sten4x5_l8_hhigh_ccr1",
            [0x06f2_d730_4f8b_6bca, 0x7c84_7fcd_cda7_932d, 0x9366_33a7_79f1_3455],
        ),
    ];
    let suite = small_suite();
    assert_eq!(suite.len(), golden.len());
    for (scenario, (tag, want)) in suite.iter().zip(golden) {
        assert_eq!(scenario.tag(), tag);
        assert_eq!(hashes(&scenario.generate(7)), want, "{tag}");
    }
}
