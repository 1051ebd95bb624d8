//! Golden timing: the cycle-exact backend's per-job counters for the
//! `intspeed` suite are pinned as in-tree constants (§IV-C, "repeatable
//! results down to an exact cycle-count"; Fig. 6).
//!
//! The other oracles compare one run against another, so a timing-model
//! change that shifts every run equally passes them. This table does not
//! move unless the modelled hardware's behaviour does.

mod common;

use marshal_core::install::{install_workload, run_installed};
use marshal_core::BuildOptions;
use marshal_sim_rtl::HardwareConfig;

/// One job on one configuration: `(config, job, instructions, cycles,
/// mispredicts, icache_misses, dcache_misses)`.
type Row = (&'static str, &'static str, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("rocket", "intspeed.600.perlbench_s", 607684, 706942, 162, 8, 8),
    ("rocket", "intspeed.602.gcc_s", 308558, 441545, 40011, 6, 130),
    ("rocket", "intspeed.605.mcf_s", 595074, 3065447, 11, 6, 60984),
    ("rocket", "intspeed.620.omnetpp_s", 3083018, 3332816, 61274, 9, 127),
    ("rocket", "intspeed.623.xalancbmk_s", 1367693, 1499887, 36886, 8, 66),
    ("rocket", "intspeed.625.x264_s", 1540713, 1933535, 42, 7, 130),
    ("rocket", "intspeed.631.deepsjeng_s", 957181, 1198253, 40682, 7, 15),
    ("rocket", "intspeed.641.leela_s", 1626755, 1983787, 36264, 8, 47),
    ("rocket", "intspeed.648.exchange2_s", 240403, 274671, 9378, 5, 2),
    ("rocket", "intspeed.657.xz_s", 868638, 950888, 11454, 8, 130),
    ("boom-gshare", "intspeed.600.perlbench_s", 607684, 858372, 197, 8, 8),
    ("boom-gshare", "intspeed.602.gcc_s", 308558, 323784, 44, 6, 130),
    ("boom-gshare", "intspeed.605.mcf_s", 595074, 1270202, 46, 6, 60984),
    ("boom-gshare", "intspeed.620.omnetpp_s", 3083018, 3510398, 31441, 9, 127),
    ("boom-gshare", "intspeed.623.xalancbmk_s", 1367693, 1815641, 35746, 8, 66),
    ("boom-gshare", "intspeed.625.x264_s", 1540713, 1809567, 79, 7, 130),
    ("boom-gshare", "intspeed.631.deepsjeng_s", 957181, 1081933, 3498, 7, 15),
    ("boom-gshare", "intspeed.641.leela_s", 1626755, 2243233, 37234, 8, 47),
    ("boom-gshare", "intspeed.648.exchange2_s", 240403, 335147, 7301, 5, 2),
    ("boom-gshare", "intspeed.657.xz_s", 868645, 1039815, 11092, 8, 130),
    ("boom-tage", "intspeed.600.perlbench_s", 607684, 858024, 168, 8, 8),
    ("boom-tage", "intspeed.602.gcc_s", 308558, 323460, 17, 6, 130),
    ("boom-tage", "intspeed.605.mcf_s", 595074, 1269818, 14, 6, 60984),
    ("boom-tage", "intspeed.620.omnetpp_s", 3083018, 3313394, 15024, 9, 127),
    ("boom-tage", "intspeed.623.xalancbmk_s", 1367693, 1750577, 30324, 8, 66),
    ("boom-tage", "intspeed.625.x264_s", 1540713, 1809195, 48, 7, 130),
    ("boom-tage", "intspeed.631.deepsjeng_s", 957181, 1044853, 408, 7, 15),
    ("boom-tage", "intspeed.641.leela_s", 1626755, 2208877, 34371, 8, 47),
    ("boom-tage", "intspeed.648.exchange2_s", 240403, 285743, 3184, 5, 2),
    ("boom-tage", "intspeed.657.xz_s", 868645, 1012227, 8793, 8, 130),
];

#[test]
fn intspeed_counters_match_the_golden_table() {
    let root = common::tmpdir("golden-timing");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("intspeed.json", &BuildOptions::default())
        .unwrap();
    let (manifest, _) = install_workload(&builder, &products).unwrap();

    let mut actual = Vec::new();
    for hw in [
        HardwareConfig::rocket(),
        HardwareConfig::boom_gshare(),
        HardwareConfig::boom_tage(),
    ] {
        for node in run_installed(&manifest, hw).unwrap() {
            let r = &node.report;
            actual.push((
                r.config_name.clone(),
                node.name.clone(),
                r.counters.instructions,
                r.counters.cycles,
                r.counters.mispredicts,
                r.icache.misses,
                r.dcache.misses,
            ));
        }
    }
    std::fs::remove_dir_all(root).unwrap();

    let expected: Vec<_> = GOLDEN
        .iter()
        .map(|&(c, j, i, cy, m, im, dm)| (c.to_owned(), j.to_owned(), i, cy, m, im, dm))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(c, j, i, cy, m, im, dm)| {
                format!("    ({c:?}, {j:?}, {i}, {cy}, {m}, {im}, {dm}),\n")
            })
            .collect();
        panic!(
            "the cycle-exact counters for intspeed.json moved.\n\
             If the timing model changed on purpose, regenerate the table by \
             replacing `GOLDEN` in tests/golden_timing.rs with the rows below \
             (printed by `cargo test --release --test golden_timing`), and say \
             in the change why every figure moved:\n\
             const GOLDEN: &[Row] = &[\n{table}];"
        );
    }
}
