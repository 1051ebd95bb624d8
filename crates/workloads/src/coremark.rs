//! A CoreMark-like benchmark workload (§IV-B mentions CoreMark among the
//! already-ported benchmark workloads).
//!
//! Like the real CoreMark it mixes linked-list manipulation, matrix
//! arithmetic, and a CRC, and self-checks its result.
//!
//! The reference output `refs/uartlog` is written from the golden
//! constant [`CHECKSUM`], not by running the program, so `marshal test`
//! checks the simulators against a value fixed outside them (and workload
//! setup runs no guest code). The constant was recorded from the program's
//! qemu, spike and rtl runs, which the `golden_checksum_matches_every_backend`
//! test re-checks. If you change [`coremark_source`] on purpose, run
//! `cargo test -p marshal-workloads coremark`, and put the checksum the
//! failure message reports into [`CHECKSUM`].

use crate::registry::write_if_changed;
use crate::runtime::compose_benchmark;

/// The workload spec.
pub const COREMARK_JSON: &str = r#"{
    "name": "coremark",
    "base": "br-base.json",
    "host-init": "build.ms",
    "overlay": "overlay",
    "command": "/bin/coremark",
    "outputs": ["/output"],
    "testing": { "refDir": "refs" }
}
"#;

/// The golden checksum `coremark` prints, and `refs/uartlog` holds.
pub const CHECKSUM: u64 = 1_979_398;

/// Host-init build script.
pub const BUILD_MS: &str = r#"#!mscript
print("coremark: building")
assemble("src/coremark.s", "overlay/bin/coremark")
"#;

/// The benchmark source.
pub fn coremark_source() -> String {
    compose_benchmark(
        "coremark",
        r#"
        .data
        .align  3
cm_list: .space 2048               # 128 list nodes x 16 bytes
cm_mat:  .space 512                # 8x8 u64 matrix
        .text
bench_main:
        # --- list phase: build and reverse a linked list repeatedly -----
        li      s2, 0              # checksum
        li      s3, 100            # list iterations
cm_list_iter:
        # build: node[i].next = node[i+1], value = i*i
        la      t0, cm_list
        li      t1, 0
        li      t2, 128
cm_build:
        addi    t3, t1, 1
        slli    t3, t3, 4
        la      t4, cm_list
        add     t3, t4, t3
        slli    t5, t1, 4
        add     t5, t4, t5
        addi    t6, t2, -1
        bne     t1, t6, cm_not_last
        li      t3, 0              # last node: null next
cm_not_last:
        sd      t3, 0(t5)
        mul     t6, t1, t1
        sd      t6, 8(t5)
        addi    t1, t1, 1
        bne     t1, t2, cm_build
        # walk and fold values
        la      t0, cm_list
cm_walk:
        ld      t1, 8(t0)
        add     s2, s2, t1
        ld      t0, 0(t0)
        bnez    t0, cm_walk
        addi    s3, s3, -1
        bnez    s3, cm_list_iter
        # --- matrix phase: 8x8 multiply-accumulate ----------------------
        la      t0, cm_mat
        li      t1, 64
        li      t2, 3
cm_mfill:
        sd      t2, 0(t0)
        addi    t0, t0, 8
        addi    t2, t2, 7
        addi    t1, t1, -1
        bnez    t1, cm_mfill
        li      s4, 40             # passes
cm_mpass:
        li      t1, 0              # row
cm_mrow:
        li      t2, 0              # col
cm_mcol:
        li      t3, 0              # k
        li      t4, 0              # acc
cm_mk:
        # acc += m[row][k] * m[k][col]
        slli    t5, t1, 3
        add     t5, t5, t3
        slli    t5, t5, 3
        la      t6, cm_mat
        add     t5, t6, t5
        ld      t5, 0(t5)
        slli    a1, t3, 3
        add     a1, a1, t2
        slli    a1, a1, 3
        add     a1, t6, a1
        ld      a1, 0(a1)
        mul     t5, t5, a1
        add     t4, t4, t5
        addi    t3, t3, 1
        li      a2, 8
        bne     t3, a2, cm_mk
        xor     s2, s2, t4
        addi    t2, t2, 1
        li      a2, 8
        bne     t2, a2, cm_mcol
        addi    t1, t1, 1
        li      a2, 8
        bne     t1, a2, cm_mrow
        addi    s4, s4, -1
        bnez    s4, cm_mpass
        # --- crc phase ---------------------------------------------------
        li      t0, 16
        mv      t1, s2
cm_crc:
        andi    t2, t1, 1
        srli    t1, t1, 1
        beqz    t2, cm_crc_next
        li      t3, 0x8408
        xor     t1, t1, t3
cm_crc_next:
        addi    t0, t0, -1
        bnez    t0, cm_crc
        # fold to a small stable checksum
        xor     a0, s2, t1
        slli    a0, a0, 40
        srli    a0, a0, 40
        ret
"#,
    )
}

/// Writes the coremark workload directory.
///
/// # Errors
///
/// I/O failures.
pub fn materialize(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir.join("src"))?;
    std::fs::create_dir_all(dir.join("overlay/bin"))?;
    std::fs::create_dir_all(dir.join("refs"))?;
    write_if_changed(&dir.join("coremark.json"), COREMARK_JSON)?;
    write_if_changed(&dir.join("build.ms"), BUILD_MS)?;
    write_if_changed(&dir.join("src/coremark.s"), coremark_source())?;
    write_if_changed(&dir.join("refs/uartlog"), reference_uartlog())?;
    Ok(())
}

/// The reference output (the stable checksum line).
pub fn reference_uartlog() -> String {
    format!("coremark checksum: {CHECKSUM}\n")
}

/// The benchmark's checksum, computed by running it on the qemu profile.
/// The tests compare it against [`CHECKSUM`].
pub fn known_checksum() -> u64 {
    crate::runtime::run_checksum("coremark", &coremark_source())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_checksum_matches_every_backend() {
        crate::runtime::assert_golden_checksum("coremark", &coremark_source(), CHECKSUM);
    }

    #[test]
    fn coremark_self_checks() {
        let a = known_checksum();
        let b = known_checksum();
        assert_eq!(a, b, "checksum must be deterministic");
        assert!(a > 0);
    }

    #[test]
    fn spec_parses() {
        let (spec, w) =
            marshal_config::WorkloadSpec::parse_str(COREMARK_JSON, "coremark.json").unwrap();
        assert!(w.is_empty());
        assert_eq!(spec.command.as_deref(), Some("/bin/coremark"));
        assert_eq!(spec.testing.unwrap().ref_dir.as_deref(), Some("refs"));
    }
}
