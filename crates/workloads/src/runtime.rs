//! The shared guest assembly runtime.
//!
//! Every benchmark source is composed as `body + RUNTIME`: the body
//! defines `bench_main` (returning a checksum in `a0`); the runtime
//! provides `_start` (cycle measurement + result printing), `print_cstr`,
//! `print_u64`, and `exit`. The benchmark's stable output is its checksum
//! line; the `cycles=`/`instret=` lines are volatile across simulators and
//! stripped by `test`'s output cleaning.

/// The `_start` skeleton. Prepend a `NAME_STR` definition via
/// [`compose_benchmark`].
pub const RUNTIME: &str = r#"
# ---------------------------------------------------------------- runtime
        .text
        .global _start
_start:
        rdcycle s10
        call    bench_main
        mv      s0, a0             # checksum
        la      a0, __name_str
        call    print_cstr
        mv      a0, s0
        call    print_u64
        la      a0, __cyc_str
        call    print_cstr
        rdcycle s11
        sub     a0, s11, s10
        call    print_u64
        la      a0, __inst_str
        call    print_cstr
        rdinstret a0
        call    print_u64
        li      a0, 0
        li      a7, 93             # EXIT
        ecall

# print_cstr: print the NUL-terminated string at a0 (no newline)
print_cstr:
        mv      t0, a0
__pc_len:
        lbu     t1, 0(t0)
        beqz    t1, __pc_write
        addi    t0, t0, 1
        j       __pc_len
__pc_write:
        sub     a2, t0, a0         # length
        mv      a1, a0
        li      a0, 1              # stdout
        li      a7, 64             # WRITE
        ecall
        ret

# print_u64: print a0 in decimal followed by a newline
print_u64:
        addi    sp, sp, -48
        sd      ra, 40(sp)
        addi    t0, sp, 31        # write backwards from here
        li      t2, 10
        sb      t2, 0(t0)         # trailing newline (ASCII 10)
        li      t3, 1             # bytes written
__pu_loop:
        remu    t4, a0, t2
        divu    a0, a0, t2
        addi    t4, t4, 48        # '0'
        addi    t0, t0, -1
        sb      t4, 0(t0)
        addi    t3, t3, 1
        bnez    a0, __pu_loop
        mv      a1, t0
        mv      a2, t3
        li      a0, 1
        li      a7, 64
        ecall
        ld      ra, 40(sp)
        addi    sp, sp, 48
        ret
"#;

/// Composes a complete benchmark source: name labels + body + runtime.
///
/// The body must define `bench_main` (standard calling convention,
/// checksum returned in `a0`).
pub fn compose_benchmark(name: &str, body: &str) -> String {
    format!(
        r#"# benchmark: {name}
        .data
__name_str: .asciiz "{name} checksum: "
__cyc_str:  .asciiz "cycles="
__inst_str: .asciiz "instret="
{body}
{RUNTIME}
"#
    )
}

/// Assembles `source` (a [`compose_benchmark`] program named `name`), runs
/// it bare on the qemu profile, and returns the checksum it printed.
///
/// # Panics
///
/// If the program does not assemble, run, or print a numeric checksum line.
pub(crate) fn run_checksum(name: &str, source: &str) -> u64 {
    let exe = marshal_isa::asm::assemble(source, marshal_isa::abi::USER_BASE)
        .unwrap_or_else(|e| panic!("{name} assembles: {e}"));
    let result = marshal_sim_functional::Functional::new(marshal_sim_functional::SimKind::Qemu)
        .launch_bare(&exe.to_bytes())
        .unwrap_or_else(|e| panic!("{name} runs: {e}"));
    let prefix = format!("{name} checksum: ");
    let line = result
        .serial
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("{name} prints a checksum line: {}", result.serial));
    line.trim().parse().expect("numeric checksum")
}

/// The golden-reference oracle: `source` printed `golden` as its checksum
/// on qemu, spike and rtl alike.
#[cfg(test)]
pub(crate) fn assert_golden_checksum(name: &str, source: &str, golden: u64) {
    use marshal_sim_functional::{Functional, SimKind};
    use marshal_sim_rtl::{FireSim, HardwareConfig};

    let bin = marshal_isa::asm::assemble(source, marshal_isa::abi::USER_BASE)
        .expect("assemble")
        .to_bytes();
    let qemu = Functional::new(SimKind::Qemu).launch_bare(&bin).unwrap();
    let spike = Functional::new(SimKind::Spike).launch_bare(&bin).unwrap();
    let (rtl, _) = FireSim::new(HardwareConfig::rocket())
        .launch_bare(&bin)
        .unwrap();
    let want = format!("{name} checksum: {golden}\n");
    for (backend, serial) in [
        ("qemu", &qemu.serial),
        ("spike", &spike.serial),
        ("rtl", &rtl.serial),
    ] {
        assert!(
            serial.contains(&want),
            "{name} on {backend} did not print `{}`; update `CHECKSUM` if you \
             changed the program source on purpose.\nserial: {serial}",
            want.trim_end()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
    use marshal_sim_functional::{Functional, SimKind};

    #[test]
    fn runtime_prints_checksum_and_counters() {
        let src = compose_benchmark(
            "smoke",
            r#"
        .text
bench_main:
        li      a0, 424242
        ret
"#,
        );
        let exe = assemble(&src, abi::USER_BASE).expect("assemble runtime");
        let result = Functional::new(SimKind::Qemu)
            .launch_bare(&exe.to_bytes())
            .unwrap();
        assert!(
            result.serial.contains("smoke checksum: 424242"),
            "serial: {}",
            result.serial
        );
        assert!(result.serial.contains("cycles="));
        assert!(result.serial.contains("instret="));
        assert_eq!(result.exit_code, 0);
    }

    #[test]
    fn print_u64_handles_zero_and_large() {
        let src = compose_benchmark(
            "zero",
            r#"
        .text
bench_main:
        li      a0, 0
        ret
"#,
        );
        let exe = assemble(&src, abi::USER_BASE).unwrap();
        let result = Functional::new(SimKind::Qemu)
            .launch_bare(&exe.to_bytes())
            .unwrap();
        assert!(result.serial.contains("zero checksum: 0\n"));
    }
}
