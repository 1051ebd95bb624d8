//! The FireSim-like top-level driver.
//!
//! Runs FireMarshal workloads cycle-exactly: the same boot model and the
//! same guest binaries as the functional simulators, with a
//! [`Pipeline`] timing every retired instruction.
//!
//! Neither timed path has a step loop of its own. Linux jobs (through
//! [`TimedExecutor`]) and bare-metal nodes ([`FireSim::launch_bare`]) run
//! on [`UserRunner::run_observed`], the loop the functional simulators
//! use, and charge the pipeline from its observer. Budget exhaustion
//! therefore means the same thing on every backend.

use marshal_firmware::BootBinary;
use marshal_image::FsImage;
use marshal_isa::interp::{Cpu, RetireKind};
use marshal_isa::MexeFile;
use marshal_sim_functional::boot::simulate_linux;
use marshal_sim_functional::checkpoint::BootSnapshot;
use marshal_sim_functional::guest::{Executor, GuestOs};
use marshal_sim_functional::machine::{
    LaunchMode, SimConfig, SimError, SimKind, SimResult, WATCHDOG_EXIT_CODE,
};
use marshal_sim_functional::syscall::{OsServices, UserBus, UserRunner, UserStep};

use crate::cache::CacheStats;
use crate::config::HardwareConfig;
use crate::pfa::PfaStats;
use crate::pipeline::{PerfCounters, Pipeline};

/// The performance report of one simulated node.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Hardware configuration name.
    pub config_name: String,
    /// Branch predictor name.
    pub bpred: &'static str,
    /// Performance counters.
    pub counters: PerfCounters,
    /// I-cache statistics.
    pub icache: CacheStats,
    /// D-cache statistics.
    pub dcache: CacheStats,
    /// Unified L2 statistics (when the configuration has an L2).
    pub l2: Option<CacheStats>,
    /// Remote-memory statistics (PFA case study).
    pub pfa: Option<PfaStats>,
    /// Clock frequency in MHz.
    pub freq_mhz: u64,
}

impl PerfReport {
    /// Total simulated seconds (RealTime in the paper's CSVs).
    pub fn real_time_secs(&self) -> f64 {
        self.counters.cycles as f64 / (self.freq_mhz as f64 * 1e6)
    }

    /// User-mode seconds (UserTime).
    pub fn user_time_secs(&self) -> f64 {
        self.counters.user_cycles as f64 / (self.freq_mhz as f64 * 1e6)
    }

    /// Kernel-mode seconds (KernelTime).
    pub fn kernel_time_secs(&self) -> f64 {
        self.counters.kernel_cycles as f64 / (self.freq_mhz as f64 * 1e6)
    }

    /// A human-readable multi-line summary.
    pub fn summary(&self) -> String {
        format!(
            "config={} bpred={} cycles={} insts={} ipc={:.3} branch-acc={:.4} icache-miss={:.4} dcache-miss={:.4}",
            self.config_name,
            self.bpred,
            self.counters.cycles,
            self.counters.instructions,
            self.counters.ipc(),
            self.counters.branch_accuracy(),
            self.icache.miss_rate(),
            self.dcache.miss_rate(),
        )
    }
}

/// The run-loop observer that times a user program: charges each retired
/// instruction or serviced syscall to `pipeline`, then writes the modelled
/// cycle count back so the next `rdcycle` reads simulated time.
///
/// `remote` says whether loads and stores in the guest's `mmap_remote`
/// window are charged to the remote-memory model; bare-metal nodes are
/// timed as local-only.
fn timing_observer(
    pipeline: &mut Pipeline,
    remote: bool,
) -> impl FnMut(&mut Cpu, &UserBus, &UserStep) + '_ {
    move |cpu, bus, step| {
        match step {
            UserStep::Retired(r) => {
                let is_remote = remote
                    && match r.kind {
                        RetireKind::Load { addr } | RetireKind::Store { addr } => {
                            bus.is_remote(addr)
                        }
                        _ => false,
                    };
                pipeline.retire(r, is_remote);
            }
            UserStep::Syscall { sys } => {
                pipeline.syscall(*sys);
            }
            UserStep::Exited(_) => {}
        }
        cpu.cycle = pipeline.counters().cycles;
    }
}

/// The timing executor: runs user programs and charges the pipeline.
pub struct TimedExecutor {
    pipeline: Pipeline,
}

impl TimedExecutor {
    /// Builds the executor for a hardware configuration.
    pub fn new(hw: &HardwareConfig) -> TimedExecutor {
        TimedExecutor {
            pipeline: Pipeline::new(hw),
        }
    }

    /// The pipeline (for reports).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }
}

impl Executor for TimedExecutor {
    fn exec(
        &mut self,
        exe: &MexeFile,
        args: &[String],
        os: &mut GuestOs,
    ) -> Result<(i64, u64), SimError> {
        let budget = os.remaining_budget()?;
        let mut runner = UserRunner::new(exe, args)?;
        let start_cycles = self.pipeline.counters().cycles;
        // rdcycle observes modelled time from the first instruction on.
        runner.cpu.cycle = start_cycles;
        let run = runner.run_observed(os, budget, timing_observer(&mut self.pipeline, true));
        let cycles = self.pipeline.counters().cycles - start_cycles;
        match run {
            Ok((code, insts)) => {
                os.account(insts, cycles);
                Ok((code, insts))
            }
            Err(e @ SimError::Budget { .. }) => {
                // Account the consumed budget so `remaining_budget()`
                // reports exhaustion — the boot-flow watchdog relies on
                // this to recognise a hung guest (see FunctionalExecutor).
                os.account(budget, cycles);
                Err(e)
            }
            Err(e) => Err(e),
        }
    }
}

/// The cycle-exact simulator.
///
/// ```rust
/// use marshal_sim_rtl::{FireSim, HardwareConfig};
/// let sim = FireSim::new(HardwareConfig::boom_tage());
/// assert_eq!(sim.hardware().name, "boom-tage");
/// ```
#[derive(Debug, Clone)]
pub struct FireSim {
    hw: HardwareConfig,
    max_instructions: u64,
}

impl FireSim {
    /// Creates a simulator for a hardware configuration.
    pub fn new(hw: HardwareConfig) -> FireSim {
        FireSim {
            hw,
            max_instructions: 2_000_000_000,
        }
    }

    /// Overrides the instruction budget.
    pub fn with_budget(mut self, max_instructions: u64) -> FireSim {
        self.max_instructions = max_instructions;
        self
    }

    /// The hardware configuration.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// The simulator configuration this instance boots with (derived from
    /// the hardware configuration and instruction budget).
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(SimKind::CycleExact);
        cfg.max_instructions = self.max_instructions;
        cfg.extra_args.push(format!("+config={}", self.hw.name));
        cfg
    }

    fn report(&self, p: &Pipeline) -> PerfReport {
        PerfReport {
            config_name: self.hw.name.clone(),
            bpred: p.bpred_name(),
            counters: *p.counters(),
            icache: p.icache_stats(),
            dcache: p.dcache_stats(),
            l2: p.l2_stats(),
            pfa: p.pfa_stats(),
            freq_mhz: self.hw.freq_mhz,
        }
    }

    /// Boots a Linux workload cycle-exactly, resuming from `resume` when
    /// given, and returns the boot snapshot captured on an eligible cold
    /// run.
    ///
    /// Restoring is cycle-exact because snapshots are only captured when
    /// the boot retired zero user instructions — the pipeline is cold at
    /// the seam either way (see [`simulate_linux`]).
    ///
    /// # Errors
    ///
    /// Same conditions as the functional simulators.
    pub fn launch(
        &self,
        boot: &BootBinary,
        disk: Option<&FsImage>,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimResult, PerfReport, Option<BootSnapshot>), SimError> {
        let cfg = self.sim_config();
        let mut exec = TimedExecutor::new(&self.hw);
        let (result, captured) = simulate_linux(&cfg, boot, disk, mode, &mut exec, resume)?;
        Ok((result, self.report(exec.pipeline()), captured))
    }

    /// Runs a bare-metal binary cycle-exactly.
    ///
    /// # Errors
    ///
    /// [`SimError::BadArtifact`] for non-MEXE binaries, plus traps and
    /// budget exhaustion.
    pub fn launch_bare(&self, bin: &[u8]) -> Result<(SimResult, PerfReport), SimError> {
        struct BareOs {
            serial: String,
        }
        impl OsServices for BareOs {
            fn serial_write(&mut self, bytes: &[u8]) {
                self.serial.push_str(&String::from_utf8_lossy(bytes));
            }
            fn file_read(&mut self, _path: &str) -> Option<Vec<u8>> {
                None
            }
            fn file_write(&mut self, _path: &str, _data: &[u8]) -> bool {
                false
            }
        }
        if !MexeFile::sniff(bin) {
            return Err(SimError::BadArtifact(
                "bare-metal workload binary is not a MEXE image".to_owned(),
            ));
        }
        let exe = MexeFile::from_bytes(bin)
            .map_err(|e| SimError::BadArtifact(format!("bare-metal binary: {e}")))?;
        let mut os = BareOs {
            serial: format!("firesim: bare-metal node ({})\n", self.hw.name),
        };
        let mut pipeline = Pipeline::new(&self.hw);
        let mut runner = UserRunner::new(&exe, &[])?;
        runner.bus.enable_uart();
        let run = runner.run_observed(
            &mut os,
            self.max_instructions,
            timing_observer(&mut pipeline, false),
        );
        let (exit_code, timed_out) = match run {
            Ok((code, _)) => (code, false),
            // Watchdog: terminate the hung guest but salvage the serial
            // log and performance report gathered so far.
            Err(SimError::Budget { .. }) => (WATCHDOG_EXIT_CODE, true),
            Err(e) => return Err(e),
        };
        let instructions = runner.cpu.instret;
        let report = self.report(&pipeline);
        if timed_out {
            os.serial.push_str(&format!(
                "firesim: watchdog: instruction budget exhausted ({} instructions); \
                 terminating hung guest\n",
                self.max_instructions
            ));
        } else {
            os.serial.push_str(&format!(
                "firesim: exited with code {exit_code} after {} cycles\n",
                report.counters.cycles
            ));
        }
        Ok((
            SimResult {
                serial: os.serial,
                image: None,
                exit_code,
                instructions,
                timed_out,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_firmware::{build_firmware, link_boot_binary, FirmwareBuild};
    use marshal_image::{BootPayload, InitSystem};
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
    use marshal_linux::kconfig::KernelConfig;
    use marshal_linux::kernel::{build_kernel, KernelSource};
    use marshal_linux::InitramfsSpec;
    use marshal_sim_functional::Functional;

    fn boot_binary() -> BootBinary {
        let config = KernelConfig::riscv_defconfig();
        let src = KernelSource::default_source();
        let initramfs = InitramfsSpec::new().build(&config, &src).unwrap();
        let kernel = build_kernel(&src, &config, &initramfs).unwrap();
        let fw = build_firmware(&FirmwareBuild::default()).unwrap();
        link_boot_binary(&fw, &kernel).unwrap()
    }

    fn branchy_program() -> String {
        // A data-dependent branch pattern that separates predictors.
        r#"
        .data
result: .asciiz "done\n"
        .text
_start:
        li      t0, 0          # i
        li      t1, 20000      # iterations
        li      t2, 0          # acc
        li      t3, 0xACE      # lfsr state
loop:
        andi    t4, t3, 1      # pseudo-random bit
        beqz    t4, skip       # data-dependent branch
        addi    t2, t2, 1
skip:
        # 16-bit LFSR step: t3 = (t3 >> 1) ^ (lsb ? 0xB400 : 0)
        srli    t5, t3, 1
        beqz    t4, nofb
        li      t6, 0xB400
        xor     t5, t5, t6
nofb:
        mv      t3, t5
        addi    t0, t0, 1
        blt     t0, t1, loop
        li      a0, 1
        la      a1, result
        li      a2, 5
        li      a7, 64
        ecall
        li      a0, 0
        li      a7, 93
        ecall
"#
        .to_owned()
    }

    fn disk_with(prog_src: &str) -> FsImage {
        let mut img = FsImage::new();
        img.mkdir_p("/etc/init.d").unwrap();
        let exe = assemble(prog_src, abi::USER_BASE).unwrap();
        img.write_exec("/bin/bench", &exe.to_bytes()).unwrap();
        InitSystem::Initd
            .install_payload(&mut img, &BootPayload::Command("/bin/bench".into()))
            .unwrap();
        img
    }

    #[test]
    fn cycle_exact_repeatability() {
        // §IV-C: "repeatable results down to an exact cycle-count".
        let sim = FireSim::new(HardwareConfig::boom_tage());
        let boot = boot_binary();
        let disk = disk_with(&branchy_program());
        let (r1, p1, _) = sim
            .launch(&boot, Some(&disk), LaunchMode::Run, None)
            .unwrap();
        let (r2, p2, _) = sim
            .launch(&boot, Some(&disk), LaunchMode::Run, None)
            .unwrap();
        assert_eq!(p1.counters.cycles, p2.counters.cycles);
        assert_eq!(r1.serial, r2.serial);
    }

    #[test]
    fn same_binary_same_instruction_count_as_functional() {
        // The portability guarantee: identical artifacts retire identical
        // instruction streams on functional and cycle-exact simulation.
        let boot = boot_binary();
        let disk = disk_with(&branchy_program());
        let qemu = Functional::new(SimKind::Qemu);
        let (functional, _) = qemu
            .launch(&boot, Some(&disk), LaunchMode::Run, None)
            .unwrap();
        let sim = FireSim::new(HardwareConfig::rocket());
        let (timed, _, _) = sim
            .launch(&boot, Some(&disk), LaunchMode::Run, None)
            .unwrap();
        assert_eq!(functional.instructions, timed.instructions);
        assert_eq!(functional.exit_code, timed.exit_code);
        assert!(timed.serial.contains("done"));
    }

    #[test]
    fn tage_beats_gshare_on_branchy_code() {
        let boot = boot_binary();
        let disk = disk_with(&branchy_program());
        let (_, gshare, _) = FireSim::new(HardwareConfig::boom_gshare())
            .launch(&boot, Some(&disk), LaunchMode::Run, None)
            .unwrap();
        let (_, tage, _) = FireSim::new(HardwareConfig::boom_tage())
            .launch(&boot, Some(&disk), LaunchMode::Run, None)
            .unwrap();
        assert_eq!(
            gshare.counters.instructions, tage.counters.instructions,
            "identical instruction streams"
        );
        assert!(
            tage.counters.mispredicts < gshare.counters.mispredicts,
            "tage {} vs gshare {} mispredicts",
            tage.counters.mispredicts,
            gshare.counters.mispredicts
        );
        assert!(tage.counters.cycles < gshare.counters.cycles);
    }

    #[test]
    fn bare_metal_timed() {
        let exe = assemble(
            "_start:\n li t0, 100\nl: addi t0, t0, -1\n bnez t0, l\n li a0, 0\n li a7, 93\n ecall\n",
            abi::USER_BASE,
        )
        .unwrap();
        let sim = FireSim::new(HardwareConfig::rocket());
        let (result, report) = sim.launch_bare(&exe.to_bytes()).unwrap();
        assert_eq!(result.exit_code, 0);
        assert!(report.counters.cycles >= report.counters.instructions);
        assert!(result.serial.contains("cycles"));
    }

    #[test]
    fn bare_metal_watchdog_salvages_serial_and_counters() {
        let exe = assemble("_start:\n j _start\n", abi::USER_BASE).unwrap();
        let sim = FireSim::new(HardwareConfig::rocket()).with_budget(1000);
        let (result, report) = sim.launch_bare(&exe.to_bytes()).unwrap();
        assert_eq!(result.exit_code, WATCHDOG_EXIT_CODE);
        assert!(result.timed_out);
        // The budget check runs before each step, so the instruction that
        // crosses the budget retires (and is timed) before the watchdog fires.
        assert_eq!(result.instructions, 1001);
        assert_eq!(report.counters.instructions, 1001);
        assert_eq!(
            result.serial,
            "firesim: bare-metal node (rocket)\n\
             firesim: watchdog: instruction budget exhausted (1000 instructions); \
             terminating hung guest\n"
        );
    }

    #[test]
    fn rdcycle_sees_modelled_time() {
        // A program that reads rdcycle twice around a delay loop and exits
        // with the delta scaled down; the delta must exceed the instruction
        // count (stalls included) on a never-taken predictor.
        let src = r#"
_start:
        rdcycle t0
        li      t1, 1000
l:      addi    t1, t1, -1
        bnez    t1, l
        rdcycle t2
        sub     a0, t2, t0
        srli    a0, a0, 6      # scale into exit-code range
        li      a7, 93
        ecall
"#;
        let exe = assemble(src, abi::USER_BASE).unwrap();
        let hw = HardwareConfig::rocket().with_bpred(crate::config::BpredConfig::NeverTaken);
        let (result, _) = FireSim::new(hw).launch_bare(&exe.to_bytes()).unwrap();
        // 2000 loop instructions + ~999 mispredicts * 3 = ~5000 cycles; /64 ≈ 78.
        assert!(
            result.exit_code > 2000 / 64,
            "cycle delta should exceed instruction count: {}",
            result.exit_code
        );
    }

    #[test]
    fn report_time_split() {
        let boot = boot_binary();
        let disk = disk_with(&branchy_program());
        let sim = FireSim::new(HardwareConfig::rocket());
        let (_, report, _) = sim
            .launch(&boot, Some(&disk), LaunchMode::Run, None)
            .unwrap();
        assert!(
            report.counters.kernel_cycles > 0,
            "syscalls cost kernel time"
        );
        assert!(report.counters.user_cycles > report.counters.kernel_cycles);
        assert!(report.real_time_secs() > 0.0);
        assert!(
            (report.real_time_secs() - report.user_time_secs() - report.kernel_time_secs()).abs()
                < 1e-12
        );
        assert!(report.summary().contains("bpred="));
    }
}
