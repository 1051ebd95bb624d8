//! The functional simulator front-end: one implementation serving both the
//! QEMU-like and the Spike-like simulator.
//!
//! The two differ only in their [`SimKind`] profile, which names the stock
//! binary and the serial banner (and, through it, the modelled guest
//! speed). Workloads can point either at a *custom* build (the `qemu` /
//! `spike` options) — the PFA case study used a modified Spike carrying a
//! golden model of the accelerator. Custom binaries are identified by name
//! and contribute feature tags ([`feature_tags`]: `pfa-spike` → `pfa`).

use marshal_firmware::BootBinary;
use marshal_image::FsImage;

use crate::boot::{simulate_bare, simulate_linux};
use crate::checkpoint::BootSnapshot;
use crate::guest::FunctionalExecutor;
use crate::machine::{LaunchMode, SimConfig, SimError, SimKind, SimResult};

/// Name segments every simulator binary shares; they carry no feature.
const GENERIC_WORDS: [&str; 4] = ["qemu", "system", "riscv64", "spike"];

/// The feature tags a simulator binary's name declares: every `-`/`_`
/// segment other than the generic `qemu`/`system`/`riscv64`/`spike` words.
///
/// ```rust
/// use marshal_sim_functional::functional::feature_tags;
/// assert_eq!(feature_tags("pfa-nic-spike"), ["pfa", "nic"]);
/// assert!(feature_tags("qemu-system-riscv64").is_empty());
/// ```
pub fn feature_tags(binary: &str) -> Vec<String> {
    binary
        .split(['-', '_'])
        .filter(|part| !part.is_empty() && !GENERIC_WORDS.contains(part))
        .map(str::to_owned)
        .collect()
}

/// A functional simulator: the QEMU-like full-system simulator or the
/// Spike-like ISA simulator, selected by its [`SimKind`] profile.
///
/// ```rust
/// use marshal_sim_functional::{Functional, SimKind};
/// let spike = Functional::with_binary(SimKind::Spike, "pfa-spike");
/// assert!(spike.config().has_feature("pfa"));
/// assert_eq!(Functional::new(SimKind::Qemu).binary(), "qemu-system-riscv64");
/// ```
#[derive(Debug, Clone)]
pub struct Functional {
    config: SimConfig,
    binary: String,
}

impl Functional {
    /// The stock simulator of a profile (`qemu-system-riscv64` or `spike`).
    pub fn new(profile: SimKind) -> Functional {
        Functional::with_binary(profile, profile.name())
    }

    /// A custom build of a profile's simulator (the workload's `qemu` or
    /// `spike` option). The binary's [`feature_tags`] become the
    /// configuration's features.
    pub fn with_binary(profile: SimKind, name: &str) -> Functional {
        let mut config = SimConfig::new(profile);
        config.features = feature_tags(name);
        if !config.features.is_empty() {
            config.extra_args.push(format!("(custom binary: {name})"));
        }
        Functional {
            config,
            binary: name.to_owned(),
        }
    }

    /// Adds extra arguments (the workload's `qemu-args` / `spike-args`).
    pub fn with_args(mut self, args: &[String]) -> Functional {
        self.config.extra_args.extend(args.iter().cloned());
        self
    }

    /// Overrides the instruction budget.
    pub fn with_budget(mut self, max_instructions: u64) -> Functional {
        self.config.max_instructions = max_instructions;
        self
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The binary name this instance models.
    pub fn binary(&self) -> &str {
        &self.binary
    }

    /// Boots a Linux workload, resuming from `resume` when given, and
    /// returns the boot snapshot captured on an eligible cold run.
    ///
    /// # Errors
    ///
    /// See [`simulate_linux`].
    pub fn launch(
        &self,
        boot: &BootBinary,
        disk: Option<&FsImage>,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimResult, Option<BootSnapshot>), SimError> {
        let mut exec = FunctionalExecutor;
        simulate_linux(&self.config, boot, disk, mode, &mut exec, resume)
    }

    /// Runs a bare-metal binary.
    ///
    /// # Errors
    ///
    /// See [`simulate_bare`].
    pub fn launch_bare(&self, bin: &[u8]) -> Result<SimResult, SimError> {
        simulate_bare(&self.config, bin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_names_map_to_feature_tags_on_both_profiles() {
        let table: [(&str, &[&str]); 6] = [
            ("qemu-system-riscv64", &[]),
            ("spike", &[]),
            ("pfa-spike", &["pfa"]),
            ("pfa-nic-spike", &["pfa", "nic"]),
            ("pfa-nic-qemu", &["pfa", "nic"]),
            ("pfa-qemu-system-riscv64", &["pfa"]),
        ];
        for profile in [SimKind::Qemu, SimKind::Spike] {
            for (binary, features) in table {
                let sim = Functional::with_binary(profile, binary);
                assert_eq!(sim.config().kind, profile);
                assert_eq!(sim.binary(), binary);
                assert_eq!(sim.config().features, features, "{profile:?} {binary}");
                // Only custom builds are called out in the banner.
                assert_eq!(sim.config().extra_args.is_empty(), features.is_empty());
            }
            let stock = Functional::new(profile);
            assert_eq!(stock.binary(), profile.name());
            assert!(stock.config().features.is_empty());
        }
    }

    #[test]
    fn builder_options() {
        let q = Functional::new(SimKind::Qemu)
            .with_args(&["-m".to_owned(), "16G".to_owned()])
            .with_budget(1234);
        assert_eq!(q.config().extra_args, vec!["-m", "16G"]);
        assert_eq!(q.config().max_instructions, 1234);
    }
}
