//! The unified simulator backend registry.
//!
//! §III-C/E's portability claim — "the exact same artifacts are run on
//! both simulators" — deserves one abstraction, not dispatch scattered
//! across `launch`, `build` (guest-init), `install`, and `test`. Every
//! backend implements [`Simulator`]: a registry name, the log prefixes
//! its banner lines carry (so output canonicalization never falls out of
//! sync with the backend list), its feature tags (e.g. `pfa` from a
//! custom `pfa-spike` binary), and one entry point,
//! [`Simulator::run_resumed`], taking the same loaded artifacts regardless
//! of backend. A cold run and a run restored from a boot checkpoint go
//! through that same method; `resume` is the only difference.
//!
//! The registry mirrors [`crate::connector`]: [`simulator_for`] resolves
//! a name (with aliases) to a boxed backend, [`simulator_names`] lists
//! the canonical names for CLI diagnostics. `launch --sim <backend>`
//! routes through here, and [`crate::cosim`] runs two backends in
//! lockstep over identical artifacts to diff their behaviour.

use marshal_config::WorkloadSpec;
use marshal_depgraph::{Fingerprint, Hasher128};
use marshal_sim_functional::{BootSnapshot, Functional, LaunchMode, SimConfig, SimKind, SimResult};
use marshal_sim_rtl::{FireSim, HardwareConfig, PerfReport};

use crate::error::MarshalError;
use crate::launch::LoadedJob;

/// The outcome of one backend run: the simulation result plus, for timed
/// backends, the performance report.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Serial log, final image, exit code, instruction count.
    pub result: SimResult,
    /// The cycle-exact performance report (`None` on functional backends,
    /// which have no timing model).
    pub report: Option<PerfReport>,
}

/// One simulator backend: anything that can run a built workload's
/// unmodified artifacts.
pub trait Simulator: Send + Sync {
    /// The backend's registry name (`qemu`, `spike`, `rtl`).
    fn name(&self) -> &'static str;

    /// Line prefixes this backend emits in serial logs (banners, exit
    /// lines). [`crate::test::clean_output`] strips lines starting with
    /// any registered backend's prefixes, so references written against
    /// one backend match every other.
    fn log_prefixes(&self) -> &'static [&'static str];

    /// Feature tags the configured backend instance carries (e.g. `pfa`
    /// for a `pfa-spike` golden-model binary, or the remote-memory model
    /// of an RTL configuration).
    fn features(&self) -> Vec<String>;

    /// A stable fingerprint of every configuration knob that can change
    /// what a boot produces on this backend (binary features, extra
    /// arguments, instruction budget, hardware configuration). Part of the
    /// boot-checkpoint key: the same artifacts booted under a different
    /// configuration must never share a snapshot. Over-keying is safe (at
    /// worst a redundant cold boot); under-keying is not.
    fn config_fingerprint(&self) -> Fingerprint;

    /// Runs loaded artifacts — the one simulation entry point every
    /// backend implements. Linux jobs boot the full system; bare jobs
    /// execute the binary directly.
    ///
    /// `resume` is a boot snapshot to start from. For an eligible Linux
    /// [`LaunchMode::Run`] it replaces the boot phase, so only the payload
    /// executes; otherwise it is ignored. On an eligible cold Linux boot
    /// the returned snapshot captures the post-init state for later reuse.
    /// Bare jobs and [`LaunchMode::GuestInit`] runs boot cold and return
    /// `None`.
    ///
    /// # Errors
    ///
    /// Simulation errors ([`MarshalError::Sim`]).
    fn run_resumed(
        &self,
        job: &LoadedJob,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimRun, Option<BootSnapshot>), MarshalError>;

    /// A cold [`Simulator::run_resumed`] that drops the captured snapshot.
    ///
    /// # Errors
    ///
    /// See [`Simulator::run_resumed`].
    fn run(&self, job: &LoadedJob, mode: LaunchMode) -> Result<SimRun, MarshalError> {
        self.run_resumed(job, mode, None).map(|(run, _)| run)
    }
}

/// Folds the common [`SimConfig`] knobs into a backend fingerprint.
fn hash_sim_config(h: &mut Hasher128, cfg: &SimConfig) {
    h.update_field(cfg.kind.name().as_bytes());
    h.update_u64(cfg.max_instructions);
    h.update_u64(cfg.features.len() as u64);
    for f in &cfg.features {
        h.update_field(f.as_bytes());
    }
    h.update_u64(cfg.extra_args.len() as u64);
    for a in &cfg.extra_args {
        h.update_field(a.as_bytes());
    }
}

/// Construction options shared by every backend.
#[derive(Debug, Clone, Default)]
pub struct BackendOptions {
    /// Guest watchdog budget override (`--timeout-insts`).
    pub timeout_insts: Option<u64>,
    /// Hardware configuration for timed backends (`--hw`). `None` picks a
    /// default suited to the workload's features (see [`RtlSim::for_spec`]).
    pub hw: Option<HardwareConfig>,
}

/// A functional backend: `qemu` (the historical `launch` default) or
/// `spike`, including custom golden-model binaries (`pfa-spike`). One
/// implementation; the [`SimKind`] profile picks the registry name, the
/// log prefix, the banner, and the spec fields that configure it.
pub struct FunctionalSim {
    sim: Functional,
}

impl FunctionalSim {
    /// Configures a functional profile from a job spec: custom binary
    /// (`qemu` / `spike`), extra arguments (`qemu-args` / `spike-args`),
    /// watchdog budget.
    pub fn for_spec(profile: SimKind, spec: &WorkloadSpec, opts: &BackendOptions) -> FunctionalSim {
        let (binary, args) = match profile {
            SimKind::Spike => (&spec.spike, &spec.spike_args),
            _ => (&spec.qemu, &spec.qemu_args),
        };
        let mut sim = match binary {
            Some(binary) => Functional::with_binary(profile, binary),
            None => Functional::new(profile),
        }
        .with_args(args);
        if let Some(n) = opts.timeout_insts {
            sim = sim.with_budget(n);
        }
        FunctionalSim { sim }
    }
}

impl Simulator for FunctionalSim {
    fn name(&self) -> &'static str {
        match self.sim.config().kind {
            SimKind::Spike => "spike",
            _ => "qemu",
        }
    }

    fn log_prefixes(&self) -> &'static [&'static str] {
        // Banner lines read "qemu-system-riscv64: ..." or "spike: ...".
        match self.sim.config().kind {
            SimKind::Spike => &["spike"],
            _ => &["qemu"],
        }
    }

    fn features(&self) -> Vec<String> {
        self.sim.config().features.clone()
    }

    fn run_resumed(
        &self,
        job: &LoadedJob,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimRun, Option<BootSnapshot>), MarshalError> {
        let (result, captured) = match job {
            LoadedJob::Linux { boot, disk } => {
                self.sim.launch(boot, disk.as_ref(), mode, resume)?
            }
            LoadedJob::Bare { bin } => (self.sim.launch_bare(bin)?, None),
        };
        let run = SimRun {
            result,
            report: None,
        };
        Ok((run, captured))
    }

    fn config_fingerprint(&self) -> Fingerprint {
        let mut h = Hasher128::new();
        h.update_field(self.name().as_bytes());
        h.update_field(self.sim.binary().as_bytes());
        hash_sim_config(&mut h, self.sim.config());
        h.finish()
    }
}

/// The cycle-exact RTL backend (FireSim-like).
pub struct RtlSim {
    sim: FireSim,
}

impl RtlSim {
    /// A backend for an explicit hardware configuration.
    pub fn new(hw: HardwareConfig, timeout_insts: Option<u64>) -> RtlSim {
        let mut sim = FireSim::new(hw);
        if let Some(n) = timeout_insts {
            sim = sim.with_budget(n);
        }
        RtlSim { sim }
    }

    /// Configures the RTL backend for a job spec. Without an explicit
    /// `--hw` choice, picks Rocket — with the PFA remote-memory model
    /// attached when the workload's functional backend would carry the
    /// `pfa` feature tag, so the same workload exercises the same
    /// subsystem on every backend.
    pub fn for_spec(spec: &WorkloadSpec, opts: &BackendOptions) -> RtlSim {
        let hw = match &opts.hw {
            Some(hw) => hw.clone(),
            None => {
                let functional_features =
                    FunctionalSim::for_spec(SimKind::Spike, spec, opts).features();
                if functional_features.iter().any(|f| f == "pfa") {
                    HardwareConfig::rocket().with_remote(marshal_sim_rtl::RemoteMemConfig::Pfa(
                        marshal_sim_rtl::pfa::RemoteTimings::default(),
                    ))
                } else {
                    HardwareConfig::rocket()
                }
            }
        };
        RtlSim::new(hw, opts.timeout_insts)
    }
}

impl Simulator for RtlSim {
    fn name(&self) -> &'static str {
        "rtl"
    }

    fn log_prefixes(&self) -> &'static [&'static str] {
        &["firesim"]
    }

    fn features(&self) -> Vec<String> {
        match &self.sim.hardware().remote {
            marshal_sim_rtl::RemoteMemConfig::None => Vec::new(),
            remote => vec![remote.name().to_owned()],
        }
    }

    fn run_resumed(
        &self,
        job: &LoadedJob,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimRun, Option<BootSnapshot>), MarshalError> {
        let (result, report, captured) = match job {
            LoadedJob::Linux { boot, disk } => {
                self.sim.launch(boot, disk.as_ref(), mode, resume)?
            }
            LoadedJob::Bare { bin } => {
                let (result, report) = self.sim.launch_bare(bin)?;
                (result, report, None)
            }
        };
        let run = SimRun {
            result,
            report: Some(report),
        };
        Ok((run, captured))
    }

    fn config_fingerprint(&self) -> Fingerprint {
        let mut h = Hasher128::new();
        h.update_field(b"rtl");
        // The hardware name covers core/bpred/cache/remote choices; the
        // derived SimConfig covers the budget and `+config=` argument.
        h.update_field(self.sim.hardware().name.as_bytes());
        hash_sim_config(&mut h, &self.sim.sim_config());
        h.finish()
    }
}

/// All registered backend names, in registry order.
pub fn simulator_names() -> &'static [&'static str] {
    &["qemu", "spike", "rtl"]
}

/// Resolves a user-supplied backend name (with aliases) to its canonical
/// registry name.
pub fn resolve_backend(name: &str) -> Option<&'static str> {
    match name {
        "qemu" | "functional" => Some("qemu"),
        "spike" => Some("spike"),
        "rtl" | "firesim" | "cycle-exact" => Some("rtl"),
        _ => None,
    }
}

/// The backend a workload runs on when `--sim` is not given: the spec's
/// custom Spike when one is set (the paper's `spike` option), QEMU
/// otherwise — the historical `launch` behaviour, now as a registry
/// default instead of hardcoded dispatch.
pub fn default_backend(spec: &WorkloadSpec) -> &'static str {
    if spec.spike.is_some() {
        "spike"
    } else {
        "qemu"
    }
}

/// Builds the named backend configured for a job spec.
///
/// # Errors
///
/// [`MarshalError::Other`] naming the registered backends when `name` is
/// unknown.
pub fn simulator_for(
    name: &str,
    spec: &WorkloadSpec,
    opts: &BackendOptions,
) -> Result<Box<dyn Simulator>, MarshalError> {
    match resolve_backend(name) {
        Some("qemu") => Ok(Box::new(FunctionalSim::for_spec(SimKind::Qemu, spec, opts))),
        Some("spike") => Ok(Box::new(FunctionalSim::for_spec(
            SimKind::Spike,
            spec,
            opts,
        ))),
        Some("rtl") => Ok(Box::new(RtlSim::for_spec(spec, opts))),
        _ => Err(MarshalError::Other(format!(
            "unknown simulator backend `{name}` (try {})",
            simulator_names().join(", ")
        ))),
    }
}

/// Every registered backend's declared log prefixes, deduplicated, in
/// registry order — the canonicalization set [`crate::test::clean_output`]
/// strips. Adding a backend extends this automatically; no hand-maintained
/// prefix list can go stale.
pub fn all_log_prefixes() -> Vec<&'static str> {
    let spec = WorkloadSpec::default();
    let opts = BackendOptions::default();
    let backends: [Box<dyn Simulator>; 3] = [
        Box::new(FunctionalSim::for_spec(SimKind::Qemu, &spec, &opts)),
        Box::new(FunctionalSim::for_spec(SimKind::Spike, &spec, &opts)),
        Box::new(RtlSim::for_spec(&spec, &opts)),
    ];
    let mut prefixes = Vec::new();
    for backend in &backends {
        for p in backend.log_prefixes() {
            if !prefixes.contains(p) {
                prefixes.push(*p);
            }
        }
    }
    prefixes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::default()
    }

    #[test]
    fn registry_lookup() {
        let s = spec();
        let opts = BackendOptions::default();
        for name in simulator_names() {
            assert_eq!(simulator_for(name, &s, &opts).unwrap().name(), *name);
        }
        assert!(simulator_for("gem5", &s, &opts).is_err());
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(resolve_backend("functional"), Some("qemu"));
        assert_eq!(resolve_backend("firesim"), Some("rtl"));
        assert_eq!(resolve_backend("cycle-exact"), Some("rtl"));
        assert_eq!(resolve_backend("verilator"), None);
    }

    #[test]
    fn default_backend_follows_spike_option() {
        let mut s = spec();
        assert_eq!(default_backend(&s), "qemu");
        s.spike = Some("pfa-spike".to_owned());
        assert_eq!(default_backend(&s), "spike");
    }

    #[test]
    fn spike_backend_carries_custom_binary_features() {
        let mut s = spec();
        s.spike = Some("pfa-spike".to_owned());
        let backend = simulator_for("spike", &s, &BackendOptions::default()).unwrap();
        assert_eq!(backend.features(), vec!["pfa".to_owned()]);
        // The stock binary carries none.
        let stock = simulator_for("spike", &spec(), &BackendOptions::default()).unwrap();
        assert!(stock.features().is_empty());
    }

    #[test]
    fn rtl_backend_inherits_pfa_from_functional_features() {
        let mut s = spec();
        s.spike = Some("pfa-spike".to_owned());
        let rtl = RtlSim::for_spec(&s, &BackendOptions::default());
        assert_eq!(rtl.features(), vec!["pfa".to_owned()]);
        assert!(rtl.sim.hardware().name.contains("pfa"));
        // An explicit --hw wins over the feature-derived default.
        let rtl = RtlSim::for_spec(
            &s,
            &BackendOptions {
                hw: Some(HardwareConfig::boom_tage()),
                ..Default::default()
            },
        );
        assert!(rtl.features().is_empty());
        assert_eq!(rtl.sim.hardware().name, "boom-tage");
    }

    #[test]
    fn config_fingerprints_distinguish_backends_and_knobs() {
        let s = spec();
        let opts = BackendOptions::default();
        let fps: Vec<Fingerprint> = simulator_names()
            .iter()
            .map(|n| simulator_for(n, &s, &opts).unwrap().config_fingerprint())
            .collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "backends must not share a checkpoint key");
            }
        }
        // Stable across construction.
        let again = simulator_for("qemu", &s, &opts)
            .unwrap()
            .config_fingerprint();
        assert_eq!(fps[0], again);
        // Budget changes the key.
        let budget = BackendOptions {
            timeout_insts: Some(12_345),
            ..Default::default()
        };
        assert_ne!(
            fps[0],
            simulator_for("qemu", &s, &budget)
                .unwrap()
                .config_fingerprint()
        );
        // A custom binary changes the key, on either functional profile.
        let mut custom = spec();
        custom.qemu = Some("pfa-qemu-system-riscv64".to_owned());
        custom.spike = Some("pfa-spike".to_owned());
        for (i, name) in ["qemu", "spike"].into_iter().enumerate() {
            assert_ne!(
                fps[i],
                simulator_for(name, &custom, &opts)
                    .unwrap()
                    .config_fingerprint(),
                "{name}"
            );
        }
        // Hardware configuration changes the RTL key.
        let hw = BackendOptions {
            hw: Some(HardwareConfig::boom_tage()),
            ..Default::default()
        };
        assert_ne!(
            fps[2],
            simulator_for("rtl", &s, &hw).unwrap().config_fingerprint()
        );
    }

    #[test]
    fn run_matches_run_resumed_for_bare_jobs() {
        let s = spec();
        let backend = simulator_for("qemu", &s, &BackendOptions::default()).unwrap();
        let job = LoadedJob::Bare { bin: Vec::new() };
        // Bare jobs never produce or consume snapshots; both paths agree
        // on the error for a non-MEXE binary.
        assert!(backend.run(&job, LaunchMode::Run).is_err());
        assert!(backend.run_resumed(&job, LaunchMode::Run, None).is_err());
    }

    #[test]
    fn prefixes_cover_every_backend() {
        let prefixes = all_log_prefixes();
        for name in ["qemu", "spike", "firesim"] {
            assert!(prefixes.contains(&name), "{name} missing from {prefixes:?}");
        }
    }
}
