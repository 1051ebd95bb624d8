"""Drives the real `marshal` binary through the benchmark's workloads.

One client, closed loop: a single `marshal` child runs at a time and the
next operation starts only after the previous one exited. Every operation
is checked (see `Checker`) and counts toward `attempted` / `failed`.
"""

import hashlib
import os
import re
import shutil
import statistics
import subprocess
import threading
import time

from inputs import SPEC as EDIT_SPEC, EditLoopInputs

# A `marshal` operation that has not exited after this long is killed and
# counted as failed, so a hang cannot stall the benchmark.
OP_TIMEOUT_S = 60

# Host-speed calibration: a fixed amount of pure-Python work, timed between
# operations. A shared 2-vCPU VM's speed drifts by up to ~2x within
# minutes, so each timing is scaled to a host on which the calibration
# takes CALIBRATION_MS, using the calibrations just before and after it.
# The calibration never runs `marshal` code, so a change to the program
# moves only the timing. Raw medians are in the details.
CALIBRATION_MS = 10.0
CALIBRATION_LOOPS = 120_000

# Operation kinds, in the order one spec runs them within an iteration.
BUILD, LAUNCH, LAUNCH_RTL, COSIM, TEST, BUILD_NOOP = (
    "build", "launch", "launch_rtl", "cosim", "test", "build_noop")
LAUNCH_KINDS = (LAUNCH, LAUNCH_RTL, TEST)

# Why each workload exists is documented in README.md. Each maps its specs
# to the operations one iteration runs on them, in order. Only `edit-loop`
# changes anything between iterations: one overlay file.
WORKLOADS = {
    "edit-loop": {EDIT_SPEC: [BUILD, LAUNCH, LAUNCH_RTL, COSIM, TEST, BUILD_NOOP]},
    # Nothing changes between iterations, so the first build is the no-op
    # build: `build_noop_ms` reads the same samples.
    "spec-suite": {spec: [BUILD, LAUNCH, LAUNCH_RTL, COSIM, TEST]
                   for spec in ("intspeed.json", "onnx-infer.json")},
}

_BUILT = re.compile(r"^built `[^`]*`: (\d+) job\(s\), (\d+) task\(s\) run, (\d+) up to date$")
_JOB = re.compile(r"^job `([^`]*)` exited (-?\d+)$")
_AGREE = re.compile(r"^job `([^`]*)`: (\w+) and (\w+) agree \((\d+) vs (\d+) instructions\)$")
_TIMESTAMP = re.compile(r"^\[[0-9. ]*\] ")
# Mirrors `marshal_core::test::clean_output`: backend banners and lines
# whose values legitimately differ between simulators are not behaviour.
_BANNERS = ("qemu", "spike", "firesim", "Machine model")
_VOLATILE = ("cycles=", "cycles:", "instret=", "RealTime", "UserTime", "KernelTime")


class OpResult:
    """One finished `marshal` process."""

    def __init__(self, kind, spec, seconds, code, stdout, maxrss_kb):
        self.kind = kind
        self.spec = spec
        self.seconds = seconds
        self.code = code
        self.stdout = stdout
        self.maxrss_kb = maxrss_kb
        # `seconds` at the calibration host speed (see `Run.scaled`).
        self.scaled = seconds
        # Filled by the checker: simulated work this operation did.
        self.instructions = 0
        self.rtl_cycles = 0

    def lines(self):
        return self.stdout.splitlines()


class Marshal:
    """Runs `marshal` against one workdir, one child at a time."""

    def __init__(self, binary, workdir, search_dirs, scratch):
        self.binary = binary
        self.workdir = workdir
        self.search_dirs = list(search_dirs)
        self.scratch = scratch

    def argv(self, kind, spec, extra=()):
        args = {
            BUILD: ["build"], BUILD_NOOP: ["build"], LAUNCH: ["launch"],
            LAUNCH_RTL: ["launch", "--sim", "rtl"], COSIM: ["cosim"], TEST: ["test"],
        }[kind]
        argv = [self.binary]
        for d in self.search_dirs:
            argv += ["-d", d]
        return argv + ["--workdir", self.workdir] + args + list(extra) + [spec]

    def op(self, kind, spec, extra=()):
        return run_child(kind, spec, self.argv(kind, spec, extra), self.scratch)


def run_child(kind, spec, argv, scratch):
    """Runs one child to completion, timing it and reading its peak RSS."""
    out_path = os.path.join(scratch, f"op-{os.getpid()}.out")
    with open(out_path, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        # Reaped: record it first, so a late timer cannot signal the pid.
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
        killer.join()
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    return OpResult(kind, spec, seconds, proc.returncode, stdout, usage.ru_maxrss)


def calibrate():
    """Milliseconds of the fixed calibration work on this host right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def canonical(uartlog):
    """The behaviour a serial log shows, independent of the backend."""
    keep = []
    for line in uartlog.splitlines():
        line = _TIMESTAMP.sub("", line, count=1).rstrip()
        if line and not line.startswith(_BANNERS) and not any(v in line for v in _VOLATILE):
            keep.append(line)
    return keep


def job_digest(job_dir):
    """Digest of a job's canonical uartlog and every extracted output."""
    h = hashlib.sha256()
    with open(os.path.join(job_dir, "uartlog"), encoding="utf-8", errors="replace") as f:
        for line in canonical(f.read()):
            h.update(line.encode() + b"\n")
    for dirpath, dirnames, filenames in os.walk(job_dir):
        dirnames.sort()
        for name in sorted(filenames):
            rel = os.path.relpath(os.path.join(dirpath, name), job_dir)
            if rel in ("uartlog", "stats"):
                continue
            h.update(b"\0" + rel.encode() + b"\0")
            with open(os.path.join(dirpath, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def read_stats(job_dir):
    """(instructions, cycles) from a job's `stats` file."""
    with open(os.path.join(job_dir, "stats"), encoding="utf-8") as f:
        header, values = f.read().split("\n")[:2]
    row = dict(zip(header.split(","), (int(v) for v in values.split(","))))
    return row["instructions"], row["cycles"]


class Reference:
    """What one spec must produce, recorded during set-up."""

    def __init__(self, name):
        self.name = name
        self.jobs = []  # qualified job names, in order
        self.digest = {}  # job -> canonical digest (every backend)
        self.stats = {}  # (backend key, job) -> (instructions, cycles)
        self.cosim = {}  # job -> (instructions a, instructions b)


class Checker:
    """Checks every operation's outputs against the set-up references.

    A mismatch in the exit code, the `test` verdict, the `cosim` verdict,
    the digest of canonical uartlogs and extracted outputs, or any job's
    simulated instruction or cycle count fails the operation.
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.refs = {}

    def record(self, result, ref):
        """Folds a set-up operation into `ref`; returns its problems."""
        problems = []
        if result.code != 0:
            return [f"exit code {result.code}"]
        if result.kind == LAUNCH:
            ref.jobs = [m.group(1) for m in map(_JOB.match, result.lines()) if m]
            if not ref.jobs:
                return ["launch reported no jobs"]
            for job in ref.jobs:
                job_dir = self._job_dir(ref, job)
                ref.digest[job] = job_digest(job_dir)
                ref.stats[("default", job)] = read_stats(job_dir)
        elif result.kind == LAUNCH_RTL:
            for job in ref.jobs:
                job_dir = self._job_dir(ref, job)
                if job_digest(job_dir) != ref.digest.get(job):
                    problems.append(f"{job}: rtl behaviour differs from the default backend")
                ref.stats[("rtl", job)] = read_stats(job_dir)
        elif result.kind == COSIM:
            for m in map(_AGREE.match, result.lines()):
                if m:
                    ref.cosim[m.group(1)] = (int(m.group(4)), int(m.group(5)))
            if sorted(ref.cosim) != sorted(ref.jobs):
                problems.append("cosim did not agree on every job")
        return problems

    def check(self, result, ref, expect_tasks=None):
        """Problems with one timed operation (empty when it is correct)."""
        if result.code != 0:
            return [f"exit code {result.code}"]
        lines = result.lines()
        problems = []
        if result.kind in (BUILD, BUILD_NOOP):
            built = [m for m in map(_BUILT.match, lines) if m]
            if len(built) != 1:
                return ["no build summary"]
            run = int(built[0].group(2))
            if expect_tasks == "none" and run != 0:
                problems.append(f"no-op build ran {run} task(s)")
            if expect_tasks == "some" and run == 0:
                problems.append("build after a change ran no task")
        elif result.kind == COSIM:
            agreed = {}
            for m in map(_AGREE.match, lines):
                if m:
                    agreed[m.group(1)] = (int(m.group(4)), int(m.group(5)))
            if agreed != ref.cosim or not any(line.startswith("cosim `") and "agree" in line
                                              for line in lines):
                problems.append("cosim verdict or instruction counts differ from the reference")
        if result.kind == TEST:
            verdicts = [line for line in lines if line.startswith(("PASS", "FAIL"))]
            if len(verdicts) != len(ref.jobs) or any(not v.startswith("PASS") for v in verdicts):
                problems.append(f"test verdicts {verdicts}")
        if result.kind in LAUNCH_KINDS:
            backend = "rtl" if result.kind == LAUNCH_RTL else "default"
            for job in ref.jobs:
                job_dir = self._job_dir(ref, job)
                try:
                    digest = job_digest(job_dir)
                    stats = read_stats(job_dir)
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"{job}: unreadable outputs ({e})")
                    continue
                if digest != ref.digest[job]:
                    problems.append(f"{job}: uartlog/output digest differs from the reference")
                if stats != ref.stats[(backend, job)]:
                    problems.append(f"{job}: {backend} instructions/cycles {stats} != "
                                    f"{ref.stats[(backend, job)]}")
                result.instructions += stats[0]
                if backend == "rtl":
                    result.rtl_cycles += stats[1]
        return problems

    def _job_dir(self, ref, job):
        return os.path.join(self.workdir, "runs", ref.name, job)


def tree_bytes(root):
    """Bytes held by every regular file under `root`."""
    total = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                pass
    return total


class Run:
    """One benchmark run of one workload: set-up, then timed iterations."""

    def __init__(self, workload, seed, binary, scratch):
        self.plan = WORKLOADS[workload]
        self.binary = binary
        self.scratch = scratch
        self.inputs = EditLoopInputs(seed) if workload == "edit-loop" else None
        self.inputs_dir = os.path.join(scratch, "inputs")
        self.results = []  # every timed OpResult
        self.setups = []  # (scaled, raw) seconds of every set-up
        self.calibration = [calibrate()]
        self.speed = CALIBRATION_MS / self.calibration[0]
        self.iterations = []  # per-iteration dicts
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # ------------------------------------------------------------ set-up
    def setup(self):
        """Prepares the workload from nothing and times it.

        Generates the seeded inputs, builds every spec and primes its boot
        checkpoints on both the default backend and rtl, recording the
        reference every later operation is checked against.
        """
        for d in (self.inputs_dir, self.ref_workdir()):
            shutil.rmtree(d, ignore_errors=True)
        start = time.perf_counter()
        search = []
        if self.inputs:
            self.inputs.write(self.inputs_dir)
            search = [self.inputs_dir]
        self.marshal = Marshal(self.binary, self.ref_workdir(), search, self.scratch)
        self.checker = Checker(self.ref_workdir())
        for spec in self.plan:
            # Every spec this benchmark runs is named after its file.
            ref = Reference(spec[: -len(".json")])
            for kind in (BUILD, LAUNCH, LAUNCH_RTL, COSIM):
                result = self.marshal.op(kind, spec)
                problems = self.checker.record(result, ref)
                if problems:
                    raise SetupError(f"{spec} {kind}: {problems}\n{result.stdout}")
            self.checker.refs[spec] = ref
        seconds = time.perf_counter() - start
        self.setups.append((self.scaled(seconds), seconds))

    def scaled(self, seconds):
        """`seconds` that just ended, scaled by the host speed measured by
        the calibrations on either side of them."""
        before = self.calibration[-1]
        self.calibration.append(calibrate())
        self.speed = CALIBRATION_MS / ((before + self.calibration[-1]) / 2)
        return seconds * self.speed

    def ref_workdir(self):
        return os.path.join(self.scratch, "reference")

    # ------------------------------------------------------ measurement
    def measure(self, seconds):
        """Runs whole iterations until `seconds` have passed."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            self.iterations.append(self.iteration(i))
            i += 1

    def iteration(self, i):
        specs = list(self.plan)
        order = specs[i % len(specs):] + specs[:i % len(specs)]
        it = {"ops": []}
        before = tree_bytes(self.marshal.workdir)
        start = time.perf_counter()
        if self.inputs:
            self.inputs.edit(self.inputs_dir, i)
        change = time.perf_counter() - start
        for spec in order:
            for kind in self.plan[spec]:
                if kind in LAUNCH_KINDS:
                    # Outputs left by an earlier operation must not pass for
                    # this one's.
                    runs = os.path.join(self.marshal.workdir, "runs", self.checker.refs[spec].name)
                    shutil.rmtree(runs, ignore_errors=True)
                result = self.account(self.marshal.op(kind, spec))
                result.scaled = self.scaled(result.seconds)
                it["ops"].append(result)
        # What the user waits for: the change and the `marshal` processes,
        # not this harness's checking and calibration.
        first = [r for r in it["ops"] if r.kind in (BUILD, LAUNCH)]
        it["raw_seconds"] = change + sum(r.seconds for r in it["ops"])
        it["seconds"] = change * self.speed + sum(r.scaled for r in it["ops"])
        it["turnaround"] = change * self.speed + sum(r.scaled for r in first)
        it["raw_turnaround"] = change + sum(r.seconds for r in first)
        it["growth"] = tree_bytes(self.marshal.workdir) - before
        return it

    def account(self, result):
        """Checks one timed operation and counts it; returns it."""
        expect = None
        if result.kind == BUILD_NOOP or (result.kind == BUILD and not self.inputs):
            expect = "none"
        elif result.kind == BUILD:
            expect = "some"
        problems = self.checker.check(result, self.checker.refs[result.spec], expect)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{result.spec} {result.kind}: {'; '.join(problems)}")
        self.results.append(result)
        return result

    # ---------------------------------------------------------- metrics
    def metrics(self):
        """(metrics, details): every end-to-end metric at the calibration
        host speed, and each timing's median, raw median (as measured),
        90th percentile and sample count."""
        details = {"calibration_ms": statistics.median(self.calibration)}

        def timing(name, pairs, scale=1000.0):
            # pairs: one (scaled, raw) total per set-up or iteration.
            scaled, raw = [p[0] * scale for p in pairs], [p[1] * scale for p in pairs]
            details[name] = {"median": statistics.median(scaled),
                             "raw_median": statistics.median(raw),
                             "p90": _percentile(scaled, 0.9), "n": len(pairs)}
            return details[name]["median"]

        def per_iteration(kinds):
            # One total per iteration over all its specs, which run
            # different jobs: the cost of one pass over the workload.
            return [(sum(r.scaled for r in it["ops"] if r.kind in kinds),
                     sum(r.seconds for r in it["ops"] if r.kind in kinds))
                    for it in self.iterations]

        def rate(work, results):
            return work / sum(r.scaled for r in results) / 1e6

        launches = [r for r in self.results if r.kind in (LAUNCH, LAUNCH_RTL)]
        rtl = [r for r in self.results if r.kind == LAUNCH_RTL]
        m = {
            "setup_s": (timing("setup_s", self.setups, 1.0), "s"),
            "iteration_ms": (timing("iteration_ms", [(i["seconds"], i["raw_seconds"])
                                                     for i in self.iterations]), "ms"),
            "turnaround_ms": (timing("turnaround_ms", [(i["turnaround"], i["raw_turnaround"])
                                                       for i in self.iterations]), "ms"),
        }
        for kind in (BUILD, BUILD_NOOP, LAUNCH, LAUNCH_RTL, COSIM, TEST):
            kinds = {kind}
            if kind == BUILD_NOOP and not any(BUILD_NOOP in ops for ops in self.plan.values()):
                kinds = {BUILD}  # spec-suite: its first build is the no-op
            m[f"{kind}_ms"] = (timing(f"{kind}_ms", per_iteration(kinds)), "ms")
        m["guest_minst_s"] = (rate(sum(r.instructions for r in launches), launches), "Minst/s")
        m["rtl_mcycles_s"] = (rate(sum(r.rtl_cycles for r in rtl), rtl), "Mcycles/s")
        m["max_rss_mb"] = (max(r.maxrss_kb for r in self.results) / 1024.0, "MiB")
        growth = [i["growth"] / 1024 for i in self.iterations]
        m["store_growth_kb"] = (statistics.median(growth), "KiB")
        return m, details


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class SetupError(Exception):
    """Set-up could not produce a verified reference."""
