"""The traced run: the per-layer split of one workload.

The same operations the end-to-end run sends to `marshal` are replayed
in-process by `marshal-replay` (see `replay/src/main.rs`), which times the
calls into each layer's public functions. Replay iterations rotate through
three modes so that each difference is measured on interleaved
iterations: traced with a run journal (the per-layer numbers), untraced
with a journal (the tracing overhead's base) and untraced without one (the
journal overhead's base). A short untraced end-to-end phase gives the
iteration median the layer self times are subtracted from.
"""

import json
import os
import re
import statistics
import subprocess
import threading
import time

from harness import LAUNCH_RTL, OP_TIMEOUT_S, OpResult, run_child

# (trace, journal) per replay iteration, in rotation.
MODES = ((1, 1), (0, 1), (0, 0))
# Layer self-time buckets, as `marshal-replay` names them; `cli` is the
# process floor (`marshal help`) once per operation.
BUCKETS = ("cli", "setup", "config", "script", "build", "load", "checkpoint", "sim",
           "collect", "hook", "compare", "journal")
_COUNTERS = re.compile(r"^counters `([^`]*)` (\d+) (\d+) (\d+)$")


class ReplayClient:
    """Sends operations to one `marshal-replay` process; stands in for
    `harness.Marshal`."""

    def __init__(self, binary, workdir, search_dirs):
        self.workdir = workdir
        self.search_dirs = list(search_dirs)
        self.proc = subprocess.Popen([binary], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.command("workdir", workdir)
        for d in self.search_dirs:
            self.command("search", d)

    def command(self, *words):
        """Sends one command; returns (exit code, reply lines)."""
        killer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            self.proc.stdin.write("\t".join(str(w) for w in words) + "\n")
            self.proc.stdin.flush()
            lines = []
            for line in self.proc.stdout:
                line = line.rstrip("\n")
                if line.startswith(".end "):
                    return int(line[5:]), lines
                lines.append(line)
            raise RuntimeError(f"marshal-replay exited during `{words[0]}`")
        finally:
            killer.cancel()
            killer.join()

    def json(self, *words):
        code, lines = self.command(*words)
        if code != 0:
            raise RuntimeError(f"marshal-replay `{words[0]}` failed: {lines}")
        return json.loads(lines[-1])

    def op(self, kind, spec):
        start = time.perf_counter()
        code, lines = self.command("op", kind, spec)
        return OpResult(kind, spec, time.perf_counter() - start, code, "\n".join(lines), 0)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def traced_run(run, replay_binary, seconds):
    """Measures `run`'s workload layer by layer; returns (metrics, details)."""
    floor_ms = statistics.median(
        run_child("help", "-", [run.binary, "help"], run.scratch).seconds * 1e3
        for _ in range(20))
    run.measure(seconds / 3)
    e2e_ms = statistics.median(it["raw_seconds"] for it in run.iterations) * 1e3
    ops_per_iteration = len(run.iterations[0]["ops"])
    first = len(run.iterations)
    run.iterations, run.results = [], []

    client = ReplayClient(replay_binary, run.marshal.workdir, run.marshal.search_dirs)
    run.marshal = client
    mispredicts = {}
    by_mode = {mode: [] for mode in MODES}
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 2 * len(MODES) or time.perf_counter() < deadline:
            mode = MODES[i % len(MODES)]
            client.command("mode", *mode)
            it = run.iteration(first + i)
            client.command("iter")
            by_mode[mode].append(it["raw_seconds"] * 1e3)
            for result in it["ops"]:
                if result.kind == LAUNCH_RTL:
                    _check_counters(run, result, mispredicts)
            i += 1
        specs = list(run.plan)
        probe = client.json("probe", os.path.join(run.scratch, "probe"), *specs)
        report = client.json("report")
    finally:
        client.close()
    _check_probe(run, probe, mispredicts)
    return _layer_metrics(run, report, probe, floor_ms, e2e_ms, ops_per_iteration, by_mode)


def _check_counters(run, result, mispredicts):
    """rtl statistics of a replayed launch must match the CLI's reference,
    and its branch mispredicts must repeat on every launch."""
    ref = run.checker.refs[result.spec]
    for m in map(_COUNTERS.match, result.lines()):
        if not m:
            continue
        job, insts, cycles, missed = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
        if (insts, cycles) != ref.stats[("rtl", job)] or mispredicts.setdefault(job, missed) != missed:
            run.failed += 1
            run.problems.append(f"{job}: replayed rtl statistics differ from the reference")


def _check_probe(run, probe, mispredicts):
    """The probe's simulated statistics are the ones the CLI produced."""
    refs = [run.checker.refs[s] for s in run.plan]
    expected = {
        "sim.instructions": sum(r.cosim[j][0] for r in refs for j in r.jobs),
        "rtl.cycles": sum(r.stats[("rtl", j)][1] for r in refs for j in r.jobs),
    }
    # Mispredicts have no CLI reference; the replayed rtl launches give one
    # when they covered every job.
    if set(mispredicts) == {j for r in refs for j in r.jobs}:
        expected["rtl.mispredicts"] = sum(mispredicts.values())
    run.attempted += 1
    wrong = {k: (probe[k], v) for k, v in expected.items() if probe[k] != v}
    if wrong:
        run.failed += 1
        run.problems.append(f"probe statistics differ from the reference: {wrong}")


def _layer_metrics(run, report, probe, floor_ms, e2e_ms, ops_per_iteration, by_mode):
    samples = report["samples"]
    traced = [it for it in report["iterations"] if it["mode.traced"] == 1]
    details = {}

    def per_op(metric, scale=1.0):
        # One median per spec, summed: one pass over the workload's specs.
        by_spec = samples.get(metric, {})
        details[metric] = {"n": sum(len(v) for v in by_spec.values())}
        return sum(statistics.median(v) for v in by_spec.values()) * scale

    def per_iteration(key):
        return statistics.median(it.get(key, 0.0) for it in traced)

    def overhead(mode, base):
        return (statistics.median(by_mode[mode]) / statistics.median(by_mode[base]) - 1) * 100

    loads = sum(it.get("checkpoint_loads", 0) for it in report["iterations"])
    hits = sum(it.get("checkpoint_hits", 0) for it in report["iterations"])
    setup = [v for values in samples["workloads.setup"].values() for v in values]
    m = {
        "cli.floor_ms": (floor_ms, "ms"),
        "workloads.setup_ms": (statistics.median(setup), "ms"),
        "config.resolve_us": (per_op("config.resolve", 1e3), "us"),
        "config.jobs": (per_op("config.jobs"), "count"),
        "script.host_init_ms": (per_op("script.host_init"), "ms"),
        "depgraph.noop_build_ms": (per_op("depgraph.noop_build"), "ms"),
        "depgraph.tasks_run": (per_iteration("tasks_run"), "count"),
        "depgraph.tasks_up_to_date": (per_iteration("tasks_up_to_date"), "count"),
        "checkpoint.hit_ratio": (hits / loads if loads else 0.0, "ratio"),
        "launch.collect_ms": (per_op("launch.collect"), "ms"),
        "launch.post_hook_ms": (per_op("launch.post_hook"), "ms"),
        "test.compare_ms": (per_op("test.compare"), "ms"),
        "cosim.compare_ms": (per_op("cosim.compare"), "ms"),
        "trace.journal_overhead_pct": (overhead((0, 1), (0, 0)), "%"),
        "trace.replay_overhead_pct": (overhead((1, 1), (0, 1)), "%"),
    }
    units = {"_ms": "ms", "_mb_s": "MB/s", "minst_s": "Minst/s", "mcycles_s": "Mcycles/s",
             "_j2": "ratio", "_share": "ratio", ".bytes": "B"}
    for name, value in probe.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        m[name] = (value, unit)
    self_ms = {b: per_iteration(b) for b in BUCKETS if b != "cli"}
    self_ms["cli"] = floor_ms * ops_per_iteration
    for bucket in BUCKETS:
        m[f"self.{bucket}_ms"] = (self_ms[bucket], "ms")
    m["e2e.iteration_ms"] = (e2e_ms, "ms")
    m["unattributed_pct"] = ((e2e_ms - sum(self_ms.values())) / e2e_ms * 100, "%")
    details["replay_iteration_ms"] = {f"trace{t}_journal{j}": by_mode[(t, j)] for t, j in MODES}
    return m, details
