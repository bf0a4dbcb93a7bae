"""End-to-end benchmark of the `hecke` command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs the workload's fixed list of `hecke` commands, each in a
fresh child process, one child at a time: a closed loop with a single
client.  An untraced run makes a fixed number of passes over the list (the
workload's `passes`); --seconds only caps the run, so that no pass starts
after twice that many seconds.  Between every two children, a reference job
(perfbench/reference.py) runs in its own child, and each timing is scaled
to the reference speed by the reference times just before and after it:
the host's speed drifts while a run lasts, and the scaling takes most of
that drift out.  Each command is timed by its median over the passes.
Every output is checked against an independently computed expectation
(perfbench/expect.py); a nonzero exit, `"pass": false` or a mismatch counts
as a failed command.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics from traced
passes (perfbench/tracer.py).  A fuller record of the run, with its
context, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

COMMAND_TIMEOUT = 60.0  # seconds; a command still running is killed and fails
PASS_DEADLINE = 110.0  # seconds into the run after which no new pass starts
SETUP_PROBES = 2  # set-up probes before each untraced pass
TRACE_PAIRS = 2  # traced-then-untraced pass pairs in a traced run
# Median time of reference.py, spawn to exit, on the machine that defined the
# benchmark (2-vCPU Intel Xeon VM, Python 3.11).  Scaled times are seconds
# at that speed.
REFERENCE_S = 0.115


@dataclass
class Outcome:
    args: tuple
    latency: float  # spawn to exit
    first_record: float  # spawn to the first stdout line
    rss_mb: float  # the child's peak RSS (see launch.py)
    code: int
    stdout: str
    problems: list
    trace: dict | None = None


@dataclass
class Pass:
    """One trip through the commands.  `refs` are the reference times taken
    around the set-up probes and commands, in order: refs[i] before the
    i-th child and refs[i + 1] after it."""

    traced: bool
    setup: list = field(default_factory=list)  # raw set-up samples, seconds
    outcomes: list = field(default_factory=list)
    refs: list = field(default_factory=list)

    def scale(self, child: int) -> float:
        return 2 * REFERENCE_S / (self.refs[child] + self.refs[child + 1])

    def scaled_setup(self) -> list:
        return [s * self.scale(i) for i, s in enumerate(self.setup)]

    def scaled(self, command: int, attr: str = "latency") -> float:
        outcome = self.outcomes[command]
        return getattr(outcome, attr) * self.scale(len(self.setup) + command)

    @property
    def wall(self) -> float:
        """Scaled seconds for the commands of the pass."""
        return sum(self.scaled(i) for i in range(len(self.outcomes)))


def child_env() -> dict:
    env = dict(os.environ)
    # An inherited override would lift the guards silently; a refusal must fail.
    env.pop("HECKE_GUARD_OVERRIDE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.env = child_env()

    def spawn(self, argv: list, stdin: str | None, env: dict | None = None):
        """Run one child to completion; returns (latency, first line latency,
        exit code, stdout, stderr)."""
        err_path = OUT / "stderr.txt"
        with open(err_path, "w+b") as err:
            start = time.monotonic()
            env = dict(env or self.env, PERFBENCH_SPAWN=repr(start))
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                env=env,
                cwd=ROOT,
            )
            timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
            timer.start()
            try:
                if stdin is not None:
                    try:
                        proc.stdin.write(stdin.encode())
                        proc.stdin.close()
                    except BrokenPipeError:
                        pass
                first = proc.stdout.readline()
                first_at = time.monotonic()
                rest = proc.stdout.read()
                proc.wait()
                end = time.monotonic()
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        stdout = (first + rest).decode(errors="replace")
        return end - start, first_at - start, proc.returncode, stdout, stderr

    def reference(self) -> float:
        latency, _, code, _, stderr = self.spawn([sys.executable, str(BENCH / "reference.py")], None)
        if code != 0:
            raise RuntimeError(f"reference job failed (exit {code}): {stderr.strip()[-300:]}")
        return latency

    def run_command(self, cmd: workloads.Command, stdin: str | None, traced: bool) -> Outcome:
        trace_path, rss_path = OUT / "trace.json", OUT / "rss.txt"
        for path in (trace_path, rss_path):
            path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), *cmd.args]
            env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_path))
        else:
            argv = [sys.executable, str(BENCH / "launch.py"), *cmd.args]
            env = dict(self.env, PERFBENCH_RSS_OUT=str(rss_path))
        latency, first, code, stdout, stderr = self.spawn(argv, stdin, env)
        rss = int(rss_path.read_text()) / 1024 if rss_path.exists() else 0.0
        if code == 3:
            problems = [f"guard refusal: {stderr.strip()[-300:]}"]
        elif code != 0:
            problems = [f"exit {code}: {stderr.strip()[-300:]}"]
        else:
            problems = check(cmd, stdout)
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        return Outcome(cmd.args, latency, first, rss, code, stdout, problems, trace)

    def run_pass(self, traced: bool = False, probes: int = 0) -> Pass:
        """Set-up probes, then the commands, with a reference job before the
        first child and after each child."""
        done = Pass(traced, refs=[self.reference()])
        for _ in range(probes):
            data = self.probe()
            done.setup.append(data["import_s"] + sum(data["build_s"]))
            done.refs.append(self.reference())
        for cmd in self.workload.commands:
            stdin = cmd.stdin if cmd.stdin_from is None else done.outcomes[cmd.stdin_from].stdout
            done.outcomes.append(self.run_command(cmd, stdin, traced))
            done.refs.append(self.reference())
        return done

    def run_passes(self, kinds: list, cap: float, run_start: float, probes: int = 0) -> list:
        """One pass per entry of `kinds` (True for a traced pass), but none
        started after `cap` seconds into the run (at least one)."""
        passes: list = []
        for traced in kinds:
            if passes and time.monotonic() - run_start >= cap:
                break
            passes.append(self.run_pass(traced, probes))
        return passes

    def probe(self) -> dict:
        """Import hecke and build each field of the workload in a fresh
        process; the times are taken inside it."""
        specs = [f"{p}:{k}" for p, k in self.workload.fields()]
        argv = [sys.executable, str(BENCH / "probe.py"), *specs]
        *_, code, stdout, stderr = self.spawn(argv, None)
        if code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {stderr.strip()[-300:]}")
        return json.loads(stdout)


def check(cmd: workloads.Command, stdout: str) -> list:
    try:
        return cmd.check(stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        return [f"unreadable output: {err!r}"]


# -- harness self-check: the correctness gate must reject corrupted outputs ---------


def corrupt(kind: str, args: tuple, stdout: str) -> str | None:
    """The output with one defect of the given kind, or None if the kind does
    not apply to this command."""
    if args[0] == "verify":
        report = json.loads(stdout)
        if kind == "flip_pass":
            report["pass"] = not report["pass"]
        elif kind == "off_by_one":
            for key in ("m_mu_count", "n_mu_count", "nonzero_t_v", "tensor_dim",
                        "basis_size", "coset_sizes_sum", "sum_of_squares"):
                if key in report:
                    report[key] += 1
                    break
            else:
                listed = report.get("cases") or report.get("expansion")
                if not listed:
                    return None
                listed.pop()
        else:
            return None
        return json.dumps(report, indent=2)
    if args[0] == "enum" and kind == "off_by_one":
        lines = stdout.splitlines()
        lines[-1] = json.dumps({"count": json.loads(lines[-1])["count"] + 1})
        return "\n".join(lines) + "\n"
    if args[:2] == ("map", "v_to_a") and kind == "round_trip":
        record = json.loads(stdout)
        first = record["entries"][0][0]
        record["entries"][0][0] = "1" if first != "1" else "1+1*X^1"
        return json.dumps(record) + "\n"
    return None


def self_check(workload: workloads.Workload, first: Pass) -> dict:
    """Feed the checker each applicable corruption of one output of the first
    pass; each must raise the pass's failed fraction."""
    base = sum(1 for o in first.outcomes if o.problems)
    total = len(first.outcomes)
    results = {}
    for kind in ("flip_pass", "off_by_one", "round_trip"):
        for cmd, outcome in zip(workload.commands, first.outcomes):
            if outcome.problems:
                continue
            bad = corrupt(kind, cmd.args, outcome.stdout)
            if bad is None:
                continue
            detected = bool(check(cmd, bad))
            results[kind] = {
                "command": list(cmd.args),
                "detected": detected,
                "failed_frac": base / total,
                "failed_frac_corrupted": (base + detected) / total,
            }
            break
    return results


# -- metrics --------------------------------------------------------------------------


def tail(values: list) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return {"percentile": None, "value": None, "samples": n}
    return {"percentile": 100 * (n - 10) / n, "value": ordered[n - 11], "samples": n}


def end_to_end(workload, passes: list) -> tuple:
    """The end-to-end metrics of a run, from scaled times.  A command's time
    is its median over the passes; the request latencies of all passes are
    pooled."""
    commands = workload.commands

    def typical(i: int, attr: str = "latency") -> float:
        return statistics.median(p.scaled(i, attr) for p in passes)

    requests = [p.scaled(i) for p in passes for i, c in enumerate(commands) if c.request]
    setup = [s for p in passes for s in p.scaled_setup()]
    metrics = {
        "wall_s": sum(typical(i) for i in range(len(commands))),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p.outcomes) for p in passes),
        "first_record_s": sum(
            typical(i, "first_record") for i, c in enumerate(commands) if c.kind == "enum"
        ),
        "request_p50_s": statistics.median(requests),
    }
    samples = {
        "wall_s": len(passes), "setup_s": len(setup), "peak_rss_mb": len(passes),
        "first_record_s": len(passes), "request_p50_s": len(requests),
    }
    return metrics, samples, tail(requests)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(names: list, traced: Pass, overhead: float) -> dict:
    stats: dict = {}
    counts: dict = {}
    distinct: dict = {}
    startup = 0.0
    for o in traced.outcomes:
        if not o.trace:
            continue
        startup += o.trace["startup_s"]
        for name, (calls, secs, self_s) in o.trace["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += secs
            s[2] += self_s
        for name, value in o.trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in o.trace["distinct"].items():
            distinct[name] = distinct.get(name, 0) + value

    def calls(fn):
        return stats[fn][0] if fn in stats else counts.get(fn + ".calls", 0)

    out = {}
    for name in names:
        head, _, leaf = name.rpartition(".")
        if name == "cli.startup.s":
            value = startup
        elif name == "cli.records":
            value = sum(records(o) for o in traced.outcomes)
        elif name == "guards.refusals":
            value = sum(o.code == 3 for o in traced.outcomes)
        elif name == "trace.overhead_s":
            value = overhead
        elif name == "failed_frac":
            value = _ratio(sum(bool(o.problems) for o in traced.outcomes), len(traced.outcomes))
        elif leaf == "self_s":
            value = sum(s[2] for fn, s in stats.items() if fn.split(".")[0] == head)
        elif leaf == "calls":
            value = calls(head)
        elif leaf == "s":
            value = stats.get(head, [0, 0.0])[1]
        elif leaf == "accept_ratio":
            value = _ratio(counts.get(head + ".accepted", 0), calls(head))
        elif leaf == "nonzero_ratio":
            value = _ratio(counts.get(head + ".nonzero", 0), calls(head))
        elif leaf == "distinct_ratio":
            value = _ratio(distinct.get(head, 0), calls(head))
        elif leaf == "useful_ratio":
            value = _ratio(counts.get(head + ".useful", 0), counts.get(head + ".attempted", 0))
        else:
            value = counts.get(name, 0)
        out[name] = value
    return out


def records(outcome: Outcome) -> int:
    """Result records printed: enum lines without the footer, else one."""
    if outcome.code != 0:
        return 0
    lines = [line for line in outcome.stdout.splitlines() if line.strip()]
    return len(lines) - 1 if outcome.args[0] == "enum" else 1


def top_layer(layer: dict) -> str:
    selfs = {k.split(".")[0]: v for k, v in layer.items() if k.endswith(".self_s")}
    return max(selfs, key=selfs.get) if selfs else ""


# -- context ------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context(workload, seed: int, seconds: int) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "commands": [
            {"args": list(c.args), **({"stdin": c.stdin} if c.stdin else {}),
             **({"stdin_from": c.stdin_from} if c.stdin_from is not None else {})}
            for c in workload.commands
        ],
        "fields": [list(f) for f in workload.fields()],
        "loop": "closed, one client, one child process at a time",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
    }


def failures(passes: list) -> list:
    return [
        {"args": list(o.args), "problems": o.problems[:3]}
        for p in passes for o in p.outcomes if o.problems
    ][:10]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through Runner.spawn, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "hecke" / "cli.py").is_file():
        print(f"error: no hecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    run_start = time.monotonic()
    cap = min(2 * args.seconds, PASS_DEADLINE)
    workload = workloads.build(args.workload, args.seed)
    runner = Runner(workload)
    record = context(workload, args.seed, args.seconds)
    runner.probe()  # warm-up: byte-code compilation and file caches
    ok = True
    if args.trace:
        # Traced and untraced passes alternate, so both sides see the same
        # stretch of host speed; the overhead compares their median walls.
        passes = runner.run_passes([True, False] * TRACE_PAIRS, cap, run_start)
        traced = [p for p in passes if p.traced]
        untraced = [p for p in passes if not p.traced]
        overhead = (statistics.median(p.wall for p in traced)
                    - statistics.median(p.wall for p in untraced))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = [per_layer(list(units), p, overhead) for p in traced]
        values = {name: statistics.median(l[name] for l in layers) for name in units}
        record.update(
            untraced_walls_s=[p.wall for p in untraced],
            traced_walls_s=[p.wall for p in traced],
            top_layer=top_layer(values),
        )
    else:
        passes = runner.run_passes([False] * workload.passes, cap, run_start, SETUP_PROBES)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, samples, request_tail = end_to_end(workload, passes)
        checks = self_check(workload, passes[0])
        ok = all(c["detected"] for c in checks.values())
        record.update(
            samples=samples,
            request_tail=request_tail,
            setup_samples_s=[p.setup for p in passes],
            self_check=checks,
        )
    record.update(
        passes=len(passes),
        references_s=[p.refs for p in passes],
        latencies_s=[[o.latency for o in p.outcomes] for p in passes],
        first_records_s=[[o.first_record for o in p.outcomes] for p in passes],
    )
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(bool(o.problems) for p in passes for o in p.outcomes)
    record.update(
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        guard_refusals=sum(o.code == 3 for p in passes for o in p.outcomes),
        failures=failures(passes),
        run_s=time.monotonic() - run_start,
        metrics={name: {"value": values[name], "unit": units[name]} for name in units},
    )
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("passes", "attempted", "failed", "run_s")}
                     | {"self_check": record.get("self_check"), "top_layer": record.get("top_layer")}),
          file=sys.stderr)
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
