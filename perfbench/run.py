"""The orbitfactor benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload {sweep,group,cli} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is taken from ``src/`` next to this
directory.  Each op list is a pure function of (workload, seed) and is run
by one client in a closed loop, in a fresh worker process.

``--trace 0`` runs the same op list (one pass) in fresh processes for
``--seconds`` (at least three passes), two passes at a time on a host with
two or more CPUs.  The first pass is checked; the op latencies of all the
others are pooled.  On a small shared host, single-thread speed swings by
up to 2x within seconds with other tenants' load, and the swings of two CPUs
are nearly independent, so pooling many passes on both CPUs averages the
swings out; the minimum of a few samples of each op does not.  It reports
ops per second over the pooled latencies (time to solution for the op list),
their median and 90th percentile, set-up time (process start to the first
timed op, median over the passes) and peak resident memory (the largest of
the unchecked passes, so that the checks' oracle calls do not count).

``--trace 1`` runs one pass untraced and one with the span recorder, and
reports per-layer calls, self time and errors, cache-relevant repeat ratios,
the structured path against the oracle, the tracing overhead and the kernel
probe.

Every op is checked; a failed check or a raised error counts in ``failed``.
The last line of standard output is the result; the line before it holds
run metadata, with a pure-Python calibration time taken before and after the
run, so that runs on a slowed machine can be told apart.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))

from spans import ARG_KEYS, SPAN_NAMES  # noqa: E402

WORKLOADS = ("sweep", "group", "cli")
MIN_PASSES = 3            # the first is checked, so at least two are timed
PARALLEL = min(2, len(os.sched_getaffinity(0)))   # passes run at once, one per CPU
IMPORT_PROBES = 5
DEADLINE_S = 175.0

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PROBE_UNITS = {f"gf.{op}_us.{kind}": "us" for op in ("mul", "inv")
               for kind in ("prime", "table", "tower")}
PROBE_UNITS.update({f"upoly.{op}_ms": "ms" for op in ("mul", "divmod", "powmod")})


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.errors": "count"})
    units["cli.import_s"] = "s"
    units.update({f"{name}.repeat_ratio": "ratio" for name in ARG_KEYS})
    units.update({"structfactor.vs_oracle": "ratio", "trace_overhead": "ratio"})
    units.update(PROBE_UNITS)
    units.update({"failed_ratio": "ratio", "known_defects": "count",
                  "trace.missing_spans": "count"})
    return units


class BenchError(Exception):
    """The benchmark itself could not run."""


def calibrate() -> float:
    """A fixed pure-Python loop: seconds, median of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED="0")

    def _remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1:
            raise BenchError("out of time")
        return left

    def spawn(self, cmds: list[list[str]]) -> list[tuple[float, str]]:
        """Run processes at once, each in its own process group, to completion;
        returns each one's start time and the last line of its stdout."""
        deadline = time.monotonic() + self._remaining()
        procs = []
        try:
            for cmd in cmds:
                procs.append((cmd, time.monotonic(), subprocess.Popen(
                    cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True, start_new_session=True)))
            done = []
            for cmd, started, proc in procs:
                try:
                    out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
                except subprocess.TimeoutExpired as exc:
                    raise BenchError(f"{' '.join(cmd[1:])} timed out") from exc
                if proc.returncode != 0 or not out.strip():
                    raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{err}")
                done.append((started, out.strip().splitlines()[-1]))
            return done
        finally:
            for _, _, proc in procs:
                if proc.poll() is None:  # failed, timed out or interrupted: stop the group
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()

    def workers(self, mode: str, count: int = 1, probe: bool = False,
                check: bool = True) -> list[dict]:
        """``count`` passes at once; only the first is checked, if ``check``."""
        a = self.args
        cmd = [sys.executable, str(WORKER), "--workload", a.workload, "--seed", str(a.seed),
               "--mode", mode]
        cmd += ["--probe"] if probe else []
        cmds = [cmd + ([] if check and i == 0 else ["--no-check"]) for i in range(count)]
        reports = []
        for started, line in self.spawn(cmds):
            report = json.loads(line)
            report["setup_s"] = report["setup_end"] - started
            reports.append(report)
        return reports

    def import_seconds(self) -> float:
        code = ("import time; t = time.perf_counter(); import orbitfactor.cli; "
                "print(time.perf_counter() - t)")
        return statistics.median(float(self.spawn([[sys.executable, "-c", code]])[0][1])
                                 for _ in range(IMPORT_PROBES))


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    # results are deterministic, so the first pass is checked and the rest only
    # timed; passes run PARALLEL at a time, and a round starts only if one as
    # long as the last still ends by the deadline
    passes = []
    deadline = time.monotonic() + runner.args.seconds
    last = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() + last < deadline:
        started = time.monotonic()
        passes += runner.workers("run", PARALLEL, check=not passes)
        last = time.monotonic() - started
    setups = [report["setup_s"] for report in passes]
    timed = passes[1:]  # the checked pass runs the oracle between its ops
    lat = [x for report in timed for x in report["latencies"]]
    p90 = statistics.quantiles(lat, n=10)[-1]
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(report["peak_rss_kb"] for report in timed) / 1024,
    }
    failed = {f["index"]: f for report in passes for f in report["failures"]}
    report = {"attempted": passes[0]["attempted"], "failures": list(failed.values())}
    meta = {"ops": passes[0]["attempted"], "samples": len(lat),
            "beyond_p90": sum(1 for x in lat if x > p90),
            "pass_s": [sum(r["latencies"]) for r in passes], "setup_samples_s": setups}
    return report, {"values": values, "units": END_TO_END_UNITS, "meta": meta}


def per_layer(runner: Runner) -> tuple[dict, dict]:
    plain, = runner.workers("run", probe=True)
    report, = runner.workers("trace")
    summary = report["summary"]
    values = {}
    for name in SPAN_NAMES:
        entry = summary["spans"][name]
        values.update({f"{name}.calls": entry["calls"], f"{name}.self_s": entry["self_s"],
                       f"{name}.errors": entry["errors"]})
    values["cli.import_s"] = runner.import_seconds()
    for name, (calls, repeats) in summary["repeats"].items():
        values[f"{name}.repeat_ratio"] = repeats / calls if calls else 0.0
    values["structfactor.vs_oracle"] = (plain["fbo_s"] / plain["oracle_s"]
                                        if plain["oracle_s"] else 0.0)
    values["trace_overhead"] = sum(report["latencies"]) / sum(plain["latencies"]) - 1
    values.update(plain["probe"])
    values["failed_ratio"] = len(report["failures"]) / report["attempted"]
    values["known_defects"] = report.get("known_defects", 0)
    values["trace.missing_spans"] = len(summary["missing"])
    report["untraced_failures"] = plain["failures"]
    meta = {"ops": report["attempted"], "missing_spans": summary["missing"]}
    return report, {"values": values, "units": per_layer_units(), "meta": meta}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbitfactor" / "__init__.py").is_file():
        print(f"orbitfactor sources not found under {SRC}", file=sys.stderr)
        return 2

    # turn a termination request into an exception, so running workers are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    runner = Runner(args)
    calibration = [calibrate()]
    try:
        report, result = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    calibration.append(calibrate())

    failures = report["failures"]
    correct = not failures and not report.get("untraced_failures")
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "calibration_s": calibration, "failures": failures[:20],
            **result["meta"]}
    print(json.dumps({"meta": meta}))
    metrics = {name: {"value": value, "unit": result["units"][name]}
               for name, value in result["values"].items()}
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
