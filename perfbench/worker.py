"""One benchmark process: set up a workload, run its operations, report JSON.

    python3 perfbench/worker.py --workload W --seed N --mode M
    python3 perfbench/worker.py --cli-trace ARG...

Modes: ``run`` times every op and checks it; ``trace`` does the same with
the span recorder installed.  ``--no-check`` skips the checks, for passes
that repeat a checked one.  ``--probe`` adds the gf/upoly kernel probe after
the ops.  ``--cli-trace`` runs one CLI command in-process under the
recorder.  The last line of standard output is one JSON object.  The
orbitfactor package must be importable (``src`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import resource
import subprocess
import sys
import time
import traceback

import spans


def _peak_rss_kb(include_children: bool) -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak


def cli_trace(argv: list[str]) -> dict:
    """Run ``orbitfactor.cli.run(argv)`` with every span recorded."""
    from orbitfactor import cli

    recorder = spans.Recorder()
    recorder.install()
    recorder.enabled = True
    out, err = io.StringIO(), io.StringIO()
    code = 1
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with recorder.root():
                code = cli.run(argv)
        except Exception:  # a library bug escaping run(): report it as the CLI would
            traceback.print_exc()
    recorder.enabled = False
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "trace": recorder.summary()}


def _traced_cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, __file__, "--cli-trace"] + argv


def _decode_traced_cli(proc):
    """The CLI result inside a traced-command process, as a CompletedProcess."""
    if proc.returncode != 0 or not proc.stdout.strip():
        return proc, None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    inner = subprocess.CompletedProcess(proc.args, doc["code"], doc["stdout"], doc["stderr"])
    return inner, doc["trace"]


def merge_summaries(total: dict | None, part: dict) -> dict:
    if total is None:
        return copy.deepcopy(part)
    for name, entry in part["spans"].items():
        for field, value in entry.items():
            total["spans"][name][field] += value
    for name, (calls, repeats) in part["repeats"].items():
        total["repeats"][name][0] += calls
        total["repeats"][name][1] += repeats
    total["missing"] = sorted(set(total["missing"]) | set(part["missing"]))
    return total


def run_ops(ops, recorder=None, traced_cli: bool = False, check: bool = True) -> dict:
    latencies, failures = [], []
    fbo_s = oracle_s = 0.0
    cli_summary = None
    root = recorder.root if recorder else contextlib.nullcontext
    paused = recorder.paused if recorder else contextlib.nullcontext
    for index, op in enumerate(ops):
        error = None
        start = time.perf_counter()
        try:
            with root():
                result = op.run()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        if error is None and check:
            if traced_cli:
                result, part = _decode_traced_cli(result)
                if part is not None:
                    cli_summary = merge_summaries(cli_summary, part)
            try:
                with paused():
                    oracle = op.check(result)
            except Exception as exc:
                error = f"check: {type(exc).__name__}: {exc}"
            else:
                if oracle is not None and op.label.startswith("factor_by_orbit"):
                    fbo_s += elapsed
                    oracle_s += oracle
        if error is not None:
            failures.append({"index": index, "label": op.label, "error": error})
    return {"latencies": latencies, "failures": failures, "fbo_s": fbo_s,
            "oracle_s": oracle_s, "cli_summary": cli_summary}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cli-trace"]:
        print(json.dumps(cli_trace(argv[1:])))
        return 0
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the correctness checks (for repeat passes)")
    args = parser.parse_args(argv)

    import workloads

    if args.workload == "cli":
        import orbitfactor.cli  # noqa: F401  (cold import is part of a CLI user's set-up)
    traced = args.mode == "trace"
    if traced and args.workload == "cli":
        ops = workloads.cli_ops(args.seed, command=_traced_cli_command)
    else:
        ops = workloads.build(args.workload, args.seed)
    report = {"setup_end": time.monotonic(), "attempted": len(ops)}

    recorder = None
    if traced and args.workload != "cli":
        recorder = spans.Recorder()
        recorder.install()
        recorder.enabled = True
    report.update(run_ops(ops, recorder, traced_cli=traced and args.workload == "cli",
                          check=not args.no_check))
    report["peak_rss_kb"] = _peak_rss_kb(include_children=args.workload == "cli")
    if recorder is not None:
        if args.workload == "group":
            defects = run_ops(workloads.known_defect_ops(), recorder)
            report["known_defects"] = len(defects["failures"])
        recorder.enabled = False
        report["summary"] = recorder.summary()
    elif traced:
        report["summary"] = report["cli_summary"]
    report.pop("cli_summary")
    if args.probe:
        import probe

        report["probe"] = probe.run(args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
