"""Benchmark of the braidorders sign oracles, scans and CLI.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nothing is installed.  Workloads (see workloads.py):
ball_scan, long_words, conjugates, streams.

Each run starts fresh interpreters with a pinned environment
(``PYTHONHASHSEED=0``, no ``BRAIDORDERS_DEPTH_CAP``, no ``PYTHONPATH``): one
that sets up, repeats the workload's fixed job list for ``--seconds`` and
checks every answer, then (untraced runs only) nine that only time the
set-up.  Untraced times are scaled to a reference host speed, measured by a
calibration kernel timed around each job and each set-up (calibration.py),
because the shared host's speed drifts by a third or more between spells;
the raw times are printed alongside.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit and
sample count, and ``failed_frac``.  With ``--trace 0`` the metrics are end
to end, with ``--trace 1`` per layer (a separate, traced run; spans go to
``benchmarks/out/``).  The exit code is 1 when any answer is wrong, 2 when
the run itself cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
DEADLINE_S = 175  # every process started by a run has ended by then


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in ("BRAIDORDERS_DEPTH_CAP", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(key, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=pinned_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "braidorders").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "braidorders" / "__init__.py").is_file():
        print(f"error: no braidorders package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = monotonic()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        result = run_worker(
            ["run", args.workload, str(args.seed), str(args.seconds), str(args.trace), str(trace_file)],
            timeout=DEADLINE_S - 15,
        )
        # set-up is timed after the run, when the host has left the faster
        # state it is in after an idle spell; a traced run reports no set-up
        setups = [
            run_worker(
                ["setup", args.workload, str(args.seed)],
                timeout=max(0.1, DEADLINE_S - (monotonic() - started)),
            )
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} python={platform.python_version()} "
        f"nproc={os.cpu_count()} src_loc={src_loc()} ops_per_pass={result['ops_per_pass']}"
    )
    for message in result["failures"]:
        print(f"FAILED: {message}")
    print(f"  attempted={attempted} failed={failed} failed_frac={failed / max(1, attempted):.6f} ratio")

    if args.trace:
        metrics = result["layers"]
        passes = len(result["traced_passes"])
        if result["absent"]:
            print(f"  absent layers (reported as 0): {', '.join(result['absent'])}")
        print(f"  per traced pass, {passes} traced passes; spans in {trace_file.relative_to(ROOT)}")
    else:
        passes = result["passes"]
        per_word = f"over the per-word medians of {len(passes)} passes,"
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "hr_sign_p50_ms": {"value": result["hr_sign_p50_ms"], "unit": "ms"},
            "hr_sign_p99_ms": {"value": result["hr_sign_p99_ms"], "unit": "ms"},
            "nt_sign_p50_ms": {"value": result["nt_sign_p50_ms"], "unit": "ms"},
            "nt_sign_p99_ms": {"value": result["nt_sign_p99_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        counts = {
            "setup_s": f"median of {len(setups)} set-ups; raw {statistics.median(s['raw_setup_s'] for s in setups):.4g} s",
            "wall_s": f"sum of job medians over {len(passes)} passes; raw {result['raw_wall_s']:.4g} s",
            "hr_sign_p50_ms": f"{per_word} n={result['hr_words']} words",
            "hr_sign_p99_ms": f"{per_word} n={result['hr_words']} words",
            "nt_sign_p50_ms": f"{per_word} n={result['nt_words']} words",
            "nt_sign_p99_ms": f"{per_word} n={result['nt_words']} words",
            "peak_rss_mb": "1 process",
        }
    for name, metric in metrics.items():
        note = "" if args.trace else f"  ({counts[name]})"
        print(f"  {name:52s} {metric['value']:.6g} {metric['unit']}{note}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
