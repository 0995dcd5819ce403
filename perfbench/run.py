"""Benchmark of copulameasures: four paper workloads, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gof_pima --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each workload runs in fresh processes (``workload.py``).  Set-up is timed
SETUP_SAMPLES times, each in its own process, and reported as the median.
With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass.  A readable
report, the environment and every correctness check go to stderr.  The
exit code is 0 only when every check passed.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("gof_pima", "select_rank_pima", "calibrate_small_n",
             "measure_parametric")
SETUP_SAMPLES = 3
CHILD_LIMIT_S = 150.0   # beyond this a workload process is killed


def start_child(args: list, limit: float):
    """Run workload.py; returns (seconds until it printed ready, its last
    stdout line, exit code)."""
    env = dict(os.environ)
    env.pop("COPULAMEASURES_THREADS", None)   # the CLI default: one worker
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read().strip().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready":
        return None, None, code
    return ready, (rest[-1] if rest else None), code


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        ready, _, code = start_child(common + ["--seconds", "0", "--setup-only"],
                                     CHILD_LIMIT_S)
        if ready is None or code != 0:
            raise RuntimeError(f"{name}: set-up process failed (exit {code})")
        setups.append(ready)
    ready, line, code = start_child(
        common + ["--seconds", repr(seconds), "--trace", str(trace)],
        CHILD_LIMIT_S)
    if ready is None or line is None or code != 0:
        raise RuntimeError(f"{name}: workload process failed (exit {code})")
    setups.append(ready)
    result = json.loads(line)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ops_ok_frac": "fraction"}


def end_to_end(r: dict) -> dict:
    values = {
        "ops_per_s": r["ops_per_s"],
        "setup_s": r["setup_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "ops_ok_frac": (r["attempted"] - r["failed"]) / r["attempted"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(r: dict) -> dict:
    return {k: {"value": v, "unit": layer_unit(k)}
            for k, v in r["trace"]["layers"].items()}


def layer_unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "fraction"
    return "count"


def report(r: dict, metrics: dict) -> None:
    err = sys.stderr
    print(f"== {r['workload']}  seed {r['seed']}  item runs {r['runs']}  "
          f"ops {r['attempted']}  failed {r['failed']}  digest {r['digest'][:16]}",
          file=err)
    print(f"   env {json.dumps(r['env'])}", file=err)
    if "ties_broken" in r:
        print(f"   ties broken in the Pima-shaped sample: {r['ties_broken']}", file=err)
    print("   setup samples " + " ".join(f"{s:.3f}" for s in r["setup_samples"]),
          file=err)
    if "item_log" in r:
        print(f"   {len(r['item_log'])} item runs in "
              f"{sum(t for _, t, _ in r['item_log']):.1f} s; unscaled "
              f"{r['wall_ops_per_s']:.4g} ops/s; reference {1e3 * r['reference_s']:.3f} ms",
              file=err)
    if "trace" in r:
        t = r["trace"]
        print(f"   untraced {t['untraced_ops_per_s']:.4g} ops/s; "
              f"unwrapped names {t['unwrapped']}", file=err)
    for name, m in metrics.items():
        print(f"   {name:40s} {m['value']:>14.6g} {m['unit']}", file=err)
    for c in r["checks"]:
        mark = "ok  " if c["ok"] else "FAIL"
        print(f"   [{mark}] {c['name']}  {c['detail']}", file=err)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "copulameasures" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, json.JSONDecodeError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        metrics = per_layer(r) if args.trace else end_to_end(r)
        report(r, metrics)
        results.append((r, metrics))

    correct = all(r["correct"] for r, _ in results)
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{r['workload']}.{k}": v for r, m in results for k, v in m.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r, _ in results),
                      "failed": sum(r["failed"] for r, _ in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
