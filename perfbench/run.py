"""tabnsa benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload fit_default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn
    python3 perfbench/run.py --smoke                      # schema check and a fast run of each workload

BENCHMARK.json at the repository root lists the workloads and metrics;
this script reports exactly those, with their units. The inputs are a
synthetic Credit-Approval-shaped table (synth.py) drawn from --seed. Each
set-up and each measured run is a fresh process (worker.py), with one BLAS
thread, so set-up time and peak RSS belong to one workload alone and BLAS
threads times trial workers stays within the core count.

With --trace 0 the last stdout line holds the end-to-end metrics. Each
workload has one unit of work, its "op":

  workload      op                  rows_per_s                   auc on 2048 fresh rows of
  fit_default   AdamW step (b=32)   training rows / median epoch  the fitted model
  fit_mid       AdamW step (b=64)   training rows / median epoch  the fitted model
  score         batch-1 request     1024 / median b-1024 request  the loaded checkpoint
  tune          trial (2 workers)   rows trained / search wall    the best trial's model

op_ms_p50 and op_ms_p90 are percentiles of op latency; setup_s is the
median, over three fresh processes, of the time from process start to the
first timed operation; peak_rss_mib is the measured process's high-water
RSS after the loop. With --trace 1 the last line holds the per-layer
metrics instead (see worker.py and probes.py), including the tracing
overhead and the share of loop time the spans cover, and the spans
themselves are left in perfbench/.work/spans-<workload>-<seed>.jsonl.

Exit codes: 0 with a result line, 1 when a run breaks, 2 when the
checkout or BENCHMARK.json is unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import synth  # noqa: E402
from worker import FRESH_ROWS, WORKLOADS  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = HERE / ".work"
SETUP_RUNS = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_THREADS = 1
TRIAL_WORKERS = max(1, min(2, len(os.sched_getaffinity(0)) // BLAS_THREADS))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
ALIASES = {
    "fit": {"rows_per_s": "train_rows_per_s", "op_ms_p50": "step_ms_p50", "op_ms_p90": "step_ms_p90"},
    "score": {"rows_per_s": "score_b1024_rows_per_s", "op_ms_p50": "score_b1_ms_p50", "op_ms_p90": "score_b1_ms_p90"},
    "tune": {"rows_per_s": "train_rows_per_s", "op_ms_p50": "trial_ms_p50", "op_ms_p90": "trial_ms_p90"},
}


class BenchError(Exception):
    pass


def spec_problems(spec) -> list[str]:
    """Everything in BENCHMARK.json that breaks the benchmark's contract."""
    if not isinstance(spec, dict) or set(spec) != SPEC_KEYS:
        return [f"BENCHMARK.json must have exactly the keys {sorted(SPEC_KEYS)}"]
    bad = []
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        bad.append("command must be a list of 1 to 32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        bad.append("command may not name absolute paths or leave the repository")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and all(isinstance(p, str) and PATH.match(p) for p in paths)):
        bad.append("paths must be 1 to 16 relative directories")
    secs = spec["run_seconds"]
    if not (isinstance(secs, int) and not isinstance(secs, bool) and 1 <= secs <= 60):
        bad.append("run_seconds must be a whole number from 1 to 60")
    names = []
    workloads = spec["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        bad.append("workloads must list 2 to 8 entries")
        workloads = []
    for w in workloads:
        if not (isinstance(w, dict) and set(w) == {"name", "why"}):
            bad.append(f"workload {w!r} must have exactly name and why")
            continue
        names.append(w["name"])
        if not (isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]):
            bad.append(f"workload {w['name']!r}: why must be one line of at most 200 characters")
    if sorted(names) != sorted(WORKLOADS):
        bad.append(f"workloads {sorted(names)} differ from the runner's {sorted(WORKLOADS)}")
    for group, lo, hi, keys in (
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        metrics = spec[group]
        if not (isinstance(metrics, list) and lo <= len(metrics) <= hi):
            bad.append(f"{group} must list {lo} to {hi} metrics")
            continue
        for m in metrics:
            if not (isinstance(m, dict) and set(m) == keys):
                bad.append(f"{group} entry {m!r} must have exactly the keys {sorted(keys)}")
                continue
            names.append(m["name"])
            if not (isinstance(m["unit"], str) and UNIT.match(m["unit"])):
                bad.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                bad.append(f"{m['name']}: better must be higher or lower")
            if "bound" in keys and not (isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25):
                bad.append(f"{m['name']}: bound must lie in (0, 0.25]")
    for n in names:
        if not (isinstance(n, str) and NAME.match(n)):
            bad.append(f"bad name {n!r}")
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        bad.append(f"names used more than once: {dup}")
    setup = [m for m in spec["end_to_end"] if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        bad.append("end_to_end needs setup_s in s, lower is better")
    return bad


def load_spec() -> dict:
    try:
        raw = SPEC_PATH.read_bytes()
        spec = json.loads(raw)
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {err}") from None
    problems = spec_problems(spec)
    if len(raw) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    if problems:
        raise BenchError("BENCHMARK.json: " + "; ".join(problems))
    return spec


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "trial_workers": TRIAL_WORKERS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def child(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON line."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"  # one dict layout for every process, one less source of spread
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--workers", str(TRIAL_WORKERS)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> tuple[dict, dict]:
    """(result line, worker info) for one workload run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(work)] + (["--smoke"] if smoke else [])
    try:
        synth.write_csv(work / "train.csv", seed)
        synth.write_csv(work / "fresh.csv", seed, FRESH_ROWS, stream=1)
        if WORKLOADS[name].kind == "score":
            child(common + ["--prepare"], deadline)
        setups = [child(common + ["--setup-only"], deadline)["setup_s"] for _ in range(0 if smoke else SETUP_RUNS - 1)]
        spans = ["--spans", str(WORK / f"spans-{name}-{seed}.jsonl")] if trace else []
        out = child(common + ["--seconds", str(seconds), "--trace", str(trace)] + spans, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = dict(out["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups + [out["setup_s"]])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.pop(m["name"], None)
        if value is None or not math.isfinite(value):
            raise BenchError(f"{name}: metric {m['name']} missing ({'; '.join(out['errors']) or 'not reported'})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if values:
        raise BenchError(f"{name}: metrics {sorted(values)} are not listed in BENCHMARK.json")
    result = {
        "correct": out["failed"] == 0 and not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return result, {"errors": out["errors"], **out["info"]}


def report(name: str, result: dict, info: dict) -> None:
    """Human-readable lines: metrics under the names a user knows them by."""
    aliases = ALIASES[WORKLOADS[name].kind]
    for key, m in result["metrics"].items():
        print(f"{name} {aliases.get(key, key)} {m['value']:.6g} {m['unit']}")
    for key, value in info.items():
        if key == "errors":
            for err in value:
                print(f"{name} check failed: {err}")
        else:
            print(f"{name} {key} {value[0]:.6g} {value[1]}")
    print(f"{name} ops attempted {result['attempted']} failed {result['failed']}")


def smoke(spec: dict) -> int:
    """The benchmark's own test: every workload, traced and untraced, at
    one-epoch size, must report exactly the listed metrics with no failed
    operation."""
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            started = time.monotonic()
            try:
                result, _ = run_workload(spec, w["name"], 0, 1.0, trace, smoke=True)
            except BenchError as err:
                problems.append(f"{w['name']} trace {trace}: {err}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{w['name']} trace {trace}: {result['failed']} failed operations")
            if not trace:
                zero = [k for k, m in result["metrics"].items() if not m["value"] > 0]
                if zero:
                    problems.append(f"{w['name']}: end-to-end metrics {zero} are not positive")
            print(f"smoke {w['name']} trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, {time.monotonic() - started:.1f} s")
    for p in problems:
        print(f"smoke FAILED: {p}")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tabnsa benchmark")
    parser.add_argument("--workload", help="a workload from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if not (ROOT / "src" / "tabnsa" / "__init__.py").is_file():
            raise BenchError(f"no tabnsa sources under {ROOT / 'src'}")
    except BenchError as err:
        print(err, file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    print("env " + json.dumps(environment(), sort_keys=True))
    results = {}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            result, info = run_workload(spec, name, args.seed, seconds, args.trace)
            report(name, result, info)
            results[name] = result
    except BenchError as err:
        print(err, file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
