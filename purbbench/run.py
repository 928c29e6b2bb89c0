"""Run one purb benchmark workload and print its metrics.

    python3 purbbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from src/.
Prints one line per metric, then, as the last line, a JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones, their times scaled to the nominal host
speed (hostspeed.py), with --trace 1 the per-layer ones.  The
run record (versions, seed, sample counts) goes to
purbbench/results/<workload>-trace<0|1>.json, and with --trace 1 the
spans to purbbench/results/<workload>-spans.jsonl.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bulk", "fanout", "mailbox")
M_MMAP_THRESHOLD = -3  # mallopt parameter, from glibc's malloc.h
MMAP_THRESHOLD = 128 * 1024  # glibc's initial value


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def pin_mmap_threshold() -> int | None:
    """Fix glibc's mmap threshold; returns it, or None where that fails.

    glibc raises the threshold each time it frees an mmapped chunk, so
    whether a large buffer is mmapped or taken from the heap depends on
    the allocation history, and a change in buffer sizes could move bulk
    timings for reasons of its own.  Set explicitly, the threshold stays
    put: every buffer of 128 KiB or more is mmapped and unmapped on free.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return None
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None


def environment() -> dict:
    import cryptography

    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    mmap_threshold = pin_mmap_threshold()
    src = ROOT / "src"
    if not (src / "purb" / "__init__.py").is_file():
        print(f"purbbench: no purb sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import purb

    if not Path(purb.__file__).resolve().is_relative_to(src):
        print(f"purbbench: purb imported from {purb.__file__}, not {src}", file=sys.stderr)
        return 2
    from purbbench.harness import run_workload

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    run.record["environment"] = environment()
    run.record["environment"]["mmap_threshold"] = mmap_threshold

    unscaled = run.record.get("unscaled_metrics", {})
    for name, (value, unit) in run.metrics.items():
        raw = unscaled.get(name, {"value": value})["value"]
        note = f"  (unscaled {raw:.4f})" if raw != value else ""
        print(f"{args.workload:8} {name:34} {value:14.4f} {unit}{note}")
    if "host_speed" in run.record:
        hs = run.record["host_speed"]
        lo, mid, hi = hs["pass_scale_min_median_max"]
        print(f"{args.workload:8} {'host speed scale per pass':34} {mid:14.4f} "
              f"{hs['reference']} {hs['median_ms']:.4f} ms, nominal {hs['nominal_ms']} ms,"
              f" range {lo:.4f}-{hi:.4f}")
    print(f"{args.workload:8} {'failed_ratio':34} {run.record['failed_ratio']:14.4f} ratio")
    for name in run.record.get("missing_targets", []):
        print(f"{args.workload:8} {name:34} {'missing':>14}")
    for prefix, info in run.record["timings"].items():
        print(f"{args.workload:8} {prefix + ' samples/tail pct/windows':34} "
              f"{info['samples']:>7} p{info['tail_percentile']} {info['tail_windows']}")

    out_dir = ROOT / "purbbench" / "results"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"{args.workload}-trace{args.trace}.json"
    run.record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()}
    record_path.write_text(json.dumps(run.record, indent=1) + "\n")
    if run.spans is not None:
        with open(out_dir / f"{args.workload}-spans.jsonl", "w") as f:
            for span in run.spans:
                f.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
