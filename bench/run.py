"""Pipeline benchmark for twotower.

Usage, from the repository root:

    python3 bench/run.py --workload train-2k --seed 1 --seconds 55 --trace 0

Tests of the benchmark's own arithmetic: ``python3 -m pytest bench``.

Workloads (see BENCHMARK.json for why each was chosen):

* ``train-2k``: CLI ``train`` on 2000 images x 5 captions.
* ``eval-2k``: CLI ``eval`` of 1000 test captions against a 2000-image index.

Both also sample every other stage in small slices, so each run reports
every metric; see ``workloads.py``.

The package is imported from the checkout's ``src/`` (a sibling of this
directory), never from an installed copy; without it the run exits 1. Inputs are generated from ``--seed`` into a work directory
under ``.bench_work/``, which is removed afterwards; a results file with
the environment and details is kept in ``.bench_work/results/``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer metrics from a
traced run with ``--trace 1``).
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cap_blas_threads(n):
    """Let BLAS start no more than ``n`` threads; numpy reads these on import."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= n:
            os.environ[var] = str(n)


def _import_package():
    src = ROOT / "src"
    if not (src / "twotower" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src / 'twotower'}")
    sys.path.insert(0, str(src))
    import twotower
    import twotower.cli

    if Path(twotower.__file__).resolve().parent != (src / "twotower").resolve():
        raise SystemExit(f"bench: imported twotower from {twotower.__file__}, not {src}")
    return twotower


def main(argv=None):
    sys.path.insert(0, str(HERE))
    import harness

    _cap_blas_threads(harness.nproc())
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tt = _import_package()
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    session = workloads.Session(tt, work, args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    try:
        workloads.WORKLOADS[args.workload](session)
    except Exception as e:  # a program whose outputs break the benchmark fails the run
        session.ops.refused("benchmark", f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = session.ops
    if args.trace:
        metrics = session.layer_metrics(session.focus_kind)
    else:
        metrics = dict(session.metrics)
        metrics["ok_frac"] = (1.0 - ops.failed_frac, "frac")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "environment": harness.environment(),
        "result": result,
        "absent_layers": session.absent,
        "errors": ops.errors[:50],
        "details": session.info,
    }
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    for err in ops.errors[:10]:
        print(f"bench: failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
