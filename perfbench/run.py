"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lj_liquid_process --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` of the same checkout;
without it the command fails with exit code 2 and prints no result.
The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Lines before it are a human-readable
summary.  See README.md for the workloads and metrics.
"""

import os

# Pin BLAS/OpenMP pools before numpy is first imported: on a shared
# 2-CPU host a second pool thread per process only adds contention.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="lj_liquid_process, snap_carbon or segment_service")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


def stop_resource_tracker() -> None:
    """Stop (and wait for) the tracker process shared memory started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if callable(stop):
        stop()


def metric_block(values: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        import_program()
    except ImportError as err:
        print(f"cannot import the program: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=tmp_root))
    try:
        out = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), scratch,
                                     ROOT / ".perfbench-out")
    except Exception:  # report any failure as a non-result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
        stop_resource_tracker()

    checks = out["checks"]
    for note in checks.notes:
        print(note)
    print("counters " + json.dumps(out["counters"], sort_keys=True))
    for name, (value, unit) in out["e2e"].items():
        line = f"{name:>24} {value:14.6g} {unit}"
        if "traced_e2e" in out:
            line += f"   traced {out['traced_e2e'][name][0]:14.6g}"
        print(line)
    if args.trace:
        acct = out["acct"]
        print(f"trace: {acct['ntracks']} tracks, identity residual "
              f"{acct['residual_s']:.3g} s, unaccounted per track "
              + json.dumps({k: round(v, 6)
                            for k, v in acct["unaccounted_s"].items()}))
        metrics = metric_block(out["layers"])
    else:
        metrics = metric_block(out["e2e"])
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
