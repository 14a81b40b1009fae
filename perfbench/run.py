"""treecast benchmark: one workload, one closed-loop client, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sym-pop-bisect, hc-exact-bisect, deep-curves, oracle-couple.

``--trace 0`` repeats timed passes with inputs drawn from ``--seed`` until
another pass would end after ``--seconds``, checks every output, and
reports the end-to-end metrics (``wall_s`` is the median pass time).
``--trace 1`` runs the seed's first pass once with every layer wrapped by
the span recorder, writes the spans to ``.perfbench/`` and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

treecast is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

import os

# one BLAS/OpenMP thread: the workload is a single client on a 2-core box
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# import time has one-sided noise (bursts on a shared machine only add
# time); the median of five samples ignores up to two slowed ones
SETUP_SAMPLES = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import treecast.cli; "
                "print(time.perf_counter() - t)")


def import_treecast() -> float:
    """Import treecast from ``src/``; returns the seconds it took."""
    if not (SRC / "treecast" / "__init__.py").is_file():
        raise ImportError(f"no treecast package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import treecast.cli  # noqa: F401
    return time.perf_counter() - t0


def fresh_import_seconds() -> float:
    """Import time of treecast.cli in a new interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         cwd=ROOT, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(make_inputs, run_pass, seed: int, seconds: float, import_s: float):
    """Timed passes until the next one would end after ``seconds``."""
    t0 = time.perf_counter()
    first = make_inputs(seed, 0)
    build_s = time.perf_counter() - t0
    imports = [import_s] + [fresh_import_seconds() for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(imports) + build_s

    start = time.perf_counter()
    results = [run_pass(first)]
    while True:
        median = statistics.median(r.seconds for r in results)
        if time.perf_counter() - start + median > seconds:
            break
        results.append(run_pass(make_inputs(seed, len(results))))
    walls = [r.seconds for r in results]
    metrics = {"wall_s": statistics.median(walls), "setup_s": setup_s,
               "peak_rss_mb": peak_rss_mb()}
    notes = {"passes": len(results), "pass_wall_s": walls, "setup_samples_s": imports}
    for key in results[0].notes:
        notes[key] = [r.notes[key] for r in results]
    return results, metrics, notes


def run_traced(make_inputs, run_pass, seed: int, workload: str):
    """The seed's first pass, once, with every layer traced."""
    from tracer import Tracer, layer_metrics, per_call_overhead

    inputs = make_inputs(seed, 0)
    tracer = Tracer()
    tracer.install()
    result = run_pass(inputs)
    layers = layer_metrics(tracer)
    per_call = per_call_overhead()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")

    layers["trace.wall_s"] = result.seconds
    layers["trace.overhead_s"] = per_call * layers["trace.spans"]
    return [result], layers, dict(result.notes)


def with_units(values: dict, declared: list) -> dict:
    """Attach each metric's unit from BENCHMARK.json; the names must match."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not "
                           "both measured and declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_treecast()
    except ImportError as err:
        print(f"error: cannot import treecast: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, run_pass = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        results, values, notes = run_traced(make_inputs, run_pass, args.seed, args.workload)
        metrics = with_units(values, declared["per_layer"])
    else:
        results, values, notes = run_untraced(make_inputs, run_pass, args.seed,
                                              args.seconds, import_s)
        metrics = with_units(values, declared["end_to_end"])

    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"#   {name} = {metric['value']!r} {metric['unit']}")
    for name, value in notes.items():
        print(f"#   {name} = {value!r}")
    print(f"#   ops = {attempted}, ops_failed = {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
