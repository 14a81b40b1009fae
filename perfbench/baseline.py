"""Run the benchmark over several seeds and summarise it as a baseline.

Usage (from the repository root)::

    python3 perfbench/baseline.py --label COMMIT [--out .perfbench/baseline.json]

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` once per
seed 1..10, one after another, for BENCHMARK.json's ``run_seconds``, and
reports each end-to-end metric's median, quartiles and spread (the
distance between the quartiles over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them).  It then runs
``run.py --trace 1`` twice with seed 1, checks that the counts repeat,
and reports the per-layer metrics and each layer's self time as a share
of the traced pass.  The machine (CPU model, cores, memory) is recorded
with the numbers.
"""

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACED_SEEDS = [1, 1]
COUNTS = ("atoms.grid_merge.calls", "atoms.grid_merge.atoms_in", "evolution.evolve.calls",
          "evolution.evolve.attempts", "evolution.evolve.wasted_atoms_in",
          "channels.llr_step.calls", "sampling.population_evolve_anchored.samples_out",
          "threshold.decide_reconstruction.calls", "conditioning.build_coupling.pairs_out")


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo") as fh:
        kb = int(fh.readline().split()[1])
    info["ram_gb"] = round(kb / 2**20, 1)
    return info


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, notes printed before it)."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    notes = {}
    for line in lines[:-1]:
        name, sep, value = line.lstrip("# ").partition(" = ")
        if sep:
            try:
                notes[name] = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                notes[name] = value
    return json.loads(lines[-1]), notes


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="commit or build being measured")
    parser.add_argument("--out", default=str(ROOT / ".perfbench" / "baseline.json"))
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {"label": args.label, "machine": machine(), "run_seconds": seconds,
              "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = {"seeds": SEEDS, "end_to_end": {}}
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        for name in runs[0][0]["metrics"]:
            entry["end_to_end"][name] = summary([r["metrics"][name]["value"] for r, _ in runs])
            entry["end_to_end"][name]["unit"] = runs[0][0]["metrics"][name]["unit"]
            print(f"{workload:16s} {name:12s} median {entry['end_to_end'][name]['median']:.4g}"
                  f"  spread {entry['end_to_end'][name]['spread']:.4f}", flush=True)
        entry["ops"] = sum(r["attempted"] for r, _ in runs)
        entry["ops_failed"] = sum(r["failed"] for r, _ in runs)
        entry["checks"] = {key: [n[key] for _, n in runs]
                           for key in ("threshold_abs_err", "lambda_hat",
                                       "posterior_mean_residual", "marginal",
                                       "gap_identity") if key in runs[0][1]}

        traced = []
        for seed in TRACED_SEEDS:
            result, _ = run(workload, seed, seconds, 1)
            layers = {k: v["value"] for k, v in result["metrics"].items()}
            wall = layers["trace.wall_s"]
            traced.append({
                "seed": seed, "per_layer": layers,
                "share_of_wall": {k[:-len(".self_s")]: v / wall for k, v in layers.items()
                                  if k.endswith(".self_s")},
            })
        counts = [{k: t["per_layer"][k] for k in COUNTS} for t in traced]
        entry["counts_repeat"] = all(c == counts[0] for c in counts)
        entry["traced"] = traced
        print(f"{workload:16s} ops {entry['ops']} failed {entry['ops_failed']} "
              f"counts_repeat {entry['counts_repeat']}", flush=True)
        report["workloads"][workload] = entry

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
