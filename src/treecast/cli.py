"""Command-line surface: reproducible experiments with machine-readable output.

Subcommands
-----------
bounds
    Closed-form bound report for a channel family.
evolve
    Diagnostic-vs-depth curve (exact or population engine), CSV or JSON.
threshold
    Bisection estimate of the reconstruction threshold with history.
couple
    Materialize the diagonal-plus-crossing coupling at a depth.
hardcore-check
    Single-site conditional residuals and the adjacent-occupancy scan.
verify
    Run the built-in invariant suite; optionally focus on one channel.

Every output embeds the resolved run configuration, the seed included where
the subcommand takes one (a flag it does not take is null), and re-running
an emitted configuration reproduces the file byte for byte.
Exit codes: 0 success, 2 validation or any other typed error, 3 resource
limit, 4 bad bisection bracket.  The only environment variable honored is
``TREECAST_OUT_DIR``, the base directory for relative ``--out`` paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys

import numpy as np

from .errors import (AtomExplosion, BadBracket, DegenerateChannel,
                     InvalidParameter, ResourceLimit, TreecastError)
from .channels import (BinaryChannel, make_channel, symmetric_channel,
                       hardcore_channel, w_of_lambda, lambda_of_w,
                       gap_kernel, gap_kernel_peak,
                       mossel_peres_lhs, geometric_mean_bound_lhs)
from .evolution import (deep_policy, exact_policy, base_pair, evolve,
                        evolve_to_depth, trajectory, diagnostics, mean_gap,
                        gap_identity_residual)
from .conditioning import build_coupling, verify_sandwich
from .sampling import (population_from_pair, population_evolve_anchored,
                       estimate_diagnostics)
from .hardcore import gibbs_conditional_sweep, brw_independence_check
from .threshold import ChannelFamily, bisect_threshold, bounds_report
from . import serialize

# non-string sentinel: argparse type-converts a str const for nargs="?"
_FAMILY_ONLY = object()
# destinations of the channel flags; each is None unless its flag is given
_CHANNEL_FLAGS = ("symmetric", "hardcore", "hardcore_w", "hardcore_lambda", "matrix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecast",
        description="Broadcasting on k-ary trees: density evolution, "
                    "couplings, and reconstruction thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel_flags(sp):
        sp.add_argument("--symmetric", nargs="?", type=float, const=_FAMILY_ONLY,
                        metavar="EPS", help="symmetric channel with flip "
                        "probability EPS (bare flag selects the family only)")
        sp.add_argument("--hardcore", action="store_true", default=None,
                        help="select the hard-core family without a parameter")
        sp.add_argument("--hardcore-w", type=float, metavar="W",
                        help="hard-core channel with occupation weight W")
        sp.add_argument("--hardcore-lambda", type=float, metavar="L",
                        help="hard-core channel with activity L")
        sp.add_argument("--matrix", nargs=2, type=float, metavar=("P00", "P10"),
                        help="explicit channel from its first column")

    def add_run_flags(sp, *read, depth_default=None):
        """Add ``--k`` and ``--out``, and of ``depth``, ``engine``, ``pop_size``,
        ``seed`` and ``format`` the flags named in ``read``, which the handler reads."""
        sp.add_argument("--k", type=int, default=2, help="branching number")
        if "depth" in read:
            sp.add_argument("--depth", type=int, default=depth_default)
        if "engine" in read:
            sp.add_argument("--engine", choices=["exact", "population"], default=None)
        if "pop_size" in read:
            sp.add_argument("--pop-size", type=int, default=100_000,
                            help="population size / sample count")
        if "seed" in read:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None,
                        help="output path ('-' or omitted: stdout); relative "
                             "paths resolve under $TREECAST_OUT_DIR")
        if "format" in read:
            sp.add_argument("--format", choices=["json", "csv"], default=None)

    sp = sub.add_parser("bounds", help="closed-form bound report for a family")
    add_channel_flags(sp)
    add_run_flags(sp)

    sp = sub.add_parser("evolve", help="diagnostic-vs-depth curve")
    add_channel_flags(sp)
    add_run_flags(sp, "depth", "engine", "pop_size", "seed", "format",
                  depth_default=8)

    sp = sub.add_parser("threshold", help="bisection threshold estimate")
    add_channel_flags(sp)
    add_run_flags(sp, "depth", "engine", "pop_size", "seed")
    sp.add_argument("--bracket", nargs=2, type=float, metavar=("LO", "HI"))
    sp.add_argument("--tol", type=float, default=None)

    sp = sub.add_parser("couple", help="emit the coupling at a depth")
    add_channel_flags(sp)
    add_run_flags(sp, "depth", "format", depth_default=4)

    sp = sub.add_parser("hardcore-check",
                        help="single-site conditionals and occupancy scan")
    add_channel_flags(sp)
    add_run_flags(sp, "depth", "pop_size", "seed", depth_default=3)

    sp = sub.add_parser("verify", help="run the built-in invariant suite")
    add_channel_flags(sp)
    add_run_flags(sp, "seed")
    return parser


def _parse_channel(args, k: int, allow_family_only: bool):
    """Resolve the channel flags to (description dict, channel or None).

    Exactly one spec must be present; a bare family selector yields a
    description without a concrete channel (allowed only where a family
    suffices).
    """
    given = _given_channel_flags(args)
    if len(given) != 1:
        flags = " | ".join("--" + name.replace("_", "-") for name in _CHANNEL_FLAGS)
        raise InvalidParameter(
            f"exactly one channel spec is required ({flags}); got {len(given)}")

    kind = given[0]
    if kind == "symmetric":
        if args.symmetric is _FAMILY_ONLY:
            if not allow_family_only:
                raise InvalidParameter("--symmetric needs a value EPS here")
            return {"kind": "symmetric"}, None
        eps = float(args.symmetric)
        return {"kind": "symmetric", "eps": eps}, symmetric_channel(eps)
    if kind == "hardcore":
        if not allow_family_only:
            raise InvalidParameter(
                "--hardcore selects a family; use --hardcore-w or --hardcore-lambda here")
        return {"kind": "hardcore"}, None
    if kind in ("hardcore_w", "hardcore_lambda"):
        w = (args.hardcore_w if kind == "hardcore_w"
             else w_of_lambda(args.hardcore_lambda, k))
        c = hardcore_channel(w)
        return {"kind": "hardcore", "w": w, "lambda": lambda_of_w(w, k)}, c
    p00, p10 = args.matrix
    return {"kind": "matrix", "p00": p00, "p10": p10}, make_channel(p00, p10)


def _given_channel_flags(args) -> list:
    return [name for name in _CHANNEL_FLAGS if getattr(args, name) is not None]


def _run_config(args, channel_desc: dict, depth, engine, fmt) -> dict:
    # a run flag the subcommand does not take is null
    return {"command": args.command, "channel": channel_desc, "k": args.k,
            "depth": depth, "engine": engine, "pop_size": vars(args).get("pop_size"),
            "seed": vars(args).get("seed"), "out": args.out, "format": fmt}


def _emit(args, text: str) -> None:
    if args.out in (None, "-"):
        sys.stdout.write(text)
        return
    path = args.out
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get("TREECAST_OUT_DIR", "."), path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def cmd_bounds(args) -> int:
    desc, _ = _parse_channel(args, args.k, allow_family_only=True)
    if desc["kind"] not in ("symmetric", "hardcore"):
        raise InvalidParameter("bounds requires a family (--symmetric or --hardcore)")
    report = bounds_report(args.k, desc["kind"])
    config = _run_config(args, desc, depth=None, engine=None, fmt="json")
    payload = {"config": config, "report": report.as_dict()}
    _emit(args, serialize.report_json(payload))
    return 0


def cmd_evolve(args) -> int:
    desc, c = _parse_channel(args, args.k, allow_family_only=False)
    engine = args.engine or "exact"
    depth = args.depth
    fmt = args.format or "csv"
    config = _run_config(args, desc, depth=depth, engine=engine, fmt=fmt)

    first = base_pair(c, args.k)
    if engine == "exact":
        # ``evolve`` is looked up at each step, so a wrapper installed on
        # ``cli.evolve`` sees every pair
        step = lambda p: evolve(p, c, args.k, deep_policy())
        measure = diagnostics
    else:
        first = population_from_pair(first, args.pop_size, args.seed)
        step = lambda p: population_evolve_anchored(p, c, args.k)
        measure = estimate_diagnostics
    rows = [{"depth": s.depth, **measure(s, c)} for s in trajectory(first, step, depth)]

    if fmt == "csv":
        _emit(args, serialize.curve_csv(rows, config))
    else:
        _emit(args, serialize.report_json({"config": config, "rows": rows}))
    return 0


def cmd_threshold(args) -> int:
    desc, _ = _parse_channel(args, args.k, allow_family_only=True)
    if desc["kind"] not in ("symmetric", "hardcore"):
        raise InvalidParameter("threshold requires a family (--symmetric or --hardcore)")
    family = ChannelFamily(kind=desc["kind"], k=args.k)
    bracket = tuple(args.bracket) if args.bracket else None
    estimate = bisect_threshold(family, depth=args.depth, engine=args.engine,
                                tol=args.tol, seed=args.seed, bracket=bracket,
                                pop_size=args.pop_size)
    config = _run_config(args, desc, depth=estimate.depth,
                         engine=estimate.engine, fmt="json")
    payload = {"config": config, "estimate": dataclasses.asdict(estimate)}
    _emit(args, serialize.report_json(payload))
    return 0


def cmd_couple(args) -> int:
    desc, c = _parse_channel(args, args.k, allow_family_only=False)
    depth = args.depth
    fmt = args.format or "csv"
    pair = evolve_to_depth(c, args.k, depth, deep_policy())
    coupling = build_coupling(pair, c)
    config = _run_config(args, desc, depth=depth, engine="exact", fmt=fmt)
    if fmt == "csv":
        _emit(args, serialize.coupling_csv(coupling, config))
    else:
        res0, res1 = coupling.marginal_residuals(pair)
        payload = {"config": config,
                   "pairs": [[float(a), float(b), float(w)] for a, b, w in
                             zip(*coupling.pairs())],
                   "marginal_residual0": res0, "marginal_residual1": res1,
                   "crossing_ok": coupling.crossing_ok(),
                   "mean_difference": coupling.mean_difference()}
        _emit(args, serialize.report_json(payload))
    return 0


def _check(name: str, residual, passed) -> dict:
    """One check record of a JSON report: its name, residual and verdict."""
    return {"name": name, "residual": float(residual), "passed": bool(passed)}


def cmd_hardcore_check(args) -> int:
    desc, c = _parse_channel(args, args.k, allow_family_only=False)
    if desc["kind"] != "hardcore":
        raise InvalidParameter("hardcore-check requires --hardcore-w or --hardcore-lambda")
    depth = args.depth
    config = _run_config(args, desc, depth=depth, engine=None, fmt="json")

    occupancy = brw_independence_check(c, args.k, depth, args.pop_size, seed=args.seed)
    res_rooted = gibbs_conditional_sweep(desc["w"], args.k, depth, center_root=False)
    res_center = gibbs_conditional_sweep(desc["w"], args.k, depth, center_root=True)
    checks = [
        _check("single_site_conditional_rooted", res_rooted, res_rooted <= 1e-12),
        _check("single_site_conditional_center_root", res_center, res_center <= 1e-12),
        {"name": "no_adjacent_occupied", "violations": occupancy.violations,
         "samples": occupancy.samples, "passed": occupancy.passed},
    ]
    ok = all(chk["passed"] for chk in checks)
    payload = {"config": config, "checks": checks, "all_passed": ok}
    _emit(args, serialize.report_json(payload))
    return 0 if ok else 1


def _verify_suite(seed: int) -> list:
    """Fast built-in invariant suite shared by ``verify``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    checks = []

    # depth-recursion mean identity on random interior channels
    worst = 0.0
    for _ in range(20):
        c = make_channel(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        for k in (1, 2):
            pairs = trajectory(base_pair(c, k), lambda p: evolve(p, c, k, exact_policy()), 3)
            for pair, nxt in itertools.pairwise(pairs):
                worst = max(worst, gap_identity_residual(nxt, pair, c, k))
    checks.append(_check("mean_gap_identity", worst, worst <= 1e-9))

    # coupling marginals and crossing
    worst = 0.0
    crossing = True
    cases = [(symmetric_channel(0.2), 2), (symmetric_channel(0.35), 2),
             (hardcore_channel(1.0), 1), (hardcore_channel(1.0), 2)]
    for c, k in cases:
        pair = evolve_to_depth(c, k, 4, deep_policy())
        coupling = build_coupling(pair, c)
        r0, r1 = coupling.marginal_residuals(pair)
        worst = max(worst, r0, r1)
        crossing = crossing and coupling.crossing_ok()
    checks.append(_check("coupling_marginals", worst, worst <= 1e-12 and crossing))

    # conditional-probability sandwich on random finite spaces
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(4, 17))
        probs = rng.dirichlet(np.ones(n))
        b = rng.random(n) < 0.5
        if not 0 < probs[b].sum() < 1:
            continue
        labels = rng.integers(0, max(2, n // 3), size=n)
        cells = np.unique(labels)
        chosen = cells[rng.random(len(cells)) < 0.6]
        d = np.isin(labels, chosen)
        conds = []
        for cell in chosen:
            mask = labels == cell
            mass = probs[mask].sum()
            if mass > 0:
                conds.append(probs[mask & b].sum() / mass)
        if not conds:
            continue
        verdict = verify_sandwich(probs, b, labels, d,
                                  p0=max(0.0, min(conds) - 1e-9),
                                  p1=min(1.0, max(conds) + 1e-9))
        if not verdict.passed:
            violations += 1
    checks.append(_check("sandwich_inequality", violations, violations == 0))

    # hard-core single-site conditionals
    res = max(gibbs_conditional_sweep(1.0, 2, 3, center_root=False),
              gibbs_conditional_sweep(1.0, 2, 3, center_root=True))
    checks.append(_check("single_site_conditional", res, res <= 1e-12))

    # bound ordering plus the three equality classes
    worst_order = 0.0
    for _ in range(1000):
        c = make_channel(rng.uniform(0, 1), rng.uniform(0, 1))
        try:
            worst_order = max(worst_order,
                              geometric_mean_bound_lhs(c) - mossel_peres_lhs(c))
        except DegenerateChannel:
            continue
    worst_eq = 0.0
    for _ in range(100):
        eps = rng.uniform(0.01, 0.99)
        c = symmetric_channel(eps)
        worst_eq = max(worst_eq, abs(geometric_mean_bound_lhs(c) - mossel_peres_lhs(c)))
        c = hardcore_channel(rng.uniform(0.1, 5.0))
        worst_eq = max(worst_eq, abs(geometric_mean_bound_lhs(c) - mossel_peres_lhs(c)))
        p = rng.uniform(0.05, 0.95)
        c = make_channel(p, p)
        worst_eq = max(worst_eq, abs(geometric_mean_bound_lhs(c) - mossel_peres_lhs(c)))
    checks.append(_check("bound_ordering", max(worst_order, worst_eq),
                         worst_order <= 1e-12 and worst_eq <= 1e-12))

    # kernel-peak closed form vs finite differences
    xs = np.linspace(-20.0, 20.0, 10_001)
    worst = 0.0
    for _ in range(100):
        c = make_channel(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        _, value = gap_kernel_peak(c)
        fx = gap_kernel(c, xs)
        grid_max = float(np.max(np.diff(fx) / np.diff(xs)))
        worst = max(worst, abs(value - grid_max))
    checks.append(_check("kernel_peak", worst, worst <= 1e-6))
    return checks


def _verify_channel(c: BinaryChannel, k: int) -> list:
    """Channel-specific checks for ``verify`` with a channel flag."""
    checks = []
    pair1, pair2, pair3 = trajectory(base_pair(c, k),
                                     lambda p: evolve(p, c, k, exact_policy()), 3)
    res = max(gap_identity_residual(pair2, pair1, c, k),
              gap_identity_residual(pair3, pair2, c, k))
    checks.append(_check("mean_gap_identity", res, res <= 1e-9))
    coupling = build_coupling(pair3, c)
    res = max(coupling.marginal_residuals(pair3))
    checks.append(_check("coupling_marginals", res, res <= 1e-12 and coupling.crossing_ok()))
    if c.p01 == c.p11:
        gap = abs(mean_gap(pair3))
        checks.append(_check("rows_equal_mean_gap", gap, gap <= 1e-10))
    if min(c.p00, c.p01, c.p10, c.p11) > 0:
        _, value = gap_kernel_peak(c)
        diff = abs(value - geometric_mean_bound_lhs(c))
        checks.append(_check("kernel_peak_closed_form", diff, diff <= 1e-12))
    return checks


def cmd_verify(args) -> int:
    channel = None
    desc: dict = {"kind": "suite"}
    if _given_channel_flags(args):
        desc, channel = _parse_channel(args, args.k, allow_family_only=False)
    config = _run_config(args, desc, depth=None, engine=None, fmt="json")
    checks = (_verify_channel(channel, args.k) if channel is not None
              else _verify_suite(args.seed))
    ok = all(chk["passed"] for chk in checks)
    payload = {"config": config, "checks": checks, "all_passed": ok}
    _emit(args, serialize.report_json(payload))
    return 0 if ok else 1


# what to change after a resource limit (exit 3), by subcommand and error:
# an atom or pair count comes from the exact engine, a ResourceLimit from
# the population engine or the sampler
_POPULATION_HINT = "the population engine (--engine population) sidesteps atom blowup"
_HINTS = {
    ("evolve", AtomExplosion): _POPULATION_HINT,
    ("threshold", AtomExplosion): _POPULATION_HINT,
    ("evolve", ResourceLimit): "raise --pop-size",
    ("threshold", ResourceLimit): "raise --pop-size",
    ("couple", AtomExplosion): "lower --depth or --k",
    ("hardcore-check", ResourceLimit): "lower --pop-size or --depth",
    ("verify", AtomExplosion): "lower --k",
}

_DISPATCH = {
    "bounds": cmd_bounds,
    "evolve": cmd_evolve,
    "threshold": cmd_threshold,
    "couple": cmd_couple,
    "hardcore-check": cmd_hardcore_check,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _DISPATCH[args.command](args)
    except (AtomExplosion, ResourceLimit) as err:
        print(f"error: {err}", file=sys.stderr)
        hint = _HINTS.get((args.command, type(err)))
        if hint:
            print(f"hint: {hint}", file=sys.stderr)
        return 3
    except BadBracket as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except TreecastError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
