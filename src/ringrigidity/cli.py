"""Command-line surface with JSON output.

Every invocation prints one CommandResult object: command echo, the
mathematical parameters of the query, a status, the payload, and elapsed
wall time in milliseconds. Execution knobs (worker count, output format,
timing suppression) are not part of the result identity and are not
echoed, so runs that differ only in those knobs produce identical JSON.

Exit codes: 0 ok, 2 usage or validation, 3 capacity, 4 arithmetic
overflow, 5 failed internal invariant (a bug, never user error). Every
failure prints the same envelope with status "error" and the reason in
payload.message. All numbers in the payload are exact integers.

Every call is a fresh process, so the module imports only what the census
commands run: the ``verify-scaled``, ``scaled-units`` and ``matrix-demo``
handlers import ``scaled`` or ``matrices`` when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .abelian import GroupSpec, IntegerWindow
from .enumeration import (
    DEFAULT_BUDGET,
    FULL_TABLE_CAP,
    SearchConfig,
    charge,
    classify_cyclic,
    expand_to_full_table,
    full_table_oracle,
    rigidity_report,
)
from .errors import (
    CapacityError,
    IntegerOverflowError,
    InvariantViolation,
    UsageError,
)
from .structures import cyclic_constants

BUDGET_ENV_VAR = "RIGIDITY_BUDGET"

# the exit code of each failure; success exits 0
_EXIT_CODES = {
    UsageError: 2,
    CapacityError: 3,
    IntegerOverflowError: 4,
    InvariantViolation: 5,
}


def _budget() -> int:
    """The work budget: $RIGIDITY_BUDGET, a positive integer, or the default."""
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0  # refused below, with the same message
    if budget < 1:
        raise UsageError(f"{BUDGET_ENV_VAR} must be a positive integer, got {env!r}")
    return budget


def _group_json(spec: GroupSpec) -> dict:
    return {
        "moduli": list(spec.moduli),
        "order": spec.order,
        "cyclic": spec.is_cyclic,
    }


def _run_enumerate(args) -> tuple[dict, dict]:
    spec = GroupSpec.parse(args.group)
    config = SearchConfig(workers=args.workers, budget=_budget())
    report = rigidity_report(spec, config)
    payload = {
        "group": _group_json(spec),
        "total": report.total,
        "commutative": report.commutative_count,
        "unital": report.unital_count,
        "unital_scales": (
            list(report.unital_scales) if report.unital_scales is not None else None
        ),
        "scaled_form_all": report.scaled_form_all,
        "search_space": report.search_space,
        "unital_examples": [
            {
                "table": ring.mult.table,
                "unit": list(ring.unit.coords),
            }
            for ring in report.unital_examples
        ],
    }
    return {"group": args.group}, payload


def _scale_rows(modulus: int, pairs) -> tuple[list[dict], list[int]]:
    """Rows of Z/modulus from (scale, unit or None) pairs, and the unital scales."""
    rows = [
        dict(scale=s, unital=u is not None, unit=u, is_minus_one=s == modulus - 1)
        for s, u in pairs
    ]
    return rows, [row["scale"] for row in rows if row["unital"]]


def _run_classify(args) -> tuple[dict, dict]:
    modulus = args.modulus
    config = SearchConfig(budget=_budget())
    entries = classify_cyclic(modulus, config)
    rows, unital_scales = _scale_rows(modulus, ((e.scale, e.unit) for e in entries))
    payload = {
        "modulus": modulus,
        "candidates": rows,
        "unital_scales": unital_scales,
    }
    if modulus <= FULL_TABLE_CAP:
        # the raw oracle meets the kernel's own expansion of each census table
        classified = frozenset(
            expand_to_full_table(cyclic_constants(modulus, e.scale)) for e in entries
        )
        oracle = full_table_oracle(modulus)
        payload["oracle"] = "agree" if oracle == classified else "disagree"
    return {"modulus": modulus}, payload


def _verify_scaled_work(samples: int, bound: int) -> int:
    """Black-box multiplications of verify-scaled: 12s + 3(2b + 1) at most.

    Each identity sample takes 12 products: 4 for associativity, 6 for
    two-sided distributivity and 2 for commutativity. The unit scan
    screens each candidate u with one product, and only the unit, if
    there is one, goes on to 2 products per window element.
    """
    return 12 * samples + 3 * (2 * bound + 1)


def _run_verify_scaled(args) -> tuple[dict, dict]:
    from . import scaled

    a = args.a
    samples = scaled.IDENTITY_SAMPLES if args.samples is None else args.samples
    window = IntegerWindow(args.bound)  # invalid input is a usage error first
    if samples < 0:
        raise UsageError(f"samples must be >= 0, got {samples}")
    charge(
        _verify_scaled_work(samples, args.bound), _budget(),
        f"multiplications in verify-scaled at bound={args.bound}, "
        f"samples={samples}",
    )
    suite = scaled.scaled_identity_suite(a, args.bound, samples)
    scanned = scaled.find_unit_windowed(scaled.ScaledMult(a), window)
    closed = scaled.unit_of_scaled(a)
    note = {1: "usual ring", -1: "alternate ring"}.get(a)
    payload = {
        "scale": a,
        "bound": args.bound,
        "samples": suite.samples,
        "identities_ok": suite.ok,
        "failure": suite.failure,
        "unit": scanned,
        "closed_form_unit": closed,
        "unit_scan_agrees": scanned == closed,
        "note": note,
        "passed": suite.ok and scanned == closed,
    }
    params = {"a": a, "bound": args.bound, "samples": samples}
    return params, payload


def _matrix_demo_work(n: int) -> int:
    """Scalar multiply-adds of matrix-demo: 9014*n^3 + 9008*n^2.

    A standard product takes n^3 multiply-adds, a Hadamard product n^2.
    Each mode samples ``AXIOM_TRIPLES`` triples of 9 products and checks
    its unit on ``UNIT_CHECKS`` samples of 2; the standard mode also builds
    the witness twice and multiplies it both ways (6 products). The count
    is exact for n >= 2; at n = 1 there is no witness.
    """
    from . import matrices

    per_mode = 9 * matrices.AXIOM_TRIPLES + 2 * matrices.UNIT_CHECKS
    return (per_mode + 6) * n**3 + per_mode * n**2


def _run_matrix_demo(args) -> tuple[dict, dict]:
    from . import matrices

    n, modulus = args.n, args.mod
    # an invalid modulus is a usage error first
    matrices.MatrixElement(modulus, ((0,),))
    charge(
        _matrix_demo_work(n), _budget(),
        f"scalar multiply-adds in matrix-demo at n={n}",
    )
    modes = (matrices.STANDARD, matrices.HADAMARD)
    units = {mode: matrices.unit_matrix(mode, n, modulus).to_lists() for mode in modes}
    witness = matrices.noncommutativity_witness(n, modulus)
    witness_json = None
    if witness is not None:
        a, b = witness
        witness_json = {
            "a": a.to_lists(),
            "b": b.to_lists(),
            "ab": matrices.mat_mul_standard(a, b).to_lists(),
            "ba": matrices.mat_mul_standard(b, a).to_lists(),
        }
    payload = {
        "n": n,
        "modulus": modulus,
        "units": units,
        "noncommutativity_witness": witness_json,
        "axiom_checks": {
            mode: matrices.sample_axioms(mode, n, modulus) for mode in modes
        },
        "note": "modes coincide at n=1" if n == 1 else None,
    }
    return {"n": n, "mod": modulus}, payload


def _scaled_units_work(modulus: int) -> int:
    """Ring products of scaled-units on Z/N: 5N^2 + 7N at most.

    One reciprocal scan of N^2, N + 1 unit searches (the base ring's and
    one per scale) and 3 products per ``scale_ring``. A unit search
    screens with cached masks, no products, and confirms its one survivor
    with one row and one column, 2N products; it is charged 4N, an upper
    bound kept so that the budget at which the command exits 3 stays put.
    """
    return modulus**2 + (modulus + 1) * 4 * modulus + 3 * modulus


def _run_scaled_units(args) -> tuple[dict, dict]:
    from . import scaled

    modulus = args.modulus
    GroupSpec((modulus,))  # an invalid modulus is a usage error first
    charge(
        _scaled_units_work(modulus), _budget(),
        f"ring products in scaled-units on Z/{modulus}",
    )
    ring = scaled.usual_cyclic_ring(modulus)
    violation = scaled.find_pm1_violation(ring)
    entries = scaled.scaled_unit_sweep(ring)
    if violation is None:
        scaled.require_pm1_rule(ring, entries)
    pm_one_scales = sorted(c for (c,) in scaled.pm1_scales(ring))
    rows, unital_scales = _scale_rows(modulus, (
        (e.scale.coords[0], None if e.unit is None else e.unit.coords[0])
        for e in entries
    ))
    payload = {
        "modulus": modulus,
        "pm1_only_units": violation is None,
        "violation": (
            None
            if violation is None
            else {"a": violation[0].coords[0], "u": violation[1].coords[0]}
        ),
        "pm_one_scales": pm_one_scales,
        "entries": rows,
        "unital_scales": unital_scales,
        "departures": sorted(set(unital_scales) - set(pm_one_scales)),
        "matches_pm1_rule": unital_scales == pm_one_scales,
    }
    return {"modulus": modulus}, payload


_HANDLERS = {
    "enumerate": _run_enumerate,
    "classify": _run_classify,
    "verify-scaled": _run_verify_scaled,
    "matrix-demo": _run_matrix_demo,
    "scaled-units": _run_scaled_units,
}


@functools.cache  # one parser serves every run of the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringrigidity",
        description=(
            "Census of ring multiplications compatible with a fixed abelian "
            "addition"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--text", action="store_true",
            help="emit a human-readable summary instead of JSON",
        )
        p.add_argument(
            "--no-timing", action="store_true",
            help="report elapsed_ms as 0, for reproducible output",
        )

    p = sub.add_parser("enumerate", help="census of ring multiplications on a group")
    p.add_argument("--group", required=True, help="comma-separated moduli, e.g. 2,2,3")
    p.add_argument("--workers", type=int, default=1)
    common(p)

    p = sub.add_parser("classify", help="per-scale classification on Z/N")
    p.add_argument("--modulus", type=int, required=True)
    common(p)

    p = sub.add_parser("verify-scaled", help="ring identities and unit of a*n*m")
    p.add_argument("--a", type=int, required=True, help="the scale factor")
    p.add_argument("--bound", type=int, required=True, help="window half-width")
    p.add_argument("--samples", type=int)  # None: scaled.IDENTITY_SAMPLES
    common(p)

    p = sub.add_parser("matrix-demo", help="two ring structures on one matrix group")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--mod", type=int, required=True, help="entry modulus")
    common(p)

    p = sub.add_parser("scaled-units", help="unitality of scaled rings over Z/N")
    p.add_argument("--modulus", type=int, required=True)
    common(p)

    return parser


def _render_text(result: dict) -> str:
    lines = [f"command: {result['command']}", f"status: {result['status']}"]
    for key, value in sorted(result["params"].items()):
        lines.append(f"  {key} = {value}")
    lines.append(json.dumps(result["payload"], indent=2, sort_keys=True))
    lines.append(f"elapsed_ms: {result['elapsed_ms']}")
    return "\n".join(lines)


def run(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    status, code = "ok", 0
    try:
        params, payload = _HANDLERS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        params, payload = {}, {"message": str(exc)}
        status = "error"
        code = next(c for t, c in _EXIT_CODES.items() if isinstance(exc, t))
    elapsed_ms = 0 if args.no_timing else int((time.perf_counter() - start) * 1000)
    result = {
        "command": args.command,
        "params": params,
        "status": status,
        "payload": payload,
        "elapsed_ms": elapsed_ms,
    }
    if args.text:
        print(_render_text(result), file=out)
    else:
        print(json.dumps(result, indent=2, sort_keys=True), file=out)
    return code


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
