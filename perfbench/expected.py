"""Known answers for every benchmark query, fixed without the code under test.

Nothing here imports ``ringrigidity``. The census answers come from a
plain-int reference census over structure-constant tables; the cyclic,
scaled and matrix answers come from elementary number theory (units of Z/N
are the residues coprime to N, and the unit of n*m = s*n*m is s^-1) and
from hand-built matrices. Each function returns the payload fields the CLI
must report; fields the CLI may add later are not constrained.
"""

from __future__ import annotations

import itertools
import math


def reference_census(moduli: tuple[int, ...]) -> dict:
    """Census payload of Z/n_1 x ... x Z/n_k, enumerated with plain ints.

    Cell (i, j) of a table ranges over the elements whose order divides
    gcd(n_i, n_j), in lexicographic order; tables are visited in
    lexicographic order of the row-major flattening. A table is a ring
    multiplication iff (e_i e_j) e_l = e_i (e_j e_l) on generators, and
    u is its unit iff u e_j = e_j = e_j u on generators (both by bilinearity).
    """
    k = len(moduli)
    elements = list(itertools.product(*(range(n) for n in moduli)))

    def order(x):
        return math.lcm(*(n // math.gcd(c, n) for c, n in zip(x, moduli)))

    cells = [
        [x for x in elements if math.gcd(moduli[i], moduli[j]) % order(x) == 0]
        for i in range(k)
        for j in range(k)
    ]

    def times(t, x, y):  # bilinear product of two coordinate vectors
        acc = [0] * k
        for i in range(k):
            for j in range(k):
                if x[i] and y[j]:
                    entry = t[i * k + j]
                    for u in range(k):
                        acc[u] += x[i] * y[j] * entry[u]
        return tuple(a % n for a, n in zip(acc, moduli))

    gens = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    triples = list(itertools.product(range(k), repeat=3))
    total = commutative = unital = 0
    scales, examples = [], []
    for t in itertools.product(*cells):
        if any(
            times(t, t[i * k + j], gens[m]) != times(t, gens[i], t[j * k + m])
            for i, j, m in triples
        ):
            continue
        total += 1
        commutative += all(
            t[i * k + j] == t[j * k + i] for i in range(k) for j in range(i)
        )
        unit = next(
            (u for u in elements
             if all(times(t, u, e) == e == times(t, e, u) for e in gens)),
            None,
        )
        if unit is None:
            continue
        unital += 1
        if k == 1:
            scales.append(t[0][0])
        if len(examples) < 2:
            table = [[list(t[i * k + j]) for j in range(k)] for i in range(k)]
            examples.append({"table": table, "unit": list(unit)})
    return {
        "group": {"moduli": list(moduli), "order": len(elements), "cyclic": k == 1},
        "total": total,
        "commutative": commutative,
        "unital": unital,
        "unital_scales": sorted(scales) if k == 1 else None,
        # for rank 1 the bilinear product n*m*C is the scaled form by definition
        "scaled_form_all": True if k == 1 else None,
        "search_space": math.prod(len(c) for c in cells),
        "unital_examples": examples,
    }


def _units(modulus: int) -> list[int]:
    return [s for s in range(modulus) if math.gcd(s, modulus) == 1]


def _scale_entry(s: int, modulus: int) -> dict:
    unital = math.gcd(s, modulus) == 1
    return {
        "scale": s,
        "unital": unital,
        "unit": pow(s, -1, modulus) if unital else None,
        "is_minus_one": s == modulus - 1,
    }


def classify(modulus: int) -> dict:
    fields = {
        "modulus": modulus,
        "candidates": [_scale_entry(s, modulus) for s in range(modulus)],
        "unital_scales": _units(modulus),
    }
    if modulus <= 3:
        fields["oracle"] = "agree"
    return fields


def scaled_units(modulus: int) -> dict:
    units = _units(modulus)
    pm_one = sorted({1 % modulus, (modulus - 1) % modulus})
    departures = sorted(set(units) - set(pm_one))
    violation = next(
        (
            {"a": a, "u": u}
            for a in range(modulus)
            for u in range(modulus)
            if (a * u) % modulus == 1
            and not (a == u and a in pm_one)
        ),
        None,
    )
    return {
        "modulus": modulus,
        "pm1_only_units": violation is None,
        "violation": violation,
        "pm_one_scales": pm_one,
        "entries": [_scale_entry(s, modulus) for s in range(modulus)],
        "unital_scales": units,
        "departures": departures,
        "matches_pm1_rule": not departures,
    }


def verify_scaled(a: int, bound: int, samples: int = 10_000) -> dict:
    unit = a if a in (1, -1) else None
    return {
        "scale": a,
        "bound": bound,
        "samples": samples,
        "identities_ok": True,
        "failure": None,
        "unit": unit,
        "closed_form_unit": unit,
        "unit_scan_agrees": True,
        "note": {1: "usual ring", -1: "alternate ring"}.get(a),
        "passed": True,
    }


def matrix_demo(n: int, modulus: int) -> dict:
    def single(i, j):
        return [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]

    witness = None
    if n >= 2:
        witness = {"a": single(0, 1), "b": single(1, 0),
                   "ab": single(0, 0), "ba": single(1, 1)}
    ring = {"triples": 1000, "associative": True, "distributive": True}
    return {
        "n": n,
        "modulus": modulus,
        "units": {
            "standard": [[int(r == c) for c in range(n)] for r in range(n)],
            "hadamard": [[1] * n for _ in range(n)],
        },
        "noncommutativity_witness": witness,
        "axiom_checks": {
            "standard": {**ring, "commutative": n == 1},
            "hadamard": {**ring, "commutative": True},
        },
        "note": "modes coincide at n=1" if n == 1 else None,
    }


def mismatches(payload: dict, fields: dict) -> list[str]:
    """Names of the expected fields the payload gets wrong."""
    return [key for key, value in fields.items() if payload.get(key, KeyError) != value]
