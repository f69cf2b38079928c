"""Exhaustive census of ring multiplications on a finite abelian group.

Candidates are structure-constant tables: entry (i, j) ranges over the
elements whose order divides gcd(n_i, n_j), which is exactly the
well-definedness constraint, so distributivity holds by construction and
only associativity filters the stream. A candidate is a row-major table of
plain coordinate tuples; only tables that pass ``associative_table`` become
objects. Candidates are visited in lexicographic order of the flattened
table, making runs reproducible and the search resumable by prefix.

The search space is partitioned by the value of the first constant. A
serial run loops ``_survivors`` over the parts and a pool maps it over the
same parts, so both emit in the same order; a pool never has more
processes than parts or CPUs. Workers return rings whose tables are
plain coordinate tuples; element objects appear only for the units found.

On Z/N both ``rigidity_report`` and ``classify_cyclic`` read one checked
stream: each ring's ``product_row``s are compared with the closed form
n*m = scale*n*m one row at a time, so the check makes no element objects
and holds O(N) products, and a mismatch raises.

``charge`` is the one budget gate: the census charges its candidate count,
a Z/N census also the N rings x N^2 products of that check, and the CLI
the work bounds of its other commands, all before any work starts.

``full_table_oracle`` is the independent cross-check: it enumerates raw
N x N Cayley tables with no structure-constant machinery at all and keeps
the ones that are distributive and associative over addition mod N.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterator, Optional

from .abelian import GroupSpec, all_coords
from .errors import CapacityError, InvariantViolation, UsageError
from .structures import RingStructure, StructureConstants, associative_table

DEFAULT_BUDGET = 10**8
GROUP_ORDER_CAP = 10_000
FULL_TABLE_CAP = 3


@dataclass(frozen=True)
class SearchConfig:
    """Execution settings of the census; both are positive."""

    workers: int = 1
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        for name in ("workers", "budget"):
            if getattr(self, name) < 1:
                raise UsageError(f"search config {name} must be positive")


def charge(work: int, budget: int, what: str) -> None:
    """Refuse work up front when it exceeds the budget; ``what`` names its unit."""
    if work > budget:
        raise CapacityError(f"{work} {what}, over the budget of {budget}")


def _candidate_sets(spec: GroupSpec) -> list[list[tuple[int, ...]]]:
    """Per table cell (row-major), the x with d*x = 0 for d = gcd(n_i, n_j).

    In a factor Z/n that allows the multiples of n / gcd(n, d), so each set
    comes out in lexicographic order without a scan of the group.
    """
    all_coords(spec)  # the element cap refuses huge groups, as the scan did
    moduli = spec.moduli
    return [
        list(itertools.product(*(range(0, n, n // math.gcd(n, a, b)) for n in moduli)))
        for a in moduli
        for b in moduli
    ]


def search_space_size(spec: GroupSpec) -> int:
    return math.prod(len(s) for s in _candidate_sets(spec))


def _survivors(task: tuple) -> list[RingStructure]:
    """Rings of one part; task = (moduli, first cell, the other cells' sets)."""
    moduli, first, rest = task
    spec = GroupSpec(moduli)
    k = spec.rank
    found = []
    for tail in itertools.product(*rest):
        flat = (first,) + tail
        table = tuple(flat[i * k : (i + 1) * k] for i in range(k))
        if associative_table(moduli, table):
            constants = StructureConstants(spec, table)
            found.append(RingStructure.from_constants(constants))
    return found


def enumerate_multiplications(
    spec: GroupSpec, config: SearchConfig = SearchConfig()
) -> Iterator[RingStructure]:
    """Every associative bilinear multiplication on the group, exactly once.

    Emitted in lexicographic order of the flattened constant table. The
    candidate count (before the associativity filter) is charged against
    the budget up front.
    """
    if spec.order > GROUP_ORDER_CAP:
        raise CapacityError(
            f"group order {spec.order} exceeds the search cap {GROUP_ORDER_CAP}"
        )
    sets = _candidate_sets(spec)
    charge(
        math.prod(len(s) for s in sets), config.budget,
        f"candidate tables in the search space of {spec}",
    )
    tasks = [(spec.moduli, first, sets[1:]) for first in sets[0]]
    if config.workers <= 1:
        for task in tasks:
            yield from _survivors(task)
        return
    with Pool(min(config.workers, len(tasks), os.cpu_count() or 1)) as pool:
        for batch in pool.map(_survivors, tasks):
            yield from batch


@dataclass(frozen=True)
class RigidityReport:
    """How far the group is from determining its own multiplication."""

    group: GroupSpec
    total: int
    commutative_count: int
    unital_count: int
    unital_scales: Optional[tuple[int, ...]]  # single-factor groups only
    unital_examples: tuple[RingStructure, ...]
    search_space: int

    @property
    def scaled_form_all(self) -> Optional[bool]:
        """True on Z/N, whose every ring passed the scaled-form check; else None."""
        return True if self.group.is_cyclic else None


def _cyclic_rings(spec: GroupSpec, config: SearchConfig) -> Iterator[RingStructure]:
    """The census of Z/N, each ring checked against scale*n*m, scale = mul(1, 1).

    A mismatch contradicts what the enumeration guarantees, so it raises
    rather than reports.
    """
    n = spec.moduli[0]
    charge(n**3, config.budget, f"scaled-form products on Z/{n} ({n} rings x {n}^2)")
    for ring in enumerate_multiplications(spec, config):
        scale = ring.mult.table[0][0][0]
        for x in range(n):
            if ring.mult.product_row((x,)) != [(scale * x * m % n,) for m in range(n)]:
                raise InvariantViolation(
                    f"multiplication on Z/{n} is not the scaled form of its "
                    f"own mul(1,1) = {scale}"
                )
        yield ring


def rigidity_report(
    spec: GroupSpec, config: SearchConfig = SearchConfig()
) -> RigidityReport:
    """Aggregate the enumeration stream into the census counts.

    On Z/N it reads the checked stream, so a mismatch raises.
    """
    total = 0
    commutative = 0
    unital = 0
    scales: list[int] = []
    examples: list[RingStructure] = []
    stream = _cyclic_rings if spec.is_cyclic else enumerate_multiplications
    for ring in stream(spec, config):
        total += 1
        if ring.commutative:
            commutative += 1
        if ring.unit is not None:
            unital += 1
            if spec.is_cyclic:
                scales.append(ring.mult.table[0][0][0])
            if len(examples) < 2:
                examples.append(ring)
    return RigidityReport(
        group=spec,
        total=total,
        commutative_count=commutative,
        unital_count=unital,
        unital_scales=tuple(sorted(scales)) if spec.is_cyclic else None,
        unital_examples=tuple(examples),
        search_space=search_space_size(spec),
    )


@dataclass(frozen=True)
class CyclicClassification:
    scale: int
    unital: bool
    unit: Optional[int]
    is_minus_one: bool


def classify_cyclic(
    modulus: int, config: SearchConfig = SearchConfig()
) -> list[CyclicClassification]:
    """Classify every multiplication on Z/modulus by its scale mul(1, 1).

    Every ring is checked against scale*n*m first, and a mismatch raises.
    """
    out = []
    for ring in _cyclic_rings(GroupSpec((modulus,)), config):
        scale = ring.mult.table[0][0][0]
        unit = ring.unit
        out.append(
            CyclicClassification(
                scale=scale,
                unital=unit is not None,
                unit=unit.coords[0] if unit is not None else None,
                is_minus_one=scale == modulus - 1,
            )
        )
    return out


FullTable = tuple[tuple[int, ...], ...]


def _table_distributive(table: FullTable, modulus: int) -> bool:
    rng = range(modulus)
    for a in rng:
        row = table[a]
        for b in rng:
            for c in rng:
                if row[(b + c) % modulus] != (row[b] + row[c]) % modulus:
                    return False
                if table[(b + c) % modulus][a] != (table[b][a] + table[c][a]) % modulus:
                    return False
    return True


def _table_associative(table: FullTable, modulus: int) -> bool:
    rng = range(modulus)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in rng
        for b in rng
        for c in rng
    )


def full_table_oracle(modulus: int) -> frozenset[FullTable]:
    """All N^(N^2) Cayley tables on {0..N-1}, filtered to ring multiplications.

    Deliberately ignorant of the structure-constant pipeline: tables are
    raw tuples, distributivity and associativity are checked directly over
    all triples. The survivor set is the ground truth the enumeration is
    compared against.
    """
    if modulus > FULL_TABLE_CAP:
        raise CapacityError(
            f"full-table oracle capped at carrier size {FULL_TABLE_CAP}, got "
            f"{modulus} ({modulus}^{modulus * modulus} tables)"
        )
    survivors = []
    for flat in itertools.product(range(modulus), repeat=modulus * modulus):
        table = tuple(
            flat[i * modulus : (i + 1) * modulus] for i in range(modulus)
        )
        if _table_distributive(table, modulus) and _table_associative(table, modulus):
            survivors.append(table)
    return frozenset(survivors)


def expand_to_full_table(constants: StructureConstants) -> FullTable:
    """Expand a cyclic structure-constant table to its full Cayley table."""
    return tuple(
        tuple(c for (c,) in constants.product_row((n,)))
        for n in range(constants.group.moduli[0])
    )
