"""Two ring multiplications sharing one additive group of square matrices.

The n x n matrices over Z/m form an abelian group under entrywise
addition. That single addition supports (at least) two genuinely different
ring multiplications: the usual row-by-column product, noncommutative for
n >= 2 with the diagonal identity matrix as unit, and the entrywise
(Hadamard) product, commutative with the all-ones matrix as unit. The base
ring is Z/m rather than the reals so every claim here can be checked
exactly, and exhaustively on tiny carriers. Validation happens only in the
public constructor ``MatrixElement(...)``; the kernels reduce each entry
they compute and build their results unchecked with ``_reduced``.
"""

from __future__ import annotations

import itertools
import operator
import random
from typing import Iterator

from .abelian import Frozen
from .errors import InvariantViolation, UsageError

STANDARD = "standard"
HADAMARD = "hadamard"

# random triples in each mode's axiom summary, and samples in each unit check
AXIOM_TRIPLES = 1000
UNIT_CHECKS = 4


class MatrixElement(Frozen):
    """A square matrix with entries reduced modulo a base modulus."""

    __slots__ = ("modulus", "rows")

    def __init__(self, modulus: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if modulus < 2:
            raise UsageError(f"matrix modulus must be >= 2, got {modulus}")
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise UsageError("matrix must be square with dimension >= 1")
        moduli = itertools.repeat(modulus)
        reduced = tuple([tuple(map(operator.mod, row, moduli)) for row in rows])
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "rows", reduced)

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def _reduced(modulus: int, rows: tuple[tuple[int, ...], ...]) -> MatrixElement:
    """A matrix from square rows of entries in range(modulus), unchecked."""
    matrix = object.__new__(MatrixElement)
    object.__setattr__(matrix, "modulus", modulus)
    object.__setattr__(matrix, "rows", rows)
    return matrix


def _common_modulus(a: MatrixElement, b: MatrixElement, op: str) -> int:
    if a.n != b.n or a.modulus != b.modulus:
        raise UsageError(
            f"{op}: shapes {a.n}x{a.n} mod {a.modulus} and "
            f"{b.n}x{b.n} mod {b.modulus} do not mix"
        )
    return a.modulus


def mat_add(a: MatrixElement, b: MatrixElement) -> MatrixElement:
    m = _common_modulus(a, b, "mat_add")
    return _reduced(m, tuple([
        tuple([(x + y) % m for x, y in zip(ra, rb)]) for ra, rb in zip(a.rows, b.rows)
    ]))


def mat_mul_standard(a: MatrixElement, b: MatrixElement) -> MatrixElement:
    """Row-by-column product modulo the base modulus."""
    m = _common_modulus(a, b, "mat_mul_standard")
    cols = list(zip(*b.rows))
    return _reduced(m, tuple([
        tuple([sum(map(operator.mul, ra, col)) % m for col in cols]) for ra in a.rows
    ]))


def mat_mul_hadamard(a: MatrixElement, b: MatrixElement) -> MatrixElement:
    """Entrywise product modulo the base modulus."""
    m = _common_modulus(a, b, "mat_mul_hadamard")
    return _reduced(m, tuple([
        tuple([x * y % m for x, y in zip(ra, rb)]) for ra, rb in zip(a.rows, b.rows)
    ]))


def _product(mode: str):
    """The product of a mode, read from the module globals so a rebinding is seen."""
    if mode == STANDARD:
        return mat_mul_standard
    if mode == HADAMARD:
        return mat_mul_hadamard
    raise UsageError(f"unknown multiplication mode {mode!r}")


def zero_matrix(n: int, modulus: int) -> MatrixElement:
    return MatrixElement(modulus, tuple((0,) * n for _ in range(n)))


def unit_matrix(mode: str, n: int, modulus: int) -> MatrixElement:
    """The two-sided identity of the chosen product.

    Diagonal-ones for the standard product, all-ones for the Hadamard
    product; the two coincide only at n = 1. The construction self-checks
    against ``UNIT_CHECKS`` deterministic sample elements.
    """
    if n < 1:
        raise UsageError(f"matrix dimension must be >= 1, got {n}")
    product = _product(mode)
    if mode == STANDARD:
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    else:
        rows = tuple((1,) * n for _ in range(n))
    unit = MatrixElement(modulus, rows)

    rng = random.Random(31 * n + modulus)
    for _ in range(UNIT_CHECKS):
        sample = random_matrix(rng, n, modulus)
        if product(unit, sample) != sample or product(sample, unit) != sample:
            raise InvariantViolation(
                f"{mode} unit failed the identity check against {sample.rows}"
            )
    return unit


def random_matrix(rng: random.Random, n: int, modulus: int) -> MatrixElement:
    """A uniform n x n matrix over Z/modulus: its n^2 entries in one draw."""
    if n < 1 or modulus < 2:
        raise UsageError(f"random matrix needs n >= 1 and modulus >= 2: {n}, {modulus}")
    flat = rng.choices(range(modulus), k=n * n)
    rows = tuple([tuple(flat[i : i + n]) for i in range(0, n * n, n)])
    return _reduced(modulus, rows)


def all_matrices(n: int, modulus: int) -> Iterator[MatrixElement]:
    """Every n x n matrix over Z/modulus, lexicographic by flattened entries."""
    for flat in itertools.product(range(modulus), repeat=n * n):
        yield MatrixElement(
            modulus, tuple(flat[i * n : (i + 1) * n] for i in range(n))
        )


def noncommutativity_witness(
    n: int, modulus: int
) -> tuple[MatrixElement, MatrixElement] | None:
    """A fixed pair A, B with A.B != B.A under the standard product.

    Embeds the 2x2 single-entry witness in the top-left corner: A has a
    lone 1 at (0, 1), B at (1, 0), so A.B and B.A land on different
    diagonal cells. Returns None at n = 1, where no witness exists.
    """
    if n < 2:
        return None
    a_rows = [[0] * n for _ in range(n)]
    b_rows = [[0] * n for _ in range(n)]
    a_rows[0][1] = 1
    b_rows[1][0] = 1
    a = MatrixElement(modulus, tuple(tuple(r) for r in a_rows))
    b = MatrixElement(modulus, tuple(tuple(r) for r in b_rows))
    if mat_mul_standard(a, b) == mat_mul_standard(b, a):
        raise InvariantViolation("stored noncommutativity witness commutes")
    return a, b


def sample_axioms(mode: str, n: int, modulus: int) -> dict:
    """Sampled ring-axiom summary for one of the two products.

    Checks associativity and two-sided distributivity over entrywise
    addition on ``AXIOM_TRIPLES`` random triples (seed 7), and
    commutativity on the corresponding pairs; for the standard product the
    stored witness is consulted too, so the commutativity verdict at
    n >= 2 never depends on sampling luck. The products ab and ba and the
    sum b + c serve every comparison that reads them, so a triple takes 9
    products and 3 additions.
    """
    product = _product(mode)
    rng = random.Random(7)
    associative = True
    distributive = True
    commutative = True
    for _ in range(AXIOM_TRIPLES):
        a = random_matrix(rng, n, modulus)
        b = random_matrix(rng, n, modulus)
        c = random_matrix(rng, n, modulus)
        ab, ba, b_plus_c = product(a, b), product(b, a), mat_add(b, c)
        if product(a, product(b, c)) != product(ab, c):
            associative = False
        if product(a, b_plus_c) != mat_add(ab, product(a, c)):
            distributive = False
        if product(b_plus_c, a) != mat_add(ba, product(c, a)):
            distributive = False
        if ab != ba:
            commutative = False
    if mode == STANDARD and noncommutativity_witness(n, modulus) is not None:
        commutative = False
    return {
        "triples": AXIOM_TRIPLES,
        "associative": associative,
        "distributive": distributive,
        "commutative": commutative,
    }
