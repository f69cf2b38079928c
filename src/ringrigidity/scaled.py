"""The scaled multiplication family and its unitality analysis.

On integers: for a fixed scale a, the operation n * m = a*n*m is a
commutative ring multiplication compatible with the usual addition, and it
has a unit exactly when a is 1 (the usual product) or -1 (the negated
product, here "alternate"); ``scaled_identity_suite`` samples those
identities, ``IDENTITY_SAMPLES`` triples unless ``verify-scaled --samples``
says otherwise. ``verify_scaled_form`` checks the converse direction on a
bounded window: any distributive black-box multiplication coincides there
with the scaled family for a = mul(1, 1), checked one whole row at a time.

On finite base rings: ``scale_ring`` transplants the same construction to
an arbitrary associative ring with a central scale element, and
``check_scaled_unitality`` verifies that the "unital iff scale is plus or
minus one" pattern holds exactly for base rings whose only reciprocal
pairs are (1, 1) and (-1, -1). ``pm1_scales`` names the coordinates of
the two scales, and ``require_pm1_rule`` states the rule once.
Base-ring flags are read as ``RingStructure`` verified them. Scaled tables
and the reciprocal-pair scan run on the base ring's coordinate kernel, and
only scales, units and violation pairs are ``GroupElement``.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple, Optional

from .abelian import (
    _CAPACITY_BITS,
    INT_CAPACITY,
    GroupElement,
    IntegerWindow,
    all_coords,
    all_elements,
    checked,
)
from .errors import IntegerOverflowError, InvariantViolation, UsageError
from .structures import (
    BlackBoxMul,
    DistributivityCounterexample,
    RingStructure,
    StructureConstants,
    check_distributivity_blackbox,
    cyclic_constants,
    find_unit,
)

# random triples per scale in verify-scaled's ring-identity suite
IDENTITY_SAMPLES = 10_000


def ScaledMult(scale: int) -> BlackBoxMul:
    """The closure (n, m) -> scale*n*m, checked; a call costs less than a __call__.

    One exact test, ``value.bit_length() > 63``, rejects what ``checked``
    rejects: |value| above ``INT_CAPACITY`` = 2^63 - 1. A scale that is not
    an int is refused here, once, so no call needs a type test.
    """
    if not isinstance(scale, int):
        raise UsageError(f"ScaledMult needs an int scale, got {scale!r}")

    def mul(n: int, m: int) -> int:
        # hot path: the context string is only built on actual overflow
        value = scale * n * m
        if value.bit_length() > _CAPACITY_BITS:
            raise IntegerOverflowError(
                f"integer {value} exceeds the checked capacity "
                f"{INT_CAPACITY} in {scale}*{n}*{m}"
            )
        return value

    return mul


def unit_of_scaled(a: int) -> Optional[int]:
    """Closed-form unit of the scaled multiplication: a itself for a = +-1.

    Cross-validated against ``find_unit_windowed`` by the test suite; the
    equivalence, not the formula, is the content.
    """
    if a == 1 or a == -1:
        return a
    return None


def extract_scale(mul: BlackBoxMul) -> int:
    """Recover the scale of a (claimed) scaled multiplication as mul(1, 1)."""
    return checked(mul(1, 1), "extract_scale")


def find_unit_windowed(mul: BlackBoxMul, window: IntegerWindow) -> Optional[int]:
    """Brute-force two-sided identity search over a window.

    A candidate u qualifies only if mul(u, n) = n = mul(n, u) for every n
    in the window. The scan screens each u by its product with -bound,
    the first n of that check, and runs the full check only on a u whose
    screen product is -bound; the unit's screen product is repeated
    once, so a scaled multiplication takes at most 3(2b + 1) products.
    """
    b = window.bound
    for u, screen in zip(window, map(mul, window, repeat(-b))):
        if screen == -b and all(mul(u, n) == n and mul(n, u) == n for n in window):
            return u
    return None


def scaled_identity_failure(a: int, n: int, m: int, k: int) -> Optional[str]:
    """Check the ring identities of the scaled family at one point.

    Verifies associativity and two-sided distributivity of n * m = a*n*m,
    each against the other route and against the expanded closed form
    (a*a*n*m*k for the triple product, a*n*m + a*n*k for the split sum),
    plus commutativity. Returns a description of the first failing
    identity, or None when all hold.
    """
    mul = ScaledMult(a)
    try:
        assoc_left = mul(n, mul(m, k))
        assoc_right = mul(mul(n, m), k)
        closed_triple = checked(a * a * n * m * k)
        if not (assoc_left == assoc_right == closed_triple):
            return f"associativity fails at (a={a}, n={n}, m={m}, k={k})"
        dist_left = mul(n, m + k)
        dist_split = checked(mul(n, m) + mul(n, k))
        closed_split = checked(a * n * m + a * n * k)
        if not (dist_left == dist_split == closed_split):
            return f"left distributivity fails at (a={a}, n={n}, m={m}, k={k})"
        if mul(m + k, n) != checked(mul(m, n) + mul(k, n)):
            return f"right distributivity fails at (a={a}, n={n}, m={m}, k={k})"
        if mul(n, m) != mul(m, n):
            return f"commutativity fails at (a={a}, n={n}, m={m})"
    except IntegerOverflowError as exc:
        raise IntegerOverflowError(
            f"overflow in identity check at (a={a}, n={n}, m={m}, k={k}): {exc}"
        ) from exc
    return None


class IdentitySuiteReport(NamedTuple):
    scale: int
    samples: int
    failure: Optional[str]

    @property
    def ok(self) -> bool:
        return self.failure is None


def scaled_identity_suite(a: int, bound: int, samples: int) -> IdentitySuiteReport:
    """Run the ring-identity checks for one scale on random window triples."""
    window = IntegerWindow(bound)  # a bound below 1 is a usage error
    if samples < 0:
        raise UsageError(f"samples must be >= 0, got {samples}")
    for n, m, k in window.random_triples(samples, seed=0):
        failure = scaled_identity_failure(a, n, m, k)
        if failure is not None:
            return IdentitySuiteReport(a, samples, failure)
    return IdentitySuiteReport(a, samples, None)


class ScaledFormReport(NamedTuple):
    """Outcome of matching a black-box multiplication against the scaled family."""

    scale: Optional[int]
    counterexample: Optional[tuple[int, int]]
    rejection: Optional[DistributivityCounterexample]

    @property
    def ok(self) -> bool:
        return self.counterexample is None and self.rejection is None

    @property
    def rejected(self) -> bool:
        return self.rejection is not None


def verify_scaled_form(
    mul: BlackBoxMul, window: IntegerWindow, seed: int = 0
) -> ScaledFormReport:
    """Check that mul(n, m) = a*n*m on the whole window, a = mul(1, 1).

    A multiplication that is not distributive on the window is rejected
    rather than classified; otherwise every pair in the window is compared
    against the scaled form and the first violation in row-major order,
    if any, is reported. Each row n is evaluated whole, as
    ``[mul(n, m) for m in ms]`` over one list ``ms`` of the window's values
    (an inline call that never re-enters the interpreter for a Python
    black box), and compared with its closed form a*n*m; only a row that
    differs is searched for its first bad m, so after a violation the
    black box may have seen the rest of that row, but never a pair outside
    the window. |a*n*m| peaks at |a|*b^2 on the window's corners, so one
    overflow check of that value covers every pair.
    """
    dist = check_distributivity_blackbox(mul, window, seed)
    if not dist.ok:
        return ScaledFormReport(None, None, dist.counterexample)
    a = extract_scale(mul)
    b = window.bound
    checked(a * b * b, f"the scaled form at (a={a}, n={-b}, m={-b})")
    ms = list(window)
    for n in ms:
        an = a * n
        closed = list(range(-an * b, an * (b + 1), an)) if an else [0] * len(ms)
        row = [mul(n, m) for m in ms]
        if row != closed:
            m = next(m for m, got in zip(ms, row) if got != an * m)
            return ScaledFormReport(a, (n, m), None)
    return ScaledFormReport(a, None, None)


# ---------------------------------------------------------------------------
# The same construction on finite base rings.
# ---------------------------------------------------------------------------


def usual_cyclic_ring(modulus: int) -> RingStructure:
    """Z/modulus with its usual multiplication, flags verified."""
    return RingStructure.from_constants(cyclic_constants(modulus, 1))


def scale_ring(ring: RingStructure, a: GroupElement) -> StructureConstants:
    """Structure constants of (x, y) -> a*x*y inside a finite base ring.

    The scale must be central: the associativity of the scaled product
    reorders factors past a, so a non-central scale would break it. The
    centrality check runs against the generators (sufficient by
    bilinearity) and names a witness on failure.
    """
    if a.group != ring.group:
        raise UsageError("scale_ring: scale element belongs to a different group")
    mult = ring.mult
    for e in ring.group.generators():
        if mult.product(a.coords, e.coords) != mult.product(e.coords, a.coords):
            raise UsageError(
                f"scale_ring: scale {a} is not central, it fails to commute "
                f"with {e}"
            )
    table = tuple(
        tuple(mult.product(a.coords, e) for e in row) for row in mult.table
    )
    return StructureConstants(ring.group, table)


def pm1_scales(ring: RingStructure) -> set[tuple[int, ...]]:
    """Coordinates of 1 and -1 in a unital ring, where the +-1 rule expects units."""
    one = ring.unit.coords
    return {one, tuple(-c % n for c, n in zip(one, ring.group.moduli))}


def find_pm1_violation(
    ring: RingStructure,
) -> Optional[tuple[GroupElement, GroupElement]]:
    """First pair (a, u) with a*u = 1 beyond (1, 1) and (-1, -1), if any.

    Scans one ``product_row(a)`` at a time; only the pair returned is built.
    """
    if ring.unit is None:
        raise UsageError("the reciprocal-pair scan needs a unital base ring")
    spec = ring.group
    one = ring.unit.coords
    trivial = {(s, s) for s in pm1_scales(ring)}
    for a in all_coords(spec):
        for u, product in zip(all_coords(spec), ring.mult.product_row(a)):
            if product == one and (a, u) not in trivial:
                return GroupElement(spec, a), GroupElement(spec, u)
    return None


class ScaledUnitEntry(NamedTuple):
    scale: GroupElement
    unit: Optional[GroupElement]


def scaled_unit_sweep(ring: RingStructure) -> list[ScaledUnitEntry]:
    """Unit search over every scaled version of a commutative base ring.

    Diagnostic companion to ``check_scaled_unitality``: no hypothesis on
    the reciprocal pairs, so unitality may well appear at scales other
    than plus or minus one (Z/5 with scale 2 is the standard example).
    """
    if not ring.commutative:
        raise UsageError("scaled_unit_sweep needs a commutative base ring")
    entries = []
    for a in all_elements(ring.group):
        scaled = scale_ring(ring, a)
        entries.append(ScaledUnitEntry(a, find_unit(scaled)))
    return entries


def require_pm1_rule(ring: RingStructure, entries: list[ScaledUnitEntry]) -> None:
    """Raise InvariantViolation unless the sweep is unital exactly at scales +-1."""
    scales = pm1_scales(ring)
    for entry in entries:
        expected = entry.scale.coords in scales
        if (entry.unit is not None) != expected:
            raise InvariantViolation(
                f"scaled ring at scale {entry.scale}: unit "
                f"{'found' if entry.unit else 'missing'}, expected "
                f"{'unital' if expected else 'non-unital'}"
            )


def check_scaled_unitality(ring: RingStructure) -> list[ScaledUnitEntry]:
    """Verify: a scaled version of the base ring is unital iff scale = +-1.

    Preconditions: the base ring is unital, commutative, and its only
    reciprocal pairs are (1, 1) and (-1, -1). Under those hypotheses the
    sweep must find units exactly at the scales 1 and -1; any departure is
    an invariant violation, not a result.
    """
    if not ring.commutative:
        raise UsageError("check_scaled_unitality needs a commutative base ring")
    violation = find_pm1_violation(ring)
    if violation is not None:
        a, u = violation
        raise UsageError(
            "check_scaled_unitality precondition fails: "
            f"{a} * {u} = 1 with {a} outside {{1, -1}}; "
            "run scaled_unit_sweep for the diagnostic picture"
        )
    entries = scaled_unit_sweep(ring)
    require_pm1_rule(ring, entries)
    return entries
