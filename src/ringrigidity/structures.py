"""Candidate ring multiplications on finite abelian groups.

A bilinear multiplication on Z/n_1 x ... x Z/n_k is pinned down by its
structure constants, the k x k table of generator products C[i][j] =
e_i * e_j, stored as reduced coordinate tuples. Distributivity then holds
by construction, so only associativity, commutativity and unitality remain
to be checked. The bilinear extension is consistent on the quotients
exactly when the order of C[i][j] divides d = gcd(n_i, n_j), that is when
d*x = 0 (mod n_t) for every coordinate x of C[i][j]; the constructor
rejects tables violating that. Associativity is the tensor identity
sum_s C[i][j]_s C[s][l]_t = sum_s C[j][l]_s C[i][s]_t (mod n_t) for all
i, j, l, t, checked on the table by ``associative_table``, one generator
triple at a time by ``associative_triple``, which reads a cell only where
its coefficient is non-zero.

Products share one integer kernel, the left images x*e_j = sum_i x_i C[i][j]
of the generators, each coordinate one C-level ``sum(map(mul, ...))``; on
Z/n the one image is the single product x_0 * C[0][0]_0. ``product``
applies it to two coordinate tuples (on Z/n it is x_0 * y_0 * C[0][0]_0)
and ``product_row`` to every element in lexicographic order;
``product_column`` is its mirror, x*y for every x from the right images
e_i*y. Each refuses a tuple whose length is not the group's rank, with one
length test per call. On Z/n a row is c*m for the one image c, one period
of n/gcd(c, n) entries repeated, and its entries are the object's n shared
(r,) tuples, built by its first row (``_span``).
``eval`` is the element-object edge, taking and returning ``GroupElement``.
``unit_coords`` screens the coordinate tuples by table side: row j or
column j of the table says sum_i u_i side[i] = e_j, k linear congruences,
one per coordinate (``_screen``). Each screen's and each side's solutions
depend only on the group and the congruences, so each is built once as a
bitmask over the elements in lexicographic order, a side as the AND of its
k screens, and kept in one cache bounded by bytes (``_Masks``); a table
ANDs at most 2k side masks. ``find_unit`` verifies the survivor, raising if
it fails, and makes it an element.

Black-box multiplications on windowed integers are handled separately:
they are opaque binary functions, probed for distributivity inside the
window on small exhaustive triples plus, above bound 3,
``DISTRIBUTIVITY_SAMPLES`` random ones.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, NamedTuple, Optional

from .abelian import (
    Frozen,
    GroupElement,
    GroupSpec,
    IntegerWindow,
    all_coords,
    checked,
    element_order,
)
from .errors import IntegerOverflowError, InvariantViolation, UsageError

BlackBoxMul = Callable[[int, int], int]

# random triples in each black-box distributivity probe above bound 3,
# after the small ones
DISTRIBUTIVITY_SAMPLES = 512


class StructureConstants(Frozen):
    """Generator products determining a bilinear multiplication.

    ``table[i][j]`` holds the reduced coordinates of C[i][j]; the
    constructor takes coordinate vectors, or bare residues for rank 1.
    """

    __slots__ = ("group", "table", "_residues")

    def __init__(self, group: GroupSpec, table) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_residues", None)  # built by the first Z/N row
        self.__post_init__()  # the validation hook

    def __post_init__(self) -> None:
        k, moduli = self.group.rank, self.group.moduli
        table = [
            [(e,) if isinstance(e, int) else tuple(e) for e in row]
            for row in self.table
        ]
        if len(table) != k or any(
            len(row) != k or any(len(e) != k for e in row) for row in table
        ):
            raise UsageError(
                f"structure-constant table must be {k}x{k}, with {k} "
                "coordinates per entry"
            )
        for i, row in enumerate(table):
            for j, entry in enumerate(row):
                bound = math.gcd(moduli[i], moduli[j])
                if any(bound * x % n for x, n in zip(entry, moduli)):
                    g = GroupElement(self.group, entry)
                    raise UsageError(
                        f"table entry [{i}][{j}] = {g} has order "
                        f"{element_order(g)}, which does not divide "
                        f"gcd({moduli[i]}, {moduli[j]}) = {bound}; the "
                        "bilinear extension would be ill-defined"
                    )
        table = tuple(
            tuple(tuple(map(operator.mod, e, moduli)) for e in row) for row in table
        )
        object.__setattr__(self, "table", table)

    def _images(self, x, lines) -> list[list[int]]:
        """sum_i x_i line[i] for each line of entries, as plain unreduced ints.

        Coordinate t of an image is the dot product of x with column t of
        its line, ``sum(map(mul, x, column))``: one C-level loop per sum.
        """
        return [
            [sum(map(operator.mul, x, column)) for column in zip(*line)]
            for line in lines
        ]

    def _left_images(self, x) -> list[list[int]]:
        """The kernel: x*e_j = sum_i x_i C[i][j] for every generator e_j, on
        Z/n the single product x_0 * C[0][0]_0."""
        if len(self.group.moduli) == 1:
            return [[x[0] * self.table[0][0][0]]]
        return self._images(x, zip(*self.table))

    def product(self, x, y) -> tuple[int, ...]:
        """x*y = sum_j y_j (x*e_j) on coordinate tuples, reduced; on Z/n the
        single product x_0 * y_0 * C[0][0]_0."""
        moduli = self.group.moduli
        if not len(x) == len(y) == len(moduli):
            raise _rank_error(self.group, x, y)
        if len(moduli) == 1:
            return (x[0] * y[0] * self.table[0][0][0] % moduli[0],)
        (image,) = self._images(y, [self._left_images(x)])
        return tuple(map(operator.mod, image, moduli))

    def eval(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """The bilinear product of g and h: sum of g_i * h_j * C[i][j]."""
        if g.group != self.group or h.group != self.group:
            raise UsageError("eval: elements do not belong to this table's group")
        return GroupElement(self.group, self.product(g.coords, h.coords))

    def _span(self, images) -> list[tuple[int, ...]]:
        """sum_j y_j images[j] for every y in lexicographic order, reduced.

        On Z/n the row is m*c for the one image c, each entry taken from
        ``_residues``: one (r,) tuple per residue, built by the first row
        and shared by every later row of this object, so the object holds n
        tuples, those of one row, and they go with it. The row repeats with
        period n/gcd(c, n), so one period is computed and the list repeated.
        On a larger rank coordinate t is the column ``_sums`` of the images'
        t-th coordinates. No element objects are made.
        """
        moduli = self.group.moduli
        if len(moduli) == 1:
            (n,), ((c,),) = moduli, images
            residues = self._residues
            if residues is None:
                residues = [(r,) for r in range(n)]
                object.__setattr__(self, "_residues", residues)
            g = math.gcd(c, n)
            return [residues[m * c % n] for m in range(n // g)] * g
        columns = [_sums(moduli, n, c) for c, n in zip(zip(*images), moduli)]
        return list(zip(*columns))

    def product_row(self, x) -> list[tuple[int, ...]]:
        """x*y for every y in lexicographic order, as reduced coordinate tuples.

        Each call computes its row and returns a new list; on Z/n its
        entries are the shared ``_residues`` tuples (see ``_span``).
        """
        if len(x) != len(self.group.moduli):
            raise _rank_error(self.group, x)
        return self._span(self._left_images(x))

    def product_column(self, y) -> list[tuple[int, ...]]:
        """x*y for every x in lexicographic order, from the images e_i*y."""
        if len(y) != len(self.group.moduli):
            raise _rank_error(self.group, y)
        return self._span(self._images(y, self.table))


def _rank_error(group: GroupSpec, *tuples) -> UsageError:
    """The refusal of coordinate tuples whose length is not the group's rank."""
    return UsageError(
        f"{group} has rank {group.rank}; the coordinate tuples "
        f"{', '.join(map(repr, tuples))} do not all have that length"
    )


def _sums(moduli: tuple[int, ...], n: int, coefficients) -> list[int]:
    """sum_i u_i coefficients[i] mod n for every u in lexicographic order,
    built one generator at a time, one multiply-add per entry."""
    sums = [0]
    for c, m in zip(coefficients, moduli):
        sums = [(s + x * c) % n for s in sums for x in range(m)]
    return sums


def cyclic_constants(modulus: int, scale: int) -> StructureConstants:
    """The multiplication n*m = scale*n*m on Z/modulus."""
    return StructureConstants(GroupSpec((modulus,)), ((scale,),))


def associative_triple(moduli: tuple[int, ...], table, i: int, j: int, l: int) -> bool:
    """Whether (e_i e_j) e_l = e_i (e_j e_l), in every coordinate t.

    The left side sum_s C[i][j]_s C[s][l] reads cell (s, l) only where
    C[i][j]_s != 0, and the right side sum_s C[j][l]_s C[i][s] reads cell
    (i, s) only where C[j][l]_s != 0; no other cell is read, so the census
    can test a triple before the rest of row i and column l is fixed.
    """
    row = table[i]
    ij, jl = row[j], table[j][l]
    r = range(len(moduli))
    for t in r:
        acc = 0
        for s in r:
            a = ij[s]
            if a:
                acc += a * table[s][l][t]
            b = jl[s]
            if b:
                acc -= b * row[s][t]
        if acc % moduli[t]:
            return False
    return True


def associative_table(moduli: tuple[int, ...], table) -> bool:
    """Whether the coordinate table satisfies (e_i e_j) e_l = e_i (e_j e_l).

    ``table[i][j]`` holds the coordinates of C[i][j]. By trilinearity the
    generator triples decide associativity on every element; the test suite
    cross-checks that against full |G|^3 scans on small groups.
    """
    r = range(len(moduli))
    return all(
        associative_triple(moduli, table, i, j, l)
        for i in r for j in r for l in r
    )


def check_associativity(constants: StructureConstants) -> bool:
    """Associativity on all generator triples (see ``associative_table``)."""
    return associative_table(constants.group.moduli, constants.table)


def check_commutativity(constants: StructureConstants) -> bool:
    """Table symmetry C[i][j] = C[j][i]; by bilinearity, sufficient and necessary."""
    return constants.table == tuple(zip(*constants.table))


SCREEN_BYTES = 640 * 1024  # what the mask cache may hold; see ``_Masks``
ENTRY_BYTES = 512  # charged per cached mask besides its bits: key, slot, int header
_BITS = bytes.maketrans(b"\0\1", b"01")  # 0/1 bytes to the digits int() reads


class _Masks(dict):
    """Screen and side masks by key, oldest out first past ``limit`` bytes.

    Each mask is charged its bytes plus ENTRY_BYTES for its key tuples,
    dict slot and int header, which take about 150 bytes on a census group
    and 560 on Z/16^3, so many small masks stay under the limit as few
    large ones do. SCREEN_BYTES holds
    every mask the census of 2,2, 2,4, 2,6, 3,3, 3,9 and 4,4 builds (about
    900) and Z/1000's 1000 side masks; at ``find_unit``'s element cap of
    10^6 it still holds five masks of 125 KB. A mask over the limit is
    dropped as soon as it is kept.
    """

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit
        self.held = 0  # the bytes charged for the masks kept

    def keep(self, key, mask: int) -> int:
        self[key] = mask
        self.held += mask.bit_length() // 8 + ENTRY_BYTES
        while self.held > self.limit:
            oldest = self.pop(next(iter(self)))
            self.held -= oldest.bit_length() // 8 + ENTRY_BYTES
        return mask

    def clear(self) -> None:
        super().clear()
        self.held = 0


_masks = _Masks(SCREEN_BYTES)


def _screen(
    moduli: tuple[int, ...], t: int, coefficients: tuple[int, ...], want: int
) -> int:
    """The bitmask of the u with sum_i u_i coefficients[i] = want (mod n_t).

    Bit p stands for the p-th coordinate tuple in lexicographic order, the
    order of ``_sums``, which ``_span`` builds its columns from too.
    """
    sums = _sums(moduli, moduli[t], coefficients)
    return int(bytes([s == want for s in reversed(sums)]).translate(_BITS), 2)


def _side(moduli: tuple[int, ...], j: int, side: tuple) -> int:
    """The bitmask of the u with sum_i u_i side[i] = e_j, kept in ``_masks``.

    It is the AND of the k screens of coordinate t, want [t == j]. The
    sides of a group share their screens, so those are kept too, except on
    a rank-1 group, where the side is its one screen.
    """
    mask = -1
    for t in range(len(moduli)):
        key = (moduli, t, tuple(c[t] for c in side), int(t == j))
        screen = _masks.get(key)
        if screen is None:
            screen = _screen(*key)
            if len(moduli) > 1:
                _masks.keep(key, screen)
        mask &= screen
    return _masks.keep((moduli, j, side), mask)


def unit_coords(moduli: tuple[int, ...], table) -> Optional[tuple[int, ...]]:
    """The coordinates of the two-sided identity of the table, or None.

    The rows are tuples of coordinate tuples, as each side keys a mask.
    Screens the coordinate tuples u one side at a time: (e_j*u)_t = sum_i
    u_i C[j][i]_t reads row j and (u*e_j)_t = sum_i u_i C[i][j]_t column j,
    and both must be [t == j] mod n_t for every t. A side's solutions are
    one cached bitmask keyed by (moduli, j, side) (``_side``), so a table
    costs at most 2k lookups and ANDs, stopping once none is left. By
    bilinearity a survivor is the identity, hence unique, so the census
    counts by it alone; its bit is decoded by mixed radix.
    """
    survivors = -1  # every tuple
    for j, sides in enumerate(zip(table, zip(*table))):
        for side in sides:
            mask = _masks.get((moduli, j, side))
            if mask is None:
                mask = _side(moduli, j, side)
            survivors &= mask
            if not survivors:
                return None
    p = survivors.bit_length() - 1
    coords = []
    for n in reversed(moduli):
        p, x = divmod(p, n)
        coords.append(x)
    return tuple(reversed(coords))


def find_unit(constants: StructureConstants) -> Optional[GroupElement]:
    """The unique two-sided identity, or None: the ``unit_coords`` survivor,
    verified on both sides against every element, becomes an element. By
    bilinearity the survivor is the unit, so a failed check is a bug."""
    everything = all_coords(constants.group)  # the element cap, before any screen
    u = unit_coords(constants.group.moduli, constants.table)
    if u is None:
        return None
    if constants.product_row(u) == list(everything) == constants.product_column(u):
        return GroupElement(constants.group, u)
    raise InvariantViolation(f"the unit screens' survivor {u} is not a two-sided unit")


class RingStructure(Frozen):
    """An associative multiplication whose ``commutative`` and ``unit`` are derived."""

    __slots__ = ("mult", "commutative", "unit")

    def __init__(self, mult: StructureConstants) -> None:
        object.__setattr__(self, "mult", mult)
        self.__post_init__()  # the hook that derives the flags

    def __post_init__(self) -> None:
        if not check_associativity(self.mult):
            raise UsageError("a ring needs an associative multiplication")
        object.__setattr__(self, "commutative", check_commutativity(self.mult))
        object.__setattr__(self, "unit", find_unit(self.mult))

    @property
    def group(self) -> GroupSpec:
        return self.mult.group

    @classmethod
    def from_constants(cls, constants: StructureConstants) -> RingStructure:
        return cls(constants)


class DistributivityCounterexample(NamedTuple):
    side: str  # "left" for n*(m+k), "right" for (m+k)*n
    n: int
    m: int
    k: int
    lhs: int
    rhs: int


class DistributivityReport(NamedTuple):
    counterexample: Optional[DistributivityCounterexample]
    checked: int

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _dist_at(mul: BlackBoxMul, n: int, m: int, k: int):
    try:
        left_whole = mul(n, m + k)
        left_split = checked(mul(n, m) + mul(n, k))
        right_whole = mul(m + k, n)
        right_split = checked(mul(m, n) + mul(k, n))
    except IntegerOverflowError as exc:
        raise IntegerOverflowError(
            f"overflow while checking distributivity at (n={n}, m={m}, k={k}): {exc}"
        ) from exc
    if left_whole != left_split:
        return DistributivityCounterexample("left", n, m, k, left_whole, left_split)
    if right_whole != right_split:
        return DistributivityCounterexample("right", n, m, k, right_whole, right_split)
    return None


def check_distributivity_blackbox(
    mul: BlackBoxMul, window: IntegerWindow, seed: int = 0
) -> DistributivityReport:
    """Probe an opaque integer multiplication for two-sided distributivity.

    Runs every triple with |n|, |m|, |k| <= min(3, bound) and m + k in
    the window first (so small counterexamples are found
    deterministically), then, above bound 3, ``DISTRIBUTIVITY_SAMPLES``
    random triples with n in the window and m, k in its half; up to bound
    3 the first phase already covers every such triple. The black box is
    never evaluated outside the window. Returns the first counterexample,
    if any.
    """
    reach = min(3, window.bound)
    small = range(-reach, reach + 1)
    samples = DISTRIBUTIVITY_SAMPLES if reach < window.bound else 0
    triples = itertools.chain(
        ((n, m, k) for n, m, k in itertools.product(small, small, small)
         if m + k in window),
        window.random_triples(samples, seed),
    )
    for checked_count, (n, m, k) in enumerate(triples, 1):
        bad = _dist_at(mul, n, m, k)
        if bad is not None:
            return DistributivityReport(bad, checked_count)
    return DistributivityReport(None, checked_count)
