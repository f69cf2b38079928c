"""Census of ring multiplications on a finite abelian group.

A multiplication is a table of structure constants: entry (i, j) ranges
over the elements whose order divides gcd(n_i, n_j), which is exactly the
well-definedness constraint, so distributivity holds by construction and
only associativity filters the tables. The census counts coordinate tuples;
ring objects are built only for its examples and the public stream.

The search assigns one cell at a time in the growing-square order
00 01 10 11 02 20 12 21 22 ... and tests each generator triple (i, j, l)
as soon as every cell it reads is fixed, so a failing partial table is
cut with all its extensions. The triple reads cells (i, j) and (j, l),
cell (s, l) where C[i][j]_s != 0 and cell (i, s) where C[j][l]_s != 0.
The depth of the last of these depends only on the values of cells
(i, j) and (j, l), so ``_plan`` fixes per depth the triples that
may fall due there. A due triple that reads the new cell only as (s, l)
or (i, s) is linear in it, one congruence per coordinate, so it is
solved: the search tries only the values every such triple admits. A
node is one value tried in one cell, and it meets the due triples whose
(i, j) or (j, l) is that cell. The value of cell 00 names a part of the
search. One loop maps ``_part`` over the parts for every worker count: a
pool takes ``POOL_CHUNK`` parts per ``imap`` call when it would have more
than one process (it never has more than parts or the CPUs this process
may use, and none without ``os.fork``). Its forked workers claim the
parts one at a time from a pipe of tickets, and the parent takes each
part's result in task order as it arrives, still pickled while it waits,
and unpickles it once (``Pool``); else the built-in ``map`` runs one part
at a time in-process. No thread is started and no module loads
``multiprocessing``. Each part returns its tables as int tuples in search
order, which up to rank 2 is row-major order, and the parts come in order
of cell 00.

The transpose C'[i][j] = C[j][i] of a table is the table of the opposite
ring, with the same addition. So the search keeps only the tables that
are at most their transpose in search order, where each mirror pair
(a, m), (m, a) comes as two adjacent cells. ``rigidity_report`` counts
each kept table twice, or once when it is symmetric. The transpose fixes
cell 00, so a table and its transpose lie in one part:
``enumerate_multiplications`` sorts each part's tables together with
their transposes, which is the complete stream in lexicographic order.
It is the only code that orders tables: ``rigidity_report`` counts them
in any order. On Z/N every table is symmetric. Every stream's nodes, and
its budget, are those of the one search.

The census charges the budget per node. A solve runs once per node that
passes, and its work is bounded by the plan's size. The parent charges
the nodes of cell 00 from its set size prod_t gcd(n_t, n_0) before it
builds any set, and refuses a plan whose k^2 candidate sets hold more
values than the budget, from their sizes alone; only cell 00's values are
nodes, so the others are not spent. It adds the parts' counts in task
order, raising once the total exceeds the budget. The parts of one call
share the rest of the budget equally, so a serial part's cap is the whole
rest.
A part cut short at a share below the current rest is run again in the
parent on the whole rest; one cut short at the whole rest needs no second
run, so a serial run never runs a part twice. So the verdict is the same
for every worker count, and a pool does at most about twice the budget's
work before it.

The Z/N census is ``classify_cyclic``: it compares each table's
``product_row``s with the closed form n*m = scale*n*m, raising on a
mismatch, and ``rigidity_report`` on Z/N summarises its entries.

``charge`` is the up-front budget gate of the other work: a Z/N census
charges the N rings x N^2 products of that check, and the CLI the work
bounds of its other commands, all before any work starts.

``full_table_oracle`` is the independent cross-check: it enumerates raw
N x N Cayley tables with no structure-constant machinery at all and keeps
the ones that are distributive and associative over addition mod N.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import os
from typing import Iterator, NamedTuple, Optional

from .abelian import Frozen, GroupSpec
from .errors import CapacityError, InvariantViolation, UsageError
from .structures import RingStructure, StructureConstants, associative_triple
from .structures import unit_coords

DEFAULT_BUDGET = 10**8
GROUP_ORDER_CAP = 10_000
FULL_TABLE_CAP = 3
POOL_CHUNK = 256  # parts per pool.imap call, so the parent's task list is bounded


class SearchConfig(Frozen):
    """Execution settings of the census; both are positive."""

    __slots__ = ("workers", "budget")

    def __init__(self, workers: int = 1, budget: int = DEFAULT_BUDGET) -> None:
        for name, value in (("workers", workers), ("budget", budget)):
            if value < 1:
                raise UsageError(f"search config {name} must be positive")
            object.__setattr__(self, name, value)


_TICKET = 2  # bytes of one ticket, a task index below 2**16


class Pool:
    """``processes`` forked workers per ``imap`` call, with no threads: a
    context manager whose ``imap(fn, tasks)`` yields results in task order.

    The parent writes the task indices as fixed-width tickets to one pipe
    and closes it, then forks the workers. A worker claims one ticket at a
    time (reads this small are atomic), runs ``fn`` on the task list it
    inherited, so no task is pickled, and writes the index and pickled
    result on its own pipe (``_work``). The parent only reads: it polls the
    live pipes, keeps results that arrive early as bytes and yields them in
    task order (``_receive``), so the parts are claimed as workers come free
    and the parent's work on one result overlaps the search of the next.
    It reaps every worker before the call returns, so ``RUSAGE_CHILDREN``
    counts their CPU and memory; on any other exit, and when the pool
    closes, it kills and reaps the workers left. A worker that ends with a
    non-zero status while results are owed raises ``CapacityError``; an
    exception raised by ``fn`` is raised again in the parent. As with any
    pool that forks, the calling process should run no other threads.
    """

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self._workers: dict[int, tuple] = {}  # pipe -> (worker, pid, buffer)

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc) -> bool:
        _stop(self._workers)
        return False

    def imap(self, fn, tasks) -> Iterator:
        import pickle
        import select

        tasks = list(tasks)
        if len(tasks) > POOL_CHUNK:  # so the tickets fit in the pipe unread
            raise UsageError(f"a pool call takes at most {POOL_CHUNK} tasks")
        self._workers = workers = {}
        held: dict[int, bytearray] = {}  # results that came before their turn
        poll = select.poll()
        tickets, feed = os.pipe()
        ticket_bytes = (i.to_bytes(_TICKET, "little") for i in range(len(tasks)))
        os.write(feed, b"".join(ticket_bytes))
        os.close(feed)
        try:
            try:
                for worker in range(min(self.processes, len(tasks))):
                    out, into = os.pipe()
                    pid = os.fork()
                    if pid == 0:
                        for fd in (out, *workers):
                            os.close(fd)
                        _work(fn, tasks, tickets, into)  # never returns
                    os.close(into)
                    workers[out] = (worker, pid, bytearray())
                    poll.register(out, select.POLLIN)
            finally:
                os.close(tickets)
            for index in range(len(tasks)):
                while index not in held:
                    _receive(poll, workers, held, len(tasks) - index)
                ok, result = pickle.loads(held.pop(index))
                if not ok:
                    raise result
                yield result
            while workers:  # after the last result, so the parent works meanwhile
                _receive(poll, workers, held, 0)
        finally:
            _stop(workers)


def _work(fn, tasks: list, tickets: int, into: int) -> None:
    """A pool worker: for each ticket it claims, one record on ``into``, the
    task index and the length (4 bytes each) of the pickled pair (ok,
    result or exception) that follows. It leaves by ``os._exit`` once the
    tickets run out, or with status 1 on an exception outside ``fn``, so it
    never runs the parent's code or flushes its buffers."""
    import pickle

    code = 1
    try:
        while ticket := os.read(tickets, _TICKET):
            index = int.from_bytes(ticket, "little")
            try:
                record = pickle.dumps((True, fn(tasks[index])))
            except Exception as exc:
                record = pickle.dumps((False, exc))
            head = index.to_bytes(4, "little") + len(record).to_bytes(4, "little")
            for data in (head, memoryview(record)):
                while data:
                    data = data[os.write(into, data) :]
        code = 0
    finally:
        os._exit(code)


def _receive(poll, workers: dict, held: dict, left: int) -> None:
    """Wait once for the workers' pipes. Each complete record moves to
    ``held``, still pickled, under its task index. A pipe that ended is the
    end of its worker, reaped at once; while some of the ``left`` results
    are neither yielded nor held, an abnormal end, or the end of the last
    worker, raises ``CapacityError``."""
    for out, _ in poll.poll():
        worker, pid, buffer = workers[out]
        chunk = os.read(out, 1 << 16)
        if chunk:
            buffer += chunk
            while len(buffer) >= 8:
                end = 8 + int.from_bytes(buffer[4:8], "little")
                if len(buffer) < end:
                    break
                held[int.from_bytes(buffer[:4], "little")] = buffer[8:end]
                del buffer[:end]
            continue
        poll.unregister(out)
        os.close(out)
        del workers[out]
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        owed = left - len(held)
        if owed > 0 and (code or not workers):
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise CapacityError(
                f"pool worker {worker} (pid {pid}) ended by {how} with {owed} "
                "results owed"
            )


def _stop(workers: dict) -> None:
    """Kill and reap the workers still running, closing their pipes."""
    if not workers:
        return
    import signal

    for out, (_, pid, _) in workers.items():
        os.close(out)
        os.kill(pid, signal.SIGKILL)
    for _, pid, _ in workers.values():
        os.waitpid(pid, 0)
    workers.clear()


def charge(work: int, budget: int, what: str) -> None:
    """Refuse work up front when it exceeds the budget; ``what`` names its unit."""
    if work > budget:
        raise CapacityError(f"{work} {what}, over the budget of {budget}")


def _order(k: int) -> list[tuple[int, int]]:
    """The k^2 cells in the growing-square order 00 01 10 11 02 20 12 21 22 ...

    Cells (s, l) for s = 0, 1, ... come at increasing depths, and so do
    cells (i, s): ``_plan`` relies on that.
    """
    order = []
    for m in range(k):
        for a in range(m):
            order += [(a, m), (m, a)]
        order.append((m, m))
    return order


def _set_size(moduli: tuple[int, ...], a: int, b: int) -> int:
    """The size of the candidate set of a cell whose factors are Z/a and Z/b."""
    return math.prod(math.gcd(n, a, b) for n in moduli)


def search_space_size(spec: GroupSpec) -> int:
    """The candidate tables: the product of the cells' candidate-set sizes."""
    moduli = spec.moduli
    return math.prod(_set_size(moduli, a, b) for a in moduli for b in moduli)


def _reach(x: tuple[int, ...]) -> int:
    """One past the last non-zero coordinate of x; 0 for the zero vector."""
    return max((s + 1 for s, c in enumerate(x) if c), default=0)


@functools.lru_cache(maxsize=16)
def _plan(moduli: tuple[int, ...]) -> tuple[tuple, ...]:
    """Per depth d, the step (cell, coords, reach_of, solved, tested).

    ``cell`` is the d-th cell of ``_order``, (i, j). Its candidates are the
    x with g*x = 0 for g = gcd(n_i, n_j): in a factor Z/n the multiples of
    n / gcd(n, g), listed as ``coords[t]`` for coordinate t, so their
    product comes out in lexicographic order without a scan of the group.
    ``reach_of`` maps each candidate, in that order, to its ``_reach``.

    Triple (i, j, l) is due where the last cell it reads is fixed:
    due[reach(C[i][j])][reach(C[j][l])] with due[ra][rb] = max(anchor,
    left[ra], right[rb]), where ``anchor`` is the depth of the later of
    cells (i, j) and (j, l), ``left[r]`` that of cell (r - 1, l),
    ``right[r]`` that of cell (i, r - 1), and 0 for the zero vector (see
    ``_order``). The triple and its table are listed at every depth d the
    table gives on the reaches those two cells' candidates hold, taken as
    one reach for both when the two cells are one (i == j == l). The entry
    is ``tested`` at d if the cell there is its (i, j) or (j, l), and
    ``solved`` otherwise: it reads that cell only as (s, l) or (i, s), so
    it is linear in it.
    """
    k = len(moduli)
    order = _order(k)
    depth = {cell: d for d, cell in enumerate(order)}
    coords = [
        tuple(tuple(range(0, n, n // math.gcd(n, g))) for n in moduli)
        for g in (math.gcd(moduli[i], moduli[j]) for i, j in order)
    ]
    reach_of = [{x: _reach(x) for x in itertools.product(*c)} for c in coords]
    solved: list[list[tuple]] = [[] for _ in order]
    tested: list[list[tuple]] = [[] for _ in order]
    r = range(k)
    for i, j, l in itertools.product(r, r, r):
        anchor = max(depth[i, j], depth[j, l])
        left = (0,) + tuple(depth[s, l] for s in r)
        right = (0,) + tuple(depth[i, s] for s in r)
        due = tuple(tuple(max(anchor, a, b) for b in right) for a in left)
        held = itertools.product(
            set(reach_of[depth[i, j]].values()), set(reach_of[depth[j, l]].values())
        )
        if i == j == l:  # cells (i, j) and (j, l) are one cell, with one reach
            held = ((ra, rb) for ra, rb in held if ra == rb)
        for d in {due[ra][rb] for ra, rb in held}:
            entries = tested if order[d] in ((i, j), (j, l)) else solved
            entries[d].append((i, j, l, due))
    return tuple(zip(order, coords, reach_of, map(tuple, solved), map(tuple, tested)))


def _solve(moduli: tuple[int, ...], table, reach, depth: int, step) -> list[list[int]]:
    """Per coordinate t, the values of cell (a, b) of ``step``, the plan's
    step at ``depth``, that every solved triple due there admits.

    Such a triple (i, j, l) reads x = C[a][b] as C[s][l] for s = a when
    l == b and as C[i][s] for s = b when i == a, so in coordinate t it says
    alpha * x_t + rest_t = 0 mod n_t, alpha = [l == b] C[i][j]_a - [i == a]
    C[j][l]_b, where rest_t is the rest of the sum. As in
    ``associative_triple`` a zero coefficient reads no cell, so only cells
    fixed at earlier depths are read.
    """
    (a, b), coords, _, solved, _ = step
    values = list(coords)
    r = range(len(moduli))
    for i, j, l, due in solved:
        ij, jl = table[i][j], table[j][l]
        if due[reach[i][j]][reach[j][l]] != depth:
            continue
        left = a if l == b else -1  # the s whose term holds x, or none
        right = b if i == a else -1
        alpha = (ij[a] if l == b else 0) - (jl[b] if i == a else 0)
        row = table[i]
        for t in r:
            rest = 0
            for s in r:
                if ij[s] and s != left:
                    rest += ij[s] * table[s][l][t]
                if jl[s] and s != right:
                    rest -= jl[s] * row[s][t]
            n = moduli[t]
            values[t] = [x for x in values[t] if (alpha * x + rest) % n == 0]
            if not values[t]:
                return values
    return values


def _part(task: tuple) -> tuple[list[tuple], int]:
    """The tables with one value of cell 00 that are at most their
    transpose, as int tuples in search order, and the nodes visited.

    task = (moduli, value of cell 00, cap). A node is one value tried in
    one cell after cell 00; past ``cap`` nodes the search stops and
    reports cap + 1. On entering a depth the search solves the ``solved``
    entries of that depth's step (see ``_plan``) whose due depth, looked up
    from the reaches of the cells fixed so far, is that depth, and tries
    only the values they admit, in lexicographic order. Each tried value then
    meets the due entries of ``tested``, so each triple is checked once per
    path. A failing tested triple moves to the front of its list, so the
    triple that cuts most is tried first. Cell 00 meets the tested entries
    of depth 0 alike, and none is solved there; a failing value of it
    returns no tables and no nodes.

    While every mirror pair so far is symmetric (``tied``), cell (a, b)
    with a > b drops the values below C[b][a], by first coordinate before
    the product, and never makes them nodes. Cell 00 closes no mirror pair,
    so every part starts tied.
    """
    moduli, value, cap = task
    plan = _plan(moduli)
    checks_at = [list(tested) for *_, tested in plan]
    k = len(moduli)
    table = [[None] * k for _ in range(k)]
    reach = [[0] * k for _ in range(k)]
    table[0][0] = value
    reach[0][0] = plan[0][2][value]
    found = []
    nodes = 0

    def passes(depth: int) -> bool:
        checks = checks_at[depth]
        for n, (i, j, l, due) in enumerate(checks):
            if due[reach[i][j]][reach[j][l]] == depth and not associative_triple(
                moduli, table, i, j, l
            ):
                if n:
                    checks.insert(0, checks.pop(n))  # tried first next time
                return False
        return True

    def extend(depth: int, tied: bool) -> None:
        nonlocal nodes
        if depth == len(plan):
            found.append(tuple(map(tuple, table)))
            return
        step = plan[depth]
        (a, b), _, reach_of, _, _ = step
        row, reach_row = table[a], reach[a]
        values = _solve(moduli, table, reach, depth, step)
        mirror = table[b][a] if tied and a > b else None
        if mirror is not None:  # a smaller first coordinate drops before the product
            values[0] = values[0][bisect.bisect_left(values[0], mirror[0]) :]
        values = itertools.product(*values)
        if mirror is not None:  # lexicographic, so the values below come first
            values = itertools.dropwhile(mirror.__gt__, values)
        for x in values:
            if nodes >= cap:
                nodes = cap + 1
                return
            nodes += 1
            row[b] = x
            reach_row[b] = reach_of[x]
            if passes(depth):
                extend(depth + 1, tied and (mirror is None or x == mirror))

    if passes(0):
        extend(1, True)
    return found, nodes


def _tables(spec: GroupSpec, config: SearchConfig) -> Iterator[list[tuple]]:
    """Every associative table on the group that is at most its transpose,
    exactly once, as coordinate tuples: one list per value of cell 00.

    The parts come in order of cell 00, each in search order, which is
    lexicographic only up to rank 2. Every node of the search is
    charged against the budget, and the search raises once the count
    exceeds it. The nodes of cell 00 are charged from its set size alone,
    before any candidate set is built, and a plan whose sets hold more
    values than the budget is refused before ``_plan`` builds them. A pool
    streams ``_part``'s results through ``Pool.imap``, so the parent
    unpickles one part's tables at a time, each once.
    """
    if spec.order > GROUP_ORDER_CAP:
        raise CapacityError(
            f"group order {spec.order} exceeds the search cap {GROUP_ORDER_CAP}"
        )
    budget = config.budget
    moduli = spec.moduli
    parts = _set_size(moduli, moduli[0], moduli[0])  # one per value of cell 00
    spent = 0

    def spend(nodes: int) -> None:
        nonlocal spent
        spent += nodes
        if spent > budget:
            raise CapacityError(
                f"the census of {spec} visits more than {budget} search nodes "
                "(cell values tried), the budget"
            )

    spend(parts)  # the parent visits every value of cell 00; a failing one adds none
    # the plan's k^2 candidate sets, refused and not spent: only cell 00's
    # values are nodes yet
    sets = sum(_set_size(moduli, a, b) for a in moduli for b in moduli)
    charge(sets, budget, f"candidate cell values in the census plan of {spec}")
    values = itertools.product(*_plan(moduli)[0][1])
    if not hasattr(os, "fork"):
        cpus = 1  # no pool without fork: the parts run in-process
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may use
    else:
        cpus = os.cpu_count() or 1
    processes = min(config.workers, parts, cpus)
    with Pool(processes) if processes > 1 else contextlib.nullcontext() as pool:
        size = 1 if pool is None else POOL_CHUNK
        # perfbench's traced pool has only map, which runs a chunk at once
        run = map if pool is None else getattr(pool, "imap", None) or pool.map
        for chunk in iter(lambda: list(itertools.islice(values, size)), []):
            share = (budget - spent) // len(chunk)
            tasks = [(moduli, value, share) for value in chunk]
            # results first, so a pool's imap is resumed past its last result
            for (tables, nodes), value in zip(run(_part, tasks), chunk):
                if nodes > share and share < budget - spent:  # cut short below the rest
                    tables, nodes = _part((moduli, value, budget - spent))
                spend(nodes)
                yield tables


def enumerate_multiplications(
    spec: GroupSpec, config: SearchConfig = SearchConfig()
) -> Iterator[RingStructure]:
    """Every associative bilinear multiplication on the group, exactly once.

    Each part of ``_tables`` with the transposes of its tables, sorted, as
    checked ``RingStructure``s: the complete stream in lexicographic order,
    under the budget of the search.
    """
    return (
        RingStructure(StructureConstants(spec, t))
        for part in _tables(spec, config)
        for t in sorted({*part, *(tuple(zip(*c)) for c in part)})
    )


class RigidityReport(NamedTuple):
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


class CyclicClassification(NamedTuple):
    """One multiplication on Z/N: its scale mul(1, 1) and its unit, if any."""

    scale: int
    unit: Optional[int]


def classify_cyclic(
    modulus: int, config: SearchConfig = SearchConfig()
) -> list[CyclicClassification]:
    """Classify every multiplication on Z/modulus by its scale mul(1, 1), in
    scale order: the Z/N census, each ring checked against scale*n*m.

    Row x of the ring of scale a must equal ``closed[a*x % n]``, the row
    c*m of c = a*x. The N closed rows are built once, after the N^3
    charge, so an over-budget N allocates nothing; their N^2 list slots
    over N shared tuples are bounded by budget^(2/3). Those tuples are the
    check's own, not the kernel's, so each comparison reads values the
    kernel did not make. ``product_row`` is called for every table and
    every x and its output is never reused: the kernel is what is checked.
    A mismatch contradicts what the enumeration guarantees, so it raises
    rather than reports.
    """
    spec = GroupSpec((modulus,))
    n = modulus
    charge(n**3, config.budget, f"scaled-form products on Z/{n} ({n} rings x {n}^2)")
    residues = [(m,) for m in range(n)]
    closed = [[residues[c * m % n] for m in range(n)] for c in range(n)]
    entries = []
    for (table,) in _tables(spec, config):  # on Z/N a part is one table
        scale = table[0][0][0]
        mult = StructureConstants(spec, table)
        for x in range(n):
            if mult.product_row((x,)) != closed[scale * x % n]:
                raise InvariantViolation(
                    f"multiplication on Z/{n} is not the scaled form of its "
                    f"own mul(1,1) = {scale}"
                )
        (unit,) = unit_coords(spec.moduli, table) or (None,)
        entries.append(CyclicClassification(scale, unit))
    return entries


def rigidity_report(
    spec: GroupSpec, config: SearchConfig = SearchConfig()
) -> RigidityReport:
    """Count the census on its coordinate tables; only the examples become rings.

    It searches one table of each mirror pair, a table and its transpose
    (the opposite ring), and counts it twice, or once when it is
    symmetric; only the searched tables meet the unit screen. The examples
    are the two smallest unital tables among those and their transposes,
    so the first two of the complete stream. On Z/N, where every table is
    symmetric, it summarises ``classify_cyclic``, so a mismatch raises: the
    unital scales in scale order, and the rings of the first two.
    """
    scales = None
    if spec.is_cyclic:
        entries = classify_cyclic(spec.moduli[0], config)
        scales = tuple(entry.scale for entry in entries if entry.unit is not None)
        total = commutative = len(entries)
        unital = len(scales)
        smallest = [(((scale,),),) for scale in scales[:2]]  # C[0][0] = (scale,)
    else:
        total = commutative = unital = 0
        smallest = []
        for table in itertools.chain.from_iterable(_tables(spec, config)):
            transpose = tuple(zip(*table))
            symmetric = table == transpose  # by bilinearity, commutativity
            weight = 1 if symmetric else 2
            total += weight
            commutative += symmetric
            if unit_coords(spec.moduli, table) is not None:
                unital += weight
                smallest = sorted({*smallest, table, transpose})[:2]
    return RigidityReport(
        group=spec,
        total=total,
        commutative_count=commutative,
        unital_count=unital,
        unital_scales=scales,
        unital_examples=tuple(
            RingStructure(StructureConstants(spec, t)) for t in smallest
        ),
        search_space=search_space_size(spec),
    )


FullTable = tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=FULL_TABLE_CAP)
def _triples(modulus: int) -> tuple[tuple[int, int, int, int], ...]:
    """The N^3 index tuples (a, b, c, (b + c) mod N), a outermost."""
    rng = range(modulus)
    return tuple((a, b, c, (b + c) % modulus) for a in rng for b in rng for c in rng)


def _table_distributive(table: FullTable, modulus: int) -> bool:
    """Row a, then column a, distributes over b + c, for every triple in turn."""
    for a, b, c, s in _triples(modulus):
        row = table[a]
        if row[s] != (row[b] + row[c]) % modulus:
            return False
        if table[s][a] != (table[b][a] + table[c][a]) % modulus:
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
    all triples. The tables are walked as N-tuples of the N^N possible
    rows, so no table is sliced out of a flat tuple, and every one of the
    N^(N^2) tables is still decided, distributivity in one flat walk over
    the index tuples of ``_triples``. The survivor set is the ground truth
    the enumeration is compared against.
    """
    if not isinstance(modulus, int) or modulus < 2:
        raise UsageError(f"full-table oracle modulus must be >= 2, got {modulus!r}")
    if modulus > FULL_TABLE_CAP:
        raise CapacityError(
            f"full-table oracle capped at carrier size {FULL_TABLE_CAP}, got "
            f"{modulus} ({modulus}^{modulus * modulus} tables)"
        )
    survivors = []
    rows = list(itertools.product(range(modulus), repeat=modulus))
    for table in itertools.product(rows, repeat=modulus):
        if _table_distributive(table, modulus) and _table_associative(table, modulus):
            survivors.append(table)
    return frozenset(survivors)


def expand_to_full_table(constants: StructureConstants) -> FullTable:
    """Expand a cyclic structure-constant table to its full Cayley table."""
    if not constants.group.is_cyclic:
        raise UsageError(f"only a cyclic table expands, not one on {constants.group}")
    return tuple(
        tuple(c for (c,) in constants.product_row((n,)))
        for n in range(constants.group.moduli[0])
    )
