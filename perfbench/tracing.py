"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces the public functions of each ringrigidity
module with wrappers at every module that binds them (``find_unit`` is
bound in ``structures``, ``enumeration`` and ``scaled``, for instance).
Each call records a span: name, start, end, parent span and query id. A
generator records one span per resumption, so the time a consumer spends
between items is not charged to the generator. ``GroupElement``
constructions are counted without a span, because there are millions.

Spans are kept in typed arrays in memory and written out by ``dump``.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import resource
import time
from array import array
from collections import Counter
from multiprocessing import Pool as _RealPool
from pathlib import Path

import ringrigidity
from ringrigidity import abelian, cli, enumeration, matrices, scaled, structures

MODULES = (ringrigidity, abelian, structures, enumeration, scaled, matrices, cli)

# The tracer a forked pool worker inherits; the worker detaches it so that
# worker-side work runs untraced (spans inside workers are not recorded).
_ACTIVE = None


def _detach_in_worker() -> None:
    if _ACTIVE is not None:
        _ACTIVE.uninstall()


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_query = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.query = 0
        self.counts: Counter = Counter()
        self.elements = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span per call; ``observe(result, args)`` sees each result."""
        nid = self._name_id(name)
        names, queries, parents = self.span_name, self.span_query, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            queries.append(self.query)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose every resumption is a span."""
        step = self.wrap(name, next)
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = step(inner)
                    except StopIteration:
                        return
                    counts[name + ".items"] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` in every module that binds it."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self) -> None:
        global _ACTIVE
        wrap, gen = self.wrap, self.wrap_generator
        elements = self.elements
        element_init = abelian.GroupElement.__post_init__

        def counted_element_init(element):
            elements[0] += 1
            element_init(element)

        self._patch(abelian.GroupElement, "__post_init__", counted_element_init)
        sc = structures.StructureConstants
        self._patch(sc, "__post_init__", wrap("structures.validate", sc.__post_init__))
        self._patch(sc, "eval", wrap("structures.eval", sc.eval))
        from_constants = structures.RingStructure.from_constants.__func__
        self._patch(
            structures.RingStructure,
            "from_constants",
            classmethod(wrap("structures.classify", from_constants)),
        )

        counts = self.counts

        def assoc_result(result, args):
            counts["structures.assoc_passes"] += bool(result)

        def oracle_result(result, args):
            modulus = args[0]
            counts["enumeration.oracle_tables"] += modulus ** (modulus * modulus)

        def window_result(report, args):
            bound = args[1].bound
            if report.rejected:
                return
            side = 2 * bound + 1
            if report.ok:
                counts["scaled.window_pairs"] += side * side
            else:
                n, m = report.counterexample
                counts["scaled.window_pairs"] += (n + bound) * side + m + bound + 1

        spanned = [
            (structures.check_associativity, "structures.assoc", assoc_result),
            (structures.find_unit, "structures.unit", None),
            (structures.check_distributivity_blackbox, "structures.distributivity", None),
            (enumeration.rigidity_report, "enumeration.aggregate", None),
            (enumeration.classify_cyclic, "enumeration.classify", None),
            (enumeration.full_table_oracle, "enumeration.oracle", oracle_result),
            (enumeration.expand_to_full_table, "enumeration.expand", None),
            (scaled.verify_scaled_form, "scaled.window_check", window_result),
            (scaled.scaled_identity_suite, "scaled.identity_suite", None),
            (scaled.find_unit_windowed, "scaled.unit_scan", None),
            (scaled.find_pm1_violation, "scaled.pm1_scan", None),
            (scaled.scaled_unit_sweep, "scaled.sweep", None),
            (scaled.scale_ring, "scaled.scale_ring", None),
            (matrices.mat_mul_standard, "matrices.product", None),
            (matrices.mat_mul_hadamard, "matrices.product", None),
            (matrices.sample_axioms, "matrices.axioms", None),
            (matrices.noncommutativity_witness, "matrices.witness", None),
            (matrices.unit_matrix, "matrices.unit", None),
            (cli.run, "cli.run", None),
        ]
        for fn, name, observe in spanned:
            self._rebind(fn, wrap(name, fn, observe))
        for fn, name in [
            (abelian.all_elements, "abelian.all_elements"),
            (enumeration.enumerate_multiplications, "enumeration.stream"),
        ]:
            self._rebind(fn, gen(name, fn))
        self._name_id("enumeration.pool_wait")  # a span only once a pool starts
        self._patch(enumeration, "Pool", self._traced_pool)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    def _traced_pool(self, processes):
        return _TracedPool(self, processes)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls and self time; validations made by the stream."""
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        stream = self.names.index("enumeration.stream")
        validate = self.names.index("structures.validate")
        in_stream = 0
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            duration = ends[i] - starts[i]
            row["calls"] += 1
            row["self_s"] += duration - child[i]
            p = parents[i]
            if self.span_name[i] == validate and p >= 0 and self.span_name[p] == stream:
                in_stream += 1
        out["structures.validate"]["in_stream"] = in_stream
        return out

    def dump(self, path: Path) -> None:
        """Write every span as fixed-width columns plus a JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [["name", "H"], ["query", "H"], ["parent", "q"],
                        ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as out:
            head = json.dumps(header).encode()
            out.write(len(head).to_bytes(4, "little") + head)
            for column in (self.span_name, self.span_query, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(out)


class _TracedPool:
    """``multiprocessing.Pool`` seen from the parent: tasks, wait, child CPU."""

    def __init__(self, tracer: Tracer, processes: int) -> None:
        self._tracer = tracer
        self._processes = processes
        self._cpu0 = children_cpu_s()
        self._wait = 0.0
        self._pool = _RealPool(processes, initializer=_detach_in_worker)
        self.map = tracer.wrap("enumeration.pool_wait", self._map)

    def _map(self, fn, tasks):
        tasks = list(tasks)
        self._tracer.counts["enumeration.pool_tasks"] += len(tasks)
        start = time.perf_counter()
        try:
            return self._pool.map(fn, tasks)
        finally:
            self._wait += time.perf_counter() - start

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        result = self._pool.__exit__(*exc)
        self._pool.join()
        tracer = self._tracer
        tracer.counts["enumeration.worker_cpu_s"] += children_cpu_s() - self._cpu0
        # worker CPU the pool could have used while the parent waited on it
        tracer.counts["enumeration.worker_capacity_s"] += self._processes * self._wait
        return result


def layer_metrics(tracer: Tracer, output_bytes: int, factor: float) -> dict[str, tuple]:
    """Per-layer metric -> (value, present, base).

    Times are multiplied by the speed ``factor`` of the traced pass, so they
    are reference seconds like the end-to-end times. ``present`` is False
    when the workload never entered the layer behind the metric (or a
    ratio's base is zero); ``base`` names a ratio's numerator and
    denominator with their values.
    """
    agg = tracer.aggregate()
    counts = tracer.counts
    out: dict[str, tuple] = {}

    def span(metric: str, name: str, calls_metric: str | None = None) -> None:
        row = agg[name]
        present = row["calls"] > 0
        out[metric] = (row["self_s"] * factor, present, None)
        if calls_metric:
            out[calls_metric] = (row["calls"], present, None)

    def count(metric: str, value, present: bool) -> None:
        out[metric] = (value, present, None)

    def ratio(metric: str, top: str, bottom: str) -> None:
        num, den = out[top][0], out[bottom][0]
        present = out[top][1] and out[bottom][1] and den > 0
        base = f"{top} / {bottom} = {num:.6g} / {den:.6g}"
        out[metric] = (num / den if present else 0.0, present, base)

    candidates = agg["structures.validate"]["in_stream"]
    count("enumeration.candidates", candidates, candidates > 0)
    elements = tracer.elements[0]
    count("abelian.elements_built", elements, elements > 0)
    ratio("abelian.elements_per_candidate", "abelian.elements_built",
          "enumeration.candidates")
    calls = counts["abelian.all_elements.calls"]
    count("abelian.all_elements_calls", calls, calls > 0)
    span("abelian.all_elements_s", "abelian.all_elements")

    span("structures.validate_s", "structures.validate", "structures.validate_calls")
    span("structures.assoc_s", "structures.assoc", "structures.assoc_calls")
    count("structures.assoc_passes", counts["structures.assoc_passes"],
          out["structures.assoc_calls"][1])
    ratio("structures.assoc_pass_ratio", "structures.assoc_passes",
          "structures.assoc_calls")
    span("structures.eval_s", "structures.eval", "structures.eval_calls")
    span("structures.unit_s", "structures.unit", "structures.unit_calls")
    span("structures.classify_s", "structures.classify")
    span("structures.distributivity_s", "structures.distributivity")

    streams = counts["enumeration.stream.calls"]
    count("enumeration.stream_calls", streams, streams > 0)
    span("enumeration.stream_s", "enumeration.stream")
    count("enumeration.survivors", counts["enumeration.stream.items"], streams > 0)
    ratio("enumeration.survivor_ratio", "enumeration.survivors",
          "enumeration.candidates")
    span("enumeration.aggregate_s", "enumeration.aggregate")
    span("enumeration.classify_s", "enumeration.classify")
    span("enumeration.oracle_s", "enumeration.oracle")
    count("enumeration.oracle_tables", counts["enumeration.oracle_tables"],
          out["enumeration.oracle_s"][1])
    span("enumeration.expand_s", "enumeration.expand")
    span("enumeration.pool_wait_s", "enumeration.pool_wait")
    pooled = out["enumeration.pool_wait_s"][1]
    count("enumeration.pool_tasks", counts["enumeration.pool_tasks"], pooled)
    count("enumeration.worker_cpu_s", counts["enumeration.worker_cpu_s"] * factor,
          pooled)
    count("enumeration.worker_capacity_s",
          counts["enumeration.worker_capacity_s"] * factor, pooled)
    ratio("enumeration.worker_busy_ratio", "enumeration.worker_cpu_s",
          "enumeration.worker_capacity_s")

    span("scaled.window_check_s", "scaled.window_check")
    count("scaled.window_pairs", counts["scaled.window_pairs"],
          counts["scaled.window_pairs"] > 0)
    ratio("scaled.window_pairs_per_s", "scaled.window_pairs", "scaled.window_check_s")
    span("scaled.identity_suite_s", "scaled.identity_suite")
    span("scaled.unit_scan_s", "scaled.unit_scan")
    span("scaled.pm1_scan_s", "scaled.pm1_scan")
    span("scaled.sweep_s", "scaled.sweep")
    span("scaled.scale_ring_s", "scaled.scale_ring", "scaled.scale_ring_calls")

    span("matrices.axioms_s", "matrices.axioms")
    span("matrices.witness_s", "matrices.witness")
    span("matrices.unit_s", "matrices.unit")
    products = agg["matrices.product"]["calls"]
    count("matrices.products", products, products > 0)

    span("cli.self_s", "cli.run")
    count("cli.output_bytes", output_bytes, out["cli.self_s"][1])
    return out
