"""One workload in its own process: timed passes, the answer gate, metrics.

Usage (from the repository root; run.py starts it):
    python3 perfbench/session.py --workload census --seed 1 --seconds 16 --trace 0

Untraced (``--trace 0``) it repeats the workload's query set, in an order
drawn from the seed, for the workload's ``passes`` and then until another
pass would end after ``--seconds``, and prints the end-to-end metrics
except ``setup_s``, in reference seconds (see speed.py). Traced
(``--trace 1``) it runs one untraced pass as the base of the tracing
overhead, then one pass with spans, and prints the per-layer metrics.
Every answer of every pass goes through the gate. The last stdout line is
one JSON object; the details go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import expected  # noqa: E402
import speed  # noqa: E402
from ringrigidity import cli, scaled  # noqa: E402
from ringrigidity.abelian import IntegerWindow  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
RESULTS = BENCH / "results"


class OffsetMult:
    """a*n*m + 1: not distributive, so verify_scaled_form rejects it early."""

    def __init__(self, scale: int) -> None:
        self.scale = scale

    def __call__(self, n: int, m: int) -> int:
        return self.scale * n * m + 1


class Query:
    def __init__(self, spec: dict, workers: int, scale: int, sample_seed: int,
                 known: dict) -> None:
        self.spec = spec
        self.library = spec.get("library")
        if self.library:
            self.id = f"{self.library} {spec['path']} bound={spec['bound']}"
            self.argv = None
        else:
            self.argv = [a.replace("{workers}", str(workers)) for a in spec["argv"]]
            self.id = " ".join(spec["argv"])
        self.scale = scale
        self.sample_seed = sample_seed
        self.opts = dict(zip(self.argv[1::2], self.argv[2::2])) if self.argv else {}
        self.pooled = int(self.opts.get("--workers", 1)) > 1
        self.pinned = {}  # census counts published with the paper
        self.golden = (GOLDEN / spec["golden"]).read_text() if "golden" in spec else None
        self.fields = self._expected_fields(known)

    def _expected_fields(self, known: dict) -> dict:
        if self.library:
            return {}
        opts = self.opts
        command = self.argv[0]
        if command == "enumerate":
            group = opts["--group"]
            fields = expected.reference_census(tuple(int(n) for n in group.split(",")))
            self.pinned = dict(zip(known["fields"], known["census"].get(group, ())))
            return fields
        if command == "classify":
            return expected.classify(int(opts["--modulus"]))
        if command == "scaled-units":
            return expected.scaled_units(int(opts["--modulus"]))
        if command == "verify-scaled":
            return expected.verify_scaled(int(opts["--a"]), int(opts["--bound"]))
        if command == "matrix-demo":
            return expected.matrix_demo(int(opts["--n"]), int(opts["--mod"]))
        raise SystemExit(f"no known answer for {self.id}")

    def execute(self):
        """Answer the query; returns (exit code, output text, library report)."""
        if self.library:
            window = IntegerWindow(self.spec["bound"])
            mul = (scaled.ScaledMult(self.scale) if self.spec["path"] == "accept"
                   else OffsetMult(self.scale))
            report = scaled.verify_scaled_form(mul, window, seed=self.sample_seed)
            return 0, "", report
        buf = io.StringIO()
        code = cli.run(self.argv + ["--no-timing"], stdout=buf)
        return code, buf.getvalue(), None

    def problems(self, code: int, text: str, report) -> list[str]:
        """Every way this answer differs from the known one."""
        if self.library:
            if self.spec["path"] == "accept":
                ok = (report.ok and report.scale == self.scale
                      and report.counterexample is None and not report.rejected)
            else:
                ok = not report.ok and report.rejected and report.scale is None
            return [] if ok else [f"verify_scaled_form {self.spec['path']} path"]
        if code != 0:
            return [f"exit code {code}"]
        out = []
        result = json.loads(text)
        if result["command"] != self.argv[0] or result["status"] != "ok":
            out.append("command or status")
        for source, fields in (("reference", self.fields), ("pinned", self.pinned)):
            out += [f"payload field {k} differs from the {source} answer" for k in
                    expected.mismatches(result["payload"], fields)]
        if self.golden is not None and text != self.golden:
            out.append(f"bytes differ from tests/golden/{self.spec['golden']}")
        return out

    def candidates(self, text: str) -> int:
        """Candidates this query decides exhaustively (see spec.json)."""
        if self.library:
            side = 2 * self.spec["bound"] + 1
            return side * side if self.spec["path"] == "accept" else 0
        if self.argv[0] == "enumerate":
            return json.loads(text)["payload"]["search_space"]
        return 0


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Session:
    def __init__(self, args, spec: dict) -> None:
        self.args = args
        work = spec["workloads"][args.workload]
        self.rng = random.Random(args.seed)
        scale = self.rng.choice(spec["scale_choices"])
        sample_seed = self.rng.randrange(2**32)
        self.workers = min(spec["parallel_workers"], len(os.sched_getaffinity(0)))
        known = {"census": spec["known_census"], "fields": spec["known_census_fields"]}
        self.queries = [Query(q, self.workers, scale, sample_seed, known)
                        for q in work["queries"]]
        self.draws = {"scale": scale, "sample_seed": sample_seed}
        self.passes: list[dict] = []
        self.latency = {q.id: [] for q in self.queries}
        self.ref_latency = {q.id: [] for q in self.queries}
        self.outputs: dict[str, list[str]] = {q.id: [] for q in self.queries}
        self.failures: list[dict] = []
        self.attempted = 0
        self.candidates = {}
        self.min_passes = work["passes"]
        matched = [q for q in self.queries if q.spec.get("serial_match")]
        # one group per run keeps the untimed serial rerun short; seeds rotate it
        self.serial_check = [self.rng.choice(matched)] if matched else []

    def run_pass(self, probe, on_query=None) -> dict:
        order = list(self.queries)
        self.rng.shuffle(order)
        answers = []
        first, cpu0, start = probe.mark(), cpu_s(), time.perf_counter()
        for query in order:
            if on_query is not None:
                on_query(self.queries.index(query))
            probe.rotate = query.pooled
            m0, t0 = probe.mark(), time.perf_counter()
            answer = query.execute()
            answers.append((query, time.perf_counter() - t0, m0, probe.mark(), answer))
        record = {"wall_s": time.perf_counter() - start, "cpu_s": cpu_s() - cpu0,
                  "order": [q.id for q in order]}
        factor = probe.factor(first, probe.mark())
        record.update(ref_wall_s=record["wall_s"] * factor,
                      ref_cpu_s=record["cpu_s"] * factor, speed_factor=factor)
        for query, seconds, m0, m1, (code, text, report) in answers:
            self.attempted += 1
            self.latency[query.id].append(seconds)
            self.ref_latency[query.id].append(seconds * probe.factor(m0, m1, factor))
            self.outputs[query.id].append(text)
            problems = query.problems(code, text, report)
            if not problems:
                self.candidates[query.id] = query.candidates(text)
            else:
                self.failures.append({"query": query.id, "pass": len(self.passes),
                                      "problems": problems})
        record["output_bytes"] = sum(len(a[4][1].encode()) for a in answers)
        self.passes.append(record)
        return record

    def check_serial_match(self) -> None:
        """Parallel census output must equal the serial census byte for byte."""
        for query in self.serial_check:
            argv = list(query.argv)
            argv[argv.index("--workers") + 1] = "1"
            buf = io.StringIO()
            cli.run(argv + ["--no-timing"], stdout=buf)
            for number, text in enumerate(self.outputs[query.id]):
                if text != buf.getvalue():
                    self.failures.append({"query": query.id, "pass": number,
                                          "problems": ["bytes differ from --workers 1"]})

    def timed(self, probe) -> tuple[dict, dict]:
        start = time.perf_counter()
        with probe:
            while True:
                self.run_pass(probe)
                walls = [p["wall_s"] for p in self.passes]
                elapsed = time.perf_counter() - start
                if (len(walls) >= self.min_passes
                        and elapsed + statistics.median(walls) > self.args.seconds):
                    break
        self.check_serial_match()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # parent peak plus the largest pool worker's peak, in MiB
        rss = {"peak_rss_mb": (own + kids) / 1024}
        return ({**self._times(self.ref_latency, "ref_wall_s", "ref_cpu_s"), **rss},
                {**self._times(self.latency, "wall_s", "cpu_s"), **rss})

    def _times(self, latency: dict, wall: str, cpu: str) -> dict:
        per_query = {qid: statistics.median(v) for qid, v in latency.items()}
        census = [qid for qid, n in self.candidates.items() if n]
        return {
            "wall_s": statistics.median(p[wall] for p in self.passes),
            "cpu_s": statistics.median(p[cpu] for p in self.passes),
            "query_p50_s": statistics.median(per_query.values()),
            "query_max_s": max(per_query.values()),
            "candidates_per_s": (sum(self.candidates[q] for q in census)
                                 / sum(per_query[q] for q in census)) if census else 0.0,
        }

    def traced(self, probe) -> tuple[dict, object]:
        import tracing

        tracer = tracing.Tracer()

        def mark(index: int) -> None:
            tracer.query = index

        with probe:
            base = self.run_pass(probe)
            tracer.install()
            try:
                traced = self.run_pass(probe, on_query=mark)
            finally:
                tracer.uninstall()
        self.check_serial_match()
        rows = tracing.layer_metrics(tracer, traced["output_bytes"],
                                     traced["speed_factor"])
        ratio = traced["ref_wall_s"] / base["ref_wall_s"]
        rows["trace.wall_s"] = (traced["ref_wall_s"], True, None)
        rows["trace.untraced_wall_s"] = (base["ref_wall_s"], True, None)
        rows["trace.overhead_ratio"] = (
            ratio, True,
            f"trace.wall_s / trace.untraced_wall_s = {traced['ref_wall_s']:.4f}"
            f" / {base['ref_wall_s']:.4f}")
        return rows, tracer


def report_table(workload: str, rows: dict, units: dict) -> str:
    lines = [f"traced run, workload {workload}",
             f"{'metric':36} {'value':>16} {'unit':6} base"]
    for name, unit in units.items():
        value, present, base = rows[name]
        shown = f"{value:16.6g}" if present else f"{'absent':>16}"
        lines.append(f"{name:36} {shown} {unit:6} {base or ''}".rstrip())
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spec = json.loads((BENCH / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    session = Session(args, spec)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "draws": session.draws,
              "workers": session.workers,
              "serial_check": [q.id for q in session.serial_check]}
    probe = speed.SpeedProbe(spec["probe_interval_s"], spec["probe_nominal_s"])
    if args.trace:
        rows, tracer = session.traced(probe)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        table = report_table(args.workload, rows, units)
        print(table, file=sys.stderr)
        (stem.with_suffix(".txt")).write_text(table + "\n")
        tracer.dump(stem.with_suffix(".spans"))
        metrics = {name: rows[name][0] for name in units}
        detail["layers"] = {name: {"value": v, "present": p, "base": b}
                            for name, (v, p, b) in rows.items()}
    else:
        metrics, raw = session.timed(probe)
        detail["raw_metrics"] = raw
    detail["probe_samples"] = len(probe.samples)
    detail.update({
        "passes": session.passes,
        "query_latency_s": {
            qid: {"raw": {**quartiles(raw), "samples": raw},
                  "reference": {**quartiles(ref), "samples": ref}}
            for (qid, raw), ref in zip(session.latency.items(),
                                       session.ref_latency.values())
        },
        "failures": session.failures,
    })
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    failed = len({(f["query"], f["pass"]) for f in session.failures})
    for failure in session.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"attempted": session.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
