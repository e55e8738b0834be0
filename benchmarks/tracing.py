"""In-memory spans for the traced benchmark run, the per-layer metrics
derived from them, and the quartiles every benchmark summary uses.

A span records a name, its start and end (seconds on the monotonic clock),
the span that caused it and a few attributes. Spans of one repetition share
its run id. Probe spans re-time work a solve hides; they name that solve as
their parent and run right after it ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as `statistics.quantiles(values, n=4)` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Tracer:
    """Collects spans in memory when enabled; a no-op otherwise."""

    def __init__(self, enabled: bool, run_id: str = ""):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self.notes: dict = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        if not self.enabled:
            yield None
            return
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {"id": len(self.spans), "run": self.run_id, "name": name,
               "parent": parent, "start": time.monotonic(), "end": None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def note(self, **values) -> None:
        """Counts and values observed at a layer boundary, kept with the
        spans."""
        if self.enabled:
            self.notes.update(values)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "notes": self.notes}, fh, indent=1)
            fh.write("\n")


def _total(spans, name, **match) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name
               and all(s["attrs"].get(k) == v for k, v in match.items()))


def layer_metrics(trace: dict, untraced: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from one traced repetition's spans and notes, plus
    the untraced medians (`wall_s`, `peak_rss_mib`, `import_rss_mib`) that
    serve as bases for the overhead and memory ratios. Layers a workload
    does not touch read 0."""
    spans = trace["spans"]
    notes = trace["notes"]
    solves = [s for s in spans if s["name"] == "schemes.solve"]
    body = next(s for s in spans if s["name"] == "body")
    out = {
        "testcases.rhs_s": _total(spans, "testcases.rhs"),
        "testcases.exact_u_s": _total(spans, "testcases.exact_u"),
        "convergence.error_s": _total(spans, "convergence.error"),
        "schemes.solve_s": _total(spans, "schemes.solve"),
        "schemes.cert_s": _total(spans, "schemes.cert"),
        "grid.field_write_s": _total(spans, "grid.field_write"),
        "grid.field_read_s": _total(spans, "grid.field_read"),
        "pareto.load_s": _total(spans, "pareto.load"),
        "pareto.fronts_s": _total(spans, "pareto.fronts"),
        "pareto.rank_s": _total(spans, "pareto.rank"),
        "pareto.agreement_s": _total(spans, "pareto.agreement"),
        "pareto.save_s": _total(spans, "pareto.save"),
        "pareto.fronts": float(notes.get("pareto_fronts", 0)),
        "pareto.agreement": float(notes.get("pareto_agreement", 0.0)),
    }
    for s in ("s1", "s2", "s3"):
        out[f"schemes.solve_s.{s}"] = _total(spans, "schemes.solve", scheme=s)

    def ns_per_node(group):
        nodes = sum(g["attrs"]["nodes"] for g in group)
        secs = sum(g["end"] - g["start"] for g in group)
        return nodes, secs, (1e9 * secs / nodes if nodes else 0.0)

    out["schemes.nodes"], _, out["schemes.ns_per_node"] = ns_per_node(solves)
    for n in (2, 3):
        group = [g for g in solves if g["attrs"]["n"] == n]
        (out[f"schemes.nodes.n{n}"], out[f"schemes.solve_s.n{n}"],
         out[f"schemes.ns_per_node.n{n}"]) = ns_per_node(group)

    root_nodes = sum(g["attrs"]["root_nodes"] or 0 for g in solves)
    out["schemes.root_nodes"] = root_nodes
    for s in ("s1", "s2", "s3"):
        group = [g["attrs"] for g in solves if g["attrs"]["scheme"] == s]
        k = sum(a["root_nodes"] or 0 for a in group)
        it = sum((a["root_nodes"] or 0) * (a["root_iters_mean"] or 0.0)
                 for a in group)
        out[f"schemes.root_nodes.{s}"] = k
        out[f"schemes.root_iters_mean.{s}"] = it / k if k else 0.0
    out["schemes.root_iters_max"] = max(
        (g["attrs"]["root_iters_max"] or 0 for g in solves), default=0)
    out["schemes.cert_max"] = max((g["attrs"]["cert"] for g in solves),
                                  default=0.0)
    # only full storage allocates the whole field; rolling solves keep
    # O(front) memory and are judged against the import baseline below
    field_mib = max((g["attrs"]["nodes"] * 8 / 2**20 for g in solves
                     if g["attrs"]["storage"] == "full"), default=0.0)
    rss = untraced["peak_rss_mib"]
    out["schemes.field_mib"] = field_mib
    out["schemes.rss_over_field"] = rss / field_mib if field_mib else 0.0

    traced_wall = body["end"] - body["start"]
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced["wall_s"]
    out["trace.untraced_rss_mib"] = rss
    out["trace.import_rss_mib"] = untraced["import_rss_mib"]
    out["trace.rss_over_import"] = rss / untraced["import_rss_mib"]
    out["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    return out
