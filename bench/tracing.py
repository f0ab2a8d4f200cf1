"""In-memory spans around the public calls of each selfnorm layer.

``Tracer.install`` wraps every public function of the layer modules (and
``SRELaw.sample_ab`` and the ``verify`` checks) in place, from the outside:
the package is not edited. Each call records one span with its name, start,
end, parent span, workload and work counts. Spans stay in memory until the
run writes them out. Work done in pool workers is not traced; the traced
workload pass therefore runs with one worker.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("processes", "stats", "experiments", "clusters", "limits", "oracles", "diagnostics")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    workload: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    args: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return asdict(self)


def _size(x) -> int | None:
    size = getattr(x, "size", None)
    return int(size) if size is not None else None


def _counts(name: str, a: dict) -> dict:
    """Work counts of one call from its bound arguments."""
    c = {}
    if isinstance(a.get("reps"), int):
        c["replicas"] = a["reps"]
    if name == "sample_noise":
        c["values"] = a["count"]
    elif name == "sample_ab":
        c["values"] = a["size"]
    elif name == "ar1_recursion":
        c["steps"] = _size(a["noise"])
    elif name == "sre_recursion":
        c["steps"] = _size(a["a"])
    elif name == "batch_stats":
        c["values"] = _size(a["values"])
    elif name in ("sample_path", "sample_coupled_paths"):
        c["values"] = a["n"]
    elif name == "simulate_statistics":
        c["values"] = a["n"] * a["reps"]
    elif name in ("cluster_functionals", "tilted_functionals"):
        c["draws"] = a["count"]
    elif name in ("cluster_atoms", "tilted_atoms", "expected_greenwood", "expected_ratio_max",
                  "expected_ratio_student", "expected_kurtosis_limit"):
        c["draws"] = a["n_mc"]
    elif name in ("sample_limit_lepage_batch", "sample_limit_batch_parallel"):
        c["draws"] = a["reps"] * a["n_terms"]
    atoms = a.get("atoms")
    if atoms is not None and hasattr(atoms, "weights"):
        c["atoms"] = len(atoms.weights)
    return {k: int(v) for k, v in c.items() if v is not None}


def _plain_args(a: dict) -> dict:
    """Scalar arguments worth keeping on a span (method names, sizes)."""
    return {k: v for k, v in a.items() if isinstance(v, (int, float, str))}


class Tracer:
    """Span recorder; ``install`` patches the package and returns an undo
    callable that restores every original attribute."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, counts: dict | None = None, args: dict | None = None) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, self.workload,
                    time.perf_counter(), counts=counts or {}, args=args or {})
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = time.perf_counter()
        if error is not None:
            span.error = f"{type(error).__name__}: {error}"
        self._stack.pop()

    def wrap(self, label: str, fn):
        sig = inspect.signature(fn)
        short = label.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                span = self.open(label, _counts(short, a), _plain_args(a))
            except (TypeError, KeyError):
                span = self.open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, exc)
                raise
            self.close(span)
            return result

        return traced

    def install(self):
        import selfnorm
        from selfnorm import experiments, processes

        modules = [getattr(selfnorm, name) for name in LAYERS]
        everywhere = [selfnorm] + modules
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn)
                for owner in everywhere:
                    if vars(owner).get(name) is fn:
                        patch(owner, name, traced)
        patch(processes.SRELaw, "sample_ab", self.wrap("processes.sample_ab", processes.SRELaw.sample_ab))
        checks = dict(experiments._CHECKS)
        for name, fn in checks.items():
            experiments._CHECKS[name] = self.wrap(f"experiments.check.{name}", fn)

        def restore():
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)
            experiments._CHECKS.update(checks)

        return restore

    # -- summaries ---------------------------------------------------------

    def self_seconds(self) -> list[float]:
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def layer_table(self) -> dict:
        """Per layer: calls, self time, summed work counts and failed calls."""
        table = {layer: {"calls": 0, "self_s": 0.0, "failed": 0, "counts": {}} for layer in LAYERS}
        for span, own in zip(self.spans, self.self_seconds()):
            row = table.setdefault(span.layer, {"calls": 0, "self_s": 0.0, "failed": 0, "counts": {}})
            row["calls"] += 1
            row["self_s"] += own
            row["failed"] += span.error is not None
            for k, v in span.counts.items():
                row["counts"][k] = row["counts"].get(k, 0) + v
        return table

    def find(self, name: str, spans=None, **args) -> list[Span]:
        return [s for s in (self.spans if spans is None else spans) if s.name == name
                and all(s.args.get(k) == v for k, v in args.items())]
