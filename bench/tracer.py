"""Outside-in tracer for the jurybayes benchmark.

The package carries no instrumentation of its own, so the tracer wraps
public functions, methods and properties where they are looked up:

* a module-level function is replaced in every ``jurybayes`` module that
  holds it, because ``from .worlds import full_world_space`` binds the
  same function object under another module's name;
* a method or property is replaced on its class.

Each call made while the tracer is enabled records one span
``(name, start, end, parent, request)`` in memory.  Self time is a span's
duration minus the durations of its direct children; calls in one
request are strictly nested, so the children cover disjoint parts of
their parent.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: (layer, reported name, module, attribute path) for every traced callable.
#: ``Charge`` is the dataclass constructor, which runs its validation.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("worlds", "ground_set", "worlds", "BooleanSubalgebra.ground_set"),
    ("worlds", "full_world_space", "worlds", "full_world_space"),
    ("worlds", "event_of_transcript", "worlds", "event_of_transcript"),
    ("worlds", "heard_event", "worlds", "heard_event"),
    ("worlds", "adjoin", "worlds", "BooleanSubalgebra.adjoin"),
    ("worlds", "atoms_of_generated_algebra", "worlds", "atoms_of_generated_algebra"),
    ("charges", "measure", "charges", "Charge.measure"),
    ("charges", "conditional", "charges", "Charge.conditional"),
    ("charges", "Charge", "charges", "Charge.__init__"),
    ("charges", "mix", "charges", "mix"),
    ("charges", "extend", "charges", "Charge.extend"),
    ("charges", "extend_conditional", "charges", "Charge.extend_conditional"),
    ("dispositions", "rationalize", "dispositions", "rationalize"),
    ("dispositions", "verify_rationalization", "dispositions", "verify_rationalization"),
    ("dispositions", "is_open_door", "dispositions", "is_open_door"),
    ("dispositions", "guilt_prior", "dispositions", "guilt_prior"),
    ("analyses", "build_ratio_bounded_convicting_prior", "analyses",
     "build_ratio_bounded_convicting_prior"),
    ("analyses", "likelihood_ratio", "analyses", "likelihood_ratio"),
    ("analyses", "build_spann_space", "analyses", "build_spann_space"),
    ("scoring", "brute_force_optimal", "scoring", "brute_force_optimal"),
    ("scoring", "optimal_doxastic_state", "scoring", "optimal_doxastic_state"),
    ("scoring", "expected_score", "scoring", "expected_score"),
    ("serialize", "certificate_to_jsonable", "serialize", "certificate_to_jsonable"),
    ("serialize", "charge_document_from_jsonable", "serialize",
     "charge_document_from_jsonable"),
    ("serialize", "disposition_from_jsonable", "serialize", "disposition_from_jsonable"),
    ("rationals", "as_rational", "rationals", "as_rational"),
    ("rationals", "format_rational", "rationals", "format_rational"),
    ("cli", "main", "cli", "main"),
    ("cli", "build_parser", "cli", "build_parser"),
    ("cli", "load_json", "cli", "load_json"),
    ("cli", "render", "cli", "render"),
)

#: Spans the benchmark opens around its own json.dumps/loads.
JSON_SPAN = "serialize.json"
REQUEST_SPAN = "request"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names: list[tuple[str, str]] = []
    for layer, name, _, _ in TARGETS:
        names.append((f"{layer}.{name}.calls", "calls/req"))
        names.append((f"{layer}.{name}.self_ms", "ms/req"))
    names += [
        ("charges.max_den_bits", "bits"),
        ("dispositions.transcripts_checked", "count/req"),
        ("serialize.json_ms", "ms/req"),
        ("serialize.doc_bytes", "bytes/req"),
        ("cli.interpreter_start_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ]
    return names


class NullProbe:
    """What request code calls when tracing is off: does nothing."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.stack: list[int] = []
        self.request = -1
        self.enabled = False
        self.counts: dict[str, int] = {}
        self.new_charges: list[Any] = []
        self.max_den_bits = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index

    def _exit(self, index: int, name: str, start: float, end: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[index] = (name, start, end, parent, self.request)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(index, name, start, time.perf_counter())

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextlib.contextmanager
    def request_span(self, request: int) -> Iterator["Tracer"]:
        """Trace one request; the tracer is also its probe for extra spans."""
        self.request = request
        self.enabled = True
        try:
            with self.span(REQUEST_SPAN):
                yield self
        finally:
            self.enabled = False
            # denominators are read after the request, outside every span
            for charge in self.new_charges:
                for mass in charge.masses:
                    self.max_den_bits = max(self.max_den_bits, mass.denominator.bit_length())
            self.new_charges.clear()

    def wrap(
        self, name: str, fn: Callable, after: Callable[[Any, tuple], None] | None = None
    ) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index, name, start, clock())
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Patch every target; ``uninstall`` puts the originals back."""
        for _, _, module_name, _ in TARGETS:
            importlib.import_module(f"jurybayes.{module_name}")
        modules = [
            module for key, module in sorted(sys.modules.items())
            if module is not None and (key == "jurybayes" or key.startswith("jurybayes."))
        ]
        hooks: dict[str, Callable[[Any, tuple], None]] = {
            "charges.Charge": lambda _result, args: self.new_charges.append(args[0]),
            "dispositions.verify_rationalization": lambda result, _args: self.count(
                "dispositions.transcripts_checked", len(result.posteriors)
            ),
        }
        for layer, name, module_name, path in TARGETS:
            span_name = f"{layer}.{name}"
            module = sys.modules[f"jurybayes.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    patched: Any = property(self.wrap(span_name, original.fget))
                else:
                    patched = self.wrap(span_name, original, hooks.get(span_name))
                self._set(cls, attr, patched)
                continue
            original = getattr(module, path)
            patched = self.wrap(span_name, original, hooks.get(span_name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, patched)

    def _set(self, holder: Any, attr: str, value: Any) -> None:
        self._restore.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_total):
            calls, seconds = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, seconds + (end - start) - children)
        return totals

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-request calls and self milliseconds, plus the extra counts."""
        totals = self.self_times()
        metrics: dict[str, float] = {}
        for layer, name, _, _ in TARGETS:
            calls, seconds = totals.get(f"{layer}.{name}", (0, 0.0))
            metrics[f"{layer}.{name}.calls"] = calls / requests
            metrics[f"{layer}.{name}.self_ms"] = seconds * 1000 / requests
        metrics["charges.max_den_bits"] = self.max_den_bits
        metrics["dispositions.transcripts_checked"] = (
            self.counts.get("dispositions.transcripts_checked", 0) / requests
        )
        metrics["serialize.json_ms"] = totals.get(JSON_SPAN, (0, 0.0))[1] * 1000 / requests
        metrics["serialize.doc_bytes"] = self.counts.get("serialize.doc_bytes", 0) / requests
        return metrics

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start_us, end_us, parent, request."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                row = [name, round((start - origin) * 1e6, 1),
                       round((end - origin) * 1e6, 1), parent, request]
                handle.write(json.dumps(row) + "\n")
