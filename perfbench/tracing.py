"""Spans around bernkit's layer entry points, for the traced run.

The child process replaces module and class attributes of bernkit with
wrappers; the program itself is not changed. Each wrapped call records one
span (name, start, end, parent, family) in flat arrays kept in memory; the
arrays are written to one file at exit. run.py reads the file back and
derives per-layer counts, inclusive times and self times.

A binding that does not exist (a function that was renamed or deleted) is
skipped and the span is reported as absent; nothing here sets BERNKIT_PURE
or imports a kernel module directly.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter

# span name -> the bindings it wraps, as "module:attr" or "module:Class.attr".
# Kernels are wrapped where the polynomial and series layers look them up.
SPANS = {
    "conv1": ("bernkit.polynomials:conv1",),
    "conv2": ("bernkit.polynomials:conv2",),
    "simpson": ("bernkit.series:simpson_exp_monomial",),
    "poly1_mul": ("bernkit.polynomials:Poly1.__mul__", "bernkit.polynomials:Poly1.__rmul__"),
    "poly1_add": ("bernkit.polynomials:Poly1.__add__", "bernkit.polynomials:Poly1.__radd__"),
    "poly2_mul": ("bernkit.polynomials:Poly2.__mul__", "bernkit.polynomials:Poly2.__rmul__"),
    "poly2_add": ("bernkit.polynomials:Poly2.__add__", "bernkit.polynomials:Poly2.__radd__"),
    "generalized_basis": ("bernkit.bernstein:generalized_basis", "bernkit.oracle:generalized_basis"),
    "egf_mul": ("bernkit.egf:TruncatedEGF.__mul__",),
    "egf_substitute_t": ("bernkit.egf:TruncatedEGF.substitute_t",),
    "egf_build": (
        "bernkit.egf:egf_bernstein",
        "bernkit.egf:egf_bernstein_closed",
        "bernkit.egf:egf_bernstein_at",
        "bernkit.egf:egf_exp_affine",
    ),
    "fe": ("bernkit.egf:check_functional_equation", "bernkit.campaign:check_functional_equation"),
    "identity": ("bernkit.identities:run_identity", "bernkit.campaign:run_identity"),
    "oracle": ("bernkit.oracle:oracle_verify",),
    "required_terms": ("bernkit.series:required_terms", "bernkit.campaign:required_terms"),
    "tail_bound": ("bernkit.series:tail_bound",),
    "partial_sum": ("bernkit.series:partial_sum", "bernkit.campaign:partial_sum"),
    "sweep": ("bernkit.series:series_sweep",),
    "laplace": ("bernkit.series:laplace_monomial", "bernkit.campaign:laplace_monomial"),
    "run_verify": ("bernkit.cli:run_verify",),
    "emit_report": ("bernkit.cli:emit_report",),
    "closed_form": ("bernkit.campaign:check_closed_form",),
    "run_series": ("bernkit.campaign:_run_series",),
    "run_laplace": ("bernkit.campaign:_run_laplace",),
    "run_random": ("bernkit.campaign:_run_random_checks",),
}

# Calls counted without a span: cache hits cost ~0.1 us, a span ~1 us.
COUNTED = {
    "basis_calls": tuple(
        f"bernkit.{m}:bernstein_basis" for m in ("bernstein", "identities", "egf", "series", "campaign")
    ),
}

# Memoised builders whose cache_info() is read at exit.
CACHES = {
    "bernstein_basis": "bernkit.bernstein:bernstein_basis",
    "egf_bernstein": "bernkit.egf:egf_bernstein",
    "egf_bernstein_closed": "bernkit.egf:egf_bernstein_closed",
}

# Which check a span is charged to: an argument index holding the id, or a fixed id.
FAMILY = {
    "identity": 0,
    "oracle": 0,
    "fe": 0,
    "run_series": 0,
    "run_random": 0,
    "required_terms": 0,
    "partial_sum": 0,
    "sweep": 0,
    "closed_form": "egf-closed-form",
    "run_laplace": "LAPLACE",
    "laplace": "LAPLACE",
}


def _conv2_products(a, b):
    return len(a) * len(a[0]) * len(b) * len(b[0]) if a and b else 0


def _terms(args, last):
    """Terms summed by partial_sum/series_sweep(series_id, k, x, last)."""
    return max(0, last - args[1] + 1)


# span name -> (counter, f(args, kwargs)) added at each call.
ARG_COUNTERS = {
    "conv1": ("conv1_products", lambda a, kw: len(a[0]) * len(a[1])),
    "conv2": ("conv2_products", lambda a, kw: _conv2_products(a[0], a[1])),
    "simpson": ("simpson_steps", lambda a, kw: a[3]),
    "partial_sum": ("terms_summed", lambda a, kw: _terms(a, a[3] if len(a) > 3 else kw["terms"])),
    "sweep": ("terms_summed", lambda a, kw: _terms(a, a[3] if len(a) > 3 else kw["max_terms"])),
}
# span name -> (counter, f(result)) added after each call.
RESULT_COUNTERS = {
    "emit_report": ("report_bytes", lambda r: len(r.encode())),
}


def _resolve(binding):
    """(owner, attribute) for "module:attr" / "module:Class.attr", or None."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.span_names: list[str] = []
        self.family_names: list[str] = []
        self._family_index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.family = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._caches: dict = {}

    def _family_id(self, family: str) -> int:
        index = self._family_index.get(family)
        if index is None:
            index = self._family_index[family] = len(self.family_names)
            self.family_names.append(family)
        return index

    def _span_id(self, span: str) -> int:
        if span not in self.span_names:
            self.span_names.append(span)
        return self.span_names.index(span)

    def _span_wrapper(self, fn, span: str):
        name_id = self._span_id(span)
        names, parents, families = self.name, self.parent, self.family
        starts, ends, stack = self.start, self.end, self.stack
        counters, clock = self.counters, time.perf_counter
        rule = FAMILY.get(span)
        fixed_family = self._family_id(rule) if isinstance(rule, str) else -1
        arg_counter = ARG_COUNTERS.get(span)
        result_counter = RESULT_COUNTERS.get(span)
        family_id = self._family_id

        def wrapper(*args, **kwargs):
            if isinstance(rule, int) and len(args) > rule and isinstance(args[rule], str):
                fam = family_id(args[rule])
            else:
                fam = fixed_family
            if arg_counter is not None:
                counters[arg_counter[0]] += arg_counter[1](args, kwargs)
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            families.append(fam)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if result_counter is not None:
                counters[result_counter[0]] += result_counter[1](result)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter: str):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every binding that exists; note each span with none as absent."""
        for cache, binding in CACHES.items():  # before wrapping hides cache_info
            place = _resolve(binding)
            fn = getattr(*place) if place else None
            if hasattr(fn, "cache_info"):
                self._caches[cache] = fn
            else:
                self.absent.append(cache)
        for kind, table in (("span", SPANS), ("count", COUNTED)):
            for span, bindings in table.items():
                found = False
                for binding in bindings:
                    place = _resolve(binding)
                    if place is None:
                        continue
                    owner, attr = place
                    fn = getattr(owner, attr)
                    if kind == "span":
                        wrapped = self._span_wrapper(fn, span)
                    else:
                        wrapped = self._count_wrapper(fn, span)
                    setattr(owner, attr, wrapped)
                    found = True
                if not found:
                    self.absent.append(span)

    def cache_stats(self) -> dict:
        out = {}
        for cache, fn in self._caches.items():
            stats = fn.cache_info()
            out[cache] = {"hits": stats.hits, "misses": stats.misses, "entries": stats.currsize}
        return out

    def write(self, path: str) -> None:
        header = {
            "spans": len(self.start),
            "span_names": self.span_names,
            "family_names": self.family_names,
            "counters": dict(self.counters),
            "caches": self.cache_stats(),
            "absent": self.absent,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.family, self.start, self.end):
                column.tofile(f)


# --- reading a trace back (in run.py) ------------------------------------------


def read(path: str):
    """Header and span columns of a trace file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        columns = []
        for code in "iiidd":
            column = array(code)
            column.fromfile(f, header["spans"])
            columns.append(column)
    return header, columns


def summarize(header, columns) -> dict:
    """Per span name: call count, inclusive time of the outermost calls
    (nested calls of the same name are not counted twice) and self time
    (duration minus the part covered by child spans); per family: time
    of the outermost span charged to it."""
    names, parents, families, starts, ends = columns
    count = len(starts)
    covered = array("d", bytes(8 * count))  # time of each span's direct children
    above = array("q", bytes(8 * count))  # bit s set: an ancestor is named s
    charged = bytearray(count)  # an ancestor is charged to a family
    n_names = len(header["span_names"])
    calls, inclusive, self_time = [0] * n_names, [0.0] * n_names, [0.0] * n_names
    family_time = [0.0] * len(header["family_names"])
    for i in range(count):  # parents precede their children
        p = parents[i]
        if p >= 0:
            above[i] = above[p] | (1 << names[p])
            charged[i] = charged[p] or families[p] >= 0
            covered[p] += ends[i] - starts[i]
    for i in range(count):
        s = names[i]
        duration = ends[i] - starts[i]
        calls[s] += 1
        self_time[s] += duration - covered[i]
        if not (above[i] >> s) & 1:
            inclusive[s] += duration
        if families[i] >= 0 and not charged[i]:
            family_time[families[i]] += duration
    return {
        "calls": dict(zip(header["span_names"], calls)),
        "inclusive": dict(zip(header["span_names"], inclusive)),
        "self": dict(zip(header["span_names"], self_time)),
        "family": dict(zip(header["family_names"], family_time)),
    }


def _metric_table(family_ids):
    """(metric, unit, source) for every per-layer metric read from a trace."""
    table = [
        ("kernels.conv1_calls", "count", ("calls", "conv1")),
        ("kernels.conv1_products", "count", ("counter", "conv1", "conv1_products")),
        ("kernels.conv1_s", "s", ("inclusive", "conv1")),
        ("kernels.conv2_calls", "count", ("calls", "conv2")),
        ("kernels.conv2_products", "count", ("counter", "conv2", "conv2_products")),
        ("kernels.conv2_s", "s", ("inclusive", "conv2")),
        ("kernels.simpson_steps", "count", ("counter", "simpson", "simpson_steps")),
        ("kernels.simpson_s", "s", ("inclusive", "simpson")),
        ("polynomials.poly1_mul_calls", "count", ("calls", "poly1_mul")),
        ("polynomials.poly1_mul_self_s", "s", ("self", "poly1_mul")),
        ("polynomials.poly1_add_calls", "count", ("calls", "poly1_add")),
        ("polynomials.poly1_add_s", "s", ("inclusive", "poly1_add")),
        ("polynomials.poly2_mul_calls", "count", ("calls", "poly2_mul")),
        ("polynomials.poly2_mul_self_s", "s", ("self", "poly2_mul")),
        ("polynomials.poly2_add_calls", "count", ("calls", "poly2_add")),
        ("polynomials.poly2_add_s", "s", ("inclusive", "poly2_add")),
        ("bernstein.basis_calls", "count", ("counter", "basis_calls", "basis_calls")),
        ("bernstein.basis_misses", "count", ("cache", ("bernstein_basis",), "misses")),
        ("bernstein.basis_cache_entries", "count", ("cache", ("bernstein_basis",), "entries")),
        ("bernstein.generalized_basis_s", "s", ("inclusive", "generalized_basis")),
        ("egf.mul_calls", "count", ("calls", "egf_mul")),
        ("egf.mul_self_s", "s", ("self", "egf_mul")),
        ("egf.substitute_t_s", "s", ("inclusive", "egf_substitute_t")),
        ("egf.build_s", "s", ("inclusive", "egf_build")),
        ("egf.fe_s", "s", ("inclusive", "fe")),
        ("egf.cache_entries", "count", ("cache", ("egf_bernstein", "egf_bernstein_closed"), "entries")),
        ("identities.checks", "count", ("calls", "identity")),
        ("identities.s", "s", ("inclusive", "identity")),
        ("oracle.checks", "count", ("calls", "oracle")),
        ("oracle.s", "s", ("inclusive", "oracle")),
        ("series.required_terms_s", "s", ("inclusive", "required_terms")),
        ("series.tail_bound_calls", "count", ("calls", "tail_bound")),
        ("series.tail_bound_s", "s", ("inclusive", "tail_bound")),
        ("series.partial_sum_s", "s", ("inclusive", "partial_sum")),
        ("series.terms_summed", "count", ("counter", "partial_sum", "terms_summed")),
        ("series.sweep_s", "s", ("inclusive", "sweep")),
        ("series.laplace_s", "s", ("inclusive", "laplace")),
        ("campaign.run_verify_s", "s", ("inclusive", "run_verify")),
        ("campaign.emit_report_s", "s", ("inclusive", "emit_report")),
        ("campaign.report_bytes", "bytes", ("counter", "emit_report", "report_bytes")),
    ]
    table += [(f"family.{f}_s", "s", ("family", f)) for f in family_ids]
    return table


def layer_metrics(header, summary, family_ids):
    """{metric: (value, unit)} plus the metrics whose source is absent.

    A span, counter or cache that exists but saw no call reads 0; one whose
    bindings were all missing is listed as absent (and also reads 0)."""
    absent_sources = set(header["absent"])
    values, absent = {}, []
    for metric, unit, source in _metric_table(family_ids):
        kind = source[0]
        if kind == "counter":
            missing = source[1] in absent_sources
            value = header["counters"].get(source[2], 0)
        elif kind == "cache":
            missing = any(c in absent_sources or c not in header["caches"] for c in source[1])
            value = sum(header["caches"].get(c, {}).get(source[2], 0) for c in source[1])
        elif kind == "family":
            missing = False
            value = summary["family"].get(source[1], 0.0)
        else:
            missing = source[1] in absent_sources
            value = summary[kind].get(source[1], 0)
        if missing:
            absent.append(metric)
        values[metric] = (value, unit)
    return values, absent


def metric_units(family_ids) -> dict:
    """Unit of every per-layer metric a traced run reports: those read from
    the trace, plus two that run.py measures around the traced child."""
    units = {metric: unit for metric, unit, _ in _metric_table(family_ids)}
    units.update({"trace.overhead_s": "s", "process.cpu_s": "s"})
    return units
