"""In-memory span recorder and the wrappers that feed it.

`installed(tracer)` replaces the public functions of akforge's modules at
the places they are imported from (the module namespaces that look them up
at call time, and two XSeries methods), so the package source stays
untouched.  Every wrapped call records one span: name, start, end and the
enclosing span.  A span's self time is its duration minus the time of its
direct child spans.  The recorder is single-threaded, like akforge.

Per-layer metric names are derived from span names:

    <span>_s        summed duration          series.invert_change_s
    <span>_self_s   summed self time         series.invert_change_self_s
    <span>_calls    number of calls          xseries.mul_calls

A span name with a call-site suffix keeps the suffix last, so the
conv_trunc calls made from series.py report as kronecker.conv_trunc_s.series.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

# Spans whose children are also wrapped report self time too.
TIMED_SPANS = (
    "series.invert_change",
    "series.compose_curve",
    "kronecker.conv_trunc.series",
    "kronecker.conv_trunc.xseries",
    "classify.split_and_classify",
    "classify.newton_ak_certify",
    "xseries.mul",
    "xseries.div",
    "poly.parse",
    "family.build_F",
    "family.verify_eq2",
    "milnor.milnor_resultant",
    "milnor.milnor_number",
    "modp.eval_x_batch",
    "modp.resultant_batch",
    "modp.interpolate",
    "modp.rank_profile",
    "exactrank.rank_profile_sparse",
    "exactrank.det_bareiss",
    "bounds.steenbrink_inertia",
    "cli.main",
)
SELF_SPANS = (
    "series.invert_change",
    "series.compose_curve",
    "classify.split_and_classify",
    "xseries.mul",
    "xseries.div",
    "milnor.milnor_resultant",
    "milnor.milnor_number",
    "cli.main",
)
CALL_SPANS = (
    "kronecker.conv_trunc.series",
    "kronecker.conv_trunc.xseries",
    "xseries.mul",
    "xseries.div",
)
# Sizes recorded at the span boundaries; summed per pass except *_bits (max).
COUNTERS = (
    "series.y_terms",
    "series.y_max_coeff_bits",
    "series.window_terms",
    "modp.sample_points",
    "milnor.exact_fallbacks",
)
_MODULAR_KERNELS = ("modp.rank_profile", "modp.interpolate")
_SITES = ("series", "xseries")


def _metric(span: str, kind: str) -> str:
    base, _, site = span.rpartition(".")
    if site in _SITES and base.startswith("kronecker."):
        return f"{base}_{kind}.{site}"
    return f"{span}_{kind}"


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = [_metric(s, "s") for s in TIMED_SPANS]
    names += [_metric(s, "self_s") for s in SELF_SPANS]
    names += [_metric(s, "calls") for s in CALL_SPANS]
    return names + list(COUNTERS)


class Tracer:
    """Nested spans of one process, kept in memory until the pass ends."""

    def __init__(self):
        # One list per span: [name, start, end, parent index, child seconds].
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, extra_child_s: float = 0.0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] += extra_child_s
        self._stack.pop()
        self.calls[span[0]] += 1
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, result)
            return result

        return traced

    def layer_totals(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        total: Counter = Counter()
        own: Counter = Counter()
        for name, start, end, _, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
        out = {_metric(s, "s"): total[s] for s in TIMED_SPANS}
        out.update({_metric(s, "self_s"): own[s] for s in SELF_SPANS})
        out.update({_metric(s, "calls"): self.calls[s] for s in CALL_SPANS})
        out.update({c: self.counters[c] for c in COUNTERS})
        return out


def merge_totals(into: dict, other: dict) -> None:
    """Add another process's layer totals (the traced CLI run) into a pass."""
    for name, value in other.items():
        if name.endswith("_bits"):
            into[name] = max(into[name], value)
        else:
            into[name] += value


# -- size counters -----------------------------------------------------------


def _coeff_bits(c) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _after_invert(tracer: Tracer, series) -> None:
    terms = list(series.body.terms())
    tracer.counters["series.y_terms"] += len(terms)
    bits = max((_coeff_bits(c) for _, c in terms), default=0)
    tracer.counters["series.y_max_coeff_bits"] = max(
        tracer.counters["series.y_max_coeff_bits"], bits
    )


def _after_compose(tracer: Tracer, window) -> None:
    tracer.counters["series.window_terms"] += len(window.body)


def _after_interpolate(tracer: Tracer, coeffs) -> None:
    tracer.counters["modp.sample_points"] += len(coeffs)


def _count_fallbacks(tracer: Tracer, fn):
    """Count oracle calls that ran a modular kernel or asked for modular
    arithmetic but report exact arithmetic: the modular -> exact fallback."""

    def counted(*args, **kwargs):
        before = sum(tracer.calls[k] for k in _MODULAR_KERNELS)
        report = fn(*args, **kwargs)
        ran_modular = sum(tracer.calls[k] for k in _MODULAR_KERNELS) > before
        asked = kwargs.get("arithmetic") == "modular"
        if report.arithmetic == "exact" and (asked or ran_modular):
            tracer.counters["milnor.exact_fallbacks"] += 1
        return report

    return counted


# -- installation at the import sites ----------------------------------------


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap akforge's public functions where they are looked up; yield the
    wrapped entry points the benchmark calls; restore everything on exit."""
    import akforge._xseries as xseries_mod
    import akforge.bounds as bounds
    import akforge.classify as classify
    import akforge.cli as cli
    import akforge.family as family
    import akforge.milnor as milnor
    import akforge.poly as poly
    import akforge.series as series

    XSeries = xseries_mod.XSeries
    w = tracer.wrap
    parse_poly = w("poly.parse", poly.parse_poly)
    split_and_classify = w("classify.split_and_classify", classify.split_and_classify)
    milnor_number = w(
        "milnor.milnor_number", _count_fallbacks(tracer, milnor.milnor_number)
    )
    milnor_resultant = w(
        "milnor.milnor_resultant", _count_fallbacks(tracer, milnor.milnor_resultant)
    )
    build_F = w("family.build_F", family.build_F)
    # (namespace, attribute, replacement): the import sites.
    patches = [
        (series, "conv_trunc", w("kronecker.conv_trunc.series", series.conv_trunc)),
        (xseries_mod, "conv_trunc", w("kronecker.conv_trunc.xseries", xseries_mod.conv_trunc)),
        (XSeries, "__mul__", w("xseries.mul", XSeries.__mul__)),
        (XSeries, "__truediv__", w("xseries.div", XSeries.__truediv__)),
        (family, "invert_change", w("series.invert_change", family.invert_change, _after_invert)),
        (family, "compose_curve", w("series.compose_curve", family.compose_curve, _after_compose)),
        (family, "newton_ak_certify", w("classify.newton_ak_certify", family.newton_ak_certify)),
        (family, "build_F", build_F),
        (family, "verify_eq2", w("family.verify_eq2", family.verify_eq2)),
        (milnor, "eval_x_batch", w("modp.eval_x_batch", milnor.eval_x_batch)),
        (milnor, "resultant_batch", w("modp.resultant_batch", milnor.resultant_batch)),
        (milnor, "interpolate_monomial", w("modp.interpolate", milnor.interpolate_monomial, _after_interpolate)),
        (milnor, "rank_profile_mod_p", w("modp.rank_profile", milnor.rank_profile_mod_p)),
        (milnor, "rank_profile_sparse", w("exactrank.rank_profile_sparse", milnor.rank_profile_sparse)),
        (milnor, "det_bareiss", w("exactrank.det_bareiss", milnor.det_bareiss)),
        (cli, "main", w("cli.main", cli.main)),
        (cli, "parse_poly", parse_poly),
        (cli, "split_and_classify", split_and_classify),
        (cli, "milnor_number", milnor_number),
    ]
    saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in patches]
    for ns, attr, fn in patches:
        setattr(ns, attr, fn)
    try:
        yield {
            "parse_poly": parse_poly,
            "split_and_classify": split_and_classify,
            "milnor_number": milnor_number,
            "milnor_resultant": milnor_resultant,
            "build_F": build_F,
            "certify_member": family.certify_member,
            "steenbrink_inertia": w("bounds.steenbrink_inertia", bounds.steenbrink_inertia),
            "upper_bound": bounds.upper_bound,
        }
    finally:
        for ns, attr, fn in reversed(saved):
            setattr(ns, attr, fn)
