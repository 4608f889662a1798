"""Span timing around hypeuler's entry points, for the traced pass only.

``Tracer.install`` replaces each entry point listed in ``ENTRY_POINTS`` by
a wrapper, in every ``hypeuler`` module that holds a reference to it, so
calls from one module into another are caught as well as calls from the
benchmark.  Each wrapper adds its call to the function's count and its
duration to the function's self time, minus the time its traced children
took.  Hot leaves (``euler_phi``, ``gen_binomial``, ``mn_character``) run
about a million times a run and are deliberately not wrapped: the wrapper
cost would swamp them and distort every share.

An entry point that no longer exists is skipped and reports zero calls.
Nothing here runs unless the traced pass asks for it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "cli": ("run",),
    "hyperelliptic_core": (
        "symmetry_classes",
        "equivariant_series",
        "equivariant_schur",
        "nonequivariant_series",
        "chi_pointed",
    ),
    "symfunc_series": (
        "product_of_factors",
        "series_mul",
        "binomial_factor",
        "linear_combine",
        "specialize_p1",
    ),
    "schur_transform": ("p_to_schur", "schur_to_p", "schur_dimension_sum"),
    "bini_oracle": ("bini_chi_long", "bini_chi_compact", "bini_double_sum"),
    "verify": (
        "check_specialization",
        "check_closed_forms",
        "check_bini_agreement",
        "check_double_sum_identity",
        "check_low_degree_tables",
        "check_constant_term",
        "check_totient_identities",
        "check_schur_integrality",
        "check_algebra",
        "check_basis_roundtrip",
        "run_battery",
    ),
    "exact_arith": ("verify_phi_identities",),
}

SPAN_NAMES = tuple(f"{m}.{fn}" for m, fns in ENTRY_POINTS.items() for fn in fns)

COUNTERS = (
    "cli.bytes_out",
    "hyperelliptic_core.class_terms",
    "symfunc_series.terms_out",
    "schur_transform.char_pairs",
    "verify.checks_run",
    "verify.checks_failed",
)


@functools.lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n), by the recurrence over the largest part."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def _poly_size(poly) -> int:
    return len(getattr(poly, "terms", poly))


def _count_class_terms(counters, result, args):
    counters["hyperelliptic_core.class_terms"] += len(result)


def _count_series_terms(counters, result, args):
    counters["symfunc_series.terms_out"] += sum(
        _poly_size(p) for p in result.coeffs
    )


def _count_p_to_schur(counters, result, args):
    # p(n) characters for each distinct cycle type of the input.
    counters["schur_transform.char_pairs"] += partition_count(
        result.n
    ) * _poly_size(args[0])


def _count_schur_to_p(counters, result, args):
    vec = args[0]
    counters["schur_transform.char_pairs"] += partition_count(vec.n) * len(
        vec.coeffs
    )


def _count_battery(counters, result, args):
    counters["verify.checks_run"] += len(result)
    counters["verify.checks_failed"] += sum(not r.passed for r in result)


# Work counts taken from a call's arguments and result; they depend only on
# the inputs and outputs, so they repeat exactly across implementations.
_WORK_COUNTS = {
    "hyperelliptic_core.symmetry_classes": _count_class_terms,
    "hyperelliptic_core.equivariant_series": _count_series_terms,
    "schur_transform.p_to_schur": _count_p_to_schur,
    "schur_transform.schur_to_p": _count_schur_to_p,
    "verify.run_battery": _count_battery,
}


class Tracer:
    """Per-entry-point call counts and self times, kept in memory."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.root_s = 0.0  # inclusive time of outermost spans
        self._child_s: list[float] = []  # one accumulator per open span

    def install(self) -> None:
        for module_name, fns in ENTRY_POINTS.items():
            module = importlib.import_module(f"hypeuler.{module_name}")
            for fn in fns:
                original = getattr(module, fn, None)
                if original is None:
                    continue
                self._patch(original, self._wrap(f"{module_name}.{fn}", original))

    @staticmethod
    def _patch(original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "hypeuler" and not name.startswith("hypeuler."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        stack = self._child_s
        count = _WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
            if count is not None:
                count(self.counters, result, args)
            return result

        return wrapper

    def payload(self) -> dict:
        """Totals as plain data, for a parent process to merge."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "root_s": self.root_s,
            "phi_cache": phi_cache_counts(),
        }


def merge(payloads: list[dict]) -> dict:
    """The sum of several processes' payloads."""
    total = {
        "calls": dict.fromkeys(SPAN_NAMES, 0),
        "self_s": dict.fromkeys(SPAN_NAMES, 0.0),
        "counters": dict.fromkeys(COUNTERS, 0),
        "root_s": 0.0,
        "phi_cache": [0, 0],
    }
    for p in payloads:
        for section in ("calls", "self_s", "counters"):
            for key, value in p[section].items():
                total[section][key] += value
        total["root_s"] += p["root_s"]
        total["phi_cache"] = [a + b for a, b in zip(total["phi_cache"], p["phi_cache"])]
    return total


def phi_cache_counts() -> list[int]:
    """[hits, misses] of the totient memo, or zeros if it has none."""
    from hypeuler import exact_arith

    info = getattr(exact_arith.euler_phi, "cache_info", None)
    if info is None:
        return [0, 0]
    stats = info()
    return [stats.hits, stats.misses]
