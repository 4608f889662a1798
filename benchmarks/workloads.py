"""Seeded request streams for the three workloads, and the answer checks.

Each workload is a closed loop: one client in one process sends its next
request only after the previous one has returned.  A stream is a sequence
of blocks; every block holds one request per cell of a fixed grid over the
workload's size parameters, in an order drawn from the seed.  Inside a
cell, each parameter (and the output format) sweeps its range in a
seed-drawn order, one value per block, so a run of a few blocks sees
nearly the same values from every seed.  Every seed therefore sends the
same mix of sizes in a different order, which keeps medians and tails
comparable across seeds while the inputs still change with the seed.

The checks never call the code under test to produce the expected value,
apart from the two closed forms the battery itself treats as ground truth
(``nonequivariant_series`` and ``chi_pointed``, neither of which touches a
memo).  Schur dimensions come from the hook-length formula implemented
here, so a check never warms the Murnaghan-Nakayama memo.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

WORKLOADS = ("series-powersum", "schur-session", "cli-oneshot")

# Blocks per stream.  A run that gets through all of them starts over at
# the first block; at the sizes below that takes about ten times the
# throughput measured when the benchmark was defined.
_BLOCKS = 120

_FORMATS = ("text", "json", "csv")

# series-powersum grid: genus bins x max-points bins, 30 cells.
_SERIES_G = ((2, 11), (12, 21), (22, 31), (32, 41), (42, 51), (52, 60))
_SERIES_N = ((30, 41), (42, 53), (54, 65), (66, 77), (78, 90))

# schur-session working set: every degree 10..23 once with a genus in
# 2..16 and once with a genus in 17..30, 28 requests.  The set is the same
# for every seed (the seed orders each block but the first), so the
# Murnaghan-Nakayama memo is full after the first block and its size, hence
# the peak RSS, does not depend on how many blocks a run gets through.  The genera are
# spread over both halves, each genus at most once per half.
_SESSION = tuple(
    (n, g)
    for n in range(10, 24)
    for g in (2 + (7 * n) % 15, 17 + (5 * n) % 14)
)

# cli-oneshot block of 20: 10 verify over one genus each, 7 Schur series,
# 3 euler requests.
_VERIFY_G = (
    (2, 3), (4, 5), (6, 7), (8, 9), (10, 11),
    (12, 13), (14, 15), (16, 17), (18, 19), (20, 22),
)
_SCHUR_N = tuple(range(12, 19))
_SCHUR_G = (2, 30)
_EULER_G = ((100, 199), (200, 299), (300, 400))
_EULER_N = (100, 400)


def series_request(g: int, n: int, fmt: str, basis: str = "powersum") -> dict:
    args = ["series", "--genus", str(g), "--max-points", str(n)]
    if basis != "powersum":
        args += ["--basis", basis]
    return {
        "kind": f"series-{basis}",
        "g": g,
        "n": n,
        "fmt": fmt,
        "args": args + ["--format", fmt],
    }


class _Sweep:
    """Values of each cell's ranges in seed-drawn orders, one per block."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.orders: dict[tuple, list] = {}

    def pick(self, block: int, key: tuple, values) -> object:
        order = self.orders.get(key)
        if order is None:
            order = list(values)
            self.rng.shuffle(order)
            self.orders[key] = order
        return order[block % len(order)]

    def between(self, block: int, key: tuple, lo: int, hi: int) -> int:
        return self.pick(block, key + (lo, hi), range(lo, hi + 1))


def _series_block(sweep: _Sweep, b: int) -> list[dict]:
    return [
        series_request(
            sweep.between(b, ("g", nb), *gb),
            sweep.between(b, ("n", gb), *nb),
            sweep.pick(b, ("fmt", gb, nb), _FORMATS),
        )
        for gb in _SERIES_G
        for nb in _SERIES_N
    ]


def _session_block(sweep: _Sweep, b: int) -> list[dict]:
    return [{"kind": "schur", "g": g, "n": n} for n, g in _SESSION]


def _oneshot_block(sweep: _Sweep, b: int) -> list[dict]:
    block = []
    for g_bin in _VERIFY_G:
        g = sweep.between(b, ("verify",), *g_bin)
        points = sweep.between(b, ("verify", g_bin), 6, 12)
        block.append(
            {
                "kind": "verify",
                "g": g,
                "n": points,
                "args": [
                    "verify",
                    "--genus-range",
                    f"{g}..{g}",
                    "--max-points",
                    str(points),
                ],
            }
        )
    for n in _SCHUR_N:
        g = sweep.between(b, ("schur", n), *_SCHUR_G)
        fmt = sweep.pick(b, ("schur-fmt", n), _FORMATS)
        block.append(series_request(g, n, fmt, "schur"))
    for g_bin in _EULER_G:
        g = sweep.between(b, ("euler",), *g_bin)
        n = sweep.between(b, ("euler", g_bin), *_EULER_N)
        fmt = sweep.pick(b, ("euler-fmt", g_bin), _FORMATS)
        args = ["euler", "--genus", str(g), "--max-points", str(n), "--format", fmt]
        block.append({"kind": "euler", "g": g, "n": n, "fmt": fmt, "args": args})
    return block


_BLOCK_MAKERS = {
    "series-powersum": _series_block,
    "schur-session": _session_block,
    "cli-oneshot": _oneshot_block,
}

# Requests per block.  A pass stops only at the end of a block, so every
# run measures the same mix of sizes.
BLOCK_SIZE = {
    "series-powersum": len(_SERIES_G) * len(_SERIES_N),
    "schur-session": len(_SESSION),
    "cli-oneshot": len(_VERIFY_G) + len(_SCHUR_N) + len(_EULER_G),
}


def generate(workload: str, seed: int, blocks: int = _BLOCKS) -> list[dict]:
    """The request stream of a workload; the same seed gives the same list."""
    make_block = _BLOCK_MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    sweep = _Sweep(rng)
    stream: list[dict] = []
    for b in range(blocks):
        block = make_block(sweep, b)
        # The session's first block fills the Murnaghan-Nakayama memo.  It
        # goes in degree order for every seed, so the fill costs the same
        # and peaks at the same RSS whatever the seed.
        if b or workload != "schur-session":
            rng.shuffle(block)
        stream.extend(block)
    return stream


def describe_mix(requests: list[dict]) -> dict:
    """Request counts by kind, size histograms, and how degrees repeat.

    A request repeats when an earlier request in the run had the same kind
    and the same point count (the degree that sizes the Schur memo).
    """
    per_degree = Counter((r["kind"], r["n"]) for r in requests)
    repeats = len(requests) - len(per_degree)
    return {
        "requests": len(requests),
        "by_kind": dict(sorted(Counter(r["kind"] for r in requests).items())),
        "points_hist": _hist(requests, "n"),
        "genus_hist": _hist(requests, "g"),
        "repeated_degree_share": repeats / len(requests) if requests else 0.0,
        # {times a (kind, degree) pair was requested: how many pairs}
        "degree_repeats_hist": {
            str(k): v for k, v in sorted(Counter(per_degree.values()).items())
        },
    }


def _hist(requests: list[dict], key: str) -> dict[str, int]:
    # Buckets of ten, or of a hundred above 200, labelled by their start.
    counts: Counter[int] = Counter()
    for req in requests:
        value = req[key]
        width = 100 if value >= 200 else 10
        counts[value - value % width] += 1
    return {str(k): v for k, v in sorted(counts.items())}


# ---------------------------------------------------------------- checks


class Oracle:
    """The expected values, bound to the closed forms before any tracing.

    Holding the original functions keeps the checks out of the spans of a
    traced pass, whose wrappers replace the module attributes.
    """

    def __init__(self, nonequivariant_series, chi_pointed):
        self.nonequivariant_series = nonequivariant_series
        self.chi_pointed = chi_pointed

    def check(self, req: dict, code: int, output) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        kind = req["kind"]
        if kind == "schur":
            return self.check_schur_vector(req["g"], req["n"], output)
        if code != 0:
            return f"exit code {code}"
        if kind == "verify":
            return check_verify(output)
        if kind == "euler":
            return self.check_euler(req["g"], req["n"], req["fmt"], output)
        terms = parse_series(req["fmt"], output)
        if kind == "series-schur":
            return self.check_schur_series(req["g"], req["n"], terms)
        return self.check_powersum(req["g"], req["n"], terms)

    def check_powersum(self, g: int, order: int, terms: dict) -> str | None:
        """Weights, the p_1 specialization, and the two 1-dim multiplicities.

        The multiplicities of the trivial and the sign representation are
        sum_mu c_mu and sum_mu sgn(mu) c_mu; both must be integers.
        """
        if set(terms) - set(range(order + 1)):
            return f"degrees outside 0..{order}: {sorted(terms)}"
        want = self.nonequivariant_series(g, order)
        for n in range(order + 1):
            # Numerators summed per denominator: far fewer Fraction sums.
            pure_p1: dict[int, int] = {}
            trivial: dict[int, int] = {}
            sign: dict[int, int] = {}
            for key, (num, den) in terms.get(n, ()):
                weight, is_pure_p1, odd = _monomial_info(key)
                if weight != n:
                    return f"t^{n}: monomial {key} has the wrong weight"
                if is_pure_p1:
                    pure_p1[den] = pure_p1.get(den, 0) + num
                trivial[den] = trivial.get(den, 0) + num
                sign[den] = sign.get(den, 0) + (-num if odd else num)
            got = _total(pure_p1)
            if got != want[n]:
                return f"t^{n}: p1 specialization {got} != {want[n]}"
            if _total(trivial).denominator != 1 or _total(sign).denominator != 1:
                return f"t^{n}: non-integer trivial/sign multiplicity"
        return None

    def check_schur_series(self, g: int, order: int, terms: dict) -> str | None:
        if set(terms) - set(range(order + 1)):
            return f"degrees outside 0..{order}: {sorted(terms)}"
        for n in range(order + 1):
            coeffs = [
                (parse_partition(k), Fraction(*v)) for k, v in terms.get(n, ())
            ]
            error = self._schur_error(g, n, coeffs)
            if error:
                return error
        return None

    def check_schur_vector(self, g: int, n: int, vec) -> str | None:
        return self._schur_error(
            g, n, [(tuple(lam), c) for lam, c in vec.coeffs.items()]
        )

    def _schur_error(self, g: int, n: int, coeffs) -> str | None:
        # Integer multiplicities weighting the dimensions f^lambda to chi.
        total = 0
        for lam, c in coeffs:
            if sum(lam) != n or list(lam) != sorted(lam, reverse=True):
                return f"n={n}: {lam} is not a partition of {n}"
            if c.denominator != 1:
                return f"n={n}: non-integer multiplicity {c} at {lam}"
            total += int(c) * hook_dimension(tuple(lam))
        want = self.chi_pointed(g, n)
        if total != want:
            return f"n={n}: dimension sum {total} != chi {want}"
        return None

    def check_euler(self, g: int, order: int, fmt: str, text: str) -> str | None:
        values = parse_euler(fmt, text)
        series = self.nonequivariant_series(g, order)
        want = [factorial(n) * series[n] for n in range(order + 1)]
        if values != want:
            return f"euler table differs from n! * nonequivariant_series({g})"
        return None


def _total(sums: dict[int, int]) -> Fraction:
    return sum((Fraction(num, den) for den, num in sums.items()), Fraction(0))


def check_verify(text: str) -> str | None:
    """Every check line reads PASS and the summary counts all of them."""
    lines = text.splitlines()
    if len(lines) < 2:
        return "verify printed no checks"
    checks, summary = lines[:-1], lines[-1]
    failing = [line for line in checks if not line.startswith("PASS ")]
    if failing:
        return f"verify: {failing[0]}"
    if summary != f"{len(checks)}/{len(checks)} checks passed":
        return f"verify summary: {summary}"
    return None


@lru_cache(maxsize=None)
def hook_dimension(lam: tuple[int, ...]) -> int:
    """f^lambda = n! / prod of hook lengths."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


# --------------------------------------------------------------- parsers

_NUMBER = re.compile(r"\d+(/\d+)?")
_TERM_SPLIT = re.compile(r" ([+-]) ")
_EULER_ROW = re.compile(r"n=(\d+)\s+(-?\d+)")


def parse_series(fmt: str, text: str) -> dict[int, list[tuple[str, tuple[int, int]]]]:
    """CLI series output as {n: [(monomial or partition text, (num, den))]}."""
    terms: dict[int, list[tuple[str, tuple[int, int]]]] = {}
    if fmt == "json":
        for entry in json.loads(text)["terms"]:
            row = terms.setdefault(entry["n"], [])
            for coeff in entry["coeffs"]:
                if "monomial" in coeff:
                    key = _monomial_text(coeff["monomial"])
                else:
                    key = "s[" + ",".join(map(str, coeff["partition"])) + "]"
                row.append((key, parse_ratio(coeff["value"])))
    elif fmt == "csv":
        for line in text.splitlines()[1:]:
            n, rest = line.split(",", 1)
            key, value = rest.rsplit(",", 1)
            terms.setdefault(int(n), []).append((key, parse_ratio(value)))
    else:
        for line in text.splitlines():
            head, body = line.split(": ", 1)
            row = terms.setdefault(int(head[2:]), [])
            if body == "0":
                continue
            pieces = _TERM_SPLIT.split(body)
            signs = ["+"] + pieces[1::2]
            for sign, term in zip(signs, pieces[0::2]):
                key, (num, den) = _parse_term(term)
                row.append((key, (-num if sign == "-" else num, den)))
    return terms


def parse_ratio(text: str) -> tuple[int, int]:
    """'-2/3' -> (-2, 3); '5' -> (5, 1)."""
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def _parse_term(term: str) -> tuple[str, tuple[int, int]]:
    negative = term.startswith("-")
    if negative:
        term = term[1:]
    head, _, tail = term.partition("*")
    if _NUMBER.fullmatch(head):
        key, (num, den) = tail or "1", parse_ratio(head)
    else:
        key, num, den = term, 1, 1
    return key, (-num if negative else num, den)


def _monomial_text(exps: list) -> str:
    if not exps:
        return "1"
    return "*".join(f"p{k}" if e == 1 else f"p{k}^{e}" for k, e in exps)


def parse_monomial(text: str) -> tuple[tuple[int, int], ...]:
    """'p1^2*p3' -> ((1, 2), (3, 1)); '1' -> ()."""
    if text == "1":
        return ()
    out = []
    for factor in text.split("*"):
        if not factor.startswith("p"):
            raise ValueError(f"bad monomial {text!r}")
        k, _, e = factor[1:].partition("^")
        out.append((int(k), int(e) if e else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_info(text: str) -> tuple[int, bool, bool]:
    # (weight, is a power of p_1, odd permutation sign)
    mono = parse_monomial(text)
    weight = sum(k * e for k, e in mono)
    odd = sum((k - 1) * e for k, e in mono) % 2 == 1
    return weight, all(k == 1 for k, _ in mono), odd


def parse_partition(text: str) -> tuple[int, ...]:
    """'s[3,1]' -> (3, 1); 's[]' -> ()."""
    if not (text.startswith("s[") and text.endswith("]")):
        raise ValueError(f"bad partition {text!r}")
    inner = text[2:-1]
    return tuple(int(p) for p in inner.split(",")) if inner else ()


def parse_euler(fmt: str, text: str) -> list[int]:
    if fmt == "json":
        return [int(v["chi"]) for v in json.loads(text)["values"]]
    if fmt == "csv":
        return [int(line.split(",")[1]) for line in text.splitlines()[1:]]
    return [int(m.group(2)) for m in _EULER_ROW.finditer(text)]
