import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import hypeuler.cli as cli
from hypeuler.hyperelliptic_core import (
    equivariant_series,
    nonequivariant_series,
)
from hypeuler.schur_transform import p_to_schur, sign_twist
from hypeuler.verify import CheckResult


def run_capture(capsys, args):
    code = cli.run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSeriesCommand:
    def test_json_low_degrees(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "series",
                "--genus",
                "2",
                "--max-points",
                "2",
                "--basis",
                "powersum",
                "--format",
                "json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["genus"] == 2 and doc["basis"] == "powersum"
        t0 = doc["terms"][0]
        assert t0 == {"n": 0, "coeffs": [{"monomial": [], "value": "1"}]}
        t1 = doc["terms"][1]
        assert t1["coeffs"] == [{"monomial": [[1, 1]], "value": "2"}]

    def test_text_output(self, capsys):
        code, out, _ = run_capture(
            capsys, ["series", "--genus", "3", "--max-points", "2"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t^0: 1"
        assert lines[1] == "t^1: 2*p1"
        assert lines[2] == "t^2: p1^2 + p2"

    def test_csv_output(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["series", "--genus", "2", "--max-points", "2", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,monomial,value"
        assert "1,p1,2" in lines

    def test_schur_basis(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "series",
                "--genus",
                "2",
                "--max-points",
                "2",
                "--basis",
                "schur",
                "--format",
                "json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"][1]["coeffs"] == [
            {"partition": [1], "value": "2"}
        ]
        # even genus: t^2 carries s[2] + s[1,1]
        assert doc["terms"][2]["coeffs"] == [
            {"partition": [2], "value": "1"},
            {"partition": [1, 1], "value": "1"},
        ]

    def test_sign_twisted_conjugates(self, capsys):
        _, standard, _ = run_capture(
            capsys,
            [
                "series",
                "--genus",
                "3",
                "--max-points",
                "3",
                "--basis",
                "schur",
                "--format",
                "json",
            ],
        )
        _, twisted, _ = run_capture(
            capsys,
            [
                "series",
                "--genus",
                "3",
                "--max-points",
                "3",
                "--basis",
                "schur",
                "--format",
                "json",
                "--schur-convention",
                "sign-twisted",
            ],
        )
        std = {
            tuple(c["partition"]): c["value"]
            for c in json.loads(standard)["terms"][3]["coeffs"]
        }
        twi = {
            tuple(c["partition"]): c["value"]
            for c in json.loads(twisted)["terms"][3]["coeffs"]
        }
        assert std != twi
        assert twi == {(1, 1, 1): std[(3,)], (3,): std[(1, 1, 1)]}

    def test_deterministic_output(self, capsys):
        args = [
            "series",
            "--genus",
            "4",
            "--max-points",
            "6",
            "--format",
            "json",
        ]
        _, first, _ = run_capture(capsys, args)
        _, second, _ = run_capture(capsys, args)
        assert first == second


# sha256 of `hypeuler series` stdout at high degrees, recorded from the
# factor-by-factor series-product implementation.
SERIES_DIGESTS = [
    (60, 90, "text", "77130c3e33ef0efb1616580f08615e07"
     "0238dcf3675d3fb8c5346fb3842efa3b"),
    (60, 90, "json", "e48ad0c40ec6478d9fe6b74251dcc19d"
     "ea053516c7cfd7c9e7120f0a79207899"),
    (60, 90, "csv", "8a5034a0b20278ebc2e42f28116ff112"
     "0d3ba02e272cf787a63ecd84f83b6f1a"),
    (41, 77, "text", "d1bcf1b04925c02f1d22c5d7c54fbf33"
     "b91a7b736107534a2f9945b232e05892"),
    (41, 77, "json", "7621b881ac42c2da5083278b420c2331"
     "cc8d7199618cfbe634d42d9d51a627a9"),
    (41, 77, "csv", "958baa4fd7ba2a16370ef95bd9d5e43a"
     "a40ae33c1b55b2c98aac6dcaf670c936"),
    (2, 30, "text", "d80c59e5c18948a45d04a8c96993c4b9"
     "9b20a6e99b1eee553fb646fe29b67515"),
    (2, 30, "json", "712217edc29e0e52d71f206097d77300"
     "966e112481d89614390a4ac7eb784eee"),
    (2, 30, "csv", "f632c488c55f89fa0d231d3d871580ef"
     "af49501ab1551a98757633a96faf3c83"),
]


@pytest.mark.parametrize(
    "genus,points,fmt,digest",
    SERIES_DIGESTS,
    ids=[f"g{g}-N{n}-{fmt}" for g, n, fmt, _ in SERIES_DIGESTS],
)
def test_series_output_digest(capsys, genus, points, fmt, digest):
    args = ["series", "--genus", str(genus), "--max-points", str(points)]
    code, out, _ = run_capture(capsys, args + ["--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `hypeuler series --basis schur` stdout, recorded from the
# json.dumps-based renderer.
SCHUR_DIGESTS = [
    (7, 16, "text", "standard", "b35c32cafcafa8496fdf2bce7406a2cb"
     "ad263fdd0858f6ed1afbc6c904901965"),
    (7, 16, "json", "standard", "b297868bd299433db25fc55ec0742477"
     "d74b82fdf2f3cafe26e9086119d92184"),
    (7, 16, "csv", "standard", "34c2fc6b318b2f39cd2bc5669f43cad2"
     "b0cc241a405c30a633cdc53b9e7ed776"),
    (7, 16, "text", "sign-twisted", "1881a4321e15954af2997281a22edd71"
     "330ff311cddd4e01075acad7a58eabb7"),
    (7, 16, "json", "sign-twisted", "bda006605e4bb38226373988e930e84c"
     "744e4de702f0f7660d79bf0ec928d6de"),
    (7, 16, "csv", "sign-twisted", "b52bc60d7097803b036f0475f6061b39"
     "883418c22480a6ce8e93c7bf2a10b5e8"),
    (30, 14, "text", "standard", "4f5b70edd858140e1e54ddbc8e03fef6"
     "5826cd1c4860c780c7554ffd2bc5ac7d"),
    (30, 14, "json", "standard", "294f73138794c2bee8e18e652cb1ec82"
     "cba7f420722a9902af785244e2b2bd3a"),
    (30, 14, "csv", "standard", "d3e9b38c199f2794ede1a70c238b1ca7"
     "da4615637ed175a31c6d992cfe978c16"),
    (30, 14, "text", "sign-twisted", "18a1decf3694333a1613d9519cfba010"
     "60069f283a136d1f3e563d5f862c5cfe"),
    (30, 14, "json", "sign-twisted", "db7f9087f9ea0ad7918d7096a53f007a"
     "e57fc2b867ae3f5a218d6250d43c7a13"),
    (30, 14, "csv", "sign-twisted", "9fb35f2872df2a4ae90d0b1d47d73aef"
     "7af5802b00bed3dab28d74769dfd1cc3"),
]


@pytest.mark.parametrize(
    "genus,points,fmt,convention,digest",
    SCHUR_DIGESTS,
    ids=[f"g{g}-N{n}-{fmt}-{conv}" for g, n, fmt, conv, _ in SCHUR_DIGESTS],
)
def test_schur_output_digest(capsys, genus, points, fmt, convention, digest):
    args = ["series", "--genus", str(genus), "--max-points", str(points)]
    args += ["--basis", "schur", "--schur-convention", convention]
    code, out, _ = run_capture(capsys, args + ["--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _series_coefficients(genus, points, basis, convention):
    # Per degree, {JSON key as nested tuples: coefficient} in canonical order.
    series = equivariant_series(genus, points)
    out = []
    for n, poly in enumerate(series.coeffs):
        if basis == "powersum":
            out.append(dict(poly.sorted_terms()))
        else:
            vec = p_to_schur(poly, n)
            if convention == "sign-twisted":
                vec = sign_twist(vec)
            out.append(dict(vec.sorted_items()))
    return out


def _json_series(genus, points, basis, convention):
    """Emitted JSON checked against json.dumps; returns the parsed document."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(
            [
                "series",
                "--genus",
                str(genus),
                "--max-points",
                str(points),
                "--basis",
                basis,
                "--schur-convention",
                convention,
                "--format",
                "json",
            ]
        )
    assert code == 0
    coeffs = _series_coefficients(genus, points, basis, convention)
    label = "monomial" if basis == "powersum" else "partition"
    doc = {
        "genus": genus,
        "max_points": points,
        "basis": basis,
        "terms": [
            {
                "n": n,
                "coeffs": [
                    {label: [list(k) if isinstance(k, tuple) else k
                             for k in key], "value": str(value)}
                    for key, value in terms.items()
                ],
            }
            for n, terms in enumerate(coeffs)
        ],
    }
    out = buf.getvalue()
    assert out == json.dumps(doc, indent=2) + "\n"
    parsed = json.loads(out)
    for term, terms in zip(parsed["terms"], coeffs, strict=True):
        got = {
            tuple(tuple(k) if isinstance(k, list) else k for k in c[label]):
            Fraction(c["value"])
            for c in term["coeffs"]
        }
        assert got == terms
    return parsed


@st.composite
def series_requests(draw):
    basis = draw(st.sampled_from(["powersum", "schur"]))
    points = draw(st.integers(0, 40 if basis == "powersum" else 14))
    convention = draw(st.sampled_from(["standard", "sign-twisted"]))
    return draw(st.integers(2, 60)), points, basis, convention


@given(series_requests())
@settings(max_examples=40, deadline=None)
@example((2, 0, "powersum", "standard"))
@example((3, 0, "schur", "sign-twisted"))
def test_series_json_matches_json_dumps(call):
    _json_series(*call)


@pytest.mark.parametrize("basis", ["powersum", "schur"])
def test_series_json_empty_degree(basis):
    # t^3 vanishes for every even genus.
    doc = _json_series(4, 5, basis, "standard")
    assert doc["terms"][3]["coeffs"] == []
    assert doc["terms"][4]["coeffs"]


class TestEulerCommand:
    def test_table_contains_known_value(self, capsys):
        code, out, _ = run_capture(
            capsys, ["euler", "--genus", "3", "--max-points", "6"]
        )
        assert code == 0
        assert any(
            line.startswith("n=4") and line.endswith("-6")
            for line in out.splitlines()
        )

    def test_json(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["euler", "--genus", "2", "--max-points", "7", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"][4] == {"n": 4, "chi": "-4"}
        assert doc["values"][7] == {"n": 7, "chi": "168"}

    def test_csv(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["euler", "--genus", "3", "--max-points", "4", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines() == [
            "n,chi",
            "0,1",
            "1,2",
            "2,2",
            "3,0",
            "4,-6",
        ]

    def test_genus_one_million(self, capsys):
        # Each value costs about n multiplications whatever the genus.
        g = 1_000_000
        code, out, err = run_capture(
            capsys, ["euler", "--genus", str(g), "--max-points", "30"]
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == f"chi(H_(g,n)) for genus g = {g}"
        series = nonequivariant_series(g, 30)
        assert [int(line.split()[1]) for line in lines[1:]] == [
            factorial(n) * series[n] for n in range(31)
        ]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("limit", [0, 4300])
    def test_all_or_nothing_past_digit_limit(self, capsys, fmt, limit):
        # chi(H_(2,n)) has more than 4300 digits (CPython's default int ->
        # str limit) from n = 1558 on: the whole table or nothing is written.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int -> str digit limit")
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            code, out, err = run_capture(
                capsys,
                ["euler", "--genus", "2", "--max-points", "2000",
                 "--format", fmt],
            )
        finally:
            sys.set_int_max_str_digits(default)
        if limit:
            assert (code, out) == (2, "")
            assert err == (
                "error: chi(H_(g,n)) at n=1558 has more than 4300 digits; "
                "lower --max-points\n"
            )
            return
        assert (code, err) == (0, "")
        if fmt == "json":
            values = json.loads(out)["values"]
        else:
            values = out.splitlines()[1:]
        assert len(values) == 2001


VERIFY_ROUNDTRIP_OUTPUT = (
    "PASS specialization: g=2..4, degrees 0..8\n"
    "PASS closed-forms: g=2..4, n=0..8\n"
    "PASS bini-oracle: g=2..4, n=5..2g+2\n"
    "PASS double-sum-identity: g=2..4, n=0..30\n"
    "PASS low-degree-tables: g=2..4\n"
    "PASS constant-term: g=2..4\n"
    "PASS totient-identities: n=1..10000\n"
    "PASS schur-integrality: g=2..4, n=0..8\n"
    "PASS algebra: inverse pairs, ring axioms (150 samples), "
    "orthogonality n<=8, round trip n<=7\n"
    "PASS basis-roundtrip: g=2..4, n=0..8\n"
    "10/10 checks passed\n"
)


class TestVerifyCommand:
    def test_small_battery_passes(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "verify",
                "--genus-range",
                "2..3",
                "--max-points",
                "5",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "9/9 checks passed"

    def test_roundtrip_flag_adds_check(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "verify",
                "--genus-range",
                "2..2",
                "--max-points",
                "4",
                "--roundtrip",
            ],
        )
        assert code == 0
        assert "PASS basis-roundtrip" in out

    def test_roundtrip_output_is_exact(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "verify",
                "--genus-range",
                "2..4",
                "--max-points",
                "8",
                "--roundtrip",
            ],
        )
        assert code == 0
        assert out == VERIFY_ROUNDTRIP_OUTPUT

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_battery",
            lambda *a, **k: [CheckResult("stub", False, "forced failure")],
        )
        code, out, _ = run_capture(
            capsys, ["verify", "--genus-range", "2..2", "--max-points", "2"]
        )
        assert code == 1
        assert "FAIL stub" in out


class TestExitCodes:
    def test_small_genus_is_domain_error(self, capsys):
        code, _, err = run_capture(
            capsys, ["euler", "--genus", "1", "--max-points", "3"]
        )
        assert code == 2
        assert "genus" in err

    def test_series_small_genus(self, capsys):
        code, _, _ = run_capture(
            capsys, ["series", "--genus", "0", "--max-points", "3"]
        )
        assert code == 2

    def test_negative_points(self, capsys):
        for cmd in ("series", "euler"):
            code, _, err = run_capture(
                capsys, [cmd, "--genus", "2", "--max-points", "-1"]
            )
            assert code == 2
            assert "max points" in err or "order" in err

    def test_malformed_flags(self, capsys):
        assert cli.run(["series", "--genus", "2", "--bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "option, value",
        [("--double-sum-depth", "30"), ("--totient-limit", "10000")],
        ids=["double-sum-depth", "totient-limit"],
    )
    def test_removed_verify_options_are_usage_errors(
        self, capsys, option, value
    ):
        # The battery's double-sum depth and totient limit are fixed.
        code, out, err = run_capture(
            capsys, ["verify", "--genus-range", "2..2", option, value]
        )
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {option}" in err

    def test_bad_range(self, capsys):
        code, _, err = run_capture(
            capsys, ["verify", "--genus-range", "5", "--max-points", "2"]
        )
        assert code == 2
        assert "A..B" in err

    def test_missing_command(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        capsys.readouterr()


_MIXED_CALLS = (
    ["series", "--genus", "3", "--max-points", "4", "--format", "json"],
    ["series", "--genus", "2", "--bogus"],
    ["euler", "--genus", "4", "--max-points", "6"],
    [
        "verify",
        "--genus-range",
        "2..2",
        "--max-points",
        "3",
    ],
)


def test_reused_parser_matches_fresh_parser(capsys):
    # One parser serves every call of a process; each call must still see
    # what it would see from a parser built for it alone.
    fresh = []
    for args in _MIXED_CALLS:
        cli._build_parser.cache_clear()
        fresh.append(run_capture(capsys, args))
    cli._build_parser.cache_clear()
    reused = [run_capture(capsys, args) for args in _MIXED_CALLS]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    assert fresh[1][2].startswith("usage: hypeuler series")
