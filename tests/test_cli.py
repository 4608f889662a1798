import hashlib
import json

import pytest

import hypeuler.cli as cli
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
                "--double-sum-depth",
                "8",
                "--totient-limit",
                "200",
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
                "--double-sum-depth",
                "4",
                "--totient-limit",
                "50",
                "--roundtrip",
            ],
        )
        assert code == 0
        assert "PASS basis-roundtrip" in out

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
