"""Command-line behaviour: golden outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jurybayes import worlds
from jurybayes.cli import main
from jurybayes.rationals import as_rational

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("odds", "--prior", "1:2", "--lr", "8"), "odds_shooting.json"),
            (("odds", "--prior", "1:10", "--lr", "8"), "odds_preponderance.json"),
            (("threshold", "--weights", "1", "3"), "threshold_weights_1_3.json"),
            (("threshold", "--quadruple", "1", "-9", "0", "0"), "threshold_quadruple.json"),
            (("rate", "--gamma", "1/2", "--theta", "3/4"), "rate_half_threequarters.json"),
            (("rate", "--gamma", "1/10", "--theta", "3/4", "--build"), "rate_build_tenth.json"),
            (("scenario", "spann"), "scenario_spann.json"),
            (("scenario", "two-witness"), "scenario_two_witness.json"),
            (("scenario", "posner"), "scenario_posner.json"),
        ],
    )
    def test_byte_identical_reports(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == golden(expected)

    def test_rationalize_two_witness_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "rationalize", str(DATA / "two_witness_n2.json"), "--theta", "3/4"
        )
        assert code == 0
        assert out == golden("rationalize_two_witness_n2.json")

    def test_extend_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "extend",
            str(DATA / "guilt_coarse_n1.json"),
            "--event", "guilt",
            "--given", "heard:t1",
            "--target", "9/10",
        )
        assert code == 0
        assert out == golden("extend_guilt_heard.json")

    def test_repeated_runs_are_identical(self, capsys):
        _, first, _ = run_cli(capsys, "scenario", "two-witness")
        _, second, _ = run_cli(capsys, "scenario", "two-witness")
        assert first == second


class TestRoundTrips:
    def test_certificate_verifies_true(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run_cli(
            capsys,
            "rationalize", str(DATA / "two_witness_n2.json"),
            "--theta", "3/4",
            "--out", str(cert_path),
        )
        assert code == 0
        assert cert_path.exists()
        code, out, _ = run_cli(
            capsys,
            "verify", str(DATA / "two_witness_n2.json"), str(cert_path),
            "--theta", "3/4",
        )
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is True
        assert report["witness"] is None

    def test_uniform_prior_fails_with_witness(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", str(DATA / "two_witness_n2.json"), str(DATA / "uniform_n2.json"),
            "--theta", "3/4",
        )
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is False
        assert report["witness"] == ["t1", "t2"]
        assert report["witness_posterior"] == "1/2"

    def test_theta_echoed_in_canonical_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", str(DATA / "two_witness_n2.json"), str(DATA / "uniform_n2.json"),
            "--theta", "0.75",
        )
        assert code == 0
        assert json.loads(out)["theta"] == "3/4"

    @pytest.mark.parametrize("target", ["0", "1"])
    def test_extend_boundary_targets_verified(self, capsys, target):
        code, out, _ = run_cli(
            capsys,
            "extend", str(DATA / "guilt_coarse_n1.json"),
            "--event", "guilt",
            "--given", "heard:t1",
            "--target", target,
        )
        assert code == 0
        report = json.loads(out)
        assert report["achieved"] == target

    def test_extend_out_writes_loadable_charge(self, capsys, tmp_path):
        out_path = tmp_path / "extended.json"
        code, _, _ = run_cli(
            capsys,
            "extend", str(DATA / "guilt_coarse_n1.json"),
            "--event", "guilt",
            "--given", "heard:t1",
            "--target", "2/3",
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["catalog"] == ["t1"]
        assert set(doc["masses"]) == {"{}|G", "{}|I", "{t1}|G", "{t1}|I"}


class TestExitCodes:
    def test_axiom_violation_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "poi.json"
        bad.write_text(json.dumps({"catalog": ["t1"], "convicting": [[]]}))
        code, _, err = run_cli(capsys, "rationalize", str(bad), "--theta", "3/4")
        assert code == 2
        assert "AxiomViolation" in err
        assert "innocence" in err

    def test_malformed_json_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "rationalize", str(bad), "--theta", "3/4")
        assert code == 3
        assert "ParseError" in err

    def test_json_the_decoder_cannot_hold_exits_3(self, capsys, tmp_path):
        uniform = str(DATA / "uniform_n2.json")
        documents = {
            "digits.json": '{"catalog": [' + "1" * 5000 + "]}",
            "deep.json": "[" * 100_000 + "]" * 100_000,
            "latin1.json": '{"catalog": ["\xe9"]}',
        }
        for name, text in documents.items():
            path = tmp_path / name
            path.write_bytes(text.encode("latin-1"))
            code, out, err = run_cli(capsys, "rationalize", str(path), "--theta", "3/4")
            assert (code, out) == (3, "")
            assert err.startswith("error[ParseError]: ") and err.count("\n") == 1
        for given in ("[" + "1" * 5000 + "]", "[" * 100_000):
            code, out, err = run_cli(
                capsys, "extend", uniform, "--event", "guilt", "--given", given, "--target", "1/2"
            )
            assert (code, out) == (3, "")
            assert err.startswith("error[ParseError]: ") and err.count("\n") == 1

    def test_label_with_trailing_newline_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "newline.json"
        bad.write_text(json.dumps({"catalog": ["a\n"], "convicting": [["a\n"]]}))
        code, out, err = run_cli(capsys, "rationalize", str(bad), "--theta", "3/4")
        assert (code, out) == (3, "")
        assert err.startswith("error[ParseError]: ") and err.count("\n") == 1

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "rationalize", "no-such-file.json", "--theta", "3/4")
        assert code == 3

    def test_catalog_mismatch_exits_4(self, capsys, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(
            json.dumps({"catalog": ["zz"], "masses": {"{}|G": "1/2", "{}|I": "1/2"}})
        )
        code, _, err = run_cli(
            capsys,
            "verify", str(DATA / "two_witness_n2.json"), str(other),
            "--theta", "3/4",
        )
        assert code == 4
        assert "CatalogMismatch" in err

    def test_dependent_event_exits_5(self, capsys):
        # a point-atomized charge has unsplittable atoms
        code, _, err = run_cli(
            capsys,
            "extend", str(DATA / "uniform_n2.json"),
            "--event", "guilt",
            "--given", "heard:t1",
            "--target", "3/4",
        )
        assert code == 5
        assert "NotIndependent" in err

    def test_degenerate_utilities_exit_19(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--quadruple", "1", "0", "1", "0")
        assert code == 19
        assert "DegenerateUtilities" in err

    def test_theta_out_of_range_exits_17(self, capsys):
        code, _, err = run_cli(
            capsys, "rationalize", str(DATA / "two_witness_n2.json"), "--theta", "1/2"
        )
        assert code == 17
        assert "ThetaOutOfRange" in err

    @pytest.mark.parametrize("theta", ["2", "-1", "0", "1"])
    def test_verify_theta_outside_the_unit_interval_exits_17(self, capsys, theta):
        code, out, err = run_cli(
            capsys,
            "verify", str(DATA / "two_witness_n2.json"), str(DATA / "uniform_n2.json"),
            "--theta", theta,
        )
        assert (code, out) == (17, "")
        assert err.startswith("error[ThetaOutOfRange]: ") and err.count("\n") == 1

    def test_verify_refuses_theta_before_reading_files(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "verify", str(DATA / "two_witness_n2.json"), str(tmp_path / "missing.json"),
            "--theta", "2",
        )
        assert (code, out) == (17, "")
        assert err.startswith("error[ThetaOutOfRange]: ") and err.count("\n") == 1

    def test_bad_rational_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "odds", "--prior", "1:2", "--lr", "fast")
        assert code == 3

    @pytest.mark.parametrize(
        "argv,code,error",
        [
            (("--prior", "1:2", "--lr", "1e5000"), 3, "ParseError"),
            (("--prior", "1:2", "--lr", "1e3000000"), 3, "ParseError"),
            (("--prior", "1:2", "--lr", "1" * 5000), 3, "ParseError"),
            (("--prior", "1e4000:1", "--lr", "1e2000"), 10, "CapExceeded"),
        ],
    )
    def test_huge_literals_end_in_one_error_line_quickly(self, capsys, argv, code, error):
        start = time.perf_counter()
        got, out, err = run_cli(capsys, "odds", *argv)
        assert time.perf_counter() - start < 0.5
        assert (got, out) == (code, "")
        assert err.startswith(f"error[{error}]: ") and err.count("\n") == 1

    def test_literal_bound_admits_what_can_be_rendered(self):
        assert as_rational("1e4290") == 10**4290
        assert as_rational("-2.5E-3") == as_rational("-1/400")
        for literal in ("1e4296", "1e-4296", "1E+9_999", "9" * 4301):
            with pytest.raises(ValueError, match="too large"):
                as_rational(literal)

    def test_pathological_gamma_exits_10_instead_of_hanging(self, capsys):
        code, _, err = run_cli(
            capsys, "rate", "--gamma", "1/1000000", "--theta", "3/4", "--build"
        )
        assert code == 10
        assert "CapExceeded" in err


class TestTableFormat:
    def test_table_marks_decimals_as_approximate(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "--weights", "1", "3", "--format", "table"
        )
        assert code == 0
        assert "threshold: 3/4 (~0.75)" in out

    def test_certificate_table_renders_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rationalize", str(DATA / "two_witness_n2.json"),
            "--theta", "3/4", "--format", "table",
        )
        assert code == 0
        assert "transcript" in out and "verdict" in out
        assert "{t1,t2}" in out


class TestWorldCap:
    def test_env_var_cap_applies(self, capsys, tmp_path, monkeypatch):
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps({"catalog": [f"t{i}" for i in range(5)], "convicting": [["t0"]]})
        )
        monkeypatch.setenv("JURYBAYES_WORLD_CAP", "3")
        code, _, err = run_cli(capsys, "rationalize", str(big), "--theta", "3/4")
        assert code == 10
        assert "CapExceeded" in err
        monkeypatch.setenv("JURYBAYES_WORLD_CAP", "12")
        code, _, _ = run_cli(capsys, "rationalize", str(big), "--theta", "3/4")
        assert code == 0

    def test_flag_overrides(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps({"catalog": [f"t{i}" for i in range(5)], "convicting": [["t0"]]})
        )
        code, _, _ = run_cli(
            capsys, "rationalize", str(big), "--theta", "3/4", "--world-cap", "4"
        )
        assert code == 10

    def test_bad_caps_fail_before_any_world_is_built(self, capsys, monkeypatch):
        def no_worlds(labels):
            raise AssertionError("a world space was built")

        monkeypatch.setattr(worlds, "_world_space", no_worlds)
        disposition = str(DATA / "two_witness_n2.json")
        cases = [
            (("--world-cap", "-1"), None, 3, "ParseError"),
            ((), "-1", 3, "ParseError"),
            (("--world-cap", str(worlds.WORLD_CAP_CEILING + 1)), None, 10, "CapExceeded"),
            ((), "1000000", 10, "CapExceeded"),
        ]
        for flag, env, code, error in cases:
            if env is None:
                monkeypatch.delenv("JURYBAYES_WORLD_CAP", raising=False)
            else:
                monkeypatch.setenv("JURYBAYES_WORLD_CAP", env)
            got, out, err = run_cli(capsys, "rationalize", disposition, "--theta", "3/4", *flag)
            assert (got, out) == (code, "")
            assert err.startswith(f"error[{error}]: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "argv",
        [
            ("odds", "--prior", "1:2", "--lr", "8"),
            ("threshold", "--weights", "1", "3"),
            ("rate", "--gamma", "1/2", "--theta", "3/4"),
            ("scenario", "spann"),
            ("scenario", "posner"),
            ("verify", str(DATA / "two_witness_n2.json"), str(DATA / "uniform_n2.json"),
             "--theta", "3/4"),
            ("extend", str(DATA / "guilt_coarse_n1.json"), "--event", "guilt",
             "--given", "heard:t1", "--target", "9/10"),
        ],
    )
    def test_every_command_checks_the_cap(self, capsys, monkeypatch, argv):
        cases = [
            (("--world-cap", "-1"), None, 3, "ParseError"),
            ((), "-1", 3, "ParseError"),
            ((), "many", 3, "ParseError"),
            (("--world-cap", str(worlds.WORLD_CAP_CEILING + 1)), None, 10, "CapExceeded"),
            ((), str(worlds.WORLD_CAP_CEILING + 1), 10, "CapExceeded"),
        ]
        for flag, env, code, error in cases:
            if env is None:
                monkeypatch.delenv("JURYBAYES_WORLD_CAP", raising=False)
            else:
                monkeypatch.setenv("JURYBAYES_WORLD_CAP", env)
            got, out, err = run_cli(capsys, *argv, *flag)
            assert (got, out) == (code, "")
            assert err.startswith(f"error[{error}]: ") and err.count("\n") == 1
        monkeypatch.setenv("JURYBAYES_WORLD_CAP", "4")
        assert run_cli(capsys, *argv)[0] == 0


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "jurybayes.cli", "odds", "--prior", "1:2", "--lr", "8"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["posterior"] == "4:1"


def test_closed_stdout_exits_141_quietly(tmp_path):
    # the n=12 report is about 1 MB, far more than a pipe buffers, so the
    # child is still writing when the reader goes away
    disposition = tmp_path / "n12.json"
    disposition.write_text(
        json.dumps({"catalog": [f"t{i}" for i in range(12)], "convicting": [["t0"]]})
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "jurybayes.cli", "rationalize", str(disposition),
         "--theta", "3/4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(16).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


#: Run ``cli.main`` on the arguments and print its exit code and the
#: package modules it loaded.
_MODULES_LOADED = """\
import contextlib, io, json, sys
from jurybayes.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("jurybayes."))]))
"""
_WORLD_MACHINERY = {"worlds", "charges", "dispositions", "serialize"}


@pytest.mark.parametrize(
    "argv,never",
    [
        (("odds", "--prior", "1:2", "--lr", "8"), _WORLD_MACHINERY),
        (("threshold", "--weights", "1", "3"), _WORLD_MACHINERY),
        (("rate", "--gamma", "1/2", "--theta", "3/4"), _WORLD_MACHINERY),
        (("rationalize", str(DATA / "two_witness_n2.json"), "--theta", "3/4"),
         {"analyses", "scoring"}),
        (("verify", str(DATA / "two_witness_n2.json"), str(DATA / "uniform_n2.json"),
          "--theta", "3/4"), {"analyses", "scoring"}),
    ],
)
def test_commands_import_only_what_they_run(argv, never):
    env = {k: v for k, v in os.environ.items() if k != "JURYBAYES_WORLD_CAP"}
    result = subprocess.run(
        [sys.executable, "-c", _MODULES_LOADED, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    code, loaded = json.loads(result.stdout)
    assert code == 0
    assert never.isdisjoint(name.removeprefix("jurybayes.") for name in loaded)
