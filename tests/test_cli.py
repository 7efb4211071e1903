"""Command-line behaviour: golden outputs, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurybayes import cli, errors, worlds
from jurybayes.analyses import Odds, RateBoundConfig
from jurybayes.cli import main
from jurybayes.rationals import as_rational
from jurybayes.scoring import ScoreWeights

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


class TestRespelledPriors:
    """A rationalized prior written other than the writer writes it is read
    key by key to the charge the writer's document gives, and verifies."""

    @staticmethod
    def respelled(masses: dict, variant: str) -> tuple[dict, dict]:
        """(the masses as the writer would write them, the respelled masses)."""
        if variant == "reversed key order":
            return masses, dict(reversed(masses.items()))
        if variant == "decimal literals":
            return masses, {k: "0.125" if v == "1/8" else v for k, v in masses.items()}
        # the prior has no zero mass, so one is made: the convicting
        # transcript's innocent mass moves to its guilty world (posterior 1)
        written = {**masses, "{t1,t2}|G": "1/2", "{t1,t2}|I": "0"}
        return written, {k: v for k, v in written.items() if k != "{t1,t2}|I"}

    @pytest.mark.parametrize("variant", ["reversed key order", "decimal literals", "zero omitted"])
    def test_verify_holds(self, capsys, tmp_path, variant):
        from jurybayes.serialize import charge_from_jsonable

        code, out, _ = run_cli(
            capsys, "rationalize", str(DATA / "two_witness_n2.json"), "--theta", "3/4"
        )
        assert code == 0
        certificate = json.loads(out)
        written, masses = self.respelled(certificate["prior"]["masses"], variant)
        assert list(masses.items()) != list(written.items())
        prior = dict(certificate["prior"], masses=masses)
        assert charge_from_jsonable(prior) == charge_from_jsonable(
            dict(certificate["prior"], masses=written)
        )
        path = tmp_path / "respelled.json"
        path.write_text(json.dumps(dict(certificate, prior=prior)))
        code, out, _ = run_cli(
            capsys, "verify", str(DATA / "two_witness_n2.json"), str(path), "--theta", "3/4"
        )
        assert code == 0
        assert json.loads(out)["holds"] is True


class TestRenderOnce:
    """``--out`` writes the stdout text when it is the same JSON document."""

    @pytest.mark.parametrize(
        "argv,renders,expected,part",
        [
            (("rationalize", str(DATA / "two_witness_n2.json"), "--theta", "3/4"),
             1, "rationalize_two_witness_n2.json", None),
            (("extend", str(DATA / "guilt_coarse_n1.json"), "--event", "guilt",
              "--given", "heard:t1", "--target", "9/10"),
             2, "extend_guilt_heard.json", "charge"),
            (("rationalize", str(DATA / "two_witness_n2.json"), "--theta", "3/4",
              "--format", "table"), 2, "rationalize_two_witness_n2.json", None),
        ],
    )
    def test_render_calls(self, capsys, tmp_path, monkeypatch, argv, renders, expected, part):
        calls = []
        render = cli.render

        def counting(doc, fmt):
            calls.append(fmt)
            return render(doc, fmt)

        monkeypatch.setattr(cli, "render", counting)
        out_path = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 0
        assert len(calls) == renders
        text = golden(expected)
        if part is not None:
            text = json.dumps(json.loads(text)[part], indent=2) + "\n"
        assert out_path.read_text() == text


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

    # Each document, read with the last copy of its repeated key, is accepted at
    # exit 0 by a reader that keeps only that copy: the disposition as "convict
    # on {a}", the charge's masses (the last copy keeps the sum at 1) and the
    # certificate's prior.
    @pytest.mark.parametrize(
        "kind,text,key",
        [
            ("disposition",
             '{"catalog":["a","b"],"convicting":[["a","b"]],"convicting":[["a"]]}',
             "convicting"),
            ("charge",
             (DATA / "uniform_n2.json").read_text().replace(
                 '"{t1,t2}|I": "1/8"', '"{t1,t2}|I": "0", "{t1,t2}|I": "1/8"'),
             "{t1,t2}|I"),
            ("certificate",
             golden("rationalize_two_witness_n2.json").replace(
                 '"prior": {', '"prior": {}, "prior": {'),
             "prior"),
        ],
    )
    def test_a_repeated_key_exits_3_naming_it(self, capsys, tmp_path, kind, text, key):
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        if kind == "disposition":
            argv = ("rationalize", str(path), "--theta", "3/4")
        else:
            argv = ("verify", str(DATA / "two_witness_n2.json"), str(path), "--theta", "3/4")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error[ParseError]: {path}: key {key!r} is repeated in one object\n"

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

    @pytest.mark.parametrize("label", ["c", ["b"], {"a": 1}])
    def test_convicting_label_outside_the_catalog_exits_3(self, capsys, tmp_path, label):
        bad = tmp_path / "foreign.json"
        bad.write_text(json.dumps({"catalog": ["a", "b"], "convicting": [["a", label]]}))
        code, out, err = run_cli(capsys, "rationalize", str(bad), "--theta", "3/4")
        assert (code, out) == (3, "")
        assert err == (
            f"error[ParseError]: bad convicting transcript: label {label!r} is not in the catalog\n"
        )

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

    @pytest.mark.parametrize(
        "argv,code,error,flag,message",
        [
            (("rate", "--gamma", "1/2", "--theta", "2"), 17, "ThetaOutOfRange", "--theta",
             "theta must lie strictly between 0 and 1, got 2"),
            (("rate", "--gamma", "1/2", "--theta", "0"), 17, "ThetaOutOfRange", "--theta",
             "theta must lie strictly between 0 and 1, got 0"),
            (("rate", "--gamma", "0", "--theta", "3/4"), 15, "OutOfRange", "--gamma",
             "gamma must be strictly positive, got 0"),
            (("rate", "--gamma=-1/2", "--theta", "2"), 15, "OutOfRange", "--gamma",
             "gamma must be strictly positive, got -1/2"),
            (("threshold", "--weights", "0", "1"), 15, "OutOfRange", "--weights",
             "reward and penalty must both be strictly positive, got 0 and 1"),
            (("threshold", "--weights", "1", "-2"), 15, "OutOfRange", "--weights",
             "reward and penalty must both be strictly positive, got 1 and -2"),
            (("odds", "--prior", "0:1", "--lr", "2"), 20, "NonpositiveRatio", "--prior",
             "odds components must be strictly positive, got 0:1"),
            (("odds", "--prior", "1:-2", "--lr", "2"), 20, "NonpositiveRatio", "--prior",
             "odds components must be strictly positive, got 1:-2"),
        ],
    )
    def test_range_errors_have_their_own_exit_codes(
        self, capsys, argv, code, error, flag, message
    ):
        line = f"error[{error}]: {message}\n"
        assert run_cli(capsys, *argv) == (code, "", line)
        # the line is main's rendering of what the flag's value object raises
        args = cli.build_parser().parse_args(argv)
        build = {
            "--theta": lambda: RateBoundConfig(args.gamma, args.theta),
            "--gamma": lambda: RateBoundConfig(args.gamma, args.theta),
            "--weights": lambda: ScoreWeights(*args.weights),
            "--prior": lambda: Odds(*map(as_rational, args.prior.split(":"))),
        }[flag]
        with pytest.raises(ValueError) as caught:
            build()
        assert f"error[{type(caught.value).__name__}]: {caught.value}\n" == line

    @pytest.mark.parametrize(
        "argv",
        [
            ("rate", "--gamma", "x", "--theta", "2"),
            ("rate", "--gamma", "0", "--theta", "3/4/5"),
            ("threshold", "--weights", "0", "zz"),
            ("odds", "--prior", "0-1", "--lr", "2"),
            ("odds", "--prior", "a:0", "--lr", "2"),
        ],
    )
    def test_malformed_range_literals_still_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error[ParseError]: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "gamma,theta,code,error",
        [
            # float(1 + gamma) is 1.0 and float(2 * theta) is 1.0
            ("1e-300", "0.5" + "0" * 399 + "1", 0, None),
            ("1e400", "3/4", 0, None),  # float(1 + gamma) overflows
            ("1/2", "1e-400", 0, None),  # float(theta) is 0.0
            ("1e-40", "3/4", 10, "CapExceeded"),  # no count within the cap reaches theta
            ("1/12288", "3/4", 10, "CapExceeded"),  # past the cap, though not refused at once
            ("1e-400", "3/4", 10, "CapExceeded"),
            ("1e-400", "1e-400", 10, "CapExceeded"),  # the log bound is below -1e400
        ],
    )
    def test_extreme_rate_literals_end_quickly_without_a_traceback(
        self, capsys, gamma, theta, code, error
    ):
        start = time.perf_counter()
        got, out, err = run_cli(capsys, "rate", "--gamma", gamma, "--theta", theta)
        assert time.perf_counter() - start < 0.5
        assert got == code
        if error is None:
            assert err == "" and json.loads(out)["steps"] <= 1
        else:
            assert out == "" and err.startswith(f"error[{error}]: ") and err.count("\n") == 1


    def test_long_gamma_just_above_the_refusal_edge_ends_quickly(self, capsys):
        # about 4,055 steps: one Fraction multiplication each took over 10 s here
        gamma = "0.0001" + "0" * 300 + "1"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "rate", "--gamma", gamma, "--theta", "3/4")
        assert time.perf_counter() - start < 3
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["steps"] == math.ceil(report["log_bound_approx"]) == 4055

    # pairwise coprime 1,500-digit denominators: sums and products of the
    # values grow to several thousand digits
    LONG_NUM = [str(7 * 10**1498 + k) for k in (1, 3, 5, 7)]
    LONG_DEN = [str(10**1499 + k) for k in (3, 7, 9, 11)]
    LONG = [f"{n}/{d}" for n, d in zip(LONG_NUM, LONG_DEN)]

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["odds", "--prior", "1:2", "--lr", LONG_DEN[0] + LONG_DEN[1]], None),
            (["odds", "--prior", f"{LONG[0]}:{LONG[1]}", "--lr", LONG[2]], "CapExceeded"),
            (
                ["threshold", "--quadruple", LONG[0], f"-{LONG[1]}", f"-{LONG[2]}", LONG[3]],
                "CapExceeded",
            ),
            (["threshold", "--weights", LONG[0], LONG[1]], None),
            (
                [
                    "extend", str(DATA / "guilt_coarse_n1.json"),
                    "--event", "guilt", "--given", "heard:t1", "--target", LONG[0],
                ],
                None,
            ),
        ],
        ids=["odds-integers", "odds", "threshold-quadruple", "threshold-weights", "extend-target"],
    )
    def test_long_literals_end_quickly_without_a_traceback(self, capsys, argv, error):
        assert max(map(len, argv)) >= 3000
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 3
        if error is None:
            assert code == 0 and err == "" and json.loads(out)
        else:
            assert code == getattr(errors, error).exit_code
            assert out == "" and err.startswith(f"error[{error}]: ") and err.count("\n") == 1


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

    def test_verify_table_renders_a_missing_witness_as_a_dash(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        disposition = str(DATA / "two_witness_n2.json")
        assert run_cli(capsys, "rationalize", disposition, "--theta", "3/4",
                       "--out", str(cert))[0] == 0
        code, out, err = run_cli(
            capsys, "verify", disposition, str(cert), "--theta", "3/4", "--format", "table"
        )
        assert (code, err) == (0, "")
        assert out == "theta: 3/4 (~0.75)\nholds: True\nwitness: -\n"


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
            (("--world-cap", "1.5"), None, 3, "ParseError"),  # int() refuses it; no TypeError
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


#: One valid argv per subcommand, none on a catalog of more than four testimonies.
SUBCOMMAND_ARGVS = {
    "rationalize": ("rationalize", str(DATA / "two_witness_n2.json"), "--theta", "3/4"),
    "verify": ("verify", str(DATA / "two_witness_n2.json"), str(DATA / "uniform_n2.json"),
               "--theta", "3/4"),
    "extend": ("extend", str(DATA / "guilt_coarse_n1.json"), "--event", "guilt",
               "--given", "heard:t1", "--target", "9/10"),
    "threshold": ("threshold", "--quadruple", "1", "-9", "0", "0"),
    "odds": ("odds", "--prior", "1:2", "--lr", "8"),
    "rate": ("rate", "--gamma", "1/2", "--theta", "3/4", "--build"),
    "scenario": ("scenario", "two-witness"),
}


def test_the_shared_option_cases_name_every_subcommand():
    parser = cli.build_parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands) == set(SUBCOMMAND_ARGVS)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGVS))
def test_every_subcommand_takes_the_shared_options(capsys, monkeypatch, command):
    """--format and --world-cap are declared once for all subcommands; each one accepts them."""
    monkeypatch.delenv("JURYBAYES_WORLD_CAP", raising=False)
    argv = SUBCOMMAND_ARGVS[command]
    code, report, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, "--world-cap", "4") == (0, report, "")
    code, table, err = run_cli(capsys, *argv, "--format", "table")
    assert (code, err) == (0, "") and table != report
    assert run_cli(capsys, *argv, "--world-cap", "4", "--format", "table") == (0, table, "")


class TestUsageErrors:
    """The argument parser converts every value and ends every usage error as ParseError."""

    # argparse's wording may change between Python versions, so only a prefix is pinned
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("rate", "--gamma", "1/2"), "the following arguments are required: --theta"),
            (("scenario", "nope"), "argument name: invalid choice: 'nope'"),
            (("odds", "--prior", "1:2", "--lr", "8", "--format", "xml"),
             "argument --format: invalid choice: 'xml'"),
            ((), "the following arguments are required: command"),
            (("threshold", "--weights", "1"), "argument --weights: expected 2 arguments"),
            (("rate", "--gamma", "1/2", "--theta", "3/4", "--bogus"),
             "unrecognized arguments: --bogus"),
            (("odds", "--prior", "1:2", "--lr", "8", "--world-cap", "x"),
             "the world cap must be a nonnegative integer, got 'x'"),
            (("rate", "--gamma", "1/2", "--theta", "3/4/5"),
             "--theta: cannot parse '3/4/5' as a rational"),
            # a malformed literal wins over a range error and over a file read
            (("odds", "--prior", "0:1", "--lr", "x"), "--lr: cannot parse 'x' as a rational"),
            (("extend", "missing.json", "--event", "guilt", "--given", "heard:t1",
              "--target", "x"), "--target: cannot parse 'x' as a rational"),
        ],
    )
    def test_usage_errors_exit_3_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error[ParseError]: {message}") and err.count("\n") == 1

    def test_cap_variable_and_flag_share_one_converter(self, capsys, monkeypatch):
        monkeypatch.setenv("JURYBAYES_WORLD_CAP", "x")
        argv = ("odds", "--prior", "1:2", "--lr", "8")
        assert run_cli(capsys, *argv) == (
            3, "", "error[ParseError]: the world cap must be a nonnegative integer, got 'x'\n"
        )
        # the variable is a default, so the flag wins without it being read
        assert run_cli(capsys, *argv, "--world-cap", "4") == (0, golden("odds_shooting.json"), "")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: jurybayes")

    def test_negative_rationals_follow_their_flag_after_a_space(self, capsys):
        assert run_cli(capsys, "rate", "--gamma", "-1/2", "--theta", "3/4") == (
            15, "", "error[OutOfRange]: gamma must be strictly positive, got -1/2\n"
        )
        assert run_cli(capsys, "rate", "--gamma", "-1e-3", "--theta", "-.5") == (
            15, "", "error[OutOfRange]: gamma must be strictly positive, got -1/1000\n"
        )
        code, out, err = run_cli(capsys, "threshold", "--quadruple", "1", "-9/2", "0", "0")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["utilities"]["convict_innocent"] == "-9/2"
        assert report["threshold"] == "9/11"

    def test_range_messages_print_the_parsed_value(self, capsys):
        assert run_cli(capsys, "rate", "--gamma", "1/2", "--theta", "2.0") == (
            17, "", "error[ThetaOutOfRange]: theta must lie strictly between 0 and 1, got 2\n"
        )
        assert run_cli(capsys, "threshold", "--weights", "0.0", "2/2") == (
            15, "", "error[OutOfRange]: reward and penalty must both be strictly positive, "
            "got 0 and 1\n"
        )
        assert run_cli(capsys, "odds", "--prior", "2/2:-2.0", "--lr", "2") == (
            20, "", "error[NonpositiveRatio]: odds components must be strictly positive, got 1:-2\n"
        )

    def test_a_newline_in_an_argument_prints_escaped(self, capsys):
        code, out, err = run_cli(capsys, "rationalize", "a\nb", "--theta", "3/4")
        assert (code, out) == (3, "")
        assert err.startswith("error[ParseError]: cannot read a\\nb: ") and err.count("\n") == 1
        assert run_cli(capsys, "odds", "--prior", "1:2", "--lr", "8", "x\ny") == (
            3, "", "error[ParseError]: unrecognized arguments: x\\ny\n"
        )

    def test_unwritable_out_path_exits_3(self, capsys, tmp_path):
        out_path = tmp_path / "no-such-dir" / "cert.json"
        code, _, err = run_cli(
            capsys, "rationalize", str(DATA / "two_witness_n2.json"), "--theta", "3/4",
            "--out", str(out_path),
        )
        assert code == 3
        assert err.startswith(f"error[ParseError]: cannot write {out_path}: ")
        assert err.count("\n") == 1


_EXIT_CODES = {
    cls.__name__: cls.exit_code
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.JuryBayesError)
}
_FILES = tuple(str(DATA / name) for name in sorted(os.listdir(DATA)))
_CAPS = ("0", "1", "2", "3", "4")
_BAD_CAPS = ("-1", "x", "", "1e3")
_RATIONALS = ("3/4", "1/2", "9/10", "0.8", "1", "8", "-9", "-9/2", "0")
_BAD_RATIONALS = ("2", "-1", "-1/2", "-0.5", "3/4/5", "1/0", "x", "1e5000", "-1e5", "-1/0", "")
#: Tiny and huge literals, past the float range, for rate's values.
_EXTREME_RATIONALS = ("1e-40", "1e-400", "1e400", "0.5" + "0" * 399 + "1")
#: Per argument kind, well-formed values and values that must fail.
_LITERALS = {
    "FILE": (_FILES, ("missing.json",)),
    "NAME": (("spann", "two-witness", "posner"), ("nope", "-1/2")),
    "--theta": (_RATIONALS + _EXTREME_RATIONALS, _BAD_RATIONALS),
    "--target": (_RATIONALS, _BAD_RATIONALS),
    "--weights": (_RATIONALS, _BAD_RATIONALS),
    "--quadruple": (_RATIONALS, _BAD_RATIONALS),
    "--lr": (_RATIONALS, _BAD_RATIONALS),
    "--gamma": (_RATIONALS + _EXTREME_RATIONALS, _BAD_RATIONALS),
    "--prior": (("1:2", "1:10", "3/4:1"), ("0:1", "1:-2", "-1/2:1", "a:b", "12", "1:2:3")),
    "--event": (("guilt", "heard:t1", "transcript:t1"), ("[]", "heard:zz", "x")),
    "--given": (("heard:t1", "heard:t2", "transcript:", '["{}|G"]'), ("guilt", "[", "zz")),
    "--format": (("json", "table"), ("xml",)),
    "--world-cap": (_CAPS, _BAD_CAPS),
}
#: Each command's positionals and options, with how many values each option takes.
_FORMS = (
    ("rationalize", ("FILE",), {"--theta": 1}),
    ("verify", ("FILE", "FILE"), {"--theta": 1}),
    ("extend", ("FILE",), {"--event": 1, "--given": 1, "--target": 1}),
    ("threshold", (), {"--weights": 2}),
    ("threshold", (), {"--quadruple": 4}),
    ("odds", (), {"--prior": 1, "--lr": 1}),
    ("rate", (), {"--gamma": 1, "--theta": 1, "--build": 0}),
    ("scenario", ("NAME",), {}),
)


def _asks_for_help_or_a_write(token: str) -> bool:
    # -h/--help exit through SystemExit, and --out (or an abbreviation) writes a file
    return token.startswith("-") and token.lstrip("-")[:1] in ("h", "o")


_JUNK = st.sampled_from(
    ("--", "-", "", "--bogus", "-x", "--weights", "--quadruple", "--theta", "rate",
     *(v for pair in _LITERALS.values() for values in pair for v in values))
) | st.text(max_size=6).filter(lambda token: not _asks_for_help_or_a_write(token))


@st.composite
def cli_argvs(draw) -> list[str]:
    """A command with its real options, some left out, miscounted or malformed, plus junk."""

    def value(kind: str) -> str:
        good, bad = _LITERALS[kind]
        return draw(st.sampled_from(good if draw(st.sampled_from(range(6))) else bad))

    command, positionals, options = draw(st.sampled_from(_FORMS))
    argv = [command, *map(value, positionals)]
    for flag, count in {**options, "--format": 1, "--world-cap": 1}.items():
        if draw(st.sampled_from(range(6))) < (5 if flag in options and count else 2):
            count += draw(st.sampled_from((0,) * 8 + (-1, 1))) if count else 0
            argv += [flag, *(value(flag) for _ in range(count))]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs(), cap_env=st.sampled_from(_CAPS * 4 + _BAD_CAPS))
def test_fuzz_every_argv_ends_in_a_documented_code(argv, cap_env):
    env = {"JURYBAYES_WORLD_CAP": cap_env}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        return
    line = re.fullmatch(r"error\[(\w+)\]: [^\n]*\n", err.getvalue())
    assert line is not None, err.getvalue()
    # so exit 2 means AxiomViolation, and every code is one errors.py declares
    assert _EXIT_CODES[line.group(1)] == code


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


#: Run ``cli.main`` on the arguments and print its exit code, the package
#: modules it loaded, and which of the standard modules that only
#: ``dataclasses`` would bring in (with ``inspect``) it loaded.
_MODULES_LOADED = """\
import contextlib, io, json, sys
from jurybayes.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([
    code,
    sorted(m for m in sys.modules if m.startswith("jurybayes.")),
    sorted(m for m in ("dataclasses", "inspect") if m in sys.modules),
]))
"""
_WORLD_MACHINERY = {"worlds", "charges", "dispositions", "serialize"}


@pytest.mark.parametrize(
    "argv,never",
    [
        (("odds", "--prior", "1:2", "--lr", "8"), _WORLD_MACHINERY),
        (("threshold", "--weights", "1", "3"), _WORLD_MACHINERY),
        (("rate", "--gamma", "1/2", "--theta", "3/4"), _WORLD_MACHINERY),
        (("rate", "--gamma", "1/10", "--theta", "3/4", "--build"),
         {"dispositions", "serialize", "scoring"}),
        (("rationalize", str(DATA / "two_witness_n2.json"), "--theta", "3/4"),
         {"analyses", "scoring"}),
        (("verify", str(DATA / "two_witness_n2.json"), str(DATA / "uniform_n2.json"),
          "--theta", "3/4"), {"analyses", "scoring"}),
        (("extend", str(DATA / "guilt_coarse_n1.json"), "--event", "guilt",
          "--given", "heard:t1", "--target", "9/10"), {"analyses", "scoring"}),
        (("scenario", "spann"), {"dispositions", "serialize", "scoring"}),
        (("scenario", "two-witness"), {"analyses", "serialize", "scoring"}),
        (("scenario", "posner"), {"analyses", "serialize", "scoring"}),
    ],
)
def test_commands_import_only_what_they_run(argv, never):
    """Every subcommand loads only its own modules, and never ``dataclasses``
    or ``inspect``: the value objects are plain classes (see README, Start-up)."""
    env = {k: v for k, v in os.environ.items() if k != "JURYBAYES_WORLD_CAP"}
    result = subprocess.run(
        [sys.executable, "-c", _MODULES_LOADED, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    code, loaded, heavy = json.loads(result.stdout)
    assert code == 0
    assert never.isdisjoint(name.removeprefix("jurybayes.") for name in loaded)
    assert heavy == []
