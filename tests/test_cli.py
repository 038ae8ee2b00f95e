"""End-to-end CLI behavior: subcommands, formats, seeds, exit codes."""

import argparse
import io
import json
import os
import subprocess
import sys
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest

from wignerpf import SpectrumEntry, SpectrumSpec, random_conjugate_normal
from wignerpf.cli import _build_parser, main
from wignerpf.io import write_matrix

from conftest import corpus_spec

ROOT = Path(__file__).resolve().parents[1]

MM_J = "%%MatrixMarket matrix array complex general\n2 2\n0 0\n-1 0\n1 0\n0 0\n"
JSON_A2 = '{"rows": 2, "cols": 2, "entries": [[0,0],[1,1],[1,-1],[0,0]]}'
MM_DIAG_POSITIVE = "%%MatrixMarket matrix array real general\n2 2\n3\n0\n0\n5\n"
MM_J_PLUS_ZERO = "%%MatrixMarket matrix array real general\n3 3\n0\n-1\n0\n1\n0\n0\n0\n0\n0\n"

GOLDEN_PF_J = (
    '{"pfaffian": [1, 0], "method": "normal-form", "det": [1, 0], '
    '"singular": false, "cross_check_residual": 0}\n'
)
GOLDEN_PF_A2 = (
    '{"pfaffian": [0, 1.4142135623730951], "method": "normal-form", '
    '"det": [-2, 0], "singular": false, "cross_check_residual": 0}\n'
)
GOLDEN_WNF_A2 = (
    '{"det_U": [1, 0], "blocks": [{"type": "offdiag", "value": [1, 1], '
    '"multiplicity": 1}], "reconstruction_residual": 0}\n'
)
GOLDEN_CHECK_A2 = '{"conjugate_normal": true, "residual": 0}\n'
GOLDEN_APF_A2 = (
    '{"pfaffian": [0, 1], "method": "antisymmetrized", "det": [-2, 0], '
    '"singular": false, "cross_check_residual": null}\n'
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("j.mm", MM_J),
        ("a2.json", JSON_A2),
        ("diag.mm", MM_DIAG_POSITIVE),
        ("odd.mm", MM_J_PLUS_ZERO),
    ]:
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestGoldenOutputs:
    def test_pf_real_skew(self, capsys, files):
        code, out = run(capsys, ["pf", files["j.mm"]])
        assert code == 0
        assert out == GOLDEN_PF_J

    def test_pf_hand_example(self, capsys, files):
        code, out = run(capsys, ["pf", "--format", "json", files["a2.json"]])
        assert code == 0
        assert out == GOLDEN_PF_A2

    def test_pf_undefined_exit_4(self, capsys, files):
        code, out = run(capsys, ["pf", files["diag.mm"]])
        assert code == 4
        payload = json.loads(out)
        assert payload["error"]["code"] == 4
        assert "positive real" in payload["error"]["message"]

    def test_wnf(self, capsys, files):
        code, out = run(capsys, ["wnf", "--format", "json", files["a2.json"]])
        assert code == 0
        assert out == GOLDEN_WNF_A2

    def test_check(self, capsys, files):
        code, out = run(capsys, ["check", "--format", "json", files["a2.json"]])
        assert code == 0
        assert out == GOLDEN_CHECK_A2

    def test_apf(self, capsys, files):
        code, out = run(capsys, ["apf", "--format", "json", files["a2.json"]])
        assert code == 0
        assert out == GOLDEN_APF_A2


class TestMethods:
    def test_all_methods_agree(self, capsys, files):
        values = {}
        for method in ("normal-form", "relation", "polynomial"):
            code, out = run(
                capsys,
                ["pf", "--format", "json", "--method", method, files["a2.json"]],
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["method"] == method
            values[method] = complex(*payload["pfaffian"])
        np.testing.assert_allclose(values["relation"], values["normal-form"], rtol=1e-12)
        np.testing.assert_allclose(values["polynomial"], values["normal-form"], rtol=1e-12)


class TestApfOddDimension:
    def test_warning_and_zero(self, capsys, files):
        code, out = run(capsys, ["apf", files["odd.mm"]])
        assert code == 0
        payload = json.loads(out)
        assert payload["pfaffian"] == [0, 0]
        assert "odd dimension" in payload["warning"]


class TestCheckNeverErrors:
    def test_non_conjugate_normal_still_exit_0(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "entries": [[1,0],[1,0],[0,0],[1,0]]}')
        code, out = run(capsys, ["check", "--format", "json", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["conjugate_normal"] is False
        assert payload["residual"] > 0


class TestExitCodes:
    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.mm"
        path.write_text("%%MatrixMarket matrix array complex general\n2 2\n1 0\n")
        code, out = run(capsys, ["pf", str(path)])
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["code"] == 2
        assert payload["error"]["message"].startswith("line ")

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["pf"], b"%%MatrixMarket matrix array complex general\n2 2\n1 0\n0 0\n0 \xff\n1 0\n"),
            (
                ["pf", "--format", "json"],
                b'{"rows": 2, "cols": 2, "entries": [[1,0],[0,0],[0,0],[1,\xff]]}',
            ),
            (["gen"], b'{"spectrum": [{"class": "complex\xff", "omega": [1, 1]}]}'),
        ],
        ids=["mm", "json", "gen"],
    )
    def test_non_utf8_file_exit_2_as_on_stdin(self, capsys, tmp_path, monkeypatch, argv, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        code, out = run(capsys, argv + [str(path)])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["code"] == 2
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(capsys, argv + ["-"]) == (code, out)

    def test_missing_file_exit_2(self, capsys):
        code, out = run(capsys, ["pf", "/nonexistent/m.mm"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == 2

    def test_integer_entry_beyond_the_double_range_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"rows": 1, "cols": 2, "entries": [[1%s, 0], [0, 0]]}' % ("0" * 400))
        code, out = run(capsys, ["apf", "--format", "json", str(path)])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["message"] == "entry 0 is non-finite"

    def test_not_conjugate_normal_exit_3(self, capsys, tmp_path):
        path = tmp_path / "ncn.json"
        path.write_text('{"rows": 2, "cols": 2, "entries": [[1,0],[1,0],[0,0],[1,0]]}')
        code, out = run(capsys, ["pf", "--format", "json", str(path)])
        assert code == 3
        assert json.loads(out)["error"]["code"] == 3

    def test_singular_odd_input_printed_to_12_digits_exit_4(self, capsys, files, tmp_path):
        # pf's zero floor is the SVD's rounding, dim eps d_1: 12 printed
        # digits leave the smallest singular value near 1e-12 d_1, a positive
        # sigma in an odd dimension
        code, out = run(capsys, ["pf", files["odd.mm"]])
        assert (code, json.loads(out)["singular"]) == (0, True)
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        a = q @ np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 0.0]]) @ q.T
        path = tmp_path / "noisy.mm"
        path.write_text(
            "%%MatrixMarket matrix array real general\n3 3\n"
            + "".join(f"{x:.12g}\n" for x in a.T.ravel())
        )
        code, out = run(capsys, ["pf", str(path)])
        assert code == 4
        message = json.loads(out)["error"]["message"]
        assert "positive real eigenvalue (odd dimension)" in message

    def test_overmerged_clusters_exit_5(self, capsys, files):
        code, out = run(capsys, ["wnf", "--tol-cluster", "0.5", files["odd.mm"]])
        assert code == 5
        assert json.loads(out)["error"]["code"] == 5

    def test_bad_tolerance_exit_2(self, capsys, files):
        code, out = run(capsys, ["pf", "--tol-eig", "-1", files["j.mm"]])
        assert code == 2
        assert json.loads(out)["error"]["code"] == 2


#: the options each subcommand takes besides --help: the ones it reads
OPTION_SETS = {
    "pf": {"--format", "--tol-eig", "--method", "--output"},
    "apf": {"--format", "--output"},
    "wnf": {"--format", "--tol-eig", "--tol-cluster", "--output"},
    "check": {"--format", "--tol-eig", "--output"},
    "identities": {"--format", "--tol-eig", "--seed", "--partner", "--lam", "--output"},
    "gen": {"--format", "--seed", "--output"},
}

CLUSTER_BELOW_EIG = "cluster tolerance must be at least the eigen-residual tolerance"


class TestOptionSets:
    @pytest.mark.parametrize("command", OPTION_SETS)
    def test_each_subcommand_takes_only_the_options_it_reads(self, command):
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        actions = sub.choices[command]._actions
        flags = {flag for action in actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == OPTION_SETS[command]

    @pytest.mark.parametrize(
        "command, option",
        [
            ("pf", "--tol-cluster"),
            ("pf", "--seed"),
            ("apf", "--tol-eig"),
            ("apf", "--tol-cluster"),
            ("apf", "--seed"),
            ("wnf", "--seed"),
            ("check", "--tol-cluster"),
            ("check", "--seed"),
            ("gen", "--tol-eig"),
            ("gen", "--tol-cluster"),
            ("identities", "--tol-cluster"),
        ],
    )
    def test_an_option_the_subcommand_does_not_read_exits_2(self, capsys, files, command, option):
        with pytest.raises(SystemExit) as info:
            main([command, option, "1", files["j.mm"]])
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        # rejected as any unknown option is, by the top-level parser
        assert err.startswith("usage: wignerpf ")
        assert f"wignerpf: error: unrecognized arguments: {option}" in err

    @pytest.mark.parametrize(
        "argv", [["check"], ["pf"], ["pf", "--method", "relation"], ["identities"]]
    )
    def test_eig_residual_above_cluster_where_nothing_is_clustered(self, capsys, files, argv):
        argv = [*argv, "--format", "json"]
        default = run(capsys, [*argv, files["a2.json"]])
        loose = run(capsys, [*argv, "--tol-eig", "1e-6", files["a2.json"]])
        assert default[0] == 0
        assert loose == default

    @pytest.mark.parametrize("command", ["wnf"])
    def test_eig_residual_above_cluster_where_the_spectrum_is_clustered(
        self, capsys, files, command
    ):
        argv = [command, "--format", "json", "--tol-eig", "1e-6", files["a2.json"]]
        code, out = run(capsys, argv)
        assert code == 2
        assert json.loads(out) == {"error": {"code": 2, "message": CLUSTER_BELOW_EIG}}
        # the rule is checked when a matrix reaches the clustering: a file
        # that cannot be read fails first
        code, out = run(capsys, [*argv[:-1], "/nonexistent/m.json"])
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("cannot read /nonexistent/m.json")


class TestMultipleInputs:
    def test_one_line_per_input(self, capsys, files):
        code, out = run(capsys, ["pf", files["j.mm"], files["j.mm"]])
        assert code == 0
        assert out == GOLDEN_PF_J * 2

    def test_stops_at_first_failure_keeping_earlier_lines(self, capsys, files):
        code, out = run(capsys, ["pf", files["j.mm"], files["diag.mm"], files["j.mm"]])
        assert code == 4
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] + "\n" == GOLDEN_PF_J
        assert json.loads(lines[1])["error"]["code"] == 4


class TestStdinAndOutput:
    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(JSON_A2))
        code, out = run(capsys, ["pf", "--format", "json", "-"])
        assert code == 0
        assert out == GOLDEN_PF_A2

    def test_output_file_collects_all_lines(self, capsys, files, tmp_path):
        target = tmp_path / "result.txt"
        code, out = run(
            capsys, ["pf", "--output", str(target), files["j.mm"], files["j.mm"]]
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == GOLDEN_PF_J * 2

    def test_unwritable_output_exit_2(self, capsys, files, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "result.txt"
        code, out = run(capsys, ["pf", "--output", str(target), files["j.mm"]])
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["code"] == 2
        assert payload["error"]["message"].startswith(f"cannot write {target}: ")


class TestIdentities:
    def test_battery_passes(self, capsys, files):
        code, out = run(capsys, ["identities", "--format", "json", files["a2.json"]])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 10
        assert {c["name"] for c in payload["checks"]} >= {"square-det", "adjoint", "phase"}

    def test_deterministic_default_seed(self, capsys, files):
        _, first = run(capsys, ["identities", "--format", "json", files["a2.json"]])
        _, second = run(capsys, ["identities", "--format", "json", files["a2.json"]])
        assert first == second

    def test_partner_file(self, capsys, files, tmp_path):
        partner = tmp_path / "b.json"
        partner.write_text('{"rows": 2, "cols": 2, "entries": [[2,0],[0,0],[0,0],[3,0]]}')
        code, out = run(
            capsys,
            [
                "identities",
                "--format",
                "json",
                "--partner",
                str(partner),
                "--lam",
                "2",
                files["a2.json"],
            ],
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_negative_seed_exit_2(self, capsys, files, monkeypatch):
        argv = ["identities", "--format", "json", files["a2.json"]]
        results = [run(capsys, ["identities", "--seed", "-1", *argv[1:]])]
        monkeypatch.setenv("WIGNERPF_SEED", "-1")
        results.append(run(capsys, argv))
        for code, out in results:
            assert code == 2
            assert out.count("\n") == 1
            assert "seed must be >= 0" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("lam", ["xyz", "nan", "inf", "1+nanj"])
    def test_bad_lam_exit_2(self, capsys, files, lam):
        code = main(["identities", "--format", "json", "--lam", lam, files["a2.json"]])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == ""
        error = json.loads(out)["error"]
        assert error["code"] == 2
        assert "--lam" in error["message"]


SPEC_JSON = (
    '{"seed": 11, "spectrum": ['
    '{"class": "complex", "omega": [0.5, 1.2], "multiplicity": 1}, '
    '{"class": "negative-real", "omega": -4, "multiplicity": 2}]}'
)


class TestGen:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(SPEC_JSON)
        return str(path)

    def test_emits_matrix_document(self, capsys, spec_file):
        code, out = run(capsys, ["gen", spec_file])
        assert code == 0
        assert out.startswith("%%MatrixMarket matrix array complex general\n4 4\n")

    def test_deterministic_and_seed_sensitive(self, capsys, spec_file):
        _, first = run(capsys, ["gen", spec_file])
        _, again = run(capsys, ["gen", spec_file])
        _, other = run(capsys, ["gen", "--seed", "12", spec_file])
        assert first == again
        assert first != other

    def test_env_seed_and_flag_precedence(self, capsys, spec_file, monkeypatch):
        _, default = run(capsys, ["gen", spec_file])
        monkeypatch.setenv("WIGNERPF_SEED", "99")
        _, from_env = run(capsys, ["gen", spec_file])
        _, from_flag = run(capsys, ["gen", "--seed", "11", spec_file])
        assert from_env != default
        assert from_flag == default  # flag overrides the environment

    def test_invalid_env_seed_exit_2(self, capsys, spec_file, monkeypatch):
        monkeypatch.setenv("WIGNERPF_SEED", "not-a-number")
        code, out = run(capsys, ["gen", spec_file])
        assert code == 2
        assert json.loads(out)["error"]["code"] == 2

    def test_negative_seed_exit_2(self, capsys, spec_file, tmp_path):
        negative = tmp_path / "negative.json"
        negative.write_text(SPEC_JSON.replace('"seed": 11', '"seed": -3'))
        for argv in (["gen", str(negative)], ["gen", "--seed", "-1", spec_file]):
            code, out = run(capsys, argv)
            assert code == 2
            assert out.count("\n") == 1
            assert "seed must be >= 0" in json.loads(out)["error"]["message"]
        # a negative spec seed is never used when the flag overrides it
        code, out = run(capsys, ["gen", "--seed", "5", str(negative)])
        assert code == 0
        assert out == run(capsys, ["gen", "--seed", "5", spec_file])[1]

    def test_output_file_and_summary(self, capsys, spec_file, tmp_path):
        target = tmp_path / "matrix.mm"
        code, out = run(capsys, ["gen", "--output", str(target), spec_file])
        assert code == 0
        summary = json.loads(out)
        assert summary == {
            "written": str(target),
            "rows": 4,
            "cols": 4,
            "seed": 11,
            "format": "mm",
        }
        # the generated matrix round-trips through pf with a defined value
        code, out = run(capsys, ["pf", str(target)])
        assert code == 0
        payload = json.loads(out)
        value = complex(*payload["pfaffian"])
        det = complex(*payload["det"])
        np.testing.assert_allclose(value * value, det, rtol=1e-9)

    def test_unwritable_output_exit_2(self, capsys, spec_file, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "matrix.mm"
        code, out = run(capsys, ["gen", "--output", str(target), spec_file])
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["code"] == 2
        assert payload["error"]["message"].startswith(f"cannot write {target}: ")

    def test_omega_beyond_the_double_range_exit_2(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        huge = "1" + "0" * 400
        for omega in (huge, f"[{huge}, 1]", f"[1, {huge}]"):
            path.write_text('{"spectrum": [{"class": "complex", "omega": %s}]}' % omega)
            code, out = run(capsys, ["gen", str(path)])
            assert code == 2
            assert out.count("\n") == 1
            assert "outside the double range" in json.loads(out)["error"]["message"]

    def test_non_finite_omega_exit_2_without_a_warning(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        for omega in ("[1, 1e999]", "[-1e999, 1]", "1e999"):
            kind = "positive-real" if omega == "1e999" else "complex"
            path.write_text('{"spectrum": [{"class": "%s", "omega": %s}]}' % (kind, omega))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["gen", str(path)])
            out, err = capsys.readouterr()
            assert code == 2
            assert "omega must be finite" in json.loads(out)["error"]["message"]
            assert err == ""

    def test_non_number_omega_exit_2(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        for omega in ('["a", 1]', "[null, 1]", '["1", "2"]', "[true, 0]"):
            path.write_text('{"spectrum": [{"class": "complex", "omega": %s}]}' % omega)
            code, out = run(capsys, ["gen", str(path)])
            assert code == 2
            assert out.count("\n") == 1
            assert "omega must be a number or [re, im]" in json.loads(out)["error"]["message"]

    def test_spec_that_is_not_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("spectrum: complex")
        code, out = run(capsys, ["gen", str(path)])
        assert code == 2
        assert json.loads(out) == {
            "error": {"code": 2, "message": "line 1: invalid JSON: Expecting value"}
        }

    def test_bad_spec_exit_2(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"spectrum": [{"class": "complex", "omega": [1, -1]}]}')
        code, out = run(capsys, ["gen", str(path)])
        assert code == 2
        assert json.loads(out)["error"]["code"] == 2


class TestNonFiniteOutput:
    """Overflowed diagnostics are printed as null, so every document parses."""

    def test_apf_overflowed_det(self, capsys, tmp_path):
        hand = np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        path = tmp_path / "big.mm"
        write_matrix(1e77 * np.kron(np.eye(2), hand), path, "mm")
        with np.errstate(all="ignore"):
            code, out = run(capsys, ["apf", str(path)])
        assert code == 0
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["det"] == [None, None]
        assert payload["pfaffian"] == pytest.approx([-1e154, 0])

    def test_pf_overflowed_det_and_cross_check(self, capsys, tmp_path):
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("complex", np.exp(0.3j), 1),
                SpectrumEntry("complex", np.exp(2.8j), 1),
            ),
            seed=1,
        )
        path = tmp_path / "big.mm"
        write_matrix(10**77.125 * random_conjugate_normal(spec), path, "mm")
        with np.errstate(all="ignore"):
            code, out = run(capsys, ["pf", str(path)])
        assert code == 0
        payload = json.loads(out, parse_constant=pytest.fail)
        assert None in payload["det"]
        assert payload["cross_check_residual"] is None
        assert all(np.isfinite(payload["pfaffian"]))


class TestScale:
    """Every tolerance is relative to ||A||: the unit of A changes no decision."""

    @pytest.mark.parametrize("conjugate_normal", [True, False])
    def test_check_residual_is_the_same_at_every_power_of_two(
        self, capsys, tmp_path, conjugate_normal
    ):
        if conjugate_normal:
            matrix = random_conjugate_normal(corpus_spec(10))
        else:
            matrix = np.random.default_rng(3).standard_normal((6, 6))
        outputs = set()
        for j in (-40, -12, 0, 12, 40):
            path = tmp_path / f"m{j}.mm"
            write_matrix(2.0**j * matrix, path, "mm")
            code, out = run(capsys, ["check", str(path)])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())["conjugate_normal"] == conjugate_normal

    @pytest.mark.parametrize("scale", [1e-40, 1e40])
    def test_pf_out_of_range_is_one_error_line(self, capsys, tmp_path, scale):
        # |pf| = scale^8 |pf(A)| leaves the double range: exit 2 and one JSON
        # error line naming the magnitude, never a silent 0 or a null value,
        # and no numpy warning on the way
        path = tmp_path / "scaled.mm"
        write_matrix(scale * random_conjugate_normal(corpus_spec(11)), path, "mm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["pf", str(path)])
        assert code == 2
        assert out.count("\n") == 1
        message = json.loads(out)["error"]["message"]
        assert "outside the double range" in message
        assert ("1e-3" if scale < 1 else "1e3") in message


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # run the console-script target declared in pyproject.toml the way
        # the installed `wignerpf` script runs it, from this checkout's source
        with open(ROOT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["wignerpf"]
        module, func = target.split(":")
        launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
        path = tmp_path / "j.mm"
        path.write_text(MM_J)
        pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "pf", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_PF_J
