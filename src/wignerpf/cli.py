"""Command-line front end.

Subcommands::

    pf          generalized Pfaffian of each input matrix
    apf         antisymmetrized Pfaffian (any square matrix)
    wnf         normal form: blocks, det(U), reconstruction residual
    check       conjugate-normality flag and residual
    identities  full identity battery report
    gen         generate a matrix from a spectrum-prescription JSON

Results are emitted as one JSON document per input line (``gen`` emits the
matrix document itself, or a summary when writing to ``--output``).  Errors
are emitted as ``{"error": {"code": ..., "message": ...}}`` and drive the
exit status: 0 success, 2 parse/input error, 3 not conjugate-normal, 4
Pfaffian undefined, 5 tolerance or spectral-consistency failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys

import numpy as np

from .ensembles import SpectrumSpec, random_conjugate_normal, random_ginibre
from .errors import Error, InputError, ParseError
from .generalized import (
    DEFAULT_IDENTITY_SEED,
    antisymmetrized_pfaffian,
    generalized_pfaffian,
    generalized_pfaffian_via_relation,
    identity_report,
)
from .io import (
    FORMAT_MM,
    FORMATS,
    _read_text,
    complex_pair,
    json_dumps,
    parse_matrix,
    render_matrix,
)
from .linalg import DEFAULT_TOL, Tolerances
from .normal_form import OffDiagBlock, is_conjugate_normal, wigner_normal_form

SEED_ENV = "WIGNERPF_SEED"


#: every option a subcommand may take, by flag
_OPTIONS = {
    "--format": dict(
        choices=FORMATS,
        default=FORMAT_MM,
        help="matrix document format (default: mm, Matrix Market array)",
    ),
    "--tol-eig": dict(
        type=float,
        default=DEFAULT_TOL.eig_residual,
        metavar="X",
        help="relative eigen-residual / conjugate-normality tolerance",
    ),
    "--tol-cluster": dict(
        type=float,
        default=DEFAULT_TOL.cluster,
        metavar="X",
        help="relative resolution of the spectrum of A conj(A), and its zero floor",
    ),
    "--seed": dict(
        type=int,
        help=f"seed for seeded operations (default: ${SEED_ENV} if set)",
    ),
    "--output": dict(metavar="PATH", help="write output to PATH instead of stdout"),
    "--method": dict(
        choices=("normal-form", "relation", "polynomial"),
        default="normal-form",
        help="evaluation route (polynomial is limited to dimension 12)",
    ),
    "--partner": dict(
        metavar="PATH",
        help="symmetric tensor-partner matrix file (default: seeded random 2x2)",
    ),
    "--lam": dict(
        metavar="Z",
        default="0.6+0.8j",
        help="scaling constant, Python complex syntax (default: 0.6+0.8j)",
    ),
}

_TOLERANCES = ("--tol-eig", "--tol-cluster")

#: subcommand -> (help, the options it reads besides --format and --output)
_COMMANDS = {
    "pf": ("generalized Pfaffian", (*_TOLERANCES, "--method")),
    "apf": ("antisymmetrized Pfaffian", ()),
    "wnf": ("normal form A = U Sigma U^T", _TOLERANCES),
    "check": ("conjugate-normality test", ("--tol-eig",)),
    "identities": (
        "algebraic identity battery",
        (*_TOLERANCES, "--seed", "--partner", "--lam"),
    ),
    "gen": ("generate a matrix from a spectrum JSON", ("--seed",)),
}


@functools.cache  # parse_args leaves the parser as it is: build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerpf",
        description="Wigner normal form and generalized Pfaffians of "
        "conjugate-normal matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag in ("--format", *options, "--output"):
            cmd.add_argument(flag, **_OPTIONS[flag])
        if name == "gen":
            cmd.add_argument("spec", help="spectrum-prescription JSON file; '-' reads stdin")
        else:
            cmd.add_argument("inputs", nargs="+", help="matrix file(s); '-' reads stdin")
    return parser


def _effective_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _read_matrix(path: str, fmt: str) -> np.ndarray:
    return parse_matrix(sys.stdin if path == "-" else path, fmt).matrix


def _parse_lam(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise InputError(f"cannot parse --lam {text!r} as a complex number") from None
    if not cmath.isfinite(value):
        raise InputError(f"--lam must be finite, got {text!r}")
    return value


def _pf_payload(result) -> dict:
    d = result.diagnostics
    return {
        "pfaffian": complex_pair(result.value),
        "method": result.method,
        "det": complex_pair(d.det),
        "singular": d.singular,
        "cross_check_residual": d.cross_check_residual,
    }


def _run_single(args, matrix: np.ndarray, tol: Tolerances) -> dict:
    command = args.command
    if command == "pf":
        if args.method == "normal-form":
            result = generalized_pfaffian(matrix, tol)
        elif args.method == "relation":
            result = generalized_pfaffian_via_relation(matrix, tol)
        else:
            result = generalized_pfaffian_via_relation(matrix, tol, engine="polynomial")
        return _pf_payload(result)
    if command == "apf":
        result = antisymmetrized_pfaffian(matrix)
        payload = _pf_payload(result)
        if matrix.shape[0] % 2:
            payload["warning"] = (
                "odd dimension: the antisymmetric part is singular and the "
                "antisymmetrized Pfaffian is 0 by convention"
            )
        return payload
    if command == "wnf":
        nf = wigner_normal_form(matrix, tol)
        blocks = []
        for block in nf.blocks:
            pair = isinstance(block, OffDiagBlock)
            blocks.append(
                {
                    "type": "offdiag" if pair else "real1",
                    "value": complex_pair(block.s) if pair else block.sigma,
                    "multiplicity": block.multiplicity,
                }
            )
        return {
            "det_U": complex_pair(nf.det_u),
            "blocks": blocks,
            "reconstruction_residual": nf.reconstruction_residual,
        }
    if command == "check":
        flag, residual = is_conjugate_normal(matrix, tol)
        return {"conjugate_normal": flag, "residual": residual}
    if command == "identities":
        seed = _effective_seed(args)
        if seed is None:
            seed = DEFAULT_IDENTITY_SEED
        if args.partner is not None:
            partner = _read_matrix(args.partner, args.format)
        else:
            g = random_ginibre(2, seed)
            partner = (g + g.T) / 2.0
        report = identity_report(
            matrix,
            partner,
            _parse_lam(args.lam),
            tol,
            congruence_seed=seed,
        )
        return {
            "passed": report.passed,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in report.checks
            ],
        }


def _error_line(exc: Error) -> str:
    return json_dumps({"error": {"code": exc.exit_code, "message": str(exc)}}) + "\n"


def _write_output(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_gen(args) -> str:
    """Generate the matrix; returns the text destined for stdout."""
    try:
        data = json.loads(_read_text(sys.stdin if args.spec == "-" else args.spec))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    spec = SpectrumSpec.from_json_dict(data)
    seed = _effective_seed(args)
    if seed is not None:
        spec = SpectrumSpec(entries=spec.entries, seed=seed, dim=spec.dim)
    matrix = random_conjugate_normal(spec)
    text = render_matrix(matrix, args.format)
    if args.output:
        _write_output(args.output, text)
        summary = {
            "written": args.output,
            "rows": int(matrix.shape[0]),
            "cols": int(matrix.shape[1]),
            "seed": spec.seed,
            "format": args.format,
        }
        return json_dumps(summary) + "\n"
    return text


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "gen":
        try:
            stdout_text = _cmd_gen(args)
            code = 0
        except Error as exc:
            stdout_text = _error_line(exc)
            code = exc.exit_code
        sys.stdout.write(stdout_text)
        return code

    lines: list[str] = []
    code = 0
    try:
        # a subcommand without a tolerance option never reads its default
        tol = Tolerances(
            eig_residual=getattr(args, "tol_eig", DEFAULT_TOL.eig_residual),
            cluster=getattr(args, "tol_cluster", DEFAULT_TOL.cluster),
        )
        for path in args.inputs:
            matrix = _read_matrix(path, args.format)
            lines.append(json_dumps(_run_single(args, matrix, tol)) + "\n")
    except Error as exc:
        # processing stops at the first failing input; earlier results are kept
        lines.append(_error_line(exc))
        code = exc.exit_code
    text = "".join(lines)
    if args.output:
        try:
            _write_output(args.output, text)
            text = ""
        except InputError as exc:
            text, code = _error_line(exc), exc.exit_code
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
