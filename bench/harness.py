"""Seeded end-to-end benchmark of the wignerpf entry points.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  Set-up builds the inputs (cases) from ``--seed``,
computes an oracle for each, writes files, and runs one checked op on every
case, which also warms up.  Every result is checked against its oracle,
which never calls the library's determinant, normal-form or skew-Pfaffian
code.  A failing op (an exception, a non-zero exit code, or a value outside
the oracle tolerance) is counted, never raised.

The share of cases that pass the set-up pass is the metric ``case_ok_frac``;
it is where a defect that makes whole inputs fail shows (on ``cli-scaled``,
the scales the Pfaffian cannot handle), as a count that does not depend on
how many ops fit in the run.  The timed loop then cycles through the cases
that passed, so its ops fail only if the program stopped being deterministic;
if no case passed, it cycles through all of them and counts their failures.

Other tenants of the machine change its speed by a third within seconds, so
every time metric is a wall time scaled by the speed factor that
:class:`SpeedProbe` measures between ops: milliseconds at the speed where the
probe takes ``PROBE_REFERENCE_S``.  The unscaled figures are printed too.

``--trace 1`` runs the loop twice after set-up, plain and then with every
public function of the package wrapped in a span (see ``spans.py``), and
reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.  Lines before it start with ``#``.
``correct`` is false only if an op returned a result the oracle rejects.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import scipy.linalg

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from wignerpf import cli, ensembles, generalized, normal_form  # noqa: E402
from wignerpf.ensembles import SpectrumEntry, SpectrumSpec  # noqa: E402
from wignerpf.io import write_matrix  # noqa: E402
from wignerpf.normal_form import OffDiagBlock, Real1Block  # noqa: E402

from spans import Tracer  # noqa: E402

OUT_DIR = BENCH_DIR / "out"

#: |omega| is log-uniform in [1/16, 16] and arg(omega) uniform in this range.
LOG_ABS_OMEGA = (math.log(1 / 16), math.log(16))
ARG_OMEGA = (0.1, math.pi - 0.1)

#: Relative error against the oracle above which a returned value is wrong.
ORACLE_RTOL = 1e-8
#: accuracy_digits is capped here (a relative error of 0 reads as 16 digits).
MAX_DIGITS = 16.0
#: Set-up runs this often per process; setup_s reports the median.
SETUP_REPEATS = 3
#: Matrices cycled by the workloads that take a matrix.
CASES = 4
#: op_tail_ms is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Time metrics are scaled to the machine speed at which one speed probe
#: takes this long (about an idle core of the machine they were tuned on).
PROBE_REFERENCE_S = 0.036
#: A probe runs before an op when the latest one is older than this.
PROBE_INTERVAL_S = 0.25

_I_POWER = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True)
class PfRef:
    """Oracle ``pf = i^(n^2) det(U) c^n prod|s_k|`` as (phase, log|pf|)."""

    phase: complex
    log_abs: float

    def rel_err(self, value: complex) -> float:
        if value == 0 or not cmath.isfinite(value):
            return math.inf
        ratio = complex(
            math.log(abs(value)) - self.log_abs,
            cmath.phase(value) - cmath.phase(self.phase),
        )
        return abs(cmath.exp(ratio) - 1.0)


@dataclass(frozen=True)
class Case:
    arg: object  # what the op is called with: a matrix or a file path
    ref: object  # what the check compares against


@dataclass(frozen=True)
class Workload:
    dims: tuple[int, int]  # matrix dimension at full size and tiny size
    build: Callable[[np.random.Generator, int, Path], list[Case]]
    op: Callable[[object], object]
    # (failure key or None, relative error or None) for one op's output
    check: Callable[[Case, object], tuple[str | None, float | None]]


def _omegas(rng: np.random.Generator, count: int) -> np.ndarray:
    log_abs = rng.uniform(*LOG_ABS_OMEGA, count)
    return np.exp(log_abs + 1j * rng.uniform(*ARG_OMEGA, count))


def _distinct_matrix(rng: np.random.Generator, dim: int, scale: float = 1.0):
    """``scale * A`` with dim/2 distinct complex omegas, and its :class:`PfRef`.

    The reference uses the generator's U (``random_conjugate_normal`` is
    ``U Sigma U^T`` with ``U = random_unitary(dim, seed)``) through
    ``numpy.linalg.slogdet`` and the prescribed omegas, so it shares no code
    with the Pfaffian under test.
    """
    omegas = _omegas(rng, dim // 2)
    seed = int(rng.integers(2**31))
    spec = SpectrumSpec(tuple(SpectrumEntry("complex", complex(w)) for w in omegas), seed=seed)
    a = scale * ensembles.random_conjugate_normal(spec)
    sign, log_det = np.linalg.slogdet(ensembles.random_unitary(dim, seed))
    n = dim // 2
    log_abs = log_det + n * math.log(scale) + 0.5 * float(np.sum(np.log(np.abs(omegas))))
    return a, PfRef(_I_POWER[n * n % 4] * complex(sign), log_abs)


def _check_pf(case: Case, value: complex):
    err = case.ref.rel_err(complex(value))
    return (None if err <= ORACLE_RTOL else "wrong value"), err


# -- distinct: generalized_pfaffian on distinct spectra ----------------------


def _build_distinct(rng, dim, workdir):
    cases = []
    for _ in range(CASES):
        a, ref = _distinct_matrix(rng, dim)
        cases.append(Case(a, ref))
    return cases


# -- degenerate: wigner_normal_form with two large real clusters -------------


def _build_degenerate(rng, dim, workdir):
    """One negative-real and one positive-real cluster of 2*(dim//5) each,
    the rest distinct complex pairs (300 -> 120 + 120 + 30 pairs)."""
    mult = 2 * (dim // 5)
    cases = []
    for _ in range(CASES):
        neg, pos = np.exp(rng.uniform(*LOG_ABS_OMEGA, 2))
        omegas = _omegas(rng, (dim - 2 * mult) // 2)
        entries = (
            SpectrumEntry("negative-real", -neg, mult),
            SpectrumEntry("positive-real", pos, mult),
        ) + tuple(SpectrumEntry("complex", complex(w)) for w in omegas)
        a = ensembles.random_conjugate_normal(
            SpectrumSpec(entries, seed=int(rng.integers(2**31)))
        )
        pairs = [(1j * math.sqrt(neg), mult // 2)] + [(complex(np.sqrt(w)), 1) for w in omegas]
        cases.append(Case(a, (sorted(pairs, key=_pair_order), [(math.sqrt(pos), mult)])))
    return cases


def _pair_order(pair):
    return (-abs(pair[0]), cmath.phase(pair[0]))


def _check_normal_form(case: Case, nf):
    """Blocks as prescribed; U unitary and U Sigma U^T = A, recomputed here."""
    want_pairs, want_reals = case.ref
    pairs = [(complex(b.s), b.multiplicity) for b in nf.blocks if isinstance(b, OffDiagBlock)]
    reals = [(float(b.sigma), b.multiplicity) for b in nf.blocks if isinstance(b, Real1Block)]
    if len(pairs) != len(want_pairs) or len(reals) != len(want_reals):
        return "wrong value", None
    got = sorted(pairs, key=_pair_order) + reals
    want = want_pairs + want_reals
    if [k for _, k in got] != [k for _, k in want]:
        return "wrong value", None
    delta = np.abs(np.array([g for g, _ in got]) - np.array([w for w, _ in want]))
    magnitude = np.abs(np.array([w for w, _ in want]))
    block_err = float(np.max(delta / magnitude))

    # Sigma in the documented collected layout: s_j at (j, p + j), then sigmas
    p = sum(k for _, k in pairs)
    svals = [s for s, k in pairs for _ in range(k)]
    sigmas = [x for x, k in reals for _ in range(k)]
    dim = 2 * p + len(sigmas)
    u = np.asarray(nf.u)
    if u.shape != (dim, dim):
        return "wrong value", None
    sigma = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(p)
    sigma[idx, p + idx] = svals
    sigma[p + idx, idx] = np.conj(svals)
    sigma[2 * p + np.arange(len(sigmas)), 2 * p + np.arange(len(sigmas))] = sigmas
    a = case.arg
    recon = float(np.linalg.norm(a - u @ sigma @ u.T) / np.linalg.norm(a))
    unitarity = float(np.linalg.norm(u.conj().T @ u - np.eye(dim)))
    # The error against the oracle is that of the block values, normwise:
    # each value is held to ORACLE_RTOL of itself, but a small s carries the
    # absolute error of the largest.  U has no oracle (it is unique only up to
    # the blocks' symmetry), so it is checked, not scored.
    err = float(np.max(delta)) / float(np.max(magnitude))
    ok = block_err <= ORACLE_RTOL and recon <= 1e-9 and unitarity <= 1e-10 * math.sqrt(dim)
    return (None if ok else "wrong value"), err


# -- identities: the identity battery ----------------------------------------

IDENTITY_ROWS = 10


def _build_identities(rng, dim, workdir):
    cases = []
    for _ in range(CASES):
        a, ref = _distinct_matrix(rng, dim)
        # identity_report does not return pf(A); check it against the oracle
        # here, so the battery's rows are anchored to an independent value
        err = ref.rel_err(generalized.generalized_pfaffian(a).value)
        if not err <= ORACLE_RTOL:
            raise RuntimeError(f"identities input: pf off the oracle by {err:.3e}")
        cases.append(Case(a, ref))
    return cases


def _check_identities(case: Case, report):
    err = max(c.residual for c in report.checks)
    ok = report.passed and len(report.checks) == IDENTITY_ROWS
    return (None if ok else "wrong value"), err


# -- cli-scaled: `wignerpf pf FILE` on files scaled across 16 decades ---------


def _build_cli_scaled(rng, dim, workdir):
    """One Matrix Market file per case, ``c * A`` with ``c = 10^u``.

    u runs over an even grid on [-8, 8] and only the matrices come from the
    seed, so every seed covers the whole scale range alike and the share of
    failing files does not swing with the seed.
    """
    count = 40 if dim > 8 else 8
    cases = []
    for k in range(count):
        scale = 10.0 ** (-8.0 + 16.0 * (k + 0.5) / count)
        a, ref = _distinct_matrix(rng, dim, scale)
        path = workdir / f"m{k:03d}.mm"
        write_matrix(a, str(path), "mm")
        cases.append(Case(str(path), ref))
    return cases


def _cli_pf(path: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["pf", path])
    return code, out.getvalue()


def _check_cli(case: Case, output):
    code, text = output
    if code != 0:
        return f"exit {code}", None
    try:
        re_part, im_part = json.loads(text)["pfaffian"]
    except (ValueError, KeyError, TypeError):
        # e.g. a non-finite diagnostic printed as a bare `inf`; a caller
        # cannot read such a document, so the op failed
        return "exit 0, unreadable output", None
    return _check_pf(case, complex(re_part, im_part))


WORKLOADS = {
    "distinct": Workload(
        (300, 12),
        _build_distinct,
        lambda a: generalized.generalized_pfaffian(a),
        lambda case, result: _check_pf(case, result.value),
    ),
    "degenerate": Workload(
        (300, 20),
        _build_degenerate,
        lambda a: normal_form.wigner_normal_form(a),
        _check_normal_form,
    ),
    "identities": Workload(
        (100, 8),
        _build_identities,
        lambda a: generalized.identity_report(a),
        _check_identities,
    ),
    "cli-scaled": Workload((80, 8), _build_cli_scaled, _cli_pf, _check_cli),
}


# -- running -------------------------------------------------------------------


class SpeedProbe:
    """Fixed work whose time tracks machine speed: a BLAS-3 product, a LAPACK
    Schur form, an interpreter loop and rank-2 updates of shrinking blocks.

    Other tenants of the machine change its speed by a third within seconds,
    which no run length averages out.  Every op's wall time is therefore
    multiplied by ``PROBE_REFERENCE_S / t``, with t the median of the last
    three probe times; the probe runs between ops, never inside one.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._product = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        self._schur = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        self._update = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
        self._vector = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        self._times: list[float] = []
        self._last = -math.inf
        for _ in range(3):
            self.run()

    def run(self) -> float:
        """Run the probe once; returns the speed factor it implies."""
        start = time.perf_counter()
        for _ in range(3):
            self._product @ self._product
        scipy.linalg.schur(self._schur, output="complex")
        total = 0
        for i in range(100_000):
            total += i * i
        block, v = self._update.copy(), self._vector
        for i in range(0, 300, 6):
            w = block[i:, i:] @ v[i:].conj()
            block[i:, i:] += np.outer(v[i:], w) - np.outer(w, v[i:])
        self._last = time.perf_counter()
        self._times = self._times[-2:] + [self._last - start]
        return self.factor

    @property
    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self._times)

    def factor_now(self) -> float:
        """The speed factor, probing again first if the latest probe is stale."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.run()
        return self.factor


@dataclass
class Tally:
    seconds: list[float] = field(default_factory=list)  # wall time per op
    factors: list[float] = field(default_factory=list)  # speed factor per op
    failures: Counter = field(default_factory=Counter)
    errors: list[float] = field(default_factory=list)  # of correct ops
    wrong: int = 0

    @property
    def ok(self) -> int:
        return len(self.seconds) - sum(self.failures.values())

    @property
    def scaled(self) -> list[float]:
        return [s * f for s, f in zip(self.seconds, self.factors)]


def _attempt(workload: Workload, case: Case):
    """One op: (seconds, failure key or None, relative error or None)."""
    start = time.perf_counter()
    try:
        output = workload.op(case.arg)
    except Exception as exc:  # a failing op is counted, never raised
        return time.perf_counter() - start, type(exc).__name__, None
    elapsed = time.perf_counter() - start
    return (elapsed, *workload.check(case, output))


def run_loop(
    workload: Workload, cases: list[Case], seconds: float, probe: SpeedProbe, tracer=None
) -> Tally:
    """Closed loop, one client, cycling through ``cases`` for ``seconds``."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while True:
        index = len(tally.seconds)
        tally.factors.append(probe.factor_now())
        if tracer is not None:
            tracer.op = index
        elapsed, key, err = _attempt(workload, cases[index % len(cases)])
        tally.seconds.append(elapsed)
        if key is None:
            tally.errors.append(err)
        else:
            tally.failures[key] += 1
            tally.wrong += key == "wrong value"
        if time.perf_counter() >= deadline:
            return tally


def set_up(workload: Workload, seed: int, tiny: bool, workdir: Path):
    """Build inputs and oracles, write files, and run one op on every case.

    Returns the cases and the failure key (None if it passed) of each.  The
    pass also pays the first-call costs (library loading, first LU at a
    size), which are several times a steady op, before anything is timed.
    """
    dim = workload.dims[1] if tiny else workload.dims[0]
    cases = workload.build(np.random.default_rng(seed), dim, workdir)
    return cases, [_attempt(workload, case)[1] for case in cases]


def case_pass(workload: Workload, cases: list[Case], tracer: Tracer):
    """One traced op on every case, the set-up pass again: per-layer errors
    are counted here, where the failing cases are still run."""
    for index, case in enumerate(cases):
        tracer.op = index
        _attempt(workload, case)


def _tail(seconds: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the op_tail_ms definition."""
    ordered = sorted(seconds)
    index = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def end_to_end(tally: Tally, setup_s: float, case_ok_frac: float) -> dict[str, float]:
    digits = [
        min(MAX_DIGITS, -math.log10(e)) if e > 0 else MAX_DIGITS for e in tally.errors
    ]
    scaled = tally.scaled
    return {
        "setup_s": setup_s,
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": 1e3 * _tail(scaled)[0],
        "goodput_ops_s": tally.ok / sum(scaled),
        "case_ok_frac": case_ok_frac,
        "accuracy_digits": min(digits) if digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, traced: Tally, plain: Tally, cases: Tracer, count: int):
    """Calls and self time per timed op; errors per case of the traced
    ``cases`` pass over all ``count`` cases."""
    ops = len(traced.seconds)
    values = {}
    total_self = 0.0
    for name, (calls, self_s, _) in tracer.totals(traced.factors).items():
        values[f"{name}.calls"] = calls / ops
        values[f"{name}.self_ms"] = 1e3 * self_s / ops
        total_self += self_s
    for name, (_, _, errors) in cases.totals([1.0] * count).items():
        values[f"{name}.errors"] = errors / count
    values["trace.overhead_frac"] = (
        statistics.median(traced.scaled) / statistics.median(plain.scaled) - 1.0
    )
    values["trace.coverage_frac"] = total_self / sum(traced.scaled)
    return values


def _blas_threads() -> dict[str, int]:
    """Threads each OpenBLAS bundled with numpy or scipy says it will use."""
    found = {}
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    found[lib.name] = int(getter())
                    break
    return found


def _environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')} "
        f"blas_threads={_blas_threads()} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} "
        f"nproc={len(os.sched_getaffinity(0))}"
    )


def _metrics_json(values: dict[str, float], specs: list[dict], default=None) -> dict:
    """Metric objects for ``specs``; a name missing from ``values`` reads
    ``default`` (a function that was never called has 0 calls), or raises."""
    return {
        m["name"]: {
            "value": values[m["name"]] if default is None else values.get(m["name"], default),
            "unit": m["unit"],
        }
        for m in specs
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False, import_s: float = 0.0
) -> dict:
    """Run one workload; print ``#`` lines and return the result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
          "loop=closed clients=1")
    print(f"# env: {_environment()}")
    try:
        probe = SpeedProbe()
        import_s *= probe.factor
        setups = []
        for _ in range(SETUP_REPEATS):
            before = probe.run()
            start = time.perf_counter()
            cases, keys = set_up(workload, seed, tiny, workdir)
            elapsed = time.perf_counter() - start
            setups.append(elapsed * (before + probe.run()) / 2)
        setup_s = import_s + statistics.median(setups)
        print(f"# set-up: import {import_s:.3f} s + median of set-ups "
              f"{[round(s, 3) for s in setups]} ({len(cases)} cases), speed-scaled")
        case_failures = Counter(key for key in keys if key is not None)
        failed_cases = sum(case_failures.values())
        breakdown = ", ".join(f"{k}: {v}" for k, v in case_failures.most_common()) or "none"
        print(f"# set-up pass: failed_frac = {failed_cases / len(cases):.4f} "
              f"({failed_cases} of {len(cases)} cases); by class: {breakdown}")
        passed = [case for case, key in zip(cases, keys) if key is None] or cases
        if trace:
            with Tracer() as pass_tracer:
                case_pass(workload, cases, pass_tracer)
            plain = run_loop(workload, passed, seconds / 2, probe)
            with Tracer() as tracer:
                tally = run_loop(workload, passed, seconds / 2, probe, tracer)
            tracer.write(OUT_DIR / f"spans-{name}.jsonl")
            values = per_layer(tracer, tally, plain, pass_tracer, len(cases))
            metrics = _metrics_json(values, spec["per_layer"], 0.0)
            others = ", ".join(
                f"{key}={value:.4g}"
                for key, value in sorted(values.items())
                if value and key not in metrics
            )
            print(f"# per op, other wrapped functions: {others or 'none'}")
        else:
            tally = run_loop(workload, passed, seconds, probe)
            values = end_to_end(tally, setup_s, 1.0 - failed_cases / len(cases))
            metrics = _metrics_json(values, spec["end_to_end"])
            wall_tail, percentile, beyond = _tail(tally.seconds)
            print(f"# op_tail_ms is p{percentile:.1f} of {len(tally.seconds)} ops "
                  f"({beyond} beyond it)")
            print(f"# unscaled: op_p50_ms = {1e3 * statistics.median(tally.seconds):.6g}, "
                  f"op_tail_ms = {1e3 * wall_tail:.6g}; speed factor median "
                  f"{statistics.median(tally.factors):.4f}, "
                  f"range {min(tally.factors):.4f}-{max(tally.factors):.4f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(tally.seconds)
    failed = attempted - tally.ok
    breakdown = ", ".join(f"{k}: {v}" for k, v in tally.failures.most_common()) or "none"
    print(f"# timed ops: failed_frac = {failed / attempted:.4f} ({failed} of {attempted}); "
          f"by class: {breakdown}")
    for key, metric in metrics.items():
        print(f"# {key} = {metric['value']:.6g} {metric['unit']}")
    correct = tally.wrong == 0 and case_failures["wrong value"] == 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _run_all(args) -> int:
    """Every workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv, import_s: float = 0.0) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # ops on overflowing scales make numpy warn on every call; those ops are
    # counted as failures by their exit code instead
    warnings.filterwarnings("ignore", category=RuntimeWarning, module="numpy")
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          import_s=import_s)
    print(json.dumps(result))
    return 0
