"""Command-line interface: spectra, matrix elements, verification, models.

All output is machine-readable (CSV or JSON), fully deterministic, and uses
17 significant digits so floats round-trip exactly.  Exit codes: 0 success,
1 verification failure, 2 usage or domain error, 3 internal numerical or
i/o failure.
"""

from __future__ import annotations

import math
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Any, NoReturn

import numpy as np

from . import __version__
from .errors import DomainError, EvaluationError
from .ladder import OperatorMatrix, cosh_ddx_matrix, sinh_matrix
from .oracle import (
    COSH_DDX_OVER_ALPHA,
    DDX,
    POSITION_X,
    SINH_ALPHA_X,
    OracleConfig,
    observable_matrix,
)
from .states import PotentialSpec, bound_state_labels, energy, integer_q, well_numbers
from .suites import SUITES

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _add_well_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=int, default=None,
                        help="integer well parameter (dimensionless preset)")
    parser.add_argument("--D", type=float, default=None, help="well depth")
    parser.add_argument("--alpha", type=float, default=None, help="range parameter")
    parser.add_argument("--mu", type=float, default=None, help="reduced mass")
    parser.add_argument("--hbar", type=float, default=None, help="action constant")


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--config", default=None,
                        help="JSON config file; explicit flags override its values")


def _add_oracle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--oracle-order", type=int, default=None,
                        help="node count of the oracle's quadrature rule; the "
                             "default q + 2 is exact, smaller values "
                             "under-resolve deep wells on purpose")
    parser.add_argument("--oracle-panels", type=int, default=None,
                        help="accepted (>= 1) and ignored: the oracle's rules "
                             "have no panels; kept only while the benchmark "
                             "passes it")


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="mptsu2",
        description="Modified Poschl-Teller oscillator: spectra, su(2) ladder "
                    "matrix elements, generator expansions, and coupled-model "
                    "comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="bound-state energies and labels")
    _add_well_arguments(p_spec)
    _add_output_arguments(p_spec)

    p_mat = sub.add_parser("matelem", help="matrix elements of one operator")
    _add_well_arguments(p_mat)
    _add_output_arguments(p_mat)
    _add_oracle_arguments(p_mat)
    p_mat.add_argument("--op", choices=("sinh", "coshd", "x", "p"),
                       help="operator (required)")
    p_mat.add_argument("--method", choices=("closed", "oracle", "expansion"),
                       help="how the matrix is computed (required)")
    p_mat.add_argument("--order", type=int, default=None,
                       help="expansion order (x: 1/3/5, p: 1/3)")

    p_ver = sub.add_parser("verify", help="run invariant suites")
    _add_well_arguments(p_ver)
    _add_output_arguments(p_ver)
    _add_oracle_arguments(p_ver)
    p_ver.add_argument("--suite", choices=SUITES, help="suite to run (default all)")
    p_ver.add_argument("--nu", type=int, default=None,
                       help="multiplet dimension for the algebra suite")
    p_ver.add_argument("--lambda", dest="lam", type=float,
                       help="coupling used by the vibron suite (default 0.05)")

    p_vib = sub.add_parser("vibron", help="coupled two-oscillator spectra")
    _add_well_arguments(p_vib)
    _add_output_arguments(p_vib)
    _add_oracle_arguments(p_vib)
    p_vib.add_argument("--lambda", dest="lam", type=float, help="coupling (required)")
    p_vib.add_argument("--model",
                       choices=("su2", "exact", "crude", "zA-zB", "compare"),
                       help="model to solve, or compare all four (required)")

    p_par = sub.add_parser("params", help="well / spectroscopic / algebraic maps")
    _add_well_arguments(p_par)
    _add_output_arguments(p_par)
    p_par.add_argument("--omega-e", dest="omega_e", type=float, default=None)
    p_par.add_argument("--xe-omega-e", dest="xe_omega_e", type=float, default=None)

    return parser


# Every option parses to None when it is not on the command line, so that a
# config file can supply it; these defaults and requirements apply after the
# config file is merged.
_DEFAULTS = {"verify": {"suite": "all", "lam": 0.05}}
_REQUIRED = {"matelem": ("op", "method"), "vibron": ("lam", "model")}


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill the options not on the command line from a JSON config file, then defaults.

    Each config value goes through its option's ``type`` and ``choices`` as
    the same text on the command line would; a value that fails, or a
    required option that is still unset, is a usage error.
    """
    path = getattr(args, "config", None)
    values = _read_config(path) if path else {}
    command = next(a for a in parser._actions if a.dest == "command")
    actions = {a.dest: a for a in command.choices[args.command]._actions
               if hasattr(args, a.dest)}
    for key, value in values.items():
        attr = key.replace("-", "_")
        if attr == "lambda":
            attr = "lam"
        action = actions.get(attr)
        if action is None or getattr(args, attr) is not None:
            continue
        try:
            converted = action.type(str(value)) if action.type else str(value)
            if action.choices is not None and converted not in action.choices:
                raise ValueError
        except ValueError:
            raise DomainError(f"config value {key} = {value!r} is not a valid "
                              f"{action.option_strings[0]} argument") from None
        setattr(args, attr, converted)
    for attr, value in _DEFAULTS.get(args.command, {}).items():
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    missing = [actions[a].option_strings[0] for a in _REQUIRED.get(args.command, ())
               if getattr(args, a) is None]
    if missing:
        raise DomainError(f"the following arguments are required: {', '.join(missing)}")


def _read_config(path: str) -> dict:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise DomainError("config file must hold a JSON object")
    return values


def _resolve_spec(args: argparse.Namespace, required: bool = True) -> PotentialSpec | None:
    q = getattr(args, "q", None)
    depth = getattr(args, "D", None)
    if q is not None and depth is not None:
        raise DomainError("specify the well by exactly one of --q or --D")
    alpha = args.alpha if args.alpha is not None else 1.0
    mu = args.mu if args.mu is not None else 1.0
    hbar = args.hbar if args.hbar is not None else 1.0
    if q is not None:
        return PotentialSpec.for_integer_q(q, alpha=alpha, mu=mu, hbar=hbar)
    if depth is not None:
        return PotentialSpec(D=depth, alpha=alpha, mu=mu, hbar=hbar)
    if required:
        raise DomainError("a well must be specified via --q or --D")
    return None


def _resolve_oracle(args: argparse.Namespace) -> OracleConfig:
    panels = getattr(args, "oracle_panels", None)
    if panels is not None and panels < 1:
        raise DomainError("--oracle-panels must be at least 1")
    return OracleConfig(getattr(args, "oracle_order", None))


def _resolve_lambda(args: argparse.Namespace) -> float:
    if not math.isfinite(args.lam):
        raise DomainError(f"--lambda must be finite, got {args.lam}")
    return args.lam


def _well_summary(spec: PotentialSpec | None) -> dict[str, float]:
    if spec is None:
        return {}
    wn = well_numbers(spec)
    return {
        "D": spec.D, "alpha": spec.alpha, "mu": spec.mu, "hbar": spec.hbar,
        "q": wn.q, "nu": wn.nu, "n_max": wn.n_max,
    }


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(command: str, well: dict, rows: list[dict], meta: dict,
          args: argparse.Namespace) -> None:
    """Write the rows as CSV or JSON to --out or stdout.

    JSON is the text of ``json.dumps(payload, indent=2)`` plus a newline,
    written by ``jsontext.chunks`` in batches of rows, so the whole document
    is never held as one string.
    """
    fmt = args.format if args.format is not None else "csv"
    if fmt == "json":
        from . import jsontext  # only JSON runs compile the writer

        chunks = jsontext.chunks(command, well, rows, meta)
    else:
        import csv
        import io

        columns = list(rows[0].keys()) if rows else []
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
        chunks = [buffer.getvalue()]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # so that a failed write raises here, inside main


def _meta(**tolerances: float) -> dict:
    return {"tolerances": tolerances, "versions": {"mptsu2": __version__}}


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    labels = bound_state_labels(spec)
    if not labels:
        sys.stderr.write("error: the well supports no bound states\n")
        return EXIT_USAGE
    rows = [
        {"n": lab.n, "epsilon": lab.epsilon, "m": lab.m,
         "energy": energy(spec, lab.n)}
        for lab in labels
    ]
    _emit("spectrum", _well_summary(spec), rows, _meta(), args)
    return EXIT_OK


def _matrix_rows(matrix: OperatorMatrix,
                 reference: np.ndarray | None = None) -> list[dict]:
    rows = [{"row": i, "col": j, "value": v}
            for i, line in enumerate(matrix.entries.tolist()) for j, v in enumerate(line)]
    if reference is not None:
        for row, d in zip(rows, np.abs(matrix.entries - reference).ravel().tolist()):
            row["deviation"] = d
    return rows


def _cmd_matelem(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    cfg = _resolve_oracle(args)
    op, method = args.op, args.method
    if method == "closed" and op not in ("sinh", "coshd"):
        sys.stderr.write("error: closed forms exist only for sinh and coshd\n")
        return EXIT_USAGE
    if method == "expansion" and op not in ("x", "p"):
        sys.stderr.write("error: expansions exist only for x and p\n")
        return EXIT_USAGE
    meta = _meta()
    if op == "p":
        meta["momentum_convention"] = "matrix is R; momentum = -i hbar R"
    observables = {"sinh": SINH_ALPHA_X, "coshd": COSH_DDX_OVER_ALPHA,
                   "x": POSITION_X, "p": DDX}
    if method == "closed":
        nu = 2 * integer_q(spec, "the closed-form matrix") + 1
        matrix = sinh_matrix(nu) if op == "sinh" else cosh_ddx_matrix(nu)
        rows = _matrix_rows(matrix)
    elif method == "oracle":
        rows = _matrix_rows(observable_matrix(spec, observables[op], cfg))
    else:
        from .expansion import momentum_matrix_expansion, position_matrix_expansion

        nu = 2 * integer_q(spec, "the series expansion") + 1
        order = args.order if args.order is not None else 1
        if op == "x":
            matrix = position_matrix_expansion(nu, spec.alpha, order)
        else:
            matrix = momentum_matrix_expansion(nu, spec.alpha, order)
        reference = observable_matrix(spec, observables[op], cfg).entries
        rows = _matrix_rows(matrix, reference)
        meta["expansion_order"] = order
        if order == 5:
            meta["note"] = ("order 5 extrapolates the series one term past the "
                            "validated truncation")
    _emit("matelem", _well_summary(spec), rows, meta, args)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .checks import suite_for

    spec = _resolve_spec(args, required=False)
    cfg = _resolve_oracle(args)
    results = suite_for(args.suite, spec, args.nu, lam=_resolve_lambda(args), cfg=cfg)
    rows = [
        {"check": r.name, "measured": r.measured, "tolerance": r.tolerance,
         "status": "pass" if r.passed else "fail"}
        for r in results
    ]
    _emit("verify", _well_summary(spec), rows,
          _meta(), args)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def _cmd_vibron(args: argparse.Namespace) -> int:
    """Spectrum of one coupled model, or the four-model comparison.

    Both paths solve the models from their factor form
    (``vibron.coupled_model``), so neither forms a d x d float array.
    """
    from .vibron import compare_models, coupled_model, spectrum

    spec = _resolve_spec(args)
    cfg = _resolve_oracle(args)
    lam = _resolve_lambda(args)
    meta = _meta()
    if args.model == "compare":
        report = compare_models(spec, lam, cfg)
        rows = []
        for i in range(report.dim):
            rows.append({
                "index": i,
                "polyad": report.polyads[i],
                "e_su2": report.eigenvalues["su2"][i],
                "e_exact": report.eigenvalues["exact"][i],
                "e_crude": report.eigenvalues["crude"][i],
                "e_zazb": report.eigenvalues["zA-zB"][i],
                "dev_su2": report.deviations["su2"][i],
                "dev_crude": report.deviations["crude"][i],
                "dev_zazb": report.deviations["zA-zB"][i],
            })
        meta["max_low_polyad_deviation"] = {
            k: report.max_low_polyad_deviation[k] for k in sorted(
                report.max_low_polyad_deviation)}
    else:
        model = coupled_model(spec, args.model, lam, cfg)
        rows = [{"index": i, "eigenvalue": v} for i, v in enumerate(spectrum(model))]
        meta["model"] = args.model
        meta["lambda"] = lam
        meta["basis_polyads"] = list(model.basis.polyads)
    _emit("vibron", _well_summary(spec), rows, meta, args)
    return EXIT_OK


def _cmd_params(args: argparse.Namespace) -> int:
    from .vibron import SpectroParams, spectro_from_potential, vibron_params_from_spectro

    from_spectro = args.omega_e is not None or args.xe_omega_e is not None
    if from_spectro:
        if args.omega_e is None or args.xe_omega_e is None:
            raise DomainError("both --omega-e and --xe-omega-e are required together")
        if getattr(args, "q", None) is not None or getattr(args, "D", None) is not None:
            raise DomainError("specify either a well or spectroscopic constants, not both")
        sp = SpectroParams(args.omega_e, args.xe_omega_e)
        hbar = args.hbar if args.hbar is not None else 1.0
        vp = vibron_params_from_spectro(sp, hbar=hbar)
        q = vp.N // 2
        if vp.N % 2 != 0:
            sys.stderr.write(
                f"error: boson number {vp.N} is odd; no integer-q well matches\n")
            return EXIT_USAGE
        alpha = args.alpha if args.alpha is not None else 1.0
        mu = args.mu if args.mu is not None else 1.0
        spec = PotentialSpec.for_integer_q(q, alpha=alpha, mu=mu, hbar=hbar)
    else:
        spec = _resolve_spec(args)
        sp = spectro_from_potential(spec)
        vp = vibron_params_from_spectro(sp, hbar=spec.hbar)
    wn = well_numbers(spec)
    rows = [{
        "D": spec.D, "alpha": spec.alpha, "mu": spec.mu, "hbar": spec.hbar,
        "omega_e": sp.omega_e, "xe_omega_e": sp.xe_omega_e,
        "N": vp.N, "hbar_omega0": vp.energy_quantum,
        "q": wn.q, "nu": wn.nu,
    }]
    _emit("params", _well_summary(spec), rows, _meta(), args)
    return EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "matelem": _cmd_matelem,
    "verify": _cmd_verify,
    "vibron": _cmd_vibron,
    "params": _cmd_params,
}


# The library module a command needs beyond those imported above.  ``main``
# imports it before argparse: without cached bytecode each module is compiled
# at import, with up to about 1 MB of transient heap, and doing that on top
# of the parser's state raised the peak RSS of verify and vibron processes by
# 0.2-0.3 MB.  Each handler still imports what it uses; this only orders the
# compiles.
_LIBRARIES = {"verify": "checks", "vibron": "vibron", "params": "vibron"}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _LIBRARIES:
        import_module(f".{_LIBRARIES[argv[0]]}", __package__)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(parser, args)
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (EvaluationError, ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_INTERNAL
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return EXIT_INTERNAL


def run() -> NoReturn:
    """Entry point of ``mptsu2``, ``python -m mptsu2`` and ``python -m mptsu2.cli``.

    Runs :func:`main`, flushes stderr (``_emit`` flushed stdout) and ends the
    process with ``os._exit``, skipping 20-30 ms of interpreter teardown, so
    ``atexit`` handlers do not run (the package registers none).  SystemExit
    (``--help``, usage errors), KeyboardInterrupt and uncaught exceptions
    propagate and take Python's normal exit.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
