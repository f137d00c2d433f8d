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
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, NoReturn

import numpy as np

from . import __version__
from .errors import DomainError, EvaluationError
from .ladder import cosh_ddx_matrix, sinh_matrix
from .oracle import (
    COSH_DDX_OVER_ALPHA,
    DDX,
    POSITION_X,
    SINH_ALPHA_X,
    OracleConfig,
    observable_matrix,
)
from .states import (OperatorMatrix, PotentialSpec, bound_state_labels, energy, integer_q,
                     well_numbers)
from .suites import SUITES

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    """A subparser per ``_TABLE`` command, its options in table order.

    ``main`` reads a well-formed argv without it (``_parse_exact``); this
    parser takes every other argv, and its help, usage and error text are
    the CLI's.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="mptsu2",
        description="Modified Poschl-Teller oscillator: spectra, su(2) ladder "
                    "matrix elements, generator expansions, and coupled-model "
                    "comparison.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in _TABLE.items():
        p = sub.add_parser(name, help=entry.help)
        for flag, keywords in entry.options:
            p.add_argument(flag, **{k: v for k, v in keywords.items()
                                    if k not in ("default", "required")})
    return parser


def _parse_exact(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives an argv of a command name and exact ``--flag value`` pairs.

    Each flag is one of the command's ``_TABLE`` options, spelled out; each
    value passes its option's ``type`` and ``choices`` (``_converted``) and
    does not start with ``-``.  As with argparse, the last of a repeated
    flag wins and an option not given is None.  Any other argv (help,
    abbreviations, ``--flag=value``, leftover tokens, a value that fails)
    is None: it is left to ``build_parser``.
    """
    entry = _TABLE.get(argv[0]) if argv else None
    if entry is None or len(argv) % 2 == 0:
        return None
    options = dict(entry.options)
    args = SimpleNamespace(command=argv[0],
                           **{_dest(flag, keywords): None for flag, keywords in entry.options})
    for flag, text in zip(argv[1::2], argv[2::2]):
        keywords = options.get(flag)
        if keywords is None or text.startswith("-"):
            return None
        try:
            setattr(args, _dest(flag, keywords), _converted(keywords, text))
        except ValueError:
            return None
    return args


def _converted(keywords: dict, text: str) -> Any:
    """``text`` through an option's ``type`` and ``choices``; ValueError where argparse errs."""
    value = keywords.get("type", str)(text)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(text)
    return value


def _dest(flag: str, keywords: dict) -> str:
    return keywords.get("dest", flag[2:].replace("-", "_"))


def _by_name(options: tuple) -> dict[str, tuple[str, dict]]:
    """Options by each name a config key may give them: the flag's and the dest."""
    return {name: (flag, keywords) for flag, keywords in options
            for name in (flag[2:].replace("-", "_"), _dest(flag, keywords))}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill the options not on the command line from a JSON config file, then defaults.

    A key names an option by its flag or dest, with ``-`` or ``_``.  Each
    value goes through its option's ``type`` and ``choices`` as the same
    text on the command line would.  A key that names no option of any
    command, a ``config`` key (a file names no other file), a value that
    fails, or a required option that is still unset is a usage error; a
    key naming only other commands' options is ignored, so that one file
    can serve several commands.
    """
    options = _TABLE[args.command].options
    named = _by_name(options)
    values = _read_config(args.config) if args.config else {}
    for key, value in values.items():
        name = key.replace("-", "_")
        if name == "config":
            raise DomainError(f"config key {key!r} cannot name another config file")
        if name not in named:
            if not any(name in _by_name(c.options) for c in _TABLE.values()):
                raise DomainError(f"config key {key!r} names no option of any command")
            continue
        flag, keywords = named[name]
        dest = _dest(flag, keywords)
        if getattr(args, dest) is not None:
            continue
        try:
            setattr(args, dest, _converted(keywords, str(value)))
        except ValueError:
            raise DomainError(f"config value {key} = {value!r} is not a valid "
                              f"{flag} argument") from None
    for flag, keywords in options:
        if getattr(args, _dest(flag, keywords)) is None:
            setattr(args, _dest(flag, keywords), keywords.get("default"))
    missing = [flag for flag, keywords in options
               if keywords.get("required") and getattr(args, _dest(flag, keywords)) is None]
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
    if args.q is not None and args.D is not None:
        raise DomainError("specify the well by exactly one of --q or --D")
    scales = {"alpha": args.alpha, "mu": args.mu, "hbar": args.hbar}
    if args.q is not None:
        return PotentialSpec.for_integer_q(args.q, **scales)
    if args.D is not None:
        return PotentialSpec(D=args.D, **scales)
    if required:
        raise DomainError("a well must be specified via --q or --D")
    return None


def _resolve_oracle(args: argparse.Namespace) -> OracleConfig:
    if args.oracle_panels is not None and args.oracle_panels < 1:
        raise DomainError("--oracle-panels must be at least 1")
    return OracleConfig(args.oracle_order)


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


def _csv_chunks(rows: Iterable[dict]) -> Iterator[str]:
    """CSV text in ``jsontext.batches`` of rows, the header (the first row's keys) first."""
    import csv
    import io

    from .jsontext import batches

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    columns = None
    for batch in batches(rows):
        if columns is None:
            columns = list(batch[0])
            writer.writerow(columns)
        writer.writerows([_format_cell(row[c]) for c in columns] for row in batch)
        yield buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
    if columns is None:
        writer.writerow([])
        yield buffer.getvalue()


def _emit(command: str, well: dict, rows: Iterable[dict], meta: dict,
          args: argparse.Namespace) -> None:
    """Write the rows as CSV or JSON to --out or stdout.

    Both formats draw the rows in batches of 128 (``jsontext.batches``)
    and write each batch as it is encoded, so neither the document nor,
    when ``rows`` is a generator, more than one batch of rows is held.
    JSON is the text of ``json.dumps(payload, indent=2)`` plus a newline
    (``jsontext.chunks``).
    """
    if args.format == "json":
        from . import jsontext

        chunks = jsontext.chunks(command, well, rows, meta)
    else:
        chunks = _csv_chunks(rows)
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
                 reference: np.ndarray | None = None) -> Iterator[dict]:
    """The entries as rows {row, col, value} (and deviation from ``reference``), on demand.

    One matrix row's floats are converted at a time, so a writer that
    draws them in batches never holds q^2 rows.
    """
    entries = matrix.entries
    deviation = None if reference is None else np.abs(entries - reference)
    for i, line in enumerate(entries):
        if deviation is None:
            for j, v in enumerate(line.tolist()):
                yield {"row": i, "col": j, "value": v}
        else:
            for j, (v, d) in enumerate(zip(line.tolist(), deviation[i].tolist())):
                yield {"row": i, "col": j, "value": v, "deviation": d}


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
        expand = position_matrix_expansion if op == "x" else momentum_matrix_expansion
        matrix = expand(nu, spec.alpha, args.order)
        reference = observable_matrix(spec, observables[op], cfg).entries
        rows = _matrix_rows(matrix, reference)
        meta["expansion_order"] = args.order
        if args.order == 5:
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
        column = {"su2": "su2", "exact": "exact", "crude": "crude", "zA-zB": "zazb"}
        series = [(f"e_{c}", report.eigenvalues[m]) for m, c in column.items()]
        series += [(f"dev_{c}", report.deviations[m]) for m, c in column.items()
                   if m != "exact"]
        rows = [{"index": i, "polyad": p, **{name: v[i] for name, v in series}}
                for i, p in enumerate(report.polyads)]
        meta["max_low_polyad_deviation"] = dict(sorted(report.max_low_polyad_deviation.items()))
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

    if args.omega_e is not None or args.xe_omega_e is not None:
        if args.omega_e is None or args.xe_omega_e is None:
            raise DomainError("both --omega-e and --xe-omega-e are required together")
        if args.q is not None or args.D is not None:
            raise DomainError("specify either a well or spectroscopic constants, not both")
        sp = SpectroParams(args.omega_e, args.xe_omega_e)
        vp = vibron_params_from_spectro(sp, hbar=args.hbar)
        q = vp.N // 2
        if vp.N % 2 != 0:
            sys.stderr.write(
                f"error: boson number {vp.N} is odd; no integer-q well matches\n")
            return EXIT_USAGE
        spec = PotentialSpec.for_integer_q(q, alpha=args.alpha, mu=args.mu, hbar=args.hbar)
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


class _Command(NamedTuple):
    help: str
    options: tuple[tuple[str, dict], ...]
    library: str | None
    handler: Callable[[argparse.Namespace], int]


# Each option is its flag and its ``add_argument`` keywords, except that
# ``default`` and ``required`` apply after the config merge: every option
# parses to None when it is not on the command line, so that a config file
# can supply it.
_COMMON = (
    ("--q", {"type": int, "help": "integer well parameter (dimensionless preset)"}),
    ("--D", {"type": float, "help": "well depth"}),
    ("--alpha", {"type": float, "default": 1.0, "help": "range parameter"}),
    ("--mu", {"type": float, "default": 1.0, "help": "reduced mass"}),
    ("--hbar", {"type": float, "default": 1.0, "help": "action constant"}),
    ("--format", {"choices": ("csv", "json"), "default": "csv",
                  "help": "output format (default csv)"}),
    ("--out", {"help": "output path (default stdout)"}),
    ("--config", {"help": "JSON config file; explicit flags override its values"}),
)
_ORACLE = (
    ("--oracle-order", {"type": int, "help": "node count of the oracle's quadrature rule; "
                        "the default q + 2 is exact, smaller values under-resolve deep "
                        "wells on purpose"}),
    ("--oracle-panels", {"type": int, "help": "accepted (>= 1) and ignored: the oracle's "
                         "rules have no panels; kept only while the benchmark passes it"}),
)
_TABLE = {
    "spectrum": _Command("bound-state energies and labels", _COMMON, None, _cmd_spectrum),
    "matelem": _Command("matrix elements of one operator", _COMMON + _ORACLE + (
        ("--op", {"choices": ("sinh", "coshd", "x", "p"), "required": True,
                  "help": "operator (required)"}),
        ("--method", {"choices": ("closed", "oracle", "expansion"), "required": True,
                      "help": "how the matrix is computed (required)"}),
        ("--order", {"type": int, "default": 1, "help": "expansion order (x: 1/3/5, p: 1/3)"}),
    ), None, _cmd_matelem),
    "verify": _Command("run invariant suites", _COMMON + _ORACLE + (
        ("--suite", {"choices": SUITES, "default": "all", "help": "suite to run (default all)"}),
        ("--nu", {"type": int, "help": "multiplet dimension for the algebra suite"}),
        ("--lambda", {"dest": "lam", "type": float, "default": 0.05,
                      "help": "coupling of the vibron suite's models; moves no row short of "
                      "overflow, each read at lambda = 0 or proven 0 (default 0.05)"}),
    ), "checks", _cmd_verify),
    "vibron": _Command("coupled two-oscillator spectra", _COMMON + _ORACLE + (
        ("--lambda", {"dest": "lam", "type": float, "required": True,
                      "help": "coupling (required)"}),
        ("--model", {"choices": ("su2", "exact", "crude", "zA-zB", "compare"),
                     "required": True, "help": "model to solve, or compare all four (required)"}),
    ), "vibron", _cmd_vibron),
    "params": _Command("well / spectroscopic / algebraic maps", _COMMON + (
        ("--omega-e", {"type": float}),
        ("--xe-omega-e", {"type": float}),
    ), "vibron", _cmd_params),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command's library is imported before its argv is parsed: an argv
    # that ``_parse_exact`` leaves to argparse loads argparse, and without
    # cached bytecode each module is compiled at import, with up to about
    # 1 MB of transient heap; doing that on top of the parser's state raised
    # the peak RSS of verify and vibron processes by 0.2-0.3 MB.  Each
    # handler still imports what it uses; this only orders the compiles.
    entry = _TABLE.get(argv[0]) if argv else None
    if entry and entry.library:
        import_module(f".{entry.library}", __package__)
    args = _parse_exact(argv) or build_parser().parse_args(argv)
    try:
        _apply_config(args)
        return _TABLE[args.command].handler(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (EvaluationError, ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_INTERNAL
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return EXIT_INTERNAL
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory{f': {exc}' if str(exc) else ''}\n")
        return EXIT_INTERNAL


def run() -> NoReturn:
    """End of every entry point: ``python -m mptsu2.cli``, and ``__main__.start``.

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
