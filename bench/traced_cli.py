"""Run one ``mptsu2`` CLI command with a span around every public function call.

Usage::

    python3 bench/traced_cli.py SPANS_OUT CMD_ID -- <mptsu2 arguments>

Every public function of the package's modules (plus ``numpy.linalg.eigh``
and ``eigvalsh``) is wrapped at every module that bound it by name, so calls
between modules and within a module are both seen.  Spans are kept in memory
and written to SPANS_OUT as JSON when the command ends; the exit code is the
CLI's own.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

from spans import IMPORT_SPAN

# numpy is imported only after the timed import of the CLI, which pays for it.
np = None

MODULES = ("specfun", "states", "ladder", "oracle", "expansion", "vibron",
           "checks", "cli")
NUMPY_EIGENSOLVERS = ("eigh", "eigvalsh")


def _points(args: tuple, kwargs: dict) -> int:
    return int(np.size(args[2] if len(args) > 2 else kwargs["x"]))


def _nodes(args: tuple, kwargs: dict) -> int:
    rule = args[3] if len(args) > 3 else kwargs["rule"]
    return len(rule.nodes) * int(args[4] if len(args) > 4 else kwargs.get("panels", 1))


def _order(args: tuple, kwargs: dict) -> int:
    return int(np.shape(args[0] if args else kwargs["a"])[0])


# Work count recorded with each call: points evaluated, quadrature nodes,
# or matrix order.
SIZE_OF = {
    "states.wavefunction": _points,
    "states.wavefunction_derivative": _points,
    "specfun.integrate": _nodes,
    "vibron.jacobi_eigh": _order,
    "numpy.linalg.eigh": _order,
    "numpy.linalg.eigvalsh": _order,
}


class Recorder:
    """In-memory span list: [sid, name, start, end, parent, cmd, size]."""

    def __init__(self, cmd: int) -> None:
        self.cmd = cmd
        self.records: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        records, stack, cmd = self.records, self.stack, self.cmd
        size_of = SIZE_OF.get(name)

        def size(args, kwargs) -> int:
            try:
                return size_of(args, kwargs)
            except (IndexError, KeyError, AttributeError, TypeError, ValueError):
                return 0

        def traced(*args, **kwargs):
            sid = len(records)
            rec = [sid, name, 0.0, 0.0, stack[-1] if stack else -1, cmd,
                   size(args, kwargs) if size_of else 0]
            records.append(rec)
            stack.append(sid)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def install(recorder: Recorder) -> None:
    """Wrap the public functions and rebind every by-name reference to them."""
    global np
    import numpy as np

    wrapped: dict[int, tuple] = {}
    for short in MODULES:
        mod = sys.modules.get(f"mptsu2.{short}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = (obj, recorder.wrap(f"{short}.{attr}", obj))
    for attr in NUMPY_EIGENSOLVERS:
        obj = getattr(np.linalg, attr, None)
        if callable(obj):
            wrapped[id(obj)] = (obj, recorder.wrap(f"numpy.linalg.{attr}", obj))
    namespaces = [m for n, m in sys.modules.items()
                  if n == "mptsu2" or n.startswith("mptsu2.")] + [np.linalg]
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    out_path, cmd, cli_args = argv[0], int(argv[1]), argv[3:]
    recorder = Recorder(cmd)
    start = perf_counter()
    import mptsu2.cli
    recorder.records.append([0, IMPORT_SPAN, start, perf_counter(), -1, cmd, 0])
    install(recorder)
    try:
        return mptsu2.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.records, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
