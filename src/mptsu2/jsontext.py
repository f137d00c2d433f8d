"""The text of ``json.dumps(payload, indent=2)`` for a CLI payload, in chunks.

An indent turns json's C encoder off, and its pure-Python encoder took
about 20 ms for the 2601 rows of a q = 50 matrix.  Here each row whose keys
are str and whose values are float, int, bool, None or str fills a template
made once per key tuple, and the payload around the rows (command, well and
meta) is written by ``_dumps``.  Plain strings (printable ASCII without
``"`` or ``\\``) are written here too; any other string, row or value is
handed to json's encoder, which is imported only then, so a payload of
plain strings, numbers, lists and str-keyed dicts loads no ``json``.  The
text is the same byte for byte.  Rows are drawn from any iterable
``_BATCH`` at a time (``batches``, which the CSV writer uses too), so a
generator's rows are formed one batch at a time.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Any, Iterable, Iterator

__all__ = ["batches", "chunks"]


def _text(text: str) -> str:
    """A str as json writes it with ``ensure_ascii``."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# How json.dumps writes a value of exactly these types.
_SCALARS = {
    float: _float,
    int: int.__repr__,
    str: _text,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}

# Rows per chunk.
_BATCH = 128


def _dumps(value: Any, indent: str) -> str:
    """``json.dumps(value, indent=2)`` with each line after the first led by ``indent``."""
    kind = type(value)
    if kind in _SCALARS:
        return _SCALARS[kind](value)
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        return "[" + ",".join(f"\n{inner}{_dumps(v, inner)}" for v in value) + f"\n{indent}]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        return "{" + ",".join(f"\n{inner}{_text(k)}: {_dumps(v, inner)}"
                              for k, v in value.items()) + f"\n{indent}}}"
    import json

    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _row(row: Any, templates: dict) -> str:
    """One element of "rows" as ``json.dumps(payload, indent=2)`` writes it."""
    keys = tuple(row) if type(row) is dict else None
    if keys is not None and keys not in templates and all(type(k) is str for k in keys):
        templates[keys] = "    {" + ",".join(
            f"\n      {_text(k).replace('%', '%%')}: %s" for k in keys
        ) + ("\n    }" if keys else "}")
    try:
        return templates[keys] % tuple([_SCALARS[type(v)](v) for v in row.values()])
    except KeyError:  # not a dict of str keys, or a value of another type
        return "    " + _dumps(row, "    ")


def batches(rows: Iterable) -> Iterator[list]:
    """Lists of up to ``_BATCH`` rows, each drawn from ``rows`` only when it is due."""
    rows = iter(rows)
    while batch := list(islice(rows, _BATCH)):
        yield batch


def chunks(command: str, well: dict, rows: Iterable, meta: dict) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\\n"`` in chunks of ``_BATCH`` rows (9-13 KiB).

    Only one batch of rows is held at a time when ``rows`` forms them on
    demand; 1024-row batches added about 0.2 MB to a q = 50 process.
    """
    yield f'{{\n  "command": {_dumps(command, "  ")},\n  "well": {_dumps(well, "  ")},\n  "rows": ['
    templates: dict = {}
    separator = "\n"
    for batch in batches(rows):
        yield separator + ",\n".join([_row(row, templates) for row in batch])
        separator = ",\n"
    close = "\n  ]," if separator != "\n" else "],"
    yield f'{close}\n  "meta": {_dumps(meta, "  ")}\n}}\n'
