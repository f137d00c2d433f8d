"""The text of ``json.dumps(payload, indent=2)`` for a CLI payload, in chunks.

An indent turns json's C encoder off, and its pure-Python encoder took
about 20 ms for the 2601 rows of a q = 50 matrix.  Here each row whose keys
are str and whose values are float, int or str fills a template made once
per key tuple; any other row, and the payload around the rows, is written
by ``json.dumps`` itself.  The text is the same byte for byte.  Rows are
drawn from any iterable ``_BATCH`` at a time (``batches``, which the CSV
writer uses too), so a generator's rows are formed one batch at a time.
"""

from __future__ import annotations

import json
import math
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator

__all__ = ["batches", "chunks"]


# How json.dumps writes a value of exactly these types.
_SCALARS = {
    float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v),
    int: int.__repr__,
    str: encode_basestring_ascii,
}

# Rows per chunk.
_BATCH = 128


def _row(row: Any, templates: dict) -> str:
    """One element of "rows" as ``json.dumps(payload, indent=2)`` writes it."""
    keys = tuple(row) if type(row) is dict else None
    if keys is not None and keys not in templates and all(type(k) is str for k in keys):
        templates[keys] = "    {" + ",".join(
            f"\n      {encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in keys
        ) + ("\n    }" if keys else "}")
    try:
        return templates[keys] % tuple([_SCALARS[type(v)](v) for v in row.values()])
    except KeyError:  # not a dict of str keys, or a value of another type
        return "    " + json.dumps(row, indent=2).replace("\n", "\n    ")


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
    yield json.dumps({"command": command, "well": well}, indent=2)[:-2] + ',\n  "rows": ['
    templates: dict = {}
    separator = "\n"
    for batch in batches(rows):
        yield separator + ",\n".join([_row(row, templates) for row in batch])
        separator = ",\n"
    close = "\n  ]," if separator != "\n" else "],"
    yield close + json.dumps({"meta": meta}, indent=2)[1:] + "\n"
