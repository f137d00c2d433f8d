"""The text of ``json.dumps(payload, indent=2)`` for a CLI payload, in chunks.

An indent turns json's C encoder off, and its pure-Python encoder took
about 20 ms for the 2601 rows of a q = 50 matrix.  Here each row whose keys
are str and whose values are float, int or str fills a template made once
per key tuple; any other row, and the payload around the rows, is written
by ``json.dumps`` itself.  The text is the same byte for byte.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

__all__ = ["chunks"]


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


def chunks(command: str, well: dict, rows: list, meta: dict) -> Iterable[str]:
    """``json.dumps(payload, indent=2) + "\\n"`` in chunks of ``_BATCH`` rows (9-13 KiB).

    Small batches keep the peak low: the rows are still held while they are
    written, and 1024-row batches added about 0.2 MB to a q = 50 process.
    """
    yield json.dumps({"command": command, "well": well}, indent=2)[:-2] + ',\n  "rows": ['
    templates: dict = {}
    for start in range(0, len(rows), _BATCH):
        texts = [_row(row, templates) for row in rows[start:start + _BATCH]]
        yield ("\n" if start == 0 else ",\n") + ",\n".join(texts)
    yield ("\n  ]," if rows else "],") + json.dumps({"meta": meta}, indent=2)[1:] + "\n"
