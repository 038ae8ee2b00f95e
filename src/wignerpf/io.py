"""Matrix documents: Matrix Market and JSON parsing, emission, formatting.

Supported formats:

* Matrix Market, ``array`` layout, fields ``complex``/``real``/``integer``,
  symmetry ``general`` only; values in column-major order per the format's
  convention.
* JSON: ``{"rows": N, "cols": M, "entries": [[re, im], ...]}`` with the
  entries in row-major order.

All floats are emitted through :func:`format_float` (%.17g — enough digits
to round-trip IEEE doubles exactly, and at least the 15 significant digits
the output contract requires); zeros are canonicalized to "0" so output
bytes never depend on the sign of a floating-point zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .linalg import _frozen, as_matrix

FORMAT_MM = "mm"
FORMAT_JSON = "json"
FORMATS = (FORMAT_MM, FORMAT_JSON)


def format_float(x: float) -> str:
    """Deterministic decimal rendering of a double (%.17g, canonical zero)."""
    x = float(x)
    if x == 0.0:
        return "0"
    return "%.17g" % x


def json_dumps(obj) -> str:
    """Serialize to JSON with :func:`format_float` applied to every float.

    Dict insertion order is preserved; no whitespace surprises; strings are
    escaped by the standard library.  Accepts dicts, lists/tuples, strings,
    bools, None, ints and floats.  Non-finite floats (an overflowed
    determinant, say) become ``null``, so the output is always strict JSON.
    """
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj) if np.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, value in enumerate(obj):
            if k:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def complex_pair(z: complex) -> list[float]:
    """[re, im] representation used throughout the JSON output schemas."""
    z = complex(z)
    return [z.real, z.imag]


@dataclass(frozen=True, eq=False)
class MatrixDocument:
    """A parsed matrix plus its source format and free-form metadata."""

    matrix: np.ndarray
    source_format: str
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(as_matrix(self.matrix)))
        if self.source_format not in FORMATS:
            raise ParseError(f"unknown format {self.source_format!r}; expected one of {FORMATS}")


def parse_matrix(source, fmt: str) -> MatrixDocument:
    """Parse a matrix document from a path or a text stream.

    ``fmt`` is "mm" (Matrix Market) or "json".  Raises :class:`ParseError`
    (with a line number where available) on malformed headers, entry-count
    mismatches, and non-finite values.
    """
    if fmt not in FORMATS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc.strerror or exc}") from exc
    if fmt == FORMAT_MM:
        return _parse_mm(text)
    return _parse_json(text)


def _parse_mm(text: str) -> MatrixDocument:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket":
        raise ParseError(
            "malformed header: expected '%%MatrixMarket matrix array "
            "<field> general'",
            line=1,
        )
    _, obj, layout, fld, symmetry = (token.lower() for token in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r} (only 'matrix')", line=1)
    if layout != "array":
        raise ParseError(f"unsupported layout {layout!r} (only dense 'array')", line=1)
    if fld not in ("complex", "real", "integer"):
        raise ParseError(
            f"unsupported field {fld!r} (only 'complex', 'real', 'integer')", line=1
        )
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r} (only 'general')", line=1)

    comments: list[str] = []
    cursor = 1
    while cursor < len(lines):
        stripped = lines[cursor].strip()
        if stripped.startswith("%"):
            comments.append(stripped.lstrip("%").strip())
        elif stripped:
            break
        cursor += 1
    if cursor >= len(lines):
        raise ParseError("missing size line", line=len(lines))
    size_tokens = lines[cursor].split()
    if len(size_tokens) != 2:
        raise ParseError("size line must hold exactly two integers", line=cursor + 1)
    try:
        rows, cols = int(size_tokens[0]), int(size_tokens[1])
    except ValueError:
        raise ParseError("size line must hold exactly two integers", line=cursor + 1) from None
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix size {rows}x{cols} must be at least 1x1", line=cursor + 1)
    cursor += 1

    expected = rows * cols
    values: list[complex] = []
    per_line = 2 if fld == "complex" else 1
    for lineno in range(cursor, len(lines)):
        stripped = lines[lineno].strip()
        if not stripped or stripped.startswith("%"):
            continue
        if len(values) >= expected:
            raise ParseError(
                f"expected {expected} entries, found more", line=lineno + 1
            )
        tokens = stripped.split()
        if len(tokens) != per_line:
            raise ParseError(
                f"expected {per_line} value(s) per line for field '{fld}', "
                f"got {len(tokens)}",
                line=lineno + 1,
            )
        try:
            numbers = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(f"malformed number in {stripped!r}", line=lineno + 1) from None
        if not all(np.isfinite(numbers)):
            raise ParseError("non-finite value", line=lineno + 1)
        if fld == "complex":
            values.append(complex(numbers[0], numbers[1]))
        else:
            values.append(complex(numbers[0], 0.0))
    if len(values) != expected:
        raise ParseError(
            f"expected {expected} entries, found {len(values)}", line=len(lines)
        )
    matrix = np.array(values, dtype=np.complex128).reshape((cols, rows)).T
    metadata = {"field": fld}
    if comments:
        metadata["comments"] = "\n".join(comments)
    return MatrixDocument(matrix=matrix, source_format=FORMAT_MM, metadata=metadata)


def _parse_json(text: str) -> MatrixDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("rows", "cols", "entries"):
        if key not in data:
            raise ParseError(f'missing key "{key}"')
    rows, cols = data["rows"], data["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ParseError(f'"{name}" must be a positive integer')
    entries = data["entries"]
    if not isinstance(entries, list):
        raise ParseError('"entries" must be an array of [re, im] pairs')
    expected = rows * cols
    if len(entries) != expected:
        raise ParseError(f"expected {expected} entries, found {len(entries)}")
    values = np.empty(expected, dtype=np.complex128)
    for k, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in pair)
        ):
            raise ParseError(f"entry {k} must be an [re, im] pair of numbers")
        if not (np.isfinite(pair[0]) and np.isfinite(pair[1])):
            raise ParseError(f"entry {k} is non-finite")
        values[k] = complex(pair[0], pair[1])
    matrix = values.reshape((rows, cols))
    metadata = {}
    raw_meta = data.get("metadata")
    if isinstance(raw_meta, dict):
        metadata = {str(k): str(v) for k, v in raw_meta.items()}
    return MatrixDocument(matrix=matrix, source_format=FORMAT_JSON, metadata=metadata)


def render_matrix(matrix, fmt: str) -> str:
    """Render a matrix as a document string in the requested format."""
    m = as_matrix(matrix)
    if fmt == FORMAT_MM:
        rows, cols = m.shape
        lines = ["%%MatrixMarket matrix array complex general", f"{rows} {cols}"]
        for j in range(cols):  # column-major per the format
            for i in range(rows):
                z = m[i, j]
                lines.append(f"{format_float(z.real)} {format_float(z.imag)}")
        return "\n".join(lines) + "\n"
    if fmt == FORMAT_JSON:
        doc = {
            "rows": int(m.shape[0]),
            "cols": int(m.shape[1]),
            "entries": [complex_pair(z) for z in m.ravel()],
        }
        return json_dumps(doc) + "\n"
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def write_matrix(matrix, destination, fmt: str) -> None:
    """Write a matrix document to a path or text stream."""
    text = render_matrix(matrix, fmt)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
