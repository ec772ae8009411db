"""File formats: graph files, vector files, sample CSVs, covariance JSON,
grouping files.

Graph file: a header line ``p=<int> source=<id> terminal=<id>`` followed by
``edge <from> <to>`` and optional ``bind <vertex> <var-index>`` lines. ``#``
starts a comment anywhere on a line; blank lines are ignored. The header's
``p`` is the vertex count; the data dimension is inferred as the largest
bound variable index plus one.

Vector file: one float per line, same comment rules.

Sample CSV: one row per variable, one column per observation, no header
unless asked for.

Covariance JSON: ``{"p": <int>, "sigma": [[...], ...]}``.

Grouping file: ``<var-index> <group-label>`` lines; group order is the order
of first appearance.
"""

from __future__ import annotations

import json

import numpy as np

from .graph import Dag, UNBOUND


class ParseError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {message}")


def _read_text(path) -> str:
    """The file's text, newlines universal; ParseError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(path, None, f"cannot read file: {exc.strerror}") from exc


def _content_lines(path):
    out = []
    for i, line in enumerate(_read_text(path).split("\n"), start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            out.append((i, text))
    return out


def _int_field(path, line_no, text, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(path, line_no, f"{what} must be an integer, got {text!r}") from None


def load_graph(path) -> Dag:
    """Parse a graph file; raises ParseError with the offending line number."""
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, None, "empty graph file")
    line_no, header = lines[0]
    fields = header.split()
    keys = ("p", "source", "terminal")
    if len(fields) != 3 or any("=" not in f for f in fields):
        raise ParseError(path, line_no,
                         "header must be 'p=<int> source=<id> terminal=<id>'")
    vals = {}
    for f in fields:
        k, _, v = f.partition("=")
        if k not in keys:
            raise ParseError(path, line_no, f"unknown header field {k!r}")
        vals[k] = _int_field(path, line_no, v, k)
    if set(vals) != set(keys):
        raise ParseError(path, line_no, "header must set p, source and terminal")
    p, source, terminal = vals["p"], vals["source"], vals["terminal"]
    if p <= 0:
        raise ParseError(path, line_no, "p must be positive")
    if not (0 <= source < p and 0 <= terminal < p):
        raise ParseError(path, line_no, "source/terminal out of range")

    edges = []
    binding = {}
    for line_no, text in lines[1:]:
        parts = text.split()
        if parts[0] == "edge":
            if len(parts) != 3:
                raise ParseError(path, line_no, "edge line must be 'edge <from> <to>'")
            u = _int_field(path, line_no, parts[1], "edge endpoint")
            v = _int_field(path, line_no, parts[2], "edge endpoint")
            if not (0 <= u < p and 0 <= v < p):
                raise ParseError(path, line_no, f"edge endpoint out of range 0..{p - 1}")
            edges.append((u, v))
        elif parts[0] == "bind":
            if len(parts) != 3:
                raise ParseError(path, line_no, "bind line must be 'bind <vertex> <var-index>'")
            v = _int_field(path, line_no, parts[1], "vertex")
            idx = _int_field(path, line_no, parts[2], "variable index")
            if not (0 <= v < p):
                raise ParseError(path, line_no, f"vertex out of range 0..{p - 1}")
            if idx < 0:
                raise ParseError(path, line_no, "variable index must be nonnegative")
            if v in binding:
                raise ParseError(path, line_no, f"vertex {v} bound twice")
            binding[v] = idx
        else:
            raise ParseError(path, line_no, f"unknown directive {parts[0]!r}")
    return Dag(p, edges, source=source, terminal=terminal, binding=binding)


def write_graph(dag: Dag, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p={dag.vertex_count} source={dag.source} terminal={dag.terminal}\n")
        for v in np.flatnonzero(dag.binding != UNBOUND).tolist():
            fh.write(f"bind {v} {int(dag.binding[v])}\n")
        for u, v in dag.edges().tolist():
            fh.write(f"edge {u} {v}\n")


def load_vector(path) -> np.ndarray:
    vals = []
    for line_no, text in _content_lines(path):
        try:
            vals.append(float(text))
        except ValueError:
            raise ParseError(path, line_no, f"expected one float per line, got {text!r}") from None
    if not vals:
        raise ParseError(path, None, "empty vector file")
    return np.asarray(vals, dtype=float)


def write_vector(x, path, comment: str | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for v in np.asarray(x, dtype=float):
            fh.write(repr(float(v)) + "\n")


def load_data_csv(path, header: bool = False) -> np.ndarray:
    """Sample matrix from CSV: rows are variables, columns observations.

    Each row is parsed by one ``np.array(cells, dtype=float)``, which reads
    every cell as ``float()`` does (surrounding whitespace, ``1_0``, ``nan``,
    ``1e400``). A ragged or non-numeric row raises ParseError with its line
    number.
    """
    rows = []
    width = None
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        if header and line_no == 1:
            continue
        text = line.strip()
        if not text:
            continue
        cells = text.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(path, line_no,
                             f"expected {width} columns, got {len(cells)}")
        try:
            rows.append(np.array(cells, dtype=float))
        except ValueError:
            raise ParseError(path, line_no, "non-numeric cell") from None
    if not rows:
        raise ParseError(path, 1 if header else None, "no data rows")
    return np.asarray(rows, dtype=float)


def write_data_csv(y, path, header: bool = False):
    y = np.asarray(y, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(f"obs{i}" for i in range(y.shape[1])) + "\n")
        for row in y:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_covariance_json(path) -> np.ndarray:
    """The float matrix of a ``{"sigma": [[...], ...]}`` file. Every cell must
    be a number (``true`` and ``false`` are not), and an integer cell must fit
    in 64 bits: write larger values as floats (``1e20``), as
    ``write_covariance_json`` does."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    # numpy folds bools into int and float dtypes, so bool cells are looked
    # for by type, but only in a text that can spell them: neither the keys
    # nor a float repr hold a "t" or an "f"
    spelled = "t" in text or "f" in text
    del text
    if not isinstance(doc, dict) or "sigma" not in doc:
        raise ParseError(path, None, "expected an object with a 'sigma' field")
    try:  # ragged rows raise; a null cell makes the dtype object, a string str
        sigma = np.array(doc["sigma"])
    except ValueError:
        sigma = np.array(None)
    if sigma.dtype.kind not in "iuf":
        raise ParseError(path, None, "'sigma' must be a matrix of numbers")
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ParseError(path, None, "'sigma' must be a square matrix")
    if spelled and any(type(c) is bool for row in doc["sigma"] for c in row):
        raise ParseError(path, None, "'sigma' must be a matrix of numbers")
    p = doc.get("p", sigma.shape[0])
    if not isinstance(p, int) or isinstance(p, bool):
        raise ParseError(path, None, "'p' must be an integer")
    if p != sigma.shape[0]:
        raise ParseError(path, None, "'p' does not match the matrix size")
    return sigma.astype(float, copy=False)


def write_covariance_json(sigma, path):
    sigma = np.asarray(sigma, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"p": sigma.shape[0], "sigma": sigma.tolist()}, fh)
        fh.write("\n")


def load_grouping(path) -> list[tuple[str, list[int]]]:
    """Ordered groups [(label, [variable indices])], order of first appearance."""
    seen_vars = {}
    order: list[str] = []
    groups: dict[str, list[int]] = {}
    for line_no, text in _content_lines(path):
        parts = text.split(None, 1)
        if len(parts) != 2:
            raise ParseError(path, line_no, "expected '<var-index> <group-label>'")
        var = _int_field(path, line_no, parts[0], "variable index")
        label = parts[1].strip()
        if var < 0:
            raise ParseError(path, line_no, "variable index must be nonnegative")
        if var in seen_vars:
            raise ParseError(path, line_no,
                             f"variable {var} already in group {seen_vars[var]!r}")
        seen_vars[var] = label
        if label not in groups:
            groups[label] = []
            order.append(label)
        groups[label].append(var)
    if not order:
        raise ParseError(path, None, "empty grouping file")
    return [(label, groups[label]) for label in order]
