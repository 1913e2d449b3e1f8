"""Reader and writer for linear programs in MPS format (Netlib dialect).

The supported subset is the classic fixed-format layout used throughout the
Netlib collection: NAME, ROWS, COLUMNS, RHS, RANGES, BOUNDS and ENDATA
sections, one N (objective) row, bound types LO/UP/FX/FR/MI/PL, and
Fortran-style ``D`` exponents.  Section keywords start in column one; data
lines are indented and whitespace-delimited.  Integer markers (MARKER /
INTORG) and OBJSENSE sections are rejected rather than silently ignored,
as are ``nan`` in any numeric field and infinite values outside BOUNDS.

The reader fills two tables, one of rows and one of matrix entries, and
builds the E, G and L blocks as row picks of one matrix of all
constraint rows.  The writer stacks the blocks back into one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["MpsParseError", "RawLP", "parse_mps", "write_mps"]

_BOUND_TYPES = frozenset(["LO", "UP", "FX", "FR", "MI", "PL"])
_NO_VALUE_BOUNDS = frozenset(["FR", "MI", "PL"])
_SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")


class MpsParseError(ValueError):
    """Malformed MPS input.  ``lineno`` is 1-based when known."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = "line %d: %s" % (lineno, message)
        super().__init__(message)
        self.lineno = lineno


@dataclass
class RawLP:
    """A linear program as read from an MPS file, split by row type.

    Rows are kept in three blocks (equality, >=, <=) so that the
    standard-form transformation can attach slack columns per block.
    Bounds use ``-inf``/``+inf`` markers; the defaults are ``lower = 0``
    and ``upper = +inf``.

    The minimized objective is ``c @ x + objective_constant`` (the constant
    is the negated RHS entry of the objective row, per MPS convention).
    """

    name: str
    col_names: list
    c: np.ndarray
    A_eq: sp.csr_array
    b_eq: np.ndarray
    row_names_eq: list
    A_ge: sp.csr_array
    b_ge: np.ndarray
    row_names_ge: list
    A_le: sp.csr_array
    b_le: np.ndarray
    row_names_le: list
    lower: np.ndarray
    upper: np.ndarray
    objective_name: str = "COST"
    objective_constant: float = 0.0

    @property
    def n_cols(self):
        return len(self.col_names)

    @property
    def n_rows(self):
        return self.A_eq.shape[0] + self.A_ge.shape[0] + self.A_le.shape[0]

    def blocks(self):
        """Yield ``(kind, A, b, row_names)`` for the three row blocks."""
        yield "E", self.A_eq, self.b_eq, self.row_names_eq
        yield "G", self.A_ge, self.b_ge, self.row_names_ge
        yield "L", self.A_le, self.b_le, self.row_names_le

    def __eq__(self, other):
        if not isinstance(other, RawLP):
            return NotImplemented
        if (self.name != other.name
                or self.col_names != other.col_names
                or self.objective_name != other.objective_name
                or self.objective_constant != other.objective_constant):
            return False
        if not (np.array_equal(self.c, other.c)
                and np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper)):
            return False
        for (_, A, b, names), (_, B, d, onames) in zip(self.blocks(),
                                                       other.blocks()):
            if names != onames or not np.array_equal(b, d):
                return False
            if A.shape != B.shape or (A != B).nnz != 0:
                return False
        return True


def _parse_number(token, lineno, bound=False):
    """Read one numeric field: finite, or also infinite when ``bound``.

    ``nan`` is never a value, and only a bound may be infinite; either
    would otherwise reach the standard form silently.
    """
    # Netlib files use Fortran 'D' exponents in a few places.
    try:
        value = float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MpsParseError("bad numeric field %r" % token, lineno) from None
    if not math.isfinite(value) and (math.isnan(value) or not bound):
        raise MpsParseError("non-finite numeric field %r" % token, lineno)
    return value


class _Reader:
    """Single-pass section reader filling a row table and an entry table.

    ``rows`` maps a constraint row's name to ``(index, kind)`` in ROWS
    order and ``cols`` a column's name to its index.  A matrix entry is
    stored at key ``j * m + i`` of ``entries``, where ``m`` is the number of
    constraint rows (fixed once COLUMNS starts, as ROWS comes first).
    ``rhs`` and ``ranges`` are keyed by row index; the objective row's
    RHS sits at index -1.
    """

    def __init__(self):
        self.name = ""
        self.objective_name = None
        self.rows = {}
        self.cols = {}
        self.obj_coeffs = {}        # col index -> value
        self.entries = {}
        self.rhs = {}
        self.ranges = {}
        self.bound_records = []     # (btype, col index, value or None, lineno)

    def rows_line(self, tokens, lineno):
        if len(tokens) != 2:
            raise MpsParseError("ROWS line needs a type and a name", lineno)
        rtype, rname = tokens[0].upper(), tokens[1]
        if rtype == "N" and self.objective_name is not None:
            raise MpsParseError("multiple objective (N) rows", lineno)
        if rtype not in ("N", "E", "G", "L"):
            raise MpsParseError("unknown row type %r" % tokens[0], lineno)
        if rname in self.rows or rname == self.objective_name:
            raise MpsParseError("duplicate row name %r" % rname, lineno)
        if rtype == "N":
            self.objective_name = rname
        else:
            self.rows[rname] = (len(self.rows), rtype)

    def columns_line(self, tokens, lineno):
        if "'MARKER'" in tokens or "MARKER" in tokens:
            raise MpsParseError("integer markers are not supported", lineno)
        if len(tokens) < 3 or len(tokens) % 2 == 0:
            raise MpsParseError("COLUMNS line needs (row, value) pairs",
                                lineno)
        j = self.cols.setdefault(tokens[0], len(self.cols))
        base = j * len(self.rows)
        for rname, vtok in zip(tokens[1::2], tokens[2::2]):
            value = _parse_number(vtok, lineno)
            if rname == self.objective_name:
                if j in self.obj_coeffs:
                    raise MpsParseError(
                        "duplicate objective entry for column %r" % tokens[0],
                        lineno)
                self.obj_coeffs[j] = value
                continue
            row = self.rows.get(rname)
            if row is None:
                raise MpsParseError("unknown row %r" % rname, lineno)
            key = base + row[0]
            if key in self.entries:
                raise MpsParseError(
                    "duplicate entry for row %r, column %r"
                    % (rname, tokens[0]), lineno)
            self.entries[key] = value

    def _pairs(self, tokens, lineno, section):
        # The leading set name is optional in the wild; detect it by
        # checking whether the first token is itself a known row name.
        known = tokens[0] in self.rows or tokens[0] == self.objective_name
        body = tokens if (known and len(tokens) % 2 == 0) else tokens[1:]
        if not body or len(body) % 2 != 0:
            raise MpsParseError("%s line needs (row, value) pairs" % section,
                                lineno)
        return zip(body[0::2], body[1::2])

    def rhs_line(self, tokens, lineno):
        for rname, vtok in self._pairs(tokens, lineno, "RHS"):
            value = _parse_number(vtok, lineno)
            if rname == self.objective_name:
                i = -1
            elif rname in self.rows:
                i = self.rows[rname][0]
            else:
                raise MpsParseError("RHS for unknown row %r" % rname, lineno)
            if i in self.rhs:
                raise MpsParseError("duplicate RHS for row %r" % rname, lineno)
            self.rhs[i] = value

    def ranges_line(self, tokens, lineno):
        for rname, vtok in self._pairs(tokens, lineno, "RANGES"):
            if rname not in self.rows:
                raise MpsParseError("RANGES for unknown row %r" % rname,
                                    lineno)
            i = self.rows[rname][0]
            if i in self.ranges:
                raise MpsParseError("duplicate RANGES for row %r" % rname,
                                    lineno)
            self.ranges[i] = _parse_number(vtok, lineno)

    def bounds_line(self, tokens, lineno):
        btype = tokens[0].upper()
        if btype not in _BOUND_TYPES:
            raise MpsParseError("unknown bound type %r" % tokens[0], lineno)
        needs_value = btype not in _NO_VALUE_BOUNDS
        want = 3 if needs_value else 2
        # An optional bound-set name sits between the type and the column.
        if len(tokens) == want + 1:
            tokens = [tokens[0]] + tokens[2:]
        if len(tokens) != want:
            raise MpsParseError("malformed BOUNDS line", lineno)
        cname = tokens[1]
        if cname not in self.cols:
            raise MpsParseError("bound for unknown column %r" % cname, lineno)
        value = (_parse_number(tokens[2], lineno, bound=True)
                 if needs_value else None)
        self.bound_records.append((btype, self.cols[cname], value, lineno))


def parse_mps(text):
    """Parse an MPS document into a :class:`RawLP`.

    Parameters
    ----------
    text : str or bytes
        Full contents of the MPS file.

    Returns
    -------
    RawLP

    Raises
    ------
    MpsParseError
        On any malformed construct; the message carries the line number.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")

    reader = _Reader()
    section = None
    seen = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        if line[0] not in (" ", "\t"):
            tokens = line.split()
            keyword = tokens[0].upper()
            if keyword not in _SECTIONS:
                raise MpsParseError("unknown section %r" % tokens[0], lineno)
            if section == "ENDATA":
                raise MpsParseError("content after ENDATA", lineno)
            if seen and _SECTIONS.index(keyword) <= _SECTIONS.index(seen[-1]):
                raise MpsParseError("section %s out of order" % keyword,
                                    lineno)
            if keyword in ("COLUMNS", "RHS", "RANGES", "BOUNDS") and \
                    "ROWS" not in seen:
                raise MpsParseError("section %s before ROWS" % keyword,
                                    lineno)
            seen.append(keyword)
            section = keyword
            if keyword == "NAME":
                reader.name = tokens[1] if len(tokens) > 1 else ""
            continue

        tokens = line.split()
        if section == "ROWS":
            reader.rows_line(tokens, lineno)
        elif section == "COLUMNS":
            reader.columns_line(tokens, lineno)
        elif section == "RHS":
            reader.rhs_line(tokens, lineno)
        elif section == "RANGES":
            reader.ranges_line(tokens, lineno)
        elif section == "BOUNDS":
            reader.bounds_line(tokens, lineno)
        elif section == "ENDATA":
            raise MpsParseError("content after ENDATA", lineno)
        elif section in ("NAME", None):
            raise MpsParseError("data line outside any section", lineno)

    if section != "ENDATA":
        raise MpsParseError("missing ENDATA")
    if reader.objective_name is None:
        raise MpsParseError("no objective (N) row")
    if not reader.cols:
        raise MpsParseError("no columns")

    return _assemble(reader)


def _assemble(reader):
    """Build the :class:`RawLP` from the reader's row and entry tables.

    All constraint rows form one CSR matrix, and each block is a row pick
    of it.  A range ``r`` turns a single row into a two-sided constraint
    ``low <= a@x <= high`` per the classical convention, picked as a G row
    (the lower side) and an L row (the upper side).  The generated partner
    row is named ``<row>__RNG``.
    """
    n, m = len(reader.cols), len(reader.rows)
    c = np.zeros(n)
    for j, v in reader.obj_coeffs.items():
        c[j] = v

    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for btype, j, value, lineno in reader.bound_records:
        if btype == "LO":
            lower[j] = value
        elif btype == "UP":
            upper[j] = value
        elif btype == "FX":
            lower[j] = upper[j] = value
        elif btype == "FR":
            lower[j], upper[j] = -np.inf, np.inf
        elif btype == "MI":
            lower[j] = -np.inf
        elif btype == "PL":
            upper[j] = np.inf

    # kind -> (row indices, row names, right-hand sides) of its block
    picks = {"E": ([], [], []), "G": ([], [], []), "L": ([], [], [])}
    for rname, (i, kind) in reader.rows.items():
        b = reader.rhs.get(i, 0.0)
        r = reader.ranges.get(i)
        if r is None or (kind == "E" and r == 0.0):
            sides = ((kind, rname, b),)
        else:
            if kind == "G":
                low, high = b, b + abs(r)
            elif kind == "L":
                low, high = b - abs(r), b
            else:
                low, high = (b, b + r) if r > 0 else (b + r, b)
            g_name = rname + "__RNG" if kind == "L" else rname
            l_name = rname if kind == "L" else rname + "__RNG"
            sides = (("G", g_name, low), ("L", l_name, high))
        for kind, name, value in sides:
            picks[kind][0].append(i)
            picks[kind][1].append(name)
            picks[kind][2].append(value)

    nnz = len(reader.entries)
    cols, rows = np.divmod(np.fromiter(reader.entries, np.int64, nnz), m)
    A = sp.csr_array((np.fromiter(reader.entries.values(), float, nnz),
                      (rows, cols)), shape=(m, n))
    (A_eq, b_eq, r_eq), (A_ge, b_ge, r_ge), (A_le, b_le, r_le) = (
        (A[np.asarray(idx, dtype=np.intp)], np.asarray(b, dtype=float),
         names) for idx, names, b in picks.values())
    return RawLP(
        name=reader.name, col_names=list(reader.cols), c=c,
        A_eq=A_eq, b_eq=b_eq, row_names_eq=r_eq,
        A_ge=A_ge, b_ge=b_ge, row_names_ge=r_ge,
        A_le=A_le, b_le=b_le, row_names_le=r_le,
        lower=lower, upper=upper,
        objective_name=reader.objective_name,
        # RHS on the objective row is the negated constant term.
        objective_constant=-reader.rhs[-1] if -1 in reader.rhs else 0.0,
    )


def _fmt(v):
    # repr of a float is the shortest exact form, so parse(write(lp)) == lp.
    return repr(float(v))


def write_mps(lp):
    """Serialize a :class:`RawLP` back to MPS text.

    The three blocks are stacked into one CSC matrix in E, G, L order, so
    each column's entries come out block by block in ascending row order.
    A column with no entry gets its cost line even when the cost is zero,
    so that it is not lost.  Ranges were already expanded at parse time,
    so the output never has a RANGES section; re-parsing the result
    reproduces the input object.
    """
    rows = [(kind, rname, v) for kind, _, b, names in lp.blocks()
            for rname, v in zip(names, b)]
    out = ["NAME          %s" % lp.name, "ROWS",
           " N  %s" % lp.objective_name]
    out.extend(" %s  %s" % (kind, rname) for kind, rname, _ in rows)

    out.append("COLUMNS")
    A = sp.vstack([A for _, A, _, _ in lp.blocks()], format="csc")
    for j, cname in enumerate(lp.col_names):
        start, stop = A.indptr[j], A.indptr[j + 1]
        if lp.c[j] != 0.0 or start == stop:
            out.append("    %-10s%-10s%s"
                       % (cname, lp.objective_name, _fmt(lp.c[j])))
        for k in range(start, stop):
            out.append("    %-10s%-10s%s"
                       % (cname, rows[A.indices[k]][1], _fmt(A.data[k])))

    out.append("RHS")
    if lp.objective_constant != 0.0:
        out.append("    %-10s%-10s%s" % ("RHS", lp.objective_name,
                                         _fmt(-lp.objective_constant)))
    for _, rname, b in rows:
        if b != 0.0:
            out.append("    %-10s%-10s%s" % ("RHS", rname, _fmt(b)))

    bound_lines = []
    for j, cname in enumerate(lp.col_names):
        lo, up = lp.lower[j], lp.upper[j]
        if lo == 0.0 and np.isinf(up):
            continue
        if lo == up:
            bound_lines.append(" FX %-10s%-10s%s" % ("BND", cname, _fmt(lo)))
            continue
        if np.isneginf(lo):
            if np.isinf(up):
                bound_lines.append(" FR %-10s%s" % ("BND", cname))
                continue
            bound_lines.append(" MI %-10s%s" % ("BND", cname))
        elif lo != 0.0:
            bound_lines.append(" LO %-10s%-10s%s" % ("BND", cname, _fmt(lo)))
        if not np.isinf(up):
            bound_lines.append(" UP %-10s%-10s%s" % ("BND", cname, _fmt(up)))
    if bound_lines:
        out.append("BOUNDS")
        out.extend(bound_lines)

    out.append("ENDATA")
    return "\n".join(out) + "\n"
