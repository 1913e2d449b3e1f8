"""Reader and writer for linear programs in MPS format (Netlib dialect).

The supported subset is the classic fixed-format layout used throughout the
Netlib collection: NAME, ROWS, COLUMNS, RHS, RANGES, BOUNDS and ENDATA
sections, one N (objective) row, bound types LO/UP/FX/FR/MI/PL, and
Fortran-style ``D`` exponents.  Section keywords start in column one; data
lines are indented and whitespace-delimited.  Integer markers (MARKER /
INTORG) and OBJSENSE sections are rejected rather than silently ignored,
as are ``nan`` in any numeric field and infinite values outside BOUNDS.
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
    """Single-pass section reader accumulating rows, columns and bounds."""

    def __init__(self):
        self.name = ""
        self.objective_name = None
        self.objective_constant = 0.0
        self.row_type = {}          # row name -> 'E' | 'G' | 'L'
        self.row_order = []
        self.row_coeffs = {}        # row name -> {col index: value}
        self.obj_coeffs = {}        # col index -> value
        self.col_names = []
        self.col_index = {}
        self.rhs = {}
        self.ranges = {}
        self.bound_records = []     # (btype, col index, value or None, lineno)
        self.rhs_seen = set()

    def _col(self, name):
        j = self.col_index.get(name)
        if j is None:
            j = len(self.col_names)
            self.col_index[name] = j
            self.col_names.append(name)
        return j

    def rows_line(self, tokens, lineno):
        if len(tokens) != 2:
            raise MpsParseError("ROWS line needs a type and a name", lineno)
        rtype, rname = tokens[0].upper(), tokens[1]
        if rtype == "N":
            if self.objective_name is not None:
                raise MpsParseError("multiple objective (N) rows", lineno)
            self.objective_name = rname
            return
        if rtype not in ("E", "G", "L"):
            raise MpsParseError("unknown row type %r" % tokens[0], lineno)
        if rname in self.row_type or rname == self.objective_name:
            raise MpsParseError("duplicate row name %r" % rname, lineno)
        self.row_type[rname] = rtype
        self.row_order.append(rname)
        self.row_coeffs[rname] = {}

    def columns_line(self, tokens, lineno):
        if "'MARKER'" in tokens or "MARKER" in tokens:
            raise MpsParseError("integer markers are not supported", lineno)
        if len(tokens) < 3 or len(tokens) % 2 == 0:
            raise MpsParseError("COLUMNS line needs (row, value) pairs",
                                lineno)
        j = self._col(tokens[0])
        for rname, vtok in zip(tokens[1::2], tokens[2::2]):
            value = _parse_number(vtok, lineno)
            if rname == self.objective_name:
                if j in self.obj_coeffs:
                    raise MpsParseError(
                        "duplicate objective entry for column %r" % tokens[0],
                        lineno)
                self.obj_coeffs[j] = value
                continue
            coeffs = self.row_coeffs.get(rname)
            if coeffs is None:
                raise MpsParseError("unknown row %r" % rname, lineno)
            if j in coeffs:
                raise MpsParseError(
                    "duplicate entry for row %r, column %r"
                    % (rname, tokens[0]), lineno)
            coeffs[j] = value

    def _pairs(self, tokens, lineno, section):
        # The leading set name is optional in the wild; detect it by
        # checking whether the first token is itself a known row name.
        known = (self.row_type.__contains__(tokens[0])
                 or tokens[0] == self.objective_name)
        body = tokens if (known and len(tokens) % 2 == 0) else tokens[1:]
        if not body or len(body) % 2 != 0:
            raise MpsParseError("%s line needs (row, value) pairs" % section,
                                lineno)
        return zip(body[0::2], body[1::2])

    def rhs_line(self, tokens, lineno):
        for rname, vtok in self._pairs(tokens, lineno, "RHS"):
            value = _parse_number(vtok, lineno)
            if rname == self.objective_name:
                # RHS on the objective row is the negated constant term.
                self.objective_constant = -value
                continue
            if rname not in self.row_type:
                raise MpsParseError("RHS for unknown row %r" % rname, lineno)
            if rname in self.rhs_seen:
                raise MpsParseError("duplicate RHS for row %r" % rname, lineno)
            self.rhs_seen.add(rname)
            self.rhs[rname] = value

    def ranges_line(self, tokens, lineno):
        for rname, vtok in self._pairs(tokens, lineno, "RANGES"):
            if rname not in self.row_type:
                raise MpsParseError("RANGES for unknown row %r" % rname,
                                    lineno)
            if rname in self.ranges:
                raise MpsParseError("duplicate RANGES for row %r" % rname,
                                    lineno)
            self.ranges[rname] = _parse_number(vtok, lineno)

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
        if cname not in self.col_index:
            raise MpsParseError("bound for unknown column %r" % cname, lineno)
        value = (_parse_number(tokens[2], lineno, bound=True)
                 if needs_value else None)
        self.bound_records.append((btype, self.col_index[cname], value,
                                   lineno))


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
    ended = False

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        if line[0] not in (" ", "\t"):
            tokens = line.split()
            keyword = tokens[0].upper()
            if keyword not in _SECTIONS:
                raise MpsParseError("unknown section %r" % tokens[0], lineno)
            if ended:
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
            elif keyword == "ENDATA":
                ended = True
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
        elif section in ("NAME", None):
            raise MpsParseError("data line outside any section", lineno)

    if not ended:
        raise MpsParseError("missing ENDATA")
    if reader.objective_name is None:
        raise MpsParseError("no objective (N) row")
    if not reader.col_names:
        raise MpsParseError("no columns")

    return _assemble(reader)


def _expand_ranges(reader):
    """Resolve RANGES into a final (kind, name, rhs, coeffs) row list.

    A range ``r`` turns a single row into a two-sided constraint
    ``low <= a@x <= high`` per the classical convention, emitted here as a
    G row (the lower side) plus an L row (the upper side).  The generated
    partner row reuses the coefficients and is named ``<row>__RNG``.
    """
    rows = []
    for rname in reader.row_order:
        kind = reader.row_type[rname]
        b = reader.rhs.get(rname, 0.0)
        coeffs = reader.row_coeffs[rname]
        r = reader.ranges.get(rname)
        if r is None or (kind == "E" and r == 0.0):
            rows.append((kind, rname, b, coeffs))
            continue
        if kind == "G":
            low, high = b, b + abs(r)
        elif kind == "L":
            low, high = b - abs(r), b
        else:
            low, high = (b, b + r) if r > 0 else (b + r, b)
        g_name = rname + "__RNG" if kind == "L" else rname
        l_name = rname if kind == "L" else rname + "__RNG"
        rows.append(("G", g_name, low, coeffs))
        rows.append(("L", l_name, high, coeffs))
    return rows


def _assemble(reader):
    n = len(reader.col_names)
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

    blocks = {"E": ([], [], []), "G": ([], [], []), "L": ([], [], [])}
    counts = {"E": 0, "G": 0, "L": 0}
    names = {"E": [], "G": [], "L": []}
    rhs = {"E": [], "G": [], "L": []}
    for kind, rname, b, coeffs in _expand_ranges(reader):
        i = counts[kind]
        counts[kind] += 1
        names[kind].append(rname)
        rhs[kind].append(b)
        rows_, cols_, vals_ = blocks[kind]
        for j, v in coeffs.items():
            rows_.append(i)
            cols_.append(j)
            vals_.append(v)

    def as_csr(kind):
        rows_, cols_, vals_ = blocks[kind]
        return sp.csr_array((vals_, (rows_, cols_)),
                            shape=(counts[kind], n))

    return RawLP(
        name=reader.name,
        col_names=reader.col_names,
        c=c,
        A_eq=as_csr("E"), b_eq=np.asarray(rhs["E"], dtype=float),
        row_names_eq=names["E"],
        A_ge=as_csr("G"), b_ge=np.asarray(rhs["G"], dtype=float),
        row_names_ge=names["G"],
        A_le=as_csr("L"), b_le=np.asarray(rhs["L"], dtype=float),
        row_names_le=names["L"],
        lower=lower, upper=upper,
        objective_name=reader.objective_name,
        objective_constant=reader.objective_constant,
    )


def _fmt(v):
    # repr of a float is the shortest exact form, so parse(write(lp)) == lp.
    return repr(float(v))


def write_mps(lp):
    """Serialize a :class:`RawLP` back to MPS text.

    Ranges were already expanded at parse time, so the output never has a
    RANGES section; re-parsing the result reproduces the input object.
    """
    out = ["NAME          %s" % lp.name, "ROWS",
           " N  %s" % lp.objective_name]
    for kind, _, _, row_names in lp.blocks():
        for rname in row_names:
            out.append(" %s  %s" % (kind, rname))

    out.append("COLUMNS")
    csc = {kind: A.tocsc() for kind, A, _, _ in lp.blocks()}
    kinds = [(kind, names) for kind, _, _, names in lp.blocks()]
    for j, cname in enumerate(lp.col_names):
        if lp.c[j] != 0.0:
            out.append("    %-10s%-10s%s"
                       % (cname, lp.objective_name, _fmt(lp.c[j])))
        for kind, names in kinds:
            A = csc[kind]
            for k in range(A.indptr[j], A.indptr[j + 1]):
                out.append("    %-10s%-10s%s"
                           % (cname, names[A.indices[k]], _fmt(A.data[k])))

    out.append("RHS")
    if lp.objective_constant != 0.0:
        out.append("    %-10s%-10s%s" % ("RHS", lp.objective_name,
                                         _fmt(-lp.objective_constant)))
    for _, _, b, names in lp.blocks():
        for i, rname in enumerate(names):
            if b[i] != 0.0:
                out.append("    %-10s%-10s%s" % ("RHS", rname, _fmt(b[i])))

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
