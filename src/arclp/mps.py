"""Reader and writer for linear programs in MPS format (Netlib dialect).

The supported subset is the classic fixed-format layout used throughout the
Netlib collection: NAME, ROWS, COLUMNS, RHS, RANGES, BOUNDS and ENDATA
sections, one N (objective) row, bound types LO/UP/FX/FR/MI/PL, and
Fortran-style ``D`` exponents.  Section keywords start in column one; data
lines are indented and whitespace-delimited.  Integer markers (MARKER /
INTORG) and OBJSENSE sections are rejected rather than silently ignored,
as are ``nan`` in any numeric field and infinite values outside BOUNDS.

The reader finds the lines of the text and their tokens with array
operations over its code points: lines end as with ``str.splitlines``,
and tokens are separated by the whitespace of ``str.split``.  It then
reads each section in bulk: one ``str.split`` of the section's text gives
its tokens, names map to their indices with one dict lookup each, all
numeric fields convert in one array conversion, and every check runs as a
mask over the whole section.  An error is located only once a mask holds
one: the first failing line, and on that line the first check in the
order of a line-by-line reader, so the message and the line number are
the ones such a reader gives.  Headers are checked in file order, and each
body is read before the next header is checked.  The E, G and L blocks
pick their rows from one CSR matrix of all constraint rows.  The writer
stacks the blocks back into one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np
import scipy.sparse as sp

__all__ = ["MpsParseError", "RawLP", "parse_mps", "write_mps"]

_ROW_KINDS = frozenset(["N", "E", "G", "L"])
# Bound types by code, and whether each sets the lower and the upper bound.
# The first three set them to their value, the others to an infinity.
_BOUND_TYPES = ("LO", "UP", "FX", "FR", "MI", "PL")
_BOUND_CODES = {btype: code for code, btype in enumerate(_BOUND_TYPES)}
_SETS_LOWER = np.array([True, False, True, True, True, False])
_SETS_UPPER = np.array([False, True, True, True, False, True])
_SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")
_MARKERS = ["MARKER", "'MARKER'"]
# Characters by code point: 0 and 1 ("*") are token characters, 2 (blank or
# tab) and up the whitespace of str.split, 4 ("\r"), 5 ("\n") and 6 the line
# ends of str.splitlines.  The last entry stands for all code points past it.
_KINDS = np.zeros(0x3002, dtype=np.uint8)
_KINDS[[42, 9, 32, 13, 10]] = [1, 2, 2, 4, 5]
_KINDS[[31, 0xa0, 0x1680, *range(0x2000, 0x200b), 0x202f, 0x205f, 0x3000]] = 3
_KINDS[[11, 12, 28, 29, 30, 0x85, 0x2028, 0x2029]] = 6
_CHUNK = 1 << 14    # characters classified at a time, to bound temporaries
# Row indices of the objective row and of a name that is no row.
_OBJECTIVE, _UNKNOWN = -1, -2


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


def _number_error(token):
    """The message for a numeric field that the reader rejects."""
    try:
        float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        return "bad numeric field %r" % token
    return "non-finite numeric field %r" % token


def _float_or_nan(token):
    try:
        return float(token)
    except ValueError:
        return math.nan


def _numbers(tokens, bound=False):
    """Convert numeric fields in one go; return the values and a mask of
    the fields that fail.

    A field fails when it is no number or ``nan``, or when it is infinite
    and not a bound; either would otherwise reach the standard form
    silently.  Netlib files use Fortran ``D`` exponents in a few places;
    they are rewritten only when the plain conversion fails.
    """
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:
        # Tokens hold no line break, so one join rewrites them all.
        tokens = ("\n".join(tokens).replace("D", "E").replace("d", "e")
                  .split("\n"))
        try:
            values = np.array(tokens, dtype=float)
        except ValueError:
            values = np.array([_float_or_nan(t) for t in tokens])
    return values, (np.isnan(values) if bound else ~np.isfinite(values))


def _sort_repeats(keys, among):
    """Order the items in ``among`` by key, and mark those whose key equals
    an earlier item's.

    The sort is stable, so that of equal keys the first one stays first
    and the later ones are the repeats.  Returns the order and the mask.
    """
    idx = among.nonzero()[0]
    order = idx[np.argsort(keys[idx], kind="stable")]
    ordered = keys[order]
    repeats = np.zeros(len(keys), dtype=bool)
    repeats[order[1:][ordered[1:] == ordered[:-1]]] = True
    return order, repeats


def _first_failure(checks):
    """``(k, message)`` of the first failing item, else the number of items
    and None.  ``checks`` holds ``(mask, message)`` pairs in the order in
    which one item is checked, so the earliest item wins, and on one item
    the earliest check."""
    first = (len(checks[0][0]), None)
    for mask, message in checks:
        if mask.any() and mask.argmax() < first[0]:
            first = (int(mask.argmax()), message)
    return first


def _raise_first(checks, linenos, line_of=None):
    """Raise the first failure of ``checks``, on the line of its item.

    ``message(k)`` formats item ``k``'s error; ``line_of[k]`` is the item's
    line in the section (the item is a line when ``line_of`` is None).
    """
    k, message = _first_failure(checks)
    if message is not None:
        line = k if line_of is None else line_of[k]
        raise MpsParseError(message(k), int(linenos[line]))


def _scan(text):
    """Per line of ``text`` (as by ``str.splitlines``, plus a blank one if
    the text ends with a line end): its offset (and the text's length
    after the last), its number of ``str.split`` tokens, and its role: 1
    for a header, which starts with neither a blank nor a tab, 2 for a
    data line, which does, and 0 for a blank line or a comment (``*...``)."""
    kind = np.empty(len(text), dtype=np.uint8)
    for i in range(0, len(text), _CHUNK):
        code = text[i:i + _CHUNK].encode("utf-32-le", "surrogatepass")
        _KINDS.take(np.frombuffer(code, "<u4"), mode="clip",
                    out=kind[i:i + _CHUNK])
    ends = (kind >= 4).nonzero()[0]
    # A "\r\n" pair ends one line, at its "\n".
    ends = ends[(kind[ends] != 4)
                | (kind[np.minimum(ends + 1, len(kind) - 1)] != 5)]
    start = kind < 2
    start[1:] &= kind[:-1] >= 2
    tokens = start.nonzero()[0]
    offset = np.concatenate(([0], ends + 1, [len(kind)]))
    at = np.searchsorted(tokens, offset)
    count = np.diff(at)
    filled = (count > 0).nonzero()[0]
    role = np.zeros(len(count), dtype=np.int8)
    role[filled] = np.where(kind[tokens[at[filled]]] == 1, 0,
                            np.where(kind[offset[filled]] == 2, 2, 1))
    return offset, count, role


def _section(text, lines, begin, end):
    """The data lines among lines ``begin`` to ``end`` (exclusive): their
    tokens in one array, split at once, the number of tokens on each line,
    the index of each line's first token, and the 1-based line numbers."""
    offset, count, role = lines
    tokens = text[offset[begin]:offset[end]].split()
    flat = np.fromiter(tokens, object, len(tokens))
    count, data = count[begin:end], role[begin:end] == 2
    lens = count[data]
    if lens.sum() < len(flat):      # comment lines
        flat = flat[np.repeat(data, count)]
    return flat, lens, np.cumsum(lens) - lens, data.nonzero()[0] + begin + 1


def _pairs(flat, skip, count):
    """Row tokens, value tokens and lines of the pairs left once the tokens
    at ``skip`` are dropped; ``count`` holds each line's number of pairs."""
    keep = np.ones(len(flat), dtype=bool)
    keep[skip] = False
    rest = flat[keep][:2 * count.sum()]
    return (rest[0::2].tolist(), rest[1::2].tolist(),
            np.repeat(np.arange(len(count)), count))


def _read_rows(flat, lens, start, linenos):
    """Read ROWS: the objective row's name, and the names and kinds of the
    constraint rows.  ``rows`` maps each row name to its index among the
    constraint rows, or to ``_OBJECTIVE``."""
    line_checks = [(lens != 2,
                    lambda k: "ROWS line needs a type and a name")]
    stop = _first_failure(line_checks)[0]
    kinds = list(map(str.upper, flat[0:2 * stop:2].tolist()))
    names = flat[1:2 * stop:2].tolist()
    objective = np.fromiter(map("N".__eq__, kinds), bool, stop)
    first_line = dict(zip(reversed(names), range(stop - 1, -1, -1)))
    _raise_first([
        (objective & (np.cumsum(objective) > 1),
         lambda k: "multiple objective (N) rows"),
        (~np.fromiter(map(_ROW_KINDS.__contains__, kinds), bool, stop),
         lambda k: "unknown row type %r" % flat[start[k]]),
        (np.fromiter(map(first_line.__getitem__, names), np.intp, stop)
         != np.arange(stop),
         lambda k: "duplicate row name %r" % names[k]),
    ], linenos)
    _raise_first(line_checks, linenos)
    row_names = list(compress(names, ~objective))
    rows = dict(zip(row_names, range(len(row_names))))
    name = names[int(objective.argmax())] if objective.any() else None
    if name is not None:
        rows[name] = _OBJECTIVE
    return name, row_names, np.array(kinds, dtype=str)[~objective], rows


def _read_columns(flat, lens, start, linenos, rows, markers):
    """Read COLUMNS: the columns in order of first appearance, the costs,
    and the row, the column and the value of every matrix entry, row by
    row in ascending columns.  ``markers`` says whether the text holds
    the word MARKER."""
    marked = np.zeros(len(lens), dtype=bool)
    if markers:
        marker = np.isin(flat, _MARKERS)
        marked[np.repeat(np.arange(len(lens)), lens)[marker]] = True
    line_checks = [
        (marked, lambda k: "integer markers are not supported"),
        ((lens < 3) | (lens % 2 == 0),
         lambda k: "COLUMNS line needs (row, value) pairs")]
    stop = _first_failure(line_checks)[0]
    lens, start = lens[:stop], start[:stop]
    names = flat[start]
    row_tokens, value_tokens, line_of = _pairs(flat, start, (lens - 1) // 2)
    # A column's lines come together: look a name up where it changes, and
    # close the gaps in the numbers that a column met again leaves.
    new = np.ones(stop, dtype=bool)
    new[1:] = names[1:] != names[:-1]
    runs = names[new].tolist()
    cols = {}
    j = np.fromiter(map(cols.setdefault, runs, range(len(runs))), np.intp,
                    len(runs))
    if len(cols) < len(runs):
        j = np.unique(j, return_inverse=True)[1]
        cols = dict(zip(cols, range(len(cols))))
    j = j[np.cumsum(new) - 1][line_of]
    i = np.fromiter(map(rows.get, row_tokens, repeat(_UNKNOWN)), np.intp,
                    len(row_tokens))
    values, bad = _numbers(value_tokens)
    cost = i == _OBJECTIVE
    # One sort of the entries' keys finds the repeats and orders the
    # entries for the CSR matrix.
    entries, repeat_entry = _sort_repeats(i * len(cols) + j, i >= 0)
    _raise_first([
        (bad, lambda p: _number_error(value_tokens[p])),
        (_sort_repeats(j, cost)[1],
         lambda p: "duplicate objective entry for column %r"
         % names[line_of[p]]),
        (i == _UNKNOWN, lambda p: "unknown row %r" % row_tokens[p]),
        (repeat_entry, lambda p: "duplicate entry for row %r, column %r"
         % (row_tokens[p], names[line_of[p]])),
    ], linenos, line_of)
    _raise_first(line_checks, linenos)
    c = np.zeros(len(cols))
    c[j[cost]] = values[cost]
    return cols, c, (i[entries], j[entries], values[entries])


def _read_pairs(section, flat, lens, start, linenos, rows):
    """Read RHS or RANGES: the row index (``_OBJECTIVE`` for the objective
    row) and the value of every (row, value) pair.

    The leading set name is optional in the wild; it is taken as absent
    when a line has an even number of tokens and starts with a row name.
    """
    named = ~(np.fromiter(map(rows.__contains__, flat[start].tolist()), bool,
                          len(lens)) & (lens % 2 == 0))
    body = lens - named
    line_checks = [((body == 0) | (body % 2 != 0),
                    lambda k: "%s line needs (row, value) pairs" % section)]
    stop = _first_failure(line_checks)[0]
    row_tokens, value_tokens, line_of = _pairs(
        flat, start[:stop][named[:stop]], body[:stop] // 2)
    i = np.fromiter(map(rows.get, row_tokens, repeat(_UNKNOWN)), np.intp,
                    len(row_tokens))
    values, bad = _numbers(value_tokens)
    # The objective row takes an RHS (its constant) but no range.
    unknown = i == _UNKNOWN if section == "RHS" else i < 0
    number, known, once = (
        (bad, lambda p: _number_error(value_tokens[p])),
        (unknown, lambda p: "%s for unknown row %r"
         % (section, row_tokens[p])),
        (_sort_repeats(i, ~unknown)[1], lambda p: "duplicate %s for row %r"
         % (section, row_tokens[p])))
    checks = ([number, known, once] if section == "RHS"
              else [known, once, number])
    _raise_first(checks, linenos, line_of)
    _raise_first(line_checks, linenos)
    return i, values


def _read_bounds(flat, lens, start, linenos, cols):
    """Read BOUNDS: the type code, the column index and the value (nan
    for FR, MI and PL) of every line.

    An optional bound-set name sits between the type and the column.
    """
    types = flat[start].tolist()
    codes = np.fromiter(map(_BOUND_CODES.get, map(str.upper, types),
                            repeat(-1)), np.intp, len(lens))
    has_value = codes < 3
    want = 2 + has_value
    named = lens == want + 1
    line_checks = [
        (codes < 0, lambda k: "unknown bound type %r" % types[k]),
        ((lens != want) & ~named, lambda k: "malformed BOUNDS line")]
    stop = _first_failure(line_checks)[0]
    named, has_value = named[:stop], has_value[:stop]
    column = start[:stop] + 1 + named
    col_tokens = flat[column].tolist()
    value_tokens = flat[(column + 1)[has_value]].tolist()
    j = np.fromiter(map(cols.get, col_tokens, repeat(-1)), np.intp, stop)
    values = np.full(stop, np.nan)
    bad = np.zeros(stop, dtype=bool)
    values[has_value], bad[has_value] = _numbers(value_tokens, bound=True)
    value_of = np.cumsum(has_value) - 1
    _raise_first([
        (j < 0, lambda k: "bound for unknown column %r" % col_tokens[k]),
        (bad, lambda k: _number_error(value_tokens[value_of[k]])),
    ], linenos)
    _raise_first(line_checks, linenos)
    return codes[:stop], j, values


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

    lines = offset, count, role = _scan(text)
    heads = (role == 1).nonzero()[0].tolist()
    ends = heads[1:] + [len(count)]
    # The first data line after the start and after each header, or the
    # line count; it lies in that stretch only if before the stretch ends.
    data = np.append((role == 2).nonzero()[0], len(count))
    firsts = data[data.searchsorted([0] + heads)].tolist()
    markers = "MARKER" in text

    # What an absent section leaves.
    no_index, no_values = np.zeros(0, dtype=np.intp), np.zeros(0)
    name = ""
    objective, row_names, kinds, rows = None, [], np.zeros(0, str), {}
    cols, c, entries = {}, no_values, (no_index, no_index, no_values)
    rhs = ranges = (no_index, no_values)
    bounds = (no_index, no_index, no_values)

    if firsts[0] < (heads[0] if heads else len(count)):
        raise MpsParseError("data line outside any section", firsts[0] + 1)
    seen = []
    for head, end, first in zip(heads, ends, firsts[1:]):
        lineno = head + 1
        tokens = text[offset[head]:offset[lineno]].split()
        keyword = tokens[0].upper()
        if keyword not in _SECTIONS:
            raise MpsParseError("unknown section %r" % tokens[0], lineno)
        if seen[-1:] == ["ENDATA"]:
            raise MpsParseError("content after ENDATA", lineno)
        if seen and _SECTIONS.index(keyword) <= _SECTIONS.index(seen[-1]):
            raise MpsParseError("section %s out of order" % keyword, lineno)
        if keyword in ("COLUMNS", "RHS", "RANGES", "BOUNDS") and \
                "ROWS" not in seen:
            raise MpsParseError("section %s before ROWS" % keyword, lineno)
        seen.append(keyword)

        if keyword == "NAME":
            name = tokens[1] if len(tokens) > 1 else ""
        if keyword in ("NAME", "ENDATA"):
            if first < end:
                raise MpsParseError(
                    "content after ENDATA" if keyword == "ENDATA"
                    else "data line outside any section", first + 1)
            continue
        body = _section(text, lines, lineno, end)
        if keyword == "ROWS":
            objective, row_names, kinds, rows = _read_rows(*body)
        elif keyword == "COLUMNS":
            cols, c, entries = _read_columns(*body, rows, markers)
        elif keyword == "RHS":
            rhs = _read_pairs("RHS", *body, rows)
        elif keyword == "RANGES":
            ranges = _read_pairs("RANGES", *body, rows)
        else:
            bounds = _read_bounds(*body, cols)
        del body    # free the section's tokens before the next is split

    if seen[-1:] != ["ENDATA"]:
        raise MpsParseError("missing ENDATA")
    if objective is None:
        raise MpsParseError("no objective (N) row")
    if not cols:
        raise MpsParseError("no columns")

    return _assemble(name, objective, row_names, kinds, list(cols), c,
                     entries, rhs, ranges, bounds)


def _set_last(target, idx, values):
    """``target[idx] = values`` item by item: where an index repeats, its
    last value wins."""
    last = ~_sort_repeats(idx[::-1], np.ones(len(idx), dtype=bool))[1][::-1]
    target[idx[last]] = values[last]


def _assemble(name, objective, row_names, kinds, col_names, c, entries, rhs,
              ranges, bounds):
    """Build the :class:`RawLP` from the sections' arrays.

    The entries come row by row in ascending columns, as in one CSR
    matrix of all constraint rows, and each block picks its rows from
    them.  A range ``r`` turns a single row into a two-sided constraint
    ``low <= a@x <= high`` per the classical convention, picked as a G
    row (the lower side) and an L row (the upper side).  The generated
    partner row is named ``<row>__RNG``.
    """
    n, m = len(col_names), len(row_names)
    i, j, values = entries
    per_row = np.bincount(i, minlength=m)

    rhs_rows, rhs_values = rhs
    on_objective = rhs_rows == _OBJECTIVE
    b = np.zeros(m)
    b[rhs_rows[~on_objective]] = rhs_values[~on_objective]
    # RHS on the objective row is the negated constant term.
    constant = (-float(rhs_values[on_objective][0]) if on_objective.any()
                else 0.0)
    is_e, is_g, is_l = kinds == "E", kinds == "G", kinds == "L"
    ranged = np.zeros(m, dtype=bool)
    low = high = b
    if ranges[0].size:
        r = np.zeros(m)
        r[ranges[0]] = ranges[1]
        ranged[ranges[0]] = True
        ranged &= ~is_e | (r != 0.0)
        spread = np.abs(r)
        low = np.where(is_g, b, np.where(is_l, b - spread,
                                         np.where(r > 0, b, b + r)))
        high = np.where(is_g, b + spread, np.where(is_l, b,
                                                   np.where(r > 0, b + r, b)))
    all_names = np.array(row_names, dtype=object)

    def pick(in_block, rhs, tagged):
        idx = in_block.nonzero()[0]
        take = in_block[i]
        indptr = np.zeros(len(idx) + 1, dtype=np.intp)
        np.cumsum(per_row[idx], out=indptr[1:])
        A = sp.csr_array((values[take], j[take], indptr),
                         shape=(len(idx), n))
        picked, tagged = all_names[idx], tagged[idx]
        picked[tagged] = picked[tagged] + "__RNG"
        return A, rhs[idx], picked.tolist()

    # No E row left in its block is ranged, so none is tagged.
    A_eq, b_eq, r_eq = pick(is_e & ~ranged, b, ranged)
    A_ge, b_ge, r_ge = pick(is_g | ranged, np.where(ranged, low, b),
                            ranged & is_l)
    A_le, b_le, r_le = pick(is_l | ranged, np.where(ranged, high, b),
                            ranged & ~is_l)

    codes, cols, bound_values = bounds
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    if codes.size:
        valued = codes < 3
        sets = _SETS_LOWER[codes]
        _set_last(lower, cols[sets],
                  np.where(valued, bound_values, -np.inf)[sets])
        sets = _SETS_UPPER[codes]
        _set_last(upper, cols[sets],
                  np.where(valued, bound_values, np.inf)[sets])
    return RawLP(
        name=name, col_names=col_names, c=c,
        A_eq=A_eq, b_eq=b_eq, row_names_eq=r_eq,
        A_ge=A_ge, b_ge=b_ge, row_names_ge=r_ge,
        A_le=A_le, b_le=b_le, row_names_le=r_le,
        lower=lower, upper=upper,
        objective_name=objective, objective_constant=constant,
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
