"""Parser tests: fixture files, dialect corners, errors, round-trips."""
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from arclp import mps
from arclp.mps import MpsParseError, RawLP, parse_mps, write_mps

from conftest import FIX1_MPS, FIX2_MPS, raw_lps


def test_fixture_dimensions(fix1_text):
    lp = parse_mps(fix1_text)
    assert lp.name == "FIX1"
    assert lp.col_names == ["X1", "X2", "X3"]
    assert lp.objective_name == "COST"
    assert lp.A_eq.shape == (1, 3)
    assert lp.A_ge.shape == (1, 3)
    assert lp.A_le.shape == (1, 3)
    assert lp.n_rows == 3
    assert lp.n_cols == 3


def test_fixture_coefficients(fix1_text):
    lp = parse_mps(fix1_text)
    assert_array_equal(lp.c, [1.0, 2.0, -1.0])
    assert_array_equal(lp.A_le.toarray(), [[1.0, 1.0, 0.0]])
    assert_array_equal(lp.b_le, [4.0])
    assert_array_equal(lp.A_ge.toarray(), [[1.0, 0.0, 0.0]])
    assert_array_equal(lp.b_ge, [1.0])
    assert_array_equal(lp.A_eq.toarray(), [[0.0, -1.0, 1.0]])
    assert_array_equal(lp.b_eq, [7.0])
    assert lp.row_names_le == ["LIM1"]
    assert lp.row_names_ge == ["LIM2"]
    assert lp.row_names_eq == ["MYEQN"]


def test_fixture_bounds(fix1_text):
    lp = parse_mps(fix1_text)
    assert_array_equal(lp.lower, [0.0, -1.0, 0.0])
    assert_array_equal(lp.upper, [4.0, np.inf, np.inf])


def test_missing_rhs_defaults_to_zero(fix2_text):
    lp = parse_mps(fix2_text)
    assert_array_equal(lp.b_eq, [2.0, 0.0])


def test_comments_and_blank_lines_skipped():
    text = FIX1_MPS.replace("ROWS\n", "ROWS\n* a comment line\n\n")
    assert parse_mps(text) == parse_mps(FIX1_MPS)


def test_column_met_again_keeps_its_first_number():
    # A column's lines need not come together: one met again later keeps
    # the number of its first appearance, and the next new column gets
    # the next number.
    lp = parse_mps("NAME T\nROWS\n N COST\n L R1\n L R2\nCOLUMNS\n"
                   "    X COST 1 R1 1\n    Y R1 2\n    X R2 3\n"
                   "    Z COST 5 R2 4\nBOUNDS\n UP BND Z 3\nENDATA\n")
    assert lp.col_names == ["X", "Y", "Z"]
    assert_array_equal(lp.c, [1.0, 0.0, 5.0])
    assert_array_equal(lp.A_le.toarray(), [[1.0, 2.0, 0.0], [3.0, 0.0, 4.0]])
    assert_array_equal(lp.upper, [np.inf, np.inf, 3.0])


def test_objective_constant_from_rhs():
    text = FIX2_MPS.replace("    RHS       R1        2.0\n",
                            "    RHS       R1        2.0\n"
                            "    RHS       OBJ       10.0\n")
    lp = parse_mps(text)
    assert lp.objective_constant == -10.0


def test_fortran_exponent_accepted():
    text = FIX2_MPS.replace("R1        2.0", "R1        2.0D-1")
    lp = parse_mps(text)
    assert_allclose(lp.b_eq, [0.2, 0.0])


def test_rhs_set_name_optional():
    # Drop the RHS set label; values must still land on the right rows.
    text = FIX2_MPS.replace("    RHS       R1        2.0",
                            "    R1        2.0")
    lp = parse_mps(text)
    assert_array_equal(lp.b_eq, [2.0, 0.0])


def test_bound_types():
    text = """\
NAME B
ROWS
 N  OBJ
 G  R1
COLUMNS
    X1        OBJ       1.0        R1        1.0
    X2        OBJ       1.0        R1        1.0
    X3        OBJ       1.0        R1        1.0
    X4        OBJ       1.0        R1        1.0
RHS
    RHS       R1        1.0
BOUNDS
 FX BND       X1        2.5
 FR BND       X2
 MI BND       X3
 UP BND       X4        9.0
 LO BND       X4        0.5
ENDATA
"""
    lp = parse_mps(text)
    assert_array_equal(lp.lower, [2.5, -np.inf, -np.inf, 0.5])
    assert_array_equal(lp.upper, [2.5, np.inf, np.inf, 9.0])


def test_negative_upper_bound_kept_literally():
    # UP with a negative value leaves the default lower bound 0 in
    # place; the contradiction surfaces during standardization.
    text = FIX2_MPS.replace("ENDATA", "BOUNDS\n UP BND       X1        -1.0\n"
                            "ENDATA")
    lp = parse_mps(text)
    assert lp.lower[0] == 0.0
    assert lp.upper[0] == -1.0


def test_infinite_bounds_accepted():
    text = FIX2_MPS.replace("ENDATA", "BOUNDS\n UP BND       X1        inf\n"
                            " LO BND       X2        -1e400\nENDATA")
    lp = parse_mps(text)
    assert_array_equal(lp.lower, [0.0, -np.inf, 0.0])
    assert_array_equal(lp.upper, [np.inf, np.inf, np.inf])


class TestRanges:
    def _base(self, kind, rhs, rng):
        return """\
NAME R
ROWS
 N  OBJ
 %s  ROW1
COLUMNS
    X1        OBJ       1.0        ROW1      1.0
RHS
    RHS       ROW1      %s
RANGES
    RNG       ROW1      %s
ENDATA
""" % (kind, rhs, rng)

    def test_range_on_g_row(self):
        lp = parse_mps(self._base("G", "2.0", "3.0"))
        # G row keeps its name for the lower side, partner takes the tag.
        assert lp.row_names_ge == ["ROW1"]
        assert lp.row_names_le == ["ROW1__RNG"]
        assert_array_equal(lp.b_ge, [2.0])
        assert_array_equal(lp.b_le, [5.0])

    def test_range_on_l_row(self):
        lp = parse_mps(self._base("L", "2.0", "-3.0"))
        assert lp.row_names_le == ["ROW1"]
        assert lp.row_names_ge == ["ROW1__RNG"]
        assert_array_equal(lp.b_le, [2.0])
        assert_array_equal(lp.b_ge, [-1.0])

    def test_range_on_e_row_positive(self):
        lp = parse_mps(self._base("E", "2.0", "3.0"))
        assert lp.A_eq.shape[0] == 0
        assert_array_equal(lp.b_ge, [2.0])
        assert_array_equal(lp.b_le, [5.0])

    def test_range_on_e_row_negative(self):
        lp = parse_mps(self._base("E", "2.0", "-3.0"))
        assert_array_equal(lp.b_ge, [-1.0])
        assert_array_equal(lp.b_le, [2.0])

    def test_zero_range_on_e_row_kept(self):
        lp = parse_mps(self._base("E", "2.0", "0.0"))
        assert lp.A_eq.shape[0] == 1
        assert lp.n_rows == 1


class TestErrors:
    def assert_raises_with_line(self, text, fragment):
        with pytest.raises(MpsParseError, match=fragment):
            parse_mps(text)

    def test_missing_endata(self):
        self.assert_raises_with_line(FIX1_MPS.replace("ENDATA\n", ""),
                                     "ENDATA")

    def test_no_columns(self):
        text = "NAME X\nROWS\n N  OBJ\n E  R1\nCOLUMNS\nRHS\nENDATA\n"
        self.assert_raises_with_line(text, "no columns")

    def test_two_objective_rows(self):
        text = FIX2_MPS.replace(" N  OBJ\n", " N  OBJ\n N  OBJ2\n")
        self.assert_raises_with_line(text, "objective")

    def test_unknown_row_type(self):
        text = FIX2_MPS.replace(" E  R1\n", " Q  R1\n")
        self.assert_raises_with_line(text, "row type")

    def test_unknown_row_in_columns(self):
        text = FIX2_MPS.replace("X1        R2        1.0",
                                "X1        NOPE      1.0")
        self.assert_raises_with_line(text, "unknown row")

    def test_duplicate_matrix_entry(self):
        text = FIX2_MPS.replace(
            "    X1        OBJ       1.0        R1        1.0\n",
            "    X1        OBJ       1.0        R1        1.0\n"
            "    X1        R1        2.0\n")
        self.assert_raises_with_line(text, "duplicate entry")

    def test_duplicate_rhs(self):
        text = FIX2_MPS.replace("    RHS       R1        2.0\n",
                                "    RHS       R1        2.0\n"
                                "    RHS       R1        3.0\n")
        self.assert_raises_with_line(text, "duplicate RHS")

    def test_duplicate_objective_rhs(self):
        # Like a constraint row's, the objective row takes one RHS.
        text = FIX2_MPS.replace("    RHS       R1        2.0\n",
                                "    RHS       R1        2.0\n"
                                "    RHS       OBJ       10.0\n"
                                "    RHS       OBJ       7.0\n")
        with pytest.raises(MpsParseError,
                           match="line 14: duplicate RHS for row 'OBJ'"):
            parse_mps(text)

    @pytest.mark.parametrize("rows", [" N  R1\n E  R1\n",
                                      " E  R1\n N  R1\n"])
    def test_objective_shares_a_row_name(self, rows):
        # In either order; an N row second would empty the E row.
        text = ("NAME X\nROWS\n" + rows
                + "COLUMNS\n    X1        R1        1.0\nENDATA\n")
        with pytest.raises(MpsParseError,
                           match="line 4: duplicate row name 'R1'"):
            parse_mps(text)

    def test_data_lines_and_no_header(self):
        with pytest.raises(MpsParseError,
                           match="line 2: data line outside any section"):
            parse_mps("* comment\n    X1        R1        5.0\n")

    def test_data_line_after_endata(self):
        text = FIX2_MPS + "    X1        R1        5.0\n"
        with pytest.raises(MpsParseError,
                           match="line 14: content after ENDATA"):
            parse_mps(text)

    def test_integer_marker_rejected(self):
        text = FIX2_MPS.replace(
            "COLUMNS\n",
            "COLUMNS\n    M1        'MARKER'   'INTORG'\n")
        self.assert_raises_with_line(text, "marker")

    def test_unknown_bound_type(self):
        text = FIX1_MPS.replace(" UP BND", " UQ BND")
        self.assert_raises_with_line(text, "bound type")

    def test_bound_for_unknown_column(self):
        text = FIX1_MPS.replace(" UP BND       X1", " UP BND       X9")
        self.assert_raises_with_line(text, "unknown column")

    def test_sections_out_of_order(self):
        text = ("NAME X\nCOLUMNS\n    X1        OBJ       1.0\n"
                "ROWS\n N  OBJ\nENDATA\n")
        self.assert_raises_with_line(text, "section")

    def test_bad_number(self):
        text = FIX2_MPS.replace("R1        2.0", "R1        2.O")
        self.assert_raises_with_line(text, "numeric")

    def test_error_carries_line_number(self):
        text = FIX2_MPS.replace("R1        2.0", "R1        2.O")
        with pytest.raises(MpsParseError) as info:
            parse_mps(text)
        assert info.value.lineno is not None
        assert "line %d" % info.value.lineno in str(info.value)


class TestRoundTrip:
    def test_fixture_round_trip(self):
        for text in (FIX1_MPS, FIX2_MPS):
            lp = parse_mps(text)
            assert parse_mps(write_mps(lp)) == lp

    def test_round_trip_exact_floats(self):
        # Awkward values must survive exactly, not to a print precision.
        text = FIX2_MPS.replace("R1        2.0", "R1        0.1")
        lp = parse_mps(text)
        again = parse_mps(write_mps(lp))
        assert again.b_eq[0] == lp.b_eq[0]

    def test_netlib_round_trip(self, netlib_dir):
        lp = parse_mps((netlib_dir / "afiro.mps").read_text())
        assert parse_mps(write_mps(lp)) == lp

    @settings(max_examples=200, deadline=None)
    @given(raw=raw_lps())
    def test_random_round_trip(self, raw):
        # Draws include columns with zero cost and no entry, which must
        # keep a line of their own.
        assert parse_mps(write_mps(raw)) == raw


def test_netlib_files_parse(netlib_dir):
    sizes = {}
    for path in sorted(netlib_dir.glob("*.mps")):
        lp = parse_mps(path.read_text())
        assert lp.n_rows > 0 and lp.n_cols > 0
        sizes[path.stem] = (lp.n_rows, lp.n_cols)
    assert sizes["afiro"] == (27, 32)
    assert sizes["kb2"] == (43, 41)


def _long_lp():
    """700 columns, each with a cost and entries in two of 30 L rows, and
    an upper bound on each: its MPS text runs to 2867 lines."""
    n, m = 700, 30
    j = np.arange(n)
    # 6j + 3 is never a multiple of 30, so a column's two rows differ.
    A_le = sp.csr_array((np.repeat([1.0, 2.0], n),
                         (np.concatenate([j % m, (7 * j + 3) % m]),
                          np.concatenate([j, j]))), shape=(m, n))
    empty = sp.csr_array((0, n))
    return RawLP(name="LONG", col_names=["X%d" % k for k in range(n)],
                 c=np.ones(n), A_eq=empty, b_eq=np.zeros(0), row_names_eq=[],
                 A_ge=empty, b_ge=np.zeros(0), row_names_ge=[],
                 A_le=A_le, b_le=np.full(m, 5.0),
                 row_names_le=["R%d" % i for i in range(m)],
                 lower=np.zeros(n), upper=np.full(n, 9.0))


LONG_LINES = write_mps(_long_lp()).splitlines()


def _line_of(*tokens):
    """1-based number of the first line of the long text that starts with
    ``tokens``."""
    return next(k for k, line in enumerate(LONG_LINES, start=1)
                if line.split()[:len(tokens)] == list(tokens))


def _long_text(edits):
    """The long text with ``{lineno: replacement lines}`` applied; the
    replacement holds the old line when lines are inserted before it."""
    lines = list(LONG_LINES)
    for lineno in sorted(edits, reverse=True):
        lines[lineno - 1:lineno] = edits[lineno]
    return "\n".join(lines) + "\n"


COST = _line_of("X500", "COST")     # X500's cost line; its entries follow
ENTRY = COST + 1
RHS_R17 = _line_of("RHS", "R17")
BOUNDS = _line_of("BOUNDS")
BOUND_X300 = _line_of("UP", "BND", "X300")
ENTRY_ROW = LONG_LINES[ENTRY - 1].split()[1]


def _entry(*fields):
    return "    " + "  ".join(fields)


class TestErrorsPastLine1000:
    """Each body error, placed past line 1000 of a 2867-line text, gives
    its exact message and line."""

    @pytest.mark.parametrize("edits, lineno, message", [
        ({ENTRY: [_entry("X500", ENTRY_ROW, "1.2.3")]}, ENTRY,
         "bad numeric field '1.2.3'"),
        ({ENTRY: [_entry("X500", ENTRY_ROW, "nan")]}, ENTRY,
         "non-finite numeric field 'nan'"),
        ({ENTRY: [_entry("X500", ENTRY_ROW, "-inf")]}, ENTRY,
         "non-finite numeric field '-inf'"),
        ({ENTRY: [_entry("X500", "NOPE", "1.0")]}, ENTRY,
         "unknown row 'NOPE'"),
        ({ENTRY: [LONG_LINES[ENTRY - 1]] * 2}, ENTRY + 1,
         "duplicate entry for row '%s', column 'X500'" % ENTRY_ROW),
        ({COST: [LONG_LINES[COST - 1]] * 2}, COST + 1,
         "duplicate objective entry for column 'X500'"),
        ({ENTRY: [LONG_LINES[ENTRY - 1] + "  R1"]}, ENTRY,
         "COLUMNS line needs (row, value) pairs"),
        ({ENTRY: [_entry("MARKER", "'MARKER'", "'INTORG'"),
                  LONG_LINES[ENTRY - 1]]}, ENTRY,
         "integer markers are not supported"),
        ({RHS_R17: [LONG_LINES[RHS_R17 - 1]] * 2}, RHS_R17 + 1,
         "duplicate RHS for row 'R17'"),
        ({BOUNDS: ["RANGES", _entry("RNG", "NOPE", "1.0"), "BOUNDS"]},
         BOUNDS + 1, "RANGES for unknown row 'NOPE'"),
        ({BOUND_X300: [" UP BND       X9999     9.0"]}, BOUND_X300,
         "bound for unknown column 'X9999'"),
        ({BOUND_X300: [" UP BND       X300      9.0       1.0"]},
         BOUND_X300, "malformed BOUNDS line"),
    ])
    def test_message_and_line(self, edits, lineno, message):
        assert len(LONG_LINES) > 2000 and lineno > 1000
        with pytest.raises(MpsParseError) as info:
            parse_mps(_long_text(edits))
        assert str(info.value) == "line %d: %s" % (lineno, message)
        assert info.value.lineno == lineno

    def test_unedited_text_parses(self):
        assert parse_mps(_long_text({})) == _long_lp()

    @pytest.mark.parametrize("edits, lineno, message", [
        # Errors in two sections: the earlier line wins.
        ({ENTRY: [_entry("X500", ENTRY_ROW, "1.2.3")],
          BOUND_X300: [" UP BND       X9999     9.0"]}, ENTRY,
         "bad numeric field '1.2.3'"),
        # Two errors on one line: a pair's number is read before its row,
        ({ENTRY: [_entry("X500", "NOPE", "1.2.3")]}, ENTRY,
         "bad numeric field '1.2.3'"),
        # and an earlier pair before a later one.
        ({ENTRY: [_entry("X500", "NOPE", "1.0", "R3", "1.2.3")]}, ENTRY,
         "unknown row 'NOPE'"),
        # A body error before a bad header, and a bad header before one.
        ({ENTRY: [_entry("X500", ENTRY_ROW, "1.2.3")],
          BOUNDS: ["BADSECTION", "BOUNDS"]}, ENTRY,
         "bad numeric field '1.2.3'"),
        ({1200: ["BADSECTION", LONG_LINES[1199]],
          ENTRY: [_entry("X500", ENTRY_ROW, "1.2.3")]}, 1200,
         "unknown section 'BADSECTION'"),
    ])
    def test_first_error_wins(self, edits, lineno, message):
        with pytest.raises(MpsParseError) as info:
            parse_mps(_long_text(edits))
        assert str(info.value) == "line %d: %s" % (lineno, message)


def _relayout(text, rnd):
    """The same LP in another layout: COLUMNS and RHS lines of 3 or 5
    tokens, tabs, comment and blank lines, CRLF line ends, RHS set names
    present or dropped and Fortran ``D`` exponents."""
    lines = text.splitlines()
    out = []
    section = None
    k = 0
    while k < len(lines):
        tokens = lines[k].split()
        k += 1
        if not lines[k - 1].startswith(" "):
            section = tokens[0]
            out.append(lines[k - 1])
            continue
        values = []
        if section in ("COLUMNS", "RHS"):
            if (k < len(lines) and lines[k].startswith(" ")
                    and lines[k].split()[0] == tokens[0] and rnd.random() < 0.5):
                tokens += lines[k].split()[1:]
                k += 1
            values = range(2, len(tokens), 2)
        elif len(tokens) == 4:
            values = [3]
        tokens = list(tokens)
        for v in values:
            if rnd.random() < 0.3:
                tokens[v] = (tokens[v].replace("e", rnd.choice("Dd"))
                             if "e" in tokens[v]
                             else tokens[v] + rnd.choice(["D0", "d+00"]))
        if section == "RHS" and rnd.random() < 0.5:
            tokens = tokens[1:]
        out.append(rnd.choice([" ", "\t", "    "])
                   + rnd.choice([" ", "   ", "\t", " \t "]).join(tokens))
        if rnd.random() < 0.1:
            out.append(rnd.choice(["", "* comment", "   * comment", "\t"]))
    end = rnd.choice(["\n", "\r\n"])
    return end.join(out) + end


@settings(max_examples=200, deadline=None)
@given(raw=raw_lps(), rnd=st.randoms(use_true_random=False))
def test_layout_does_not_change_the_lp(raw, rnd):
    assert parse_mps(_relayout(write_mps(raw), rnd)) == raw


def test_code_point_kinds_are_those_of_str_split_and_splitlines():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    blank = np.fromiter(map(str.isspace, every), bool, len(every))
    pieces = every.splitlines(keepends=True)
    ends = np.cumsum(np.fromiter(map(len, pieces), int, len(pieces))) - 1
    kinds = mps._KINDS.take(np.arange(len(every)), mode="clip")
    assert_array_equal(kinds >= 2, blank)
    assert_array_equal(np.flatnonzero(kinds >= 4), ends[:-1])
    # The classes that the reader tells apart beyond whitespace.
    assert ([kinds[ord(ch)] for ch in "*A\t \x1f\r\n\x0b"]
            == [1, 0, 2, 2, 3, 4, 5, 6])


# Characters that str.split takes as whitespace: those that str.splitlines
# does not take as line ends, and those that it does.
BLANKS = [" ", "\t", "\x1f", "\xa0", "\u3000"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
             "\x85", "\u2028"]
BAD_TOKENS = ["1.2.3", "nan", "-inf", "1D5", "NOPE", "'MARKER'", "*X",
              "UQ", "N", "FR", "ROWS", "BOUNDS"]


def _scramble(text, rnd):
    """``text`` with its tokens split by random whitespace, a random end
    on each line, blank and comment lines between its lines, and, at a
    random rate, malformed edits: tokens dropped or replaced, lines
    repeated or dropped or broken in two, and lines moved to or from
    column one."""
    rate = rnd.choice([0.0, 0.0, 0.01, 0.05])
    out = []
    for line in text.splitlines():
        tokens = line.split()
        edit = rnd.random() / rate if rate else 1.0
        if edit < 0.2:
            continue
        if edit < 0.4 and tokens:
            del tokens[rnd.randrange(len(tokens))]
        elif edit < 0.6 and tokens:
            tokens[rnd.randrange(len(tokens))] = rnd.choice(BAD_TOKENS)
        indent = ""
        if (line[:1] == " ") != (0.6 <= edit < 0.7):
            indent = rnd.choice([" ", "\t"]) + "".join(
                rnd.choices(BLANKS, k=rnd.randint(0, 2)))
        elif rnd.random() < 0.05:
            indent = rnd.choice(BLANKS[2:])
        seps = [rnd.choice(LINE_ENDS if 0.7 <= edit < 0.8 else BLANKS)
                if rnd.random() < 0.1 else " " * rnd.randint(1, 4)
                for _ in tokens]
        new = indent + "".join(t + s for t, s in zip(tokens, seps))
        out.append(new.rstrip(" ") if rnd.random() < 0.5 else new)
        if 0.8 <= edit < 1.0:
            out.append(new)
        if rnd.random() < 0.05:
            out.append(rnd.choice(["", " ", "\t \xa0", "*", "* a comment",
                                   "  * ROWS", "**", "\x1f* x"]))
    ends = rnd.choices(LINE_ENDS, k=len(out))
    if ends and rnd.random() < 0.3:
        ends[-1] = ""
    return "".join(map(str.__add__, out, ends))


def _canonical(text):
    """``text`` with each line's tokens joined by single spaces, behind
    two spaces when the line starts with a blank or a tab."""
    return "\n".join(("  " if line[:1] in (" ", "\t") else "")
                     + " ".join(line.split()) for line in text.splitlines())


def _parsed(text):
    """The bytes of every field of ``parse_mps(text)``, or the message and
    line of the error it raises."""
    try:
        lp = parse_mps(text)
    except MpsParseError as exc:
        return str(exc), exc.lineno
    fields = [lp.name, lp.col_names, lp.objective_name,
              np.float64(lp.objective_constant).tobytes()]
    fields += [a.tobytes() for a in (lp.c, lp.lower, lp.upper)]
    for _, A, b, names in lp.blocks():
        fields += [A.shape, A.indptr.tobytes(), A.indices.tobytes(),
                   A.data.tobytes(), b.tobytes(), names]
    return fields


@settings(deadline=None)
@given(raw=raw_lps(), rnd=st.randoms(use_true_random=False))
def test_whitespace_and_line_ends_are_those_of_str_split(raw, rnd):
    text = _scramble(write_mps(raw), rnd)
    assert _parsed(text) == _parsed(_canonical(text))
