"""The two text readers against their line-by-line oracles.

``load_contacts`` and ``load_edgelist`` read a clean file with
``np.loadtxt`` and any other with a Python loop over its lines.  Whichever
path a file takes, the result, the warnings (in order) and the error must be
those of one loop over the lines of every file: ``oracles.load_contacts_lines``
and ``oracles.load_edgelist_lines``.  The edge-list reader differs from its
oracle by two rules, and only there: a second "n" header is refused at its
line, and a line with more than two ids warns "edge-list file has extra
columns; ignored".
"""

import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpsbm import contacts, load_contacts, load_edgelist, save_edgelist, spectral
from oracles import complete_graph, load_contacts_lines, load_edgelist_lines

LARGEST = 2**63 - 1
#: Tokens that are ints to ``int()`` and to numpy: signs, a leading zero,
#: the int64 bounds.
PLAIN = ("+3", "-2", "-0", "007", str(LARGEST), f"+{LARGEST}", f"-{LARGEST}")
#: Tokens numpy reads differently from ``_parse_int`` or refuses: past int64
#: (-2**63 fits numpy but not the package), only ``int()`` reads them
#: ("5_000", non-ASCII digits), nobody does, or numpy 2.4 misreads them (a
#: character outside the Basic Multilingual Plane).
ODD = (str(2**63), str(-2**63), str(2**64), "5_000", "٣", "１２",
       "1.5", "1e3", "x", "-", "+-1", "0x10", "1\U0009c6ca2", "\U00020000")
#: Separators: ASCII blanks, and whitespace only Unicode calls so.
BLANKS = (" ", " ", "\t", "  ", " \t", "\x0b")
UNICODE_BLANKS = ("\xa0", "\u2003")
ENDINGS = ("\n", "\r\n", "\r")
EXTRA_WARNING = ("UserWarning", "edge-list file has extra columns; ignored")


@st.composite
def tokens(draw, high, odd):
    """An id or time in [0, high] most of the time, so that pairs repeat and
    some are self-contacts; now and then a plain token, and with ``odd`` an
    odd one."""
    kind = draw(st.integers(0, 19))
    if kind == 0 and odd:
        return draw(st.sampled_from(ODD))
    if kind == 1:
        return draw(st.sampled_from(PLAIN))
    return str(draw(st.integers(0, high)))


@st.composite
def data_line(draw, width, high=6, odd=True):
    """``width`` tokens (another count now and then), maybe indented; with
    ``odd``, odd tokens and Unicode blanks now and then."""
    if draw(st.integers(0, 9)) == 0:
        width = draw(st.integers(1, 5))
    sep = draw(st.sampled_from(BLANKS + UNICODE_BLANKS if odd else BLANKS))
    line = sep.join(draw(tokens(high, odd)) for _ in range(width))
    lead = draw(st.sampled_from(("", "", "", " ", "\t ")))
    return lead + line + draw(st.sampled_from(("", "", "", " ", "\t")))


COMMENTS = ("# t i j", "#", "#1 2 3", "  # indented", "\t#\ttab", "# café")


@st.composite
def lines_to_text(draw, lines):
    """The lines joined by one of ENDINGS, with or without a final one."""
    ending = draw(st.sampled_from(ENDINGS))
    final = ending if lines and draw(st.booleans()) else ""
    return ending.join(lines) + final


@st.composite
def contact_files(draw):
    """Contact streams: comments, indented comments, an inline "#", blank
    lines, extra columns on some lines or all, self-contacts, odd tokens,
    and files with no data line at all."""
    width = draw(st.sampled_from((3, 3, 3, 4, 5)))
    odd = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 13))
        if kind == 0:
            lines.append(draw(st.sampled_from(COMMENTS)))
        elif kind == 1:
            lines.append(draw(st.sampled_from(("", "  ", "\t"))))
        elif kind == 2:
            inline = draw(st.sampled_from((" # note", "#x", " #")))
            lines.append(draw(data_line(width, odd=odd)) + inline)
        else:
            lines.append(draw(data_line(width, odd=odd)))
    return draw(lines_to_text(lines))


@st.composite
def edgelist_files(draw):
    """Edge lists: an "n" header (first, elsewhere, twice, malformed or
    none), blank lines, extra columns, odd tokens, self-loops and ids past
    the header's count."""
    width = draw(st.sampled_from((2, 2, 2, 3)))
    odd = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 13))
        if kind == 0:
            lines.append(draw(st.sampled_from(("", " ", "\t"))))
        elif kind == 1:
            lines.append("n " + draw(tokens(20, odd)))
        elif kind == 2:
            lines.append(draw(st.sampled_from(("n", "n 4 5", "# 0 1", "0 1 # x"))))
        else:
            lines.append(draw(data_line(width, 15, odd)))
    if draw(st.integers(0, 2)):
        lines.insert(0, f"n {draw(st.integers(1, 20))}")
    return draw(lines_to_text(lines))


def outcome(load, path):
    """(what ``load(path)`` returned or raised, the warnings in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = load(path)
        except ValueError as exc:
            value = (type(exc).__name__, str(exc))
        else:
            if isinstance(value, contacts.ContactStream):
                value = (value.records.tolist(), sorted(value.node_map.items()))
            else:
                value = (value.n, value.edges.tolist())
    return value, [(w.category.__name__, str(w.message)) for w in caught]


def write(directory, text) -> Path:
    path = Path(directory) / "input.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=400)
@given(contact_files())
def test_load_contacts_matches_the_line_oracle(text):
    with tempfile.TemporaryDirectory() as d:
        path = write(d, text)
        assert outcome(load_contacts, path) == outcome(load_contacts_lines, path)


def expected_edgelist(path):
    """The oracle's outcome with the package's two rules put on top."""
    value, caught = outcome(load_edgelist_lines, path)
    with open(path, encoding="utf-8") as fh:
        lines = [line.split() for line in fh]
    headers = [k for k, parts in enumerate(lines, 1) if parts[:1] == ["n"]]
    at = re.match(re.escape(f"{path}:") + r"(\d+): ", value[1]) \
        if isinstance(value[1], str) else None
    # a line error of the oracle at or after the second header, or none
    if len(headers) > 1 and (at is None or headers[1] <= int(at.group(1))):
        return ("ValueError", f"{path}:{headers[1]}: second 'n' header"), []
    if at is None and any(len(parts) > 2 for parts in lines
                          if parts[:1] != ["n"]):
        caught = [EXTRA_WARNING] + caught
    return value, caught


@settings(max_examples=400)
@given(edgelist_files())
def test_load_edgelist_matches_the_line_oracle_and_its_two_rules(text):
    with tempfile.TemporaryDirectory() as d:
        path = write(d, text)
        assert outcome(load_edgelist, path) == expected_edgelist(path)


# Clean files: np.loadtxt reads each, so the line reader never parses a
# value.  Each holds what the clean format allows.
CLEAN_CONTACTS = {
    "header_comment": "# t i j\n100 1000 1001\n120 1001 1002\n",
    "indented_comments": "  # a\n100 1 2\n\t# b # c\n110 2 3\n",
    "crlf_no_final_newline": "100 1 2\r\n\r\n110 2 3",
    "lone_cr": "100 1 2\r110 2 3\r",
    "extra_columns_everywhere": "100 1 2 7\n110 2 3 8\n",
    "self_contacts": "100 1 1\n110 1 2\n120 2 2\n",
    "signs_and_bounds": f"-{LARGEST} +1 -2\n+0 -2 {LARGEST}\n",
    "blanks_and_tabs": "\n  \n\t100\t1 2  \n",
}
CLEAN_EDGELISTS = {
    "header": "n 7\n0 1\n1 2\n",
    "no_header": "0 1\n2 1\n",
    "crlf_no_final_newline": "n 5\r\n0 4\r\n\r\n3 1",
    "extra_columns_everywhere": "n 4\n0 1 9\n1 2 9\n",
    "signs": "+0 +1\n-0 2\n",
}


def refuse(text):
    raise AssertionError(f"the line reader parsed {text!r}")


@pytest.mark.parametrize("name", CLEAN_CONTACTS)
def test_clean_contact_file_skips_the_line_reader(name, tmp_path, monkeypatch):
    path = write(tmp_path, CLEAN_CONTACTS[name])
    expect = outcome(load_contacts_lines, path)
    monkeypatch.setattr(contacts, "_parse_int", refuse)
    assert outcome(load_contacts, path) == expect


@pytest.mark.parametrize("name", CLEAN_EDGELISTS)
def test_clean_edge_list_skips_the_line_reader(name, tmp_path, monkeypatch):
    path = write(tmp_path, CLEAN_EDGELISTS[name])
    expect = expected_edgelist(path)
    monkeypatch.setattr(spectral, "_parse_int", refuse)
    assert outcome(load_edgelist, path) == expect


def test_saved_edge_list_skips_the_line_reader(tmp_path, monkeypatch):
    g = complete_graph(6)
    save_edgelist(g, tmp_path / "g.txt")
    monkeypatch.setattr(spectral, "_parse_int", refuse)
    h = load_edgelist(tmp_path / "g.txt")
    assert h.n == 6 and h.edges.tolist() == g.edges.tolist()


# Files only the line reader reads, each with the oracle's outcome.
MESSY = {
    "inline_comment": "100 1 2 # note\n",
    "int_only_values": "5_000 1 2\n٣ 2 3\n",
    "ragged_extra_columns": "100 1 2\n110 2 3 9\n",
    "least_int64": f"{-2**63} 1 2\n",
}


@pytest.mark.parametrize("name", MESSY)
def test_messy_contact_file_reaches_the_line_reader(name, tmp_path, monkeypatch):
    path = write(tmp_path, MESSY[name])
    expect = outcome(load_contacts_lines, path)
    monkeypatch.setattr(contacts, "_parse_int", refuse)
    with pytest.raises(AssertionError, match="the line reader parsed"):
        load_contacts(path)
    monkeypatch.undo()
    assert outcome(load_contacts, path) == expect


# Files with text outside ASCII, which numpy must never see.
NON_ASCII = {
    "astral_in_a_time": (load_contacts, load_contacts_lines,
                         "100 1\U0009c6ca2 3\n"),
    "unicode_blank": (load_contacts, load_contacts_lines, "100\xa01 2\n"),
    "comment": (load_contacts, load_contacts_lines, "# café\n100 1 2\n"),
    "astral_in_an_id": (load_edgelist, load_edgelist_lines, "0 1\U0009c6ca2\n"),
    "unicode_blank_after_header": (load_edgelist, load_edgelist_lines,
                                   "n 3\n0\xa01\n"),
}


@pytest.mark.parametrize("name", NON_ASCII)
def test_numpy_reads_only_ascii(name, tmp_path, monkeypatch):
    load, oracle, text = NON_ASCII[name]
    path = write(tmp_path, text)
    real = np.loadtxt

    def ascii_only(fh, **kwargs):
        lines = list(fh)
        assert all(line.isascii() for line in lines), lines
        return real(lines, **kwargs)

    monkeypatch.setattr(np, "loadtxt", ascii_only)
    assert outcome(load, path) == outcome(oracle, path)


def test_invalid_utf8_raises_the_line_readers_error(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"# \xff\n100 1 2\n")
    with pytest.raises(UnicodeDecodeError) as info:
        load_contacts_lines(path)
    with pytest.raises(UnicodeDecodeError) as got:
        load_contacts(path)
    assert str(got.value) == str(info.value)


def test_no_data_warning_of_numpy_stays_inside(tmp_path):
    path = write(tmp_path, "# only a comment\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="empty contact stream"):
            load_contacts(path)
        assert load_edgelist(write(tmp_path, "n 3\n")).n == 3
    assert caught == []

