import os
import tempfile
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from uclso import arff_io
from uclso.arff_io import ArffError, load_mulan, read_arff, write_mulan
from uclso.dataset import MultiLabelDataset, generate_toy

from conftest import fig1_toy_config

DENSE = """\
@relation tiny
@attribute f1 numeric
@attribute f2 numeric
@attribute lab1 {0,1}
@attribute lab2 {0,1}
@data
0.5,1.0,1,0
-1.5,2.0,0,1
3.0,0.0,1,1
"""

XML = """\
<labels xmlns="http://mulan.sourceforge.net/labels">
  <label name="lab1"/>
  <label name="lab2"/>
</labels>
"""


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


@pytest.fixture
def dense_pair(tmp_path):
    return write(tmp_path, "d.arff", DENSE), write(tmp_path, "d.xml", XML)


class TestLoadMulan:
    def test_dense(self, dense_pair):
        ds = load_mulan(*dense_pair)
        assert ds.n == 3 and ds.d == 2 and ds.q == 2
        assert np.array_equal(ds.features, [[0.5, 1.0], [-1.5, 2.0], [3.0, 0.0]])
        assert np.array_equal(ds.labels, [[1, 0], [0, 1], [1, 1]])
        assert ds.label_names == ("lab1", "lab2")

    def test_sparse_defaults_to_zero(self, tmp_path):
        arff = write(
            tmp_path,
            "s.arff",
            "@relation s\n"
            "@attribute f1 numeric\n@attribute f2 numeric\n"
            "@attribute f3 numeric\n@attribute lab1 {0,1}\n"
            "@data\n{0 1.5, 3 1}\n{1 2.0}\n",
        )
        xml = write(
            tmp_path, "s.xml", '<labels><label name="lab1"/></labels>'
        )
        ds = load_mulan(arff, xml)
        assert np.array_equal(ds.features, [[1.5, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert np.array_equal(ds.labels, [[1], [0]])

    def test_nominal_one_hot(self, tmp_path):
        # hand reference: value 'b' of domain {a,b,c} maps to (0,1,0)
        arff = write(
            tmp_path,
            "n.arff",
            "@relation n\n"
            "@attribute color {a,b,c}\n@attribute lab1 {0,1}\n"
            "@data\nb,1\na,0\nc,0\nb,0\na,1\n",
        )
        xml = write(tmp_path, "n.xml", '<labels><label name="lab1"/></labels>')
        ds = load_mulan(arff, xml)
        assert ds.d == 3
        assert ds.feature_names == ("color=a", "color=b", "color=c")
        expected = np.array(
            [[0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float
        )
        assert np.array_equal(ds.features, expected)
        assert ds.feature_type == "nominal"

    def test_case_insensitive_keywords(self, tmp_path):
        arff = write(
            tmp_path,
            "c.arff",
            "@RELATION c\n@ATTRIBUTE f1 NUMERIC\n@Attribute lab1 {0,1}\n"
            "@DATA\n1.0,1\n",
        )
        xml = write(tmp_path, "c.xml", '<labels><label name="lab1"/></labels>')
        ds = load_mulan(arff, xml)
        assert ds.n == 1

    def test_missing_value_rejected_with_line(self, tmp_path):
        arff = write(
            tmp_path,
            "m.arff",
            "@relation m\n@attribute f1 numeric\n@attribute lab1 {0,1}\n"
            "@data\n1.0,1\n?,0\n",
        )
        xml = write(tmp_path, "m.xml", '<labels><label name="lab1"/></labels>')
        with pytest.raises(ArffError, match="line 6"):
            load_mulan(arff, xml)

    def test_label_absent_from_arff(self, tmp_path, dense_pair):
        arff, _ = dense_pair
        xml = write(tmp_path, "bad.xml", '<labels><label name="ghost"/></labels>')
        with pytest.raises(ArffError, match="ghost"):
            load_mulan(arff, xml)

    def test_non_binary_label(self, tmp_path):
        arff = write(
            tmp_path,
            "nb.arff",
            "@relation nb\n@attribute f1 numeric\n@attribute lab1 numeric\n"
            "@data\n1.0,2\n",
        )
        xml = write(tmp_path, "nb.xml", '<labels><label name="lab1"/></labels>')
        with pytest.raises(ArffError) as err:
            load_mulan(arff, xml)
        assert str(err.value) == "label 'lab1' has non-binary values"
        # a nominal label lists its values as plain strings on every numpy
        arff = write(
            tmp_path,
            "nominal.arff",
            "@relation nb\n@attribute f1 numeric\n@attribute lab1 {0,1,2}\n"
            "@data\n1.0,2\n2.0,0\n",
        )
        with pytest.raises(ArffError) as err:
            load_mulan(arff, xml)
        assert str(err.value) == "label 'lab1' has non-binary values ['0', '2']"

    def test_malformed_row_reports_line(self, tmp_path):
        arff = write(
            tmp_path,
            "bad.arff",
            "@relation b\n@attribute f1 numeric\n@attribute lab1 {0,1}\n"
            "@data\n1.0,1\n1.0\n",
        )
        xml = write(tmp_path, "b.xml", '<labels><label name="lab1"/></labels>')
        with pytest.raises(ArffError, match="line 6"):
            load_mulan(arff, xml)


def test_read_arff_requires_data_section(tmp_path):
    path = write(tmp_path, "x.arff", "@relation x\n@attribute f1 numeric\n")
    with pytest.raises(ArffError, match="@data"):
        read_arff(path)


def test_round_trip_bit_identical(tmp_path):
    ds = generate_toy(fig1_toy_config())
    arff = str(tmp_path / "toy.arff")
    xml = str(tmp_path / "toy.xml")
    write_mulan(ds, arff, xml)
    back = load_mulan(arff, xml)
    assert np.array_equal(ds.features, back.features)
    assert np.array_equal(ds.labels, back.labels)
    assert ds.feature_names == back.feature_names
    assert ds.label_names == back.label_names


def repr_rows(a):
    """float_rows' reference: each row's values by repr(), joined by commas."""
    return [",".join(map(repr, row)) for row in a.tolist()]


# the values whose text orjson and repr may write apart: the ends of the
# band [1e-4, 1e16) where they agree and their neighbours, signed zeros,
# subnormals, the largest finite value, NaN and the infinities
_TINY = np.finfo(float).smallest_normal
EDGE_VALUES = [
    v * sign
    for v in (0.0, 5e-324, np.nextafter(_TINY, 0), _TINY, 1e-4, np.nextafter(1e-4, 0),
              np.nextafter(1e-4, 1), 1e16, np.nextafter(1e16, 0), np.nextafter(1e16, np.inf),
              np.finfo(float).max, np.inf, np.nan)
    for sign in (1.0, -1.0)
]
ROWS = arff_io._BLOCK_ROWS


@given(a=npst.arrays(
    np.float64,
    st.tuples(st.sampled_from([0, 1, 2, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1]),
              st.integers(0, 4)),
    elements=st.sampled_from(EDGE_VALUES) | st.floats(width=64),
))
@example(a=np.zeros((0, 3)))
@example(a=np.zeros((ROWS + 1, 0)))
@example(a=np.array([EDGE_VALUES] * (ROWS + 1)))
@settings(max_examples=300, deadline=None)
def test_float_rows_equal_repr(a):
    assert list(arff_io.float_rows(a)) == repr_rows(a)


def test_write_mulan_writes_repr_outside_the_orjson_band(tmp_path):
    # float_rows writes the rows holding 1e-5, 5e-324 and 1e20 by repr,
    # and -0.0 as orjson does; the rows span three blocks. The data rows
    # must be the repr-based writer's text
    rng = np.random.default_rng(5)
    features = rng.normal(size=(2 * ROWS + 5, 3))
    features[0, 0] = 1e-5
    features[ROWS - 1, 1] = -0.0
    features[ROWS, 2] = 5e-324
    features[-1] = [1e20, -1e-5, 0.0]
    labels = rng.integers(0, 2, size=(len(features), 2))
    ds = MultiLabelDataset(features, labels, ("f0", "f1", "f2"), ("y0", "y1"))
    arff, xml = str(tmp_path / "d.arff"), str(tmp_path / "d.xml")
    write_mulan(ds, arff, xml)
    with open(arff, encoding="utf-8") as fh:
        data = fh.read().split("@data\n", 1)[1].splitlines()
    assert data == [
        f"{x},{','.join(map(str, y))}" for x, y in zip(repr_rows(features), labels.tolist())
    ]
    assert data[0].startswith("1e-05,") and data[-1].startswith("1e+20,-1e-05,0.0,")


# names with the characters ARFF gives a meaning to: separators, comments,
# nominal braces, both quotes, and line breaks; and characters XML 1.0
# forbids, which only a label name, written to the XML list too, cannot hold
NAMES = st.lists(
    st.text(st.sampled_from("aZ9_ ,%{}'\"\t\n\r\x00\x01\x1f\ufffe\ud800"), max_size=6),
    min_size=1, max_size=4, unique=True,
)


def representable(name, label):
    if label and {"\x00", "\x01", "\x1f", "\ufffe"} & set(name):
        return False
    # a lone surrogate cannot be encoded as UTF-8
    return (bool(name) and not {"\n", "\r", "\ud800"} & set(name)
            and not {"'", '"'} <= set(name))


@given(feature_names=NAMES, label_names=NAMES, seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_round_trip_names(feature_names, label_names, seed):
    rng = np.random.default_rng(seed)
    ds = MultiLabelDataset(
        rng.normal(size=(5, len(feature_names))),
        rng.integers(0, 2, size=(5, len(label_names))),
        tuple(feature_names),
        tuple(label_names),
    )
    with tempfile.TemporaryDirectory() as tmp:
        arff, xml = os.path.join(tmp, "d.arff"), os.path.join(tmp, "d.xml")
        bad = [n for n in feature_names if not representable(n, False)]
        bad += [n for n in label_names if not representable(n, True)]
        if bad:
            with pytest.raises(ArffError, match="cannot be written") as err:
                write_mulan(ds, arff, xml)
            assert repr(bad[0]) in str(err.value)
            assert not os.path.exists(arff) and not os.path.exists(xml)
            return
        write_mulan(ds, arff, xml)
        back = load_mulan(arff, xml)
    assert back.feature_names == ds.feature_names
    assert back.label_names == ds.label_names
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("relation", ["a\nb", "a\rb", "\n"])
def test_relation_with_a_line_break_is_rejected_before_any_file(tmp_path, relation):
    # the reader would take the text after the break as a header line
    ds = MultiLabelDataset(np.eye(2), np.eye(2, dtype=int), ("f0", "f1"), ("l0", "l1"))
    arff, xml = tmp_path / "d.arff", tmp_path / "d.xml"
    with pytest.raises(ArffError) as err:
        write_mulan(ds, str(arff), str(xml), relation=relation)
    assert str(err.value) == f"relation {relation!r} cannot be written to ARFF"
    assert not arff.exists() and not xml.exists()


def test_single_quote_names_use_double_quotes(tmp_path):
    ds = MultiLabelDataset(np.eye(2), np.eye(2, dtype=int), ("it's", "x y"), ("l'1", "l2"))
    arff, xml = str(tmp_path / "d.arff"), str(tmp_path / "d.xml")
    write_mulan(ds, arff, xml)
    header = (tmp_path / "d.arff").read_text(encoding="utf-8").splitlines()[2:6]
    assert header == [
        "@attribute \"it's\" numeric",
        "@attribute 'x y' numeric",
        "@attribute \"l'1\" {0,1}",
        "@attribute 'l2' {0,1}",
    ]
    assert load_mulan(arff, xml).feature_names == ("it's", "x y")


# Dense blocks are parsed in one vectorised pass; the line parser, which
# every block can fall back to, is the reference the pass must match.

HEADER = "@relation r\n@attribute f1 numeric\n@attribute lab1 {0,1}\n@attribute f2 numeric\n"


def read_or_error(path):
    try:
        return read_arff(path)[1]
    except ArffError as exc:
        return str(exc), exc.line


def no_line_parser():
    """A patch under which read_arff fails unless the vectorised pass
    takes the whole block."""
    return mock.patch.object(arff_io, "_parse_row", side_effect=AssertionError)


# tokens both parsers read, then tokens at least one of them rejects
NUMERIC_OK = ["0", "1", "-0", "2.5", " 3 ", "\t-1e3\t", "inf", "-Infinity", "nan",
              "-nan", "1e400", "1e-320", "+.5", "\x0c1", "1\u2028"]
NUMERIC_BAD = ["1_0", "\uff11", "1#2", "", "1 2", "0x10", "?", "'1'", "1\x00", "a"]
NOMINAL_OK = ["0", "1", " 1 ", "\t0"]
NOMINAL_BAD = ["1.0", "00", "", "a", "?", "'1'", "0\x00", "{"]


@st.composite
def dense_blocks(draw):
    """An ARFF file of numeric and {0,1} columns. About half the blocks
    hold only tokens both parsers read; in the rest a token is one that
    some parser rejects one time in four, and a row may have a field too
    many or too few."""
    clean = draw(st.booleans())
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    lines = ["@relation r"]
    for j, nominal in enumerate(kinds):
        lines.append(f"@attribute a{j} " + ("{0,1}" if nominal else "numeric"))
    lines.append("@data")
    for _ in range(draw(st.integers(1, 5))):
        width = len(kinds)
        if not clean:
            width += draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]))
        tokens = []
        for j in range(max(width, 1)):
            nominal = j < len(kinds) and kinds[j]
            ok, bad = (NOMINAL_OK, NOMINAL_BAD) if nominal else (NUMERIC_OK, NUMERIC_BAD)
            rare_bad = not clean and draw(st.integers(0, 3)) == 0
            tokens.append(draw(st.sampled_from(bad if rare_bad else ok)))
        lines.append(",".join(tokens))
        lines.extend(draw(st.lists(st.sampled_from(["", "% note", "  "]), max_size=1)))
    return "\n".join(lines) + "\n"


@given(text=dense_blocks())
@settings(max_examples=300, deadline=None)
def test_vectorised_pass_matches_line_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.arff")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        fast = read_or_error(path)
        with mock.patch.object(arff_io, "_parse_json", return_value=None):
            lines = read_or_error(path)
    assert type(fast) is type(lines)
    if isinstance(lines, tuple):
        assert fast == lines
    else:
        assert fast.dtype == lines.dtype and fast.shape == lines.shape
        assert fast.tobytes() == lines.tobytes()


def test_vectorised_pass_keeps_special_values(tmp_path):
    # tokens the orjson pass refuses, so the line parser reads the block
    path = write(tmp_path, "v.arff", HEADER + "@data\ninf,1,-0\n1e-320,0,-Infinity\n 1e400 , 1 ,nan\n")
    _, raw = read_arff(path)
    expected = [[np.inf, 1.0, -0.0], [1e-320, 0.0, -np.inf], [np.inf, 1.0, np.nan]]
    assert raw.tobytes() == np.array(expected).tobytes()


@given(line=st.text(st.sampled_from([",", " ", "\t", "\x0b", "\x0c", "\x1c", "\u2028", "\u3000",
                                      "0", "1", "-", ".", "e", "N", "a", "{", "}", "%", "?"]),
                   max_size=40))
@example(line="")
@example(line=",")
@example(line=" ,\x0c, ,")
@settings(max_examples=300, deadline=None)
def test_unquoted_rows_split_as_the_quote_loop_does(line):
    # a row with no quote is split by str.split; the same row with a
    # quoted field appended goes through the character loop, whose tokens
    # before that field must be the same: blanks, form feeds and other
    # whitespace stripped, empty fields kept
    assert arff_io._split_csv(line, 1) == arff_io._split_csv(line + ",'q'", 1)[:-1]


def test_comments_and_blank_lines_in_data(tmp_path):
    path = write(tmp_path, "c.arff", HEADER + "@data\n% first\n1,0,2\n\n   \n% x,y\n3,1,4\n")
    with no_line_parser():
        _, raw = read_arff(path)
    assert np.array_equal(raw, [[1, 0, 2], [3, 1, 4]])


@pytest.mark.parametrize(
    "row, message",
    [
        ("5,1,6,7", "expected 3 values, got 4"),
        ("5,1", "expected 3 values, got 2"),
        ("5,1.0,6", "value '1.0' not in nominal domain of 'lab1'"),
        ("5,00,6", "value '00' not in nominal domain of 'lab1'"),
        # numpy drops a string's trailing NULs; the line parser keeps them
        ("5,1\x00,6", "value '1\\x00' not in nominal domain of 'lab1'"),
        ("5,1,6x", "invalid numeric value '6x' for attribute 'f2'"),
        ("1#2,1,6", "invalid numeric value '1#2' for attribute 'f1'"),
    ],
)
def test_bad_row_reports_its_line(tmp_path, row, message):
    # line 9 of a file whose other rows the vectorised pass takes
    block = HEADER + "@data\n1,0,2\n% note\n\nROW\n3,1,4\n"
    with no_line_parser():
        read_arff(write(tmp_path, "ok.arff", block.replace("ROW", "5,1,6")))
    with pytest.raises(ArffError) as err:
        read_arff(write(tmp_path, "bad.arff", block.replace("ROW", row)))
    assert err.value.line == 9
    assert str(err.value) == f"line 9: {message}"


def test_tokens_only_float_reads_go_to_line_parser(tmp_path):
    # float() reads 1_0 as 10 and full-width digits as digits; the orjson
    # pass refuses both, so the block falls back and reads as float() does
    path = tmp_path / "u.arff"
    path.write_text(HEADER + "@data\n1_0,1,\uff12\n", encoding="utf-8")
    assert np.array_equal(read_arff(str(path))[1], [[10, 1, 2]])


def test_byte_order_mark_is_skipped(tmp_path):
    sparse = HEADER + "@data\n{0 1.5, 2 2}\n{1 1}\n"
    for text in (DENSE, sparse):
        plain = tmp_path / "plain.arff"
        plain.write_text(text, encoding="utf-8")
        bom = tmp_path / "bom.arff"
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes()[:3] == b"\xef\xbb\xbf"
        attributes, raw = read_arff(str(plain))
        bom_attributes, bom_raw = read_arff(str(bom))
        assert bom_attributes == attributes
        assert bom_raw.dtype == raw.dtype and bom_raw.shape == raw.shape
        assert bom_raw.tobytes() == raw.tobytes()


@pytest.mark.parametrize("text", [
    pytest.param(HEADER.encode().replace(b" r\n", b" caf\xe9\n", 1) + b"@data\n1,0,2\n",
                 id="relation"),
    # past the first decoded chunk, while the data passes read
    pytest.param(HEADER.encode() + b"@data\n" + b"1,0,2\n" * 3000 + b"% caf\xe9\n",
                 id="data"),
])
def test_text_that_is_not_utf8_is_an_arff_error(tmp_path, text):
    # text is decoded a chunk at a time, so no line is named
    path = tmp_path / "latin1.arff"
    path.write_bytes(text)
    with pytest.raises(ArffError) as info:
        read_arff(str(path))
    assert str(info.value) == "not UTF-8 text: byte 0xe9 (invalid continuation byte)"
    assert info.value.line is None


def test_sparse_row_semantics(tmp_path):
    # the line parser's reading of sparse rows, which item 5's vectorised
    # sparse pass must keep: {} is all zeros, a repeated index keeps its
    # last value, and indices may come in any order
    path = write(tmp_path, "s.arff", HEADER + "@data\n{}\n{0 1, 0 2}\n{2 7, 0 3, 1 1}\n")
    _, raw = read_arff(path)
    assert raw.tobytes() == np.array([[0, 0, 0], [2, 0, 0], [3, 1, 7]], dtype=float).tobytes()


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_dense_load_holds_the_matrix_not_the_text(tmp_path):
    # the data block is streamed: the text of a 3000x48 file is about
    # twice its matrix, and holding it as lines and as one string, as an
    # earlier reader did, peaked at about 8 times the matrix
    rng = np.random.default_rng(4)
    n, d, q = 3000, 40, 8
    ds = MultiLabelDataset(rng.normal(size=(n, d)), rng.integers(0, 2, size=(n, q)),
                           tuple(f"f{j}" for j in range(d)), tuple(f"y{j}" for j in range(q)))
    arff = str(tmp_path / "d.arff")
    write_mulan(ds, arff, str(tmp_path / "d.xml"))
    with no_line_parser():
        (_, raw), peak = traced_peak(lambda: read_arff(arff))
    assert raw.shape == (n, d + q)
    assert peak < 2 * raw.nbytes


def test_sparse_load_holds_the_matrix_and_one_row(tmp_path):
    # the shape of Mulan's text datasets; the line parser fills a
    # preallocated matrix, where a list of Python float rows peaked at
    # about 2.2 times the matrix
    rng = np.random.default_rng(5)
    n, width = 3000, 530
    path = tmp_path / "s.arff"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("@relation s\n")
        fh.writelines(f"@attribute f{j} numeric\n" for j in range(500))
        fh.writelines(f"@attribute y{j} {{0,1}}\n" for j in range(width - 500))
        fh.write("@data\n")
        for _ in range(n):
            cells = np.flatnonzero(rng.random(width) < 0.04)
            fh.write("{" + ",".join(f"{j} 1" for j in cells) + "}\n")
    (_, raw), peak = traced_peak(lambda: read_arff(str(path)))
    assert raw.shape == (n, width) and 0.03 < raw.mean() < 0.05
    assert peak < 1.25 * raw.nbytes


def test_dense_refused_block_holds_the_matrix_and_one_row(tmp_path):
    # a {NO,YES} domain and the tokens +.5, -0 and 1e400 each make the
    # orjson pass refuse the block, so the line parser reads it: a 1000x200
    # block of two row patterns, each of five columns repeated 40 times
    n, repeats = 1000, 40
    rows = ["YES,+.5,-0,1e400,1", "NO,-2.5e-3,7,-1E400,0"]
    path = tmp_path / "d.arff"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("@relation d\n")
        for r in range(repeats):
            fh.write(f"@attribute s{r} {{NO,YES}}\n")
            fh.writelines(f"@attribute {c}{r} numeric\n" for c in "abc")
            fh.write(f"@attribute y{r} {{0,1}}\n")
        fh.write("@data\n")
        fh.writelines(",".join([rows[i % 2]] * repeats) + "\n" for i in range(n))
    (_, raw), peak = traced_peak(lambda: read_arff(str(path)))
    expected = np.tile([[1.0, 0.5, -0.0, np.inf, 1.0], [0.0, -2.5e-3, 7.0, -np.inf, 0.0]],
                       (n // 2, repeats))
    assert raw.tobytes() == expected.tobytes()
    assert peak < 1.25 * raw.nbytes


# The orjson pass reads dense blocks of JSON numbers, and refuses, for the
# line parser, any block it would read other than float() does.

def test_orjson_pass_reads_write_mulan_files(tmp_path):
    # a 6000x40 file with 8 labels, as written and with CRLF line ends
    rng = np.random.default_rng(9)
    n, d, q = 6000, 40, 8
    ds = MultiLabelDataset(rng.normal(size=(n, d)), rng.integers(0, 2, size=(n, q)),
                           tuple(f"f{j}" for j in range(d)), tuple(f"y{j}" for j in range(q)))
    arff, xml = tmp_path / "d.arff", str(tmp_path / "d.xml")
    write_mulan(ds, str(arff), xml)
    crlf = tmp_path / "crlf.arff"
    crlf.write_bytes(arff.read_bytes().replace(b"\n", b"\r\n"))
    for path in (arff, crlf):
        with no_line_parser():
            back = load_mulan(str(path), xml)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.labels, ds.labels)


def test_orjson_pass_drops_comments_and_blank_lines(tmp_path):
    path = write(tmp_path, "c.arff",
                 HEADER + "@data\n% first\n1,0,2\n\n   \n\x0c\n% x,y\n  3 ,\t1,4 \n%\n")
    with no_line_parser():
        _, raw = read_arff(path)
    assert raw.tobytes() == np.array([[1, 0, 2], [3, 1, 4]], dtype=float).tobytes()


def test_lone_carriage_returns_end_rows(tmp_path):
    # text mode ends a row at a lone \r, as the line parser reads it; a
    # reader that split on \n alone would read 1,2,\r3,4 as one row of four
    header = "@relation r\n" + "".join(f"@attribute a{j} numeric\n" for j in range(4))
    good = tmp_path / "good.arff"
    good.write_bytes((header + "@data\r1,2,3,4\r5,6,7,8\r").encode())
    with no_line_parser():
        _, raw = read_arff(str(good))
    assert np.array_equal(raw, [[1, 2, 3, 4], [5, 6, 7, 8]])
    bad = tmp_path / "bad.arff"
    bad.write_bytes((header + "@data\n1,2,\r3,4\n").encode())
    fast = read_or_error(str(bad))
    with mock.patch.object(arff_io, "_parse_json", return_value=None):
        assert fast == read_or_error(str(bad)) == ("line 7: expected 4 values, got 3", 7)


def halfway(x):
    """The exact decimal midway between x and the next float up."""
    return f"{(Decimal(x) + Decimal(np.nextafter(x, np.inf))) / 2:E}"


@st.composite
def long_mantissas(draw):
    """17 to 40 significant digits, with or without a fraction and an
    exponent, in JSON's grammar."""
    digits = draw(st.sampled_from("123456789")) + draw(st.text("0123456789", min_size=16,
                                                              max_size=39))
    point = draw(st.integers(0, len(digits)))
    body = "0." + digits if point == 0 else digits[:point] + (
        "." + digits[point:] if point < len(digits) else "")
    # at most 1e40 times 1e260, so finite; down to 1e-380, so subnormal or 0
    exponent = draw(st.sampled_from(["", "e{}", "E+{:03d}"])).format(draw(st.integers(1, 260)))
    exponent = draw(st.sampled_from([exponent, f"e-{draw(st.integers(1, 380)):02d}"]))
    return draw(st.sampled_from(["", "-"])) + body + exponent


# numeric tokens orjson reads as float() does: the orjson pass must take
# them. Then tokens it must refuse: -0, which orjson reads as 0 and
# float() as -0.0, and 1e400, which orjson rejects and float() reads as inf
JSON_NUMERIC = (
    st.sampled_from(["0", "1", "-0.0", "-0e5", "-1e-400", "1E+5", "4.9e-324", " 2.5\t",
                     "2.2250738585072011e-308", "1.7976931348623157e308"])
    | long_mantissas()
    | st.integers(2**53, 2**70).map(str) | st.integers(-2**70, -2**53).map(str)
    | st.floats(-_TINY, _TINY).map(repr)
    | st.floats(-1e300, 1e300).map(halfway)
)
JSON_NUMERIC_REFUSED = ["-0", "1e400", "-1E400"]
# {0,1} tokens: JSON ints in the domain, then tokens the line parser
# rejects; 1.0 and 1e0 are JSON floats
JSON_NOMINAL = ["0", "1", " 1 ", "\t0"]
JSON_NOMINAL_REFUSED = ["1.0", "1e0", "2", "-1", "01", "-0"]


@st.composite
def json_blocks(draw):
    """An ARFF file of numeric and {0,1} columns whose tokens are JSON
    numbers, with line ends of every kind, and whether it is clean. In a
    clean block every token is one that orjson reads as float() and the
    line parser do; in the rest a token is one the orjson pass must refuse
    one time in four, and a row may have a field too many or too few."""
    clean = draw(st.booleans())
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    lines = ["@relation r"]
    for j, nominal in enumerate(kinds):
        lines.append(f"@attribute a{j} " + ("{0,1}" if nominal else "numeric"))
    lines.append("@data")
    for _ in range(draw(st.integers(1, 6))):
        width = len(kinds)
        if not clean:
            width += draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]))
        tokens = []
        for j in range(max(width, 1)):
            nominal = j < len(kinds) and kinds[j]
            refused = not clean and draw(st.integers(0, 3)) == 0
            if nominal:
                tokens.append(draw(st.sampled_from(JSON_NOMINAL_REFUSED if refused
                                                   else JSON_NOMINAL)))
            else:
                tokens.append(draw(st.sampled_from(JSON_NUMERIC_REFUSED) if refused
                                   else JSON_NUMERIC))
        lines.append(",".join(tokens))
        lines.extend(draw(st.lists(st.sampled_from(["", "% note", "  "]), max_size=1)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends)), clean


@given(block=json_blocks(), chunk=st.integers(1, 200))
@example(block=("@relation r\n@attribute a numeric\n@data\n1\n-0\n", False), chunk=64)
@example(block=("@relation r\n@attribute a {0,1}\n@data\n1\n1.0\n", False), chunk=64)
@example(block=("@relation r\n@attribute a {0,1}\n@data\n1\n1e0\n", False), chunk=64)
@settings(max_examples=300, deadline=None)
def test_orjson_pass_matches_line_parser(block, chunk):
    # chunk: the characters per chunk, small so that a block spans many
    text, clean = block
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.arff")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(arff_io, "_CHUNK_CHARS", chunk):
            if clean:
                with no_line_parser():
                    fast = read_arff(path)[1]
            else:
                fast = read_or_error(path)
        with mock.patch.object(arff_io, "_parse_json", return_value=None):
            lines = read_or_error(path)
    assert type(fast) is type(lines)
    if isinstance(lines, tuple):
        assert fast == lines
    else:
        assert fast.dtype == lines.dtype and fast.shape == lines.shape
        assert fast.tobytes() == lines.tobytes()
