import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        with pytest.raises(ArffError, match="non-binary"):
            load_mulan(arff, xml)

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


# names with the characters ARFF gives a meaning to: separators, comments,
# nominal braces, both quotes, and line breaks; and characters XML 1.0
# forbids, which only a label name, written to the XML list too, cannot hold
NAMES = st.lists(
    st.text(st.sampled_from("aZ9_ ,%{}'\"\t\n\r\x00\x01\x1f\ufffe"), max_size=6),
    min_size=1, max_size=4, unique=True,
)


def representable(name, label):
    if label and {"\x00", "\x01", "\x1f", "\ufffe"} & set(name):
        return False
    return bool(name) and not {"\n", "\r"} & set(name) and not {"'", '"'} <= set(name)


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
