"""Mulan-style dataset I/O: ARFF reader/writer plus the XML label list.

Supports dense and sparse ARFF rows, numeric and nominal attributes, and
case-insensitive keywords. Nominal feature attributes are one-hot encoded
at load; label attributes must be binary (0/1). Missing values (`?`) are
rejected.

The data block is streamed: each pass re-reads it from the first line
after @data, so a load holds the value matrix but never the block's text.
A dense block goes through up to two passes:

- the orjson pass reads blocks whose rows hold only JSON numbers and
  whose nominal attributes have the domain 0…k-1, as `write_mulan`
  writes them: it counts and screens the rows, then parses a chunk of
  rows per `orjson.loads` call, whose correctly rounded conversion gives
  `float()`'s values. It takes the whole block or refuses it;
- the line parser parses a row at a time into a preallocated matrix. It
  takes sparse rows and every block the orjson pass refuses, such as one
  with quoted tokens, `inf`, `nan`, `-0`, `+.5`, form-feed padding or a
  nominal domain of other values. It gives the error of a bad row: a
  missing value, a row with the wrong number of fields, a token outside
  a nominal domain or one `float()` cannot read.

Whichever pass takes a block, the values are the same, and error messages
and line numbers come from the line parser. A UTF-8 byte-order mark is
skipped.

Float text, here and in the CLI's synthetic CSVs, comes from `float_rows`:
each value as `repr()` writes it, formatted a block of rows at a time by
orjson's shortest round-trip formatter.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dataset import MultiLabelDataset


class ArffError(ValueError):
    """Malformed ARFF or XML input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class _Attribute:
    name: str
    kind: str  # "numeric" or "nominal"
    values: tuple[str, ...] = ()  # nominal domain, in declaration order


_ATTR_RE = re.compile(r"@attribute\s+(.+)", re.IGNORECASE)


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def _parse_attribute(rest: str, lineno: int) -> _Attribute:
    rest = rest.strip()
    if rest.startswith(("'", '"')):
        quote = rest[0]
        end = rest.find(quote, 1)
        if end < 0:
            raise ArffError("unterminated quoted attribute name", lineno)
        name = rest[1:end]
        spec = rest[end + 1:].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise ArffError("attribute needs a name and a type", lineno)
        name, spec = parts
    if not name:
        raise ArffError("empty attribute name", lineno)
    if spec.startswith("{"):
        if not spec.endswith("}"):
            raise ArffError("unterminated nominal value list", lineno)
        values = tuple(_unquote(v) for v in spec[1:-1].split(","))
        if any(not v for v in values):
            raise ArffError("empty nominal value", lineno)
        return _Attribute(name, "nominal", values)
    kind = spec.split()[0].lower()
    if kind in ("numeric", "real", "integer"):
        return _Attribute(name, "numeric")
    raise ArffError(f"unsupported attribute type {spec!r}", lineno)


def _split_csv(line: str, lineno: int) -> list[str]:
    """Split a dense data row on commas, honouring quotes."""
    if "'" not in line and '"' not in line:
        return [t.strip() for t in line.split(",")]
    out = []
    buf = []
    quote = None
    for ch in line:
        if quote:
            if ch == quote:
                quote = None
            else:
                buf.append(ch)
        elif ch in "'\"":
            quote = ch
        elif ch == ",":
            out.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if quote:
        raise ArffError("unterminated quote in data row", lineno)
    out.append("".join(buf).strip())
    return out


def _parse_value(token: str, attr: _Attribute, lineno: int) -> float:
    """Raw cell value: numeric float, or the nominal value's domain index."""
    if token == "?":
        raise ArffError("missing values ('?') are not supported", lineno)
    if attr.kind == "numeric":
        try:
            return float(token)
        except ValueError:
            raise ArffError(
                f"invalid numeric value {token!r} for attribute {attr.name!r}", lineno
            ) from None
    try:
        return float(attr.values.index(token))
    except ValueError:
        raise ArffError(
            f"value {token!r} not in nominal domain of {attr.name!r}", lineno
        ) from None


def read_arff(path: str) -> tuple[list[_Attribute], np.ndarray]:
    """Parse an ARFF file into attribute metadata and a raw value matrix.

    Nominal cells hold the index of their value in the declared domain.
    """
    attributes: list[_Attribute] = []
    try:
        # utf-8-sig: a byte-order mark at the start of the file is not text
        with open(path, "r", encoding="utf-8-sig") as fh:
            # readline, not iteration: _DataBlock needs fh.tell(), which text
            # files disable while they are iterated
            for lineno, raw in enumerate(iter(fh.readline, ""), start=1):
                line = raw.strip()
                if not line or line.startswith("%"):
                    continue
                low = line.lower()
                if low.startswith("@relation"):
                    continue
                if low.startswith("@attribute"):
                    m = _ATTR_RE.match(line)
                    if not m:
                        raise ArffError("malformed @attribute", lineno)
                    attributes.append(_parse_attribute(m.group(1), lineno))
                    continue
                if low.startswith("@data"):
                    if not attributes:
                        raise ArffError("@data before any @attribute", lineno)
                    break
                raise ArffError(f"unexpected header line {line!r}", lineno)
            else:
                raise ArffError("no @data section found", None)
            block = _DataBlock(fh, lineno)
            if next(iter(block), None) is None:
                raise ArffError("empty @data section", None)
            values = _parse_json(block, attributes)
            if values is None:
                values = _parse_lines(block, attributes)
    except UnicodeDecodeError as exc:
        # text is decoded a chunk at a time, so the line is not known
        bad = exc.object[exc.start]
        raise ArffError(f"not UTF-8 text: byte 0x{bad:02x} ({exc.reason})") from None
    return attributes, values


class _DataBlock:
    """The data rows of an open ARFF file, as (line number, stripped line)
    pairs without blank and % lines. Each pass seeks back to the first
    line after @data, so no pass holds the block's text."""

    def __init__(self, fh, data_lineno: int):
        self.fh = fh
        self.start = fh.tell()
        self.data_lineno = data_lineno

    def __iter__(self):
        self.fh.seek(self.start)
        for lineno, raw in enumerate(iter(self.fh.readline, ""), start=self.data_lineno + 1):
            line = raw.strip()
            if line and not line.startswith("%"):
                yield lineno, line

    def chunks(self) -> Iterator[list[str]]:
        """The same stripped lines, without their line numbers, as lists
        of about _CHUNK_CHARS characters of text."""
        self.fh.seek(self.start)
        while raw := self.fh.readlines(_CHUNK_CHARS):
            yield [line for line in map(str.strip, raw) if line and not line.startswith("%")]


# characters of text per chunk of the orjson pass, which holds about eight
# times that at once: the chunk's lines, stripped and joined, and the Python
# floats orjson makes of them. A 3000x48 load peaked at 1.22 times its
# matrix with this size, and at 1.85 times with chunks four times as large
_CHUNK_CHARS = 1 << 15

# all that a row of the orjson pass may hold: JSON numbers, commas and the
# blanks JSON skips (and the line feeds that join a chunk's rows)
_JSON_ROW_BYTES = b"0123456789eE+-., \t\n"

# the integer token -0, which orjson reads as 0 and float() as -0.0. A
# zero followed by a digit is not JSON, so -0 followed by anything but a
# fraction or an exponent is that token (or an exponent's -0, refused too)
_NEGATIVE_ZERO = re.compile(rb"-0(?![0-9.eE])")


def _parse_json(block: _DataBlock, attributes: list[_Attribute]) -> np.ndarray | None:
    """The orjson pass: each chunk of rows parsed as one JSON array of
    arrays by one orjson.loads call, or None when the block holds anything
    that orjson would read other than float() and the line parser do."""
    # a nominal cell must be a JSON int, which indexes the domain 0…k-1 as
    # the line parser indexes its token; the line parser rejects 1.0 and 1e0
    nominal = [j for j, a in enumerate(attributes) if a.kind == "nominal"]
    if any(attributes[j].values != tuple(map(str, range(len(attributes[j].values))))
           for j in nominal):
        return None
    # first pass: count the rows and screen their text, so a refusal on
    # characters costs this pass only
    n = 0
    for rows in block.chunks():
        text = "\n".join(rows).encode()
        if text.translate(None, _JSON_ROW_BYTES) or _NEGATIVE_ZERO.search(text):
            return None
        n += len(rows)
    # imported here, as float_rows imports it
    import orjson

    width = len(attributes)

    def parsed_rows():
        for rows in block.chunks():
            # the screen leaves no brackets in a row, so each row is one array
            parsed = orjson.loads(f"[[{'],['.join(rows)}]]") if rows else []
            if any(len(row) != width for row in parsed):
                raise ValueError("a row of the wrong width")
            if any(type(row[j]) is not int for row in parsed for j in nominal):
                raise ValueError("a nominal cell that is not an int")
            yield from parsed

    try:
        out = np.fromiter(chain.from_iterable(parsed_rows()), np.float64, count=n * width)
    except ValueError:  # orjson's JSONDecodeError is one
        return None
    out = out.reshape(n, width)
    for j in nominal:
        if not ((out[:, j] >= 0) & (out[:, j] < len(attributes[j].values))).all():
            return None
    return out


def _parse_lines(block: _DataBlock, attributes: list[_Attribute]) -> np.ndarray:
    """The line parser: each row parsed on its own into a preallocated
    matrix. Raises the ArffError of the first bad row."""
    out = np.empty((sum(1 for _ in block), len(attributes)))
    for i, (lineno, line) in enumerate(block):
        out[i] = _parse_row(line, attributes, lineno)
    return out


def _parse_row(line: str, attributes: list[_Attribute], lineno: int) -> list[float]:
    if line.startswith("{"):
        if not line.endswith("}"):
            raise ArffError("unterminated sparse row", lineno)
        # sparse rows default every cell to 0
        row = [0.0] * len(attributes)
        body = line[1:-1].strip()
        if not body:
            return row
        for entry in _split_csv(body, lineno):
            parts = entry.split(None, 1)
            if len(parts) != 2:
                raise ArffError(f"malformed sparse entry {entry!r}", lineno)
            try:
                idx = int(parts[0])
            except ValueError:
                raise ArffError(f"bad sparse index {parts[0]!r}", lineno) from None
            if not 0 <= idx < len(attributes):
                raise ArffError(f"sparse index {idx} out of range", lineno)
            row[idx] = _parse_value(_unquote(parts[1]), attributes[idx], lineno)
        return row
    tokens = _split_csv(line, lineno)
    if len(tokens) != len(attributes):
        raise ArffError(
            f"expected {len(attributes)} values, got {len(tokens)}", lineno
        )
    return [
        _parse_value(tok, attr, lineno) for tok, attr in zip(tokens, attributes)
    ]


def read_label_names(xml_path: str) -> list[str]:
    """Label attribute names from a Mulan XML label list."""
    try:
        root = ET.parse(xml_path).getroot()
    except ET.ParseError as exc:
        raise ArffError(f"cannot parse label XML: {exc}") from None
    names = [
        el.attrib["name"]
        for el in root.iter()
        if el.tag.split("}")[-1] == "label" and "name" in el.attrib
    ]
    if not names:
        raise ArffError("label XML names no labels")
    return names


def load_mulan(arff_path: str, xml_path: str) -> MultiLabelDataset:
    """Load an ARFF + XML dataset pair.

    Label columns are extracted per the XML list; remaining columns become
    features, with nominal features one-hot encoded.
    """
    attributes, raw = read_arff(arff_path)
    label_names = read_label_names(xml_path)
    name_to_col = {a.name: i for i, a in enumerate(attributes)}
    for name in label_names:
        if name not in name_to_col:
            raise ArffError(f"label {name!r} from XML not present in ARFF header")
    label_cols = [name_to_col[name] for name in label_names]
    label_set = set(label_cols)

    labels = np.empty((raw.shape[0], len(label_cols)), dtype=int)
    for out_k, col in enumerate(label_cols):
        attr = attributes[col]
        if attr.kind == "nominal":
            # the declared values of the domain indices present; expect "0"/"1".
            # bincount, not np.unique, which imports numpy.ma
            idx = raw[:, col].astype(np.intp)
            present = np.flatnonzero(np.bincount(idx, minlength=len(attr.values)))
            found = sorted({attr.values[i] for i in present.tolist()})
            if not set(found) <= {"0", "1"}:
                raise ArffError(f"label {attr.name!r} has non-binary values {found}")
            labels[:, out_k] = np.array([v == "1" for v in attr.values])[idx]
        else:
            col_vals = raw[:, col]
            if not np.isin(col_vals, (0.0, 1.0)).all():
                raise ArffError(f"label {attr.name!r} has non-binary values")
            labels[:, out_k] = col_vals.astype(int)

    feature_blocks = []
    feature_names = []
    any_nominal = False
    for i, attr in enumerate(attributes):
        if i in label_set:
            continue
        if attr.kind == "numeric":
            feature_blocks.append(raw[:, i:i + 1])
            feature_names.append(attr.name)
        else:
            any_nominal = True
            idx = raw[:, i].astype(int)
            onehot = np.zeros((raw.shape[0], len(attr.values)))
            onehot[np.arange(raw.shape[0]), idx] = 1.0
            feature_blocks.append(onehot)
            feature_names.extend(f"{attr.name}={v}" for v in attr.values)
    if not feature_blocks:
        raise ArffError("ARFF has no feature attributes outside the label list")
    features = np.hstack(feature_blocks)
    return MultiLabelDataset(
        features,
        labels,
        tuple(feature_names),
        tuple(label_names),
        feature_type="nominal" if any_nominal else "numeric",
    )


# rows per orjson call; a block's text and its mask are all that is held.
# On the ingest benchmark, blocks of 64 rows raised the peak RSS by about
# 2 MB over blocks of 32, which cost no measurable time
_BLOCK_ROWS = 32


def float_rows(a: np.ndarray) -> Iterator[str]:
    """Each row of a matrix as the repr() of its values, as float64,
    joined by commas: the text of `",".join(map(repr, row))` for each row
    of `a.tolist()`.

    orjson formats a block of rows in one call, with the shortest digits
    that round-trip, as repr does. The two also write them alike for 0.0,
    -0.0 and every |v| in [1e-4, 1e16). Outside that band repr writes
    1e-05 and 1e+16 where orjson writes 0.00001 and 1e16, and orjson writes
    NaN and inf as null, so a row that holds such a value is written by
    repr instead.
    """
    # imported here, as ranking imports scipy: commands that write no
    # float text never load it
    import orjson

    for start in range(0, len(a), _BLOCK_ROWS):
        block = np.ascontiguousarray(a[start:start + _BLOCK_ROWS], dtype=np.float64)
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        # "[[a,b],[c,d]]": the rows are the fields between "],["
        rows = text[2:-2].split("],[")
        size = np.abs(block)
        in_band = (block == 0) | ((size >= 1e-4) & (size < 1e16))
        for i in np.flatnonzero(~in_band.all(axis=1)).tolist():
            rows[i] = ",".join(map(repr, block[i].tolist()))
        yield from rows


# characters XML 1.0 cannot hold, not even as references: the controls
# other than tab, line feed and carriage return, surrogates, U+FFFE, U+FFFF
_XML_FORBIDDEN = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


# lone surrogates, the only characters UTF-8 cannot encode
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _quoted(name: str) -> str:
    """An attribute name in the quotes the reader takes: '…', or "…" when
    the name holds a '."""
    if (not name or "\n" in name or "\r" in name or ("'" in name and '"' in name)
            or _SURROGATE.search(name)):
        raise ArffError(f"attribute name {name!r} cannot be written to ARFF")
    return f'"{name}"' if "'" in name else f"'{name}'"


def _quoted_label(name: str) -> str:
    """A label name, quoted as _quoted does; it also goes to the XML label
    list, so it may not hold a character XML forbids."""
    if _XML_FORBIDDEN.search(name):
        raise ArffError(f"label name {name!r} cannot be written to XML")
    return _quoted(name)


def write_mulan(ds: MultiLabelDataset, arff_path: str, xml_path: str,
                relation: str = "dataset") -> None:
    """Write a dataset back out as an ARFF + XML pair.

    Features are written as numeric attributes and labels as nominal {0,1};
    reloading yields identical names and feature and label matrices. A name
    that is empty, holds a line break, holds both quote characters or holds
    a lone surrogate (which UTF-8 cannot encode), a label name that holds a
    character XML 1.0 forbids, and a relation that holds a line break,
    cannot be written, and are rejected before any file is opened.
    """
    if "\n" in relation or "\r" in relation:
        raise ArffError(f"relation {relation!r} cannot be written to ARFF")
    features = [_quoted(name) for name in ds.feature_names]
    labels = [_quoted_label(name) for name in ds.label_names]
    with open(arff_path, "w", encoding="utf-8") as fh:
        fh.write(f"@relation {relation}\n\n")
        for name in features:
            fh.write(f"@attribute {name} numeric\n")
        for name in labels:
            fh.write(f"@attribute {name} {{0,1}}\n")
        fh.write("\n@data\n")
        # features by float_rows, a block of rows at a time, so no Python
        # float is made per cell; labels one row at a time
        rows = zip(float_rows(ds.features), map(np.ndarray.tolist, ds.labels))
        fh.writelines(f"{x},{','.join(map(str, y))}\n" for x, y in rows)
    root = ET.Element("labels")
    root.set("xmlns", "http://mulan.sourceforge.net/labels")
    for name in ds.label_names:
        ET.SubElement(root, "label", name=name)
    ET.ElementTree(root).write(xml_path, encoding="utf-8", xml_declaration=True)
