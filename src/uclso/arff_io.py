"""Mulan-style dataset I/O: ARFF reader/writer plus the XML label list.

Supports dense and sparse ARFF rows, numeric and nominal attributes, and
case-insensitive keywords. Nominal feature attributes are one-hot encoded
at load; label attributes must be binary (0/1). Missing values (`?`) are
rejected.

A dense data block is parsed in one vectorised pass (numpy's `loadtxt`).
Sparse rows, quoted tokens, and any block that pass does not take (a
missing value, a row with the wrong number of fields, a token outside a
nominal domain or one `loadtxt` cannot read) go through the line parser,
which reads a row at a time. Either way the values are the same, and
error messages and line numbers come from the line parser.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

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
    linenos: list[int] = []
    lines: list[str] = []
    in_data = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            if not in_data:
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
                    in_data = True
                    continue
                raise ArffError(f"unexpected header line {line!r}", lineno)
            linenos.append(lineno)
            lines.append(line)
    if not in_data:
        raise ArffError("no @data section found", None)
    if not lines:
        raise ArffError("empty @data section", None)
    values = _parse_dense(lines, attributes)
    if values is None:
        values = np.asarray(
            [_parse_row(line, attributes, n) for n, line in zip(linenos, lines)],
            dtype=float,
        )
    return attributes, values


# characters that send a data block to the line parser: sparse rows,
# quotes, missing values, and NUL, which numpy drops from the end of a
# string where the line parser keeps it
_LINE_PARSER_ONLY = ("{", "'", '"', "?", "\x00")


def _parse_dense(lines: list[str], attributes: list[_Attribute]) -> np.ndarray | None:
    """The raw value matrix of a dense block in one vectorised pass, or None
    when the block holds anything this pass does not take. The caller then
    runs the line parser, which gives the error and its line number."""
    block = "\n".join(lines)
    if any(ch in block for ch in _LINE_PARSER_ONLY):
        return None
    # loadtxt with usecols reads ragged rows without complaint
    commas = len(attributes) - 1
    if any(line.count(",") != commas for line in lines):
        return None
    numeric = [i for i, a in enumerate(attributes) if a.kind == "numeric"]
    nominal = [i for i, a in enumerate(attributes) if a.kind == "nominal"]
    out = np.empty((len(lines), len(attributes)))
    try:
        # comments=None: with "#", loadtxt reads "1#2" as 1.0
        if numeric:
            out[:, numeric] = np.loadtxt(
                lines, delimiter=",", comments=None, usecols=numeric, ndmin=2
            )
        if nominal:
            tokens = np.loadtxt(
                lines, delimiter=",", comments=None, usecols=nominal, ndmin=2,
                dtype=str,
            )
    except ValueError:
        return None
    for j, col in enumerate(nominal):
        domain = attributes[col].values
        index = {v: float(domain.index(v)) for v in domain}
        distinct, inverse = np.unique(tokens[:, j], return_inverse=True)
        found = [index.get(tok.strip()) for tok in distinct.tolist()]
        if None in found:
            return None
        out[:, col] = np.asarray(found)[inverse]
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
            # map domain indices back to the declared values, expect "0"/"1"
            mapped = np.asarray(attr.values)[raw[:, col].astype(int)]
            found = np.unique(mapped).tolist()
            if not set(found) <= {"0", "1"}:
                raise ArffError(f"label {attr.name!r} has non-binary values {found}")
            labels[:, out_k] = mapped == "1"
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
    a lone surrogate (which UTF-8 cannot encode), and a label name that
    holds a character XML 1.0 forbids, cannot be written, and are rejected
    before any file is opened.
    """
    features = [_quoted(name) for name in ds.feature_names]
    labels = [_quoted_label(name) for name in ds.label_names]
    with open(arff_path, "w", encoding="utf-8") as fh:
        fh.write(f"@relation {relation}\n\n")
        for name in features:
            fh.write(f"@attribute {name} numeric\n")
        for name in labels:
            fh.write(f"@attribute {name} {{0,1}}\n")
        fh.write("\n@data\n")
        # one row at a time: tolist() on the whole matrix holds a Python
        # float per cell
        rows = zip(map(np.ndarray.tolist, ds.features), map(np.ndarray.tolist, ds.labels))
        fh.writelines(
            f"{','.join(map(repr, x))},{','.join(map(str, y))}\n" for x, y in rows
        )
    root = ET.Element("labels")
    root.set("xmlns", "http://mulan.sourceforge.net/labels")
    for name in ds.label_names:
        ET.SubElement(root, "label", name=name)
    ET.ElementTree(root).write(xml_path, encoding="utf-8", xml_declaration=True)
