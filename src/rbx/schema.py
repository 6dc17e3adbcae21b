"""The shared JSON interchange format.

A document is UTF-8 JSON with top-level keys:

    field      "Q" or {"Fp": p}
    algebra    {dim, c}                 structure constants, innermost
                                        index is the output coefficient
    bimodule   {dim, left, right}       left: dA x dM x dM, right: dM x dA x dM
    maps       {name: matrix}           source-dim x target-dim, row wise
    cochains   {name: {arity, inputs, output, tensor}}
    dendriform {dim, succ, prec}
    ns         {dim, succ, prec, vee}

Scalars are integers or canonical fraction strings "num/den".  Parsing
followed by serialization is bit-exact: the writer emits sorted keys,
two-space indentation and canonical scalar forms.

The loader parses the JSON lists straight into the kernel's pure integer
encoding (`linalg.Encoded` over an `IntTensor`), reading each distinct
literal once to the field's integer pair (`field.literal`), and the
writer formats the canonical scalars from those integers
(`field.format_int`); neither imports numpy or builds a scalar.  The maps
and cochain tensors of a loaded Document are Encoded.  `structures` is
imported to build a `dendriform` or `ns` section, and `cochains` by
`cochain_object`, so a document without them loads neither.

The digests are SHA-256 of the canonical dump, from CPython's built-in
module (`_sha256` up to 3.11, `_sha2` from 3.12, `hashlib` only where
neither is built), as `random` loads its sha512: `hashlib` would load
OpenSSL's libcrypto on every verb's start for one small hash.
"""

from __future__ import annotations

import json

try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .algebra import Algebra, Bimodule, canonical_bimodule
from .errors import InputError
from .fields import field_from_name, field_to_name
from .linalg import Encoded, IntTensor, _array, nested, unravel


class Document:
    def __init__(self, field, algebra=None, bimodule=None, maps=None,
                 cochains=None, dendriform=None, ns=None):
        self.field = field
        self.algebra = algebra
        self.bimodule = bimodule
        self.maps = {} if maps is None else maps
        self.cochains = {} if cochains is None else cochains
        self.dendriform = dendriform
        self.ns = ns

    def section(self, name):
        """The `name` section; InputError (exit 2) without one."""
        value = getattr(self, name)
        if value is None:
            raise InputError(f"document has no {name!r} key")
        return value


# the product sections: (key, class in `structures`, product tensors)
_STRUCTURES = (("dendriform", "Dendriform", ("succ", "prec")),
               ("ns", "NSAlgebra", ("succ", "prec", "vee")))


def _parse_tensor(field, raw, shape, path):
    """The Encoded tensor of a nested list of literals (or of its
    `_array`); the shapes are compared before anything is parsed."""
    got, flat = raw if isinstance(raw, tuple) else _array(raw)
    if got != shape:
        raise InputError(f"{path}: expected shape {shape}, got {got}")
    out = []
    parsed = {}     # (type, literal) -> pair; True == 1.0 == 1 as keys
    for i, value in enumerate(flat):
        try:
            out.append(parsed[type(value), value])
        except (KeyError, TypeError):   # a new literal, or an unhashable one
            try:
                pair = parsed[type(value), value] = field.literal(value)
            except InputError as exc:
                pos = "".join(f"[{j}]" for j in unravel(i, shape))
                raise InputError(f"{path}{pos}: {exc}") from exc
            out.append(pair)
    ints, scale = field.encode_pairs(out)
    return Encoded(field, IntTensor(shape, ints), scale)


def format_tensor(field, arr):
    """Nested lists of the canonical forms of a tensor's scalars,
    formatted from the integers of its encoding (`Encoded.of`)."""
    arr = Encoded.of(field, arr)
    flat, scale = arr.ints.ravel().tolist(), arr.scale
    forms = {n: field.format_int(n, scale) for n in set(flat)}
    return nested([forms[n] for n in flat], arr.shape)


def _object(value, path):
    if not isinstance(value, dict):
        raise InputError(f"{path}: expected a JSON object")
    return value


def _require(mapping, key, path, kind=None):
    if key not in _object(mapping, path):
        raise InputError(f"{path}: missing key {key!r}")
    value = mapping[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise InputError(f"{path}.{key}: expected a positive integer")
    return value


def _distinct_keys(pairs):
    """A JSON object's dict; a repeated key is refused, not overwritten."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise InputError(f"JSON object repeats the key {key!r}")
        seen.add(key)
    return dict(pairs)


def decode(text: str):
    """The JSON value of a document's text; the one decode path."""
    try:
        return json.loads(text, object_pairs_hook=_distinct_keys)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"JSON parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # huge integers, deep nesting
        raise InputError(f"JSON parse error: {exc}") from exc


def load_document(text: str) -> Document:
    """Parse a schema document from a JSON string."""
    return document_from_obj(decode(text))


def load_raw_algebra(text: str):
    """Parse just the field and the raw structure-constant tensor, without
    the associativity gate; used by verbs that judge associativity.
    Returns (field, c, raw) with the decoded document raw for
    `raw_digest`."""
    raw = decode(text)
    field = _root_field(raw)
    if "algebra" not in raw:
        raise InputError("document has no 'algebra' key")
    return (field, *_cubes(field, raw, "algebra", "c"), raw)


def _cubes(field, raw, section, *keys):
    """The dim x dim x dim tensors `keys` of a section with its own dim."""
    entry = raw[section]
    dim = _require(entry, "dim", section, int)
    return [_parse_tensor(field, _require(entry, key, section), (dim,) * 3,
                          f"{section}.{key}") for key in keys]


def _root_field(raw):
    """The field of a decoded document; the one check of its root."""
    if not isinstance(raw, dict):
        raise InputError("document root must be a JSON object")
    if "field" not in raw:
        raise InputError("document is missing the 'field' key")
    return field_from_name(raw["field"])


def document_from_obj(raw) -> Document:
    field = _root_field(raw)
    doc = Document(field)

    if "algebra" in raw:
        doc.algebra = Algebra(field, *_cubes(field, raw, "algebra", "c"))

    if "bimodule" in raw:
        if doc.algebra is None:
            raise InputError("bimodule requires an algebra")
        entry = raw["bimodule"]
        dim = _require(entry, "dim", "bimodule", int)
        dA = doc.algebra.dim
        left = _parse_tensor(field, _require(entry, "left", "bimodule"),
                             (dA, dim, dim), "bimodule.left")
        right = _parse_tensor(field, _require(entry, "right", "bimodule"),
                              (dim, dA, dim), "bimodule.right")
        doc.bimodule = Bimodule(doc.algebra, left, right, check=False)

    for name, raw_mat in _object(raw.get("maps", {}), "maps").items():
        mat = _array(raw_mat)
        if len(mat[0]) != 2:
            raise InputError(f"maps.{name}: expected a matrix")
        doc.maps[name] = _parse_tensor(field, mat, mat[0], f"maps.{name}")

    for name, entry in _object(raw.get("cochains", {}), "cochains").items():
        path = f"cochains.{name}"
        arity = _require(entry, "arity", path, int)
        inputs = _require(entry, "inputs", path)
        output = _require(entry, "output", path)
        if inputs not in ("A", "B") or output not in ("A", "M", "B"):
            raise InputError(f"{path}: inputs must be 'A' or 'B', output 'A', 'M' or 'B'")
        in_dim = _space_dim(doc, inputs, path)
        out_dim = _space_dim(doc, output, path)
        raw_tensor = _array(_require(entry, "tensor", path))
        if arity > len(raw_tensor[0]):  # refused before the shape is built
            raise InputError(f"{path}.tensor: arity {arity} needs "
                             f"{arity + 1} axes, got {len(raw_tensor[0])}")
        tensor = _parse_tensor(field, raw_tensor,
                               (in_dim,) * arity + (out_dim,), f"{path}.tensor")
        doc.cochains[name] = {"arity": arity, "inputs": inputs,
                              "output": output, "tensor": tensor}

    for section, cls, keys in _STRUCTURES:
        if section in raw:
            from . import structures
            setattr(doc, section, getattr(structures, cls)(
                field, *_cubes(field, raw, section, *keys)))

    return doc


def _space_dim(doc, space, path):
    if space == "A":
        if doc.algebra is None:
            raise InputError(f"{path}: space 'A' needs an algebra")
        return doc.algebra.dim
    if space == "M":
        if doc.bimodule is None:
            raise InputError(f"{path}: space 'M' needs a bimodule")
        return doc.bimodule.dim
    if doc.algebra is None:
        raise InputError(f"{path}: space 'B' needs an algebra")
    return doc.algebra.dim + (doc.bimodule.dim if doc.bimodule else 0)


def document_to_obj(doc: Document) -> dict:
    field = doc.field
    obj = {"field": field_to_name(field)}
    if doc.algebra is not None:
        obj["algebra"] = {"dim": doc.algebra.dim,
                          "c": format_tensor(field, doc.algebra._c)}
    if doc.bimodule is not None:
        obj["bimodule"] = {"dim": doc.bimodule.dim,
                           "left": format_tensor(field, doc.bimodule._left),
                           "right": format_tensor(field, doc.bimodule._right)}
    if doc.maps:
        obj["maps"] = {name: format_tensor(field, mat)
                       for name, mat in doc.maps.items()}
    if doc.cochains:
        obj["cochains"] = {
            name: {"arity": entry["arity"], "inputs": entry["inputs"],
                   "output": entry["output"],
                   "tensor": format_tensor(field, entry["tensor"])}
            for name, entry in doc.cochains.items()}
    for section, _, keys in _STRUCTURES:
        structure = getattr(doc, section)
        if structure is not None:
            obj[section] = {"dim": structure.dim, **{
                key: format_tensor(field, getattr(structure, "_" + key))
                for key in keys}}
    return obj


def _canonical(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_document(doc: Document) -> str:
    """Canonical serialization of the document."""
    return _canonical(document_to_obj(doc))


def document_digest(doc: Document) -> str:
    """Stable content digest of the parsed document."""
    return raw_digest(document_to_obj(doc))


def raw_digest(raw) -> str:
    """Digest of a decoded document that may not pass semantic
    validation: canonical dump of the raw JSON value."""
    return sha256(_canonical(raw).encode()).hexdigest()


def cochain_object(doc: Document, name):
    """The `Cochain` of a named entry with inputs 'A'; no name gives None."""
    if name is None:
        return None
    from .cochains import Cochain
    entry = _named(doc.cochains, name, "cochain")
    if entry["inputs"] != "A":
        raise InputError(f"cochain {name!r} must have inputs 'A'")
    algebra = doc.section("algebra")
    if entry["output"] == "M":
        module = doc.section("bimodule")
    elif entry["output"] == "A":
        module = canonical_bimodule(algebra)
    else:
        raise InputError(f"cochain {name!r} must land in 'A' or 'M'")
    return Cochain(algebra, module, entry["tensor"])


def multimap_tensor(doc: Document, name: str):
    """Materialize a named cochain entry with inputs == output as a raw
    MultiMap tensor (on A or on A (+) M)."""
    entry = _named(doc.cochains, name, "cochain")
    if entry["inputs"] != entry["output"]:
        raise InputError(
            f"cochain {name!r} is not a multimap: inputs {entry['inputs']!r} "
            f"differ from output {entry['output']!r}")
    return entry["tensor"]


def named_map(doc: Document, name: str):
    return _named(doc.maps, name, "map")


def _named(mapping, name, what):
    if name not in mapping:
        known = ", ".join(sorted(mapping)) or "none"
        raise InputError(f"no {what} named {name!r} in the document "
                         f"(available: {known})")
    return mapping[name]
