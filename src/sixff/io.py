"""Structured text input: groups, groupoids, functors, setups, sheaves.

Groups enter as full Cayley tables or permutation generators (closed on
load); groupoids as object/morphism/composition records; geometric setups
as a category plus an exceptional flag per morphism; sheaves as per-object
dimensions plus per-generator matrices with exact rational entries
("3", "-1/2", or [num, den]) or residues mod p.  Validation reports carry
machine-readable violation codes.
"""

from __future__ import annotations

import functools
import json

from .corr import GeometricSetup
from .fields import parse_field
from .groupoid import (
    FiniteCategory, FiniteGroupoid, Functor, StructureError,
)
from .groups import FiniteGroup
from .linalg import Matrix
from .sheaves import Sheaf


class InputError(StructureError):
    """An input document that cannot be read as what it claims to be: the
    file is missing or not JSON, a key is missing, or the tables it holds
    are malformed.  The message names the file (when the document came
    from `load_document`) and, for a missing key, the key."""

    def __init__(self, path, detail):
        super().__init__("%s: %s" % (path, detail) if path else detail)
        self.path = path


class _Document(dict):
    """A JSON object read from `path`; a missing key raises InputError."""

    def __init__(self, pairs, path):
        super().__init__(pairs)
        self.path = path

    def __missing__(self, key):
        raise InputError(self.path, "missing key %r" % (key,))


def _loader(fn):
    """Re-raise whatever `fn` rejects in a document as one InputError that
    names the document's file."""
    @functools.wraps(fn)
    def load(doc, *args, **kwargs):
        try:
            return fn(doc, *args, **kwargs)
        except InputError:
            raise
        except KeyError as e:
            raise InputError(getattr(doc, "path", None),
                             "unknown key or id %r" % (e.args[0],)) from e
        except (StructureError, LookupError, TypeError, ValueError,
                AttributeError) as e:
            raise InputError(getattr(doc, "path", None), str(e)) from e
    return load


def _as_id(v):
    if isinstance(v, list):
        return tuple(_as_id(x) for x in v)
    return v


@_loader
def load_group(doc, name=None):
    """{"table": [[...]]} with elements 0..n-1, or
    {"permutations": [[...], ...]}; presets by {"preset": "S3"}."""
    if "preset" in doc:
        from . import presets
        return presets.group(doc["preset"])
    if "permutations" in doc:
        return FiniteGroup.from_permutations(
            [tuple(p) for p in doc["permutations"]],
            name=doc.get("name", name))
    if "table" in doc:
        table = doc["table"]
        n = len(table)
        elems = list(range(n))
        mul = {(a, b): table[a][b] for a in elems for b in elems}
        return FiniteGroup(elems, mul, name=doc.get("name", name))
    raise StructureError("group document needs 'table' or 'permutations'")


@_loader
def load_groupoid(doc):
    objects = [_as_id(x) for x in doc["objects"]]
    morphisms = []
    src, dst = {}, {}
    for rec in doc["morphisms"]:
        mid = _as_id(rec["id"])
        morphisms.append(mid)
        src[mid] = _as_id(rec["src"])
        dst[mid] = _as_id(rec["dst"])
    identity = {_as_id(k): _as_id(v) for k, v in doc["identity"].items()} \
        if isinstance(doc["identity"], dict) else \
        {objects[i]: _as_id(v) for i, v in enumerate(doc["identity"])}
    compose = {(_as_id(g), _as_id(f)): _as_id(h)
               for g, f, h in doc["compose"]}
    if "inverse" in doc:
        inverse = {_as_id(k): _as_id(v)
                   for k, v in (doc["inverse"].items()
                                if isinstance(doc["inverse"], dict)
                                else zip(morphisms, doc["inverse"]))}
        return FiniteGroupoid(objects, morphisms, src, dst, identity,
                              compose, inverse)
    return FiniteCategory(objects, morphisms, src, dst, identity, compose)


@_loader
def load_functor(doc, dom, cod):
    ob = {_as_id(k): _as_id(v) for k, v in doc["objects"].items()}
    mor = {_as_id(k): _as_id(v) for k, v in doc["morphisms"].items()}
    return Functor(dom, cod, ob, mor, name=doc.get("name"))


@_loader
def load_setup(doc):
    """Category document plus an exceptional flag per morphism (either a
    list under "exceptional" or per-record booleans)."""
    cat = load_groupoid(doc)
    exc = set()
    if "exceptional" in doc:
        exc = {_as_id(m) for m in doc["exceptional"]}
    else:
        for rec in doc["morphisms"]:
            if rec.get("exceptional"):
                exc.add(_as_id(rec["id"]))
    return GeometricSetup(cat, exc)


def _int(x):
    """An int given as a JSON int or as decimal text.  A JSON float or bool
    is refused: int() would truncate it to a different scalar."""
    if isinstance(x, (bool, float)):
        raise ValueError("scalar part %r is not an integer" % (x,))
    return int(x)


def _scalar(field, v):
    """A scalar written as n, "n", "n/d" or [n, d]."""
    if isinstance(v, str) and "/" in v:
        v = v.split("/")
    if isinstance(v, list):
        num, den = v
        return field.of(_int(num), _int(den))
    return field.of(_int(v))


def load_matrix(field, rows, ncols=None):
    return Matrix(field, [[_scalar(field, v) for v in row] for row in rows],
                  ncols=ncols)


@_loader
def load_sheaf(doc, base, field=None):
    """{"field": "q" | "fp:5", "dims": {...}, "matrices": {morphism-id:
    rows}}: matrices may be given on generators only; the loader closes
    the table under composition and validates exactness."""
    field = field or parse_field(doc.get("field", "q"))
    dims = {_as_id(k): int(v) for k, v in doc["dims"].items()}
    mats = {}
    for k, rows in doc.get("matrices", {}).items():
        mid = _as_id(json.loads(k) if isinstance(k, str) and
                     k.startswith("[") else k)
        a, b = base.src[mid], base.dst[mid]
        mats[mid] = load_matrix(field, rows, ncols=dims[a])
        if mats[mid].shape != (dims[b], dims[a]):
            raise StructureError("matrix at %r has wrong shape" % (mid,))
    for x in base.objects:
        mats[base.identity[x]] = Matrix.identity(field, dims[x])
    # close under composition
    changed = True
    while changed:
        changed = False
        for g, f in base.composable_pairs():
            h = base.compose(g, f)
            if h not in mats and g in mats and f in mats:
                mats[h] = mats[g] * mats[f]
                changed = True
        if len(mats) == len(base.morphisms):
            break
    missing = [m for m in base.morphisms if m not in mats]
    if missing:
        # groupoid: fill inverses
        for m in missing:
            inv = base.inverse.get(m) if hasattr(base, "inverse") else None
            if inv is not None and inv in mats:
                mats[m] = mats[inv].inverse()
    missing = [m for m in base.morphisms if m not in mats]
    if missing:
        raise StructureError("matrices do not generate: missing %r"
                             % (missing[0],))
    sh = Sheaf(base, field, dims, mats)
    bad = sh.validate()
    if bad:
        raise StructureError("sheaf tables inconsistent: %s" % bad[0])
    return sh


def load_document(path):
    """The JSON object in the file at `path`; InputError if it cannot be
    read, is not JSON or is not an object."""
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=lambda pairs:
                            _Document(pairs, path))
    except OSError as e:
        raise InputError(path, e.strerror or str(e)) from e
    except ValueError as e:     # JSONDecodeError, UnicodeDecodeError
        raise InputError(path, "malformed JSON: %s" % e) from e
    if not isinstance(doc, dict):
        raise InputError(path, "not a JSON object")
    return doc


def violations_as_json(report):
    return [{"code": v.code, "detail": v.detail} for v in report]


def load_inputs(paths, field_spec="q"):
    """Validated object store: every document is routed by its "kind" field
    (group, groupoid, category, setup, sheaf) through its module validator;
    the semisimplicity gate is checked wherever a field pairs with a
    groupoid.  Returns {name: object}; raises InputError (or GateError)
    on the first invalid input.
    """
    from .fields import check_gate
    field = parse_field(field_spec)
    store = {}
    pending_sheaves = []
    for i, path in enumerate(paths):
        doc = load_document(path)
        kind = doc.get("kind", "group" if ("table" in doc or
                                           "permutations" in doc or
                                           "preset" in doc) else "groupoid")
        name = doc.get("name", "%s-%d" % (kind, i))
        if kind == "group":
            store[name] = load_group(doc, name=name)
        elif kind in ("groupoid", "category"):
            g = load_groupoid(doc)
            bad = g.validate()
            if bad:
                raise InputError(path, "%s: %s" % (name, bad[0]))
            if getattr(g, "is_groupoid", False):
                check_gate(field, g)
            store[name] = g
        elif kind == "setup":
            setup = load_setup(doc)
            store[name] = setup
        elif kind == "sheaf":
            pending_sheaves.append((name, doc))
        else:
            raise InputError(path, "unknown input kind %r" % (kind,))
    for name, doc in pending_sheaves:
        if doc["base"] not in store:
            raise InputError(doc.path, "unknown base %r" % (doc["base"],))
        store[name] = load_sheaf(doc, store[doc["base"]], field)
    return store
