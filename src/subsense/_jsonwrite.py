"""The one JSON writer of instance and trace files.

``pieces(obj)`` yields the text of ``json.dumps(obj, indent=2)``, byte for
byte, for the trees that ``to_json_dict`` and ``trace_to_json_dict`` build:
dicts with str or int keys, lists, ints, strs and None.  With an
indent, CPython's ``json`` runs its pure-Python encoder, a generator step
per value.  Here the inner loops run in C: a list of ints is one
``str.join``, and a list of equal-length int lists, such as the allowed
pairs of a constraint, is one ``%`` template per item.  Strings are escaped
by ``json.encoder.encode_basestring_ascii``, as ``json.dumps`` escapes them.

The pieces are the items of the top-level container and of its values, so
``dump`` streams a file with ``writelines``, as ``json.dump`` does, and no
string of the whole file is held.
"""

from __future__ import annotations

import json
from itertools import chain

_escape = json.encoder.encode_basestring_ascii
_INTS = {int}
_LISTS = {list}


def _key(key) -> str:
    if type(key) is str:
        return _escape(key)
    if type(key) is int:
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")


def _text(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(indent=2)`` writes it after the newline and
    indent ``nl``."""
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _escape(obj)
    if obj is None:
        return "null"
    inner = nl + "  "
    sep = "," + inner
    if kind is list:
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == _INTS:
            return "[" + inner + sep.join(map(int.__repr__, obj)) + nl + "]"
        if kinds == _LISTS:
            sizes = set(map(len, obj))
            # lists all empty hold no int, so they take the general path
            if len(sizes) == 1 and set(map(type, chain.from_iterable(obj))) == _INTS:
                deeper = inner + "  "
                item = "[" + deeper + ("," + deeper).join(["%d"] * sizes.pop()) + inner + "]"
                return "[" + inner + sep.join(map(item.__mod__, map(tuple, obj))) + nl + "]"
        return "[" + inner + sep.join([_text(value, inner) for value in obj]) + nl + "]"
    if kind is dict:
        if not obj:
            return "{}"
        return (
            "{"
            + inner
            + sep.join([_key(key) + ": " + _text(value, inner) for key, value in obj.items()])
            + nl
            + "}"
        )
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def pieces(obj, nl: str = "\n", depth: int = 2):
    """Yield the text of ``json.dumps(obj, indent=2)`` in pieces: each
    value ``depth`` levels below ``obj`` whole, and the brackets, keys and
    separators around it apart."""
    kind = type(obj)
    if not (depth and obj and (kind is dict or kind is list)):
        yield _text(obj, nl)
        return
    inner = nl + "  "
    lead = inner
    if kind is dict:
        yield "{"
        for key, value in obj.items():
            yield lead + _key(key) + ": "
            yield from pieces(value, inner, depth - 1)
            lead = "," + inner
        yield nl + "}"
    else:
        yield "["
        for value in obj:
            yield lead
            yield from pieces(value, inner, depth - 1)
            lead = "," + inner
        yield nl + "]"


def dump(obj, path) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces(obj))
        fh.write("\n")
