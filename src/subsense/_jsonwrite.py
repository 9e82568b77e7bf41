"""The text helpers every instance and trace file template shares.

An instance or trace file is exactly ``json.dumps(tree, indent=2)`` and a
newline, for the tree ``to_json_dict`` or ``trace_to_json_dict`` builds,
but no tree is built to write it: ``instance`` and ``trace`` fill text
templates fixed by their schema straight from their objects.  With an
indent, CPython's ``json`` runs its pure-Python encoder, a generator step
per value; a template runs its inner loops in C instead, one ``%`` per
record and one ``str.join`` per list of ints or map of ints.

A template is made for the newline and indent (``nl``) its text starts
after, the text of one level deeper being ``nl + "  "``.  ``%d`` writes
a float or a bool as an int, so the trace writer checks that what went
into the int slots of a step is exactly ints, all at once, and raises
``TypeError`` for what its schema does not hold; ``make_instance`` has
checked every int of an instance.  Strings are escaped by
``json.encoder.encode_basestring_ascii``, as ``json.dumps`` escapes them.

``write`` streams a file from its pieces, one variable, constraint or
trace step each, with ``writelines``, as ``json.dump`` does, so no string
of the whole file is held.
"""

from __future__ import annotations

import json

escape = json.encoder.encode_basestring_ascii


def ints_writer(nl: str):
    """The function that writes a list of ints, checked by the caller, as
    ``json.dumps(indent=2)`` writes it after ``nl``."""
    inner = nl + "  "
    head, sep, tail = "[" + inner, "," + inner, nl + "]"

    def write(values) -> str:
        if not values:
            return "[]"
        return head + sep.join(map(int.__repr__, values)) + tail

    return write


def object_template(names, slots, nl: str) -> str:
    """The ``%`` template of an object whose keys are ``names`` and whose
    values fill ``slots`` (``"%d"`` or ``"%s"``), after ``nl``."""
    inner = nl + "  "
    items = [f"{escape(name)}: {slot}" for name, slot in zip(names, slots)]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def list_pieces(texts, nl: str):
    """The pieces of a list, after ``nl``, whose items have the texts
    ``texts``: one item each, with the separator or bracket before it."""
    inner = nl + "  "
    lead, sep = "[" + inner, "," + inner
    for text in texts:
        yield lead + text
        lead = sep
    yield nl + "]" if lead is sep else "[]"


def write(path, pieces) -> None:
    """Write the text of ``pieces`` and a newline to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
        fh.write("\n")
