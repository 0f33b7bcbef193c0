"""Corrupted structures for the tests: each is a new object, built without
validation, so a validated structure and its table are never changed.

unchecked(x, drop, **fields) copies x's fields into a new object of its
class, leaves out those named in drop and puts the given ones in place.  A
cached field left out is read off the new object's fields when first asked
for; one kept was read off x's.  An InvSgp given a table gets its byte view
and its Light-tested generators from that table, by the functions InvSgp
itself uses, unless they are given too: a table that fails Light's test has
None, so every generator pass declines and the plain scans decide.  One
given a meet table drops the meet view read off the old one.
"""

from biskit.core import InvSgp, _byte_view, _tested_generators

# the cached fields read off the product table
FROM_TABLE = ("compat_partners", "orth", "restricted_groupoid")


def unchecked(x, drop=(), **fields):
    """A new object of x's class with x's fields but those named in drop,
    and fields in place of the rest; nothing is validated."""
    if isinstance(x, InvSgp) and "meet_table" in fields:
        drop = (*drop, "meet_view")
    if isinstance(x, InvSgp) and "table" in fields:
        rows = fields["table"] = tuple(map(tuple, fields["table"]))
        if "byte_view" not in fields:
            fields["byte_view"] = _byte_view(rows)
        if "associative_generators" not in fields:
            gens = _tested_generators(rows, fields["byte_view"])
            fields["associative_generators"] = gens
    out = object.__new__(type(x))
    for name, v in vars(x).items():
        if name not in drop:  # a set, dict or list of its own
            vars(out)[name] = v.copy() if isinstance(v, (set, dict, list)) else v
    vars(out).update(fields)
    return out


def replaced(rows, a, b, value):
    """rows, a tuple of tuples, with entry [a][b] set to value; the other
    rows are shared, not copied."""
    row = rows[a]
    return (*rows[:a], (*row[:b], value, *row[b + 1 :]), *rows[a + 1 :])
