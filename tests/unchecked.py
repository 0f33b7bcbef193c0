"""Corrupted structures for the tests: each is a new object, built without
validation, so a validated structure and its table are never changed.

unchecked(x, drop, **fields) copies x's fields into a new object of its
class, leaves out those named in drop and puts the given ones in place.  A
cached field left out is read off the new object's fields when first asked
for; one kept was read off x's.  An InvSgp given a table gets its view
(core._view) and its Light-tested generators from that table, by the
functions InvSgp itself uses, unless they are given too: a table that fails
Light's test has None, so every generator pass declines and the plain scans
decide.  One given a meet or join table, or relative-complement rows, drops
their view, read off the old one (VIEWS); it is built again by core._view
when first read.
"""

from biskit.core import InvSgp, _tested_generators, _view

# the cached fields read off the product table
FROM_TABLE = ("compat_partners", "orth", "restricted_groupoid")

# the view core._view makes of each table: InvSgp.meet_view,
# InvSgp.join_view (on the compatible partners) and BoolInvSgp.rc_view (of
# the relative-complement rows, on the down-sets)
VIEWS = {"meet_table": "meet_view", "join_table": "join_view", "rc_rows": "rc_view"}


def unchecked(x, drop=(), **fields):
    """A new object of x's class with x's fields but those named in drop,
    and fields in place of the rest; nothing is validated."""
    drop = (*drop, *(VIEWS[name] for name in VIEWS.keys() & fields.keys()))
    if isinstance(x, InvSgp) and "table" in fields:
        rows = fields["table"] = tuple(map(tuple, fields["table"]))
        if "view" not in fields:
            fields["view"] = _view(rows, len(rows))
        if "associative_generators" not in fields:
            gens = _tested_generators(rows, fields["view"])
            fields["associative_generators"] = gens
    out = object.__new__(type(x))
    for name, v in vars(x).items():
        if name not in drop:  # a set, dict or list of its own
            vars(out)[name] = v.copy() if isinstance(v, (set, dict, list)) else v
    vars(out).update(fields)
    return out


def replaced(rows, a, b, value):
    """rows, a tuple of tuples, with entry [a][b] set to value; for a tuple
    of frozensets, as InvSgp.orth, b is put in set a when value is true and
    taken out when it is false; for a tuple of dicts, as
    BoolInvSgp.rc_rows, key b of dict a is set to value, and taken out when
    value is None.  The other rows are shared, not copied."""
    row = rows[a]
    if isinstance(row, frozenset):
        row = row | {b} if value else row - {b}
    elif isinstance(row, dict):
        row = {**row, b: value}
        if value is None:
            del row[b]
    else:
        row = (*row[:b], value, *row[b + 1 :])
    return (*rows[:a], row, *rows[a + 1 :])
