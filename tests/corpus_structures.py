"""The Boolean corpus structures the tests read, each validated once.

boolean(name) is check_boolean's structure for the corpus table name, or
for I4 when name is "i4", built on the first call and then shared.  A
validated structure is never changed: a test that needs a corrupted one
builds a copy (tests/unchecked.py), so the fields it caches on first read
may be shared too.  A test that times, traces or patches what a build
does, or needs two distinct builds of one table, takes fresh_boolean.
"""

from functools import cache

from biskit.boolean import check_boolean
from biskit.core import InvSgp
from biskit.corpus import corpus_semigroup, symmetric_inverse_table


def fresh_boolean(name):
    """A new Boolean corpus structure, or I4 for "i4"."""
    if name == "i4":
        return check_boolean(InvSgp(symmetric_inverse_table(4))).structure
    return check_boolean(corpus_semigroup(name)).structure


boolean = cache(fresh_boolean)
