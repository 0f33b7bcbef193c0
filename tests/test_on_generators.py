"""The generator passes read the generators Light-tested on the table they
read, through the one closure-argument helper core._on_generators.

A pass that took generators tested on another table could accept a table
its plain scan rejects.  So on Boolean corpus tables with one product
corrupted after construction, each pass below must agree with its scan;
and no module may read generators except through the helper.
"""

import ast
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import biskit
from biskit.boolean import (
    _distributes_on_generators,
    _distributivity_failure,
    check_boolean,
    check_multiplicative,
)
from biskit.core import Congruence, _congruence_scan, check_congruence
from biskit.corpus import corpus_semigroup
from biskit.errors import NotMultiplicative
from test_law_kernels import corrupted, corruptions


@st.composite
def corrupted_products_and_classes(draw):
    """A corruption of one table entry, and a class of each id, of at most
    three classes."""
    corruption = draw(corruptions(tables=("table",)))
    k = corpus_semigroup(corruption[0]).size
    classes = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    return corruption, tuple(classes)


def multiplicative_witness(source, target, mp):
    try:
        check_multiplicative(source, target, mp)
    except NotMultiplicative as e:
        return e.witness
    return None


def pairwise_witness(s, t, mp):
    """The first pair (a, b), in lexicographic order, with mp[a*b] !=
    mp[a]*mp[b], or None."""
    for a in range(s.size):
        for b in range(s.size):
            if mp[s.table[a][b]] != t.table[mp[a]][mp[b]]:
                return (a, b)
    return None


@settings(max_examples=200, deadline=None)
@given(corrupted_products_and_classes())
# Light's test fails on each of these tables, and generators tested on the
# table the structure was built with pass where the scan fails: the classes
# (0, 1, 1, 1) of z3zero with 1 * 1 read as 0 are no congruence, as
# 1 * 1 = 0 and 1 * 2 = 2 lie in different classes
@example((("z3zero", "table", 1, 1, 0), (0, 1, 1, 1)))
# distributivity fails
@example((("m2z2zero", "table", 7, 12, 13), (0,) * 17))
# the identity onto the table as built is not multiplicative
@example((("i2xz2zero", "table", 6, 3, 15), (0,) * 21))
def test_generator_passes_match_scans_on_corrupted_products(drawn):
    corruption, classes = drawn
    s = corrupted(*corruption).s
    k = s.size
    assert check_congruence(s, Congruence(k, classes)) == _congruence_scan(s, classes)

    if _distributes_on_generators(s):
        assert _distributivity_failure(s) is None
    failure = check_boolean(s).failure
    if failure is not None and failure[0].endswith("-distributivity"):
        assert failure == _distributivity_failure(s)

    # the identity map, each way between the corrupted and the pristine table
    ids = tuple(range(k))
    pristine = corpus_semigroup(corruption[0])
    for source, target in ((s, pristine), (pristine, s)):
        got = multiplicative_witness(source, target, ids)
        assert got == pairwise_witness(source, target, ids)


# -- no generators read but through the helper --------------------------------


def attribute_reads(tree, attr):
    """The enclosing (class or function) names of each read of .attr."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_generators_are_read_only_through_the_helper():
    modules = sorted(Path(biskit.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert attribute_reads(tree, "generators") == [], path.name
        for scope in attribute_reads(tree, "associative_generators"):
            # the helper itself, and the property InvSgp keeps them in
            allowed = ("_on_generators",), ("InvSgp", "associative_generators")
            assert path.name == "core.py" and scope in allowed, (path.name, scope)
