"""The generator passes read the generators Light-tested on the table they
read, through the one closure-argument helper core._on_generators.

A pass that took generators tested on another table could accept a table
its plain scan rejects.  So on Boolean corpus tables with one product
corrupted (built unchecked from the valid structure, tests/unchecked.py),
each pass below must agree with its scan; no module may read generators
except through the helper, and no table is set but by InvSgp.__init__.
"""

import ast
import os
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import biskit
import biskit.core
from biskit.boolean import (
    _distributivity_failure,
    _partner_joins,
    check_boolean,
    check_multiplicative,
)
from biskit.core import (
    InvSgp,
    _congruence_scan,
    check_congruence,
    mu_and_quotient,
)
from biskit.corpus import BOOLEAN_NAMES, corpus_semigroup
from biskit.errors import BiskitError, NotMultiplicative
from biskit.rook import decompose
from generated import i4_subsemigroup_tables
from naive_translation import _distributivity_failure as naive_distributivity_failure
from test_core import generated_closure, relabel
from test_law_kernels import corrupted, corruptions
from test_laws import parsed_modules
from unchecked import FROM_TABLE, replaced, unchecked


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
    assert check_congruence(s, classes) == _congruence_scan(s, classes)

    # the scan reads joins only where check_boolean found them all
    failure = check_boolean(s).failure
    if failure is None or failure[0] not in ("no-zero", "missing-join"):
        want = naive_distributivity_failure(s)
        assert _distributivity_failure(s, *_partner_joins(s)) == want
        assert want is None or failure == want

    # the identity map, each way between the corrupted and the pristine table
    ids = tuple(range(k))
    pristine = corpus_semigroup(corruption[0])
    for source, target in ((s, pristine), (pristine, s)):
        got = multiplicative_witness(source, target, ids)
        assert got == pairwise_witness(source, target, ids)


def test_a_corrupted_structure_is_a_new_object():
    # the valid structure keeps its table and every field, cached ones too;
    # the corrupted one is tested afresh: 1 * 1 read as 0 fails Light's test
    s = corpus_semigroup("z3zero")
    s.compat_partners, s.join_table
    before = dict(vars(s))
    bad = corrupt(s, 1, 1, 0)
    assert bad is not s and vars(s) == before
    assert bad.table[1][1] == 0 and bad.associative_generators is None
    assert "compat_partners" not in vars(bad) and "join_table" in vars(bad)


# -- decisions that do not depend on the generating set ------------------------


def descending_id_generators(rows, view=None):
    """The generating set of a scan of ids from the top: the largest id not
    yet generated, until every id is; the view _generators ranks through
    is not read."""
    gens, closure = [], set()
    for x in reversed(range(len(rows))):
        if x not in closure:
            gens.append(x)
            closure = generated_closure(rows, gens)
    return tuple(gens)


def decisions(s, congruences):
    """check_boolean's failure and complements, check_congruence on each
    congruence, and decompose's iso, each with its witness on failure."""
    check = check_boolean(s)
    got = [check.failure, [check_congruence(s, c) for c in congruences]]
    if check.boolean:
        bs = check.structure
        got += [bs.complement, bs.base.identity]
        try:
            cert = decompose(bs)
        except BiskitError as e:
            got.append((type(e).__name__, e.args))
        else:
            got.append((cert.signature, cert.iso))
    return got


def corrupt(s, a, b, value):
    """s unchecked with entry [a][b] of its table set to value."""
    return unchecked(s, FROM_TABLE, table=replaced(s.table, a, b, value))


@st.composite
def tables_and_corruptions(draw):
    """A relabelled Boolean corpus table or inverse subsemigroup of I4, an
    entry of it to set or None to keep the table, and classes of at most
    three."""
    if draw(st.booleans()):
        table = corpus_semigroup(draw(st.sampled_from(BOOLEAN_NAMES))).table
    else:
        table = draw(i4_subsemigroup_tables)
    k = len(table)
    ids = st.integers(0, k - 1)
    entry = draw(st.none() | st.tuples(ids, ids, ids))
    classes = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    return relabel(table, draw(st.permutations(range(k)))), entry, tuple(classes)


@settings(max_examples=100, deadline=None)
@given(tables_and_corruptions())
def test_decisions_do_not_depend_on_the_generating_set(drawn):
    # check_boolean, check_congruence on mu's classes and on drawn ones, and
    # decompose, with the generating set of the scan by row size and of the
    # scan from the top
    table, entry, classes = drawn
    got = []
    for generators in (biskit.core._generators, descending_id_generators):
        with mock.patch.object(biskit.core, "_generators", generators):
            s = InvSgp(table)
            congruences = (mu_and_quotient(s).mu, classes)
            if entry is not None:
                s = corrupt(s, *entry)
            assert s.associative_generators in (None, generators(s.table))
            got.append(decisions(s, congruences))
    assert got[0] == got[1]


# -- no generators read but through the helper --------------------------------


def attribute_reads(tree, attr, ctx=ast.expr_context):
    """The enclosing (class or function) names of each use of .attr: every
    read or write, or with ctx ast.Store only the writes."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Attribute) and node.attr == attr:
            if isinstance(node.ctx, ctx):
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
            # the helper itself, and the constructor that sets them
            allowed = ("_on_generators",), ("InvSgp", "__init__")
            assert path.name == "core.py" and scope in allowed, (path.name, scope)


def test_no_table_is_set_after_validation():
    # a structure's table is set once, by the constructor that validates
    # it; a corrupted structure is a new object (tests/unchecked.py)
    found = []
    for path in (biskit.__file__, __file__):
        for name, tree in parsed_modules(os.path.dirname(os.path.abspath(path))).items():
            found += [(name, scope) for scope in attribute_reads(tree, "table", ast.Store)]
    assert found == [("core.py", ("InvSgp", "__init__"))]
