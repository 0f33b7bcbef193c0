import importlib.util
import itertools
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biskit.core
from biskit.boolean import check_boolean, k_of_groupoid
from biskit.core import (
    CONGRUENCE_SCAN_CAP,
    InvSgp,
    _Bytes,
    _Tuples,
    _check_associativity,
    _generators,
    _inverses_on_generators,
    _light_test,
    _parse_table,
    adjoin_zero,
    all_congruences,
    check_congruence,
    is_fundamental,
    mu_and_quotient,
    parse_semigroup,
    restricted_groupoid,
    semigroup_iso,
    table_product,
)
from biskit.corpus import (
    SEMIGROUP_BUILDERS,
    corpus_semigroup,
    render_ist,
    symmetric_inverse_table,
)
from biskit.errors import (
    BiskitError,
    NoZero,
    NotAssociative,
    NotInverse,
    ParseError,
    TooLarge,
    Undecided,
)
from biskit.groupoid import Gpd, group_iso, reconstruct
from biskit.rook import build_Mn_G0
from generated import (
    component_forms,
    generated_table,
    i4_subsemigroup_tables,
    t3_subsemigroup_tables,
    transformation_table,
)
from naive_order import leq, naive_structure
from row_kernels import light_test_by_rows
from test_groupoid import z4_by_z4_table


def test_parse_roundtrip():
    s = corpus_semigroup("i2")
    text = render_ist([list(r) for r in s.table], "scratch")
    t = parse_semigroup(text)
    assert t.table == s.table


def test_parse_skips_comments_and_blanks():
    s = parse_semigroup("# hi\n\nn 1\n# mid\n0\n\n")
    assert s.size == 1


@pytest.mark.parametrize(
    "text",
    [
        "",
        "n 0\n",
        "n 2\n0 1\n",  # missing row
        "n 2\n0 1\n1 0\n0 1\n",  # extra row
        "n 2\n0 2\n1 0\n",  # entry out of range
        "n 2\n0 x\n1 0\n",
        "2\n0 1\n1 0\n",  # header without the n
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_semigroup(text)


def _tokenize(text):
    """Split table text into token lines; '#' starts a comment to end of line."""
    out = []
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def oracle_parse_table(text, allow_undefined):
    """_parse_table as it read every token of the table in one loop, all
    of them held at once (_tokenize)."""
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty input")
    head = lines[0]
    if len(head) != 2 or head[0] != "n":
        raise ParseError(f"bad header line {' '.join(head)!r}, expected 'n <k>'")
    try:
        k = int(head[1])
    except ValueError:
        raise ParseError(f"bad size {head[1]!r}") from None
    if k < 0 or (k == 0 and not allow_undefined):
        raise ParseError(f"bad size {k}")
    body = lines[1:]
    if len(body) != k:
        raise ParseError(f"expected {k} table rows, found {len(body)}")
    table = []
    for i, row in enumerate(body):
        if len(row) != k:
            raise ParseError(f"row {i} has {len(row)} entries, expected {k}")
        ints = []
        for tok in row:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"bad entry {tok!r} in row {i}") from None
            if v == -1 and allow_undefined:
                ints.append(None)
            elif 0 <= v < k:
                ints.append(v)
            else:
                raise ParseError(f"entry {v} out of range in row {i}")
        table.append(tuple(ints))
    return tuple(table)


def parse_outcome(fn, text, allow_undefined):
    try:
        return ("returned", fn(text, allow_undefined))
    except ParseError as e:
        return ("raised", str(e))


@pytest.mark.parametrize("allow_undefined", [False, True])
@pytest.mark.parametrize(
    "text",
    [
        "n 3\n0 1 2\n1 x 2\n2 2 2\n",  # bad token
        "n 3\n0 1 2\n1 9 x\n2 2 2\n",  # out of range before a bad token
        "n 3\n0 1 2\n1 1 3\n2 2 2\n",  # out of range
        "n 3\n0 1 2\n1 -1 2\n2 2 2\n",  # -1: undefined in .grp, not in .ist
        "n 3\n0 1 2\n1 -2 2\n2 2 2\n",
        "n 3\n0 1 2\n1 2\n2 2 2\n",  # short row
        "n 3\n0 1 2\n1 1.0 2\n2 2 2\n",
        "n 3\n-1 -1 -1\n0 +1 2\n2 2 2\n",
        "n 2\n0 1\n1 0\n",
        "n 3\n0 x 2\n1 1 1\n",  # a row missing, a bad entry in an earlier row
        "n 3\n0 1\n1 1 1\n",  # a row missing, a short earlier row
        "n 2\n0 9\n1 0\n1 1\n",  # a row too many, out of range before it
        "n 2\r\n0\t1\r\n1  0\r\n# last row above\r\n",  # CRLF, tabs, comment
        "n 2\r\n0\t1\r\n1 x\r\n",  # CRLF and a bad entry
        "\t# lead\r\nn 2 # size\r\n0 1#\r\n\r\n1 0\t\r\n#\r\n",
    ],
)
def test_parse_table_matches_the_token_loop(text, allow_undefined):
    got = parse_outcome(_parse_table, text, allow_undefined)
    assert got == parse_outcome(oracle_parse_table, text, allow_undefined)


def test_parse_table_counts_rows_before_reading_entries():
    """The row count is named ahead of a bad entry in an earlier row."""
    with pytest.raises(ParseError, match=r"^expected 3 table rows, found 2$"):
        _parse_table("n 3\n0 x 2\n1 1 1\n", allow_undefined=False)


def test_parse_table_peaks_under_half_the_token_loop():
    """Read a row at a time, the parser holds one row's tokens, not the
    whole table's: on 320 ids its peak traced allocation is under half of
    the token loop's, and the rows are the same."""
    k = 320
    text = f"n {k}\n" + "".join(
        " ".join(str((i * j + i) % k) for j in range(k)) + "\n" for i in range(k)
    )

    def peak(fn):
        tracemalloc.start()
        try:
            rows = fn(text, False)
            return rows, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rows, ours = peak(_parse_table)
    oracle_rows, theirs = peak(oracle_parse_table)
    assert rows == oracle_rows
    assert ours < theirs / 2, (ours, theirs)


TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "-2", "x", "01", "-0", "+1", "007", "1_0"]
)


@settings(max_examples=200)
@given(st.lists(TOKENS, min_size=9, max_size=9), st.booleans())
def test_parse_table_matches_the_token_loop_on_drawn_rows(tokens, allow_undefined):
    text = "n 3\n" + "\n".join(" ".join(tokens[i : i + 3]) for i in (0, 3, 6))
    got = parse_outcome(_parse_table, text, allow_undefined)
    assert got == parse_outcome(oracle_parse_table, text, allow_undefined)


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 2], [1, 0]], "entry 2 out of range in row 0"),
        ([[0, 0], [-1, 0]], "entry -1 out of range in row 1"),
        ([[0, 0], [0, None]], "entry None out of range in row 1"),
        ([[0, 0], [0, 1.0]], "entry 1.0 out of range in row 1"),
        ([[0, 0], [0]], "row 1 has 1 entries, expected 2"),
        ([[0, "1"], [1, 0]], "entry '1' out of range in row 0"),
    ],
)
def test_invsgp_rejects_entries_that_are_not_ids(table, message):
    with pytest.raises(ParseError, match=message.replace(".", r"\.")):
        InvSgp(table)


class Id(int):
    """An int subclass, which InvSgp and Gpd take as an id."""


def test_invsgp_accepts_bool_and_int_subclass_entries():
    for v in (True, Id(1)):
        assert InvSgp([[0, 0], [0, v]]).table == ((0, 0), (0, 1))


def row_scan_entry_error(table):
    """The ParseError message of the row-by-row entry check, or None."""
    k = len(table)
    for i, row in enumerate(table):
        if len(row) != k:
            return f"row {i} has {len(row)} entries, expected {k}"
        for v in row:
            if not isinstance(v, int) or not 0 <= v < k:
                return f"entry {v!r} out of range in row {i}"
    return None


ENTRIES = st.sampled_from([0, 0, 1, 1, 2, -1, True, False, Id(1), 1.0, "0", None, 2**70])


@settings(max_examples=300)
@given(st.integers(1, 3), st.data())
def test_entry_check_matches_the_row_scan(k, data):
    # the one-pass check of plain int ids names the same row and entry as
    # the row scan, or lets the table through where the scan does
    lengths = st.integers(k - 1, k + 1) if data.draw(st.booleans()) else st.just(k)
    table = [
        data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
        for n in (data.draw(lengths) for _ in range(k))
    ]
    try:
        InvSgp(table)
        got = None
    except ParseError as e:
        got = str(e)
    except BiskitError:
        got = None
    assert got == row_scan_entry_error(table)


def test_restricted_groupoid_is_kept_with_its_table():
    # built on first read, once per structure
    s = corpus_semigroup("i2")
    g = s.restricted_groupoid
    assert s.restricted_groupoid is g
    assert g.ptable == restricted_groupoid(s).ptable


@settings(max_examples=30, deadline=None)
@given(i4_subsemigroup_tables.filter(lambda t: len(t) <= 30))
def test_join_table_matches_oracle_on_generated_structures(table):
    s = InvSgp(table)
    assert s.join_table == naive_join_table(s)


@settings(max_examples=100, deadline=None)
@given(i4_subsemigroup_tables)
def test_meet_table_matches_oracle_on_generated_structures(table):
    # about one in nine of these misses some meet
    s = InvSgp(table)
    assert s.meet_table == naive_meet_table(s)


@settings(max_examples=10, deadline=None)
@given(component_forms)
def test_meet_table_matches_oracle_on_component_forms(form):
    s = k_of_groupoid(reconstruct(form)).structure.base
    assert s.meet_table == naive_meet_table(s)


def partial_identity(points):
    return frozenset((x, x) for x in points)


CYCLE3 = frozenset({(0, 1), (1, 2), (2, 0)})  # a 3-cycle defined on {0, 1, 2}
SWAP01 = frozenset({(0, 1), (1, 0), (2, 2), (3, 3)})  # (0 1), defined everywhere
SWAP23 = frozenset({(0, 0), (1, 1), (2, 3), (3, 2)})  # (2 3), defined everywhere

# tables where some pair has no meet: corpus z2-group, and inverse
# subsemigroups of I4 by their generators (chain3, antichain3 and b2 have a
# zero and every meet, and are in KERNEL_TABLES)
MISSING_MEET_GENERATORS = {
    "3-cycle and the identity": [CYCLE3, partial_identity(range(4))],
    "S4": [SWAP01, frozenset(zip(range(4), (1, 2, 3, 0)))],
    # id_0 and id_1 are below (2 3), id_{0,1} is not in the table
    "(2 3), id_0 and id_1": [SWAP23, partial_identity([0]), partial_identity([1])],
    "(0 1) and a rank-3 idempotent": [SWAP01, partial_identity(range(3))],
}
MISSING_MEETS = {
    "z2-group": SEMIGROUP_BUILDERS["z2-group"](),
    **{name: generated_table(g)[1] for name, g in MISSING_MEET_GENERATORS.items()},
}


@pytest.mark.parametrize("name", sorted(MISSING_MEETS))
def test_meet_table_matches_oracle_where_meets_are_missing(name):
    s = InvSgp(MISSING_MEETS[name])
    assert any(None in row for row in s.meet_table)
    assert s.meet_table == naive_meet_table(s)


def test_not_associative():
    with pytest.raises(NotAssociative):
        InvSgp([[0, 1], [0, 0]])


def test_left_zero_band_rejected():
    # a*b = a: every element inverts every other, so inverses collide
    with pytest.raises(BiskitError):
        InvSgp([[0, 0], [1, 1]])


def test_z2zero_basics():
    s = corpus_semigroup("z2zero")
    assert s.zero == 0
    assert s.identity == 1
    assert s.inv == (0, 1, 2)
    assert set(s.idempotents) == {0, 1}
    assert set(s.atoms) == {1, 2}


def test_natural_order_is_a_partial_order():
    s = corpus_semigroup("i2")
    for a in range(s.size):
        assert a in s.down[a]
        for b in range(s.size):
            if a in s.down[b] and b in s.down[a]:
                assert a == b
            for c in range(s.size):
                if a in s.down[b] and b in s.down[c]:
                    assert a in s.down[c]


def assert_order_matches_definition(s):
    """up and down hold exactly the pairs a <= b of the definition,
    ascending: each is the other's transpose."""
    ids = range(s.size)
    assert s.down == tuple(tuple(a for a in ids if leq(s, a, b)) for b in ids)
    assert s.up == tuple(tuple(b for b in ids if leq(s, a, b)) for a in ids)


def test_order_against_restriction_oracle():
    # a <= b iff a = b restricted to d(a), in any inverse semigroup
    for name in SEMIGROUP_BUILDERS:
        assert_order_matches_definition(corpus_semigroup(name))


def test_powerset2_atoms():
    s = corpus_semigroup("powerset2")
    assert set(s.atoms) == {1, 2}
    assert s.down[3] == (0, 1, 2, 3)


def test_adjoin_zero_matches_corpus_z2zero():
    z2 = corpus_semigroup("z2-group")
    with_zero = adjoin_zero(z2)
    assert with_zero.size == 3
    assert with_zero.zero == 2  # appended last, unlike the corpus file
    assert semigroup_iso(with_zero, corpus_semigroup("z2zero")) is not None


def test_relations_symmetry():
    s = corpus_semigroup("i2")
    for a in range(s.size):
        for b in range(s.size):
            assert (b in s.compat_partners[a]) == (a in s.compat_partners[b])
            assert (b in s.orth[a]) == (a in s.orth[b])
            assert s.meet_table[a][b] == s.meet_table[b][a]
            assert s.join_table[a][b] == s.join_table[b][a]


def test_relations_zero_free():
    s = corpus_semigroup("z2-group")
    with pytest.raises(NoZero):
        s.orth


def test_compatible_meet_formula():
    # for compatible pairs the meet is a*d(b)
    s = corpus_semigroup("i3")
    for a in range(s.size):
        for b in range(s.size):
            if b in s.compat_partners[a]:
                assert s.meet_table[a][b] == s.table[a][s.d[b]]


def test_meet_oracle_i2():
    # ids 1..4 are the singleton maps {(0,0)}, {(0,1)}, {(1,0)}, {(1,1)};
    # meet = intersection of graphs
    s = corpus_semigroup("i2")
    graphs = {
        0: frozenset(),
        1: frozenset({(0, 0)}),
        2: frozenset({(0, 1)}),
        3: frozenset({(1, 0)}),
        4: frozenset({(1, 1)}),
        5: frozenset({(0, 0), (1, 1)}),
        6: frozenset({(0, 1), (1, 0)}),
    }
    by_graph = {v: k for k, v in graphs.items()}
    for a in range(7):
        for b in range(7):
            want = by_graph.get(graphs[a] & graphs[b])
            assert s.meet_table[a][b] == want


def test_table_product_parts():
    s = corpus_semigroup("i2")
    t = corpus_semigroup("z2zero")
    table = table_product(s, t)
    p = InvSgp(table)
    assert p.size == s.size * t.size
    k = s.size
    # pair (a, b) has id b*k + a, so id i is the pair (i % k, i // k), and
    # the projections read that way are multiplicative
    for i in range(p.size):
        for j in range(p.size):
            ai, bi = i % k, i // k
            aj, bj = j % k, j // k
            ak, bk = p.table[i][j] % k, p.table[i][j] // k
            assert ak == s.table[ai][aj]
            assert bk == t.table[bi][bj]


def test_iso_finds_relabelling():
    s = corpus_semigroup("i2")
    perm = [0, 2, 1, 4, 3, 5, 6]
    inv = [perm.index(i) for i in range(7)]
    table = [
        [perm[s.table[inv[i]][inv[j]]] for j in range(7)] for i in range(7)
    ]
    m = semigroup_iso(InvSgp(table), s)
    assert m is not None


def test_iso_negative():
    assert semigroup_iso(corpus_semigroup("z2zero"), corpus_semigroup("chain3")) is None
    assert (
        semigroup_iso(corpus_semigroup("chain3"), corpus_semigroup("antichain3"))
        is None
    )


def test_fundamental():
    assert is_fundamental(corpus_semigroup("i2")).fundamental
    assert is_fundamental(corpus_semigroup("i3")).fundamental
    rep = is_fundamental(corpus_semigroup("z2zero"))
    assert not rep.fundamental
    assert rep.witness == 2  # the nonidentity group element


def test_mu_quotient_is_fundamental():
    for name in ("z2zero", "i2xz2zero", "m2z2zero"):
        rep = mu_and_quotient(corpus_semigroup(name))
        assert is_fundamental(rep.quotient).fundamental
        assert check_congruence(corpus_semigroup(name), rep.mu) is None


def test_mu_trivial_on_fundamental():
    s = corpus_semigroup("i2")
    rep = mu_and_quotient(s)
    assert rep.quotient.size == s.size


def test_all_congruences_small():
    s = corpus_semigroup("z2zero")
    congs = all_congruences(s)
    assert any(len(set(c)) == s.size for c in congs)
    assert any(len(set(c)) == 1 for c in congs)
    for c in congs:
        assert check_congruence(s, c) is None
    with pytest.raises(TooLarge) as info:
        all_congruences(corpus_semigroup("i3"))
    assert str(info.value) == (
        "congruence enumeration capped at CONGRUENCE_SCAN_CAP=9, "
        "carrier has 34 elements"
    )


def _chain(n):
    """The n-element chain, a semilattice: a*b = min(a, b)."""
    return InvSgp([[min(a, b) for b in range(n)] for a in range(n)])


def _z4z4_group_iso_with_cap(cap):
    """group_iso of Z4 x Z4 against Z4 x| Z4, which tries 132 generator
    images, with ISO_SEARCH_CAP set to cap."""
    with mock.patch.object(biskit.core, "ISO_SEARCH_CAP", cap):
        return group_iso(Gpd(z4_by_z4_table(False)), Gpd(z4_by_z4_table(True)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: _z4z4_group_iso_with_cap(131),
            Undecided,
            "isomorphism search tried 132 generator images, above cap ISO_SEARCH_CAP=131",
        ),
        (
            lambda: build_Mn_G0(7, Gpd([[0]])),
            TooLarge,
            "local bisection count 130922 above cap K_OF_GROUPOID_CAP=4096",
        ),
        (
            lambda: all_congruences(_chain(CONGRUENCE_SCAN_CAP + 1)),
            TooLarge,
            "congruence enumeration capped at "
            f"CONGRUENCE_SCAN_CAP={CONGRUENCE_SCAN_CAP}, "
            f"carrier has {CONGRUENCE_SCAN_CAP + 1} elements",
        ),
    ],
    ids=["group_iso", "build_Mn_G0", "all_congruences"],
)
def test_caps_name_their_constant_and_the_value_that_hit_it(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@settings(max_examples=30)
@given(st.permutations(range(5)))
def test_iso_of_relabelled_b2(perm):
    s = corpus_semigroup("b2")
    inv = [perm.index(i) for i in range(5)]
    table = [
        [perm[s.table[inv[i]][inv[j]]] for j in range(5)] for i in range(5)
    ]
    assert semigroup_iso(InvSgp(table), s) is not None


@settings(max_examples=60)
@given(st.text(alphabet="n 012345\n#x-", max_size=40))
def test_parser_never_crashes(text):
    try:
        parse_semigroup(text)
    except BiskitError:
        pass


def test_inverse_is_an_involution_everywhere():
    for name in ("i2", "i3", "b2", "powerset2"):
        s = corpus_semigroup(name)
        for a in range(s.size):
            assert s.inv[s.inv[a]] == a
            assert s.table[s.table[a][s.inv[a]]][a] == a


def test_idempotents_commute_everywhere():
    for name in ("i3", "m2z2zero"):
        s = corpus_semigroup(name)
        for e, f in itertools.combinations(s.idempotents, 2):
            assert s.table[e][f] == s.table[f][e]


# -- fast kernels against the naive code they replaced ----------------------


def naive_associativity_witness(rows):
    """The first (a, b, c), in lexicographic order, with (ab)c != a(bc)."""
    k = len(rows)
    for a, b, c in itertools.product(range(k), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return (a, b, c)
    return None


def naive_meet_table(s):
    """The greatest common lower bound of each pair, or None, from leq
    alone: the c <= a and c <= b, and among them the one every other is
    below.  leq is read once per pair of ids."""
    ids = range(s.size)
    below = [[c for c in ids if leq(s, c, a)] for a in ids]
    le = list(map(set, below))  # le[a]: the c <= a
    out = []
    for a in ids:
        row = []
        for b in ids:
            lows = [c for c in below[a] if c in le[b]]
            best = [c for c in lows if le[c].issuperset(lows)]
            row.append(best[0] if best else None)
        out.append(tuple(row))
    return tuple(out)


def naive_join_table(s):
    k = s.size
    out = []
    for a in range(k):
        row = []
        for b in range(k):
            ups = [c for c in range(k) if leq(s, a, c) and leq(s, b, c)]
            best = [c for c in ups if all(leq(s, c, x) for x in ups)]
            row.append(best[0] if best else None)
        out.append(tuple(row))
    return tuple(out)


def naive_orth(s):
    """orth by its definition, a set per a: the b with a'*b and a*b' both
    the zero."""
    t, inv, z = s.table, s.inv, s.zero
    return tuple(
        {b for b in range(s.size) if t[inv[a]][b] == z and t[a][inv[b]] == z}
        for a in range(s.size)
    )


def assert_orth_matches_oracle(s):
    """orth holds one frozenset per id, the naive set, and is symmetric;
    without a zero it raises NoZero."""
    if s.zero is None:
        with pytest.raises(NoZero):
            s.orth
        return
    assert all(type(partners) is frozenset for partners in s.orth)
    assert s.orth == naive_orth(s)
    assert all(a in s.orth[b] for a, partners in enumerate(s.orth) for b in partners)


def assert_rc_rows_match_oracle(s):
    """When s is Boolean, row x of its relative complements
    (BoolInvSgp.rc_rows) has the keys y <= x and no other, and x minus y is
    the one w <= x with w*y' = 0 and w v y = x, x the least of the upper
    bounds of w and y: each found naively, on the order read off its
    definition (leq)."""
    bs = check_boolean(s).structure
    if bs is None:
        return
    t, inv, ids = s.table, s.inv, range(s.size)
    down = [{y for y in ids if leq(s, y, x)} for x in ids]
    up = [{x for x in ids if y in down[x]} for y in ids]
    for x, row in enumerate(bs.rc_rows):
        assert row.keys() == down[x], x
        for y in down[x]:
            lub = (w for w in down[x] if up[w] & up[y] <= up[x])
            assert [w for w in lub if t[w][inv[y]] == s.zero] == [row[y]], (x, y)


def naive_compat(s):
    """Compatibility by its definition, a row per a: a'*b and a*b' both
    idempotent."""
    t, inv = s.table, s.inv
    return tuple(
        tuple(
            s.is_idempotent(t[inv[a]][b]) and s.is_idempotent(t[a][inv[b]])
            for b in range(s.size)
        )
        for a in range(s.size)
    )


def assert_compat_matches_oracle(s):
    want = naive_compat(s)
    ids = range(s.size)
    assert s.compat_partners == tuple(
        tuple(itertools.compress(ids, row)) for row in want
    )


def row_scan_witness(rows):
    """The NotAssociative triple of the row scan, or None."""
    try:
        _check_associativity(rows)
    except NotAssociative as e:
        return e.triple
    return None


def generated_closure(rows, gens):
    """Every id reached from gens by right multiplication until stable."""
    out = set(gens)
    todo = list(gens)
    while todo:
        m = todo.pop()
        for g in gens:
            if rows[m][g] not in out:
                out.add(rows[m][g])
                todo.append(rows[m][g])
    return out


def product_closure(rows, gens):
    """Every product of gens under the table's product, bracketed any way."""
    out, new = set(gens), set(gens)
    while new:
        made = {rows[x][y] for x in out for y in new}
        made |= {rows[y][x] for x in out for y in new}
        new = made - out
        out |= new
    return out


def scan_order(rows):
    """Ids by descending (distinct entries of their row, id)."""
    return sorted(range(len(rows)), key=lambda x: (len(set(rows[x])), x), reverse=True)


def greedy_scan(rows):
    """The ids, in scan order, that the ones chosen before do not generate."""
    gens, closure = [], set()
    for x in scan_order(rows):
        if x not in closure:
            gens.append(x)
            closure = generated_closure(rows, gens)
    return gens


def assert_generators_decide_associativity(rows, want):
    """The generators are a subsequence of the greedy scan, none generated
    by the others, they generate every id (by right multiplication alone
    when the table is associative), and Light's test on them accepts
    exactly the tables the scan finds no triple in, read by rows and
    through either form of the table's view.  Either form's count of the
    distinct entries of each row is the set's, so the generators ranked
    through the view are those ranked by a set of each row."""
    gens = _generators(rows)
    greedy = iter(greedy_scan(rows))
    assert all(g in greedy for g in gens)  # a subsequence
    for g in gens:
        assert g not in generated_closure(rows, [h for h in gens if h != g])
    every = set(range(len(rows)))
    assert product_closure(rows, gens) == every
    if want is None:
        assert generated_closure(rows, gens) == every
    assert light_test_by_rows(rows, gens) == (want is None)
    for form in (_Bytes, _Tuples):
        view = form.view(rows, len(rows))
        assert _light_test(view, gens) == (want is None)
        assert list(form.distinct(view, len(rows))) == [len(set(r)) for r in rows]
        assert _generators(rows, view) == gens


def test_either_form_counts_no_id_as_one_distinct_entry():
    # byte 255 in the byte form, None in the tuple form, as a set counts it
    rows = ((0, None, 1), (None, None, None), (2, 2, 2))
    for form in (_Bytes, _Tuples):
        assert list(form.distinct(form.view(rows, 3), 3)) == [3, 1, 1]


def assert_kernels_match_oracles(table):
    """Same acceptance, same NotAssociative triple (of the triple scan and
    of the row scan), same order tables, same orthogonality."""
    rows = tuple(tuple(r) for r in table)
    want = naive_associativity_witness(rows)
    assert row_scan_witness(rows) == want
    assert_generators_decide_associativity(rows, want)
    try:
        s = InvSgp(rows)
    except NotAssociative as e:
        assert e.triple == want
        return
    except BiskitError:
        assert want is None  # associative, rejected by a later check
        return
    assert want is None
    assert_order_matches_definition(s)
    assert s.meet_table == naive_meet_table(s)
    assert s.join_table == naive_join_table(s)
    assert_compat_matches_oracle(s)
    assert_orth_matches_oracle(s)
    assert_rc_rows_match_oracle(s)


KERNEL_TABLES = {
    **SEMIGROUP_BUILDERS,
    "symmetric_inverse_table(3)": lambda: symmetric_inverse_table(3),
    "i2 x z2zero": lambda: table_product(
        corpus_semigroup("i2"), corpus_semigroup("z2zero")
    ),
    "one element": lambda: [[0]],
}


@pytest.mark.parametrize("name", sorted(KERNEL_TABLES))
def test_kernels_match_oracles(name):
    assert_kernels_match_oracles(KERNEL_TABLES[name]())


@settings(max_examples=150)
@given(st.sampled_from(sorted(SEMIGROUP_BUILDERS)), st.data())
def test_kernels_match_oracles_on_corrupted_tables(name, data):
    table = [list(r) for r in SEMIGROUP_BUILDERS[name]()]
    k = len(table)
    a, b, v = (data.draw(st.integers(0, k - 1)) for _ in range(3))
    table[a][b] = v
    assert_kernels_match_oracles(table)


@settings(max_examples=100, deadline=None)
@given(i4_subsemigroup_tables, st.data())
def test_kernels_match_oracles_on_generated_structures(table, data):
    # real inverse subsemigroups of I4, up to all 209 elements: too large for
    # the triple scan, so the row scan is the oracle; then one entry corrupted
    rows = tuple(map(tuple, table))
    assert_generators_decide_associativity(rows, None)
    s = InvSgp(rows)
    assert s.associative_generators == _generators(rows)
    assert_compat_matches_oracle(s)
    assert_orth_matches_oracle(s)
    assert_rc_rows_match_oracle(s)
    k = len(table)
    a, b, v = (data.draw(st.integers(0, k - 1)) for _ in range(3))
    table[a][b] = v
    rows = tuple(map(tuple, table))
    want = row_scan_witness(rows)
    assert_generators_decide_associativity(rows, want)
    try:
        InvSgp(rows)
    except NotAssociative as e:
        assert e.triple == want
    except BiskitError:
        assert want is None
    else:
        assert want is None


def test_chain_semilattice_needs_every_id_as_a_generator():
    # x*y = min(x, y): a set of ids is closed under the product, so the only
    # generating set is everything
    k = 6
    s = InvSgp([[min(a, b) for b in range(k)] for a in range(k)])
    assert sorted(s.associative_generators) == list(range(k))


def relabel(rows, perm):
    """The table with every id a renamed to perm[a]."""
    out = [[0] * len(rows) for _ in rows]
    for a, row in enumerate(rows):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = perm[v]
    return tuple(map(tuple, out))


I4 = tuple(map(tuple, symmetric_inverse_table(4)))


def shuffled(n, seed):
    """A permutation of range(n), shuffled by a seeded generator."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


# a relabelling of I4 on which the greedy scan picks 6 generators
SIX_GENERATOR_PERM = shuffled(len(I4), 1256)


@settings(max_examples=5, deadline=None)
@given(st.permutations(range(len(I4))))
@example(list(range(len(I4))))
def test_meet_table_matches_oracle_on_relabelled_i4(perm):
    s = InvSgp(relabel(I4, perm))
    assert s.meet_table == naive_meet_table(s)


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(len(I4))))
@example(list(range(len(I4))))
@example(SIX_GENERATOR_PERM)
def test_relabelled_i4_generators_generate_and_each_is_new(perm):
    # pruning bounds no count but the greedy scan's: the generators are a
    # subsequence of it, generate every id, and none is generated by the
    # others
    assert_generators_decide_associativity(relabel(I4, perm), None)


def test_the_pinned_relabelling_of_i4_prunes_six_greedy_generators():
    rows = relabel(I4, SIX_GENERATOR_PERM)
    assert len(greedy_scan(rows)) == 6
    assert_generators_decide_associativity(rows, None)


def load_bench_inputs():
    """bench/inputs.py, which writes the benchmark's seeded input files."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_i4_inputs_have_at_most_five_generators():
    # at most the greedy scan's count, which is at most 5 on these inputs
    inputs = load_bench_inputs()
    for seed in range(1, 31):
        files, _ = inputs.i4_inputs(seed)
        (text,) = files.values()
        s = parse_semigroup(text)
        assert_generators_decide_associativity(s.table, None)
        assert len(s.associative_generators) <= len(greedy_scan(s.table)) <= 5, seed


# -- inverses and order after Light's test, against the all-pairs scans --------


STRUCTURE = ("inv", "d", "r", "up", "down", "atoms", "zero", "identity")


def validation_outcome(rows):
    """What InvSgp(rows) gives: its derived data, or the error and witness."""
    try:
        s = InvSgp(rows)
    except BiskitError as e:
        return type(e).__name__, vars(e)
    return {name: getattr(s, name) for name in STRUCTURE}


def scan_outcome(rows):
    """The same from the row scan for associativity and naive_structure."""
    triple = row_scan_witness(rows)
    if triple is not None:
        return "NotAssociative", {"triple": triple}
    try:
        return naive_structure(rows)
    except BiskitError as e:
        return type(e).__name__, vars(e)


def idempotents_commute(rows):
    idem = [e for e in range(len(rows)) if rows[e][e] == e]
    return all(rows[e][f] == rows[f][e] for e, f in itertools.combinations(idem, 2))


def assert_validation_matches_scans(table):
    """InvSgp(table) gives what the scans give; on an associative table
    whose idempotents do not commute, that is NotInverse, the witness of
    the all-pairs inverse scan."""
    rows = tuple(map(tuple, table))
    got = validation_outcome(rows)
    assert got == scan_outcome(rows)
    if not idempotents_commute(rows) and row_scan_witness(rows) is None:
        assert got[0] == "NotInverse"


STRUCTURE_TABLES = {
    **KERNEL_TABLES,
    "I4": lambda: I4,
    "powerset2 x z3zero": lambda: table_product(
        corpus_semigroup("powerset2"), corpus_semigroup("z3zero")
    ),
    "z2zero x z2zero": lambda: table_product(
        corpus_semigroup("z2zero"), corpus_semigroup("z2zero")
    ),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_TABLES))
def test_structure_matches_the_all_pairs_scans(name):
    assert_validation_matches_scans(STRUCTURE_TABLES[name]())


@settings(max_examples=60, deadline=None)
@given(i4_subsemigroup_tables, st.integers(0, 2**32))
def test_structure_matches_the_all_pairs_scans_on_generated_structures(table, seed):
    assert_validation_matches_scans(table)
    assert_validation_matches_scans(relabel(table, shuffled(len(table), seed)))


def test_inverse_semigroups_skip_the_all_pairs_scan(monkeypatch):
    # on an inverse semigroup every inverse carried from the generators
    # passes its check, so the scan that names witnesses never runs
    def scan(rows):
        raise AssertionError("all-pairs inverse scan ran")

    monkeypatch.setattr(biskit.core, "_inverse_scan", scan)
    for name, build in STRUCTURE_TABLES.items():
        InvSgp(build())
    for seed in range(3):
        InvSgp(relabel(I4, shuffled(len(I4), seed)))


# (i, j) is id 2i + j, and (i, j)(k, l) = (i, l)
RECTANGULAR_BAND_2X2 = [[2 * (a // 2) + b % 2 for b in range(4)] for a in range(4)]


@pytest.mark.parametrize(
    "table, element, candidates",
    [
        ([[0, 0], [1, 1]], 0, (0, 1)),  # left-zero band: a*b = a
        ([[0, 0], [0, 0]], 1, ()),  # null semigroup: x*x = 0
        (RECTANGULAR_BAND_2X2, 0, (0, 1, 2, 3)),
    ],
)
def test_not_inverse_names_the_scans_witness(table, element, candidates):
    with pytest.raises(NotInverse) as caught:
        InvSgp(table)
    assert (caught.value.element, caught.value.candidates) == (element, candidates)
    assert_validation_matches_scans(table)


@pytest.mark.parametrize(
    "table, element, candidates",
    [
        (RECTANGULAR_BAND_2X2, 0, (0, 1, 2, 3)),
        (transformation_table([(2, 2, 1), (0, 1, 1)]), 1, (1, 4)),
        (transformation_table([(0, 0, 0), (1, 1, 1)]), 0, (0, 1)),  # right-zero band
    ],
)
def test_idempotents_that_do_not_commute_raise_not_inverse(table, element, candidates):
    # unique inverses in an associative table make the idempotents commute
    # (Howie 1995, Thm 5.1.1), so the inverse scan always raises first
    rows = tuple(map(tuple, table))
    assert not idempotents_commute(rows) and row_scan_witness(rows) is None
    with pytest.raises(NotInverse) as caught:
        InvSgp(table)
    assert (caught.value.element, caught.value.candidates) == (element, candidates)
    assert_validation_matches_scans(table)


def test_regular_tables_with_idempotents_that_do_not_commute_are_scanned():
    # the subsemigroup of T3 generated by (2, 2, 1) and (0, 1, 1): every
    # inverse carried from the generators passes its check, but the
    # idempotents do not commute, so the scan runs and finds 1 with two
    # inverses
    table = transformation_table([(2, 2, 1), (0, 1, 1)])
    rows = tuple(map(tuple, table))
    assert _inverses_on_generators(rows, _generators(rows)) is not None
    with pytest.raises(NotInverse) as caught:
        InvSgp(table)
    assert (caught.value.element, caught.value.candidates) == (1, (1, 4))
    assert_validation_matches_scans(table)


@settings(max_examples=100, deadline=None)
@given(t3_subsemigroup_tables)
def test_transformation_semigroups_fail_as_the_scans_do(table):
    assert_validation_matches_scans(table)


def is_inverse_pair(rows, a, b):
    return rows[rows[a][b]][a] == a and rows[rows[b][a]][b] == b


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SEMIGROUP_BUILDERS)), st.data())
def test_inverses_on_generators_are_checked_on_any_table(name, data):
    # on a corrupted table, associative or not, every inverse carried from
    # the generators is checked before it is returned
    rows = [list(r) for r in SEMIGROUP_BUILDERS[name]()]
    k = len(rows)
    a, b, v = (data.draw(st.integers(0, k - 1)) for _ in range(3))
    rows[a][b] = v
    rows = tuple(map(tuple, rows))
    inv = _inverses_on_generators(rows, _generators(rows))
    assert inv is None or all(is_inverse_pair(rows, x, y) for x, y in enumerate(inv))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SEMIGROUP_BUILDERS)), st.data())
def test_corrupted_corpus_tables_fail_as_the_scans_do(name, data):
    table = [list(r) for r in SEMIGROUP_BUILDERS[name]()]
    k = len(table)
    a, b, v = (data.draw(st.integers(0, k - 1)) for _ in range(3))
    table[a][b] = v
    assert_validation_matches_scans(table)


def test_parsed_entries_are_checked_once(monkeypatch):
    # parse_semigroup's parser reads only ids 0..k-1, so InvSgp does not run
    # the entry check on its table; a table given to InvSgp directly is
    # checked, with the row scan's messages
    i2 = corpus_semigroup("i2")
    calls = []
    check = biskit.core._check_entries
    monkeypatch.setattr(
        biskit.core, "_check_entries", lambda rows: calls.append(rows) or check(rows)
    )
    assert parse_semigroup(render_ist(i2.table, "i2")).table == i2.table
    assert calls == []
    assert InvSgp([list(r) for r in i2.table]).table == i2.table
    assert len(calls) == 1
    for table, message in [
        ([[0, 0], [0]], "row 1 has 1 entries, expected 2"),
        ([[0, 0], [0, 1.0]], "entry 1.0 out of range in row 1"),
        ([[0, 2], [1, 0]], "entry 2 out of range in row 0"),
    ]:
        with pytest.raises(ParseError, match=message.replace(".", r"\.")):
            InvSgp(table)
    assert len(calls) == 4


def test_k_table_entries_are_checked_once(monkeypatch):
    # KOfGroupoid.table looks every product up as a bisection's id, so
    # InvSgp does not run the entry check on it; a copy of it is checked
    kg = k_of_groupoid(restricted_groupoid(corpus_semigroup("i2")))
    calls = []
    check = biskit.core._check_entries
    monkeypatch.setattr(
        biskit.core, "_check_entries", lambda rows: calls.append(rows) or check(rows)
    )
    assert kg.structure.base.size == len(kg.bisections)
    assert calls == []
    assert InvSgp(tuple(kg.table)).table == kg.table
    assert len(calls) == 1
