"""Finite inverse semigroups given by square multiplication tables.

Elements are the ids 0..k-1 and the table is the single source of truth.
Validation is eager: a constructed InvSgp is always associative, has unique
generalized inverses, and has commuting idempotents.  The inverse map,
idempotents, zero, natural partial order, domain/range idempotents and atoms
are computed once at construction and never change afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import and_, attrgetter, contains, countOf, eq, getitem, itemgetter

from .errors import (
    CertificateFailed,
    NoZero,
    NotAssociative,
    NotCompatible,
    NotInverse,
    ParseError,
    TooLarge,
    Undecided,
)


def _parse_table(text, allow_undefined):
    """Shared .ist/.grp reader.

    Header line is `n <k>`, then exactly k lines of k integers each, nothing
    after; '#' starts a comment to end of line, and blank lines are skipped.
    Entries must be in 0..k-1; -1 is allowed only when allow_undefined is
    set and comes back as None.  The lines are counted before any entry is
    read, so a wrong row count is named ahead of a bad entry; then the
    tokens of one row at a time are read, not the whole table's at once.
    """
    content = (raw.split("#", 1)[0].strip() for raw in text.split("\n"))
    lines = [line for line in content if line]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ParseError(f"bad header line {' '.join(head)!r}, expected 'n <k>'")
    try:
        k = int(head[1])
    except ValueError:
        raise ParseError(f"bad size {head[1]!r}") from None
    if k < 0 or (k == 0 and not allow_undefined):
        raise ParseError(f"bad size {k}")
    if len(lines) - 1 != k:
        raise ParseError(f"expected {k} table rows, found {len(lines) - 1}")
    spelled = {str(v): v for v in range(k)}  # the canonical spelling of each id
    if allow_undefined:
        spelled["-1"] = None
    read = spelled.__getitem__
    table = []
    for i, line in enumerate(lines[1:]):
        row = line.split()
        if len(row) != k:
            raise ParseError(f"row {i} has {len(row)} entries, expected {k}")
        try:
            table.append(tuple(map(read, row)))
        except KeyError:
            table.append(_parse_row(row, i, k, allow_undefined))
    return tuple(table)


def _parse_row(row, i, k, allow_undefined):
    """Row i read a token at a time, raising ParseError at the first bad
    token or out-of-range entry; _parse_table reads a row this way only when
    a token of it is not the canonical spelling of an entry, as "01", "+1"
    or "1_0", which int reads, are not."""
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
    return tuple(ints)


def _check_associativity(rows):
    """Raise NotAssociative((a, b, c)) for the first triple, in
    lexicographic order, with (a*b)*c != a*(b*c).

    Decides all k^3 equations a row at a time: for fixed a and b, the
    products (a*b)*c over every c are the row of a*b, and a*(b*c) is the row
    of a read at the entries of the row of b.  Only a pair whose rows differ
    is scanned by c, to name the triple.  InvSgp runs this only after Light's
    test has failed, to find the witness.
    """
    if len(rows) == 1:
        return  # the one entry is 0, and (0*0)*0 = 0 = 0*(0*0)
    read_at = [itemgetter(*row) for row in rows]  # read_at[b](r) = r at row b
    for a, ra in enumerate(rows):
        if [rows[ab] for ab in ra] == [g(ra) for g in read_at]:
            continue
        for b, ab in enumerate(ra):
            if rows[ab] != read_at[b](ra):
                rb, rab = rows[b], rows[ab]
                c = next(c for c, bc in enumerate(rb) if rab[c] != ra[bc])
                raise NotAssociative((a, b, c))


def _picker(ids):
    """A function reading a sequence at the positions ids, as a tuple."""
    if not ids:
        return lambda row: ()
    if len(ids) == 1:
        (i,) = ids
        return lambda row: (row[i],)
    return itemgetter(*ids)


def _positions(seq, value):
    """The indices i with seq[i] == value, ascending, found by seq.index."""
    out, i = [], -1
    for _ in range(seq.count(value)):
        i = seq.index(value, i + 1)
        out.append(i)
    return out


def _reaches(rows, gens, goal):
    """True when goal is among the ids reached from gens by right
    multiplication m*g by the gens; no associativity is assumed."""
    seen, at_gens = set(gens), _picker(gens)
    members = list(gens)
    for m in members:  # the loop reaches the members it appends
        for w in at_gens(rows[m]):
            if w not in seen:
                if w == goal:
                    return True
                seen.add(w)
                members.append(w)
    return goal in seen


def _generators(rows, view=None):
    """An irredundant generating set of the table's product, a subsequence
    of the greedy scan.

    Ids are scanned by descending |xS|, the number of distinct entries in
    row x, ties by descending id; one not yet in the closure becomes a
    generator.  The counts are read through view, the table's _view, when
    one is given (its form's distinct: one translate table per row in the
    byte form), else by a set of each row.  If x = y*z in an associative
    table, xS = y(zS) is within yS, so |xS| <= |yS|: the scan ranks a
    product's left factor no lower than the product, and a low element is
    not picked before the elements that generate it.  The closure grows
    by right multiplication m*g of its members by the generators, and each
    (member, generator) pair is multiplied once: done[i] counts the
    members already multiplied by generator i.  Every member is g, or m*g for an earlier member m and a
    generator g, so the closure is every product of generators, whatever
    the scan order.  No associativity is assumed.

    Then, in scan order, each generator that the others kept generate by
    right multiplication (_reaches) is dropped, so none of those returned
    lies in the closure of the rest.  The last one picked stays, as it is
    not in the closure of those before it.  Only a g that is m*h for some
    m != g and another generator h is searched for, since a member enters
    the closure as such a product: column h holds g at some row but g.
    Column h is counted as it is read, one entry per row, and not kept.
    A dropped g is a product of the kept ones, so every id is still a
    product of them under the table's product, bracketed some way: enough
    for Light's test.  In an associative table the products of the kept
    generators are a subsemigroup holding g, so right multiplication by
    them alone reaches every id.
    """
    gens, members, done = [], [], []
    seen = set()
    k = len(rows)
    sizes = (_form(view) if view else _Tuples).distinct(view or rows, k)
    order = sorted(zip(sizes, range(k)), reverse=True)
    for _, x in order:
        if x in seen:
            continue
        gens.append(x)
        done.append(0)
        members.append(x)
        seen.add(x)
        grew = True
        while grew:
            grew = False
            for i, g in enumerate(gens):
                start, done[i] = done[i], len(members)
                for m in members[start : done[i]]:
                    w = rows[m][g]
                    if w not in seen:
                        seen.add(w)
                        members.append(w)
                        grew = True
    for g in gens[:-1]:
        others = [h for h in gens if h != g]
        as_product = any(
            countOf(map(itemgetter(h), rows), g) > (rows[g][h] == g) for h in others
        )
        if as_product and _reaches(rows, others, g):
            gens.remove(g)
    return tuple(gens)


def _byte_view(rows, k, supports=None):
    """The byte form of _view, for a table of at most 255 ids: one 256-byte
    bytes.translate table per row, or None when k > 255 or an entry read
    is neither None nor an id.

    Byte y of row x's table is rows[x][y], read at the ids supports[x]
    (ascending, distinct) when given, else at every y < k.  Byte 255
    stands for no id: at an entry None, at every byte off the support and
    at the padding from k up.  255 and not 256 ids, so that byte 255 is
    never an id.  255 read through any view stays 255, so
    view[g].translate(view[x]) is row x read at the entries of row g,
    x*(g*y) over every y, in one C call.  A row is read by bytes() and its
    range checked; one holding None, through a dict of the ids and None,
    so an entry it lacks raises.
    """
    if k > 255:
        return None
    every, code, out = bytes.maketrans(b"", b""), None, []  # every: 0..255
    ids = every[:k]
    for x, row in enumerate(rows):
        try:  # an id k or more fails the picker, one off 0..255 bytes()
            if supports is not None:
                row, at = _picker(supports[x])(row), bytes(supports[x])
            try:
                vals = bytes(row)
                if vals.translate(None, ids):
                    return None
            except TypeError:  # a None, or an entry that is no int
                code = code or {**dict(zip(range(k), every)), None: 255}
                vals = bytes(map(code.__getitem__, row))
            vals = vals.ljust(256, b"\xff")
            if supports is not None:  # 256 sources when the ids are distinct
                vals = bytes.maketrans(at + every.translate(None, at), vals)
        except (IndexError, KeyError, TypeError, ValueError):
            return None
        out.append(vals)
    return tuple(out)


def _flagged(flags):
    """For each of flags, an int whose byte y (little-endian) is 0 or 255,
    0 from byte 255 up, the positions y of its bytes 255, as bytes: the
    ids y + 1 are ANDed with it, the zero bytes dropped and 1 taken off
    each."""
    ids = int.from_bytes(bytes(range(1, 256)), "little")
    less_one = bytes(1) + bytes(range(255))
    return [(ids & f).to_bytes(255, "little").translate(less_one, b"\0") for f in flags]


class _Bytes:
    """The byte form of a view (_byte_view), byte 255 for no id; a
    namespace of the reads the kernels make, never instantiated.

    gather(i)(row) is row read at each entry of the index row i, a bytes
    of ids: i.translate(row); read(i, row) is the same in one call, and
    join(rows) puts index rows end to end.  A flag table holds 255 at the
    ids flagged and 0, false, at every other byte, byte 255 included, so a
    255 read through it is false.  both(pairs) and defined(view) read
    flags as little-endian ints (_flagged); distinct(view, k) counts each
    row's entries by one translate table.
    """

    none, ids, view = 255, bytes, _byte_view
    gather, read, join = attrgetter("translate"), bytes.translate, b"".join

    def flags(ids, k):
        """The flag table of ids: a translate table that sends each id to
        255 and byte 255 to 0, read through one that keeps only 255."""
        marked = bytes.maketrans(bytes([*ids, 255]), bytes([255] * len(ids) + [0]))
        return marked.translate(bytes(255) + b"\xff")

    def both(pairs):
        """Per pair of flag rows, the positions flagged in both."""
        read = int.from_bytes
        return _flagged(read(f, "little") & read(g, "little") for f, g in pairs)

    def distinct(view, k):
        """Per row of view, the number of distinct bytes among its first k,
        255 (no id) counted as one, as a set of the row counts None: the
        translate table sending those bytes to 255 holds 255 at each of
        them and at byte 255, which is one of them only when the row holds
        it."""
        marks = b"\xff" * k
        firsts = (row[:k] for row in view)
        return [bytes.maketrans(r, marks).count(255) - (255 not in r) for r in firsts]

    def defined(view):
        """Per row of view, the positions of its entries other than 255,
        and those entries."""
        is_id = b"\xff" * 255 + b"\0"
        at = _flagged(int.from_bytes(row.translate(is_id), "little") for row in view)
        return list(zip(at, (row.translate(None, b"\xff") for row in view)))


class _Tuples:
    """The tuple form of a view, for a table of more than 255 ids: its rows
    themselves, shared and not padded, None for no id; a namespace, as
    _Bytes, with the same reads.

    gather(i) is core._picker(i): an entry None is no index, so a kernel
    tests none in a row before it gathers through it.  A flag table is a
    tuple of k flags.  view(rows, k, supports) is rows when each entry
    read, at supports[x] in row x when given, is None or an int id in
    0..k-1, else None.  Off its support a row holds what its table holds:
    None in the tables, no key in the dict rows of BoolInvSgp.rc_rows.
    """

    none, ids, gather = None, tuple, _picker

    def read(i, row):
        """gather(i)(row)."""
        return _picker(i)(row)

    def join(rows):
        """The rows end to end."""
        return tuple(itertools.chain.from_iterable(rows))

    def view(rows, k, supports=None):
        """rows as a view, or None; rows an _IdRows, whose maker checked
        them, as they are."""
        if type(rows) is _IdRows:
            return rows
        rows, ids, types = tuple(rows), frozenset((*range(k), None)), {int, type(None)}
        read = rows if supports is None else map(_Tuples.read, supports, rows)
        try:  # an entry that is no id, unhashable ones too, declines
            for row in read:
                if not (ids.issuperset(row) and types.issuperset(map(type, row))):
                    return None
        except (IndexError, KeyError, TypeError):  # KeyError: a key a dict row lacks
            return None
        return rows

    def flags(ids, k):
        """The flag table of ids."""
        return tuple(e in ids for e in range(k))

    def both(pairs):
        """Per pair of flag rows, the positions flagged in both."""
        ids = itertools.count
        return [tuple(itertools.compress(ids(), map(and_, f, g))) for f, g in pairs]

    def distinct(view, k):
        """Per row of view, the number of distinct entries."""
        return map(len, map(set, view))

    def defined(view):
        """Per row of view, the positions of its entries other than None,
        and those entries: every position and the row itself when it holds
        no None."""
        out, every = [], tuple(range(len(view[0])))
        for row in view:
            if None not in row:
                out.append((every, row))
            else:
                at = tuple(y for y, v in enumerate(row) if v is not None)
                out.append((at, _picker(at)(row)))
        return out


def _form(view):
    """The form of a view, _Bytes or _Tuples, read off its first row."""
    return _Bytes if type(view[0]) is bytes else _Tuples


def _view(rows, k, supports=None):
    """The view of rows of ids in 0..k-1 or None, such as the product,
    meet and join tables, read at supports[x] in row x when given; None
    when an entry read is neither None nor such an id.  Its form is a
    property of the table's size, not a setting: at most 255 ids, bytes
    (_Bytes), above that the rows themselves (_Tuples).  A kernel reads a
    view through its form's gather, so it is written once for both."""
    return (_Bytes if k <= 255 else _Tuples).view(rows, k, supports)


def _checked_meets(s):
    """s.meet_table, once each entry is None or an id, as the laws index
    by the meets: an entry k or more would raise IndexError, and -1 would
    read the last row.  The meet view (InvSgp.meet_view) has read every
    entry; only without one are they read here.  The first other entry
    raises CertificateFailed(("meet-not-an-id", a, b, m)), so the law
    reading it fails with that witness."""
    mt, k = s.meet_table, s.size
    if s.meet_view is None:
        for a, row in enumerate(mt):
            for b, m in enumerate(row):
                if m is not None and not (type(m) is int and 0 <= m < k):
                    raise CertificateFailed(("meet-not-an-id", a, b, m))
    return mt


def _light_test(view, gens):
    """Light's associativity test on the table whose _view is view: True
    when (x*g)*y = x*(g*y) for every generator g and all x, y.

    The set of t with (x*t)*y = x*(t*y) for all x, y is closed under the
    table's product, without assuming associativity, since (x*(s*t))*y =
    ((x*s)*t)*y = (x*s)*(t*y) = x*(s*(t*y)) = x*((s*t)*y).  So when it
    holds on a generating set it holds everywhere.  One row comparison per
    (x, g): the row of x*g against row x gathered at row g, one x at a
    time, so no copy of the table is held.  In the byte form the rows
    compared are whole tables: 255 read through any view stays 255.
    """
    gather = _form(view).gather
    for g in gens:
        x_g = map(view.__getitem__, map(itemgetter(g), view))  # rows of x*g
        if not all(map(eq, x_g, map(gather(view[g]), view))):
            return False
    return True


def _tested_generators(rows, view):
    """_generators of rows when Light's test on them shows rows
    associative, else None; view is rows' _view, None when an entry is no
    id."""
    gens = _generators(rows, view)
    return gens if view is not None and _light_test(view, gens) else None


def _on_generators(s, holds):
    """True when Light's test holds on the table s reads and holds(g) for
    every generator g; else False, and the caller's plain scan decides.

    The closure argument of every generator pass: each caller asks whether
    P(y), itself quantified over every x, holds for every id y, and says
    why the y with P(y) are closed under the product of an associative
    table.  In an associative table every id is a generator or m*g for an
    earlier member m and a generator g (_generators), so P holds for every
    id once it holds on the generators, s.associative_generators.
    """
    gens = s.associative_generators
    return gens is not None and all(map(holds, gens))


def _on_generator_sides(s, holds):
    """_on_generators with holds(side) for side row g, the g*x over every
    x, and for side column g, the x*g, of each generator g.

    The translation lemma of every two-sided pass: when left multiplication
    by g and by h keeps a relation R, u R v implying g*u R g*v, so does
    multiplication by g*h, as (g*h)*u = g*(h*u) and h*u R h*v; the same on
    the right (M. V. Lawson, *Inverse Semigroups*, 1998, §1.4).  So R is
    kept by every translation once row g and column g of each generator
    keep it.  Column g is read one entry per row, so no quotient or product
    checked here caches its columns.
    """
    t = s.table
    return _on_generators(
        s, lambda g: holds(t[g]) and holds(tuple(map(itemgetter(g), t)))
    )


def _restricted_product_kept(s):
    """True when law restricted-product (laws.law_restricted_product)
    holds, read through the table's view; False, to decline, without
    Light's test or when a check fails.  It sits with the view and Light's
    test it reads.

    The down-set part is decided first, on the generators g
    (_on_generators, which also shows the table associative): down[g] is
    gathered through each row x once, and for each a those of the x in
    down[a] are joined and compared with down[a*g] as sets.  Then for each
    f = d(a), whether every f*b <= b, the r(b2) over every b (row f
    gathered through r) and eb2[b] = r(b)*(f*b) are found once.  Per a,
    the a2 = a*r(b) over every b are row a gathered at r: a2 <= a when
    each a*e, e = r(b), lies in down[a], d(a2) = r(b2) is d gathered at
    them, and a2*b2 = a*b is row a gathered at eb2, against row a.
    """
    view, t, down, k = s.view, s.table, s.down, s.size
    form = _form(view)
    gather, read, ids = form.gather, form.read, form.ids
    d_r = form.view((s.d, s.r), k)
    try:
        downs = list(map(ids, down))
    except (TypeError, ValueError):
        return False
    if d_r is None or not set(range(k)).issuperset(form.join(downs)):
        return False  # an entry of d, r or down that is no id
    (d_at, r_at), sets = d_r, list(map(frozenset, down))
    d_b, r_b = d_at[:k], r_at[:k]

    def holds(g):
        at = list(map(gather(downs[g]), view)).__getitem__  # down[g] per row
        products = (set(form.join(map(at, ds))) for ds in down)
        return all(map(eq, products, map(sets.__getitem__, map(itemgetter(g), t))))

    if not _on_generators(s, holds):
        return False
    r_rows = [t[e] for e in r_b]
    per_f = {  # f: every f*b <= b, and r(f*b) and r(b)*(f*b) over every b
        f: (
            all(map(contains, down, t[f])),
            read(view[f][:k], r_at),
            gather(ids(map(getitem, r_rows, t[f]))),
        )
        for f in set(d_b)
    }
    at_r, at_es = gather(r_b), gather(ids(sorted(set(r_b))))  # a2 is a*e, e = r(b)
    for f, row_a, below_a in zip(d_b, view, sets):
        below, r_b2, at_eb2 = per_f[f]
        a2 = at_r(row_a)
        if not below or not below_a.issuperset(at_es(row_a)) or read(a2, d_at) != r_b2:
            return False
        if at_eb2(row_a) != row_a[:k]:
            return False
    return True


def _translation_failure(s, tuples, related):
    """The first (tup, u, side) with related(u*x, u*y, ...) false, side
    "left", or related(x*u, y*u, ...) false, side "right", for the ids
    x, y, ... of tup; or None.

    The witness scan behind _on_generator_sides: tuples are taken in order
    (they may be lazy), then u ascending, left before right.
    """
    t = s.table
    for tup in tuples:
        lefts = zip(*[map(itemgetter(x), t) for x in tup])  # (u*x, ...) per u
        rights = zip(*map(t.__getitem__, tup))  # (x*u, ...) per u
        for u, (left, right) in enumerate(zip(lefts, rights)):
            if not related(*left):
                return tup, u, "left"
            if not related(*right):
                return tup, u, "right"
    return None


def _mask(xs):
    return sum(1 << x for x in xs)


def _check_entries(rows):
    """Raise ParseError unless rows is k rows of k ids in 0..k-1.

    One pass over every entry when each is a plain int id; else row by row,
    to name the first bad row and entry.
    """
    k = len(rows)
    if (
        all(len(row) == k for row in rows)
        and {int}.issuperset(map(type, itertools.chain.from_iterable(rows)))
        and set().union(*rows) <= set(range(k))
    ):
        return
    for i, row in enumerate(rows):
        if len(row) != k:
            raise ParseError(f"row {i} has {len(row)} entries, expected {k}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < k:
                raise ParseError(f"entry {v!r} out of range in row {i}")


class _IdRows(tuple):
    """Rows whose maker has checked them k rows of k ids in 0..k-1, as
    _parse_table and KOfGroupoid.table do: the tables InvSgp does not pass
    through _check_entries.  InvSgp's own table is one once checked, so
    its tuple-form view is read without a second check."""


def _inverse_candidates(rows, a, col):
    """The b with a*b*a = a and b*a*b = b, ascending; col is column a.

    The first condition reads column a at row a, and only b passing it are
    tested for the second.
    """
    aba = _picker(rows[a])(col)
    return tuple(b for b in _positions(aba, a) if rows[col[b]][b] == b)


def _inverse_scan(rows):
    """The inverse of each id by the all-pairs scan of _inverse_candidates;
    NotInverse(a, candidates) for the first a without exactly one."""
    inv = []
    for a, col in enumerate(zip(*rows)):
        cands = _inverse_candidates(rows, a, col)
        if len(cands) != 1:
            raise NotInverse(a, cands)
        inv.append(cands[0])
    return inv


def _inverses_on_generators(rows, gens):
    """A checked inverse b of every id a, from the generators, or None.

    Each generator's inverses come from _inverse_candidates; with exactly
    one each, they are carried along the closure of _generators by
    (m*g)' = g'*m', so every id gets one candidate.  None unless every
    candidate b of its a passes a*b*a = a and b*a*b = b, or some id gets
    none, as in a table that is not associative.
    """
    inv = [None] * len(rows)
    for g in gens:
        cands = _inverse_candidates(rows, g, tuple(map(itemgetter(g), rows)))
        if len(cands) != 1:
            return None
        inv[g] = cands[0]
    members = list(gens)
    for m in members:  # the loop reaches the members it appends
        rm, im = rows[m], inv[m]
        for g in gens:
            w = rm[g]
            if inv[w] is None:
                inv[w] = rows[inv[g]][im]
                members.append(w)
    if None in inv:
        return None
    for a, (ra, b) in enumerate(zip(rows, inv)):
        if rows[ra[b]][a] != a or rows[rows[b][a]][b] != b:
            return None
    return inv


class InvSgp:
    """A validated finite inverse semigroup on ids 0..k-1.

    Construction checks every entry is an id (_check_entries), unless the
    table is an _IdRows, whose maker checked its entries: the rows
    parse_semigroup reads, whose parser reads only ids, and the table of
    local bisections of KOfGroupoid, whose every product is looked up as a
    bisection's id (CertificateFailed when it is not one).  Then
    every associativity equation (a*b)*c = a*(b*c) by Light's test on a
    generating set (_tested_generators): (x*g)*y = x*(g*y) for
    each generator g and all x, y, k*|generators| row comparisons instead of
    k*k, read through the table's view (_view).  When it
    fails, the row scan of _check_associativity names the first
    failing triple in lexicographic order as the NotAssociative witness.
    Then each element needs exactly one inverse and the idempotents must
    commute.  Inverses are found on the generators and carried along their
    closure (_inverses_on_generators), each candidate checked: when every
    one is an inverse the table is regular, and a regular semigroup whose
    idempotents commute has unique inverses (J. M. Howie, *Fundamentals of
    Semigroup Theory*, 1995, Thm 5.1.1), so the all-pairs scan is not
    needed.  Otherwise that scan runs and raises NotInverse at the first id
    without exactly one inverse, naming its candidates.  With idempotents
    that do not commute it always does: unique inverses in an associative
    table make the idempotents commute (Howie, Thm 5.1.1).
    The order is read at the idempotents: a <= b iff a = b*e for an
    idempotent e, so down[b] is the products b*e.
    """

    def __init__(self, table):
        rows = tuple(tuple(r) for r in table)
        k = len(rows)
        if k == 0:
            raise ParseError("empty table")
        if type(table) is not _IdRows:
            _check_entries(rows)
        rows = _IdRows(rows)

        view = _view(rows, k)
        gens = _tested_generators(rows, view)
        if gens is None:
            _check_associativity(rows)

        idem = tuple(e for e in range(k) if rows[e][e] == e)
        pairs = itertools.combinations(idem, 2)
        clash = next(((e, f) for e, f in pairs if rows[e][f] != rows[f][e]), None)
        inv = None if clash else _inverses_on_generators(rows, gens)
        if inv is None:  # the all-pairs scan names the witness
            inv = _inverse_scan(rows)

        zero = None
        for z in idem:
            if all(rows[z][x] == z and rows[x][z] == z for x in range(k)):
                zero = z
                break

        self.size = k
        self.table = rows
        self.view = view
        self.associative_generators = gens  # Light's test held on them
        self.inv = tuple(inv)
        self.idempotents = idem
        self.zero = zero
        self.d = tuple(rows[inv[a]][a] for a in range(k))
        self.r = tuple(rows[a][inv[a]] for a in range(k))
        # a <= b iff a = b*e for an idempotent e (then e can be d(a)).  down
        # and up, each the other's transpose and ascending, are the one
        # stored form of the order: a <= b is a in down[b], or b in up[a]
        at_idem = _picker(idem)
        self.down = tuple(tuple(sorted(set(at_idem(row)))) for row in rows)
        up = [[] for _ in range(k)]
        for b, downs in enumerate(self.down):
            for a in downs:
                up[a].append(b)
        self.up = tuple(map(tuple, up))
        if zero is None:
            self.atoms = None
        else:
            self.atoms = tuple(
                a for a in range(k) if a != zero and set(self.down[a]) == {zero, a}
            )
        self.identity = None
        for e in idem:
            if all(rows[e][x] == x and rows[x][e] == x for x in range(k)):
                self.identity = e
                break

    # -- basic algebra ------------------------------------------------

    def is_idempotent(self, a):
        return self.table[a][a] == a

    def nonzero(self):
        return tuple(x for x in range(self.size) if x != self.zero)

    @property
    def restricted_groupoid(self):
        """restricted_groupoid(self), built on first read and kept.  A plain
        property: bench/tracing.py wraps each cached_property in a span of
        its name, which would nest a second restricted_groupoid span."""
        kept = vars(self)
        if "restricted_groupoid" not in kept:
            kept["restricted_groupoid"] = restricted_groupoid(self)
        return kept["restricted_groupoid"]

    @cached_property
    def compat_partners(self):
        """compat_partners[a]: the b with a'*b and a*b' idempotent, ascending;
        the one form of the compatibility relation.

        Read through the table's view: a flag table of the idempotents is
        gathered at row a', and at row a gathered at the inverses (the
        a*b'), and the partners are the b flagged in both (the form's
        both, by ANDing ints in the byte form).
        """
        view, inv = self.view, self.inv
        form = _form(view)
        read, flag = form.read, form.flags(set(self.idempotents), self.size)
        at_inv = form.gather(form.ids(inv))
        both = form.both(
            (read(view[ia], flag), read(at_inv(view[a]), flag))
            for a, ia in enumerate(inv)
        )
        return tuple(map(tuple, both))

    @cached_property
    def orth(self):
        """orth[a]: the frozenset of the b with a'*b = a*b' = 0, the one form
        of the orthogonality relation.  Only meaningful with a zero.

        Row a is read at the b where row a' holds the zero, the only b that
        can pass."""
        if self.zero is None:
            raise NoZero("orthogonality needs a zero")
        t, inv, z = self.table, self.inv, self.zero
        return tuple(
            frozenset(b for b in _positions(t[ia], z) if ra[inv[b]] == z)
            for ra, ia in zip(t, inv)
        )

    @cached_property
    def meet_table(self):
        """meet_table[a][b] is the greatest lower bound id, or None.

        a meet b = a*phi(a'*b), with phi(u) the greatest idempotent in
        down[u], or None when there is none.  The common lower bounds x of a
        and b correspond to the idempotents f <= a'*b by x = a*f and f =
        d(x).  If f <= a'*b then f = a'*b*f = f*b'*a, so a*f = r(a)*b*f <= b,
        b*f = b*f*b'*a = r(b*f)*a <= a, and a*f = r(a)*r(b*f)*a = b*f lies
        below both; also f = d(a)*f, so d(a*f) = f.  Conversely x <= a, b
        gives x = a*d(x) = b*d(x) and a'*b*d(x) = a'*x = d(a)*d(x) = d(x),
        so d(x) <= a'*b.  Both maps keep the order, so the greatest of the
        one set goes to the greatest of the other.  Everything below an
        idempotent e is idempotent, so phi(u) is the idempotent e <= u with
        as many ids in down[e] as there are idempotents in down[u].  Row a
        is read with two pickers: phi at row a' (the a'*b over every b),
        then row a at those phi, k standing for None.
        """
        k, t, down = self.size, self.table, self.down
        phi = []
        for below in down:
            es = [e for e in below if t[e][e] == e]
            e = max(es, key=lambda e: len(down[e]), default=None)
            phi.append(k if e is None or len(down[e]) != len(es) else e)
        return tuple(
            _picker(_picker(t[ia])(phi))(ra + (None,))
            for ra, ia in zip(t, self.inv)
        )

    @cached_property
    def meet_view(self):
        """The _view of meet_table, which the law kernels of laws wedge,
        fish and eggs read, and _checked_meets; None when a meet is neither
        None nor an id.  Only laws read it, so analyze never builds it."""
        return _view(self.meet_table, self.size)

    @cached_property
    def join_view(self):
        """The _view of join_table on the compatible partners: the join a v b
        at each partner b of a, no id at every other entry (in the tuple
        form, the join table itself).  None when a join read is neither
        None nor an id.  Read by check_boolean (boolean._partner_joins) and
        the kernel of law setminus-4."""
        return _view(self.join_table, self.size, self.compat_partners)

    @cached_property
    def join_table(self):
        """join_table[a][b] is the least upper bound id, or None.

        Read off up-set bitsets: the join is the element whose up-set is
        up[a] & up[b], found by one dict lookup.  Only the compatible b are
        looked up (compat_partners[a]): if a, b <= c then a'*b =
        d(a)*d(c)*d(b) and a*b' = c*d(a)*d(b)*c' are idempotent, so a pair
        with a common upper bound is compatible, and for any other pair the
        entry is None.
        """
        k = self.size
        masks = tuple(map(_mask, self.up))
        owner = {m: x for x, m in enumerate(masks)}.get
        table = []
        for ua, partners in zip(masks, self.compat_partners):
            row = [None] * k
            for b in partners:
                row[b] = owner(ua & masks[b])
            table.append(tuple(row))
        return tuple(table)

    def join_of(self, xs):
        """The join of an iterable of ids, folded left through join_table:
        the zero for no ids, and NotCompatible((acc, x)) at the first
        partial join acc with no join with the next x."""
        xs, jt = iter(xs), self.join_table
        acc = next(xs, self.zero)
        for x in xs:
            j = jt[acc][x]
            if j is None:
                raise NotCompatible((acc, x))
            acc = j
        return acc

    def __repr__(self):
        return f"InvSgp(size={self.size}, zero={self.zero})"


def parse_semigroup(text):
    """Parse .ist text into a validated InvSgp; the parser has checked the
    entries, so InvSgp does not check them again."""
    return InvSgp(_IdRows(_parse_table(text, allow_undefined=False)))


def adjoin_zero(s):
    """Return s with a fresh absorbing zero appended as id k.

    Existing ids are unchanged.  Never called implicitly by anything else;
    callers that need a zero must adjoin one explicitly.
    """
    k = s.size
    z = k
    table = [list(row) + [z] for row in s.table] + [[z] * (k + 1)]
    return InvSgp(table)


def _dr_classes(nodes, d, r):
    """Classes of nodes joined by some x with d[x] and r[x] in the class.

    Union-find over the pairs (d[x], r[x]); each class comes back ascending,
    and the classes in order of their least member.
    """
    parent = {e: e for e in nodes}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for dx, rx in zip(d, r):
        a, b = find(dx), find(rx)
        if a != b:
            parent[a] = b
    groups = {}
    for e in nodes:
        groups.setdefault(find(e), []).append(e)
    return sorted(tuple(sorted(g)) for g in groups.values())


def d_relation_idempotents(s):
    """Partition idempotents into classes joined by some x with d(x), r(x) there."""
    return tuple(frozenset(c) for c in _dr_classes(s.idempotents, s.d, s.r))


def restricted_groupoid(s):
    """The partial-product structure on the nonzero ids.

    x * y is kept exactly when d(x) = r(y), both read off the table as the
    products are; everything else is forgotten.  Row x is read only at the
    y with r(y) = d(x).  The result remembers which original ids its
    positions came from.  A kept product that is the zero raises
    CertificateFailed naming x and y; on a validated table there is none,
    as d(x*y) = y'*d(x)*y = d(y) is not the zero.  Readers take the one
    build that s.restricted_groupoid keeps.
    """
    from .groupoid import Gpd  # local import, groupoid layer sits above core

    carrier = s.nonzero()
    t, inv = s.table, s.inv
    index = {x: i for i, x in enumerate(carrier)}
    by_range = {}
    for j, y in enumerate(carrier):
        by_range.setdefault(t[y][inv[y]], []).append((j, y))
    ptable = [[None] * len(carrier) for _ in carrier]
    for i, x in enumerate(carrier):
        tx, row = t[x], ptable[i]
        for j, y in by_range.get(t[inv[x]][x], ()):
            p = index.get(tx[y])
            if p is None:
                raise CertificateFailed(("restricted-product-zero", x, y))
            row[j] = p
    return Gpd(ptable, labels=carrier)


@dataclass(frozen=True)
class FundamentalReport:
    fundamental: bool
    witness: int | None  # a non-idempotent commuting with every idempotent


def is_fundamental(s):
    """Only idempotents may commute with every idempotent."""
    for a in range(s.size):
        if s.is_idempotent(a):
            continue
        if all(s.table[a][e] == s.table[e][a] for e in s.idempotents):
            return FundamentalReport(False, a)
    return FundamentalReport(True, None)


def congruence_from_key(s, key):
    """Group ids by key(x), as a tuple of class ids numbered by least
    member."""
    buckets = {}
    for x in range(s.size):
        buckets.setdefault(key(x), []).append(x)
    reps = sorted(min(v) for v in buckets.values())
    rank = {rep: i for i, rep in enumerate(reps)}
    class_of = [0] * s.size
    for v in buckets.values():
        c = rank[min(v)]
        for x in v:
            class_of[x] = c
    return tuple(class_of)


def check_congruence(s, cls):
    """Return a witness (a, b, c, side) if the relation with class ids cls,
    cls[x] the class of x, is not a congruence.

    Decided on generators (_on_generator_sides): row g and column g of
    each, read through cls, must be constant on classes.  Only when the
    pass fails does _congruence_scan name the witness."""
    first = {}
    at_first = _picker([first.setdefault(c, x) for x, c in enumerate(cls)])

    def holds(side):
        side = tuple(map(cls.__getitem__, side))
        return at_first(side) == side

    return None if _on_generator_sides(s, holds) else _congruence_scan(s, cls)


def _congruence_scan(s, cls):
    """The first (rep, b, c, side), rep a class's least member and b another:
    c*rep, c*b (left) or rep*c, b*c (right) in different classes; or None."""
    t = s.table
    classes = {}
    for x in range(s.size):
        classes.setdefault(cls[x], []).append(x)
    for members in classes.values():
        rep = members[0]
        for b in members[1:]:
            for c in range(s.size):
                if cls[t[c][rep]] != cls[t[c][b]]:
                    return (rep, b, c, "left")
                if cls[t[rep][c]] != cls[t[b][c]]:
                    return (rep, b, c, "right")
    return None


def quotient_table(s, cls):
    """Multiplication table on the congruence classes cls (classes
    renumbered 0..); under the identity numbering, the table itself."""
    if cls == tuple(range(s.size)):
        return s.table
    reps = {}
    for x in range(s.size):
        reps.setdefault(cls[x], x)
    n = len(reps)
    out = [[0] * n for _ in range(n)]
    for ci, a in reps.items():
        for cj, b in reps.items():
            out[ci][cj] = cls[s.table[a][b]]
    return tuple(tuple(row) for row in out)


@dataclass(frozen=True)
class MuReport:
    mu: tuple  # class ids: id in s -> id in quotient
    quotient: InvSgp


def mu_and_quotient(s):
    """The largest idempotent-separating congruence and its quotient.

    Two elements are related exactly when they share domain and range
    idempotents and conjugate every idempotent identically.  The relation is
    re-checked as a congruence and for idempotent separation before the
    quotient is built; CertificateFailed names a check that fails.  When mu
    is trivial (s is fundamental) the quotient table is s's own and s is
    returned as the quotient rather than validated again.
    """
    t, inv, idem = s.table, s.inv, s.idempotents

    def key(a):
        conj = tuple(t[t[a][e]][inv[a]] for e in idem)
        return (s.d[a], s.r[a], conj)

    mu = congruence_from_key(s, key)
    bad = check_congruence(s, mu)
    if bad is not None:
        raise CertificateFailed(("mu-not-a-congruence", bad))
    seen = {}
    for e in idem:
        c = mu[e]
        if c in seen:
            raise CertificateFailed(("mu-collapses-idempotents", seen[c], e))
        seen[c] = e
    table = quotient_table(s, mu)
    quotient = s if table == s.table else InvSgp(table)
    return MuReport(mu, quotient)


CONGRUENCE_SCAN_CAP = 9


def all_congruences(s):
    """Every congruence of s, each as its tuple of class ids, by exhausting
    set partitions.  Small s only."""
    if s.size > CONGRUENCE_SCAN_CAP:
        raise TooLarge(
            "congruence enumeration capped at "
            f"CONGRUENCE_SCAN_CAP={CONGRUENCE_SCAN_CAP}, carrier has {s.size} elements"
        )
    out = []
    for part in _set_partitions(list(range(s.size))):
        class_of = [0] * s.size
        for ci, block in enumerate(part):
            for x in block:
                class_of[x] = ci
        if _congruence_scan(s, class_of) is None:
            out.append(tuple(class_of))
    return out


def _first_split(cls, other):
    """The first pair (x, y) in one class of cls and in two of other."""
    ids = range(len(cls))
    pairs = ((x, y) for x in ids for y in ids if cls[x] == cls[y])
    return next(((x, y) for x, y in pairs if other[x] != other[y]), None)


def _is_additive_congruence(s, cls):
    """Whether classes cls relate a2 v b2, defined, to a v b for every
    compatible pair (a, b) with a join, a2 related to a and b2 to b."""
    jt = s.join_table
    return all(
        (j2 := jt[a2][b2]) is not None and cls[j2] == cls[jt[a][b]]
        for a, partners in enumerate(s.compat_partners)
        for b in partners
        if jt[a][b] is not None
        for a2 in _positions(cls, cls[a])
        for b2 in _positions(cls, cls[b])
    )


def _set_partitions(xs):
    if not xs:
        yield []
        return
    first, rest = xs[0], xs[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def table_product(s, t):
    """Product table on pairs; pair (a, b) gets id b*|s| + a.

    The left factor varies fastest, so left-factor atoms keep the low ids.
    """
    ks, kt = s.size, t.size
    n = ks * kt
    out = [[0] * n for _ in range(n)]
    for b1 in range(kt):
        for a1 in range(ks):
            i = b1 * ks + a1
            for b2 in range(kt):
                for a2 in range(ks):
                    j = b2 * ks + a2
                    out[i][j] = t.table[b1][b2] * ks + s.table[a1][a2]
    return tuple(tuple(row) for row in out)


ISO_SEARCH_CAP = 10_000  # generator images one isomorphism search may try


def _table_invariants(rows):
    """Per id x: (index, period, |xS|, |Sx|), which a table isomorphism
    keeps.  x^index = x^(index + period) is the first repeat among x, x^2,
    ..., and |xS|, |Sx| count the distinct entries of row x and column x.
    In a group they are (1, order, n, n)."""
    out = []
    for x, (row, col) in enumerate(zip(rows, zip(*rows))):
        first, p = {}, x  # first[x^n] = n
        while p not in first:
            first[p] = len(first) + 1
            p = rows[p][x]
        out.append((first[p], len(first) + 1 - first[p], len(set(row)), len(set(col))))
    return out


def _table_iso(rows_a, rows_b):
    """An isomorphism of the product rows_a onto rows_b as an id tuple, or
    None when there is none.

    A map is fixed by its values on generators, so only the images of the
    generators of rows_a (_generators) are searched, one at a time, each
    among the ids with its _table_invariants: ascending, its own id first,
    so a table against itself gets the identity.  After each choice phi is
    closed under right multiplication by the chosen generators, phi(m*g) =
    phi(m)*phi(g), each (member, generator) pair multiplied once as in
    _generators; a member sent two ways, or two sent to one id, backtracks.
    Trying more than ISO_SEARCH_CAP images raises Undecided.

    The map found is then certified apart from the search: a bijection with
    phi(x*g) = phi(x)*phi(g) for every x and generator g, else
    CertificateFailed.  With both tables associative that makes phi a
    homomorphism, by induction on a word y*g in the generators, as every id
    is one: phi(x*(y*g)) = phi((x*y)*g) = phi(x*y)*phi(g) =
    (phi(x)*phi(y))*phi(g) = phi(x)*phi(y*g).
    """
    k = len(rows_a)
    if len(rows_b) != k:
        return None
    keys_a, keys_b = _table_invariants(rows_a), _table_invariants(rows_b)
    if sorted(keys_a) != sorted(keys_b):
        return None
    with_key = {}
    for y, key in enumerate(keys_b):
        with_key.setdefault(key, []).append(y)
    gens = _generators(rows_a)
    cands = [sorted(with_key[keys_a[g]], key=lambda y: (y != g, y)) for g in gens]
    phi, taken, members, done = [None] * k, [False] * k, [], []
    tried = 0

    def close():  # extend phi to the closure; False at the first clash
        grew = True
        while grew:
            grew = False
            for i, g in enumerate(gens[: len(done)]):
                start, done[i] = done[i], len(members)
                for m in members[start : done[i]]:
                    w, v = rows_a[m][g], rows_b[phi[m]][phi[g]]
                    if phi[w] is None and not taken[v]:
                        phi[w], taken[v], grew = v, True, True
                        members.append(w)
                    elif phi[w] != v:
                        return False
        return True

    def search(j):
        nonlocal tried
        if j == len(gens):
            return True
        g, size, before = gens[j], len(members), done[:]
        for y in cands[j]:
            if taken[y]:
                continue
            tried += 1
            if tried > ISO_SEARCH_CAP:
                raise Undecided(
                    f"isomorphism search tried {tried} generator images, "
                    f"above cap ISO_SEARCH_CAP={ISO_SEARCH_CAP}"
                )
            phi[g], taken[y] = y, True
            members.append(g)
            done.append(0)
            if close() and search(j + 1):
                return True
            for m in members[size:]:
                taken[phi[m]], phi[m] = False, None
            del members[size:]
            done[:] = before
        return False

    if not search(0):
        return None
    if set(phi) != set(range(k)):
        raise CertificateFailed(("table-iso-not-bijective",))
    for g in gens:
        for x, w in enumerate(map(itemgetter(g), rows_a)):
            if rows_b[phi[x]][phi[g]] != phi[w]:
                raise CertificateFailed(("table-iso-not-multiplicative", x, g))
    return tuple(phi)


def semigroup_iso(s, t):
    """A table isomorphism s -> t as an id tuple, or None: _table_iso."""
    return _table_iso(s.table, t.table)
