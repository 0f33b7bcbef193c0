"""Generated structures for property tests: inverse subsemigroups of I4,
subsemigroups of the full transformation monoid T3, and component forms of
groupoids whose local bisections K(G) tabulates.

A partial bijection of {0..3} is a frozenset of (x, f(x)) pairs.  The
product a*b is "first a, then b".  The subsemigroup generated by a few of
them and their inverses is closed under that product and inverse, so it is a
real inverse semigroup, usually without the joins or the distributivity a
Boolean one needs.
"""

from math import comb, factorial

from hypothesis import strategies as st

from biskit.groupoid import Component, Gpd, reconstruct

POINTS = range(4)


def then(a, b):
    """a*b: apply a, then b, where both are defined."""
    bm = dict(b)
    return frozenset((x, bm[y]) for x, y in a if y in bm)


def inverse(a):
    return frozenset((y, x) for x, y in a)


def generated_table(gens):
    """(elements, table) of the inverse subsemigroup generated by gens.

    Elements sort by (size, sorted pairs), as in corpus.symmetric_inverse_table,
    so the empty map, when present, is id 0.
    """
    gens = set(gens) | {inverse(a) for a in gens}
    elems = set(gens)
    todo = list(gens)
    while todo:  # close under right multiplication by the generators
        m = todo.pop()
        for g in gens:
            w = then(m, g)
            if w not in elems:
                elems.add(w)
                todo.append(w)
    elems = sorted(elems, key=lambda f: (len(f), sorted(f)))
    index = {f: i for i, f in enumerate(elems)}
    return elems, [[index[then(a, b)] for b in elems] for a in elems]


partial_bijections = st.builds(
    lambda image, keep: frozenset((x, y) for x, y, k in zip(POINTS, image, keep) if k),
    st.permutations(list(POINTS)),
    st.lists(st.booleans(), min_size=4, max_size=4),
)

# tables of the inverse subsemigroups of I4 generated by 1-3 partial bijections
i4_subsemigroup_tables = st.lists(partial_bijections, min_size=1, max_size=3).map(
    lambda gens: generated_table(gens)[1]
)


def transformation_table(gens):
    """The table of the subsemigroup of T3 generated by gens, maps of
    {0, 1, 2} as image tuples, with a*b "first a, then b" and the maps in
    ascending order.  Often regular without commuting idempotents, so not
    inverse."""
    elems, todo = set(gens), list(gens)
    while todo:
        m = todo.pop()
        for g in gens:
            w = tuple(g[y] for y in m)
            if w not in elems:
                elems.add(w)
                todo.append(w)
    elems = sorted(elems)
    index = {f: i for i, f in enumerate(elems)}
    return [[index[tuple(b[y] for y in a)] for b in elems] for a in elems]


# tables of the subsemigroups of T3 generated by 1-3 maps
t3_subsemigroup_tables = st.lists(
    st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=3
).map(transformation_table)


def bisection_count(g):
    """How many local bisections the groupoid g has, with no cap: a
    component with n identities and local group of order h has the sum over
    m of C(n, m)^2 m! h^m, and the components multiply."""
    count = 1
    for c in g.form:
        n, h = c.identity_count, c.group.size
        count *= sum(comb(n, m) ** 2 * factorial(m) * h**m for m in range(n + 1))
    return count


def cyclic_group(h):
    """Z_h as a one-object groupoid: i * j = i + j mod h."""
    return Gpd([[(i + j) % h for j in range(h)] for i in range(h)])


# component forms of 1-3 components, each with n <= 3 identities and a
# cyclic group of order <= 3, whose groupoids have at most K_ORACLE_BISECTIONS
# local bisections: under K_OF_GROUPOID_CAP, and few enough for the
# pairwise-product oracle
K_ORACLE_BISECTIONS = 400
component_forms = (
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)
    .map(lambda nh: tuple(Component(n, cyclic_group(h), (), ()) for n, h in nh))
    .filter(lambda form: bisection_count(reconstruct(form)) <= K_ORACLE_BISECTIONS)
)
