"""Error types raised by table validation and the structure constructions.

Every error carries a witness: the smallest tuple of element ids that
exhibits the violation, so failures can be replayed against the table
by hand.
"""


class BiskitError(Exception):
    """Base class for all library errors."""


class ParseError(BiskitError):
    """Malformed .ist/.grp text: bad header, bad token, wrong shape."""


class NotAssociative(BiskitError):
    """(a*b)*c != a*(b*c); witness is the triple (a, b, c)."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"not associative at {triple}")


class NotInverse(BiskitError):
    """Some element has no, or more than one, generalized inverse."""

    def __init__(self, element, candidates):
        self.element = element
        self.candidates = candidates
        n = len(candidates)
        what = "no generalized inverse" if n == 0 else f"{n} generalized inverses"
        super().__init__(f"element {element} has {what}")


class NoZero(BiskitError):
    """Operation needs an absorbing zero and the table has none."""


class NotGroupoid(BiskitError):
    """Partial table violates a groupoid axiom; carries (axiom, witness)."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"groupoid axiom {axiom!r} fails at {witness}")


class NotAGroup(BiskitError):
    """Expected a one-object groupoid with every product defined."""


class Undecided(BiskitError):
    """Search capped out; the answer was not determined either way."""


class NotBelow(BiskitError):
    """Relative complement x minus y asked with y not below x."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"{pair[1]} is not below {pair[0]}")


class NotCompatible(BiskitError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"elements {pair[0]} and {pair[1]} are not compatible")


class NotRook(BiskitError):
    """Matrix entries that break a rook condition; witness is the first
    failing pair, as rook_violation names it."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"rook condition fails: {witness}")


class DimensionMismatch(BiskitError):
    """Rook matrices over different bases or of different sizes."""


class TooLarge(BiskitError):
    """Construction would exceed a tabulation cap."""


class NotBoolean(BiskitError):
    """Structure fails one of the Boolean axioms; carries the witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not Boolean: {witness}")


class NotMonoid(BiskitError):
    """No two-sided identity element."""


class NotHomomorphism(BiskitError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map is not a homomorphism: {witness}")


class TargetNotBoolean(BiskitError):
    """Extension target must be a validated Boolean structure."""


class ZeroIdempotent(BiskitError):
    """Idempotent argument must be nonzero."""


class NotAnIdeal(BiskitError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not an additive ideal: {witness}")


class NotMultiplicative(BiskitError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map does not preserve products: {witness}")


class NotZeroPreserving(BiskitError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map does not send zero to zero: {witness}")


class CertificateFailed(BiskitError):
    """A construction's result failed the check that certifies it; carries
    the witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"certificate failed: {witness}")
