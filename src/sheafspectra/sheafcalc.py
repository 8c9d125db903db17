"""One construction grammar and one evaluator: blocks, sequences, monads.

Leaves (line bundles, point sheaves, modules pushed forward from
curves) have closed-form cohomology rows; sums add rows and twists
shift them.  Every other node is a short exact sequence with one
unknown slot, or two of them nested: a monad
0 -> sum O(a) -> sum O(b) -> sum O(c) -> 0 is the cokernel of
sum O(a) -> K, K the kernel of sum O(b) ->> sum O(c).
A recipe is a construction node; symbol_from_json is the one reader of
its JSON form, refuses a field its kind does not have, and reads the
kinds without a node class of their own into the nodes they denote: a
rational curve as a genus-0 curve module, an ideal of a curve as the
kernel of O ->> O_C and a quotient as the kernel of ambient ->> quotient.
splice_ses evaluates any node over a twist range, one _row per twist:
a sequence is solved from its twelve-term cohomology sequence under the
generic maximal-rank policy (every free connecting or interior map
takes the largest rank its source and target allow; forced maps,
injective at the left end and surjective at the right, are checked for
feasibility), and a monad row is checked against the Chern classes of
the power-series oracle.
splice_bounds reads, for each entry, the interval attainable over all
rank choices off the two corners of the rank box, so callers can tell
policy output from forced output.

construction_spectrum and construction_table run the full pipeline from
a node to a spectrum and back to a printed-window table: the rows and
the spectrum must fit the class read from the rows' chi and be
admissible, and the raw policy h2, which can misread deep syzygies, is
withheld below the twist -3-e.  Both derive on every call; a catalog
remembers which of its recipes have checked out (workbench).
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, NamedTuple

from .cohomology import (
    CohomologyTable,
    _check_chi,
    spectrum_from_table,
    table_from_spectrum,
)
from .errors import (
    AmbiguousCurveModuleError,
    CatalogError,
    InadmissibleSpectrumError,
    NotNormalizedError,
    RankMismatchError,
    SequenceInfeasibleError,
)
from .invariants import (
    ChernClasses,
    _Checked,
    _exact,
    chern_from_resolution,
    line_bundle_chi,
    splitting_type_from_e,
)
from .spectrum import SpectrumWithS, s_upper_bound, validate_chain_down

__all__ = [
    "LineBundle",
    "DirectSum",
    "PointSheaf",
    "CurveModule",
    "Twist",
    "ShortExactSequenceSpec",
    "MonadShape",
    "splice_ses",
    "splice_bounds",
    "symbol_from_json",
    "recipe_table",
    "construction_spectrum",
    "construction_table",
]


# ---------------------------------------------------------------- symbols

class LineBundle(_Checked, NamedTuple("LineBundle", [("a", int)])):
    __slots__ = ()

    def __new__(cls, a: int):
        return tuple.__new__(cls, (_exact(a),))


class DirectSum(_Checked, NamedTuple("DirectSum", [("terms", tuple)])):
    __slots__ = ()

    def __new__(cls, terms):
        return tuple.__new__(cls, (tuple(terms),))


class PointSheaf(_Checked, NamedTuple("PointSheaf", [("n", int)])):
    __slots__ = ()

    def __new__(cls, n: int):
        if _exact(n) < 0:
            raise ValueError(f"point count must be nonnegative, got {n}")
        return tuple.__new__(cls, (n,))


class CurveModule(_Checked, NamedTuple("CurveModule", [
    ("genus", int), ("slope", int), ("offset", int), ("generic", bool),
])):
    """Module on a genus-g curve with Hilbert polynomial slope*t + offset.

    Line bundles of degree outside [0, 2g-2] have one-sided cohomology;
    inside that strip only a generic module is determined (h0 = max(chi, 0)),
    and non-generic input is refused rather than guessed.
    """

    __slots__ = ()

    def __new__(cls, genus: int, slope: int, offset: int, generic: bool = True):
        self = tuple.__new__(
            cls, (_exact(genus), _exact(slope), _exact(offset), _exact(generic, bool))
        )
        if genus < 0:
            raise ValueError(f"curve genus must be nonnegative, got {genus}")
        if slope < 1:  # the degree of the curve
            raise ValueError(f"curve degree must be positive, got {slope}")
        return self


class Twist(_Checked, NamedTuple("Twist", [("of", object), ("n", int)])):
    __slots__ = ()

    def __new__(cls, of, n: int):
        return tuple.__new__(cls, (of, _exact(n)))


def _row(node, t: int) -> tuple:
    """Row (h0, h1, h2, h3) of any construction node at twist t."""
    if isinstance(node, LineBundle):
        chi = line_bundle_chi(node.a, t)
        d = node.a + t
        return (chi if d >= 0 else 0, 0, 0, -chi if d <= -4 else 0)
    if isinstance(node, DirectSum):
        rows = [_row(term, t) for term in node.terms]
        return tuple(map(sum, zip((0, 0, 0, 0), *rows)))  # an empty sum is zero
    if isinstance(node, ShortExactSequenceSpec):
        return _solve(*_blocks(node, t))
    if isinstance(node, PointSheaf):
        return (node.n, 0, 0, 0)
    if isinstance(node, CurveModule):
        chi = node.slope * t + node.offset
        deg = chi + node.genus - 1
        if 0 <= deg <= 2 * node.genus - 2 and not node.generic:
            raise AmbiguousCurveModuleError(
                f"degree {deg} lies in the special strip of a genus-{node.genus} "
                "curve and the module is not declared generic"
            )
        return (max(chi, 0), max(-chi, 0), 0, 0)
    if isinstance(node, MonadShape):
        row = _row(node.sequence, t)
        _check_chi(node.chern(), t, row)  # also where the monad fills a slot
        return row
    if isinstance(node, Twist):
        return _row(node.of, t + node.n)
    raise TypeError(f"not a sheaf symbol: {node!r}")


def splice_ses(node, rng: tuple[int, int]) -> CohomologyTable:
    """Total cohomology table of any construction node over rng.

    Twists are solved from the lowest up, so of several failing twists
    the lowest raises.  A monad keeps its Chern classes.
    """
    lo, hi = rng
    rows = {t: _row(node, t) for t in range(lo, hi + 1)}
    # _row has chi-checked a monad's rows already; the table checks them again
    cc = node.chern() if isinstance(node, MonadShape) else None
    return CohomologyTable(lo, hi, rows, cc)


# ------------------------------------------------------- sequence solving
#
# The twelve-term sequence at one twist,
#
#   0 -> L0 -> M0 -> R0 -> L1 -> M1 -> R1 -> L2 -> M2 -> R2 -> L3 -> M3 -> R3 -> 0,
#
# is solved for one unknown column U0..U3.  Between consecutive unknowns
# sit two known entries, so the known part is five blocks p_k -> q_k
# (k = 0..4) around U_{k-1} -> p_k -> q_k -> U_k, with a zero block at
# an end where the sequence starts or stops:
#
#   unknown left:   (0, 0), (M_i, R_i)
#   unknown middle: (0, L0), (R_i, L_{i+1}), (R3, 0)
#   unknown right:  (L_i, M_i), (0, 0)
#
# With x_k the rank of p_k -> q_k, exactness gives
# U_k = (q_k - x_k) + (p_{k+1} - x_{k+1}).  The end ranks are forced
# (x_0 = p_0 injects, x_4 = q_4 is hit); the inner three are free in
# [0, min(p_k, q_k)].


# the known rows (a, b), in slot order, as the block entries (p, q)
_BLOCKS = {
    "left": lambda m, r: ((0,) + m, (0,) + r),
    "middle": lambda l, r: ((0,) + r, l + (0,)),
    "right": lambda l, m: (l + (0,), m + (0,)),
}


def _solve(p: tuple, q: tuple, ranks=None) -> tuple:
    """Unknown column between the blocks p_k -> q_k; free ranks default maximal."""
    if p[0] > q[0]:
        raise SequenceInfeasibleError(
            f"h0 of the left column ({p[0]}) exceeds h0 of the middle ({q[0]})"
        )
    if q[4] > p[4]:
        raise SequenceInfeasibleError(
            f"h3 of the right column ({q[4]}) exceeds h3 of the middle ({p[4]})"
        )
    if ranks is None:
        ranks = [a if a < b else b for a, b in zip(p[1:4], q[1:4])]
    x = (p[0], *ranks, q[4])
    return tuple([a - b + c - d for a, b, c, d in zip(q, x, p[1:], x[1:])])


_SLOTS = ("left", "middle", "right")


class ShortExactSequenceSpec(_Checked, NamedTuple("ShortExactSequenceSpec", [
    ("left", object), ("middle", object), ("right", object),
])):
    """0 -> left -> middle -> right -> 0 with exactly one unknown slot.

    Known slots are construction nodes of any kind (symbols, sequences,
    monads); the unknown slot is None.
    """

    __slots__ = ()

    def __new__(cls, left=None, middle=None, right=None):
        if (left, middle, right).count(None) != 1:
            raise ValueError("exactly one slot of the sequence must be unknown")
        return tuple.__new__(cls, (left, middle, right))

    @property
    def unknown(self) -> str:
        return _SLOTS[self.index(None)]


def _blocks(spec: ShortExactSequenceSpec, t: int) -> tuple:
    # the two known rows at twist t, as the blocks around the unknown
    a, b = [_row(slot, t) for slot in spec if slot is not None]
    return _BLOCKS[spec.unknown](a, b)


def splice_bounds(spec: ShortExactSequenceSpec, rng: tuple[int, int]) -> dict:
    """Attainable [lo, hi] per entry over all admissible rank choices.

    Each unknown entry falls as any free rank grows and the free ranks
    vary independently, so the low end is the maximal-rank value of
    splice_ses and the high end is the value at zero free ranks; an
    entry is genuinely forced when its interval has length zero.
    """
    if not isinstance(spec, ShortExactSequenceSpec):
        raise TypeError(f"splice_bounds needs a ShortExactSequenceSpec, got {spec!r}")
    out = {}
    for t in range(rng[0], rng[1] + 1):
        p, q = _blocks(spec, t)
        out[t] = tuple(zip(_solve(p, q), _solve(p, q, (0, 0, 0))))
    return out


class MonadShape(_Checked, NamedTuple("MonadShape", [
    ("a", tuple), ("b", tuple), ("c", tuple),
])):
    """Line-bundle degrees (a, b, c) of a three-term monad.

    The middle cohomology of 0 -> sum O(a_i) -> sum O(b_j) -> sum O(c_k) -> 0
    is a rank-2 sheaf; its Chern classes come from the series oracle.
    """

    # no __slots__: the instance dict holds the cached sequence and classes

    def __new__(cls, a, b, c):
        self = tuple.__new__(cls, tuple(tuple([_exact(d) for d in x]) for x in (a, b, c)))
        if len(self.b) - len(self.a) - len(self.c) != 2:
            raise RankMismatchError(
                f"monad has rank {len(self.b) - len(self.a) - len(self.c)}, expected 2"
            )
        return self

    @cached_property
    def sequence(self) -> ShortExactSequenceSpec:
        # 0 -> sum O(a) -> K -> E -> 0, with 0 -> K -> sum O(b) -> sum O(c) -> 0
        bundle = lambda degrees: DirectSum(LineBundle(d) for d in degrees)
        kernel = ShortExactSequenceSpec(middle=bundle(self.b), right=bundle(self.c))
        return ShortExactSequenceSpec(left=bundle(self.a), middle=kernel)

    def chern(self) -> ChernClasses:
        return self._chern

    @cached_property
    def _chern(self) -> ChernClasses:  # read by _row at every twist
        return chern_from_resolution(self.b, self.a + self.c)


def _leaves(sym) -> list:
    if isinstance(sym, DirectSum):
        return [leaf for term in sym.terms for leaf in _leaves(term)]
    return [sym]


def _quotient(ambient, quotient) -> ShortExactSequenceSpec:
    # the kernel of ambient ->> quotient, whose support has dimension <= 1
    leaves = _leaves(quotient)
    curves = [s for s in leaves if isinstance(s, CurveModule) and s.genus == 0]
    points = [s for s in leaves if isinstance(s, PointSheaf)]
    if len(curves) > 1 or len(points) + len(curves) != len(leaves):
        raise ValueError(
            "quotient must be a sum of point sheaves and at most one "
            "genus-0 curve module"
        )
    return ShortExactSequenceSpec(middle=ambient, right=quotient)


# ------------------------------------------------------------- recipes

# the fields of each JSON kind besides "kind"
_FIELDS = dict(line={"a"}, sum={"terms"}, points={"n"}, rational_curve={"d", "b"},
               curve={"genus", "slope", "offset", "generic"}, ideal={"curve"},
               twist={"of", "n"}, ses={"unknown", *_SLOTS}, monad={"a", "b", "c"},
               quotient={"ambient", "quotient"})


def symbol_from_json(node: Mapping):
    """Build a construction node from its catalog JSON form.

    A node of any kind may fill the terms of a sum, the curve of an
    ideal, the of of a twist, the slots of an ses and the ambient of a
    quotient.  Integer fields and monad degrees must be JSON integers
    and generic a JSON boolean; anything else, and a field the kind
    does not have, raises CatalogError instead of being coerced or
    ignored.
    """
    try:
        kind = node["kind"]
        if kind not in _FIELDS:
            raise CatalogError(f"unknown symbol kind {kind!r}")
        stray = sorted(set(node) - _FIELDS[kind] - {"kind"})
        if stray:
            raise CatalogError(f"unknown field {stray[0]!r} in a {kind!r} node")
        if kind == "line":
            return LineBundle(node["a"])
        if kind == "sum":
            return DirectSum(symbol_from_json(term) for term in node["terms"])
        if kind == "points":
            return PointSheaf(node["n"])
        if kind == "rational_curve":  # O(d t + b) on a degree-d rational curve
            return CurveModule(0, node["d"], _exact(node["b"]) + 1)
        if kind == "curve":
            return CurveModule(node["genus"], node["slope"], node["offset"],
                               node.get("generic", True))
        if kind == "ideal":  # 0 -> I_C -> O -> O_C -> 0
            return ShortExactSequenceSpec(
                middle=LineBundle(0), right=symbol_from_json(node["curve"])
            )
        if kind == "twist":
            return Twist(symbol_from_json(node["of"]), node["n"])
        if kind == "ses":
            names = [name for name in _SLOTS if node.get(name) is not None]
            slots = {name: symbol_from_json(node[name]) for name in names}
            unknown = node.get("unknown")
            if unknown not in _SLOTS or unknown in slots:
                raise CatalogError(f"recipe must leave exactly the slot {unknown!r} empty")
            return ShortExactSequenceSpec(**slots)
        if kind == "monad":
            return MonadShape(node["a"], node["b"], node["c"])
        if kind == "quotient":
            return _quotient(
                symbol_from_json(node["ambient"]), symbol_from_json(node["quotient"])
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"malformed symbol node {node!r}: {exc}") from exc


def recipe_table(node: Mapping, rng: tuple[int, int]) -> CohomologyTable:
    """Read a recipe's JSON form and evaluate it over rng."""
    return splice_ses(symbol_from_json(node), rng)


# ------------------------------------------------------------- pipeline

def _class_from_rows(rows: Mapping) -> ChernClasses:
    # chi of a row is exact whatever ranks the policy chose; for rank 2,
    # e = its second difference, c2 = chi(-2) - chi(-1), c3 = 2 chi(-2) + e c2
    x, y, z = [h0 - h1 + h2 - h3 for h0, h1, h2, h3 in (rows[-3], rows[-2], rows[-1])]
    e, c2 = z - 2 * y + x, y - z
    if e not in (-1, 0):  # twisting by k moves c1 by 2k
        raise NotNormalizedError(
            f"recipe has first Chern class {e}; twist it by {-((e + 1) // 2)} to normalize it"
        )
    return ChernClasses(e, c2, 2 * y + e * c2)


def _derivation(node) -> tuple[ChernClasses, SpectrumWithS]:
    rows = {t: _row(node, t) for t in range(-8, 1)}
    cc = _class_from_rows(rows)  # from the raw rows, before h2 is withheld
    for t in range(-8, -3 - cc.e):  # h2 withheld below -3-e
        rows[t] = rows[t][:2] + (None, rows[t][3])
    st = splitting_type_from_e(cc.e)
    sw = spectrum_from_table(CohomologyTable(-8, 0, rows, cc), st)
    if validate_chain_down(sw.values, st) or sw.s > s_upper_bound(cc.e, cc.c2):
        raise InadmissibleSpectrumError(
            f"spectrum {sw.values}, s={sw.s} breaks the chain-down rule or the bound on s"
        )
    return cc, sw


def construction_spectrum(node) -> SpectrumWithS:
    """Spectrum of a construction node: splice over twists -8..0, invert.

    The answer must be admissible and, with every known row, fit the
    class read from the rows' chi; h2 is withheld below the twist -3-e.
    """
    return _derivation(node)[1]


def construction_table(node) -> CohomologyTable:
    """Printed-window table (twists -4..-1) of construction_spectrum's answer."""
    cc, sw = _derivation(node)
    return table_from_spectrum(sw, splitting_type_from_e(cc.e), (-4, -1))
