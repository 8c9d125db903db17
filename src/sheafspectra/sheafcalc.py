"""One construction grammar and one evaluator: blocks, sequences, monads.

Leaves (line bundles, point sheaves, modules pushed forward from
curves) have closed-form cohomology rows; sums add rows and twists
shift them.  Every other node is a short exact sequence with one
unknown slot, or two of them nested: a monad
0 -> sum O(a) -> sum O(b) -> sum O(c) -> 0 is the cokernel of
sum O(a) -> K, K the kernel of sum O(b) ->> sum O(c).
A recipe is a construction node; symbol_from_json is the one reader of
its JSON form, and one table, _KINDS, gives each kind its fields and its
reader.  A field the kind does not have is refused, and the kinds
without a node class of their own are read into the nodes they denote: a
rational curve as a genus-0 curve module, an ideal of a curve as the
kernel of O ->> O_C and a quotient as the kernel of ambient ->> quotient.
splice_ses evaluates any node over a twist range, each node once for
the whole range, and a fault raises where the walk meets it; _evaluate
alone picks which of several faults to report.  A line bundle, the line
bundles of a sum and a monad's degree list are each one column: the
first degree's rows, each further distinct degree's cubic chi times its
count folded into them in one pass.  A sequence's unknown column is
solved in one pass, by one closed form for every unknown slot (see
"sequence solving" below) read off its twelve-term cohomology sequence
under the generic maximal-rank policy:
every free connecting or interior map takes the largest rank its source
and target allow.  The forced maps, injective at the left end and
surjective at the right, make an unknown left slot infeasible where h3
of the right exceeds h3 of the middle and an unknown right slot where
h0 of the left exceeds h0 of the middle; a middle slot is always
feasible.  A monad is solved as its two nested sequences straight from
its three degree lists, building no node, so a monad of any class may
nest; only a monad spliced on its own needs a normalized class.
splice_bounds evaluates the known slots once and reads, for each entry,
the interval attainable over all rank choices off the two corners of the
rank box, so callers can tell policy output from forced output.

A class has one reader, from chi at the twists -3..0: chi of every node
is a cubic in t whose third difference is the rank, so a recipe of any
rank but 2 is refused by name, and only a rank-2 one is told its
normalizing twist or given (e, c2, c3).  MonadShape.chern reads a
monad's chi off four power sums of its degrees (b counted +1, a and c
-1); the pipeline reads the chi of the rows it evaluates.

construction_spectrum runs the full pipeline from a node to its class
and spectrum: the rows and the spectrum must fit the class read from
the rows' chi and be admissible, and the raw policy h2, which can
misread deep syzygies, is withheld below the twist -3-e.  It derives on
every call; a catalog derives each of its recipes once, when it is
built (workbench).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from .cohomology import CohomologyTable, _table, _twists, spectrum_from_table
from .errors import (
    AmbiguousCurveModuleError,
    CatalogError,
    NotNormalizedError,
    RankMismatchError,
    SequenceInfeasibleError,
    SheafSpectraError,
)
from .invariants import ChernClasses, _array, _Checked, _exact, _unkeyed, splitting_type_from_e
from .spectrum import SpectrumWithS, _check_admissible

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
]


# ---------------------------------------------------------------- symbols

class LineBundle(_Checked, NamedTuple("LineBundle", [("a", int)])):
    __slots__ = ()

    def __new__(cls, a: int):
        return tuple.__new__(cls, (_exact(a),))


class DirectSum(_Checked, NamedTuple("DirectSum", [("terms", tuple)])):
    __slots__ = ()

    def __new__(cls, terms):
        terms = _unkeyed(terms, TypeError, "sum terms must be a sequence or an iterator")
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


def _lines(degrees, twists: range) -> list:
    """Rows of the sum of O(d) over degrees, each distinct degree's cubic chi once."""
    # chi(n O(d)) = n C(d + 3, 3), all h0 or all h3; an empty sum is 0 O(0), all zeros
    first, start, stop = degrees[0] if degrees else 0, twists.start, twists.stop
    n = degrees.count(first)
    rows = [(c, 0, 0, 0) if c >= 0 else (0, 0, 0, -c) for x in range(first + start, first + stop)
            for c in [n * (x + 1) * (x + 2) * (x + 3) // 6]]
    if len(degrees) > n:  # each further degree folded in by the pass that computes its cubic
        for d in {*degrees} - {first}:
            n = degrees.count(d)
            rows = [(h0 + c, 0, 0, h3) if c >= 0 else (h0, 0, 0, h3 - c)
                    for (h0, _, _, h3), x in zip(rows, range(d + start, d + stop))
                    for c in [n * (x + 1) * (x + 2) * (x + 3) // 6]]
    return rows


def _rows(node, twists: range) -> list:
    """Rows of a node over twists; the first fault the walk meets raises."""
    if isinstance(node, LineBundle):  # a lone line bundle is a one-term sum
        return _lines((node.a,), twists)
    if isinstance(node, DirectSum):  # the line bundles add up to one column
        degrees, columns = [], []
        for term in node.terms:  # one loop: two comprehensions cost a line-only sum 15 %
            if isinstance(term, LineBundle):
                degrees.append(term.a)
            else:
                columns.append(_rows(term, twists))
        if not columns:  # line bundles only, or no term at all
            return _lines(degrees, twists)
        if degrees:
            columns.append(_lines(degrees, twists))
        out = columns[0]
        for rows in columns[1:]:
            out = [(a + e, b + f, c + g, d + h) for (a, b, c, d), (e, f, g, h) in zip(out, rows)]
        return out
    if isinstance(node, ShortExactSequenceSpec):
        return _solve(node.unknown, [_rows(slot, twists) for slot in node if slot is not None])
    if isinstance(node, PointSheaf):
        return [(node.n, 0, 0, 0)] * len(twists)
    if isinstance(node, CurveModule):  # chi = slope t + offset steps by the slope
        g, step = node.genus, node.slope
        chis = range(step * twists.start + node.offset, step * twists.stop + node.offset, step)
        if not node.generic:  # only a generic module is determined inside the strip
            for chi in chis:
                if 0 <= chi + g - 1 <= 2 * g - 2:
                    raise AmbiguousCurveModuleError(
                        f"degree {chi + g - 1} lies in the special strip of a genus-{g} "
                        "curve and the module is not declared generic"
                    )
        return [(c, 0, 0, 0) if c >= 0 else (0, -c, 0, 0) for c in chis]
    if isinstance(node, MonadShape):  # sum O(a) -> K -> E, with K ->> sum O(b) ->> sum O(c)
        kernel = _solve("left", [_lines(node.b, twists), _lines(node.c, twists)])
        return _solve("right", [_lines(node.a, twists), kernel])
    if isinstance(node, Twist):
        return _rows(node.of, range(twists.start + node.n, twists.stop + node.n))
    raise TypeError(f"not a sheaf symbol: {node!r}")


def _evaluate(column, rng: tuple[int, int]) -> dict:
    """Rows by twist of column over rng; the range is checked first.

    Of several faults the one at the lowest failing twist raises, the
    first a depth-first walk meets there: a failing column is evaluated
    again one twist at a time from lo, and the first failure raises.
    """
    lo, hi = rng
    twists = _twists(lo, hi)
    try:
        return dict(zip(twists, column(twists)))
    except (SheafSpectraError, TypeError):
        for t in twists:
            column(range(t, t + 1))
        raise


def splice_ses(node, rng: tuple[int, int]) -> CohomologyTable:
    """Total cohomology table of any construction node over rng.

    Of several failing twists the lowest raises.  A monad spliced on its
    own keeps its class, which must be normalized.
    """
    rows = _evaluate(lambda twists: _rows(node, twists), rng)  # all ints >= 0, so all checked
    return _table(*rng, rows, node.chern() if isinstance(node, MonadShape) else None, rows)


# ------------------------------------------------------- sequence solving
#
# The twelve-term sequence at one twist,
#
#   0 -> L0 -> M0 -> R0 -> L1 -> M1 -> R1 -> L2 -> M2 -> R2 -> L3 -> M3 -> R3 -> 0,
#
# is solved for one unknown column U0..U3.  Between consecutive unknowns
# sit two known entries p_k -> q_k (k = 0..4), with a zero at an end
# where the sequence starts or stops; the unknown slot decides only how
# the known rows unpack into these blocks:
#
#   left:   p = (0, M0, M1, M2, M3),  q = (0, R0, R1, R2, R3)
#   middle: p = (0, R0, R1, R2, R3),  q = (L0, L1, L2, L3, 0)
#   right:  p = (L0, L1, L2, L3, 0),  q = (M0, M1, M2, M3, 0)
#
# With x_k the rank of p_k -> q_k, exactness gives U_k = (q_k - x_k) +
# (p_{k+1} - x_{k+1}).  The end ranks are forced: x_0 = p_0 injects and
# x_4 = q_4 is hit, which is feasible unless p_0 > q_0 or q_4 > p_4.  The
# inner three (k = 1..3) are free in [0, min(p_k, q_k)]: min under the
# maximal-rank policy, 0 at the upper end of splice_bounds.


def _solve(unknown: str, known: list, maximal: bool = True) -> list:
    """The unknown slot's rows from the known ones', in slot order; a failing forced end raises."""
    a, b = known
    rows = []
    left, middle = unknown == "left", unknown == "middle"
    for u, v in zip(a, b):
        if left:
            p0 = q0 = 0
            (p1, p2, p3, p4), (q1, q2, q3, q4) = u, v
        elif middle:
            p0 = q4 = 0
            (p1, p2, p3, p4), (q0, q1, q2, q3) = v, u
        else:
            p4 = q4 = 0
            (p0, p1, p2, p3), (q0, q1, q2, q3) = u, v
        if p0 > q0:
            raise SequenceInfeasibleError(
                f"h0 of the left column ({p0}) exceeds h0 of the middle ({q0})"
            )
        if q4 > p4:
            raise SequenceInfeasibleError(
                f"h3 of the right column ({q4}) exceeds h3 of the middle ({p4})"
            )
        if maximal:
            x1, x2, x3 = p1 if p1 < q1 else q1, p2 if p2 < q2 else q2, p3 if p3 < q3 else q3
        else:
            x1 = x2 = x3 = 0
        rows.append((q0 - p0 + p1 - x1, q1 - x1 + p2 - x2, q2 - x2 + p3 - x3, q3 - x3 + p4 - q4))
    return rows


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


def splice_bounds(spec: ShortExactSequenceSpec, rng: tuple[int, int]) -> dict:
    """Attainable [lo, hi] per entry over all admissible rank choices.

    Each unknown entry falls as any free rank grows and the free ranks
    vary independently, so the low end is the maximal-rank value of
    splice_ses and the high end is the value at zero free ranks; an
    entry is genuinely forced when its interval has length zero.
    """
    if not isinstance(spec, ShortExactSequenceSpec):
        raise TypeError(f"splice_bounds needs a ShortExactSequenceSpec, got {spec!r}")

    def column(twists):  # the known slots are evaluated once, for both ends
        known = [_rows(slot, twists) for slot in spec if slot is not None]
        low, high = [_solve(spec.unknown, known, m) for m in (True, False)]
        return [tuple(zip(*pair)) for pair in zip(low, high)]

    return _evaluate(column, rng)


class MonadShape(_Checked, NamedTuple("MonadShape", [
    ("a", tuple), ("b", tuple), ("c", tuple),
])):
    """Line-bundle degrees (a, b, c) of a three-term monad.

    The middle cohomology of 0 -> sum O(a_i) -> sum O(b_j) -> sum O(c_k) -> 0
    is a rank-2 sheaf; its Chern classes are read from its chi.  It
    evaluates as the cokernel of sum O(a) -> K, K the kernel of
    sum O(b) ->> sum O(c), so where it nests its class may be any;
    spliced on its own it must be normalized.
    """

    __slots__ = ()

    def __new__(cls, a, b, c):
        # each degree list an array: tuple() would read a mapping's or a set's keys
        arrays = (_array(a, "monad field 'a'"), _array(b, "monad field 'b'"),
                  _array(c, "monad field 'c'"))
        self = tuple.__new__(cls, tuple(tuple([_exact(d) for d in x]) for x in arrays))
        if len(self.b) - len(self.a) - len(self.c) != 2:
            raise RankMismatchError(
                f"monad has rank {len(self.b) - len(self.a) - len(self.c)}, expected 2"
            )
        return self

    def chern(self) -> ChernClasses:
        # 6 chi(O(d)(t)) = u^3 - u, u = d + k, k = t + 2; so over the power sums p_i of
        # the degrees, b counted +1 and a and c -1, 6 chi(E(t)) is p3 + 3k p2 +
        # (3k^2 - 1) p1 + (k^3 - k) p0, here at k = -1..2 with p0 = 2, the rank
        ac = self.a + self.c
        p1 = sum(self.b) - sum(ac)
        p2 = sum([d * d for d in self.b]) - sum([d * d for d in ac])
        p3 = sum([d * d * d for d in self.b]) - sum([d * d * d for d in ac])
        return _class_from_chi([(p3 - 3 * p2 + 2 * p1) // 6, (p3 - p1) // 6,
                                (p3 + 3 * p2 + 2 * p1) // 6, (p3 + 6 * p2 + 11 * p1 + 12) // 6])


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

def _ses(node: Mapping) -> ShortExactSequenceSpec:
    slots = {name: symbol_from_json(node[name]) for name in _SLOTS if node.get(name) is not None}
    unknown = node.get("unknown")
    if unknown not in _SLOTS or unknown in slots:
        raise CatalogError(f"recipe must leave exactly the slot {unknown!r} empty")
    return ShortExactSequenceSpec(**slots)


# each JSON kind: its fields, "kind" included, and its reader
_KINDS = {kind: ({"kind", *fields}, read) for kind, fields, read in [
    ("line", {"a"}, lambda node: LineBundle(node["a"])),
    ("sum", {"terms"}, lambda node: DirectSum(symbol_from_json(t) for t in node["terms"])),
    ("points", {"n"}, lambda node: PointSheaf(node["n"])),
    # O(d t + b) on a degree-d rational curve
    ("rational_curve", {"d", "b"}, lambda node: CurveModule(0, node["d"], _exact(node["b"]) + 1)),
    ("curve", {"genus", "slope", "offset", "generic"}, lambda node: CurveModule(
        node["genus"], node["slope"], node["offset"], node.get("generic", True))),
    ("ideal", {"curve"}, lambda node: ShortExactSequenceSpec(  # 0 -> I_C -> O -> O_C -> 0
        middle=LineBundle(0), right=symbol_from_json(node["curve"]))),
    ("twist", {"of", "n"}, lambda node: Twist(symbol_from_json(node["of"]), node["n"])),
    ("ses", {"unknown", *_SLOTS}, _ses),
    ("monad", {"a", "b", "c"}, lambda node: MonadShape(node["a"], node["b"], node["c"])),
    ("quotient", {"ambient", "quotient"}, lambda node: _quotient(
        symbol_from_json(node["ambient"]), symbol_from_json(node["quotient"]))),
]}


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
        if kind not in _KINDS:
            raise CatalogError(f"unknown symbol kind {kind!r}")
        fields, read = _KINDS[kind]
        if not node.keys() <= fields:
            raise CatalogError(f"unknown field {min(node.keys() - fields)!r} in a {kind!r} node")
        return read(node)
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"malformed symbol node {node!r}: {exc}") from exc


def recipe_table(node: Mapping, rng: tuple[int, int]) -> CohomologyTable:
    """Read a recipe's JSON form and evaluate it over rng."""
    return splice_ses(symbol_from_json(node), rng)


# ------------------------------------------------------------- pipeline

def _class_from_chi(chi: list) -> ChernClasses:
    # chi at t = -3..0 of any node is a cubic whose third difference is the
    # rank; for rank 2, e = the second difference, c2 = chi(-2) - chi(-1),
    # c3 = 2 chi(-2) + e c2
    x, y, z, w = chi
    rank, e, c2 = w - 3 * z + 3 * y - x, z - 2 * y + x, y - z
    if rank != 2:
        raise RankMismatchError(f"recipe has rank {rank}, expected 2")
    if e not in (-1, 0):  # twisting by k moves c1 by 2k
        raise NotNormalizedError(
            f"recipe has first Chern class {e}; twist it by {-((e + 1) // 2)} to normalize it"
        )
    return ChernClasses(e, c2, 2 * y + e * c2)


def construction_spectrum(node) -> tuple[ChernClasses, SpectrumWithS]:
    """Class and spectrum of a construction node: splice over twists -8..0, invert.

    The answer must be admissible and, with every known row, fit the
    class read from the rows' chi; h2 is withheld below the twist -3-e.
    """
    rows = _evaluate(lambda twists: _rows(node, twists), (-8, 0))
    # from the raw rows, before h2 is withheld; their chi is exact whatever ranks the policy chose
    cc = _class_from_chi([h0 - h1 + h2 - h3 for h0, h1, h2, h3 in map(rows.get, range(-3, 1))])
    for t in range(-8, -3 - cc.e):  # h2 withheld below -3-e
        rows[t] = rows[t][:2] + (None, rows[t][3])
    table = _table(-8, 0, rows, cc, range(-3 - cc.e, 1))  # the twists where h2 is kept
    sw = spectrum_from_table(table, splitting_type_from_e(cc.e))
    _check_admissible(cc, sw)
    return cc, sw
